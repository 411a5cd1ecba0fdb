"""Grid construction, metrics identities, and grid-file round trips."""

import re
import warnings

import numpy as np
import pytest

from shockstab import GridError
from shockstab.mesh import (
    Grid,
    compute_metrics,
    make_annular_grid,
    make_cartesian_grid,
    read_grid,
    write_grid,
)


def polygon_area(xs, ys):
    """Shoelace area of a polygon given in counterclockwise order."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    return 0.5 * np.sum(xs * np.roll(ys, -1) - np.roll(xs, -1) * ys)


def perturbed_grid(ni, nj, amplitude=0.15, seed=0):
    """Cartesian grid with interior nodes displaced by a seeded jitter."""
    rng = np.random.default_rng(seed)
    grid = make_cartesian_grid(ni, nj)
    x = grid.x.copy()
    y = grid.y.copy()
    x[1:-1, 1:-1] += amplitude * rng.uniform(-1.0, 1.0, x[1:-1, 1:-1].shape)
    y[1:-1, 1:-1] += amplitude * rng.uniform(-1.0, 1.0, y[1:-1, 1:-1].shape)
    return Grid(x=x, y=y)


class TestGrid:
    def test_shape_properties(self):
        grid = make_cartesian_grid(4, 3)
        assert grid.ni_nodes == 5
        assert grid.nj_nodes == 4
        assert grid.ni_cells == 4
        assert grid.nj_cells == 3

    def test_rejects_mismatched_arrays(self):
        with pytest.raises(GridError):
            Grid(x=np.zeros((3, 3)), y=np.zeros((3, 4)))

    def test_rejects_single_node_direction(self):
        with pytest.raises(GridError):
            Grid(x=np.zeros((1, 4)), y=np.zeros((1, 4)))

    def test_rejects_non_finite(self):
        x = np.zeros((3, 3))
        x[1, 1] = np.nan
        with pytest.raises(GridError):
            Grid(x=x, y=np.zeros((3, 3)))


class TestGenerators:
    def test_cartesian_unit_cells(self):
        grid = make_cartesian_grid(3, 2)
        assert np.array_equal(grid.x[:, 0], [0.0, 1.0, 2.0, 3.0])
        assert np.array_equal(grid.y[0, :], [0.0, 1.0, 2.0])

    def test_cartesian_extent(self):
        grid = make_cartesian_grid(2, 5, extent=(-1.0, 1.0, 0.0, 10.0))
        assert grid.x[0, 0] == -1.0
        assert grid.x[-1, 0] == 1.0
        assert grid.y[0, -1] == 10.0

    def test_cartesian_rejects_bad_extent(self):
        with pytest.raises(GridError):
            make_cartesian_grid(2, 2, extent=(0.0, 0.0, 0.0, 1.0))

    def test_cartesian_rejects_zero_cells(self):
        with pytest.raises(GridError):
            make_cartesian_grid(0, 2)

    def test_annular_radii_and_angles(self):
        grid = make_annular_grid(3, 4, r_inner=1.0, r_outer=2.5, angle=np.pi / 2)
        r = np.hypot(grid.x, grid.y)
        # radius depends only on i, and spans [r_inner, r_outer]
        assert np.allclose(r, r[:, :1], atol=1e-14)
        assert np.allclose(r[:, 0], np.linspace(1.0, 2.5, 4))
        th = np.arctan2(grid.y, grid.x)
        assert np.allclose(th[0, :], np.linspace(-np.pi / 4, np.pi / 4, 5))

    def test_annular_rejects_bad_radii(self):
        with pytest.raises(GridError):
            make_annular_grid(2, 2, r_inner=2.0, r_outer=1.0)

    @pytest.mark.parametrize("angle", [0.0, -1.0, 2.0 * np.pi + 1e-9, np.inf, np.nan])
    def test_annular_rejects_bad_angle(self, angle):
        with pytest.raises(GridError, match=r"^sector angle must lie in \(0, 2\*pi\], got "):
            make_annular_grid(2, 2, angle=angle)


class TestMetrics:
    def test_cartesian_values(self):
        metrics = compute_metrics(make_cartesian_grid(4, 3, extent=(0.0, 8.0, 0.0, 1.5)))
        # dx = 2, dy = 0.5
        assert np.allclose(metrics.volume, 1.0)
        assert np.allclose(metrics.iface_len, 0.5)
        assert np.allclose(metrics.jface_len, 2.0)
        assert np.allclose(metrics.iface_normal[..., 0], 1.0)
        assert np.allclose(metrics.iface_normal[..., 1], 0.0)
        assert np.allclose(metrics.jface_normal[..., 0], 0.0)
        assert np.allclose(metrics.jface_normal[..., 1], 1.0)

    def test_single_cell_shoelace(self):
        # one skewed quadrilateral with a hand-computed area
        x = np.array([[0.0, 0.2], [1.1, 1.4]])
        y = np.array([[0.0, 1.0], [0.1, 1.3]])
        metrics = compute_metrics(Grid(x=x, y=y))
        corners_x = [0.0, 1.1, 1.4, 0.2]
        corners_y = [0.0, 0.1, 1.3, 1.0]
        assert metrics.volume[0, 0] == pytest.approx(polygon_area(corners_x, corners_y), rel=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_closed_polygon_identity(self, seed):
        # outward length-scaled normals of every cell sum to zero exactly
        grid = perturbed_grid(7, 5, seed=seed)
        m = compute_metrics(grid)
        ln_i = m.iface_normal * m.iface_len[..., None]
        ln_j = m.jface_normal * m.jface_len[..., None]
        closure = ln_i[1:, :] - ln_i[:-1, :] + ln_j[:, 1:] - ln_j[:, :-1]
        assert np.max(np.abs(closure)) < 1e-13

    @pytest.mark.parametrize("seed", range(3))
    def test_total_volume_matches_boundary_shoelace(self, seed):
        # cell areas telescope to the area of the outer boundary polygon
        grid = perturbed_grid(6, 4, seed=seed)
        m = compute_metrics(grid)
        bx = np.concatenate([grid.x[:-1, 0], grid.x[-1, :-1], grid.x[:0:-1, -1], grid.x[0, :0:-1]])
        by = np.concatenate([grid.y[:-1, 0], grid.y[-1, :-1], grid.y[:0:-1, -1], grid.y[0, :0:-1]])
        assert np.sum(m.volume) == pytest.approx(polygon_area(bx, by), rel=1e-13)

    def test_annular_total_volume(self):
        # polygonal quarter annulus: ring of isosceles trapezoids
        ni, nj = 5, 9
        r_in, r_out, angle = 1.0, 2.0, np.pi / 2
        m = compute_metrics(make_annular_grid(ni, nj, r_in, r_out, angle))
        # straight-edged sector polygon area: sum over radial strips of the
        # chord-triangle areas, computed independently
        r = np.linspace(r_in, r_out, ni + 1)
        chord_factor = 0.5 * np.sin(angle / nj) * nj
        expected = chord_factor * np.sum(r[1:] * r[1:] - r[:-1] * r[:-1])
        assert np.sum(m.volume) == pytest.approx(expected, rel=1e-12)

    def test_scaled_normals_are_rotated_edges(self):
        grid = perturbed_grid(4, 4, seed=3)
        m = compute_metrics(grid)
        # i-face (f, j): edge runs from node (f, j) to (f, j+1)
        ex = grid.x[:, 1:] - grid.x[:, :-1]
        ey = grid.y[:, 1:] - grid.y[:, :-1]
        assert np.allclose(m.iface_normal[..., 0] * m.iface_len, ey, atol=1e-15)
        assert np.allclose(m.iface_normal[..., 1] * m.iface_len, -ex, atol=1e-15)
        assert np.allclose(np.linalg.norm(m.iface_normal, axis=-1), 1.0, atol=1e-14)
        assert np.allclose(np.linalg.norm(m.jface_normal, axis=-1), 1.0, atol=1e-14)

    @pytest.mark.parametrize("grid", [make_cartesian_grid(3, 2), make_annular_grid(3, 4, 1.0, 2.0, np.pi)],
                             ids=["cartesian", "annular"])
    def test_unit_normals_bitwise(self, grid):
        # each unit normal is its edge turned by 90 degrees over its length, zero signs included
        m = compute_metrics(grid)
        x, y = grid.x, grid.y
        di_x, di_y = x[:, 1:] - x[:, :-1], y[:, 1:] - y[:, :-1]
        dj_x, dj_y = x[1:, :] - x[:-1, :], y[1:, :] - y[:-1, :]
        for normal, expected in (
            (m.iface_normal, np.stack((di_y / m.iface_len, -di_x / m.iface_len), axis=-1)),
            (m.jface_normal, np.stack((-dj_y / m.jface_len, dj_x / m.jface_len), axis=-1)),
        ):
            assert np.array_equal(normal, expected)
            assert np.array_equal(np.signbit(normal), np.signbit(expected))

    def test_degenerate_face_rejected(self):
        x = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        y = np.array([[0.0, 0.0], [0.0, 1.0], [0.0, 1.0]])  # first i-face has zero length
        with pytest.raises(GridError, match="degenerate i-face"):
            compute_metrics(Grid(x=x, y=y))
        with pytest.raises(GridError, match="degenerate j-face"):
            compute_metrics(Grid(x=x.T, y=y.T))

    def test_negative_area_rejected(self):
        grid = make_cartesian_grid(2, 2)
        x = grid.x[::-1, :].copy()  # mirror flips orientation
        with pytest.raises(GridError):
            compute_metrics(Grid(x=x, y=grid.y))


class TestGridFiles:
    def test_round_trip_bit_exact(self, tmp_path):
        grid = perturbed_grid(5, 3, seed=11)
        path = tmp_path / "grid.dat"
        write_grid(grid, path)
        back = read_grid(path)
        assert np.array_equal(back.x, grid.x)
        assert np.array_equal(back.y, grid.y)

    def test_header_and_record_order(self, tmp_path):
        grid = make_cartesian_grid(2, 1, extent=(0.0, 2.0, 0.0, 1.0))
        path = tmp_path / "grid.dat"
        write_grid(grid, path)
        lines = path.read_text().splitlines()
        assert lines[0].split() == ["3", "2"]
        # i varies fastest: nodes (0,0), (1,0), (2,0), (0,1), ...
        assert lines[1].split() == ["0", "0", "0"]
        assert lines[2].split() == ["1", "0", "0"]
        assert lines[4].split() == ["0", "1", "0"]

    def test_missing_file(self, tmp_path):
        with pytest.raises(GridError):
            read_grid(tmp_path / "absent.dat")

    def test_wrong_record_count(self, tmp_path):
        path = tmp_path / "grid.dat"
        path.write_text("2 2\n0 0 0\n1 0 0\n0 1 0\n")
        with pytest.raises(GridError):
            read_grid(path)

    def test_non_numeric_coordinate(self, tmp_path):
        path = tmp_path / "grid.dat"
        path.write_text("2 2\n0 0 0\n1 0 0\n0 oops 0\n1 1 0\n")
        with pytest.raises(GridError):
            read_grid(path)

    def test_non_planar_rejected(self, tmp_path):
        path = tmp_path / "grid.dat"
        path.write_text("2 2\n0 0 0\n1 0 0\n0 1 0\n1 1 0.5\n")
        with pytest.raises(GridError):
            read_grid(path)

    def test_nan_z_rejected(self, tmp_path):
        # NaN fails every comparison, so a max |z| test alone let it through.
        path = tmp_path / "grid.dat"
        path.write_text("2 2\n0 0 0\n1 0 0\n0 1 nan\n1 1 0\n")
        with pytest.raises(GridError, match="is not planar"):
            read_grid(path)

    def test_non_ascii_file_rejected(self, tmp_path):
        path = tmp_path / "grid.dat"
        path.write_bytes(b"2 2\n0 0 0\n1 0 0\n0 1 0\n1 1 0 \xe9\n")
        with pytest.raises(GridError, match="cannot read grid file .*grid.dat"):
            read_grid(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "grid.dat"
        path.write_text("two 2\n")
        with pytest.raises(GridError):
            read_grid(path)

    @pytest.mark.parametrize("text", ["", "3\n"])
    def test_missing_header(self, tmp_path, text):
        path = tmp_path / "grid.dat"
        path.write_text(text)
        with pytest.raises(GridError, match=rf"^grid file {re.escape(repr(path))} is missing the node-count header$"):
            read_grid(path)

    @pytest.mark.parametrize("header", ["1 3", "3 1", "0 0"])
    def test_fewer_than_two_nodes_per_direction(self, tmp_path, header):
        path = tmp_path / "grid.dat"
        path.write_text(f"{header}\n0 0 0\n1 0 0\n2 0 0\n")
        ni, nj = header.split()
        message = rf"^grid file {re.escape(repr(path))} declares {ni} x {nj} nodes; need >= 2 each$"
        with pytest.raises(GridError, match=message):
            read_grid(path)

    def test_reader_is_i_fastest(self, tmp_path):
        # hand-written 3x2-node file; node (i=2, j=1) is the last record
        path = tmp_path / "grid.dat"
        path.write_text(
            "3 2\n"
            "0 0 0\n1 0 0\n2 0 0\n"
            "0 1 0\n1 1 0\n2 1 0\n"
        )
        grid = read_grid(path)
        assert grid.x[2, 1] == 2.0
        assert grid.y[2, 1] == 1.0
        assert grid.x[1, 0] == 1.0


class TestNonFiniteExtents:
    """An infinite or NaN extent is a GridError before any coordinate is computed."""

    @pytest.mark.parametrize("extent", [(0.0, np.inf, 0.0, 1.0), (-np.inf, 1.0, 0.0, 1.0),
                                        (0.0, 1.0, 0.0, np.inf), (0.0, 1.0, np.nan, 1.0)])
    def test_cartesian(self, extent):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GridError):
                make_cartesian_grid(3, 2, extent=extent)

    @pytest.mark.parametrize("radii", [(1.0, np.inf), (1.0, np.nan), (np.nan, 2.0)])
    def test_annular(self, radii):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GridError, match="r_outer"):
                make_annular_grid(3, 2, *radii)


class TestOverflowingCoordinates:
    """Finite coordinates whose areas or face lengths overflow are a GridError, not NaN or inf metrics."""

    @staticmethod
    def scaled(scale):
        grid = make_cartesian_grid(2, 2)
        return Grid(x=grid.x * scale + scale, y=grid.y * scale + scale)

    @pytest.mark.parametrize("scale", [1e200, 1e155])  # NaN areas, infinite areas
    def test_non_finite_area_rejected(self, scale):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GridError, match=r"^4 cell\(s\) have non-finite area"):
                compute_metrics(self.scaled(scale))

    def test_non_finite_face_rejected(self):
        x = np.array([[-1e308, -1e308], [1e308, 1e308]])
        y = np.array([[0.0, 1.0], [0.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GridError, match="j-face of non-finite length"):
                compute_metrics(Grid(x=x, y=y))

    def test_grid_file_run_exits_2(self, tmp_path, capsys):
        from shockstab import cli

        write_grid(self.scaled(1e200), tmp_path / "huge.grd")
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(f"test_case = normal_shock\ngrid_file = {tmp_path / 'huge.grd'}\nmach = 3\nepsilon = 0.1\n"
                       f"output_dir = {tmp_path / 'out'}\n", encoding="ascii")
        assert cli.main([str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "non-finite area" in err and "Traceback" not in err
