"""Settings parsing, the analysis pipeline, and both console entry points."""

import numpy as np
import pytest

from shockstab import SettingsError, cli
from shockstab.cli import (
    Settings,
    parse_domain_spec,
    parse_grid_spec,
    parse_settings,
    parse_settings_text,
    settings_to_text,
)
from shockstab.mesh import make_annular_grid, make_cartesian_grid, read_grid, write_grid
from shockstab.state import FlowField, GasModel, prim_to_cons, write_flow_files

GAS = GasModel()

MINIMAL = "test_case = normal_shock\ngrid = 11x11\nmach = 20\nepsilon = 0.1\n"


def _summary(outdir) -> dict:
    return dict(line.split("=", 1) for line in (outdir / "summary.txt").read_text().splitlines())


def stable_settings(outdir) -> str:
    # a sharp-profile base under HLL is neutrally stable: fast (no 1-D march)
    return (
        MINIMAL
        + "solver = hll\nreconstruction = first_order\n"
        + "initialization = rankine_hugoniot\n"
        + f"output_dir = {outdir}\n"
    )


def unstable_settings(outdir) -> str:
    return (
        MINIMAL
        + "solver = hllc\nreconstruction = muscl\nlimiter = van_albada\n"
        + "initialization = rankine_hugoniot\n"
        + f"output_dir = {outdir}\n"
    )


class TestParsing:
    def test_minimal_normal_shock(self):
        s = parse_settings_text(MINIMAL)
        assert s.test_case == "normal_shock"
        assert s.mach == 20.0
        assert s.epsilon == 0.1
        assert s.solver == "roe"
        assert s.reconstruction == "muscl"
        # defaults for the shock problem are filled in
        assert s.bc_left == "supersonic_inflow"
        assert s.bc_right == "fixed_pressure_outflow"
        assert s.bc_bottom == "periodic"
        assert s.bc_top == "periodic"

    def test_comments_and_blank_lines(self):
        text = "# a comment\n\n" + MINIMAL.replace("mach = 20", "mach = 20  # trailing")
        assert parse_settings_text(text).mach == 20.0

    def test_unknown_key_reports_line(self):
        with pytest.raises(SettingsError, match="unknown settings key 'cfl' on line 2"):
            parse_settings_text("test_case = normal_shock\ncfl = 0.5\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(SettingsError, match="duplicate settings key 'mach'"):
            parse_settings_text(MINIMAL + "mach = 3\n")

    def test_malformed_lines_rejected(self):
        with pytest.raises(SettingsError, match="line 1 is not"):
            parse_settings_text("just words\n")
        with pytest.raises(SettingsError, match="has no value"):
            parse_settings_text("mach =\n")

    def test_type_errors(self):
        with pytest.raises(SettingsError, match="needs a number"):
            parse_settings_text(MINIMAL.replace("mach = 20", "mach = fast"))
        with pytest.raises(SettingsError, match="needs an integer"):
            parse_settings_text(MINIMAL + "oned_steps = 2.5\n")
        with pytest.raises(SettingsError, match="must be finite"):
            parse_settings_text(MINIMAL.replace("mach = 20", "mach = inf"))

    def test_range_checks(self):
        with pytest.raises(SettingsError, match="epsilon must lie in"):
            parse_settings_text(MINIMAL.replace("epsilon = 0.1", "epsilon = 1.5"))
        with pytest.raises(SettingsError, match="mach > 1"):
            parse_settings_text(MINIMAL.replace("mach = 20", "mach = 0.8"))
        with pytest.raises(SettingsError, match="gamma must exceed 1"):
            parse_settings_text(MINIMAL + "gamma = 1.0\n")
        with pytest.raises(SettingsError, match="must be positive"):
            parse_settings_text(MINIMAL + "oned_cfl = -0.5\n")

    @pytest.mark.parametrize("epsilon", ["0", "1"])
    def test_roe_rejects_degenerate_interface(self, epsilon):
        text = MINIMAL.replace("epsilon = 0.1", f"epsilon = {epsilon}")
        with pytest.raises(SettingsError, match="solver 'roe' needs"):
            parse_settings_text(text)
        # other solvers accept the same value
        parse_settings_text(text + "solver = hllc\n")

    def test_grid_exclusivity(self):
        with pytest.raises(SettingsError, match="exactly one of"):
            parse_settings_text("test_case = normal_shock\nmach = 2\nepsilon = 0.1\n")
        with pytest.raises(SettingsError, match="exactly one of"):
            parse_settings_text(MINIMAL + "grid_file = g.dat\n")

    def test_grid_and_domain_specs(self):
        assert parse_grid_spec("11x3") == (11, 3)
        assert parse_grid_spec("4X5") == (4, 5)
        for bad in ("11", "ax3", "0x3", "11x3x2"):
            with pytest.raises(SettingsError):
                parse_grid_spec(bad)
        assert parse_domain_spec("0,2,-1,1") == (0.0, 2.0, -1.0, 1.0)
        for bad in ("0,2,1", "0,a,0,1", "2,0,0,1"):
            with pytest.raises(SettingsError):
                parse_domain_spec(bad)
        with pytest.raises(SettingsError, match="'domain' applies only"):
            parse_settings_text(
                "test_case = normal_shock\ngrid_file = g.dat\nmach = 2\n"
                "epsilon = 0.1\ndomain = 0,1,0,1\n"
            )

    def test_external_flow_requirements(self):
        base = "test_case = external_flow\ngrid_file = g.dat\n"
        with pytest.raises(SettingsError, match="requires 'flow_file_prefix'"):
            parse_settings_text(base)
        with pytest.raises(SettingsError, match="missing bc_left"):
            parse_settings_text(base + "flow_file_prefix = f_\n")
        bcs = ("bc_left = zero_gradient\nbc_right = zero_gradient\n"
               "bc_bottom = slip_wall\nbc_top = slip_wall\n")
        ok = parse_settings_text(base + "flow_file_prefix = f_\n" + bcs)
        assert ok.bc_bottom == "slip_wall"
        with pytest.raises(SettingsError, match="applies only to test_case = normal_shock"):
            parse_settings_text(base + "flow_file_prefix = f_\n" + bcs + "mach = 2\n")
        with pytest.raises(SettingsError, match="need 'exit_pressure'"):
            parse_settings_text(
                base + "flow_file_prefix = f_\n"
                + bcs.replace("bc_right = zero_gradient", "bc_right = fixed_pressure_outflow")
            )
        with pytest.raises(SettingsError, match="need all of"):
            parse_settings_text(
                base + "flow_file_prefix = f_\n"
                + bcs.replace("bc_left = zero_gradient", "bc_left = supersonic_inflow")
            )

    def test_inflow_values_all_or_none(self):
        with pytest.raises(SettingsError, match="all four inflow"):
            parse_settings_text(MINIMAL + "inflow_rho = 1.0\n")

    def test_flow_prefix_rejected_for_shock_case(self):
        with pytest.raises(SettingsError, match="applies only to test_case = external_flow"):
            parse_settings_text(MINIMAL + "flow_file_prefix = f_\n")

    def test_unknown_bc_kind(self):
        with pytest.raises(SettingsError, match="bc_top"):
            parse_settings_text(MINIMAL + "bc_top = farfield\n")

    def test_echo_round_trip(self):
        s = parse_settings_text(MINIMAL + "solver = hllc\nround_lambda1 = 0.25\n")
        assert parse_settings_text(settings_to_text(s)) == s

    def test_parse_settings_missing_file(self, tmp_path):
        with pytest.raises(SettingsError, match="cannot read settings file"):
            parse_settings(tmp_path / "none.cfg")


class TestMainAnalysis:
    def write(self, tmp_path, text, name="run.cfg"):
        path = tmp_path / name
        path.write_text(text, encoding="ascii")
        return str(path)

    def test_stable_case_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli.main([self.write(tmp_path, stable_settings(out))])
        assert code == 0
        assert "(stable)" in capsys.readouterr().out
        for name in ("settings_echo.dat", "eigenvalues.dat", "summary.txt",
                     "mode_rho.dat", "mode_u.dat", "mode_v.dat", "mode_p.dat",
                     "flow_rho.dat", "flow_u.dat", "flow_v.dat", "flow_p.dat"):
            assert (out / name).is_file()
        spectrum = np.loadtxt(out / "eigenvalues.dat")
        assert spectrum.shape == (4 * 11 * 11, 2)
        assert np.all(np.diff(spectrum[:, 0]) <= 1e-12)  # sorted by real part
        summary = _summary(out)
        assert summary["verdict"] == "stable"
        assert float(summary["max_re_lambda"]) <= 1e-10
        assert int(summary["unknowns"]) == 484

    def test_unstable_case_exit_one(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli.main([self.write(tmp_path, unstable_settings(out))])
        assert code == 1
        assert "(unstable)" in capsys.readouterr().out
        summary = _summary(out)
        assert summary["verdict"] == "unstable"
        assert float(summary["max_re_lambda"]) > 0.01

    def test_settings_error_exit_two(self, tmp_path, capsys):
        code = cli.main([self.write(tmp_path, "mach = 2\n")])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert cli.main([str(tmp_path / "missing.cfg")]) == 2

    def test_artifacts_are_deterministic(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cli.main([self.write(tmp_path, unstable_settings(out_a), "a.cfg")])
        cli.main([self.write(tmp_path, unstable_settings(out_b), "b.cfg")])
        for name in ("eigenvalues.dat", "summary.txt", "mode_rho.dat", "mode_p.dat",
                     "flow_rho.dat"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        # the echo differs only in the output_dir line
        echo_a, echo_b = (
            [l for l in (d / "settings_echo.dat").read_text().splitlines()
             if not l.startswith("output_dir")]
            for d in (out_a, out_b)
        )
        assert echo_a == echo_b

    def test_dump_matrix(self, tmp_path):
        out = tmp_path / "out"
        code = cli.main([self.write(tmp_path, stable_settings(out)), "--dump-matrix"])
        assert code == 0
        header = (out / "matrix.dat").read_text().splitlines()[0].split()
        assert header[0] == header[1] == str(4 * 11 * 11)

    def test_settings_echo_reparses(self, tmp_path):
        out = tmp_path / "out"
        cfg = self.write(tmp_path, stable_settings(out))
        cli.main([cfg])
        echoed = parse_settings(out / "settings_echo.dat")
        assert echoed == parse_settings(cfg)

    def test_arnoldi_method(self, tmp_path):
        out = tmp_path / "out"
        text = unstable_settings(out) + "eig_method = arnoldi\narnoldi_k = 8\n"
        code = cli.main([self.write(tmp_path, text)])
        assert code == 1
        assert np.loadtxt(out / "eigenvalues.dat").shape == (8, 2)


class TestExternalFlow:
    def make_case(self, tmp_path, reconstruction="first_order"):
        grid = make_cartesian_grid(8, 4)
        write_grid(grid, tmp_path / "duct.grd")
        prim = np.tile(np.array([1.0, 2.0, 0.0, 1.0 / 1.4]), (8, 4, 1))
        write_flow_files(FlowField(q=prim_to_cons(prim, GAS)), str(tmp_path / "base_"), GAS)
        out = tmp_path / "out"
        text = (
            "test_case = external_flow\n"
            f"grid_file = {tmp_path / 'duct.grd'}\n"
            f"flow_file_prefix = {tmp_path / 'base_'}\n"
            "bc_left = supersonic_inflow\nbc_right = zero_gradient\n"
            "bc_bottom = periodic\nbc_top = periodic\n"
            "inflow_rho = 1.0\ninflow_u = 2.0\ninflow_v = 0.0\n"
            f"inflow_p = {1.0 / 1.4:.17g}\n"
            f"solver = hllc\nreconstruction = {reconstruction}\n"
            f"output_dir = {out}\n"
        )
        path = tmp_path / "ext.cfg"
        path.write_text(text, encoding="ascii")
        return path, out

    def test_uniform_duct_is_stable(self, tmp_path):
        cfg, out = self.make_case(tmp_path)
        assert cli.main([str(cfg)]) == 0
        summary = _summary(out)
        assert float(summary["max_re_lambda"]) < -0.1
        # the echoed base flow reproduces the input files bit for bit
        assert (out / "flow_rho.dat").read_bytes() == (tmp_path / "base_rho.dat").read_bytes()

    def test_validate_flag_rejected_for_external_flow(self, tmp_path):
        cfg, out = self.make_case(tmp_path)
        assert cli.main([str(cfg), "--validate"]) == 2


class TestSweepAndValidate:
    def test_sweep_table(self, tmp_path):
        out = tmp_path / "out"
        text = (
            "test_case = normal_shock\ngrid = 7x3\nmach = 3\nepsilon = 0.1\n"
            "solver = hllc\nreconstruction = first_order\n"
            "initialization = rankine_hugoniot\n"
            "sweep_mach = 2,3\nsweep_solvers = hllc\n"
            f"output_dir = {out}\n"
        )
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(text, encoding="ascii")
        assert cli.main([str(cfg), "--sweep"]) == 0
        lines = (out / "sweep.dat").read_text().splitlines()
        assert lines[0].startswith("# mach solver scheme")
        rows = [l.split() for l in lines[1:]]
        assert len(rows) == 2
        assert [r[0] for r in rows] == ["2", "3"]
        assert all(r[1] == "hllc" for r in rows)

    def test_validate_writes_tables_and_series(self, tmp_path):
        out = tmp_path / "out"
        text = (
            "test_case = normal_shock\ngrid = 7x3\nmach = 3\nepsilon = 0.1\n"
            "solver = hllc\nreconstruction = muscl\nlimiter = van_albada\n"
            "initialization = rankine_hugoniot\n"
            "validate_linear_steps = 300\nvalidate_nonlinear_steps = 60\n"
            f"output_dir = {out}\n"
        )
        cfg = tmp_path / "val.cfg"
        cfg.write_text(text, encoding="ascii")
        code = cli.main([str(cfg), "--validate"])
        assert code in (0, 1)
        lines = (out / "validation.dat").read_text().splitlines()
        assert lines[0].startswith("# mach solver scheme")
        assert lines[1].split()[0] == "3"
        assert (out / "series_linear.dat").is_file()
        assert (out / "series_nonlinear.dat").is_file()

    def test_sweep_validates_entries(self, tmp_path, capsys):
        out = tmp_path / "out"
        text = MINIMAL + f"sweep_mach = 2,0.5\noutput_dir = {out}\n"
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text, encoding="ascii")
        assert cli.main([str(cfg), "--sweep"]) == 2
        assert "sweep_mach" in capsys.readouterr().err

    def test_sweep_rejects_pinned_boundary_states(self, tmp_path, capsys):
        for extra in ("exit_pressure = 10\n",
                      "inflow_rho = 1\ninflow_u = 3\ninflow_v = 0\ninflow_p = 0.7\n"):
            out = tmp_path / "out"
            cfg = tmp_path / "pinned.cfg"
            cfg.write_text(MINIMAL + extra + f"sweep_mach = 2,3\noutput_dir = {out}\n", encoding="ascii")
            assert cli.main([str(cfg), "--sweep"]) == 2
            assert "--sweep" in capsys.readouterr().err
            assert not (out / "sweep.dat").exists()

    # Both modes below must analyse the operator of the configured grid and
    # boundaries, not a unit-cell grid with the default shock boundaries.
    SCALED = (
        "test_case = normal_shock\ngrid = 5x3\ndomain = 0,10,0,6\nmach = 20\nepsilon = 0.1\n"
        "solver = hllc\nreconstruction = muscl\ninitialization = rankine_hugoniot\n"
        "bc_right = zero_gradient\n"
    )

    def test_validation_checks_the_analysed_operator(self, tmp_path):
        out = tmp_path / "out"
        cfg = tmp_path / "val.cfg"
        cfg.write_text(self.SCALED + "validate_linear_steps = 50\nvalidate_nonlinear_steps = 20\n"
                       f"output_dir = {out}\n", encoding="ascii")
        assert cli.main([str(cfg), "--validate"]) == 1
        row = (out / "validation.dat").read_text().splitlines()[1].split()
        assert float(row[3]) == float(_summary(out)["max_re_lambda"])

    def test_sweep_row_matches_single_run(self, tmp_path):
        single, sweep = tmp_path / "single", tmp_path / "sweep"
        for out, flags in ((single, []), (sweep, ["--sweep"])):
            cfg = tmp_path / f"{out.name}.cfg"
            cfg.write_text(self.SCALED + f"sweep_mach = 3,20\nsweep_solvers = hllc\noutput_dir = {out}\n",
                           encoding="ascii")
            cli.main([str(cfg), *flags])
        rows = [l.split() for l in (sweep / "sweep.dat").read_text().splitlines()[1:]]
        row = next(r for r in rows if r[0] == "20")
        assert float(row[3]) == float(_summary(single)["max_re_lambda"])


class TestAnalyze:
    @staticmethod
    def settings(**keys):
        keys = {"grid": "8x3", "mach": 2, "epsilon": 0.1, **keys}
        return parse_settings_text("".join(f"{k} = {v}\n" for k, v in keys.items()))

    def test_time_march_structure(self):
        analysis = cli.analyze(self.settings(
            reconstruction="first_order", initialization="rankine_hugoniot",
            validate_linear_steps=300, validate_nonlinear_steps=100))
        assert analysis.spectrum.shape == (4 * 8 * 3,)
        assert np.all(np.diff(analysis.spectrum.real) <= 0.0)
        assert analysis.oned is None
        assert np.array_equal(analysis.base.q, prim_to_cons(analysis.base_prim, GAS))
        marches, errors = cli.time_march(analysis)
        assert list(marches) == ["linear", "nonlinear"]
        for kind, (series, sigma) in marches.items():
            assert len(series.t) > 1
            # every rate is either fitted or has a recorded reason
            assert (sigma is not None) or any(e.startswith(kind) for e in errors)

    def test_projection_bookkeeping(self):
        analysis = cli.analyze(self.settings(solver="hllc", oned_steps=200))
        assert analysis.stab.n == 4 * 8 * 3
        assert analysis.oned is not None
        assert analysis.oned.residual_history.shape == (200,)

    def test_deterministic(self):
        settings = self.settings(reconstruction="first_order", initialization="rankine_hugoniot",
                                 validate_linear_steps=200, validate_nonlinear_steps=10)
        a, b = cli.analyze(settings), cli.analyze(settings)
        assert np.array_equal(a.spectrum, b.spectrum)
        lin_a, lin_b = cli.time_march(a)[0]["linear"][0], cli.time_march(b)[0]["linear"][0]
        assert np.array_equal(lin_a.log_norm, lin_b.log_norm)


class TestGridgen:
    def test_cartesian(self, tmp_path):
        out = tmp_path / "cart.grd"
        assert cli.gridgen_main(["cartesian", "4", "3", "-o", str(out)]) == 0
        grid = read_grid(out)
        ref = make_cartesian_grid(4, 3)
        assert np.array_equal(grid.x, ref.x)
        assert np.array_equal(grid.y, ref.y)

    def test_cartesian_with_extent(self, tmp_path):
        out = tmp_path / "cart.grd"
        code = cli.gridgen_main(
            ["cartesian", "4", "3", "--extent", "0", "2", "-1", "1", "-o", str(out)]
        )
        assert code == 0
        grid = read_grid(out)
        ref = make_cartesian_grid(4, 3, (0.0, 2.0, -1.0, 1.0))
        assert np.array_equal(grid.x, ref.x)

    def test_annular(self, tmp_path):
        out = tmp_path / "ann.grd"
        code = cli.gridgen_main(
            ["annular", "5", "4", "--inner", "1.5", "--outer", "3.0",
             "--angle-deg", "45", "-o", str(out)]
        )
        assert code == 0
        grid = read_grid(out)
        ref = make_annular_grid(5, 4, 1.5, 3.0, np.deg2rad(45.0))
        assert np.allclose(grid.x, ref.x, rtol=1e-15, atol=1e-17)
        assert np.allclose(grid.y, ref.y, rtol=1e-15, atol=1e-17)

    def test_invalid_counts_exit_two(self, tmp_path, capsys):
        code = cli.gridgen_main(["cartesian", "0", "3", "-o", str(tmp_path / "g.grd")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit):
            cli.gridgen_main([])
