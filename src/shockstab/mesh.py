"""Structured quadrilateral grids: file I/O, generators, and face/volume metrics.

Grids are stored as node coordinate arrays ``x, y`` of shape
``(ni_nodes, nj_nodes)``.  Cells are indexed ``(i, j)`` with
``0 <= i < ni_nodes - 1`` and ``0 <= j < nj_nodes - 1``; cell ``(i, j)`` has
corner nodes ``(i, j), (i+1, j), (i+1, j+1), (i, j+1)`` in counterclockwise
order.  All geometry is planar; the file format carries a third coordinate
that must be zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GridError

__all__ = [
    "Grid",
    "GridMetrics",
    "read_grid",
    "write_grid",
    "make_cartesian_grid",
    "make_annular_grid",
    "compute_metrics",
]

#: Largest |z| accepted when reading the nominally planar grid format.
_Z_TOL = 1.0e-12


@dataclass(frozen=True)
class Grid:
    """Node coordinates of a structured quadrilateral grid.

    Attributes
    ----------
    x, y : ndarray, shape (ni_nodes, nj_nodes)
        Node coordinates, ``i``-fastest with respect to the on-disk record
        order.
    """

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.ndim != 2 or x.shape != y.shape:
            raise GridError(f"coordinate arrays must be 2-D and congruent, got {x.shape} and {y.shape}")
        if x.shape[0] < 2 or x.shape[1] < 2:
            raise GridError(f"grid needs at least 2 nodes per direction, got {x.shape}")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise GridError("grid coordinates contain non-finite values")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def ni_nodes(self) -> int:
        return self.x.shape[0]

    @property
    def nj_nodes(self) -> int:
        return self.x.shape[1]

    @property
    def ni_cells(self) -> int:
        return self.x.shape[0] - 1

    @property
    def nj_cells(self) -> int:
        return self.x.shape[1] - 1


@dataclass(frozen=True)
class GridMetrics:
    """Face and volume metrics of a :class:`Grid`.

    Face normals are unit vectors with a fixed orientation convention:
    ``iface`` normals point toward increasing ``i`` and ``jface`` normals
    toward increasing ``j``.  Face ``f`` in a direction separates cell
    ``f - 1`` from cell ``f``, so each cell ``(i, j)`` is bounded by ifaces
    ``i`` and ``i + 1`` and jfaces ``j`` and ``j + 1``.

    Attributes
    ----------
    volume : ndarray, shape (ni, nj)
        Cell areas (positive).
    iface_len : ndarray, shape (ni + 1, nj)
    iface_normal : ndarray, shape (ni + 1, nj, 2)
    jface_len : ndarray, shape (ni, nj + 1)
    jface_normal : ndarray, shape (ni, nj + 1, 2)
    """

    volume: np.ndarray
    iface_len: np.ndarray
    iface_normal: np.ndarray
    jface_len: np.ndarray
    jface_normal: np.ndarray

    @property
    def ni(self) -> int:
        return self.volume.shape[0]

    @cached_property
    def face_normal(self) -> np.ndarray:
        """Normals of both families as one read-only ``(faces, 2)`` batch, i-faces first."""
        normal = np.concatenate((self.iface_normal.reshape(-1, 2), self.jface_normal.reshape(-1, 2)))
        normal.flags.writeable = False
        return normal

    @property
    def nj(self) -> int:
        return self.volume.shape[1]

    @cached_property
    def cell_faces(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Length, ``nx`` and ``ny`` of every cell's four faces, as read-only ``(4, ni, nj)`` arrays.

        The faces run i-face before, i-face after, j-face before, j-face after.
        """
        length = np.stack((self.iface_len[:-1], self.iface_len[1:], self.jface_len[:, :-1], self.jface_len[:, 1:]))
        normal = np.stack(
            (self.iface_normal[:-1], self.iface_normal[1:], self.jface_normal[:, :-1], self.jface_normal[:, 1:])
        )
        out = (length, normal[..., 0].copy(), normal[..., 1].copy())
        for a in out:
            a.flags.writeable = False
        return out


def read_grid(path) -> Grid:
    """Read a plain-text structured grid.

    The first record holds the node counts ``ni_nodes nj_nodes``; the
    remaining ``ni_nodes * nj_nodes`` records hold ``x y z`` for each node
    with the ``i`` index varying fastest.  ``z`` must vanish (|z| <= 1e-12);
    a non-finite ``z`` is rejected.

    Raises
    ------
    GridError
        On unreadable or non-ASCII files, malformed headers, wrong record
        counts, non-numeric fields, or out-of-plane or non-finite ``z``.
    """
    try:
        with open(path, "r", encoding="ascii") as fh:
            tokens = fh.read().split()
    except (OSError, UnicodeDecodeError) as exc:
        raise GridError(f"cannot read grid file {path!r}: {exc}") from exc
    if len(tokens) < 2:
        raise GridError(f"grid file {path!r} is missing the node-count header")
    try:
        ni_nodes, nj_nodes = int(tokens[0]), int(tokens[1])
    except ValueError as exc:
        raise GridError(f"grid file {path!r} has a non-integer node-count header") from exc
    if ni_nodes < 2 or nj_nodes < 2:
        raise GridError(f"grid file {path!r} declares {ni_nodes} x {nj_nodes} nodes; need >= 2 each")
    expected = 2 + 3 * ni_nodes * nj_nodes
    if len(tokens) != expected:
        raise GridError(
            f"grid file {path!r} has {len(tokens)} fields, expected {expected} "
            f"for {ni_nodes} x {nj_nodes} nodes"
        )
    try:
        values = np.array(tokens[2:], dtype=float)
    except ValueError as exc:
        raise GridError(f"grid file {path!r} contains a non-numeric coordinate") from exc
    coords = values.reshape(nj_nodes, ni_nodes, 3)  # record order is i-fastest
    z = coords[:, :, 2]
    if not np.all(np.abs(z) <= _Z_TOL):  # a NaN z is not planar either
        raise GridError(f"grid file {path!r} is not planar: max |z| = {np.max(np.abs(z)):g}")
    x = coords[:, :, 0].T.copy()
    y = coords[:, :, 1].T.copy()
    return Grid(x=x, y=y)


def write_grid(grid: Grid, path) -> None:
    """Write a grid in the format accepted by :func:`read_grid`.

    Coordinates are written with 17 significant digits so a read/write cycle
    reproduces the values bit for bit.
    """
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{grid.ni_nodes} {grid.nj_nodes}\n")
        records = zip(grid.x.T.ravel().tolist(), grid.y.T.ravel().tolist())  # i fastest
        fh.writelines(f"{x:.17g} {y:.17g} 0\n" for x, y in records)


def make_cartesian_grid(
    ni_cells: int,
    nj_cells: int,
    extent: tuple[float, float, float, float] | None = None,
) -> Grid:
    """Build a uniform Cartesian grid with ``ni_cells x nj_cells`` cells.

    ``extent`` is ``(x0, x1, y0, y1)``; when omitted, cells are unit squares
    anchored at the origin.
    """
    if ni_cells < 1 or nj_cells < 1:
        raise GridError(f"need at least one cell per direction, got {ni_cells} x {nj_cells}")
    if extent is None:
        extent = (0.0, float(ni_cells), 0.0, float(nj_cells))
    x0, x1, y0, y1 = map(float, extent)
    if not np.all(np.isfinite((x0, x1, y0, y1))):
        raise GridError(f"extent must be finite, got {extent}")
    if not (x1 > x0 and y1 > y0):
        raise GridError(f"degenerate extent {extent}")
    xv = np.linspace(x0, x1, ni_cells + 1)
    yv = np.linspace(y0, y1, nj_cells + 1)
    x, y = np.meshgrid(xv, yv, indexing="ij")
    return Grid(x=x, y=y)


def make_annular_grid(
    ni_cells: int,
    nj_cells: int,
    r_inner: float = 1.0,
    r_outer: float = 2.0,
    angle: float = 0.5 * np.pi,
) -> Grid:
    """Build a curved annular-sector grid (radial ``i``, azimuthal ``j``).

    Useful as a genuinely non-Cartesian test geometry: all faces are tilted
    and cell volumes vary, so metric terms are fully exercised.
    """
    if not (0.0 < r_inner < r_outer < np.inf):
        raise GridError(f"need 0 < r_inner < r_outer < inf, got {r_inner}, {r_outer}")
    if not (0.0 < angle <= 2.0 * np.pi):
        raise GridError(f"sector angle must lie in (0, 2*pi], got {angle}")
    r = np.linspace(r_inner, r_outer, ni_cells + 1)
    th = np.linspace(-0.5 * angle, 0.5 * angle, nj_cells + 1)
    rr, tt = np.meshgrid(r, th, indexing="ij")
    return Grid(x=rr * np.cos(tt), y=rr * np.sin(tt))


def _edge_faces(dx: np.ndarray, dy: np.ndarray, sign: float, family: str):
    """Length and unit normal ``sign * (dy, -dx) / length`` of the edges ``(dx, dy)``;
    ``sign`` is exactly +-1, so the product keeps every bit, signed zeros too."""
    length = np.hypot(dx, dy)
    if np.any(length <= 0.0):
        raise GridError(f"grid has a degenerate {family}-face (coincident nodes)")
    if not np.all(np.isfinite(length)):
        raise GridError(f"grid has a {family}-face of non-finite length (node coordinates overflow)")
    return length, np.stack((sign * dy / length, -sign * dx / length), axis=-1)


def compute_metrics(grid: Grid) -> GridMetrics:
    """Compute unit face normals, face lengths, and cell areas.

    Cell areas come from the shoelace formula over the four corner nodes,
    assuming counterclockwise orientation; non-positive or non-finite areas
    and zero-length or non-finite faces raise :class:`GridError`.  Because
    each face length times its normal is an exact 90-degree rotation of the
    corresponding edge vector, the outward-scaled normals of every cell sum
    to zero to rounding accuracy, which keeps uniform flow exactly
    stationary.
    """
    x, y = grid.x, grid.y
    # Coordinates that overflow give non-finite lengths or areas, rejected below.
    with np.errstate(over="ignore", invalid="ignore"):
        # i-faces: edge from node (f, j) to node (f, j+1), normal toward +i.
        iface_len, iface_normal = _edge_faces(x[:, 1:] - x[:, :-1], y[:, 1:] - y[:, :-1], 1.0, "i")
        # j-faces: edge from node (i, f) to node (i+1, f), normal toward +j.
        jface_len, jface_normal = _edge_faces(x[1:, :] - x[:-1, :], y[1:, :] - y[:-1, :], -1.0, "j")

        xa, ya = x[:-1, :-1], y[:-1, :-1]
        xb, yb = x[1:, :-1], y[1:, :-1]
        xc, yc = x[1:, 1:], y[1:, 1:]
        xd, yd = x[:-1, 1:], y[:-1, 1:]
        volume = 0.5 * (
            (xa * yb - xb * ya)
            + (xb * yc - xc * yb)
            + (xc * yd - xd * yc)
            + (xd * ya - xa * yd)
        )
    if not np.all(np.isfinite(volume)):
        bad = int(np.sum(~np.isfinite(volume)))
        raise GridError(f"{bad} cell(s) have non-finite area; node coordinates overflow")
    if np.any(volume <= 0.0):
        bad = int(np.sum(volume <= 0.0))
        raise GridError(
            f"{bad} cell(s) have non-positive area; nodes must be ordered "
            "counterclockwise with i-fastest records"
        )
    return GridMetrics(
        volume=volume,
        iface_len=iface_len,
        iface_normal=iface_normal,
        jface_len=jface_len,
        jface_normal=jface_normal,
    )
