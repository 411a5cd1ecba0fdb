"""Ghost-cell boundary conditions and the finite-volume residual.

The residual of cell ``(i, j)`` is the negative volume-scaled sum of
length-weighted face fluxes,

``R_ij = -(1/vol_ij) * (L F|_{i+1} - L F|_i + L F|_{j+1} - L F|_j)``,

with every face flux evaluated along the fixed ``+i``/``+j`` normal
orientation, so each face contributes to its two neighbours with opposite
signs and the scheme is conservative by construction.

Reconstruction stencils reach two cells to each side, so the interior field
is embedded in an extended array with two ghost layers per side.  Corner
ghosts are never read by the axis-aligned stencils; they are filled with
copies of adjacent ghosts only to keep the array finite.  Most ghosts are
copies of interior cells (periodic and zero-gradient sides); the rest are a
few *ghost rows* formed from the boundary cells: one inflow state per inflow
side, one exit-pressure state per boundary cell, two mirrored states per
slip-wall boundary cell.  :func:`_ghost_table` holds the cells and those
rows as one component-major ``(4, rows)`` table, rewrites the rows that
depend on cells in place and hands out the maps of :func:`_frame_rows`,
which point every frame cell and every face's stencil into that table and
name each row's source cell.  :func:`fill_ghosts` and
:func:`ghost_dependency` are gathers through those maps.

Both face families travel as one batch, i-faces first: the residual makes
one reconstruction call and one flux call per evaluation and splits the
fluxes back into the ``(ni+1, nj)`` and ``(ni, nj+1)`` family shapes.

The face kernels work on component-major batches (see
:mod:`shockstab.numerics`), and so do both explicit marches' states; the
public functions keep the ``(ni, nj, 4)`` layout.  The nonlinear march's
right-hand side, :func:`_residual_map`, skips the frame: it owns one ghost
table for the whole march, whose ``(4, ni, nj)`` cells block the march
writes each stage's state into.  Each evaluation rewrites the exit-pressure
and slip-wall rows, takes the component-major ``(4, 4, faces)`` stencils in
one gather from the table and hands them to the private reconstruction and
flux kernels, with the bits of :func:`fill_ghosts` plus :func:`residual`
(the frame-based reference path).  :func:`_flux_balance` takes the ``(4,
faces)`` fluxes and returns the component-major ``(4, ni, nj)`` balance.
:func:`shockstab.stability.assemble` linearizes the same one-take batch,
reading each stencil cell's source cell and ghost derivative through the
same maps, and scatters into each cell the faces :func:`_cell_faces` lists.

The 1-D base march has a residual of its own, :func:`_march_map`: a batch
of members on a one-row strip periodic in ``j``, whose j-faces carry the
cell states on both sides and cancel exactly, so it fluxes the i-faces
alone.  It forms its ``(4, members, ni + 4)`` frame and its members'
solver runs once per march.  The members' states live in the frame's
interior, which the march updates in place, the exit ghosts come from the
last interior cells through :func:`_exit_pressure_state`, and the stencils
are a sliding-window view of the frame.  The two
marches and the assembly re-test the face states in the flux exactly where
the reconstruction has not (it returns no primitive columns);
:func:`residual` tests them all.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import groupby

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import StateError
from .mesh import GridMetrics
from .numerics import (
    ReconstructionScheme,
    _central_difference,
    _components_first,
    _components_last,
    _reconstruct_stencil,
    _riemann_flux,
    _solver_kernel,
    reconstruct_pair,
    riemann_flux,
)
from .state import (
    FlowField,
    GasModel,
    _conservative_columns,
    cons_to_prim,
    is_physical_prim,
    normal_shock_states,
    prim_to_cons,
)

__all__ = [
    "BC_KINDS",
    "SIDES",
    "BoundaryCondition",
    "BoundaryConditionSet",
    "GhostField",
    "normal_shock_bcs",
    "fill_ghosts",
    "ghost_dependency",
    "face_reconstruction",
    "residual",
]

BC_KINDS = ("supersonic_inflow", "zero_gradient", "fixed_pressure_outflow", "slip_wall", "periodic")
SIDES = ("left", "right", "bottom", "top")


@dataclass(frozen=True)
class BoundaryCondition:
    """One side's boundary treatment.

    ``state`` is the frozen conservative inflow state (supersonic_inflow
    only); ``pressure`` the imposed exit pressure (fixed_pressure_outflow
    only).
    """

    kind: str
    state: np.ndarray | None = None
    pressure: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in BC_KINDS:
            raise StateError(f"unknown boundary kind {self.kind!r}; choose one of {BC_KINDS}")
        if self.kind == "supersonic_inflow":
            if self.state is None:
                raise StateError("supersonic_inflow requires a conservative state")
            state = np.asarray(self.state, dtype=float)
            if state.shape != (4,):
                raise StateError(f"inflow state must have shape (4,), got {state.shape}")
            if not is_physical_prim(cons_to_prim(state, GasModel())):
                # gamma only affects the pressure sign through a positive factor
                raise StateError("inflow state has non-positive density or pressure")
            object.__setattr__(self, "state", state)
        elif self.state is not None:
            raise StateError(f"boundary kind {self.kind!r} takes no state")
        if self.kind == "fixed_pressure_outflow":
            pressure = np.asarray(np.nan if self.pressure is None else self.pressure, dtype=float)
            if pressure.ndim or not (np.isfinite(pressure) and pressure > 0.0):
                raise StateError(f"fixed_pressure_outflow requires a positive pressure, got {self.pressure}")
        elif self.pressure is not None:
            raise StateError(f"boundary kind {self.kind!r} takes no pressure")

    @classmethod
    def supersonic_inflow(cls, state: np.ndarray) -> "BoundaryCondition":
        return cls(kind="supersonic_inflow", state=np.asarray(state, dtype=float))

    @classmethod
    def zero_gradient(cls) -> "BoundaryCondition":
        return cls(kind="zero_gradient")

    @classmethod
    def fixed_pressure_outflow(cls, pressure: float) -> "BoundaryCondition":
        return cls(kind="fixed_pressure_outflow", pressure=float(pressure))

    @classmethod
    def slip_wall(cls) -> "BoundaryCondition":
        return cls(kind="slip_wall")

    @classmethod
    def periodic(cls) -> "BoundaryCondition":
        return cls(kind="periodic")


@dataclass(frozen=True)
class BoundaryConditionSet:
    """Boundary conditions for the four sides of the structured grid.

    Periodicity couples opposite sides, so either both members of a pair are
    periodic or neither is.
    """

    left: BoundaryCondition
    right: BoundaryCondition
    bottom: BoundaryCondition
    top: BoundaryCondition

    def __post_init__(self) -> None:
        for a, b in (("left", "right"), ("bottom", "top")):
            ka = getattr(self, a).kind == "periodic"
            kb = getattr(self, b).kind == "periodic"
            if ka != kb:
                raise StateError(f"periodic boundaries must pair up: {a}/{b} disagree")

    def side(self, name: str) -> BoundaryCondition:
        return getattr(self, name)


def normal_shock_bcs(mach: float, gas: GasModel = GasModel()) -> BoundaryConditionSet:
    """Default boundaries for the normal-shock problem.

    Supersonic inflow frozen at the upstream state on the left, imposed
    downstream pressure on the right, periodic top/bottom.
    """
    up_prim, down_prim = normal_shock_states(mach, gas)
    return BoundaryConditionSet(
        left=BoundaryCondition.supersonic_inflow(prim_to_cons(up_prim, gas)),
        right=BoundaryCondition.fixed_pressure_outflow(down_prim[3]),
        bottom=BoundaryCondition.periodic(),
        top=BoundaryCondition.periodic(),
    )


@dataclass
class GhostField:
    """Interior field embedded in a two-layer ghost frame.

    ``ext`` has shape ``(ni + 4, nj + 4, 4)``; interior cell ``(i, j)``
    sits at ``ext[i + 2, j + 2]``.
    """

    ext: np.ndarray
    ni: int
    nj: int

    @property
    def interior(self) -> np.ndarray:
        return self.ext[2:-2, 2:-2]


def _mirror_momentum(cells: np.ndarray, normal: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Reflect the momentum of component-major cells ``(4, ...)`` about a wall with unit normal ``normal`` ``(2, ...)``.

    Density and total energy are unchanged: the reflection preserves kinetic
    energy exactly.  The result is written to ``out`` when it is given.
    """
    if out is None:
        out = np.empty(cells.shape)
    nx, ny = normal
    mn = cells[1] * nx + cells[2] * ny
    out[0] = cells[0]
    out[1] = cells[1] - 2.0 * mn * nx
    out[2] = cells[2] - 2.0 * mn * ny
    out[3] = cells[3]
    return out


def _exit_pressure_state(cells: np.ndarray, pressure: float | np.ndarray, gas: GasModel,
                         out: np.ndarray | None = None) -> np.ndarray:
    """Component-major conservative ``cells`` ``(4, ...)`` with their pressure replaced by ``pressure``.

    :func:`~shockstab.state._conservative_columns` of the cells' density and
    velocity with ``pressure``; the pressure it replaces is never formed.
    The result is written to ``out`` when it is given.  A zero density
    divides by zero here, under the floating-point error state that the
    caller sets.
    """
    if out is None:
        out = np.empty(cells.shape)
    rho = cells[0]
    u = cells[1] / rho
    v = cells[2] / rho
    return _conservative_columns(rho, u, v, pressure, gas, out)


#: Interior cells feeding each kind's two ghost layers (outer first), counted
#: from the boundary-adjacent cell; a single cell feeds both layers.
#: Supersonic inflow reads no cell.
_GHOST_SOURCES = {
    "zero_gradient": slice(0, 1),
    "fixed_pressure_outflow": slice(0, 1),
    "slip_wall": slice(1, None, -1),
    "periodic": slice(-2, None),
}


def _side_views(frame: np.ndarray, ghosts: int = 2):
    """Views of the four sides of a frame with ``ghosts`` layers per side, in :data:`SIDES` order.

    ``frame`` has shape ``(ni + 2*ghosts, nj + 2*ghosts, ...)``: an extended
    frame, or with ``ghosts=0`` the interior cells alone.  Each view puts
    the boundary-normal axis first, counted from the boundary: on an
    extended frame the outer ghost is at index 0, the adjacent ghost at 1
    and the interior from 2 on (so ``view[2:-2]`` is the interior counted
    from the boundary); corner blocks are left out.
    """
    i = slice(ghosts, frame.shape[0] - ghosts)
    j = slice(ghosts, frame.shape[1] - ghosts)
    return (frame[:, j], frame[::-1, j], frame[i].swapaxes(0, 1), frame[i, ::-1].swapaxes(0, 1))


def _wall_normal(metrics: GridMetrics, side: str) -> np.ndarray:
    """Component-major unit normals ``(2, n)`` of a side's boundary faces, in :func:`_side_views` order."""
    if side in ("left", "right"):
        return metrics.iface_normal[0 if side == "left" else metrics.ni].T
    return metrics.jface_normal[:, 0 if side == "bottom" else metrics.nj].T


def _frame_rows(ni: int, nj: int, bc: BoundaryConditionSet):
    """Maps of every frame cell, and of every face's stencil, into the rows of :func:`_ghost_table` under ``bc``.

    Returns ``(frame, stencils, sources)``: the ``(ni + 4, nj + 4)`` frame
    map, the ``(4, faces)`` rows of :func:`_stencil_rows` composed with it,
    and for each row the i-fastest cell (``j*ni + i``) it is a function of,
    ``-1`` for an inflow row.  Cells and the ghosts that copy them (periodic and
    zero-gradient sides) point at the cell rows; other ghosts at the ghost
    rows after them; corners repeat the nearest left/right ghost.  A slip
    wall across fewer than two cells raises :class:`StateError`.
    """
    kinds = [bc.side(side).kind for side in SIDES]
    cells = np.arange(ni * nj).reshape(nj, ni).T  # i-fastest index of cell (i, j)
    frame = np.empty((ni + 4, nj + 4), dtype=np.int64)
    frame[2:-2, 2:-2] = np.arange(ni * nj).reshape(ni, nj)
    sources = [cells.reshape(-1)]
    start = ni * nj
    for side, kind, view, side_cells in zip(SIDES, kinds, _side_views(frame), _side_views(cells, ghosts=0)):
        if kind == "slip_wall" and len(side_cells) < 2:
            raise StateError(f"slip_wall on the {side} side needs at least two cells across the grid")
        if kind in ("zero_gradient", "periodic"):
            view[:2] = view[2:-2][_GHOST_SOURCES[kind]]
            continue
        # one row, one row per boundary cell, or two per boundary cell (outer layer first)
        rows = np.full((1, 1), -1) if kind == "supersonic_inflow" else side_cells[_GHOST_SOURCES[kind]]
        view[:2] = start + np.arange(rows.size).reshape(rows.shape)  # broadcast over the two ghost layers
        sources.append(rows.reshape(-1))
        start += rows.size
    for band in (slice(0, 2), slice(-2, None)):  # corner blocks: the nearest left/right ghost
        frame[band, :2] = frame[band, 2:3]
        frame[band, -2:] = frame[band, -3:-2]
    return frame, frame.reshape(-1)[_stencil_rows(ni, nj)], np.concatenate(sources)


def _ghost_table(bc: BoundaryConditionSet, metrics: GridMetrics, gas: GasModel):
    """The component-major ``(4, rows)`` ghost table under ``bc``, how to keep its ghost rows, and its maps.

    The table holds the ``(ni, nj)`` cells in C order, then per side the ghost
    rows that are not copies of cells: an inflow side its state as one row,
    an exit-pressure side the ghost of each boundary cell
    (:func:`_exit_pressure_state`), a slip wall two mirrored rows per
    boundary cell (:func:`_mirror_momentum`), the outer layer (from the
    second cell in) first.  Returns ``(table, cells, refresh, maps)``: the
    table with its inflow rows written, its cells block as a ``(4, ni, nj)``
    view for the caller to fill, ``refresh()``, which rewrites the other
    ghost rows in place from the cells block, and the ``(frame, stencils,
    sources)`` maps of :func:`_frame_rows` into the table.
    """
    ni, nj = metrics.ni, metrics.nj
    maps = _frame_rows(ni, nj, bc)
    sides = [bc.side(side) for side in SIDES]
    table = np.empty((4, maps[2].size))  # one row per entry of the source map
    cells = table[:, : ni * nj].reshape(4, ni, nj)
    updates = []
    start = ni * nj
    for side, condition, view in zip(SIDES, sides, _side_views(_components_last(cells), ghosts=0)):
        count = view.shape[1]
        if condition.kind == "supersonic_inflow":
            table[:, start] = condition.state
            start += 1
        elif condition.kind == "fixed_pressure_outflow":
            updates.append((_exit_pressure_state, _components_first(view[0]), condition.pressure, gas,
                            table[:, start : start + count]))
            start += count
        elif condition.kind == "slip_wall":
            rows = table[:, start : start + 2 * count].reshape(4, 2, count)
            updates.append((_mirror_momentum, _components_first(view[_GHOST_SOURCES["slip_wall"]]),
                            _wall_normal(metrics, side), rows))
            start += 2 * count

    def refresh() -> None:
        for update, *args in updates:
            update(*args)

    return table, cells, refresh, maps


def _frame_source_jacobian(q: np.ndarray, bc: BoundaryConditionSet, metrics: GridMetrics,
                           gas: GasModel) -> np.ndarray:
    """``(rows, 4, 4)`` derivative of each row of :func:`_ghost_table` under ``bc`` with respect to its source cell.

    ``q`` holds the ``(ni, nj, 4)`` cells.  Cells carry identities, an
    inflow row zero and a slip-wall row its exact reflection; an
    exit-pressure row is :func:`_exit_pressure_state` differenced centrally
    with step :data:`~shockstab.numerics.FD_STEP`.
    """
    sides = [bc.side(side) for side in SIDES]
    jacs = [np.broadcast_to(np.eye(4), (q.shape[0] * q.shape[1], 4, 4))]
    for side, condition, cells in zip(SIDES, sides, _side_views(q, ghosts=0)):
        if condition.kind == "supersonic_inflow":
            jacs.append(np.zeros((1, 4, 4)))
        elif condition.kind == "fixed_pressure_outflow":
            jacs.append(_central_difference(lambda u: _components_last(
                _exit_pressure_state(_components_first(u), condition.pressure, gas)), cells[0]))
        elif condition.kind == "slip_wall":
            # Column k of the reflection is the reflected unit vector e_k; both layers share it.
            normal = _wall_normal(metrics, side)
            units = np.broadcast_to(np.eye(4)[..., None], (4, 4, normal.shape[1]))
            reflection = _mirror_momentum(units, normal).transpose(2, 0, 1)
            jacs.append(np.concatenate((reflection, reflection)))
    return np.concatenate(jacs)


def _check_metrics(field: FlowField, metrics: GridMetrics) -> None:
    """Raise :class:`StateError` unless ``metrics`` are of ``field``'s grid size."""
    if (metrics.ni, metrics.nj) != (field.ni, field.nj):
        raise StateError(f"metrics are {metrics.ni} x {metrics.nj} but field is {field.ni} x {field.nj}")


def fill_ghosts(field: FlowField, bc: BoundaryConditionSet, metrics: GridMetrics, gas: GasModel) -> GhostField:
    """Populate the two ghost layers on all four sides.

    Slip walls mirror layer ``k`` from interior cell ``k`` about the local
    boundary-face normal; zero-gradient and fixed-pressure sides replicate
    the adjacent interior cell (the latter with its pressure replaced);
    periodic sides wrap.

    The frame is one gather, through the frame map of :func:`_ghost_table`,
    from the cells and the few ghost rows that are not copies of cells.  The
    corner blocks, which the axis-aligned stencils never read, repeat the
    nearest left/right ghost to keep every entry finite.  numpy's divide and
    invalid warnings are silenced: an exit-pressure ghost of a zero-density
    cell is inf/nan.
    """
    _check_metrics(field, metrics)
    table, cells, refresh, (frame, _, _) = _ghost_table(bc, metrics, gas)
    cells[...] = _components_first(field.q)
    with np.errstate(divide="ignore", invalid="ignore"):
        refresh()
    return GhostField(ext=table.T.take(frame, axis=0), ni=field.ni, nj=field.nj)


def ghost_dependency(
    base: FlowField,
    bc: BoundaryConditionSet,
    metrics: GridMetrics,
    gas: GasModel,
):
    """Linearize every extended cell with respect to the interior unknowns.

    Returns ``(dep, jac)`` where ``dep`` maps each extended cell to the flat
    interior cell index it depends on (``-1`` for frozen inflow ghosts and
    unused corners) and ``jac`` holds the 4x4 derivative of the extended
    cell's state with respect to that interior cell (zero in the corners).
    Both are gathered through the frame map of :func:`_frame_rows`, from
    its source cells and the row derivatives of
    :func:`_frame_source_jacobian`, with numpy's divide and invalid
    warnings silenced as in :func:`fill_ghosts`.
    """
    _check_metrics(base, metrics)
    frame, _, sources = _frame_rows(base.ni, base.nj, bc)
    dep = sources.take(frame)
    with np.errstate(divide="ignore", invalid="ignore"):
        jac = _frame_source_jacobian(base.q, bc, metrics, gas).take(frame, axis=0)
    corners = np.ones(frame.shape, dtype=bool)
    corners[2:-2] = corners[:, 2:-2] = False
    dep[corners] = -1
    jac[corners] = 0.0
    return dep, jac


def _join_faces(*families: np.ndarray) -> np.ndarray:
    """One face batch from the ``(ni+1, nj, ...)`` i-face and ``(ni, nj+1, ...)`` j-face arrays.

    The i-face rows come first, then the j-face rows, each row-major, so the
    kernels see one flat batch of 1-D columns.
    """
    return np.concatenate([family.reshape((-1,) + family.shape[2:]) for family in families])


def _split_faces(batch: np.ndarray, ni: int, nj: int):
    """Inverse of :func:`_join_faces`: the ``(ni+1, nj, ...)`` i-face and ``(ni, nj+1, ...)`` j-face views."""
    tail = batch.shape[1:]
    count = (ni + 1) * nj
    return batch[:count].reshape((ni + 1, nj) + tail), batch[count:].reshape((ni, nj + 1) + tail)


def _stencil_rows(ni: int, nj: int) -> np.ndarray:
    """The ``(4, faces)`` rows of the four-cell stencil of every face.

    The rows index the ``(ni+4, nj+4)`` frame cells flattened and run over
    the faces in :func:`_join_faces` order.  Stencil cell ``k`` of i-face
    ``(f, j)`` is frame cell ``(f + k, j + 2)``, and of j-face ``(i, f)``
    frame cell ``(i + 2, f + k)``.
    """
    frame = np.arange((ni + 4) * (nj + 4)).reshape(ni + 4, nj + 4)
    iface, jface = frame[:, 2 : nj + 2], frame[2 : ni + 2, :]
    return np.stack([_join_faces(iface[k : k + ni + 1], jface[:, k : k + nj + 1]) for k in range(4)])


def _cell_faces(ni: int, nj: int) -> np.ndarray:
    """The ``(ni * nj, 4)`` face-batch indices of the four faces of every cell.

    Cells run in the flat ``j*ni + i`` order; each row holds the i-face after
    the cell, the i-face before it, the j-face after it and the j-face before
    it, as indices into the face batch of :func:`_join_faces`.
    """
    iface, jface = _split_faces(np.arange((ni + 1) * nj + ni * (nj + 1)), ni, nj)
    faces = np.stack((iface[1:], iface[:-1], jface[:, 1:], jface[:, :-1]), axis=-1).transpose(1, 0, 2)
    return faces.reshape(ni * nj, 4)


def face_reconstruction(ghosts: GhostField, scheme: ReconstructionScheme, gas: GasModel):
    """Reconstructed states on every face, as one batch with the i-faces first.

    Returns the ``(left, right, fallback)`` triple of
    :func:`~shockstab.numerics.reconstruct_pair` over the ``(faces, 4)``
    stencils of both families (see :func:`_join_faces`); ``_split_faces``
    recovers the family shapes.  The stencils are gathered from the frame in
    one indexing step.
    """
    stencils = ghosts.ext.reshape(-1, 4).take(_stencil_rows(ghosts.ni, ghosts.nj), axis=0)
    return reconstruct_pair(*stencils, scheme, gas)


def _normal_columns(normal: np.ndarray) -> np.ndarray:
    """The ``(faces, 2)`` normals stored component-major, so that the kernels read contiguous ``nx`` and ``ny``."""
    return np.ascontiguousarray(normal.T).T


def residual(
    field: FlowField,
    ghosts: GhostField,
    metrics: GridMetrics,
    scheme: ReconstructionScheme,
    solver: str,
    gas: GasModel,
) -> np.ndarray:
    """Net volume-scaled flux balance ``dU/dt`` for every interior cell.

    One reconstruction over the face batch of both families (see
    :func:`face_reconstruction`) and one call of the public
    :func:`~shockstab.numerics.riemann_flux`, which validates every face
    state.  Each silences numpy's divide and invalid warnings.
    """
    if (ghosts.ni, ghosts.nj) != (field.ni, field.nj):
        raise StateError("ghost frame does not match the field")
    left, right, _ = face_reconstruction(ghosts, scheme, gas)
    flux = riemann_flux(solver, left, right, metrics.face_normal, gas)
    return np.ascontiguousarray(_components_last(_flux_balance(_components_first(flux), metrics)))


def _residual_map(
    bc: BoundaryConditionSet,
    metrics: GridMetrics,
    scheme: ReconstructionScheme,
    solver: str,
    gas: GasModel,
):
    """:func:`residual` under ``bc`` as a function of a persistent component-major cells block.

    The nonlinear march's right-hand side.  Returns ``(cells, evaluate)``:
    the ``(4, ni, nj)`` cells block of a :func:`_ghost_table` formed here
    once, which the caller writes each stage's state into, and
    ``evaluate()``.  That rewrites the ghost rows that depend on cells,
    gathers the component-major ``(4, 4, faces)`` stencils from the table
    in one ``take`` through its stencil map and hands them to
    :func:`~shockstab.numerics._reconstruct_stencil` and
    :func:`~shockstab.numerics._riemann_flux`, which re-tests the face
    states only where the reconstruction returned no primitives, with no
    ghost frame in between.  The ``(4, ni, nj)`` balance holds bitwise what
    :func:`fill_ghosts` plus :func:`residual` give.
    """
    table, cells, refresh, (_, stencil_rows, _) = _ghost_table(bc, metrics, gas)
    normal = _normal_columns(metrics.face_normal)

    def evaluate() -> np.ndarray:
        refresh()
        faces, primitives, _ = _reconstruct_stencil(table.take(stencil_rows, axis=1), scheme, gas)
        return _flux_balance(_riemann_flux(solver, faces, primitives, normal, gas, primitives is None), metrics)

    return cells, evaluate


def _flux_balance(flux: np.ndarray, metrics: GridMetrics) -> np.ndarray:
    """Component-major ``(4, ni, nj)`` ``dU/dt`` of every interior cell from the ``(4, faces)`` fluxes of a face batch.

    The faces run in :func:`_join_faces` order.
    """
    ni, nj = metrics.ni, metrics.nj
    count = (ni + 1) * nj  # the i-faces, as in _split_faces
    lf_i = metrics.iface_len * flux[:, :count].reshape(4, ni + 1, nj)
    lf_j = metrics.jface_len * flux[:, count:].reshape(4, ni, nj + 1)
    net = lf_i[:, 1:] - lf_i[:, :-1]
    net += lf_j[:, :, 1:] - lf_j[:, :, :-1]
    return np.divide(-net, metrics.volume, out=net)


def _member_runs(names: Sequence[str]):
    """``(name, kernel, rows)`` of each run of equal adjacent solver ``names``, one face row per member.

    The runs of a members-outer face batch, as
    :func:`~shockstab.numerics._riemann_flux` takes them; an unknown name
    raises :class:`StateError`.
    """
    runs, start = [], 0
    for name, group in groupby(names):
        stop = start + len(list(group))
        runs.append((name, _solver_kernel(name), slice(start, stop)))
        start = stop
    return tuple(runs)


def _march_map(
    inflow: np.ndarray,
    p_exit: np.ndarray,
    metrics: GridMetrics,
    scheme: ReconstructionScheme,
    solver: str | Sequence[str],
    gas: GasModel,
):
    """``dU/dt`` of the 1-D march's members on a one-row strip, from its i-faces alone, as a function.

    ``metrics`` is the ``ni x 1`` strip, periodic in ``j`` with two j-face
    rows of equal lengths and normals.  ``inflow`` ``(members, 4)`` and
    ``p_exit`` ``(members,)`` hold each member's inflow state and exit
    pressure, and ``solver`` is one name, or one name per member.

    Returns ``(cells, evaluate)``.  The march's constants are formed here
    once: a component-major ``(4, members, ni + 4)`` frame with each
    member's two inflow ghosts filled for good, its stencils as a
    sliding-window view, the component-major normals and the members'
    solver runs (:func:`_member_runs`).  ``cells`` is the frame's interior
    ``(4, members, ni)``, where the caller keeps the members' states
    (member ``k``'s cells are ``cells[:, k]``).  ``evaluate()`` returns
    their ``(4, members, ni)`` balance.  It puts two copies of each
    member's last cell at its exit pressure on the right (the ghosts of
    :func:`fill_ghosts`, through :func:`_exit_pressure_state`).  The face
    batch is ``(members, ni + 1)``, members outer: each member's i-faces
    are one row of it, so the flux body
    :func:`~shockstab.numerics._riemann_flux` runs each solver on its own
    members' rows, and the i-face normals broadcast over the members.

    Both j-faces of a strip cell see four copies of the cell under the same
    geometry, so their fluxes are bitwise equal and their difference is
    exactly ``+0.0``; the balance adds that ``+0.0``, which turns a ``-0.0``
    i-face difference into ``+0.0``.  For cells that pass the flux's
    physical-state test, as the march keeps them, every member's result is
    bitwise that of :func:`residual` on its own frame.
    """
    ni, members = metrics.ni, len(inflow)
    runs = _member_runs([solver] * members if isinstance(solver, str) else solver)
    frame = np.empty((4, members, ni + 4))
    frame[..., :2] = inflow.T[..., None]
    stencils = sliding_window_view(frame, ni + 1, axis=-1).transpose(0, 2, 1, 3)  # (4, 4, members, ni + 1)
    normal = _normal_columns(metrics.iface_normal[:, 0])
    length, volume = metrics.iface_len[:, 0], metrics.volume[:, 0]

    def evaluate() -> np.ndarray:
        _exit_pressure_state(frame[..., -3], p_exit, gas, frame[..., -2])
        frame[..., -1] = frame[..., -2]
        # A C-ordered copy of the window view: the kernels' results follow their
        # input's memory order, and the members' solver runs slice axis 1.
        faces, primitives, _ = _reconstruct_stencil(np.ascontiguousarray(stencils), scheme, gas)
        lf = length * _riemann_flux(runs, faces, primitives, normal, gas, primitives is None)
        return -(lf[..., 1:] - lf[..., :-1] + 0.0) / volume

    return frame[..., 2:-2], evaluate
