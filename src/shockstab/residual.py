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
copies of adjacent ghosts only to keep the array finite.

Both face families travel as one batch, i-faces first: the residual makes
one reconstruction call and one flux call per evaluation and splits the
fluxes back into the ``(ni+1, nj)`` and ``(ni, nj+1)`` family shapes.  The
members of a batch field fold members outer, so each member's faces are
one contiguous run of that batch.  :func:`shockstab.stability.assemble`
linearizes the same batch: it gathers its stencils through the same row
table, scatters into each cell the faces :func:`_cell_faces` lists, and
forms its base residual from its own reconstruction through the same
flux-to-cell balance, :func:`_flux_balance`.  A one-row strip periodic in
``j`` (the 1-D march's frame) sends its i-faces alone: its j-faces carry
the cell states on both sides and their fluxes cancel exactly.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import StateError
from .mesh import GridMetrics
from .numerics import ReconstructionScheme, _central_difference, reconstruct_pair, riemann_flux
from .state import (
    FlowField,
    GasModel,
    _primitive_columns,
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
    only).  For a batch of members (see :class:`~shockstab.state.FlowField`)
    they may hold one value per member: ``state`` of shape ``(members, 4)``
    and ``pressure`` of shape ``(members,)``.
    """

    kind: str
    state: np.ndarray | None = None
    pressure: float | np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.kind not in BC_KINDS:
            raise StateError(f"unknown boundary kind {self.kind!r}; choose one of {BC_KINDS}")
        if self.kind == "supersonic_inflow":
            if self.state is None:
                raise StateError("supersonic_inflow requires a conservative state")
            state = np.asarray(self.state, dtype=float)
            if state.ndim not in (1, 2) or state.shape[-1] != 4:
                raise StateError(f"inflow state must have shape (4,) or (members, 4), got {state.shape}")
            if not np.all(is_physical_prim(cons_to_prim(state, GasModel()))):
                # gamma only affects the pressure sign through a positive factor
                raise StateError("inflow state has non-positive density or pressure")
            object.__setattr__(self, "state", state)
        elif self.state is not None:
            raise StateError(f"boundary kind {self.kind!r} takes no state")
        if self.kind == "fixed_pressure_outflow":
            pressure = np.asarray(np.nan if self.pressure is None else self.pressure, dtype=float)
            if pressure.ndim > 1 or not np.all(np.isfinite(pressure) & (pressure > 0.0)):
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

    @classmethod
    def stack(cls, sets) -> "BoundaryConditionSet":
        """One set for a batch of members, from each member's set in order.

        The members must agree on every side's kind; their inflow states and
        exit pressures are stacked along a leading member axis.
        """
        sides = {}
        for name in SIDES:
            conds = [bcs.side(name) for bcs in sets]
            kind = conds[0].kind
            if any(c.kind != kind for c in conds):
                raise StateError(f"batch members disagree on the {name} boundary kind")
            sides[name] = BoundaryCondition(
                kind,
                state=np.stack([c.state for c in conds]) if kind == "supersonic_inflow" else None,
                pressure=np.array([c.pressure for c in conds]) if kind == "fixed_pressure_outflow" else None,
            )
        return cls(**sides)


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

    ``ext`` has shape ``(ni + 4, nj + 4, 4)`` (``(ni + 4, nj + 4, members,
    4)`` for a batch field); interior cell ``(i, j)`` sits at
    ``ext[i + 2, j + 2]``.  ``strip`` marks a one-row frame whose bottom and
    top sides are periodic and whose two j-face rows have bitwise-equal
    lengths and normals (see :func:`fill_ghosts`); :func:`residual` then
    fluxes its i-faces only.  A frame built by hand takes the two-family
    path.
    """

    ext: np.ndarray
    ni: int
    nj: int
    strip: bool = False

    @property
    def interior(self) -> np.ndarray:
        return self.ext[2:-2, 2:-2]


def _mirror_momentum(cells: np.ndarray, normal: np.ndarray) -> np.ndarray:
    """Reflect cell momentum about a wall with unit normal ``normal``.

    Density and total energy are unchanged: the reflection preserves kinetic
    energy exactly.
    """
    out = cells.copy()
    nx, ny = normal[..., 0], normal[..., 1]
    mn = cells[..., 1] * nx + cells[..., 2] * ny
    out[..., 1] = cells[..., 1] - 2.0 * mn * nx
    out[..., 2] = cells[..., 2] - 2.0 * mn * ny
    return out


def _exit_pressure_state(cells: np.ndarray, pressure: float | np.ndarray, gas: GasModel) -> np.ndarray:
    """Conservative ``cells`` with their pressure replaced by ``pressure``.

    The arithmetic of ``prim_to_cons`` applied to the cells' primitive state
    with its pressure column overwritten; the pressure it would overwrite is
    never formed.
    """
    out = np.empty(cells.shape)
    rho = cells[..., 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        u = cells[..., 1] / rho
        v = cells[..., 2] / rho
    out[..., 0] = rho
    out[..., 1] = rho * u
    out[..., 2] = rho * v
    out[..., 3] = pressure / (gas.gamma - 1.0) + 0.5 * rho * (u * u + v * v)
    return out


#: Interior cells feeding each kind's two ghost layers (outer first), counted
#: from the boundary-adjacent cell; a single cell feeds both layers.
#: Supersonic inflow reads no cell.
_GHOST_SOURCES = {
    "zero_gradient": slice(0, 1),
    "fixed_pressure_outflow": slice(0, 1),
    "slip_wall": slice(1, None, -1),
    "periodic": slice(-2, None),
}


def _side_views(frame: np.ndarray):
    """Views of the four sides of an extended frame, in :data:`SIDES` order.

    ``frame`` has shape ``(ni + 4, nj + 4, ...)``.  Each view puts the
    boundary-normal axis first with the outer ghost at index 0, the
    adjacent ghost at 1 and the interior from 2 on (so ``view[2:-2]`` is
    the interior counted from the boundary); corner blocks are left out.
    """
    return (frame[:, 2:-2], frame[::-1, 2:-2], frame[2:-2].swapaxes(0, 1), frame[2:-2, ::-1].swapaxes(0, 1))


def _wall_normal(metrics: GridMetrics, side: str) -> np.ndarray:
    """Unit normals ``(n, 2)`` of a side's boundary faces, in :func:`_side_views` order."""
    if side in ("left", "right"):
        return metrics.iface_normal[0 if side == "left" else metrics.ni]
    return metrics.jface_normal[:, 0 if side == "bottom" else metrics.nj]


@lru_cache(maxsize=32)
def _ghost_sources(ni: int, nj: int, kinds: tuple[str, ...]):
    """Read-only maps of the interior cell that feeds each cell of an extended frame.

    ``kinds`` holds the boundary kinds in :data:`SIDES` order.  Returns
    ``(dep, gather)``, both ``(ni + 4, nj + 4)``.  ``dep`` holds the
    i-fastest flat interior index (``j*ni + i``) and ``-1`` for inflow
    ghosts and corners.  ``gather`` indexes the interior flattened
    j-fastest, as ``q.reshape(ni * nj, ...)`` lays it out; a corner block
    repeats the nearest left/right ghost, and an inflow ghost points at
    cell 0 (the fill writes its state over it).
    """
    dep = np.full((ni + 4, nj + 4), -1, dtype=np.int64)
    dep[2:-2, 2:-2] = np.arange(ni * nj).reshape(nj, ni).T
    for side, kind, view in zip(SIDES, kinds, _side_views(dep)):
        if kind == "slip_wall" and view.shape[0] < 6:
            raise StateError(f"slip_wall on the {side} side needs at least two cells across the grid")
        if kind != "supersonic_inflow":
            view[:2] = view[2:-2][_GHOST_SOURCES[kind]]
    gather = np.where(dep < 0, 0, dep % ni * nj + dep // ni)
    for rows in (slice(0, 2), slice(-2, None)):
        gather[rows, :2] = gather[rows, 2:3]
        gather[rows, -2:] = gather[rows, -3:-2]
    for a in (dep, gather):
        a.flags.writeable = False
    return dep, gather


def _ghost_layers(frame: np.ndarray, side: str) -> np.ndarray:
    """A side's two ghost layers of an extended frame, layer axis first.

    The left and right layers span whole rows: the corner blocks repeat the
    nearest left/right ghost, so they take that side's ghost map too.
    """
    if side in ("left", "right"):
        return frame[:2] if side == "left" else frame[-2:]
    return (frame[2:-2, :2] if side == "bottom" else frame[2:-2, -2:]).swapaxes(0, 1)


def _ghost_map_jacobian(bc: BoundaryCondition, cells: np.ndarray, normal: np.ndarray, gas: GasModel):
    """Derivative of a side's ghost states with respect to their source ``cells``."""
    if bc.kind == "slip_wall":
        # The reflection is linear: its columns are the reflected unit vectors.
        units = np.broadcast_to(np.eye(4), normal.shape[:-1] + (4, 4))
        return _mirror_momentum(units, normal[..., None, :]).swapaxes(-1, -2)
    if bc.kind == "fixed_pressure_outflow":
        return _central_difference(lambda u: _exit_pressure_state(u, bc.pressure, gas), cells)
    return np.eye(4)


def fill_ghosts(field: FlowField, bc: BoundaryConditionSet, metrics: GridMetrics, gas: GasModel) -> GhostField:
    """Populate the two ghost layers on all four sides.

    Slip walls mirror layer ``k`` from interior cell ``k`` about the local
    boundary-face normal; zero-gradient and fixed-pressure sides replicate
    the adjacent interior cell (the latter with its pressure replaced);
    periodic sides wrap.  A batch field fills every member's frame, each
    from its own inflow state and exit pressure where ``bc`` holds one per
    member.

    The frame is one gather of the interior through a map, cached per grid
    size and side kinds, of the cell that feeds each ghost; inflow sides
    then write their state, slip walls mirror and exit-pressure sides
    replace the pressure, in place.  The corner blocks, which the
    axis-aligned stencils never read, repeat the nearest left/right ghost
    to keep every entry finite.  The frame is marked a ``strip`` when it is
    one row high, periodic at the bottom and top, and its two j-face rows
    have bitwise-equal lengths and normals.
    """
    ni, nj = field.ni, field.nj
    if metrics.ni != ni or metrics.nj != nj:
        raise StateError(f"metrics are {metrics.ni} x {metrics.nj} but field is {ni} x {nj}")
    sides = [bc.side(side) for side in SIDES]
    _, gather = _ghost_sources(ni, nj, tuple(side.kind for side in sides))
    ext = field.q.reshape((ni * nj,) + field.q.shape[2:]).take(gather, axis=0)
    for side, side_bc in zip(SIDES, sides):
        layers = _ghost_layers(ext, side)
        if side_bc.kind == "supersonic_inflow":
            layers[:] = side_bc.state
        elif side_bc.kind == "fixed_pressure_outflow":
            layers[:] = _exit_pressure_state(layers[:1], side_bc.pressure, gas)
        elif side_bc.kind == "slip_wall":
            normal = _wall_normal(metrics, side)
            if side in ("left", "right"):
                normal = np.pad(normal, ((2, 2), (0, 0)), mode="edge")
            layers[:] = _mirror_momentum(layers, normal.reshape(normal.shape[:1] + (1,) * (layers.ndim - 3) + (2,)))
    strip = nj == 1 and sides[2].kind == "periodic" and metrics.jface_rows_equal
    return GhostField(ext=ext, ni=ni, nj=nj, strip=strip)


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
    cell's state with respect to that interior cell.  Interior and periodic
    cells carry exact identities and slip walls their exact reflection;
    the (nonlinear) exit-pressure map is differenced centrally with step
    :data:`~shockstab.numerics.FD_STEP`.  ``dep`` is the ghost-source map
    that :func:`fill_ghosts` gathers through.
    """
    ni, nj = base.ni, base.nj
    sides = [bc.side(side) for side in SIDES]
    dep, gather = _ghost_sources(ni, nj, tuple(side.kind for side in sides))
    cells = base.q.reshape(ni * nj, 4).take(gather, axis=0)  # every frame cell's source state
    jac = np.zeros((ni + 4, nj + 4, 4, 4))
    jac[2:-2, 2:-2] = np.eye(4)
    for side, side_bc, jac_v, cells_v in zip(SIDES, sides, _side_views(jac), _side_views(cells)):
        if side_bc.kind != "supersonic_inflow":  # a frozen state has no dependency on the unknowns
            jac_v[:2] = _ghost_map_jacobian(side_bc, cells_v[:2], _wall_normal(metrics, side), gas)
    return dep.copy(), jac


def _join_faces(*families: np.ndarray) -> np.ndarray:
    """One face batch from the ``(ni+1, nj, members, ...)`` i-face and ``(ni, nj+1, members, ...)`` j-face arrays.

    The member axis is folded members outer: each member's i-face rows,
    then its j-face rows (each row-major), form one contiguous run of the
    batch, so the kernels see one flat batch of 1-D columns and a member's
    faces are a slice of it.  Given the i-face array alone, the batch holds
    the i-faces only, in the same order.
    """
    members, tail = families[0].shape[2], families[0].shape[3:]
    runs = [np.moveaxis(family, 2, 0).reshape((members, -1) + tail) for family in families]
    return np.concatenate(runs, axis=1).reshape((-1,) + tail)


def _split_faces(batch: np.ndarray, ni: int, nj: int, members: tuple[int, ...] = (), jfaces: bool = True):
    """Inverse of :func:`_join_faces`: the ``(ni+1, nj, ...)`` i-face and ``(ni, nj+1, ...)`` j-face arrays.

    ``members`` is the member-axis shape of a batch field (``()`` for a
    plain field), which comes back as axis 2 of both arrays; all are views.
    With ``jfaces=False`` the batch holds the i-faces only, and the result
    is the i-face array alone, as a one-tuple.
    """
    shapes = ((ni + 1, nj), (ni, nj + 1)) if jfaces else ((ni + 1, nj),)
    sizes = [math.prod(shape) for shape in shapes]
    tail = batch.shape[1:]
    runs = batch.reshape((-1, sum(sizes)) + tail)
    members_third = (1, 2, 0) + tuple(range(3, 3 + len(tail)))
    starts = (0, sizes[0])
    return tuple(
        runs[:, start : start + size].reshape((-1,) + shape + tail).transpose(members_third).reshape(
            shape + members + tail)
        for start, size, shape in zip(starts, sizes, shapes)
    )


@lru_cache(maxsize=32)
def _stencil_rows(ni: int, nj: int, members: int, jfaces: bool = True) -> np.ndarray:
    """Read-only ``(4, members * faces)`` rows of the four-cell stencil of every face.

    The rows index a members-outer frame, ``(members, ni+4, nj+4)`` cells
    flattened, and run over the faces in :func:`_join_faces` order (the
    i-faces only with ``jfaces=False``).  Stencil cell ``k`` of i-face
    ``(f, j)`` is frame cell ``(f + k, j + 2)``, and of j-face ``(i, f)``
    frame cell ``(i + 2, f + k)``.
    """
    frame = np.arange(members * (ni + 4) * (nj + 4)).reshape(members, ni + 4, nj + 4).transpose(1, 2, 0)
    iface, jface = frame[:, 2 : nj + 2], frame[2 : ni + 2, :]
    families = [(iface[k : k + ni + 1], jface[:, k : k + nj + 1]) for k in range(4)]
    rows = np.stack([_join_faces(*family[: 2 if jfaces else 1]) for family in families])
    rows.flags.writeable = False
    return rows


@lru_cache(maxsize=32)
def _cell_faces(ni: int, nj: int) -> np.ndarray:
    """Read-only ``(ni * nj, 4)`` face-batch indices of the four faces of every cell.

    Cells run in the flat ``j*ni + i`` order; each row holds the i-face after
    the cell, the i-face before it, the j-face after it and the j-face before
    it, as indices into the one-member face batch of :func:`_join_faces`.
    """
    iface, jface = _split_faces(np.arange((ni + 1) * nj + ni * (nj + 1)), ni, nj)
    faces = np.stack((iface[1:], iface[:-1], jface[:, 1:], jface[:, :-1]), axis=-1).transpose(1, 0, 2)
    faces = faces.reshape(ni * nj, 4)
    faces.flags.writeable = False
    return faces


def _frame_stencils(ghosts: GhostField, jfaces: bool = True) -> np.ndarray:
    """The ``(4, faces, 4)`` stencils of a frame's face batch, gathered in one indexing step."""
    ni, nj = ghosts.ni, ghosts.nj
    frame = ghosts.ext.reshape((ni + 4, nj + 4, -1, 4))  # a plain frame is a batch of one
    cells = frame.transpose(2, 0, 1, 3).reshape(-1, 4)
    return cells.take(_stencil_rows(ni, nj, frame.shape[2], jfaces), axis=0)


def face_reconstruction(ghosts: GhostField, scheme: ReconstructionScheme, gas: GasModel):
    """Reconstructed states on every face, as one batch with the i-faces first.

    Returns the ``(left, right, fallback)`` triple of
    :func:`~shockstab.numerics.reconstruct_pair` over the ``(faces, 4)``
    stencils of both families, members outer for a batch field (see
    :func:`_join_faces`); ``_split_faces`` recovers the family shapes.  The
    stencils are gathered from the frame in one indexing step.
    """
    return reconstruct_pair(*_frame_stencils(ghosts), scheme, gas)


def _physical_cells(q: np.ndarray, gas: GasModel) -> bool:
    """Whether every cell state passes the flux's physical-state test.

    With the pressure formed as the flux forms it, that test reduces to
    ``rho > 0`` and ``0 < p < inf``: a non-finite density or velocity makes
    the pressure NaN or ``-inf``.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        rho, _, _, p = _primitive_columns(q, gas)
    return bool(rho.min() > 0.0 and p.min() > 0.0 and p.max() < np.inf)


def residual(
    field: FlowField,
    ghosts: GhostField,
    metrics: GridMetrics,
    scheme: ReconstructionScheme,
    solver: str | Sequence[str],
    gas: GasModel,
) -> np.ndarray:
    """Net volume-scaled flux balance ``dU/dt`` for every interior cell.

    A batch field gets every member's balance in the same calls, shaped like
    its ``q``: one reconstruction over the members-outer face batch (see
    :func:`_join_faces`) and one :func:`~shockstab.numerics.riemann_flux`
    call, where ``solver`` is one name for every member or one name per
    member.

    The flux re-tests the face states only where the reconstruction left
    some untested: a first-order scheme, or a face that fell back to its
    cell values.  A second-order reconstruction with no fallback face has
    already passed every face state with the flux's own test.

    On a ``strip`` frame (see :func:`fill_ghosts`) whose cells are all
    physical, only the i-faces are reconstructed and fluxed.  Both j-faces
    of a cell there see four copies of the cell under the same geometry, so
    their fluxes are bitwise equal and their difference is exactly ``+0.0``;
    the balance adds that ``+0.0``, which turns a ``-0.0`` i-face difference
    into ``+0.0`` as before.  A non-physical cell takes the two-family path,
    which raises the error it always raised.
    """
    ni, nj = field.ni, field.nj
    if (ghosts.ni, ghosts.nj) != (ni, nj):
        raise StateError("ghost frame does not match the field")
    members = field.q.shape[2:-1]
    jfaces = not (ghosts.strip and _physical_cells(field.q, gas))
    if jfaces:
        left, right, fallback = face_reconstruction(ghosts, scheme, gas)
        normal = metrics.face_normal
    else:
        left, right, fallback = reconstruct_pair(*_frame_stencils(ghosts, jfaces=False), scheme, gas)
        normal = metrics.iface_normal.reshape(-1, 2)
    count = math.prod(members)
    if count > 1:
        normal = np.concatenate([normal] * count)
    tested = scheme.is_second_order and not fallback.any()
    flux = riemann_flux(solver, left, right, normal, gas, validate=not tested)
    return _flux_balance(flux, metrics, members, jfaces)


def _flux_balance(
    flux: np.ndarray, metrics: GridMetrics, members: tuple[int, ...] = (), jfaces: bool = True
) -> np.ndarray:
    """``dU/dt`` of every interior cell from the fluxes of a face batch (see :func:`_join_faces`).

    ``members`` is the member-axis shape of a batch field (``()`` for a
    plain field); the result is shaped like that field's ``q``.  With
    ``jfaces=False`` the batch holds the i-faces of a strip only, whose
    j-faces cancel to exactly ``+0.0`` (see :func:`residual`).
    """
    families = _split_faces(flux, metrics.ni, metrics.nj, members, jfaces)
    per_cell = (...,) + (None,) * (len(members) + 1)
    lf_i = metrics.iface_len[per_cell] * families[0]
    net = lf_i[1:] - lf_i[:-1]
    if jfaces:
        lf_j = metrics.jface_len[per_cell] * families[1]
        net += lf_j[:, 1:] - lf_j[:, :-1]
    else:
        net += 0.0
    return -net / metrics.volume[per_cell]
