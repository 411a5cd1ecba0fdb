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
flux-to-cell balance, :func:`_flux_balance`.
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
from .state import FlowField, GasModel, cons_to_prim, is_physical_prim, prim_to_cons, normal_shock_states

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
    ``ext[i + 2, j + 2]``.
    """

    ext: np.ndarray
    ni: int
    nj: int

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


def _exit_pressure_state(cells: np.ndarray, pressure: float, gas: GasModel) -> np.ndarray:
    prim = cons_to_prim(cells, gas)
    prim[..., 3] = pressure
    return prim_to_cons(prim, gas)


#: Interior cells feeding each kind's two ghost layers (outer first), counted
#: from the boundary-adjacent cell; a single cell feeds both layers.
#: Supersonic inflow reads no cell.
_GHOST_SOURCES = {
    "zero_gradient": slice(0, 1),
    "fixed_pressure_outflow": slice(0, 1),
    "slip_wall": slice(1, None, -1),
    "periodic": slice(-2, None),
}


def _side_views(frame: np.ndarray, metrics: GridMetrics):
    """``(side, view, wall normal)`` for the four sides of an extended frame.

    ``frame`` has shape ``(ni + 4, nj + 4, ...)``.  Each view puts the
    boundary-normal axis first with the outer ghost at index 0, the
    adjacent ghost at 1 and the interior from 2 on (so ``view[2:-2]`` is
    the interior counted from the boundary).
    """
    return (
        ("left", frame[:, 2:-2], metrics.iface_normal[0]),
        ("right", frame[::-1, 2:-2], metrics.iface_normal[metrics.ni]),
        ("bottom", frame[2:-2].swapaxes(0, 1), metrics.jface_normal[:, 0]),
        ("top", frame[2:-2, ::-1].swapaxes(0, 1), metrics.jface_normal[:, metrics.nj]),
    )


def _source_cells(side: str, bc: BoundaryCondition, view: np.ndarray) -> np.ndarray:
    """Entries of a side view's interior that feed its two ghost layers."""
    if bc.kind == "slip_wall" and view.shape[0] < 6:
        raise StateError(f"slip_wall on the {side} side needs at least two cells across the grid")
    return view[2:-2][_GHOST_SOURCES[bc.kind]]


def _ghost_map(bc: BoundaryCondition, cells: np.ndarray, normal: np.ndarray, gas: GasModel) -> np.ndarray:
    """Ghost states of a side from its source cells.

    ``cells`` is ``(layers, n, 4)``, or ``(layers, n, members, 4)`` for a
    batch field; ``normal`` is the ``(n, 2)`` wall normal.
    """
    if bc.kind == "slip_wall":
        return _mirror_momentum(cells, normal.reshape(normal.shape[:1] + (1,) * (cells.ndim - 3) + (2,)))
    if bc.kind == "fixed_pressure_outflow":
        return _exit_pressure_state(cells, bc.pressure, gas)
    return cells


def _ghost_map_jacobian(bc: BoundaryCondition, cells: np.ndarray, normal: np.ndarray, gas: GasModel):
    """Derivative of :func:`_ghost_map` with respect to its source cells."""
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
    """
    ni, nj = field.ni, field.nj
    if metrics.ni != ni or metrics.nj != nj:
        raise StateError(f"metrics are {metrics.ni} x {metrics.nj} but field is {ni} x {nj}")
    ext = np.empty((ni + 4, nj + 4) + field.q.shape[2:])
    ext[2:-2, 2:-2] = field.q
    for side, view, normal in _side_views(ext, metrics):
        side_bc = bc.side(side)
        if side_bc.kind == "supersonic_inflow":
            view[:2] = side_bc.state
        else:
            view[:2] = _ghost_map(side_bc, _source_cells(side, side_bc, view), normal, gas)

    # Corner blocks are never read by the axis-aligned stencils; copy the
    # nearest j-ghost rows to keep every entry finite.
    ext[0:2, 0:2] = ext[0:2, 2:3]
    ext[0:2, -2:] = ext[0:2, -3:-2]
    ext[-2:, 0:2] = ext[-2:, 2:3]
    ext[-2:, -2:] = ext[-2:, -3:-2]
    return GhostField(ext=ext, ni=ni, nj=nj)


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
    :data:`~shockstab.numerics.FD_STEP`.
    """
    ni, nj = base.ni, base.nj
    cells = np.zeros((ni + 4, nj + 4, 4))
    cells[2:-2, 2:-2] = base.q
    dep = np.full((ni + 4, nj + 4), -1, dtype=np.int64)
    jac = np.zeros((ni + 4, nj + 4, 4, 4))

    ii, jj = np.meshgrid(np.arange(ni), np.arange(nj), indexing="ij")
    dep[2:-2, 2:-2] = jj * ni + ii  # i-fastest flat cell index
    jac[2:-2, 2:-2] = np.eye(4)

    views = zip(_side_views(cells, metrics), _side_views(dep, metrics), _side_views(jac, metrics))
    for (side, cells_v, normal), (_, dep_v, _), (_, jac_v, _) in views:
        side_bc = bc.side(side)
        if side_bc.kind == "supersonic_inflow":
            continue  # frozen state: no dependency on the unknowns
        dep_v[:2] = _source_cells(side, side_bc, dep_v)
        jac_v[:2] = _ghost_map_jacobian(side_bc, _source_cells(side, side_bc, cells_v), normal, gas)
    return dep, jac


def _join_faces(iface: np.ndarray, jface: np.ndarray) -> np.ndarray:
    """One face batch from the ``(ni+1, nj, members, ...)`` i-face and ``(ni, nj+1, members, ...)`` j-face arrays.

    The member axis is folded members outer: each member's i-face rows,
    then its j-face rows (each row-major), form one contiguous run of the
    batch, so the kernels see one flat batch of 1-D columns and a member's
    faces are a slice of it.
    """
    members, tail = iface.shape[2], iface.shape[3:]
    runs = [np.moveaxis(family, 2, 0).reshape((members, -1) + tail) for family in (iface, jface)]
    return np.concatenate(runs, axis=1).reshape((-1,) + tail)


def _split_faces(batch: np.ndarray, ni: int, nj: int, members: tuple[int, ...] = ()):
    """Inverse of :func:`_join_faces`: the ``(ni+1, nj, ...)`` i-face and ``(ni, nj+1, ...)`` j-face arrays.

    ``members`` is the member-axis shape of a batch field (``()`` for a
    plain field), which comes back as axis 2 of both arrays; all are views.
    """
    n_i = (ni + 1) * nj
    tail = batch.shape[1:]
    runs = batch.reshape((-1, n_i + ni * (nj + 1)) + tail)
    members_third = (1, 2, 0) + tuple(range(3, 3 + len(tail)))
    return tuple(
        family.reshape((-1,) + shape + tail).transpose(members_third).reshape(shape + members + tail)
        for family, shape in ((runs[:, :n_i], (ni + 1, nj)), (runs[:, n_i:], (ni, nj + 1)))
    )


@lru_cache(maxsize=32)
def _stencil_rows(ni: int, nj: int, members: int) -> np.ndarray:
    """Read-only ``(4, members * faces)`` rows of the four-cell stencil of every face.

    The rows index a members-outer frame, ``(members, ni+4, nj+4)`` cells
    flattened, and run over the faces in :func:`_join_faces` order.  Stencil
    cell ``k`` of i-face ``(f, j)`` is frame cell ``(f + k, j + 2)``, and of
    j-face ``(i, f)`` frame cell ``(i + 2, f + k)``.
    """
    frame = np.arange(members * (ni + 4) * (nj + 4)).reshape(members, ni + 4, nj + 4).transpose(1, 2, 0)
    iface, jface = frame[:, 2 : nj + 2], frame[2 : ni + 2, :]
    rows = np.stack([_join_faces(iface[k : k + ni + 1], jface[:, k : k + nj + 1]) for k in range(4)])
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


def face_reconstruction(ghosts: GhostField, scheme: ReconstructionScheme, gas: GasModel):
    """Reconstructed states on every face, as one batch with the i-faces first.

    Returns the ``(left, right, fallback)`` triple of
    :func:`~shockstab.numerics.reconstruct_pair` over the ``(faces, 4)``
    stencils of both families, members outer for a batch field (see
    :func:`_join_faces`); ``_split_faces`` recovers the family shapes.  The
    stencils are gathered from the frame in one indexing step.
    """
    ni, nj = ghosts.ni, ghosts.nj
    frame = ghosts.ext.reshape((ni + 4, nj + 4, -1, 4))  # a plain frame is a batch of one
    cells = frame.transpose(2, 0, 1, 3).reshape(-1, 4)
    return reconstruct_pair(*cells[_stencil_rows(ni, nj, frame.shape[2])], scheme, gas)


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
    """
    ni, nj = field.ni, field.nj
    if (ghosts.ni, ghosts.nj) != (ni, nj):
        raise StateError("ghost frame does not match the field")
    members = field.q.shape[2:-1]
    left, right, _ = face_reconstruction(ghosts, scheme, gas)
    count = math.prod(members)
    normal = metrics.face_normal if count == 1 else np.concatenate([metrics.face_normal] * count)
    return _flux_balance(riemann_flux(solver, left, right, normal, gas), metrics, members)


def _flux_balance(flux: np.ndarray, metrics: GridMetrics, members: tuple[int, ...] = ()) -> np.ndarray:
    """``dU/dt`` of every interior cell from the fluxes of a face batch (see :func:`_join_faces`).

    ``members`` is the member-axis shape of a batch field (``()`` for a
    plain field); the result is shaped like that field's ``q``.
    """
    flux_i, flux_j = _split_faces(flux, metrics.ni, metrics.nj, members)
    per_cell = (...,) + (None,) * (len(members) + 1)
    lf_i = metrics.iface_len[per_cell] * flux_i
    lf_j = metrics.jface_len[per_cell] * flux_j
    net = (lf_i[1:] - lf_i[:-1]) + (lf_j[:, 1:] - lf_j[:, :-1])
    return -net / metrics.volume[per_cell]
