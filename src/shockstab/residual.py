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
fluxes back into the ``(ni+1, nj)`` and ``(ni, nj+1)`` family shapes.
:func:`shockstab.stability.assemble` linearizes the same batch: it gathers
its stencils through the same row table, scatters into each cell the faces
:func:`_cell_faces` lists, and forms its base residual from its own
reconstruction through the same flux-to-cell balance, :func:`_flux_balance`.

The 1-D base march has a residual of its own, :func:`_march_residual`: a
batch of members on a one-row strip periodic in ``j``, whose j-faces carry
the cell states on both sides and cancel exactly, so it fluxes the i-faces
alone.  Both residuals share :func:`_face_fluxes`, which decides where the
flux must re-test the face states.
"""

from __future__ import annotations

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
    periodic sides wrap.

    The frame is one gather of the interior through a map, cached per grid
    size and side kinds, of the cell that feeds each ghost; inflow sides
    then write their state, slip walls mirror and exit-pressure sides
    replace the pressure, in place.  The corner blocks, which the
    axis-aligned stencils never read, repeat the nearest left/right ghost
    to keep every entry finite.
    """
    ni, nj = field.ni, field.nj
    if metrics.ni != ni or metrics.nj != nj:
        raise StateError(f"metrics are {metrics.ni} x {metrics.nj} but field is {ni} x {nj}")
    sides = [bc.side(side) for side in SIDES]
    _, gather = _ghost_sources(ni, nj, tuple(side.kind for side in sides))
    ext = field.q.reshape(ni * nj, 4).take(gather, axis=0)
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
            layers[:] = _mirror_momentum(layers, normal)
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


@lru_cache(maxsize=32)
def _stencil_rows(ni: int, nj: int) -> np.ndarray:
    """Read-only ``(4, faces)`` rows of the four-cell stencil of every face.

    The rows index the ``(ni+4, nj+4)`` frame cells flattened and run over
    the faces in :func:`_join_faces` order.  Stencil cell ``k`` of i-face
    ``(f, j)`` is frame cell ``(f + k, j + 2)``, and of j-face ``(i, f)``
    frame cell ``(i + 2, f + k)``.
    """
    frame = np.arange((ni + 4) * (nj + 4)).reshape(ni + 4, nj + 4)
    iface, jface = frame[:, 2 : nj + 2], frame[2 : ni + 2, :]
    rows = np.stack([_join_faces(iface[k : k + ni + 1], jface[:, k : k + nj + 1]) for k in range(4)])
    rows.flags.writeable = False
    return rows


@lru_cache(maxsize=32)
def _cell_faces(ni: int, nj: int) -> np.ndarray:
    """Read-only ``(ni * nj, 4)`` face-batch indices of the four faces of every cell.

    Cells run in the flat ``j*ni + i`` order; each row holds the i-face after
    the cell, the i-face before it, the j-face after it and the j-face before
    it, as indices into the face batch of :func:`_join_faces`.
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
    stencils of both families (see :func:`_join_faces`); ``_split_faces``
    recovers the family shapes.  The stencils are gathered from the frame in
    one indexing step.
    """
    stencils = ghosts.ext.reshape(-1, 4).take(_stencil_rows(ghosts.ni, ghosts.nj), axis=0)
    return reconstruct_pair(*stencils, scheme, gas)


def _face_fluxes(reconstruction, normal: np.ndarray, scheme: ReconstructionScheme, solver, gas: GasModel):
    """Fluxes of a reconstructed face batch, given as the ``(left, right, fallback)`` triple.

    The triple goes to the flux as its ``pair`` too, so the face states are
    split into primitives once, in the reconstruction.  The flux re-tests
    the face states only where the reconstruction left some untested: a
    first-order scheme, or a face that fell back to its cell values.  A
    second-order reconstruction with no fallback face has already passed
    every face state with the flux's own test.
    """
    left, right, fallback = reconstruction
    tested = scheme.is_second_order and not fallback.any()
    return riemann_flux(solver, left, right, normal, gas, validate=not tested, pair=reconstruction)


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
    :func:`face_reconstruction`) and one
    :func:`~shockstab.numerics.riemann_flux` call, through
    :func:`_face_fluxes`.
    """
    if (ghosts.ni, ghosts.nj) != (field.ni, field.nj):
        raise StateError("ghost frame does not match the field")
    flux = _face_fluxes(face_reconstruction(ghosts, scheme, gas), metrics.face_normal, scheme, solver, gas)
    return _flux_balance(flux, metrics)


def _flux_balance(flux: np.ndarray, metrics: GridMetrics) -> np.ndarray:
    """``(ni, nj, 4)`` ``dU/dt`` of every interior cell from the fluxes of a face batch (see :func:`_join_faces`)."""
    flux_i, flux_j = _split_faces(flux, metrics.ni, metrics.nj)
    lf_i = metrics.iface_len[..., None] * flux_i
    lf_j = metrics.jface_len[..., None] * flux_j
    net = lf_i[1:] - lf_i[:-1]
    net += lf_j[:, 1:] - lf_j[:, :-1]
    return -net / metrics.volume[..., None]


def _march_residual(
    q: np.ndarray,
    prim: np.ndarray,
    inflow: np.ndarray,
    p_exit: np.ndarray,
    metrics: GridMetrics,
    scheme: ReconstructionScheme,
    solver: str | Sequence[str],
    gas: GasModel,
) -> np.ndarray:
    """``dU/dt`` of the 1-D march's members on a one-row strip, from its i-faces alone.

    ``q`` is ``(ni, members, 4)``, member ``k``'s cells being ``q[:, k]``,
    and ``prim`` is ``cons_to_prim(q)``; ``metrics`` is the ``ni x 1``
    strip, periodic in ``j`` with two j-face rows of equal lengths and
    normals.  ``inflow`` ``(members, 4)`` and
    ``p_exit`` ``(members,)`` hold each member's inflow state and exit
    pressure, and ``solver`` is one name, or one name per member.  Each
    member's frame takes two inflow ghosts on the left and two copies of
    its last cell at the exit pressure on the right (the ghosts of
    :func:`fill_ghosts`), converted back from the last cell's primitives
    with the pressure replaced, which is the arithmetic of
    :func:`_exit_pressure_state`.  The face batch is ``(members, ni + 1)``,
    members outer: each member's i-faces are one row of it, so
    :func:`~shockstab.numerics.riemann_flux` runs each solver on its own
    members' rows, and the i-face normals broadcast over the members.

    Both j-faces of a strip cell see four copies of the cell under the same
    geometry, so their fluxes are bitwise equal and their difference is
    exactly ``+0.0``; the balance adds that ``+0.0``, which turns a ``-0.0``
    i-face difference into ``+0.0``.  For cells that pass the flux's
    physical-state test, as the march keeps them, every member's result is
    bitwise that of :func:`residual` on its own frame.
    """
    ni, members = q.shape[:2]
    frame = np.empty((members, ni + 4, 4))
    frame[:, :2] = inflow[:, None]
    frame[:, 2:-2] = q.swapaxes(0, 1)
    exit_prim = prim[-1].copy()
    exit_prim[:, 3] = p_exit
    frame[:, -2:] = prim_to_cons(exit_prim, gas)[:, None]
    stencils = [frame[:, k : k + ni + 1] for k in range(4)]
    flux = _face_fluxes(reconstruct_pair(*stencils, scheme, gas), metrics.iface_normal[:, 0], scheme, solver, gas)
    lf = metrics.iface_len[:, 0, None] * flux
    return (-(lf[:, 1:] - lf[:, :-1] + 0.0) / metrics.volume[:, 0, None]).swapaxes(0, 1)
