"""Reconstruction schemes and numerical flux functions.

All operations are vectorized: states are arrays ``(..., 4)`` of conservative
variables and face normals are arrays ``(..., 2)`` of unit vectors, with the
leading shape ranging over faces.

Every flux function works in the local face frame: velocities are rotated to
normal/tangential components ``(qn, qt)``, a 1.5-D solver produces the flux of
``(rho, rho*qn, rho*qt, E)``, and the momentum components are rotated back.
This makes all solvers rotationally covariant by construction.

Reconstruction is componentwise with a hard guard: whenever the variation
that would appear in a denominator is below :data:`ZERO_SLOPE_GUARD`, that
component falls back to its first-order value.  On uniform data every face
therefore gets bitwise-equal left/right states, which in turn keeps free
streams exactly stationary.

The face kernels carry a leading *side axis*: the four stencil cells travel
as one ``(4, ..., 4)`` array and the left and right face states as one
``(2, ..., 4)`` array (left first), so both sides are limited, checked for
positivity, split into the face frame, validated and given their physical
fluxes in one pass each; AUSM+ and SLAU evaluate their split Mach and
pressure polynomials for both sides at once too, with the side's sign
``+1``/``-1`` as a ``(2, 1, ...)`` array.  The public functions still take
and return the sides separately, but the stacked sides and their
primitive columns travel with them from :func:`reconstruct_pair` to
:func:`riemann_flux` (its ``pair`` argument), so a face batch is split into
primitives once (twice where a face fell back to its cell value).  The
arithmetic is elementwise and unchanged, so every face state and flux is
bit-identical to a side-by-side evaluation.

Finite-difference linearizations (:func:`_central_difference`) hand the
eight ``x +- e_c`` probes of a batch to the map on a leading axis in one
call; the kernels are elementwise over leading axes, so each probe gets the
bits of a call of its own.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import groupby

import numpy as np

from .errors import StateError
from .state import GasModel, _physical_state, _primitive_columns, cons_to_prim, prim_to_cons

__all__ = [
    "FD_STEP",
    "ZERO_SLOPE_GUARD",
    "LIMITERS",
    "RIEMANN_SOLVERS",
    "RECONSTRUCTION_KINDS",
    "RoundParams",
    "ReconstructionScheme",
    "limiter_value",
    "round_face_value",
    "reconstruct_pair",
    "reconstruction_kink_flags",
    "physical_flux",
    "riemann_flux",
]

#: Variations smaller than this (absolute) trigger the first-order fallback.
ZERO_SLOPE_GUARD = 1.0e-40

#: Absolute perturbation applied to conservative components when differencing.
FD_STEP = 1.0e-7

LIMITERS = ("superbee", "van_leer", "van_albada", "minmod", "deng")
RECONSTRUCTION_KINDS = ("first_order", "muscl", "round")
RIEMANN_SOLVERS = (
    "roe",
    "hll",
    "hllc",
    "hlle",
    "hllem",
    "van_leer_fvs",
    "ausm_plus",
    "slau",
)

#: Slope ratios at which each limiter is non-differentiable (besides the
#: guard region); used by the kink diagnostics.
_LIMITER_KINKS = {
    "superbee": (0.0, 0.5, 1.0, 2.0),
    "van_leer": (0.0,),
    "van_albada": (0.0,),
    "minmod": (0.0, 1.0),
    "deng": (0.0, 0.25, 2.5),
}


def _columns(*columns: np.ndarray) -> np.ndarray:
    """``np.stack(columns, axis=-1)`` of equal-shaped float columns, filled in place.

    Same values as ``np.stack``, at a fraction of its call overhead on the
    small face batches the kernels see.
    """
    out = np.empty(np.shape(columns[0]) + (len(columns),))
    for k, column in enumerate(columns):
        out[..., k] = column
    return out


def _central_difference(fn, x: np.ndarray) -> np.ndarray:
    """Jacobian ``J[..., r, c] = d fn_r / d x_c`` of a map of ``(..., 4)`` states.

    Each column is ``(fn(x + e_c) - fn(x - e_c)) / (2 * FD_STEP)`` with
    ``e_c`` the step :data:`FD_STEP` in component ``c``.  The eight probes
    ``x + e_0 .. x + e_3, x - e_0 .. x - e_3`` are stacked on a leading axis
    and handed to ``fn`` in one call.  ``fn`` must map each probe on its own
    and return its values with the probe axis leading; whatever it holds
    fixed must broadcast against the probes.
    """
    steps = FD_STEP * np.eye(4).reshape((4,) + (1,) * (np.ndim(x) - 1) + (4,))
    probes = np.empty((8,) + np.shape(x))
    np.add(x, steps, out=probes[:4])
    np.subtract(x, steps, out=probes[4:])
    values = fn(probes)
    return np.moveaxis((values[:4] - values[4:]) / (2.0 * FD_STEP), 0, -1).copy()


def _side_signs(ndim: int) -> np.ndarray:
    """``(+1, -1)`` on a leading side axis (left, right) of an ``ndim``-dimensional array."""
    return np.array([1.0, -1.0]).reshape((2,) + (1,) * (ndim - 1))


def limiter_value(name: str, r: np.ndarray) -> np.ndarray:
    """Evaluate slope limiter ``psi(r)``.

    All limiters satisfy ``psi(1) = 1`` (second-order consistency) and
    ``0 <= psi <= 2`` with ``psi <= 2 r`` for ``r >= 0``, which keeps scalar
    reconstructions bounded by their stencil neighbours on monotone data.
    """
    r = np.asarray(r, dtype=float)
    if name == "superbee":
        return np.maximum(0.0, np.maximum(np.minimum(2.0 * r, 1.0), np.minimum(r, 2.0)))
    if name == "van_leer":
        return (r + np.abs(r)) / (1.0 + np.abs(r))
    if name == "van_albada":
        return np.where(r > 0.0, (r * r + r) / (r * r + 1.0), 0.0)
    if name == "minmod":
        return np.maximum(0.0, np.minimum(r, 1.0))
    if name == "deng":
        # Compact limiter tracking the kappa = 1/3 linear curve between the
        # usual TVD bounds.
        return np.maximum(0.0, np.minimum(np.minimum(2.0 * r, (1.0 + 2.0 * r) / 3.0), 2.0))
    raise StateError(f"unknown limiter {name!r}; choose one of {LIMITERS}")


def _default_round_weight(uh: np.ndarray) -> np.ndarray:
    """Smooth blending weight: 1 at ``uh = 0.5``, decaying toward the bounds."""
    q = uh - 0.5
    return 1.0 / (1.0 + 1600.0 * q * q * q * q) ** 2


@dataclass(frozen=True)
class RoundParams:
    """Parameters of the normalized-variable face mapping.

    ``lambda1`` sets the upper bound ``lambda1*uh - lambda1 + 1`` of the
    second branch; the default ``0.5`` makes the composite map continuous
    at ``uh = 0.5``.
    """

    lambda1: float = 0.5


@dataclass(frozen=True)
class ReconstructionScheme:
    """Configuration of the face-value reconstruction.

    ``kind`` is one of ``first_order``, ``muscl``, ``round``.  ``limiter``
    applies to ``muscl`` only; ``round_params`` to ``round`` only.
    ``variables`` selects the working set: ``conservative`` (default) or
    ``primitive``.
    """

    kind: str = "muscl"
    limiter: str = "van_albada"
    round_params: RoundParams = field(default_factory=RoundParams)
    variables: str = "conservative"

    def __post_init__(self) -> None:
        if self.kind not in RECONSTRUCTION_KINDS:
            raise StateError(f"unknown reconstruction {self.kind!r}; choose one of {RECONSTRUCTION_KINDS}")
        if self.kind == "muscl" and self.limiter not in LIMITERS:
            raise StateError(f"unknown limiter {self.limiter!r}; choose one of {LIMITERS}")
        if self.variables not in ("conservative", "primitive"):
            raise StateError(f"reconstruction variables must be 'conservative' or 'primitive', got {self.variables!r}")

    @property
    def is_second_order(self) -> bool:
        return self.kind != "first_order"


def _round_blends(uh: np.ndarray, params: RoundParams):
    """Uncapped branch values of the normalized-variable map.

    Returns ``(low, high, bound)``: the linear curve ``1/3 + 5*uh/6``
    blended, with weight :func:`_default_round_weight`, with ``2*uh``
    (branch ``(0, 0.5]``) and with ``bound = lambda1*uh - lambda1 + 1``
    (branch ``(0.5, 1]``).
    """
    lin = 1.0 / 3.0 + (5.0 / 6.0) * uh
    w = _default_round_weight(uh)
    low = lin * w + 2.0 * uh * (1.0 - w)
    bound = params.lambda1 * uh - params.lambda1 + 1.0
    return low, lin * w + bound * (1.0 - w), bound


def round_face_value(uh: np.ndarray, params: RoundParams) -> np.ndarray:
    """Map the normalized cell value ``uh`` to a normalized face value.

    Three branches: on ``(0, 0.5]`` the blend of the linear curve with
    ``2*uh`` capped by ``2*uh``; on ``(0.5, 1]`` the blend with
    ``lambda1*uh - lambda1 + 1`` capped by that bound; identity elsewhere
    (non-monotone data receives no correction).
    """
    uh = np.asarray(uh, dtype=float)
    low, high, bound = _round_blends(uh, params)
    out = np.where((uh > 0.0) & (uh <= 0.5), np.minimum(low, 2.0 * uh), uh)
    out = np.where((uh > 0.5) & (uh <= 1.0), np.minimum(high, bound), out)
    return out


def _stencil_sides(kind: str, stencil: np.ndarray):
    """``(center, upwind, num, den, sign)`` of both face values, side axis first.

    ``stencil`` stacks the cells ``u0..u3`` as ``(4, ..., 4)``; each result
    has a leading side axis (left, right) or broadcasts against one.  MUSCL
    limits the slope ratio ``num/den`` and moves ``center`` by ``sign *
    psi/2 * den``; ROUND maps the normalized variable ``num/den`` and
    measures the face value from ``upwind`` in units of ``den``.
    """
    center, upwind = stencil[1:3], stencil[::3]  # (u1, u2), (u0, u3)
    if kind == "muscl":
        slopes = stencil[1:] - stencil[:-1]  # u1 - u0, u2 - u1, u3 - u2
        return center, upwind, slopes[1], slopes[::2], _side_signs(stencil.ndim)
    # (u1 - u0, u2 - u3) over (u2 - u0, u1 - u3)
    return center, upwind, center - upwind, stencil[2:0:-1] - upwind, None


def _reconstruct_values(stencil: np.ndarray, scheme: ReconstructionScheme) -> np.ndarray:
    """Stacked ``(2, ..., 4)`` left/right face values of a second-order scheme.

    ``stencil`` is the ``(4, ..., 4)`` stack of ``u0..u3``; the values are
    taken before the positivity fallback.  Where ``|den|`` is below
    :data:`ZERO_SLOPE_GUARD` a component keeps its cell value.
    """
    center, upwind, num, den_raw, sign = _stencil_sides(scheme.kind, stencil)
    safe = np.abs(den_raw) >= ZERO_SLOPE_GUARD
    den = np.where(safe, den_raw, 1.0)
    r = np.where(safe, num / den, 0.0)
    if scheme.kind == "muscl":
        val = center + sign * 0.5 * limiter_value(scheme.limiter, r) * den_raw
    else:
        val = upwind + round_face_value(r, scheme.round_params) * den_raw
    return np.where(safe, val, center)


class _FacePair(tuple):
    """The ``(left, right, fallback)`` triple of :func:`reconstruct_pair`, with the stacked sides.

    ``stack`` is the ``(2, ..., 4)`` array whose halves are ``left`` and
    ``right``, and ``primitives`` the ``rho, u, v, p`` columns of ``stack``
    (with the side axis), as :func:`~shockstab.state._primitive_columns`
    gives them, or ``None`` where the reconstruction formed none (first
    order) or a fallback face made them stale: only a flux needs them then,
    and it forms them itself.  Passed to :func:`riemann_flux` as ``pair``,
    they spare the flux a second stacking and, when present, a second
    primitive split.
    """

    def __new__(cls, stack: np.ndarray, primitives, fallback: np.ndarray) -> "_FacePair":
        pair = super().__new__(cls, (stack[0], stack[1], fallback))
        pair.stack, pair.primitives = stack, primitives
        return pair


def reconstruct_pair(
    u0: np.ndarray,
    u1: np.ndarray,
    u2: np.ndarray,
    u3: np.ndarray,
    scheme: ReconstructionScheme,
    gas: GasModel,
):
    """Left/right face states from the four-cell stencil ``u0..u3``.

    The face sits between cells ``u1`` and ``u2``.  Inputs are conservative
    ``(..., 4)`` arrays of one shape; with ``scheme.variables ==
    'primitive'`` the stencil is converted, reconstructed componentwise, and
    converted back.

    Face states of a second-order scheme with non-positive density or
    pressure revert to the first-order value of their side.  Returns
    ``(left, right, fallback)`` where ``fallback`` (bool over faces) marks
    the faces where either side reverted.

    The four cells are stacked once and handed to
    :func:`_reconstruct_stencil`, which holds the reconstruction itself.
    """
    return _reconstruct_stencil(np.array((u0, u1, u2, u3), dtype=float), scheme, gas)


def _reconstruct_stencil(stencil: np.ndarray, scheme: ReconstructionScheme, gas: GasModel):
    """:func:`reconstruct_pair` of the stacked ``(4, ..., 4)`` stencil ``u0..u3``.

    The work runs on the side axis: the stencil (converted to primitives in
    one call where the scheme asks for it) gives both sides, which are
    limited, split into primitives, checked for positivity and given their
    fallback in one pass each, and ``left``/``right`` come back as the two
    halves of one ``(2, ..., 4)`` array.  The triple is a :class:`_FacePair`
    that also carries that array and, unless a face fell back, its primitive
    columns, for :func:`riemann_flux`'s ``pair``.  A first-order scheme takes
    its cell values ``u1``/``u2`` as the sides and splits nothing.  Callers
    that gather their stencils stacked (the nonlinear march and the matrix
    assembly) call this directly; ``stencil`` is not written to.
    """
    if scheme.kind == "first_order":
        faces = stencil[1:3]
        return _FacePair(faces, None, np.zeros(faces.shape[1:-1], dtype=bool))

    if scheme.variables == "primitive":
        faces = prim_to_cons(_reconstruct_values(cons_to_prim(stencil, gas), scheme), gas)
    else:
        faces = _reconstruct_values(stencil, scheme)

    with np.errstate(divide="ignore", invalid="ignore"):
        primitives = _primitive_columns(faces, gas)
        bad = ~_physical_state(primitives[0], primitives[3])
    if bad.any():
        faces = np.where(bad[..., None], stencil[1:3], faces)
        primitives = None
    return _FacePair(faces, primitives, bad[0] | bad[1])


#: A stencil variation below this fraction of the component's largest
#: stencil magnitude (but nonzero) flags a face as near the guard switch.
_SMALL_SLOPE_TOL = 1.0e-4

#: Relative distance to a limiter kink, branch boundary or ``min`` tie that
#: flags a face.
_KINK_TOL = 1.0e-5


def _near(values: np.ndarray, points) -> np.ndarray:
    hit = np.zeros(values.shape, dtype=bool)
    for p in points:
        hit |= np.abs(values - p) <= _KINK_TOL * (1.0 + np.abs(values))
    return hit


def reconstruction_kink_flags(
    u0: np.ndarray,
    u1: np.ndarray,
    u2: np.ndarray,
    u3: np.ndarray,
    scheme: ReconstructionScheme,
    gas: GasModel,
) -> np.ndarray:
    """Mark faces where the reconstruction is (nearly) non-differentiable.

    A finite-difference linearization through the reconstruction is
    unreliable wherever the base flow sits at or near a branch switch: the
    zero-variation guard, a limiter kink, a normalized-variable branch
    boundary, or a tie between the two arguments of a ``min``.  Returns a
    boolean array over faces (any component flags the face).
    """
    stencil = np.array((u0, u1, u2, u3), dtype=float)
    if scheme.kind == "first_order":
        return np.zeros(stencil.shape[1:-1], dtype=bool)
    if scheme.variables == "primitive":
        stencil = cons_to_prim(stencil, gas)

    scale = np.maximum.reduce(np.abs(stencil)) + 1.0e-300

    # An exactly zero variation is branch-stable: probes of either sign land
    # in consistent branches (every limiter vanishes for r <= 0 and the guard
    # pins the face to the cell value), so only a *small but nonzero*
    # denominator - where a state probe swings the ratio across the whole
    # branch structure - is fragile.  Both sides are checked at once.
    kinks = _LIMITER_KINKS[scheme.limiter] if scheme.kind == "muscl" else (0.0, 0.5, 1.0)
    _, _, num, den_raw, _ = _stencil_sides(scheme.kind, stencil)
    zero = den_raw == 0.0
    tiny = ~zero & (np.abs(den_raw) <= _SMALL_SLOPE_TOL * scale)
    regular = ~zero & ~tiny
    r = num / np.where(regular, den_raw, 1.0)
    flags = tiny | (regular & _near(r, kinks))
    if scheme.kind == "round":
        a_low, a_high, bound = _round_blends(r, scheme.round_params)
        tie_low = np.abs(a_low - 2.0 * r) <= _KINK_TOL * (1.0 + np.abs(a_low) + np.abs(r))
        tie_high = np.abs(a_high - bound) <= _KINK_TOL * (1.0 + np.abs(a_high) + np.abs(bound))
        flags |= regular & (((r > 0.0) & (r <= 0.5) & tie_low) | ((r > 0.5) & (r <= 1.0) & tie_high))

    return np.any(flags, axis=(0, -1))


# ---------------------------------------------------------------------------
# Flux functions
# ---------------------------------------------------------------------------


def physical_flux(cons: np.ndarray, normal: np.ndarray, gas: GasModel) -> np.ndarray:
    """Exact Euler flux through a face with unit normal ``normal``.

    ``F = (rho qn, rho u qn + p nx, rho v qn + p ny, (E + p) qn)`` with
    ``qn = u nx + v ny``; linear in the normal, so opposite normals give
    opposite fluxes exactly.
    """
    cons = np.asarray(cons, dtype=float)
    normal = np.asarray(normal, dtype=float)
    prim = cons_to_prim(cons, gas)
    rho, u, v, p = prim[..., 0], prim[..., 1], prim[..., 2], prim[..., 3]
    nx, ny = normal[..., 0], normal[..., 1]
    qn = u * nx + v * ny
    mass = rho * qn
    return np.stack(
        (mass, mass * u + p * nx, mass * v + p * ny, (cons[..., 3] + p) * qn),
        axis=-1,
    )


class _FaceSide:
    """Face-frame view of face states: scalars rho, u, v, qn, qt, p, E, a, H.

    :func:`riemann_flux` splits both sides at once (:meth:`split`), from the
    ``(2, ..., 4)`` stack of the left and right states, so every attribute
    carries the side axis first and the normal broadcasts over it; the
    frame split, the validation and :meth:`flux` then run once for both
    sides.  :meth:`sides` gives each side alone, as views, for the wave
    models that treat the sides differently.
    """

    __slots__ = ("rho", "u", "v", "qn", "qt", "p", "E", "a", "H", "cons")

    def __init__(self, rho, u, v, qn, qt, p, E, a, H, cons):
        self.rho, self.u, self.v, self.qn, self.qt = rho, u, v, qn, qt
        self.p, self.E, self.a, self.H, self.cons = p, E, a, H, cons

    @classmethod
    def split(cls, cons: np.ndarray, primitives, nx: np.ndarray, ny: np.ndarray, gas: GasModel) -> "_FaceSide":
        """The face-frame view of conservative ``(..., 4)`` states about the normal ``(nx, ny)``.

        ``primitives`` are the ``rho, u, v, p`` columns of ``cons``, as
        :func:`~shockstab.state._primitive_columns` gives them.
        """
        rho, u, v, p = primitives
        E = cons[..., 3]
        qn = u * nx + v * ny
        qt = -u * ny + v * nx
        # Face-frame conservative state (rho, rho qn, rho qt, E).
        frame_cons = _columns(rho, rho * qn, rho * qt, E)
        return cls(rho, u, v, qn, qt, p, E, np.sqrt(gas.gamma * p / rho), (E + p) / rho, frame_cons)

    def _view(self, index) -> "_FaceSide":
        return _FaceSide(self.rho[index], self.u[index], self.v[index], self.qn[index], self.qt[index],
                         self.p[index], self.E[index], self.a[index], self.H[index], self.cons[index])

    def rows(self, rows: slice) -> "_FaceSide":
        """Both sides over a run of face rows, as views."""
        return self._view((slice(None), rows))

    def sides(self) -> tuple["_FaceSide", "_FaceSide"]:
        """The left and the right side alone, as views."""
        return self._view(0), self._view(1)

    def flux(self) -> np.ndarray:
        """Face-frame flux (mass, normal momentum, tangential momentum, energy)."""
        m = self.rho * self.qn
        return _columns(m, m * self.qn + self.p, m * self.qt, (self.E + self.p) * self.qn)


def _unrotate(face_flux: np.ndarray, nx: np.ndarray, ny: np.ndarray) -> np.ndarray:
    """Rotate the momentum components of a face-frame flux back to x/y."""
    out = np.empty_like(face_flux)
    out[..., 0] = face_flux[..., 0]
    out[..., 1] = face_flux[..., 1] * nx - face_flux[..., 2] * ny
    out[..., 2] = face_flux[..., 1] * ny + face_flux[..., 2] * nx
    out[..., 3] = face_flux[..., 3]
    return out


def _roe_average(L: _FaceSide, R: _FaceSide, gas: GasModel):
    """Density-weighted interface averages (qn, qt, H, a, sqrt-rho product)."""
    rl = np.sqrt(L.rho)
    rr = np.sqrt(R.rho)
    w = rl / (rl + rr)
    qn = w * L.qn + (1.0 - w) * R.qn
    qt = w * L.qt + (1.0 - w) * R.qt
    H = w * L.H + (1.0 - w) * R.H
    a2 = (gas.gamma - 1.0) * (H - 0.5 * (qn * qn + qt * qt))
    if (a2 <= 0.0).any():
        raise StateError("interface averaging produced a non-positive sound speed")
    return qn, qt, H, np.sqrt(a2), rl * rr


def _wave_decomposition(L: _FaceSide, R: _FaceSide, qn, qt, H, a, rho_avg):
    """Characteristic strengths and right eigenvectors at the interface.

    Returns ``(alphas, vectors)`` for the four waves ``qn - a``, entropy,
    shear, ``qn + a`` in the face frame.
    """
    dp = R.p - L.p
    dqn = R.qn - L.qn
    a2 = a * a
    alpha1 = (dp - rho_avg * a * dqn) / (2.0 * a2)
    alpha2 = (R.rho - L.rho) - dp / a2
    alpha3 = rho_avg * (R.qt - L.qt)
    alpha4 = (dp + rho_avg * a * dqn) / (2.0 * a2)
    one = np.ones_like(qn)
    zero = np.zeros_like(qn)
    k1 = _columns(one, qn - a, qt, H - qn * a)
    k2 = _columns(one, qn, qt, 0.5 * (qn * qn + qt * qt))
    k3 = _columns(zero, zero, one, qt)
    k4 = _columns(one, qn + a, qt, H + qn * a)
    return (alpha1, alpha2, alpha3, alpha4), (k1, k2, k3, k4)


def _flux_roe(S: _FaceSide, gas: GasModel) -> np.ndarray:
    f = S.flux()
    L, R = S.sides()
    qn, qt, H, a, rho_avg = _roe_average(L, R, gas)
    alphas, ks = _wave_decomposition(L, R, qn, qt, H, a, rho_avg)
    lams = (np.abs(qn - a), np.abs(qn), np.abs(qn), np.abs(qn + a))
    diss = sum((lam * al)[..., None] * k for lam, al, k in zip(lams, alphas, ks))
    return 0.5 * (f[0] + f[1]) - 0.5 * diss


def _davis_speeds(S: _FaceSide):
    slow, fast = S.qn - S.a, S.qn + S.a
    return np.minimum(slow[0], slow[1]), np.maximum(fast[0], fast[1])


def _two_wave_flux(S: _FaceSide, f, sl, sr):
    """Flux of the single average state between the waves ``sl`` and ``sr``.

    ``(sr*fL - sl*fR + sl*sr*(UR - UL)) / span`` with ``span = sr - sl``
    (1 where the speeds coincide), from the stacked side fluxes ``f``;
    returns the flux and ``span``.
    """
    span = np.where(sr - sl == 0.0, 1.0, sr - sl)
    jump = S.cons[1] - S.cons[0]
    mid = (sr[..., None] * f[0] - sl[..., None] * f[1] + (sl * sr)[..., None] * jump) / span[..., None]
    return mid, span


def _flux_hll(S: _FaceSide, gas: GasModel) -> np.ndarray:
    f = S.flux()
    sl, sr = _davis_speeds(S)
    mid, _ = _two_wave_flux(S, f, sl, sr)
    out = np.where(sl[..., None] >= 0.0, f[0], mid)
    return np.where(sr[..., None] <= 0.0, f[1], out)


def _flux_hllc(S: _FaceSide, gas: GasModel) -> np.ndarray:
    f = S.flux()
    sl, sr = _davis_speeds(S)
    s_side = np.array((sl, sr))
    m = S.rho * (s_side - S.qn)  # ml, mr
    den = m[0] - m[1]
    den = np.where(den == 0.0, 1.0, den)
    mq = m * S.qn
    s_star = (S.p[1] - S.p[0] + mq[0] - mq[1]) / den

    # Both star states at once: rho*(s - qn) is m on each side.
    factor = m / np.where(s_side - s_star == 0.0, 1.0, s_side - s_star)
    energy = S.E / S.rho + (s_star - S.qn) * (s_star + S.p / m)
    star = _columns(factor, factor * s_star, factor * S.qt, factor * energy)
    f_star = f + s_side[..., None] * (star - S.cons)
    out = np.where(s_star[..., None] >= 0.0, f_star[0], f_star[1])
    out = np.where(sl[..., None] >= 0.0, f[0], out)
    return np.where(sr[..., None] <= 0.0, f[1], out)


def _einfeldt_speeds(L: _FaceSide, R: _FaceSide, qn, a):
    bl = np.minimum(np.minimum(L.qn - L.a, qn - a), 0.0)
    br = np.maximum(np.maximum(R.qn + R.a, qn + a), 0.0)
    return bl, br


def _flux_hlle(S: _FaceSide, gas: GasModel) -> np.ndarray:
    f = S.flux()
    L, R = S.sides()
    qn, qt, H, a, rho_avg = _roe_average(L, R, gas)
    bl, br = _einfeldt_speeds(L, R, qn, a)
    return _two_wave_flux(S, f, bl, br)[0]


def _flux_hllem(S: _FaceSide, gas: GasModel) -> np.ndarray:
    f = S.flux()
    L, R = S.sides()
    qn, qt, H, a, rho_avg = _roe_average(L, R, gas)
    bl, br = _einfeldt_speeds(L, R, qn, a)
    hll, span = _two_wave_flux(S, f, bl, br)
    alphas, ks = _wave_decomposition(L, R, qn, qt, H, a, rho_avg)
    # Anti-diffusion restores the entropy and shear waves that the two-wave
    # average smears; the amount is throttled by delta near sonic faces.
    delta = a / (a + np.abs(qn))
    linear = alphas[1][..., None] * ks[1] + alphas[2][..., None] * ks[2]
    return hll - (bl * br / span * delta)[..., None] * linear


def _flux_van_leer(S: _FaceSide, gas: GasModel) -> np.ndarray:
    f = S.flux()
    L, R = S.sides()
    g = gas.gamma

    def split(S: _FaceSide, sign: float, full: np.ndarray) -> np.ndarray:
        m = S.qn / S.a
        f_mass = sign * 0.25 * S.rho * S.a * (m + sign) ** 2
        vel = ((g - 1.0) * S.qn + sign * 2.0 * S.a) / g
        enrg = vel * vel * (g * g / (2.0 * (g * g - 1.0))) + 0.5 * S.qt * S.qt
        split_flux = _columns(f_mass, f_mass * vel, f_mass * S.qt, f_mass * enrg)
        if sign > 0:
            split_flux = np.where(m[..., None] >= 1.0, full, split_flux)
            return np.where(m[..., None] <= -1.0, 0.0, split_flux)
        split_flux = np.where(m[..., None] <= -1.0, full, split_flux)
        return np.where(m[..., None] >= 1.0, 0.0, split_flux)

    return split(L, +1.0, f[0]) + split(R, -1.0, f[1])


def _mach_split_m4(m: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """Split Mach polynomials ``M+`` (``sign = +1``) and ``M-`` (``sign = -1``), both sides at once.

    ``m`` carries the side axis and ``sign`` is :func:`_side_signs`; the
    sign enters only as a factor ``+-1``, so each side gets the bits of its
    one-sided polynomial.
    """
    sub = sign * (0.25 * (m + sign) ** 2 + 0.125 * (m * m - 1.0) ** 2)  # beta = 1/8
    sup = 0.5 * (m + sign * np.abs(m))
    return np.where(np.abs(m) >= 1.0, sup, sub)


def _pressure_split_p5(m: np.ndarray, sign: np.ndarray, alpha: float = 0.1875) -> np.ndarray:
    """Split pressure polynomials ``P+``/``P-`` of both sides, as :func:`_mach_split_m4`."""
    sub = 0.25 * (m + sign) ** 2 * (2.0 - sign * m) + sign * alpha * m * (m * m - 1.0) ** 2
    sup = 0.5 * (1.0 + sign * np.sign(m))
    return np.where(np.abs(m) >= 1.0, sup, sub)


def _upwind_convection(S: _FaceSide, mdot: np.ndarray, p_half: np.ndarray) -> np.ndarray:
    """Face-frame flux of the AUSM family from the interface mass flux and pressure.

    ``mdot`` carries ``(1, qn, qt, H)`` of its upwind side; ``p_half`` adds
    to the normal momentum.
    """
    psi = _columns(np.ones_like(S.qn), S.qn, S.qt, S.H)
    conv = 0.5 * (mdot + np.abs(mdot))[..., None] * psi[0] + 0.5 * (mdot - np.abs(mdot))[..., None] * psi[1]
    zero = np.zeros_like(mdot)
    return conv + _columns(zero, p_half, zero, zero)


def _flux_ausm_plus(S: _FaceSide, gas: GasModel) -> np.ndarray:
    g = gas.gamma
    # Interface speed of sound from the critical speed on each side.
    a_crit2 = 2.0 * (g - 1.0) / (g + 1.0) * S.H
    a_hat = a_crit2 / np.maximum(np.sqrt(a_crit2), np.abs(S.qn))
    a_half = np.minimum(a_hat[0], a_hat[1])

    m = S.qn / a_half
    sign = _side_signs(m.ndim)
    m_split = _mach_split_m4(m, sign)
    p_split = _pressure_split_p5(m, sign) * S.p
    m_half = m_split[0] + m_split[1]

    mdot = a_half * (np.maximum(m_half, 0.0) * S.rho[0] + np.minimum(m_half, 0.0) * S.rho[1])
    return _upwind_convection(S, mdot, p_split[0] + p_split[1])


def _flux_slau(S: _FaceSide, gas: GasModel) -> np.ndarray:
    L, R = S.sides()
    a_bar = 0.5 * (L.a + R.a)
    speed2 = 0.5 * (L.qn * L.qn + L.qt * L.qt + R.qn * R.qn + R.qt * R.qt)
    m_hat = np.minimum(1.0, np.sqrt(speed2) / a_bar)
    chi = (1.0 - m_hat) ** 2

    m = S.qn / a_bar
    abs_qn = np.abs(S.qn)
    g_fac = -np.maximum(np.minimum(m[0], 0.0), -1.0) * np.minimum(np.maximum(m[1], 0.0), 1.0)
    rho_qn = S.rho * abs_qn
    vn_bar = (rho_qn[0] + rho_qn[1]) / (L.rho + R.rho)
    vn_plus = (1.0 - g_fac) * vn_bar + g_fac * abs_qn[0]
    vn_minus = (1.0 - g_fac) * vn_bar + g_fac * abs_qn[1]
    mdot = 0.5 * (
        L.rho * (L.qn + vn_plus) + R.rho * (R.qn - vn_minus) - (chi / a_bar) * (R.p - L.p)
    )

    beta = _pressure_split_p5(m, _side_signs(m.ndim), alpha=0.0)
    beta_p, beta_m = beta[0], beta[1]
    p_half = (
        0.5 * (L.p + R.p)
        + 0.5 * (beta_p - beta_m) * (L.p - R.p)
        + (1.0 - chi) * (beta_p + beta_m - 1.0) * 0.5 * (L.p + R.p)
    )
    return _upwind_convection(S, mdot, p_half)


_SOLVER_TABLE = {
    "roe": _flux_roe,
    "hll": _flux_hll,
    "hllc": _flux_hllc,
    "hlle": _flux_hlle,
    "hllem": _flux_hllem,
    "van_leer_fvs": _flux_van_leer,
    "ausm_plus": _flux_ausm_plus,
    "slau": _flux_slau,
}


def _solver_kernel(name: str):
    """Wave model of a named solver; an unknown name raises :class:`StateError`."""
    try:
        return _SOLVER_TABLE[name]
    except KeyError:
        raise StateError(f"unknown solver {name!r}; choose one of {RIEMANN_SOLVERS}") from None


def _solver_runs(solver: str | Sequence[str], rows: int):
    """``(name, kernel, rows)`` of each run of equal solver names over a face batch.

    A single name is one run over the whole batch (``slice(None)``).  A
    sequence holds one name per member, and the members own equal,
    consecutive shares of the ``rows`` face rows (members outer); adjacent
    members with the same name form one run.
    """
    if isinstance(solver, str):
        return [(solver, _solver_kernel(solver), slice(None))]
    names = list(solver)
    if not names or rows % len(names):
        raise StateError(f"{rows} face rows do not split evenly among {len(names)} solver members")
    if names.count(names[0]) == len(names):
        return _solver_runs(names[0], rows)
    runs = []
    share, start = rows // len(names), 0
    for name, group in groupby(names):
        stop = start + share * len(list(group))
        runs.append((name, _solver_kernel(name), slice(start, stop)))
        start = stop
    return runs


def riemann_flux(
    solver: str | Sequence[str],
    left: np.ndarray,
    right: np.ndarray,
    normal: np.ndarray,
    gas: GasModel,
    validate: bool = True,
    *,
    pair: _FacePair | None = None,
) -> np.ndarray:
    """Numerical flux of the requested solver for ``(left, right)`` states.

    ``left``/``right`` are conservative ``(..., 4)`` arrays of one shape
    and ``normal`` a unit-vector ``(..., 2)`` array; all solvers reduce to
    the exact flux when ``left == right``.  With ``validate``, any side state whose density
    or pressure is not finite and positive raises :class:`StateError`.

    ``solver`` is one name for the whole batch, or one name per member of a
    ``(rows, ..., 4)`` batch whose members each own an equal, consecutive
    run of rows along its first axis (see :func:`_solver_runs`).  The two sides are stacked on a leading
    side axis, split into the face frame (:class:`_FaceSide`) and validated
    (left first) once; each solver's wave model then runs on its own row
    range(s), as views, forming both sides' physical fluxes itself where it
    needs them, and the fluxes are rotated back once.  Every row's flux is
    bit-identical to that of a one-solver call.

    ``pair`` is the :func:`reconstruct_pair` result that ``left`` and
    ``right`` come from, if there is one: the flux then takes its stacked
    sides, and their primitive columns where the pair has them, instead of
    stacking and splitting the sides again.  The fluxes are the same bits
    either way.
    """
    normal = np.asarray(normal, dtype=float)
    nx, ny = normal[..., 0], normal[..., 1]
    # A non-physical side yields inf/nan here; validation reports it below.
    with np.errstate(divide="ignore", invalid="ignore"):
        stack = np.array((left, right), dtype=float) if pair is None else pair.stack
        primitives = getattr(pair, "primitives", None)
        if primitives is None:
            primitives = _primitive_columns(stack, gas)
        S = _FaceSide.split(stack, primitives, nx, ny, gas)
    runs = _solver_runs(solver, stack.shape[1] if stack.ndim > 2 else 1)
    if validate:
        ok = _physical_state(S.rho, S.p)
        if not ok.all():
            for name, side_ok in zip(("left", "right"), ok):
                for run, _, rows in runs:
                    bad = int(np.sum(~side_ok[rows]))
                    if bad:
                        raise StateError(f"{bad} non-physical {name} state(s) passed to solver {run!r}")
    if len(runs) == 1:
        flux = runs[0][1](S, gas)
    else:
        flux = np.concatenate([kernel(S.rows(rows), gas) for _, kernel, rows in runs])
    return _unrotate(flux, nx, ny)
