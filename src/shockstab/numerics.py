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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import StateError
from .state import GasModel, cons_to_prim, is_physical_prim, prim_to_cons

__all__ = [
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

    ``weight0``/``weight1`` blend the linear third-order curve
    ``1/3 + 5*uh/6`` against the local bounds on ``(0, 0.5]`` and
    ``(0.5, 1]`` respectively; they may be floats or callables of the
    normalized variable.  ``lambda1`` sets the upper bound
    ``lambda1*uh - lambda1 + 1`` of the second branch; the default ``0.5``
    makes the composite map continuous at ``uh = 0.5``.
    """

    weight0: Callable[[np.ndarray], np.ndarray] | float = field(default=_default_round_weight)
    weight1: Callable[[np.ndarray], np.ndarray] | float = field(default=_default_round_weight)
    lambda1: float = 0.5

    def eval_weight0(self, uh: np.ndarray) -> np.ndarray:
        w = self.weight0(uh) if callable(self.weight0) else np.full_like(uh, float(self.weight0))
        return np.asarray(w, dtype=float)

    def eval_weight1(self, uh: np.ndarray) -> np.ndarray:
        w = self.weight1(uh) if callable(self.weight1) else np.full_like(uh, float(self.weight1))
        return np.asarray(w, dtype=float)


@dataclass(frozen=True)
class ReconstructionScheme:
    """Configuration of the face-value reconstruction.

    ``kind`` is one of ``first_order``, ``muscl``, ``round``.  ``limiter``
    applies to ``muscl`` only; ``round_params`` to ``round`` only.
    ``variables`` selects the working set: ``conservative`` (default) or
    ``primitive``.  With ``positivity_fallback`` enabled, a face state with
    non-positive density or pressure is replaced by its first-order value.
    """

    kind: str = "muscl"
    limiter: str = "van_albada"
    round_params: RoundParams = field(default_factory=RoundParams)
    variables: str = "conservative"
    positivity_fallback: bool = True

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


def round_face_value(uh: np.ndarray, params: RoundParams) -> np.ndarray:
    """Map the normalized cell value ``uh`` to a normalized face value.

    Three branches: on ``(0, 0.5]`` the blend of the linear curve with
    ``2*uh`` capped by ``2*uh``; on ``(0.5, 1]`` the blend with
    ``lambda1*uh - lambda1 + 1`` capped by that bound; identity elsewhere
    (non-monotone data receives no correction).
    """
    uh = np.asarray(uh, dtype=float)
    lin = 1.0 / 3.0 + (5.0 / 6.0) * uh
    w0 = params.eval_weight0(uh)
    low = np.minimum(lin * w0 + 2.0 * uh * (1.0 - w0), 2.0 * uh)
    w1 = params.eval_weight1(uh)
    bound = params.lambda1 * uh - params.lambda1 + 1.0
    high = np.minimum(lin * w1 + bound * (1.0 - w1), bound)
    out = np.where((uh > 0.0) & (uh <= 0.5), low, uh)
    out = np.where((uh > 0.5) & (uh <= 1.0), high, out)
    return out


def _muscl_one_side(center, slope_src, ratio_num, limiter, sign):
    """Face value ``center + sign * psi(ratio)/2 * slope_src`` with guard."""
    safe = np.abs(slope_src) >= ZERO_SLOPE_GUARD
    den = np.where(safe, slope_src, 1.0)
    r = np.where(safe, ratio_num / den, 0.0)
    val = center + sign * 0.5 * limiter_value(limiter, r) * slope_src
    return np.where(safe, val, center)


def _round_one_side(upwind, center, downwind, params):
    """Normalized-variable face value from the (upwind, center, downwind) triple."""
    den_raw = downwind - upwind
    safe = np.abs(den_raw) >= ZERO_SLOPE_GUARD
    den = np.where(safe, den_raw, 1.0)
    uh = np.where(safe, (center - upwind) / den, 0.0)
    val = upwind + round_face_value(uh, params) * den_raw
    return np.where(safe, val, center)


def _reconstruct_values(u0, u1, u2, u3, scheme: ReconstructionScheme):
    if scheme.kind == "first_order":
        return u1.copy(), u2.copy()
    if scheme.kind == "muscl":
        left = _muscl_one_side(u1, u1 - u0, u2 - u1, scheme.limiter, +1.0)
        right = _muscl_one_side(u2, u3 - u2, u2 - u1, scheme.limiter, -1.0)
        return left, right
    left = _round_one_side(u0, u1, u2, scheme.round_params)
    right = _round_one_side(u3, u2, u1, scheme.round_params)
    return left, right


def reconstruct_pair(
    u0: np.ndarray,
    u1: np.ndarray,
    u2: np.ndarray,
    u3: np.ndarray,
    scheme: ReconstructionScheme,
    gas: GasModel,
    fallback_flags: np.ndarray | None = None,
):
    """Left/right face states from the four-cell stencil ``u0..u3``.

    The face sits between cells ``u1`` and ``u2``.  Inputs are conservative
    ``(..., 4)`` arrays; with ``scheme.variables == 'primitive'`` the stencil
    is converted, reconstructed componentwise, and converted back.

    When ``scheme.positivity_fallback`` is set, face states with non-positive
    density or pressure revert to the first-order value of their side; if
    ``fallback_flags`` (bool array over faces) is supplied, affected faces
    are marked in place.
    """
    u0, u1, u2, u3 = (np.asarray(a, dtype=float) for a in (u0, u1, u2, u3))
    if scheme.kind == "first_order":
        return u1.copy(), u2.copy()

    if scheme.variables == "primitive":
        w0, w1, w2, w3 = (cons_to_prim(a, gas) for a in (u0, u1, u2, u3))
        left_w, right_w = _reconstruct_values(w0, w1, w2, w3, scheme)
        left = prim_to_cons(left_w, gas)
        right = prim_to_cons(right_w, gas)
    else:
        left, right = _reconstruct_values(u0, u1, u2, u3, scheme)

    if scheme.positivity_fallback:
        bad_left = ~is_physical_prim(cons_to_prim(left, gas))
        bad_right = ~is_physical_prim(cons_to_prim(right, gas))
        if np.any(bad_left):
            left = np.where(bad_left[..., None], u1, left)
        if np.any(bad_right):
            right = np.where(bad_right[..., None], u2, right)
        if fallback_flags is not None:
            fallback_flags |= bad_left | bad_right
    return left, right


def _near(values: np.ndarray, points, tol: float) -> np.ndarray:
    hit = np.zeros(values.shape, dtype=bool)
    for p in points:
        hit |= np.abs(values - p) <= tol * (1.0 + np.abs(values))
    return hit


def reconstruction_kink_flags(
    u0: np.ndarray,
    u1: np.ndarray,
    u2: np.ndarray,
    u3: np.ndarray,
    scheme: ReconstructionScheme,
    gas: GasModel,
    small_slope_tol: float = 1.0e-4,
    kink_tol: float = 1.0e-5,
) -> np.ndarray:
    """Mark faces where the reconstruction is (nearly) non-differentiable.

    A finite-difference linearization through the reconstruction is
    unreliable wherever the base flow sits at or near a branch switch: the
    zero-variation guard, a limiter kink, a normalized-variable branch
    boundary, or a tie between the two arguments of a ``min``.  Returns a
    boolean array over faces (any component flags the face).

    ``small_slope_tol`` is relative to the largest stencil magnitude of the
    component; ``kink_tol`` is relative to the local ratio scale.
    """
    u0, u1, u2, u3 = (np.asarray(a, dtype=float) for a in (u0, u1, u2, u3))
    if scheme.kind == "first_order":
        return np.zeros(u0.shape[:-1], dtype=bool)
    if scheme.variables == "primitive":
        u0, u1, u2, u3 = (cons_to_prim(a, gas) for a in (u0, u1, u2, u3))

    scale = np.maximum.reduce([np.abs(u0), np.abs(u1), np.abs(u2), np.abs(u3)]) + 1.0e-300
    flags = np.zeros(u0.shape, dtype=bool)

    # An exactly zero variation is branch-stable: probes of either sign land
    # in consistent branches (every limiter vanishes for r <= 0 and the guard
    # pins the face to the cell value), so only a *small but nonzero*
    # denominator - where a state probe swings the ratio across the whole
    # branch structure - is fragile.
    if scheme.kind == "muscl":
        kinks = _LIMITER_KINKS[scheme.limiter]
        for den_raw, num in (((u1 - u0), (u2 - u1)), ((u3 - u2), (u2 - u1))):
            zero = den_raw == 0.0
            tiny = ~zero & (np.abs(den_raw) <= small_slope_tol * scale)
            regular = ~zero & ~tiny
            r = num / np.where(regular, den_raw, 1.0)
            flags |= tiny | (regular & _near(r, kinks, kink_tol))
    else:
        params = scheme.round_params
        for up, ce, dn in ((u0, u1, u2), (u3, u2, u1)):
            den_raw = dn - up
            zero = den_raw == 0.0
            tiny = ~zero & (np.abs(den_raw) <= small_slope_tol * scale)
            regular = ~zero & ~tiny
            uh = (ce - up) / np.where(regular, den_raw, 1.0)
            flags |= tiny | (regular & _near(uh, (0.0, 0.5, 1.0), kink_tol))
            lin = 1.0 / 3.0 + (5.0 / 6.0) * uh
            w0 = params.eval_weight0(uh)
            a_low = lin * w0 + 2.0 * uh * (1.0 - w0)
            w1 = params.eval_weight1(uh)
            bound = params.lambda1 * uh - params.lambda1 + 1.0
            a_high = lin * w1 + bound * (1.0 - w1)
            tie_low = np.abs(a_low - 2.0 * uh) <= kink_tol * (1.0 + np.abs(a_low) + np.abs(uh))
            tie_high = np.abs(a_high - bound) <= kink_tol * (1.0 + np.abs(a_high) + np.abs(bound))
            flags |= regular & (
                ((uh > 0.0) & (uh <= 0.5) & tie_low) | ((uh > 0.5) & (uh <= 1.0) & tie_high)
            )

    return np.any(flags, axis=-1)


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
    """Face-frame view of one side's state: scalars rho, qn, qt, p, E, a, H."""

    __slots__ = ("rho", "qn", "qt", "p", "E", "a", "H", "cons")

    def __init__(self, cons: np.ndarray, nx: np.ndarray, ny: np.ndarray, gas: GasModel):
        rho = cons[..., 0]
        u = cons[..., 1] / rho
        v = cons[..., 2] / rho
        E = cons[..., 3]
        p = (gas.gamma - 1.0) * (E - 0.5 * rho * (u * u + v * v))
        self.rho = rho
        self.qn = u * nx + v * ny
        self.qt = -u * ny + v * nx
        self.p = p
        self.E = E
        self.a = np.sqrt(gas.gamma * p / rho)
        self.H = (E + p) / rho
        # Face-frame conservative state (rho, rho qn, rho qt, E).
        self.cons = np.stack((rho, rho * self.qn, rho * self.qt, E), axis=-1)

    def flux(self) -> np.ndarray:
        """Face-frame flux (mass, normal momentum, tangential momentum, energy)."""
        m = self.rho * self.qn
        return np.stack((m, m * self.qn + self.p, m * self.qt, (self.E + self.p) * self.qn), axis=-1)


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
    if np.any(a2 <= 0.0):
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
    k1 = np.stack((one, qn - a, qt, H - qn * a), axis=-1)
    k2 = np.stack((one, qn, qt, 0.5 * (qn * qn + qt * qt)), axis=-1)
    k3 = np.stack((zero, zero, one, qt), axis=-1)
    k4 = np.stack((one, qn + a, qt, H + qn * a), axis=-1)
    return (alpha1, alpha2, alpha3, alpha4), (k1, k2, k3, k4)


def _flux_roe(L: _FaceSide, R: _FaceSide, gas: GasModel) -> np.ndarray:
    qn, qt, H, a, rho_avg = _roe_average(L, R, gas)
    alphas, ks = _wave_decomposition(L, R, qn, qt, H, a, rho_avg)
    lams = (np.abs(qn - a), np.abs(qn), np.abs(qn), np.abs(qn + a))
    diss = sum((lam * al)[..., None] * k for lam, al, k in zip(lams, alphas, ks))
    return 0.5 * (L.flux() + R.flux()) - 0.5 * diss


def _davis_speeds(L: _FaceSide, R: _FaceSide):
    sl = np.minimum(L.qn - L.a, R.qn - R.a)
    sr = np.maximum(L.qn + L.a, R.qn + R.a)
    return sl, sr


def _flux_hll(L: _FaceSide, R: _FaceSide, gas: GasModel) -> np.ndarray:
    sl, sr = _davis_speeds(L, R)
    fl, fr = L.flux(), R.flux()
    span = np.where(sr - sl == 0.0, 1.0, sr - sl)
    mid = (sr[..., None] * fl - sl[..., None] * fr + (sl * sr)[..., None] * (R.cons - L.cons)) / span[..., None]
    out = np.where(sl[..., None] >= 0.0, fl, mid)
    return np.where(sr[..., None] <= 0.0, fr, out)


def _flux_hllc(L: _FaceSide, R: _FaceSide, gas: GasModel) -> np.ndarray:
    sl, sr = _davis_speeds(L, R)
    ml = L.rho * (sl - L.qn)
    mr = R.rho * (sr - R.qn)
    den = ml - mr
    den = np.where(den == 0.0, 1.0, den)
    s_star = (R.p - L.p + ml * L.qn - mr * R.qn) / den

    def star_state(S: _FaceSide, s_side):
        factor = S.rho * (s_side - S.qn) / np.where(s_side - s_star == 0.0, 1.0, s_side - s_star)
        energy = S.E / S.rho + (s_star - S.qn) * (s_star + S.p / (S.rho * (s_side - S.qn)))
        one = np.ones_like(s_star)
        return factor[..., None] * np.stack((one, s_star, S.qt, energy), axis=-1)

    fl, fr = L.flux(), R.flux()
    f_star_l = fl + sl[..., None] * (star_state(L, sl) - L.cons)
    f_star_r = fr + sr[..., None] * (star_state(R, sr) - R.cons)
    out = np.where(s_star[..., None] >= 0.0, f_star_l, f_star_r)
    out = np.where(sl[..., None] >= 0.0, fl, out)
    return np.where(sr[..., None] <= 0.0, fr, out)


def _einfeldt_speeds(L: _FaceSide, R: _FaceSide, qn, a):
    bl = np.minimum(np.minimum(L.qn - L.a, qn - a), 0.0)
    br = np.maximum(np.maximum(R.qn + R.a, qn + a), 0.0)
    return bl, br


def _flux_hlle(L: _FaceSide, R: _FaceSide, gas: GasModel) -> np.ndarray:
    qn, qt, H, a, rho_avg = _roe_average(L, R, gas)
    bl, br = _einfeldt_speeds(L, R, qn, a)
    span = br - bl
    span = np.where(span == 0.0, 1.0, span)
    return (
        br[..., None] * L.flux() - bl[..., None] * R.flux() + (bl * br)[..., None] * (R.cons - L.cons)
    ) / span[..., None]


def _flux_hllem(L: _FaceSide, R: _FaceSide, gas: GasModel) -> np.ndarray:
    qn, qt, H, a, rho_avg = _roe_average(L, R, gas)
    bl, br = _einfeldt_speeds(L, R, qn, a)
    span = br - bl
    span = np.where(span == 0.0, 1.0, span)
    alphas, ks = _wave_decomposition(L, R, qn, qt, H, a, rho_avg)
    # Anti-diffusion restores the entropy and shear waves that the two-wave
    # average smears; the amount is throttled by delta near sonic faces.
    delta = a / (a + np.abs(qn))
    linear = alphas[1][..., None] * ks[1] + alphas[2][..., None] * ks[2]
    hll = (
        br[..., None] * L.flux() - bl[..., None] * R.flux() + (bl * br)[..., None] * (R.cons - L.cons)
    ) / span[..., None]
    return hll - (bl * br / span * delta)[..., None] * linear


def _flux_van_leer(L: _FaceSide, R: _FaceSide, gas: GasModel) -> np.ndarray:
    g = gas.gamma

    def split(S: _FaceSide, sign: float) -> np.ndarray:
        m = S.qn / S.a
        f_mass = sign * 0.25 * S.rho * S.a * (m + sign) ** 2
        vel = ((g - 1.0) * S.qn + sign * 2.0 * S.a) / g
        enrg = vel * vel * (g * g / (2.0 * (g * g - 1.0))) + 0.5 * S.qt * S.qt
        split_flux = np.stack((f_mass, f_mass * vel, f_mass * S.qt, f_mass * enrg), axis=-1)
        full = S.flux()
        if sign > 0:
            split_flux = np.where(m[..., None] >= 1.0, full, split_flux)
            return np.where(m[..., None] <= -1.0, 0.0, split_flux)
        split_flux = np.where(m[..., None] <= -1.0, full, split_flux)
        return np.where(m[..., None] >= 1.0, 0.0, split_flux)

    return split(L, +1.0) + split(R, -1.0)


def _mach_split_m4(m: np.ndarray, sign: float, beta: float = 0.125) -> np.ndarray:
    sub = sign * (0.25 * (m + sign) ** 2 + beta * (m * m - 1.0) ** 2)
    sup = 0.5 * (m + sign * np.abs(m))
    return np.where(np.abs(m) >= 1.0, sup, sub)


def _pressure_split_p5(m: np.ndarray, sign: float, alpha: float = 0.1875) -> np.ndarray:
    sub = 0.25 * (m + sign) ** 2 * (2.0 - sign * m) + sign * alpha * m * (m * m - 1.0) ** 2
    sup = 0.5 * (1.0 + sign * np.sign(m))
    return np.where(np.abs(m) >= 1.0, sup, sub)


def _flux_ausm_plus(L: _FaceSide, R: _FaceSide, gas: GasModel) -> np.ndarray:
    g = gas.gamma
    # Interface speed of sound from the critical speed on each side.
    a_crit2_l = 2.0 * (g - 1.0) / (g + 1.0) * L.H
    a_crit2_r = 2.0 * (g - 1.0) / (g + 1.0) * R.H
    a_crit_l = np.sqrt(a_crit2_l)
    a_crit_r = np.sqrt(a_crit2_r)
    a_hat_l = a_crit2_l / np.maximum(a_crit_l, np.abs(L.qn))
    a_hat_r = a_crit2_r / np.maximum(a_crit_r, np.abs(R.qn))
    a_half = np.minimum(a_hat_l, a_hat_r)

    ml = L.qn / a_half
    mr = R.qn / a_half
    m_half = _mach_split_m4(ml, +1.0) + _mach_split_m4(mr, -1.0)
    p_half = _pressure_split_p5(ml, +1.0) * L.p + _pressure_split_p5(mr, -1.0) * R.p

    mdot = a_half * (np.maximum(m_half, 0.0) * L.rho + np.minimum(m_half, 0.0) * R.rho)
    one = np.ones_like(mdot)
    psi_l = np.stack((one, L.qn, L.qt, L.H), axis=-1)
    psi_r = np.stack((one, R.qn, R.qt, R.H), axis=-1)
    conv = 0.5 * (mdot + np.abs(mdot))[..., None] * psi_l + 0.5 * (mdot - np.abs(mdot))[..., None] * psi_r
    zero = np.zeros_like(mdot)
    return conv + np.stack((zero, p_half, zero, zero), axis=-1)


def _flux_slau(L: _FaceSide, R: _FaceSide, gas: GasModel) -> np.ndarray:
    a_bar = 0.5 * (L.a + R.a)
    speed2 = 0.5 * (L.qn * L.qn + L.qt * L.qt + R.qn * R.qn + R.qt * R.qt)
    m_hat = np.minimum(1.0, np.sqrt(speed2) / a_bar)
    chi = (1.0 - m_hat) ** 2

    ml = L.qn / a_bar
    mr = R.qn / a_bar
    g_fac = -np.maximum(np.minimum(ml, 0.0), -1.0) * np.minimum(np.maximum(mr, 0.0), 1.0)
    vn_bar = (L.rho * np.abs(L.qn) + R.rho * np.abs(R.qn)) / (L.rho + R.rho)
    vn_plus = (1.0 - g_fac) * vn_bar + g_fac * np.abs(L.qn)
    vn_minus = (1.0 - g_fac) * vn_bar + g_fac * np.abs(R.qn)
    mdot = 0.5 * (
        L.rho * (L.qn + vn_plus) + R.rho * (R.qn - vn_minus) - (chi / a_bar) * (R.p - L.p)
    )

    beta_p = _pressure_split_p5(ml, +1.0, alpha=0.0)
    beta_m = _pressure_split_p5(mr, -1.0, alpha=0.0)
    p_half = (
        0.5 * (L.p + R.p)
        + 0.5 * (beta_p - beta_m) * (L.p - R.p)
        + (1.0 - chi) * (beta_p + beta_m - 1.0) * 0.5 * (L.p + R.p)
    )

    one = np.ones_like(mdot)
    psi_l = np.stack((one, L.qn, L.qt, L.H), axis=-1)
    psi_r = np.stack((one, R.qn, R.qt, R.H), axis=-1)
    conv = 0.5 * (mdot + np.abs(mdot))[..., None] * psi_l + 0.5 * (mdot - np.abs(mdot))[..., None] * psi_r
    zero = np.zeros_like(mdot)
    return conv + np.stack((zero, p_half, zero, zero), axis=-1)


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


def riemann_flux(
    solver: str,
    left: np.ndarray,
    right: np.ndarray,
    normal: np.ndarray,
    gas: GasModel,
    validate: bool = True,
) -> np.ndarray:
    """Numerical flux of the requested solver for ``(left, right)`` states.

    ``left``/``right`` are conservative ``(..., 4)`` arrays and ``normal``
    a unit-vector ``(..., 2)`` array; all solvers reduce to the exact flux
    when ``left == right``.
    """
    try:
        fn = _SOLVER_TABLE[solver]
    except KeyError:
        raise StateError(f"unknown solver {solver!r}; choose one of {RIEMANN_SOLVERS}") from None
    left = np.asarray(left, dtype=float)
    right = np.asarray(right, dtype=float)
    normal = np.asarray(normal, dtype=float)
    if validate:
        for name, side in (("left", left), ("right", right)):
            ok = is_physical_prim(cons_to_prim(side, gas))
            if not np.all(ok):
                raise StateError(
                    f"{int(np.sum(~ok))} non-physical {name} state(s) passed to solver {solver!r}"
                )
    nx, ny = normal[..., 0], normal[..., 1]
    L = _FaceSide(left, nx, ny, gas)
    R = _FaceSide(right, nx, ny, gas)
    return _unrotate(fn(L, R, gas), nx, ny)
