"""Base-flow generation and time-marching cross-checks of the matrix analysis.

The eigenvalue analysis predicts that a small perturbation evolves like
``exp(S t)``, so its largest real part must match the exponential growth (or
decay) rate observed when the same perturbation is actually marched in time.
Two independent checks are provided: integrating the linear system
``d(deltaU)/dt = S deltaU`` directly, and running the full nonlinear residual
from a randomly perturbed base flow.  Both produce norm histories whose
log-slope is extracted by a saturation-aware least-squares fit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EvolutionError, FitError, StateError
from .mesh import Grid, GridMetrics, compute_metrics
from .numerics import ReconstructionScheme
from .residual import BoundaryConditionSet, fill_ghosts, normal_shock_bcs, residual
from .stability import spectral_radius_upper
from .state import FlowField, GasModel, cons_to_prim, init_normal_shock_rh, is_physical_prim, sound_speed

__all__ = [
    "OneDResult",
    "EvolutionSeries",
    "GrowthRateFit",
    "solve_1d_steady",
    "project_1d_to_2d",
    "make_base_flow",
    "local_wave_speed_sums",
    "evolve_linear",
    "evolve_nonlinear",
    "fit_growth_rate",
    "dominance_gap",
    "write_series",
]

#: Growth beyond e**600 (or decay below e**-600) ends a norm series early;
#: the signal is already many decades long and exp() stays finite.
_LOG_SPAN_LIMIT = 600.0

#: Classical fourth-order Runge-Kutta is stable on the negative real axis up
#: to |lambda| dt = 2.785; keep a margin below that.
_RK4_REAL_AXIS_LIMIT = 2.7


@dataclass
class OneDResult:
    """Converged-as-run 1-D normal-shock profile (``v`` identically zero)."""

    q: np.ndarray  # (ni, 4) conservative
    residual_inf: float
    residual_history: np.ndarray
    grid: Grid


@dataclass
class EvolutionSeries:
    """Perturbation-norm history of a time-marched run."""

    t: np.ndarray
    log_norm: np.ndarray
    diverged: bool = False
    truncated: bool = False

    @property
    def norm(self) -> np.ndarray:
        return np.exp(self.log_norm)


@dataclass
class GrowthRateFit:
    """Least-squares exponential rate of a norm history."""

    sigma: float
    intercept: float
    n_used: int
    n_total: int
    max_residual: float
    ln_range: float


def _strip_grid(ni: int, dx) -> Grid:
    """Unit-height strip of ``ni`` cells with per-cell widths ``dx``."""
    if np.isscalar(dx):
        dx = np.full(ni, float(dx))
    dx = np.asarray(dx, dtype=float)
    if dx.shape != (ni,) or np.any(dx <= 0.0):
        raise StateError(f"need {ni} positive cell widths, got shape {dx.shape}")
    xn = np.concatenate(([0.0], np.cumsum(dx)))
    x = np.repeat(xn[:, None], 2, axis=1)
    y = np.tile(np.array([0.0, 1.0]), (ni + 1, 1))
    return Grid(x=x, y=y)


def local_wave_speed_sums(field: FlowField, metrics: GridMetrics, gas: GasModel) -> np.ndarray:
    """Per-cell sum of ``L * (|q_n| + a)`` over all four faces.

    Uses the cell's own state on every face; this is the standard local
    estimate behind CFL-based time steps.
    """
    prim = cons_to_prim(field.q, gas)
    a = sound_speed(prim, gas)
    u, v = prim[..., 1], prim[..., 2]
    total = np.zeros((field.ni, field.nj))
    for length, normal in (
        (metrics.iface_len[:-1], metrics.iface_normal[:-1]),
        (metrics.iface_len[1:], metrics.iface_normal[1:]),
        (metrics.jface_len[:, :-1], metrics.jface_normal[:, :-1]),
        (metrics.jface_len[:, 1:], metrics.jface_normal[:, 1:]),
    ):
        qn = u * normal[..., 0] + v * normal[..., 1]
        total += length * (np.abs(qn) + a)
    return total


def solve_1d_steady(
    ni: int,
    mach: float,
    epsilon: float,
    steps: int,
    scheme: ReconstructionScheme,
    solver: str,
    gas: GasModel = GasModel(),
    cfl: float = 0.5,
    dx=1.0,
    shock_col: int | None = None,
) -> OneDResult:
    """March the 1-D normal-shock problem to (near) steadiness.

    The 1-D equations are run as a one-cell-high strip of the 2-D residual
    with periodic top/bottom boundaries, whose transverse fluxes cancel
    exactly, so precisely the same scheme/solver code is exercised.  Forward
    Euler with per-cell CFL time steps is applied for exactly ``steps``
    iterations (no early exit); the final residual norm is reported so the
    caller can judge convergence.
    """
    if steps < 1:
        raise EvolutionError(f"need at least one iteration, got {steps}")
    grid = _strip_grid(ni, dx)
    metrics = compute_metrics(grid)
    bc = normal_shock_bcs(mach, gas)
    fld = init_normal_shock_rh(ni, 1, mach, epsilon, shock_col=shock_col, gas=gas)
    history = np.empty(steps)
    for step in range(steps):
        ghosts = fill_ghosts(fld, bc, metrics, gas)
        res = residual(fld, ghosts, metrics, scheme, solver, gas)
        history[step] = np.max(np.abs(res))
        dt = cfl * metrics.volume / local_wave_speed_sums(fld, metrics, gas)
        fld = FlowField(q=fld.q + dt[..., None] * res)
        if not np.all(is_physical_prim(cons_to_prim(fld.q, gas))):
            raise EvolutionError(f"1-D march left the physical state space at step {step + 1}")
    ghosts = fill_ghosts(fld, bc, metrics, gas)
    res = residual(fld, ghosts, metrics, scheme, solver, gas)
    return OneDResult(
        q=fld.q[:, 0, :].copy(),
        residual_inf=float(np.max(np.abs(res))),
        residual_history=history,
        grid=grid,
    )


def project_1d_to_2d(oned: OneDResult | np.ndarray, nj: int) -> FlowField:
    """Replicate a 1-D profile across ``nj`` rows."""
    q1 = oned.q if isinstance(oned, OneDResult) else np.asarray(oned, dtype=float)
    if q1.ndim != 2 or q1.shape[1] != 4:
        raise StateError(f"1-D profile must have shape (ni, 4), got {q1.shape}")
    return FlowField(q=np.repeat(q1[:, None, :], nj, axis=1))


def make_base_flow(
    ni: int,
    nj: int,
    mach: float,
    epsilon: float,
    scheme: ReconstructionScheme,
    solver: str,
    init: str = "oned_projection",
    gas: GasModel = GasModel(),
    oned_steps: int = 2000,
    oned_cfl: float = 0.5,
    shock_col: int | None = None,
):
    """Base flow for the normal-shock problem.

    ``init='rankine_hugoniot'`` uses the exact two-state field with a blended
    shock cell; ``init='oned_projection'`` replicates the time-marched 1-D
    profile (same scheme and solver) across the rows.  Returns
    ``(field, oned_result_or_None)``.
    """
    if init == "rankine_hugoniot":
        return init_normal_shock_rh(ni, nj, mach, epsilon, shock_col=shock_col, gas=gas), None
    if init == "oned_projection":
        oned = solve_1d_steady(
            ni, mach, epsilon, oned_steps, scheme, solver, gas=gas, cfl=oned_cfl, shock_col=shock_col
        )
        return project_1d_to_2d(oned, nj), oned
    raise StateError(f"unknown initialization {init!r}; choose 'rankine_hugoniot' or 'oned_projection'")


def evolve_linear(
    matrix,
    steps: int,
    delta0: np.ndarray | None = None,
    dt: float | None = None,
    seed: int = 20230614,
) -> EvolutionSeries:
    """Integrate ``d(deltaU)/dt = S deltaU`` with classical RK4.

    ``dt`` defaults to the RK4 real-axis limit divided by a deterministic
    upper bound on the spectral radius.  The state is renormalized every step
    (the accumulated log-norm is exact for a linear system), so arbitrarily
    long growth fits in floating point; the series ends early only when the
    net log-growth leaves ``+-600``.
    """
    n = matrix.shape[0]
    if delta0 is None:
        delta0 = np.random.default_rng(seed).standard_normal(n)
    v = np.asarray(delta0, dtype=float)
    if v.shape != (n,):
        raise EvolutionError(f"perturbation shape {v.shape} does not match matrix dimension {n}")
    if dt is None:
        rho = spectral_radius_upper(matrix)
        if rho == 0.0:
            raise EvolutionError("operator is identically zero; nothing to evolve")
        dt = _RK4_REAL_AXIS_LIMIT / rho
    nrm = np.linalg.norm(v)
    if nrm == 0.0:
        raise EvolutionError("initial perturbation is zero")
    v = v / nrm
    log0 = float(np.log(nrm))
    ts = [0.0]
    logs = [log0]
    shift = 0.0
    diverged = truncated = False
    for step in range(steps):
        k1 = matrix @ v
        k2 = matrix @ (v + 0.5 * dt * k1)
        k3 = matrix @ (v + 0.5 * dt * k2)
        k4 = matrix @ (v + dt * k3)
        v = v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        growth = np.linalg.norm(v)
        if not np.isfinite(growth) or growth == 0.0:
            diverged = True
            break
        shift += float(np.log(growth))
        v = v / growth
        ts.append((step + 1) * dt)
        logs.append(log0 + shift)
        if abs(shift) > _LOG_SPAN_LIMIT:
            truncated = True
            break
    return EvolutionSeries(t=np.array(ts), log_norm=np.array(logs), diverged=diverged, truncated=truncated)


def evolve_nonlinear(
    base: FlowField,
    bc: BoundaryConditionSet,
    metrics: GridMetrics,
    scheme: ReconstructionScheme,
    solver: str,
    gas: GasModel,
    steps: int,
    cfl: float = 0.4,
    amplitude: float = 1.0e-8,
    seed: int = 20230614,
) -> EvolutionSeries:
    """March the nonlinear residual from a randomly perturbed base flow.

    The perturbation is uniform in ``[-1, 1]`` per component, scaled by
    ``amplitude`` times the local conservative-state magnitude.  Each RK4
    step uses the global CFL time step of the current state, and the norm
    ``|U(t) - U_base|`` is recorded against the *initial* base flow.  A blow
    up (non-physical or non-finite state) truncates the series and marks it
    diverged — for this analysis that is itself an instability verdict.
    """
    rng = np.random.default_rng(seed)
    scale = np.linalg.norm(base.q, axis=-1, keepdims=True)
    pert = amplitude * scale * rng.uniform(-1.0, 1.0, size=base.q.shape)
    q_ref = base.q.copy()
    q = base.q + pert

    def rhs(state: np.ndarray) -> np.ndarray:
        fld = FlowField(q=state)
        ghosts = fill_ghosts(fld, bc, metrics, gas)
        return residual(fld, ghosts, metrics, scheme, solver, gas)

    t = 0.0
    ts = [0.0]
    logs = [float(np.log(np.linalg.norm(q - q_ref)))]
    diverged = truncated = False
    for _ in range(steps):
        try:
            fld = FlowField(q=q)
            if not np.all(is_physical_prim(cons_to_prim(q, gas))):
                raise StateError("non-physical state")
            dt = cfl * float(np.min(metrics.volume / local_wave_speed_sums(fld, metrics, gas)))
            k1 = rhs(q)
            k2 = rhs(q + 0.5 * dt * k1)
            k3 = rhs(q + 0.5 * dt * k2)
            k4 = rhs(q + dt * k3)
            q = q + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        except StateError:
            diverged = True
            break
        dev = float(np.linalg.norm(q - q_ref))
        if not np.isfinite(dev) or dev == 0.0:
            diverged = True
            break
        t += dt
        ts.append(t)
        logs.append(float(np.log(dev)))
        if abs(logs[-1] - logs[0]) > _LOG_SPAN_LIMIT:
            truncated = True
            break
    return EvolutionSeries(t=np.array(ts), log_norm=np.array(logs), diverged=diverged, truncated=truncated)


def fit_growth_rate(
    t: np.ndarray,
    norms: np.ndarray,
    norms_are_log: bool = False,
    skip_fraction: float = 0.2,
    tail_residual_limit: float = 0.01,
    shrink_step: float = 0.05,
    min_samples: int = 10,
    slope_fraction: float = 0.3,
) -> GrowthRateFit:
    """Exponential rate from a norm history by least squares on ``ln |norm|``.

    The fit window is auto-selected in three stages.  First the exponential
    segment is located from smoothed local slopes: the longest contiguous run
    whose slope stays within ``slope_fraction`` of the peak sustained slope
    (in the direction of the series' net trend).  This drops the initial dip
    while stable components die out as well as the post-saturation plateau of
    a nonlinear run — the plateau can creep slowly and still be excluded,
    which a fixed head-discard on the raw series cannot guarantee.  Second,
    the first ``skip_fraction`` of that run is discarded (mode mixing decays
    much more slowly than it takes the norm to leave the noise floor).  Last,
    while the largest fit residual exceeds ``tail_residual_limit`` times the
    window's ln-range, the window is shrunk by ``shrink_step`` (at least one
    sample) from whichever end misfits more — the head when mode mixing
    lingers, the tail when the saturation knee leaks in — with a floor of
    ``min_samples``; hitting the floor raises :class:`FitError` with the
    offending numbers.
    """
    t = np.asarray(t, dtype=float)
    y = np.asarray(norms, dtype=float)
    if t.shape != y.shape or t.ndim != 1:
        raise FitError(f"time and norm arrays must be congruent 1-D, got {t.shape} vs {y.shape}")
    if not norms_are_log:
        good = np.isfinite(y) & (y > 0.0)
        cut = int(np.argmax(~good)) if not np.all(good) else y.size
        t, y = t[:cut], np.log(y[:cut])
    else:
        good = np.isfinite(y)
        cut = int(np.argmax(~good)) if not np.all(good) else y.size
        t, y = t[:cut], y[:cut]
    n_total = y.size
    if n_total < min_samples:
        raise FitError(f"only {n_total} usable samples; need {min_samples}")
    width = max(2, n_total // 50)
    slopes = (y[width:] - y[:-width]) / (t[width:] - t[:-width])
    net = y[-1] - y[0]
    if net > 0.0 and np.max(slopes) > 0.0:
        mask = slopes >= slope_fraction * np.max(slopes)
    elif net < 0.0 and np.min(slopes) < 0.0:
        mask = slopes <= slope_fraction * np.min(slopes)
    else:
        mask = np.ones(slopes.size, dtype=bool)
    edges = np.flatnonzero(np.diff(np.concatenate(([0], mask.astype(np.int8), [0]))))
    run_starts, run_ends = edges[::2], edges[1::2]
    if run_starts.size == 0:
        raise FitError("no samples near the peak exponential slope")
    longest = int(np.argmax(run_ends - run_starts))
    lo = int(run_starts[longest])
    hi = min(int(run_ends[longest]) - 1 + width, n_total - 1)
    lo += int(round(skip_fraction * (hi - lo + 1)))
    t_win, y_win = t[lo:hi + 1], y[lo:hi + 1]
    if y_win.size < min_samples:
        raise FitError(f"only {y_win.size} usable samples after transient removal; need {min_samples}")
    while True:
        sigma, intercept = np.polyfit(t_win, y_win, 1)
        resid = y_win - (sigma * t_win + intercept)
        ln_range = float(np.max(y_win) - np.min(y_win))
        max_resid = float(np.max(np.abs(resid)))
        if ln_range > 0.0 and max_resid <= tail_residual_limit * ln_range:
            return GrowthRateFit(
                sigma=float(sigma),
                intercept=float(intercept),
                n_used=y_win.size,
                n_total=n_total,
                max_residual=max_resid,
                ln_range=ln_range,
            )
        drop = max(1, int(round(shrink_step * y_win.size)))
        if y_win.size - drop < min_samples:
            raise FitError(
                "no clean exponential segment: "
                f"window of {y_win.size} samples has max residual {max_resid:g} "
                f"against ln-range {ln_range:g} (limit {tail_residual_limit:g} relative)"
            )
        if abs(resid[0]) >= abs(resid[-1]):
            t_win, y_win = t_win[drop:], y_win[drop:]
        else:
            t_win, y_win = t_win[:-drop], y_win[:-drop]


def dominance_gap(eigenvalues: np.ndarray, merge_tol: float = 1.0e-9) -> float:
    """Difference between the two largest distinct real parts of a spectrum.

    Conjugate partners (and numerically coincident real parts) are merged
    within ``merge_tol``; a spectrum with a single distinct real part has an
    infinite gap.
    """
    re = np.unique(np.real(np.asarray(eigenvalues)))[::-1]
    top = re[0]
    scale = max(1.0, abs(top))
    for r in re[1:]:
        if top - r > merge_tol * scale:
            return float(top - r)
    return float("inf")


def write_series(series: EvolutionSeries, path) -> None:
    """Write a norm history as two-column ``t norm`` text."""
    with open(path, "w", encoding="ascii") as fh:
        for t, ln in zip(series.t, series.log_norm):
            fh.write(f"{t:.17g} {np.exp(ln):.17g}\n")
