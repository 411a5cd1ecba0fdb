"""Base-flow generation and time-marching cross-checks of the matrix analysis.

The base flow is a 1-D normal-shock profile, marched to steadiness by
:func:`solve_1d_steady` through the residual module's own i-face residual
for a one-row strip, and projected across the rows of the 2-D grid.

The eigenvalue analysis predicts that a small perturbation evolves like
``exp(S t)``, so its largest real part must match the exponential growth (or
decay) rate observed when the same perturbation is actually marched in time.
Two independent checks are provided: integrating the linear system
``d(deltaU)/dt = S deltaU`` directly, and running the full nonlinear residual
from a randomly perturbed base flow.  Both produce norm histories whose
log-slope is extracted by a saturation-aware least-squares fit.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import EvolutionError, FitError, StateError
from .mesh import GridMetrics, compute_metrics, make_cartesian_grid
from .numerics import ReconstructionScheme, _solver_kernel
from .residual import BoundaryConditionSet, _check_metrics, _march_residual, _residual_map, normal_shock_bcs
from .stability import spectral_radius_upper
from .state import FlowField, GasModel, _physical_state, cons_to_prim, init_normal_shock_rh, sound_speed

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
    "write_residual_history",
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


def local_wave_speed_sums(prim: np.ndarray, metrics: GridMetrics, gas: GasModel) -> np.ndarray:
    """Per-cell sum from primitive states of ``L * (|q_n| + a)`` over all four faces.

    ``prim`` is the ``(ni, nj, 4)`` primitive field, or any primitive
    states that broadcast against the ``(ni, nj)`` cells: the 1-D march
    passes its ``(ni, members, 4)`` members against its ``ni x 1`` strip.
    Uses the cell's own state on every face; this is the standard local
    estimate behind CFL-based time steps.
    """
    a = sound_speed(prim, gas)
    u, v = prim[..., 1], prim[..., 2]
    length, nx, ny = metrics.cell_faces
    terms = length * (np.abs(u * nx + v * ny) + a)
    # Summed face by face in GridMetrics.cell_faces order.
    return terms[0] + terms[1] + terms[2] + terms[3]


def solve_1d_steady(
    ni: int,
    mach: float | Sequence[float],
    epsilon: float | Sequence[float],
    steps: int,
    scheme: ReconstructionScheme,
    solver: str | Sequence[str],
    gas: GasModel = GasModel(),
    cfl: float = 0.5,
    shock_col: int | None | Sequence[int | None] = None,
) -> OneDResult | list[OneDResult | EvolutionError]:
    """March the 1-D normal-shock problem to (near) steadiness.

    The 1-D equations are run on a one-cell-high strip of ``ni`` unit
    squares, periodic in ``j``, through the same reconstruction and flux
    code as the 2-D residual.  The strip's j-faces cancel exactly, so
    :func:`~shockstab.residual._march_residual` fluxes its i-faces alone,
    bitwise as :func:`~shockstab.residual.residual` would on each member's
    own frame.  Forward Euler with per-cell CFL time steps is applied for
    exactly ``steps`` iterations (no early exit); the final residual norm is
    reported so the caller can judge convergence.

    Batch form: any of ``mach``, ``epsilon``, ``solver`` and ``shock_col``
    may be a sequence with one entry per member, and a scalar applies to
    every member.  The members share ``ni``, ``steps``, ``scheme``, ``gas``
    and ``cfl``; they march as one ``(ni, members, 4)`` state, each member
    with its own inflow state, exit pressure and solver.  Every step makes
    one reconstruction and one flux call for all members; only each
    solver's wave model runs per solver, on the contiguous face rows of its
    members (adjacent members with the same solver share a run, so list a
    solver's members together).  Each member's residual history, final
    residual and physical-state check reduce over its own cells only, and
    the arithmetic is elementwise, so every member's result is bit-identical
    to its one-member march.  A member that leaves the physical state space
    drops out, with its solver entry, and the others go on; an error raised
    inside the residual itself (which the end-of-step check keeps from
    arising) ends the whole call.  The batch form returns a list with, per
    member, its :class:`OneDResult` or the :class:`EvolutionError` that
    stopped it; the scalar form (a batch of one) returns the result or
    raises the error.

    ``steps < 1``, a non-finite or non-positive ``cfl``, and sequences of
    different lengths raise :class:`EvolutionError`; an invalid member
    (Mach number, ``epsilon``, ``shock_col`` or an unknown solver, which
    raises :class:`StateError`) raises before any step.
    """
    if steps < 1:
        raise EvolutionError(f"need at least one iteration, got {steps}")
    if not (np.isfinite(cfl) and cfl > 0.0):
        raise EvolutionError(f"cfl must be positive and finite, got {cfl}")
    columns = (mach, epsilon, shock_col, solver)
    sizes = {len(c) for c in columns if np.ndim(c)}
    if len(sizes) > 1 or 0 in sizes:
        raise EvolutionError(f"batch columns must list the same positive number of members, got {sorted(sizes)}")
    count = max(sizes, default=1)
    members = list(zip(*(c if np.ndim(c) else [c] * count for c in columns)))
    solvers = [name for *_, name in members]
    for name in dict.fromkeys(solvers):
        _solver_kernel(name)
    live_solvers = solvers
    metrics = compute_metrics(make_cartesian_grid(ni, 1))
    bcs = [normal_shock_bcs(m, gas) for m, *_ in members]
    inflow = np.stack([bc.left.state for bc in bcs])
    p_exit = np.array([bc.right.pressure for bc in bcs])
    q = np.stack([init_normal_shock_rh(ni, 1, m, e, shock_col=c, gas=gas).q[:, 0] for m, e, c, _ in members], axis=1)
    cfl_volume = cfl * metrics.volume
    history = np.empty((steps, count))
    outcome: list = [None] * count
    live = np.arange(count)
    prim = cons_to_prim(q, gas)
    for step in range(steps):
        res = _march_residual(q, prim, inflow, p_exit, metrics, scheme, live_solvers, gas)
        history[step, live] = np.abs(res).max(axis=(0, 2))
        dt = cfl_volume / local_wave_speed_sums(prim, metrics, gas)
        q += dt[..., None] * res
        # One conversion per step serves this check, the next time step and
        # the next exit ghost.
        prim = cons_to_prim(q, gas)
        physical = _physical_state(prim[..., 0], prim[..., 3]).all(axis=0)
        if not physical.all():
            for k in live[~physical]:
                outcome[k] = EvolutionError(f"1-D march left the physical state space at step {step + 1}")
            live = live[physical]
            if live.size == 0:
                break
            q, prim, inflow, p_exit = q[:, physical], prim[:, physical], inflow[physical], p_exit[physical]
            live_solvers = [solvers[k] for k in live]
    if live.size:
        final = _march_residual(q, prim, inflow, p_exit, metrics, scheme, live_solvers, gas)
        final = np.abs(final).max(axis=(0, 2))
        for pos, k in enumerate(live):
            outcome[k] = OneDResult(q=q[:, pos].copy(), residual_inf=float(final[pos]),
                                    residual_history=history[:, k].copy())
    if sizes:  # the batch form
        return outcome
    if isinstance(outcome[0], EvolutionError):
        raise outcome[0]
    return outcome[0]


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
    upper bound on the spectral radius.  With ``dt`` fixed, one RK4 step of
    a linear system is the matrix polynomial
    ``P = I + dtS (I + dtS/2 (I + dtS/3 (I + dtS/4)))``, formed once by three
    sparse products, so each step is the single matvec ``v = P v``.  ``P``
    is stored dense when that takes no more memory than CSR
    (``8 N**2 <= 12 nnz(P)``) and as CSR otherwise.

    The state is renormalized every step (the accumulated log-norm is exact
    for a linear system), so arbitrarily long growth fits in floating point;
    the series ends early only when the net log-growth leaves ``+-600``.
    After each renormalization, entries below ``exp(-600)`` in magnitude are
    set to exactly zero.  Such an entry of a unit vector cannot change the
    norm in double precision (its square underflows), and to show in the
    log-norm it would first have to outgrow the norm by ``exp(600)``, more
    than the span this series ever records.  Left in place, decaying
    components sink into subnormal numbers, whose arithmetic costs several
    times that of normal numbers on every later step.

    ``steps < 1``, a non-finite or non-positive ``dt`` and a non-finite
    ``delta0`` raise :class:`EvolutionError`.
    """
    if steps < 1:
        raise EvolutionError(f"need at least one step, got {steps}")
    n = matrix.shape[0]
    if delta0 is None:
        delta0 = np.random.default_rng(seed).standard_normal(n)
    v = np.asarray(delta0, dtype=float)
    if v.shape != (n,):
        raise EvolutionError(f"perturbation shape {v.shape} does not match matrix dimension {n}")
    if not np.all(np.isfinite(v)):
        raise EvolutionError("initial perturbation has non-finite entries")
    if dt is None:
        rho = spectral_radius_upper(matrix)
        if rho == 0.0:
            raise EvolutionError("operator is identically zero; nothing to evolve")
        dt = _RK4_REAL_AXIS_LIMIT / rho
    if not (np.isfinite(dt) and dt > 0.0):
        raise EvolutionError(f"time step must be positive and finite, got {dt}")
    nrm = _norm(v)
    if nrm == 0.0:
        raise EvolutionError("initial perturbation is zero")
    step_matrix = _rk4_step_matrix(matrix, dt)
    flush = np.exp(-_LOG_SPAN_LIMIT)
    v = v / nrm
    log0 = float(np.log(nrm))
    logs = [log0]
    shift = 0.0
    diverged = truncated = False
    for _ in range(steps):
        v = step_matrix @ v
        growth = _norm(v)
        if not math.isfinite(growth) or growth == 0.0:
            diverged = True
            break
        shift += float(np.log(growth))
        v /= growth
        v[np.abs(v) < flush] = 0.0
        logs.append(log0 + shift)
        if abs(shift) > _LOG_SPAN_LIMIT:
            truncated = True
            break
    return EvolutionSeries(t=np.arange(len(logs)) * dt, log_norm=np.array(logs), diverged=diverged,
                           truncated=truncated)


def _norm(a: np.ndarray) -> float:
    """2-norm of a real array: the one dot product ``np.linalg.norm`` computes, without its dispatch."""
    flat = a.ravel(order="K")
    return math.sqrt(flat.dot(flat))


def _rk4_step_matrix(matrix, dt: float):
    """``P(dt S)`` of one classical RK4 step, dense or CSR, whichever is smaller."""
    a = sp.csr_matrix(matrix) * dt
    eye = sp.identity(a.shape[0], format="csr")
    p = eye + a @ (eye + (a / 2.0) @ (eye + (a / 3.0) @ (eye + a / 4.0)))
    if 8 * p.shape[0] ** 2 <= 12 * p.nnz:
        return p.toarray()
    return p


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

    Each RK4 stage evaluates the residual through
    :func:`~shockstab.residual._residual_map`, whose frame and stencil maps
    are looked up once per march: the stage forms its few ghost rows and
    gathers its stencils in one take from the cells and those rows, with
    no ghost frame (no :func:`~shockstab.residual.fill_ghosts` or
    :func:`~shockstab.residual.residual` call), bitwise as those two would.
    A step makes four flux calls.

    ``steps < 1``, a non-finite or non-positive ``cfl`` or ``amplitude``,
    and an ``amplitude`` so small that the perturbed state equals the base
    raise :class:`EvolutionError`; metrics of another grid size raise
    :class:`StateError`.  All of these raise before the first step.
    """
    if steps < 1:
        raise EvolutionError(f"need at least one step, got {steps}")
    for name, value in (("cfl", cfl), ("amplitude", amplitude)):
        if not (np.isfinite(value) and value > 0.0):
            raise EvolutionError(f"{name} must be positive and finite, got {value}")
    _check_metrics(base, metrics)
    rng = np.random.default_rng(seed)
    scale = np.linalg.norm(base.q, axis=-1, keepdims=True)
    pert = amplitude * scale * rng.uniform(-1.0, 1.0, size=base.q.shape)
    q_ref = base.q.copy()
    q = base.q + pert
    deviation = _norm(q - q_ref)
    if deviation == 0.0:
        raise EvolutionError(f"initial perturbation is zero: amplitude {amplitude:g} is lost against the base flow")
    rhs = _residual_map(bc, metrics, scheme, solver, gas)

    t = 0.0
    ts = [0.0]
    logs = [float(np.log(deviation))]
    diverged = truncated = False
    for _ in range(steps):
        try:
            prim = cons_to_prim(q, gas)
            if not np.all(_physical_state(prim[..., 0], prim[..., 3])):
                raise StateError("non-physical state")
            dt = cfl * float(np.min(metrics.volume / local_wave_speed_sums(prim, metrics, gas)))
            k1 = rhs(q)
            k2 = rhs(q + 0.5 * dt * k1)
            k3 = rhs(q + 0.5 * dt * k2)
            k4 = rhs(q + dt * k3)
            q = q + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        except StateError:
            diverged = True
            break
        dev = _norm(q - q_ref)
        if not math.isfinite(dev) or dev == 0.0:
            diverged = True
            break
        t += dt
        ts.append(t)
        logs.append(float(np.log(dev)))
        if abs(logs[-1] - logs[0]) > _LOG_SPAN_LIMIT:
            truncated = True
            break
    return EvolutionSeries(t=np.array(ts), log_norm=np.array(logs), diverged=diverged, truncated=truncated)


#: Fewest samples a growth-rate fit may use.
_MIN_FIT_SAMPLES = 10


def fit_growth_rate(t: np.ndarray, log_norms: np.ndarray) -> GrowthRateFit:
    """Exponential rate from a history of ``ln |norm|`` by least squares.

    The series is cut at its first non-finite value.  The fit window is
    then auto-selected in three stages.  First the exponential segment is
    located from smoothed local slopes: the longest contiguous run whose
    slope stays within 30% of the peak sustained slope (in the direction of
    the series' net trend).  This drops the initial dip while stable
    components die out as well as the post-saturation plateau of a
    nonlinear run — the plateau can creep slowly and still be excluded,
    which a fixed head-discard on the raw series cannot guarantee.  Second,
    the first 20% of that run is discarded (mode mixing decays much more
    slowly than it takes the norm to leave the noise floor).  Last, while
    the largest fit residual exceeds 1% of the window's ln-range, the window
    is shrunk by 5% (at least one sample) from whichever end misfits more —
    the head when mode mixing lingers, the tail when the saturation knee
    leaks in — with a floor of 10 samples; hitting the floor raises
    :class:`FitError` with the offending numbers.
    """
    t = np.asarray(t, dtype=float)
    y = np.asarray(log_norms, dtype=float)
    if t.shape != y.shape or t.ndim != 1:
        raise FitError(f"time and norm arrays must be congruent 1-D, got {t.shape} vs {y.shape}")
    good = np.isfinite(y)
    cut = int(np.argmax(~good)) if not np.all(good) else y.size
    t, y = t[:cut], y[:cut]
    n_total = y.size
    if n_total < _MIN_FIT_SAMPLES:
        raise FitError(f"only {n_total} usable samples; need {_MIN_FIT_SAMPLES}")
    width = max(2, n_total // 50)
    slopes = (y[width:] - y[:-width]) / (t[width:] - t[:-width])
    net = y[-1] - y[0]
    if net > 0.0 and np.max(slopes) > 0.0:
        mask = slopes >= 0.3 * np.max(slopes)
    elif net < 0.0 and np.min(slopes) < 0.0:
        mask = slopes <= 0.3 * np.min(slopes)
    else:
        mask = np.ones(slopes.size, dtype=bool)
    edges = np.flatnonzero(np.diff(np.concatenate(([0], mask.astype(np.int8), [0]))))
    run_starts, run_ends = edges[::2], edges[1::2]
    if run_starts.size == 0:
        raise FitError("no samples near the peak exponential slope")
    longest = int(np.argmax(run_ends - run_starts))
    lo = int(run_starts[longest])
    hi = min(int(run_ends[longest]) - 1 + width, n_total - 1)
    lo += int(round(0.2 * (hi - lo + 1)))
    t_win, y_win = t[lo:hi + 1], y[lo:hi + 1]
    if y_win.size < _MIN_FIT_SAMPLES:
        raise FitError(f"only {y_win.size} usable samples after transient removal; need {_MIN_FIT_SAMPLES}")
    while True:
        sigma, intercept = np.polyfit(t_win, y_win, 1)
        resid = y_win - (sigma * t_win + intercept)
        ln_range = float(np.max(y_win) - np.min(y_win))
        max_resid = float(np.max(np.abs(resid)))
        if ln_range > 0.0 and max_resid <= 0.01 * ln_range:
            return GrowthRateFit(
                sigma=float(sigma),
                intercept=float(intercept),
                n_used=y_win.size,
                n_total=n_total,
                max_residual=max_resid,
                ln_range=ln_range,
            )
        drop = max(1, int(round(0.05 * y_win.size)))
        if y_win.size - drop < _MIN_FIT_SAMPLES:
            raise FitError(
                "no clean exponential segment: "
                f"window of {y_win.size} samples has max residual {max_resid:g} "
                f"against ln-range {ln_range:g} (limit 0.01 relative)"
            )
        if abs(resid[0]) >= abs(resid[-1]):
            t_win, y_win = t_win[drop:], y_win[drop:]
        else:
            t_win, y_win = t_win[:-drop], y_win[:-drop]


def dominance_gap(eigenvalues: np.ndarray) -> float:
    """Difference between the two largest distinct real parts of a spectrum.

    Conjugate partners (and real parts within ``1e-9 * max(1, |top|)`` of
    the top one) are merged; a spectrum with a single distinct real part
    has an infinite gap.
    """
    re = np.unique(np.real(np.asarray(eigenvalues)))[::-1]
    top = re[0]
    scale = max(1.0, abs(top))
    for r in re[1:]:
        if top - r > 1.0e-9 * scale:
            return float(top - r)
    return float("inf")


def _write_columns(path, first, second) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(f"{a:.17g} {b:.17g}\n" for a, b in zip(first, second))


def write_series(series: EvolutionSeries, path) -> None:
    """Write a norm history as two-column ``t norm`` text."""
    _write_columns(path, series.t.tolist(), series.norm.tolist())


def write_residual_history(oned: OneDResult, path) -> None:
    """Write a 1-D march's history as two-column ``step residual_inf`` text.

    Line ``k`` (from 0) holds the residual max-norm of the state after ``k``
    steps; the final state's is ``oned.residual_inf``.
    """
    _write_columns(path, range(oned.residual_history.size), oned.residual_history.tolist())
