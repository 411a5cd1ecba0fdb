"""Command-line front end.

``shockstab SETTINGS`` reads a plain-text ``key = value`` settings file,
assembles the linearized operator for the configured case, solves the
eigenvalue problem, writes its artifacts into ``output_dir``, and exits with

* ``0`` — base flow linearly stable (largest real part non-positive, up to
  the numerical-zero band of the neutral shock-translation mode),
* ``1`` — unstable,
* ``2`` — any error (bad settings, malformed files, solver failures).

``shockstab-gridgen`` writes structured grid files for the built-in
generators.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import harness, stability
from .errors import FitError, SettingsError, ShockStabError
from .mesh import Grid, GridMetrics, compute_metrics, make_annular_grid, make_cartesian_grid, read_grid, write_grid
from .numerics import LIMITERS, RECONSTRUCTION_KINDS, RIEMANN_SOLVERS, ReconstructionScheme
from .residual import BC_KINDS, SIDES, BoundaryCondition, BoundaryConditionSet
from .state import (
    FlowField,
    GasModel,
    normal_shock_states,
    perturbation_to_primitive,
    cons_to_prim,
    prim_to_cons,
    read_prim_files,
    write_prim_files,
)

__all__ = ["Settings", "Analysis", "parse_settings", "parse_settings_text", "settings_to_text", "analyze",
           "time_march", "main", "gridgen_main"]

TEST_CASES = ("normal_shock", "external_flow")
INIT_MODES = ("oned_projection", "rankine_hugoniot")
EIG_METHODS = ("dense", "arnoldi")


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


@dataclass(frozen=True)
class Settings:
    """Typed run configuration with every key at its effective value.

    See the README for the full key reference.  ``grid`` is ``"NIxNJ"``
    (Cartesian cells; unit squares unless ``domain`` gives the extents) and
    is mutually exclusive with ``grid_file``.
    """

    test_case: str = "normal_shock"
    grid: str | None = None
    grid_file: str | None = None
    domain: str | None = None  # "x0,x1,y0,y1"
    mach: float | None = None
    epsilon: float | None = None
    shock_col: int | None = None
    initialization: str = "oned_projection"
    flow_file_prefix: str | None = None
    solver: str = "roe"
    reconstruction: str = "muscl"
    limiter: str = "van_albada"
    round_lambda1: float = 0.5
    variables: str = "conservative"
    gamma: float = 1.4
    bc_left: str | None = None
    bc_right: str | None = None
    bc_bottom: str | None = None
    bc_top: str | None = None
    inflow_rho: float | None = None
    inflow_u: float | None = None
    inflow_v: float | None = None
    inflow_p: float | None = None
    exit_pressure: float | None = None
    eig_method: str = "dense"
    eig_cap: int = 12000
    arnoldi_k: int = 12
    seed: int = 20230614
    oned_steps: int = 2000
    oned_cfl: float = 0.5
    validate_linear_steps: int = 20000
    validate_nonlinear_steps: int = 4000
    validate_cfl: float = 0.4
    validate_amplitude: float = 1.0e-8
    sweep_mach: str = "2,3,6,20"
    sweep_solvers: str = "roe,hllc"
    output_dir: str = "."


_FIELD_TYPES = {f.name: f.type for f in fields(Settings)}
KNOWN_KEYS = tuple(f.name for f in fields(Settings))

_INT_KEYS = {"shock_col", "eig_cap", "arnoldi_k", "seed", "oned_steps",
             "validate_linear_steps", "validate_nonlinear_steps"}
_FLOAT_KEYS = {"mach", "epsilon", "round_lambda1", "gamma", "inflow_rho", "inflow_u",
               "inflow_v", "inflow_p", "exit_pressure", "oned_cfl",
               "validate_cfl", "validate_amplitude"}


def _parse_value(key: str, raw: str):
    if key in _INT_KEYS:
        try:
            return int(raw)
        except ValueError:
            raise SettingsError(f"key {key!r} needs an integer, got {raw!r}") from None
    if key in _FLOAT_KEYS:
        try:
            value = float(raw)
        except ValueError:
            raise SettingsError(f"key {key!r} needs a number, got {raw!r}") from None
        if not np.isfinite(value):
            raise SettingsError(f"key {key!r} must be finite, got {raw!r}")
        return value
    return raw


def _check_choice(name: str, value: str, choices) -> None:
    if value not in choices:
        raise SettingsError(f"key {name!r} must be one of {', '.join(choices)}; got {value!r}")


def _positive(name: str, value, strict: bool = True) -> None:
    if value is None:
        return
    if (value <= 0) if strict else (value < 0):
        raise SettingsError(f"key {name!r} must be positive, got {value}")


def parse_grid_spec(spec: str) -> tuple[int, int]:
    parts = spec.lower().split("x")
    if len(parts) != 2:
        raise SettingsError(f"grid must look like 'NIxNJ', got {spec!r}")
    try:
        ni, nj = int(parts[0]), int(parts[1])
    except ValueError:
        raise SettingsError(f"grid must look like 'NIxNJ', got {spec!r}") from None
    if ni < 1 or nj < 1:
        raise SettingsError(f"grid needs at least one cell per direction, got {spec!r}")
    return ni, nj


def parse_domain_spec(spec: str) -> tuple[float, float, float, float]:
    parts = spec.split(",")
    if len(parts) != 4:
        raise SettingsError(f"domain must be 'x0,x1,y0,y1', got {spec!r}")
    try:
        x0, x1, y0, y1 = (float(p) for p in parts)
    except ValueError:
        raise SettingsError(f"domain must be numeric 'x0,x1,y0,y1', got {spec!r}") from None
    if not (x1 > x0 and y1 > y0):
        raise SettingsError(f"domain extents must increase, got {spec!r}")
    return x0, x1, y0, y1


def _validate(settings: Settings) -> Settings:
    s = settings
    _check_choice("test_case", s.test_case, TEST_CASES)
    _check_choice("solver", s.solver, RIEMANN_SOLVERS)
    _check_choice("reconstruction", s.reconstruction, RECONSTRUCTION_KINDS)
    _check_choice("limiter", s.limiter, LIMITERS)
    _check_choice("variables", s.variables, ("conservative", "primitive"))
    _check_choice("initialization", s.initialization, INIT_MODES)
    _check_choice("eig_method", s.eig_method, EIG_METHODS)
    if (s.grid is None) == (s.grid_file is None):
        raise SettingsError("exactly one of 'grid' and 'grid_file' must be set")
    if s.grid is not None:
        parse_grid_spec(s.grid)
    if s.domain is not None:
        if s.grid is None:
            raise SettingsError("'domain' applies only to the inline Cartesian 'grid'")
        parse_domain_spec(s.domain)
    if not s.gamma > 1.0:
        raise SettingsError(f"gamma must exceed 1, got {s.gamma}")
    for name in ("oned_cfl", "validate_cfl", "validate_amplitude", "round_lambda1"):
        _positive(name, getattr(s, name))
    for name in ("eig_cap", "arnoldi_k", "oned_steps", "validate_linear_steps", "validate_nonlinear_steps"):
        _positive(name, getattr(s, name))

    bc_given = {side: getattr(s, f"bc_{side}") for side in SIDES}
    for side, kind in bc_given.items():
        if kind is not None:
            _check_choice(f"bc_{side}", kind, BC_KINDS)

    if s.test_case == "normal_shock":
        if s.mach is None or s.epsilon is None:
            raise SettingsError("normal_shock requires both 'mach' and 'epsilon'")
        if not s.mach > 1.0:
            raise SettingsError(f"normal_shock requires mach > 1, got {s.mach}")
        if not 0.0 <= s.epsilon <= 1.0:
            raise SettingsError(f"epsilon must lie in [0, 1], got {s.epsilon}")
        if s.solver == "roe" and s.epsilon in (0.0, 1.0):
            raise SettingsError(
                "solver 'roe' needs 0 < epsilon < 1: an exact two-state jump is a "
                "stationary wave it preserves, and the analysis is not differentiable there"
            )
        if s.flow_file_prefix is not None:
            raise SettingsError("'flow_file_prefix' applies only to test_case = external_flow")
        defaults = {
            "bc_left": "supersonic_inflow",
            "bc_right": "fixed_pressure_outflow",
            "bc_bottom": "periodic",
            "bc_top": "periodic",
        }
        filled = {k: bc_given[k.removeprefix("bc_")] or v for k, v in defaults.items()}
        s = replace(s, **filled)
    else:
        if s.flow_file_prefix is None:
            raise SettingsError("external_flow requires 'flow_file_prefix'")
        missing = [f"bc_{side}" for side in SIDES if bc_given[side] is None]
        if missing:
            raise SettingsError(f"external_flow requires explicit boundaries; missing {', '.join(missing)}")
        for key in ("mach", "epsilon", "shock_col"):
            if getattr(s, key) is not None:
                raise SettingsError(f"{key!r} applies only to test_case = normal_shock")

    needs_inflow = any(getattr(s, f"bc_{side}") == "supersonic_inflow" for side in SIDES)
    inflow_keys = ("inflow_rho", "inflow_u", "inflow_v", "inflow_p")
    inflow_given = [k for k in inflow_keys if getattr(s, k) is not None]
    if s.test_case == "external_flow" and needs_inflow and len(inflow_given) != 4:
        raise SettingsError("supersonic_inflow boundaries of an external_flow case need all of "
                            "inflow_rho, inflow_u, inflow_v, inflow_p")
    if inflow_given and len(inflow_given) != 4:
        raise SettingsError("give all four inflow_* values or none")
    if s.inflow_rho is not None:
        _positive("inflow_rho", s.inflow_rho)
        _positive("inflow_p", s.inflow_p)
    if s.exit_pressure is not None:
        _positive("exit_pressure", s.exit_pressure)
    if s.test_case == "external_flow":
        if any(getattr(s, f"bc_{side}") == "fixed_pressure_outflow" for side in SIDES) and s.exit_pressure is None:
            raise SettingsError("fixed_pressure_outflow boundaries of an external_flow case need 'exit_pressure'")
    return s


def parse_settings_text(text: str) -> Settings:
    """Parse ``key = value`` lines ('#' starts a comment) into a validated
    :class:`Settings`; unknown and duplicate keys are rejected."""
    values: dict[str, object] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SettingsError(f"settings line {lineno} is not 'key = value': {raw_line.strip()!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in KNOWN_KEYS:
            raise SettingsError(f"unknown settings key {key!r} on line {lineno}")
        if key in values:
            raise SettingsError(f"duplicate settings key {key!r} on line {lineno}")
        if not raw:
            raise SettingsError(f"settings key {key!r} on line {lineno} has no value")
        values[key] = _parse_value(key, raw)
    return _validate(Settings(**values))


def parse_settings(path) -> Settings:
    try:
        text = Path(path).read_text(encoding="ascii")
    except OSError as exc:
        raise SettingsError(f"cannot read settings file {path!r}: {exc}") from exc
    return parse_settings_text(text)


def settings_to_text(settings: Settings) -> str:
    """Canonical echo: every effective key, one per line, in declaration
    order, omitting unset optional keys.  Re-parsing reproduces the object."""
    lines = []
    for f in fields(Settings):
        value = getattr(settings, f.name)
        if value is None:
            continue
        lines.append(f"{f.name} = {_fmt(value)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Run pipeline
# ---------------------------------------------------------------------------


def _build_grid(settings: Settings) -> Grid:
    if settings.grid_file is not None:
        return read_grid(settings.grid_file)
    ni, nj = parse_grid_spec(settings.grid)
    extent = parse_domain_spec(settings.domain) if settings.domain is not None else None
    return make_cartesian_grid(ni, nj, extent)


def _build_scheme(settings: Settings) -> ReconstructionScheme:
    from .numerics import RoundParams

    return ReconstructionScheme(
        kind=settings.reconstruction,
        limiter=settings.limiter,
        round_params=RoundParams(lambda1=settings.round_lambda1),
        variables=settings.variables,
    )


def _build_bcs(settings: Settings, gas: GasModel) -> BoundaryConditionSet:
    if settings.inflow_rho is not None:
        inflow_prim = np.array([settings.inflow_rho, settings.inflow_u, settings.inflow_v, settings.inflow_p])
    elif settings.test_case == "normal_shock":
        inflow_prim = normal_shock_states(settings.mach, gas)[0]
    else:
        inflow_prim = None
    if settings.exit_pressure is not None:
        exit_pressure = settings.exit_pressure
    elif settings.test_case == "normal_shock":
        exit_pressure = float(normal_shock_states(settings.mach, gas)[1][3])
    else:
        exit_pressure = None

    def build(kind: str) -> BoundaryCondition:
        if kind == "supersonic_inflow":
            return BoundaryCondition.supersonic_inflow(prim_to_cons(inflow_prim, gas))
        if kind == "fixed_pressure_outflow":
            return BoundaryCondition.fixed_pressure_outflow(exit_pressure)
        return BoundaryCondition(kind=kind)

    return BoundaryConditionSet(**{side: build(getattr(settings, f"bc_{side}")) for side in SIDES})


def _build_base(settings: Settings, grid: Grid, gas: GasModel, scheme: ReconstructionScheme):
    """Base flow plus its canonical primitive representation.

    The analysis runs on ``prim_to_cons(prim)`` where ``prim`` is exactly
    what the ``flow_*`` artifacts record, so re-running from those files
    reproduces the operator bit for bit (the conservative-to-primitive
    round trip is not the floating-point identity).
    """
    ni, nj = grid.ni_cells, grid.nj_cells
    if settings.test_case == "external_flow":
        prim = read_prim_files(settings.flow_file_prefix, ni, nj)
        return FlowField(q=prim_to_cons(prim, gas)), None, prim
    base, oned = harness.make_base_flow(
        ni, nj, settings.mach, settings.epsilon, scheme, settings.solver,
        init=settings.initialization, gas=gas,
        oned_steps=settings.oned_steps, oned_cfl=settings.oned_cfl,
        shock_col=settings.shock_col,
    )
    prim = cons_to_prim(base.q, gas)
    return FlowField(q=prim_to_cons(prim, gas)), oned, prim


def _write_summary(path, pairs) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for key, value in pairs:
            fh.write(f"{key}={_fmt(value)}\n")


def _write_eigenvalues(path, spectrum: np.ndarray) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for lam in spectrum:
            fh.write(f"{lam.real:.17g} {lam.imag:.17g}\n")


def _write_mode_files(outdir: Path, base: FlowField, vector: np.ndarray, gas: GasModel) -> None:
    mode = stability.mode_field(vector, base.ni, base.nj)
    prim_mode = perturbation_to_primitive(base.q, mode, gas)
    for k, name in enumerate(("rho", "u", "v", "p")):
        with open(outdir / f"mode_{name}.dat", "w", encoding="ascii") as fh:
            for j in range(base.nj):
                for i in range(base.ni):
                    fh.write(f"{prim_mode[i, j, k].real:.17g}\n")


def _scheme_label(settings: Settings) -> str:
    if settings.reconstruction == "muscl":
        return f"muscl/{settings.limiter}"
    return settings.reconstruction


@dataclass
class Analysis:
    """Base flow, linearized operator and spectrum of one settings object.

    ``spectrum`` is sorted by descending real part: the full spectrum for
    ``eig_method = dense``, the leading ``arnoldi_k`` eigenvalues for
    ``arnoldi``.  The analysis runs on ``base``, which is exactly
    ``prim_to_cons(base_prim)``; ``oned`` is the 1-D march behind a projected
    base (``None`` otherwise).
    """

    settings: Settings
    gas: GasModel
    scheme: ReconstructionScheme
    metrics: GridMetrics
    bc: BoundaryConditionSet
    base: FlowField
    base_prim: np.ndarray
    oned: harness.OneDResult | None
    stab: stability.StabilityMatrix
    spectrum: np.ndarray


def analyze(settings: Settings) -> Analysis:
    """Build the base flow, assemble ``S`` and solve for its spectrum.

    Every run mode (single analysis, ``--sweep``, ``--validate``) starts
    here, so each analyses the operator its settings describe.
    """
    gas = GasModel(settings.gamma)
    scheme = _build_scheme(settings)
    grid = _build_grid(settings)
    metrics = compute_metrics(grid)
    bc = _build_bcs(settings, gas)
    base, oned, base_prim = _build_base(settings, grid, gas, scheme)
    stab = stability.assemble(base, metrics, scheme, settings.solver, bc, gas)
    if settings.eig_method == "dense":
        spectrum = stability.eigensolve(stab.matrix, cap=settings.eig_cap)
    else:
        spectrum = stability.eigensolve_leading(stab.matrix, k=settings.arnoldi_k, seed=settings.seed)
    return Analysis(settings, gas, scheme, metrics, bc, base, base_prim, oned, stab, spectrum)


def time_march(analysis: Analysis):
    """Linear and nonlinear time marches of an analysed case, with fitted rates.

    Returns ``({"linear": (series, sigma), "nonlinear": (series, sigma)},
    fit_errors)``.  A rate that cannot be fitted cleanly is ``None``, with
    the reason in ``fit_errors``, rather than aborting the cross-check.
    """
    s = analysis.settings
    runs = {
        "linear": harness.evolve_linear(analysis.stab.matrix, s.validate_linear_steps, seed=s.seed),
        "nonlinear": harness.evolve_nonlinear(
            analysis.base, analysis.bc, analysis.metrics, analysis.scheme, s.solver, analysis.gas,
            steps=s.validate_nonlinear_steps, cfl=s.validate_cfl, amplitude=s.validate_amplitude,
            seed=s.seed,
        ),
    }
    marches, errors = {}, []
    for kind, series in runs.items():
        sigma = None
        try:
            sigma = harness.fit_growth_rate(series.t, series.log_norm, norms_are_log=True).sigma
        except FitError as exc:
            errors.append(f"{kind}: {exc}")
        marches[kind] = (series, sigma)
    return marches, errors


def _sweep_values(settings: Settings):
    try:
        machs = [float(tok) for tok in settings.sweep_mach.split(",") if tok.strip()]
    except ValueError:
        raise SettingsError(f"sweep_mach must be a comma list of numbers, got {settings.sweep_mach!r}") from None
    solvers = [tok.strip() for tok in settings.sweep_solvers.split(",") if tok.strip()]
    for solver in solvers:
        _check_choice("sweep_solvers", solver, RIEMANN_SOLVERS)
    for mach in machs:
        if not mach > 1.0:
            raise SettingsError(f"sweep_mach entries must exceed 1, got {mach}")
    return machs, solvers


def run_sweep(settings: Settings, outdir: Path) -> None:
    """Eigenvalue table over the configured Mach numbers and solvers."""
    if settings.test_case != "normal_shock":
        raise SettingsError("--sweep supports the normal_shock case only")
    # Boundary states follow each entry's Mach number; explicit ones would pin
    # a single Mach number's states across the whole table.
    pinned = [key for key in ("inflow_rho", "inflow_u", "inflow_v", "inflow_p", "exit_pressure")
              if getattr(settings, key) is not None]
    if pinned:
        raise SettingsError(f"--sweep derives the boundary states from each Mach number; "
                            f"remove {', '.join(pinned)}")
    machs, solvers = _sweep_values(settings)
    cases = [_validate(replace(settings, mach=mach, solver=solver)) for solver in solvers for mach in machs]
    with open(outdir / "sweep.dat", "w", encoding="ascii") as fh:
        fh.write("# mach solver scheme max_re_lambda lambda_im gap\n")
        for case in cases:
            spectrum = analyze(case).spectrum
            fh.write(
                f"{case.mach:.17g} {case.solver} {_scheme_label(case)} "
                f"{spectrum[0].real:.17g} {spectrum[0].imag:.17g} {harness.dominance_gap(spectrum):.17g}\n"
            )


def run_validation(analysis: Analysis, outdir: Path) -> None:
    """Time-marching cross-check of an analysed case."""
    s = analysis.settings
    max_real = float(analysis.spectrum[0].real)
    marches, errors = time_march(analysis)
    columns = []
    for kind, (series, sigma) in marches.items():
        sigma = float("nan") if sigma is None else sigma
        columns.append(f"{sigma:.17g} {abs(sigma - max_real) / max(abs(max_real), 1.0e-300):.17g}")
        harness.write_series(series, outdir / f"series_{kind}.dat")
    with open(outdir / "validation.dat", "w", encoding="ascii") as fh:
        fh.write("# mach solver scheme max_re_lambda sigma_linear rel_diff_linear "
                 "sigma_nonlinear rel_diff_nonlinear gap\n")
        fh.write(
            f"{s.mach:.17g} {s.solver} {_scheme_label(s)} {max_real:.17g} {' '.join(columns)} "
            f"{harness.dominance_gap(analysis.spectrum):.17g}\n"
        )
        for err in errors:
            fh.write(f"# {err}\n")


def run_analysis(analysis: Analysis, dump_matrix: bool = False) -> int:
    """Eigenpair, verdict and artifacts of an analysed case; returns the exit code."""
    settings, base, stab, spectrum = analysis.settings, analysis.base, analysis.stab, analysis.spectrum
    outdir = Path(settings.output_dir)
    pair = stability.max_real_eigenpair(stab.matrix, eigenvalues=spectrum, seed=settings.seed)
    verdict = stability.stability_verdict(pair.eigenvalue.real)

    (outdir / "settings_echo.dat").write_text(settings_to_text(settings), encoding="ascii")
    _write_eigenvalues(outdir / "eigenvalues.dat", spectrum)
    _write_mode_files(outdir, base, pair.vector, analysis.gas)
    write_prim_files(analysis.base_prim, str(outdir / "flow_"))
    if dump_matrix:
        stability.write_matrix(stab.matrix, outdir / "matrix.dat")

    pairs = [
        ("test_case", settings.test_case),
        ("ni", base.ni),
        ("nj", base.nj),
        ("unknowns", 4 * base.ni * base.nj),
        ("solver", settings.solver),
        ("reconstruction", settings.reconstruction),
        ("limiter", settings.limiter if settings.reconstruction == "muscl" else "-"),
        ("variables", settings.variables),
        ("gamma", settings.gamma),
        ("eig_method", settings.eig_method),
        ("spectrum_size", len(spectrum)),
        ("max_re_lambda", float(pair.eigenvalue.real)),
        ("lambda_max_im", float(pair.eigenvalue.imag)),
        ("verdict", verdict),
        ("base_residual_inf", stab.base_residual_inf),
        ("eigvec_residual", pair.residual),
        ("kink_faces", int(np.sum(stab.kink_iface) + np.sum(stab.kink_jface))),
        ("fallback_faces", int(np.sum(stab.fallback_iface) + np.sum(stab.fallback_jface))),
    ]
    if settings.test_case == "normal_shock":
        pairs[1:1] = [("mach", settings.mach), ("epsilon", settings.epsilon),
                      ("initialization", settings.initialization)]
    if analysis.oned is not None:
        pairs.append(("oned_residual_inf", analysis.oned.residual_inf))
    _write_summary(outdir / "summary.txt", pairs)

    print(f"max Re(lambda) = {pair.eigenvalue.real:.6e} ({verdict}); artifacts in {outdir}")
    return 0 if verdict == "stable" else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="shockstab",
        description="Matrix stability analysis of shock-capturing finite-volume schemes.",
    )
    parser.add_argument("settings", help="path to the settings file (key = value lines)")
    parser.add_argument("--validate", action="store_true",
                        help="also time-march the case and compare growth rates")
    parser.add_argument("--sweep", action="store_true",
                        help="write an eigenvalue table over sweep_mach x sweep_solvers instead "
                             "of a single analysis")
    parser.add_argument("--dump-matrix", action="store_true",
                        help="write the assembled operator as 'row col value' text")
    args = parser.parse_args(argv)
    try:
        settings = parse_settings(args.settings)
        outdir = Path(settings.output_dir)
        outdir.mkdir(parents=True, exist_ok=True)
        if args.sweep:
            (outdir / "settings_echo.dat").write_text(settings_to_text(settings), encoding="ascii")
            run_sweep(settings, outdir)
            print(f"sweep table written to {outdir / 'sweep.dat'}")
            return 0
        if args.validate and settings.test_case != "normal_shock":
            raise SettingsError("--validate supports the normal_shock case only")
        analysis = analyze(settings)
        code = run_analysis(analysis, dump_matrix=args.dump_matrix)
        if args.validate:
            run_validation(analysis, outdir)
            print(f"validation table written to {outdir / 'validation.dat'}")
        return code
    except (ShockStabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def gridgen_main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="shockstab-gridgen",
        description="Write structured grid files for the built-in generators.",
    )
    sub = parser.add_subparsers(dest="kind", required=True)
    cart = sub.add_parser("cartesian", help="uniform Cartesian grid")
    cart.add_argument("ni", type=int, help="cells in i")
    cart.add_argument("nj", type=int, help="cells in j")
    cart.add_argument("--extent", type=float, nargs=4, metavar=("X0", "X1", "Y0", "Y1"),
                      help="domain extents (default: unit cells at the origin)")
    cart.add_argument("-o", "--output", required=True, help="output grid file")
    ann = sub.add_parser("annular", help="annular sector (radial i, azimuthal j)")
    ann.add_argument("ni", type=int, help="cells in i (radial)")
    ann.add_argument("nj", type=int, help="cells in j (azimuthal)")
    ann.add_argument("--inner", type=float, default=1.0, help="inner radius (default 1)")
    ann.add_argument("--outer", type=float, default=2.0, help="outer radius (default 2)")
    ann.add_argument("--angle-deg", type=float, default=90.0, help="sector angle in degrees (default 90)")
    ann.add_argument("-o", "--output", required=True, help="output grid file")
    args = parser.parse_args(argv)
    try:
        if args.kind == "cartesian":
            grid = make_cartesian_grid(args.ni, args.nj, tuple(args.extent) if args.extent else None)
        else:
            grid = make_annular_grid(args.ni, args.nj, args.inner, args.outer,
                                     np.deg2rad(args.angle_deg))
        write_grid(grid, args.output)
        print(f"wrote {grid.ni_nodes} x {grid.nj_nodes} nodes to {args.output}")
        return 0
    except (ShockStabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
