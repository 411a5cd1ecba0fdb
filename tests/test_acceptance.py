"""Acceptance suite: ten numbered end-to-end checks of the whole pipeline.

Each test prints exactly one summary line (run with ``pytest
tests/test_acceptance.py -v -s`` to watch them as they complete) and pins
both the tolerance and a wall-clock budget.  The checks cover, in order:

 1. identical-state consistency of every Riemann solver,
 2. flux continuity across exact stationary-shock state pairs,
 3. the assembled matrix against central differences of the residual,
 4. the eigenvalue path on oracles with known spectra,
 5. eigenvalue growth rates against linear and nonlinear time marching,
 6. the dissipation contrast between HLL and HLLC on the shock problem,
 7. the structure of the dominant unstable mode,
 8. the grid-resolution trend of the instability,
 9. flow-file input as an exact replacement for the built-in shock setup,
10. bitwise reproducibility of the full command-line analysis.
"""

import time

import numpy as np

from shockstab import GasModel, ReconstructionScheme, cli
from shockstab.harness import dominance_gap, make_base_flow
from shockstab.mesh import compute_metrics, make_annular_grid, make_cartesian_grid, write_grid
from shockstab.numerics import RIEMANN_SOLVERS, physical_flux, riemann_flux
from shockstab.residual import fill_ghosts, normal_shock_bcs, residual
from shockstab.state import (
    FlowField,
    normal_shock_states,
    prim_to_cons,
    write_flow_files,
)
from shockstab.stability import (
    NEUTRAL_TOL,
    assemble,
    eigensolve,
    eigensolve_leading,
    max_real_eigenpair,
    mode_field,
    stability_verdict,
)

GAS = GasModel()
FIRST = ReconstructionScheme(kind="first_order")
MUSCL_VA = ReconstructionScheme(kind="muscl", limiter="van_albada")
ROUND = ReconstructionScheme(kind="round")


def _check(failures: list, ok: bool, message: str) -> None:
    if not ok:
        failures.append(message)


def _report(num: int, label: str, failures: list, detail: str, t0: float, budget: float) -> None:
    elapsed = time.perf_counter() - t0
    if elapsed > budget:
        failures = failures + [f"runtime {elapsed:.1f}s exceeds the {budget:.0f}s budget"]
    status = "PASS" if not failures else "FAIL"
    print(f"[criterion {num:2d}] {status} — {label}: {detail} "
          f"({elapsed:.1f}s; budget {budget:.0f}s)")
    assert not failures, f"criterion {num}: " + "; ".join(failures)


def _summary(outdir) -> dict:
    return dict(
        line.split("=", 1)
        for line in (outdir / "summary.txt").read_text().splitlines()
    )


def test_criterion_01_solver_consistency():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    n = 1000
    prim = np.empty((n, 4))
    prim[:, 0] = rng.uniform(0.1, 5.0, n)
    prim[:, 1] = rng.uniform(-3.0, 3.0, n)
    prim[:, 2] = rng.uniform(-3.0, 3.0, n)
    prim[:, 3] = rng.uniform(0.05, 8.0, n)
    cons = prim_to_cons(prim, GAS)
    theta = rng.uniform(0.0, 2.0 * np.pi, n)
    normals = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    exact = physical_flux(cons, normals, GAS)
    scale = np.maximum(np.abs(exact).max(axis=-1), 1.0)

    failures, worst = [], 0.0
    for solver in RIEMANN_SOLVERS:
        flux = riemann_flux(solver, cons, cons, normals, GAS)
        rel = float((np.abs(flux - exact).max(axis=-1) / scale).max())
        worst = max(worst, rel)
        _check(failures, rel <= 1e-10, f"{solver}: rel err {rel:.2e} > 1e-10")
    _report(1, "identical-state flux consistency", failures,
            f"{len(RIEMANN_SOLVERS)} solvers x {n} random states+normals, "
            f"max rel err {worst:.1e} (tol 1e-10)", t0, 5.0)


def test_criterion_02_stationary_shock_states():
    t0 = time.perf_counter()
    failures, worst = [], 0.0
    nx = np.array([1.0, 0.0])
    for mach in (1.01, 2.0, 3.0, 6.0, 20.0, 30.0):
        up, down = normal_shock_states(mach, GAS)
        f_up = physical_flux(prim_to_cons(up, GAS), nx, GAS)
        f_down = physical_flux(prim_to_cons(down, GAS), nx, GAS)
        rel = float(np.abs(f_up - f_down).max() / max(np.abs(f_up).max(), 1.0))
        worst = max(worst, rel)
        _check(failures, rel <= 1e-12,
               f"M0={mach}: flux jump rel err {rel:.2e} > 1e-12")

    up, down = normal_shock_states(3.0, GAS)
    for got, want, name in (
        (down[0], 27.0 / 7.0, "density ratio"),
        (down[1], 7.0 / 27.0, "velocity ratio"),
        (down[3], up[3] * (31.0 / 3.0), "pressure"),
    ):
        rel = abs(got - want) / abs(want)
        _check(failures, rel <= 1e-12, f"M0=3 {name}: rel err {rel:.2e} > 1e-12")
    _report(2, "stationary-shock jump states", failures,
            f"6 Mach numbers, worst flux-continuity rel err {worst:.1e} (tol 1e-12)",
            t0, 1.0)


def test_criterion_03_matrix_matches_residual():
    t0 = time.perf_counter()
    ni = nj = 11
    metrics = compute_metrics(make_cartesian_grid(ni, nj))
    bc = normal_shock_bcs(20.0, GAS)
    combos = [
        (label, scheme, solver)
        for label, scheme in (("first_order", FIRST),
                              ("muscl/van_albada", MUSCL_VA),
                              ("round", ROUND))
        for solver in ("roe", "hll", "hllc")
    ]

    failures, worst, excluded = [], 0.0, 0
    # Directions are randomly drawn coordinate directions (one cell, one
    # conserved component) with the same step the assembly itself uses.  The
    # limited reconstructions and the HLLC branch select are continuous but
    # not differentiable at the exactly-degenerate configurations that
    # dominate this base (uniform stencils give 0/0 slope ratios; v = 0 puts
    # the contact-wave speed exactly on its sign switch at every transverse
    # face), so a dense random direction measures a direction-dependent
    # one-sided response there that no linear operator can reproduce.
    # Coordinate directions keep both difference quotients on the same
    # branch geometry while still exercising every assembled coupling.
    h = 1.0e-7
    for k, (label, scheme, solver) in enumerate(combos):
        base, _ = make_base_flow(ni, nj, 20.0, 0.1, scheme, solver,
                                 init="rankine_hugoniot", gas=GAS)
        smat = assemble(base, metrics, scheme, solver, bc, GAS)
        excluded += int(smat.kink_iface.sum() + smat.kink_jface.sum()
                        + smat.fallback_iface.sum() + smat.fallback_jface.sum())
        ok_rows = np.repeat(~smat.flagged_cells().T.ravel(), 4)
        _check(failures, bool(ok_rows.any()), f"{label}+{solver}: every row flagged")
        if not ok_rows.any():
            continue

        rng = np.random.default_rng(300 + k)
        combo_worst = 0.0
        for _ in range(20):
            unknown = int(rng.integers(0, smat.n))
            cell, comp = divmod(unknown, 4)
            ci, cj = cell % ni, cell // ni
            d = np.zeros(smat.n)
            d[unknown] = 1.0
            d_cells = np.zeros((ni, nj, 4))
            d_cells[ci, cj, comp] = 1.0
            fp = FlowField(q=base.q + h * d_cells)
            fm = FlowField(q=base.q - h * d_cells)
            rp = residual(fp, fill_ghosts(fp, bc, metrics, GAS), metrics, scheme, solver, GAS)
            rm = residual(fm, fill_ghosts(fm, bc, metrics, GAS), metrics, scheme, solver, GAS)
            fd = (rp - rm) / (2.0 * h)
            fd_flat = fd.transpose(1, 0, 2).ravel()
            sd = smat.matrix @ d
            num = np.abs(sd - fd_flat)[ok_rows].max()
            den = max(np.abs(fd_flat[ok_rows]).max(), 1e-30)
            combo_worst = max(combo_worst, num / den)
        worst = max(worst, combo_worst)
        _check(failures, combo_worst <= 1e-5,
               f"{label}+{solver}: rel err {combo_worst:.2e} > 1e-5")
    _report(3, "matrix vs central differencing", failures,
            f"9 scheme/solver pairs x 20 directions, worst rel err {worst:.1e} "
            f"(tol 1e-5); {excluded} branch-switch faces excluded", t0, 60.0)


def test_criterion_04_eigensolver_oracles():
    t0 = time.perf_counter()
    failures, worst = [], 0.0

    def check_case(name, matrix, expected):
        nonlocal worst
        got = eigensolve(np.asarray(matrix, dtype=float))
        want = np.asarray(sorted(expected, key=lambda z: (-z.real, -z.imag)),
                          dtype=complex)
        err = float(np.abs(got - want).max())
        worst = max(worst, err)
        _check(failures, err <= 1e-10, f"{name}: max |error| {err:.2e} > 1e-10")

    check_case("diagonal", np.diag([-3.0, -1.0, 0.5, 2.0]),
               [2.0, 0.5, -1.0, -3.0])
    check_case("rotation", [[0.0, 1.0], [-1.0, 0.0]], [1.0j, -1.0j])
    check_case("companion", [[6.0, -11.0, 6.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
               [3.0, 2.0, 1.0])

    blocks = np.zeros((8, 8))
    blocks[0:2, 0:2] = [[-0.5, 2.0], [-2.0, -0.5]]
    blocks[2:4, 2:4] = [[0.25, 0.7], [-0.7, 0.25]]
    blocks[4:8, 4:8] = np.diag([-1.0, -3.0, 0.1, 2.0])
    q, _ = np.linalg.qr(np.random.default_rng(404).standard_normal((8, 8)))
    check_case("planted 8x8", q @ blocks @ q.T,
               [complex(-0.5, 2.0), complex(-0.5, -2.0),
                complex(0.25, 0.7), complex(0.25, -0.7),
                -1.0, -3.0, 0.1, 2.0])
    _report(4, "eigensolver on known spectra", failures,
            f"4 oracle matrices, worst eigenvalue error {worst:.1e} (tol 1e-10)",
            t0, 1.0)


def _shock_settings(outdir, solver: str, scheme: str, mach: float = 20.0) -> str:
    lines = [
        "test_case = normal_shock",
        "grid = 11x11",
        f"mach = {mach:g}",
        "epsilon = 0.1",
        f"solver = {solver}",
        f"reconstruction = {scheme}",
        "initialization = oned_projection",
        f"output_dir = {outdir}",
    ]
    if scheme == "muscl":
        lines.insert(6, "limiter = van_albada")
    return "\n".join(lines) + "\n"


def _analyze(solver: str, scheme: str, mach: float = 20.0) -> cli.Analysis:
    """Base, operator and spectrum of the 11x11 normal-shock case at eps = 0.1."""
    return cli.analyze(cli.parse_settings_text(_shock_settings(".", solver, scheme, mach)))


def test_criterion_05_growth_rates_match_time_marching():
    t0 = time.perf_counter()
    failures = []
    gated, worst_lin, worst_nl = 0, 0.0, 0.0
    total = 0
    for mach in (2.0, 3.0, 6.0, 20.0):
        for solver in ("roe", "hllc"):
            for label, reconstruction in (("muscl/van_albada", "muscl"), ("round", "round")):
                total += 1
                analysis = _analyze(solver, reconstruction, mach)
                max_real = float(analysis.spectrum[0].real)
                name = f"M0={mach:g} {solver} {label}"
                if not (max_real > 0.01 and dominance_gap(analysis.spectrum) >= 1e-3):
                    continue  # rate comparison applies to clear instabilities only
                gated += 1
                marches, fit_errors = cli.time_march(analysis)
                sigma_linear, sigma_nonlinear = marches["linear"][1], marches["nonlinear"][1]
                if sigma_linear is None:
                    _check(failures, False,
                           f"{name}: no linear rate ({'; '.join(map(str, fit_errors))})")
                else:
                    rel = abs(sigma_linear - max_real) / max_real
                    worst_lin = max(worst_lin, rel)
                    _check(failures, rel <= 1e-3,
                           f"{name}: linear rate rel err {rel:.2e} > 1e-3")
                if sigma_nonlinear is None:
                    _check(failures, False,
                           f"{name}: no nonlinear rate ({'; '.join(map(str, fit_errors))})")
                else:
                    rel = abs(sigma_nonlinear - max_real) / max_real
                    worst_nl = max(worst_nl, rel)
                    _check(failures, rel <= 0.10,
                           f"{name}: nonlinear rate rel err {rel:.2e} > 0.10")
    _report(5, "growth rates vs time marching", failures,
            f"{gated}/{total} cases above the instability threshold; worst linear "
            f"rel err {worst_lin:.1e} (tol 1e-3), worst nonlinear {worst_nl:.1e} "
            f"(tol 0.1)", t0, 600.0)


def test_criterion_06_solver_dissipation_contrast():
    t0 = time.perf_counter()
    mx = {
        (solver, label): float(_analyze(solver, reconstruction).spectrum[0].real)
        for solver in ("hll", "hllc")
        for label, reconstruction in (("1st", "first_order"), ("2nd", "muscl"))
    }
    failures = []
    # translation of the discrete profile is an exact neutral mode, so the
    # diffusive solver can only be stable up to the roundoff band
    for order in ("1st", "2nd"):
        _check(failures, mx[("hll", order)] <= NEUTRAL_TOL,
               f"hll {order}: max Re {mx[('hll', order)]:.2e} above neutral band")
        _check(failures, stability_verdict(mx[("hll", order)]) == "stable",
               f"hll {order}: verdict not stable")
        _check(failures, mx[("hllc", order)] > NEUTRAL_TOL,
               f"hllc {order}: max Re {mx[('hllc', order)]:.2e} not positive")
        _check(failures, stability_verdict(mx[("hllc", order)]) == "unstable",
               f"hllc {order}: verdict not unstable")
    _check(failures, mx[("hllc", "2nd")] > mx[("hllc", "1st")],
           "hllc: second order did not increase the growth rate")
    _check(failures, mx[("hll", "2nd")] <= mx[("hll", "1st")] + NEUTRAL_TOL,
           "hll: second order left the neutral band")
    _report(6, "HLL/HLLC stability contrast", failures,
            "max Re = " + ", ".join(f"{s} {o}: {mx[(s, o)]:+.2e}"
                                    for s in ("hll", "hllc") for o in ("1st", "2nd")),
            t0, 60.0)


def test_criterion_07_unstable_mode_structure():
    t0 = time.perf_counter()
    ni = nj = 11
    analysis = _analyze("hllc", "muscl")
    pair = max_real_eigenpair(analysis.stab.matrix, analysis.spectrum)
    lam = pair.eigenvalue

    failures = []
    _check(failures, lam.real > 0.0, f"max Re {lam.real:.2e} not positive")
    _check(failures, abs(lam.imag) <= 1e-6 * abs(lam.real),
           f"dominant mode not essentially real: Im {lam.imag:.2e}")

    # column-wise mode amplitude against the base-flow structure
    mode = np.abs(mode_field(pair.vector, ni, nj))
    colmax = mode.max(axis=(1, 2))
    prim = analysis.base_prim
    up, down = normal_shock_states(20.0, GAS)
    dev_up = (np.abs(prim - up) / np.maximum(np.abs(up), 1e-3)).max(axis=(1, 2))
    dev_down = (np.abs(prim - down) / np.maximum(np.abs(down), 1e-3)).max(axis=(1, 2))
    is_up, is_down = dev_up < 1e-2, dev_down < 1e-2
    shock_cols = np.flatnonzero(~(is_up | is_down))
    _check(failures, shock_cols.size > 0, "no shock-structure columns identified")
    _check(failures, int(np.argmax(colmax)) in set(shock_cols.tolist()),
           f"mode peaks in column {int(np.argmax(colmax))}, "
           f"outside the shock structure {shock_cols.tolist()}")
    compared = 0
    for dist in range(2, ni):
        iu, idn = shock_cols.min() - dist, shock_cols.max() + dist
        if iu < 0 or idn >= ni:
            break
        compared += 1
        _check(failures, colmax[idn] > colmax[iu],
               f"distance {dist}: downstream amplitude {colmax[idn]:.2e} "
               f"not above upstream {colmax[iu]:.2e}")
    _check(failures, compared > 0, "no equal-distance column pairs available")
    _check(failures, colmax[is_down].sum() > colmax[is_up].sum(),
           "total downstream amplitude not above upstream")

    reference = 0.19526
    in_window = 0.75 * reference <= lam.real <= 1.25 * reference
    window_note = ("within 25% of the published value "
                   if in_window else
                   "outside 25% of the published value (see REGRESSION.md) ")
    window_note += f"[{lam.real:.5f} vs {reference}]"
    _report(7, "dominant-mode structure", failures,
            f"lambda = {lam.real:+.5e} {lam.imag:+.1e}j, peak column "
            f"{int(np.argmax(colmax))}, {compared} distance pairs ordered; "
            + window_note, t0, 120.0)


def test_criterion_08_resolution_trend():
    t0 = time.perf_counter()
    failures = []
    results = {}
    for ni, nj in ((50, 10), (50, 50)):
        grid = make_cartesian_grid(ni, nj, (0.0, 50.0, 0.0, 50.0))
        metrics = compute_metrics(grid)
        base, _ = make_base_flow(ni, nj, 20.0, 0.1, MUSCL_VA, "hllc",
                                 init="oned_projection", gas=GAS)
        smat = assemble(base, metrics, MUSCL_VA, "hllc",
                        normal_shock_bcs(20.0, GAS), GAS)
        leading = eigensolve_leading(smat.matrix, k=12)
        results[(ni, nj)] = float(leading.real.max())
        if smat.n <= 2400:  # dense cross-check where it is cheap
            dense = float(eigensolve(smat.matrix)[0].real)
            agree = abs(dense - results[(ni, nj)])
            _check(failures, agree <= 1e-8,
                   f"{ni}x{nj}: dense/iterative mismatch {agree:.2e} > 1e-8")
    coarse, fine = results[(50, 10)], results[(50, 50)]
    _check(failures, coarse > 0.0, f"50x10 not unstable: {coarse:.2e}")
    _check(failures, fine > 0.0, f"50x50 not unstable: {fine:.2e}")
    _check(failures, coarse < fine,
           f"refinement did not increase the growth rate: {coarse:.4e} vs {fine:.4e}")
    _report(8, "growth rate vs transverse resolution", failures,
            f"max Re: 50x10 {coarse:+.4e} < 50x50 {fine:+.4e}; "
            "iterative path cross-checked dense on the coarse grid", t0, 1800.0)


def test_criterion_09_flow_file_route(tmp_path):
    t0 = time.perf_counter()
    failures = []

    # curved-wall case end to end: circumferential stream in a quarter annulus
    grid = make_annular_grid(20, 20, 1.0, 2.0, np.deg2rad(90.0))
    write_grid(grid, tmp_path / "ring.grd")
    xc = 0.25 * (grid.x[:-1, :-1] + grid.x[1:, :-1] + grid.x[:-1, 1:] + grid.x[1:, 1:])
    yc = 0.25 * (grid.y[:-1, :-1] + grid.y[1:, :-1] + grid.y[:-1, 1:] + grid.y[1:, 1:])
    theta = np.arctan2(yc, xc)
    prim = np.empty((20, 20, 4))
    prim[..., 0] = 1.0
    prim[..., 1] = -2.0 * np.sin(theta)
    prim[..., 2] = 2.0 * np.cos(theta)
    prim[..., 3] = 1.0 / GAS.gamma
    write_flow_files(FlowField(q=prim_to_cons(prim, GAS)), str(tmp_path / "ring_"), GAS)
    ring_out = tmp_path / "ring_out"
    (tmp_path / "ring.cfg").write_text(
        "test_case = external_flow\n"
        f"grid_file = {tmp_path / 'ring.grd'}\n"
        f"flow_file_prefix = {tmp_path / 'ring_'}\n"
        "bc_left = zero_gradient\nbc_right = zero_gradient\n"
        "bc_bottom = slip_wall\nbc_top = slip_wall\n"
        "solver = hllc\nreconstruction = muscl\nlimiter = van_albada\n"
        f"output_dir = {ring_out}\n",
        encoding="ascii",
    )
    code = cli.main([str(tmp_path / "ring.cfg")])
    _check(failures, code in (0, 1), f"curved-wall run exited with {code}")
    _check(failures, (ring_out / "summary.txt").is_file(), "curved-wall summary missing")
    if (ring_out / "eigenvalues.dat").is_file():
        rows = np.loadtxt(ring_out / "eigenvalues.dat").shape[0]
        _check(failures, rows == 4 * 20 * 20, f"curved-wall spectrum has {rows} rows")
    ring_max = float(_summary(ring_out)["max_re_lambda"]) if code in (0, 1) else np.nan

    # the shock problem driven through flow files must match the built-in
    # route eigenvalue for eigenvalue
    up, down = normal_shock_states(20.0, GAS)
    write_grid(make_cartesian_grid(11, 11), tmp_path / "cart.grd")
    worst = 0.0
    for solver in ("hll", "hllc"):
        for scheme in ("first_order", "muscl"):
            tag = f"{solver}_{scheme}"
            out_a = tmp_path / f"a_{tag}"
            (tmp_path / f"a_{tag}.cfg").write_text(
                _shock_settings(out_a, solver, scheme), encoding="ascii")
            code_a = cli.main([str(tmp_path / f"a_{tag}.cfg")])
            out_b = tmp_path / f"b_{tag}"
            limiter = "limiter = van_albada\n" if scheme == "muscl" else ""
            (tmp_path / f"b_{tag}.cfg").write_text(
                "test_case = external_flow\n"
                f"grid_file = {tmp_path / 'cart.grd'}\n"
                f"flow_file_prefix = {out_a}/flow_\n"
                "bc_left = supersonic_inflow\nbc_right = fixed_pressure_outflow\n"
                "bc_bottom = periodic\nbc_top = periodic\n"
                f"inflow_rho = {up[0]:.17g}\ninflow_u = {up[1]:.17g}\n"
                f"inflow_v = {up[2]:.17g}\ninflow_p = {up[3]:.17g}\n"
                f"exit_pressure = {down[3]:.17g}\n"
                f"solver = {solver}\nreconstruction = {scheme}\n" + limiter
                + f"output_dir = {out_b}\n",
                encoding="ascii",
            )
            code_b = cli.main([str(tmp_path / f"b_{tag}.cfg")])
            _check(failures, code_a == code_b,
                   f"{tag}: exit codes differ ({code_a} vs {code_b})")
            sa, sb = _summary(out_a), _summary(out_b)
            _check(failures, sa["verdict"] == sb["verdict"],
                   f"{tag}: verdicts differ ({sa['verdict']} vs {sb['verdict']})")
            diff = abs(float(sa["max_re_lambda"]) - float(sb["max_re_lambda"]))
            worst = max(worst, diff)
            _check(failures, diff <= 1e-10,
                   f"{tag}: max Re differs by {diff:.2e} > 1e-10")
    _report(9, "flow-file route equivalence", failures,
            f"curved-wall 20x20 run max Re {ring_max:+.3e}; shock case via flow "
            f"files matches the built-in route, worst |diff| {worst:.1e} "
            "(tol 1e-10)", t0, 300.0)


def test_criterion_10_bitwise_reproducibility(tmp_path):
    t0 = time.perf_counter()
    failures = []
    artifacts = ("eigenvalues.dat", "summary.txt", "matrix.dat",
                 "mode_rho.dat", "mode_u.dat", "mode_v.dat", "mode_p.dat",
                 "flow_rho.dat", "flow_u.dat", "flow_v.dat", "flow_p.dat")
    outs = []
    for tag in ("first", "second"):
        out = tmp_path / tag
        cfg = tmp_path / f"{tag}.cfg"
        cfg.write_text(_shock_settings(out, "hllc", "muscl"), encoding="ascii")
        code = cli.main([str(cfg), "--dump-matrix"])
        _check(failures, code == 1, f"{tag} run exited with {code}, expected 1")
        outs.append(out)
    identical = 0
    for name in artifacts:
        if (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes():
            identical += 1
        else:
            _check(failures, False, f"{name} differs between identical runs")
    _report(10, "bitwise reproducibility", failures,
            f"{identical}/{len(artifacts)} artifacts byte-identical across two "
            "full command-line runs (matrix included)", t0, 120.0)
