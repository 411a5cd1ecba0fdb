"""Linearization chain, matrix assembly, and eigenvalue analysis."""

import hashlib
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from scipy.optimize import linear_sum_assignment

from shockstab import EigenSolveError, FlowFileError, LinearizationError, ShockStabError, StateError, cli, stability
from shockstab.mesh import Grid, compute_metrics, make_annular_grid, make_cartesian_grid
from shockstab.numerics import RIEMANN_SOLVERS, ReconstructionScheme
from shockstab.residual import (
    BoundaryCondition,
    BoundaryConditionSet,
    fill_ghosts,
    normal_shock_bcs,
    residual,
)
from shockstab.stability import (
    DENSE_CAP,
    FD_STEP,
    NEUTRAL_TOL,
    _sort_spectrum,
    assemble,
    eigensolve,
    eigensolve_leading,
    flux_jacobians,
    max_real_eigenpair,
    mode_field,
    read_matrix,
    reconstruction_coefficients,
    spectral_radius_upper,
    stability_verdict,
    transverse_blocks,
    write_matrix,
)
from shockstab.state import FlowField, GasModel, cons_to_prim, init_normal_shock_rh, normal_shock_states, prim_to_cons

GAS = GasModel()


def euler_flux_jacobian(cons, normal, gas):
    """Analytic derivative of the directed Euler flux (independent oracle)."""
    g = gas.gamma
    rho, m1, m2, e_tot = cons
    nx, ny = normal
    u, v = m1 / rho, m2 / rho
    q2 = u * u + v * v
    p = (g - 1.0) * (e_tot - 0.5 * rho * q2)
    vn = u * nx + v * ny
    h_tot = (e_tot + p) / rho
    a = np.empty((4, 4))
    a[0] = [0.0, nx, ny, 0.0]
    a[1] = [
        0.5 * (g - 1.0) * q2 * nx - u * vn,
        vn + (2.0 - g) * u * nx,
        u * ny - (g - 1.0) * v * nx,
        (g - 1.0) * nx,
    ]
    a[2] = [
        0.5 * (g - 1.0) * q2 * ny - v * vn,
        v * nx - (g - 1.0) * u * ny,
        vn + (2.0 - g) * v * ny,
        (g - 1.0) * ny,
    ]
    a[3] = [
        (0.5 * (g - 1.0) * q2 - h_tot) * vn,
        h_tot * nx - (g - 1.0) * u * vn,
        h_tot * ny - (g - 1.0) * v * vn,
        g * vn,
    ]
    return a


def smooth_field(ni, nj, seed=0, scale=0.15):
    rng = np.random.default_rng(seed)
    prim = np.empty((ni, nj, 4))
    for c, base in enumerate([1.0, 2.0, 0.1, 0.9]):
        amp = scale * abs(base) if base else scale
        prim[:, :, c] = base + amp * rng.uniform(-1.0, 1.0, (ni, nj))
    return FlowField(q=prim_to_cons(prim, GAS))


def mixed_bcs(mach=2.5):
    up, _ = normal_shock_states(mach, GAS)
    return BoundaryConditionSet(
        left=BoundaryCondition.supersonic_inflow(prim_to_cons(up, GAS)),
        right=BoundaryCondition.fixed_pressure_outflow(0.8),
        bottom=BoundaryCondition.slip_wall(),
        top=BoundaryCondition.zero_gradient(),
    )


def periodic_bcs():
    return BoundaryConditionSet(
        left=BoundaryCondition.periodic(),
        right=BoundaryCondition.periodic(),
        bottom=BoundaryCondition.periodic(),
        top=BoundaryCondition.periodic(),
    )


class TestFluxJacobians:
    @pytest.mark.parametrize("solver", ["roe", "hll", "hllc", "hlle", "hllem",
                                        "van_leer_fvs", "ausm_plus", "slau"])
    def test_consistency_sum_matches_analytic(self, solver):
        # at equal states, d/dU of the numerical flux along the diagonal is
        # the analytic flux Jacobian: JL + JR == A(U, n)
        rng = np.random.default_rng(20)
        for _ in range(5):
            prim = np.array([
                rng.uniform(0.5, 2.0), rng.uniform(-2.0, 2.0),
                rng.uniform(-2.0, 2.0), rng.uniform(0.5, 2.0),
            ])
            theta = rng.uniform(0.0, 2.0 * np.pi)
            normal = np.array([np.cos(theta), np.sin(theta)])
            cons = prim_to_cons(prim, GAS)
            jl, jr = flux_jacobians(solver, cons, cons, normal, GAS)
            exact = euler_flux_jacobian(cons, normal, GAS)
            assert np.max(np.abs(jl + jr - exact)) < 1e-6 * max(1.0, np.max(np.abs(exact)))

    @pytest.mark.parametrize("solver", ["roe", "hllc", "van_leer_fvs"])
    def test_supersonic_downwind_jacobian_vanishes(self, solver):
        # branch-switch solvers give exactly zero; Roe cancels algebraically,
        # leaving differencing roundoff of order eps * |F| / step
        left = prim_to_cons(np.array([1.0, 4.0, 0.2, 0.7]), GAS)
        right = prim_to_cons(np.array([1.1, 3.8, -0.1, 0.8]), GAS)
        jl, jr = flux_jacobians(solver, left, right, np.array([1.0, 0.0]), GAS)
        assert np.max(np.abs(jr)) < 1e-7
        exact = euler_flux_jacobian(left, np.array([1.0, 0.0]), GAS)
        assert np.max(np.abs(jl - exact)) < 1e-6 * np.max(np.abs(exact))

    def test_batched_shapes(self):
        rng = np.random.default_rng(21)
        prim = np.stack([rng.uniform(0.5, 1.5, (3, 2)), rng.uniform(-1, 1, (3, 2)),
                         rng.uniform(-1, 1, (3, 2)), rng.uniform(0.5, 1.5, (3, 2))], axis=-1)
        cons = prim_to_cons(prim, GAS)
        normal = np.tile([0.6, 0.8], (3, 2, 1))
        jl, jr = flux_jacobians("hllc", cons, cons, normal, GAS)
        assert jl.shape == (3, 2, 4, 4)
        assert jr.shape == (3, 2, 4, 4)

    @pytest.mark.parametrize("solver", ["hll", "hllc", "van_leer_fvs", "slau", "roe", "hlle", "hllem"])
    def test_probes_past_zero_pressure_are_a_linearization_error(self, solver):
        # At p = 1e-12 the energy probe -FD_STEP leaves the pressure
        # negative: its sound speed is NaN and so is the differenced column.
        # The Roe-averaged solvers stop earlier, on the probe's negative
        # squared interface sound speed, whose StateError becomes the cause.
        cons = prim_to_cons(np.array([1.0, 0.5, 0.0, 1e-12]), GAS)
        roe_averaged = solver in ("roe", "hlle", "hllem")
        what = ("failed: interface averaging produced a non-positive sound speed" if roe_averaged
                else "produced non-finite entries")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(LinearizationError, match=f"^flux differencing for solver '{solver}' {what}; "
                               "the base flow sits too close to the boundary of the physical state space$") as info:
                flux_jacobians(solver, cons, cons, np.array([1.0, 0.0]), GAS)
        assert isinstance(info.value.__cause__, StateError) == roe_averaged

    def test_ausm_plus_probes_stay_finite_at_tiny_pressure(self):
        # AUSM+ takes its interface sound speed from the enthalpy, which the
        # negative-pressure probe leaves positive: the Jacobians exist.
        cons = prim_to_cons(np.array([1.0, 0.5, 0.0, 1e-12]), GAS)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            jl, jr = flux_jacobians("ausm_plus", cons, cons, np.array([1.0, 0.0]), GAS)
        assert np.all(np.isfinite(jl)) and np.all(np.isfinite(jr))

    def test_unknown_solver_is_a_state_error(self):
        cons = prim_to_cons(np.array([1.0, 0.5, 0.0, 1.0]), GAS)
        with pytest.raises(StateError, match="^unknown solver 'godunov'"):
            flux_jacobians("godunov", cons, cons, np.array([1.0, 0.0]), GAS)

    def test_one_solver_name_only(self):
        # The probes stack on the leading axes, where a per-member solver
        # list would read its members' face rows.
        cons = prim_to_cons(np.tile([1.0, 0.5, 0.0, 1.0], (4, 1)), GAS)
        with pytest.raises(StateError, match="^flux_jacobians takes one solver name, got \\['roe', 'hll'\\]$"):
            flux_jacobians(["roe", "hll"], cons, cons, np.tile([1.0, 0.0], (4, 1)), GAS)


class TestReconstructionCoefficients:
    def test_first_order_pattern(self):
        rng = np.random.default_rng(22)
        stencil = [rng.uniform(0.5, 1.5, (7, 4)) for _ in range(4)]
        al, ar = reconstruction_coefficients(*stencil, ReconstructionScheme(kind="first_order"), GAS)
        eye = np.eye(4)
        assert np.array_equal(al[:, 1], np.tile(eye, (7, 1, 1)))
        assert np.array_equal(ar[:, 2], np.tile(eye, (7, 1, 1)))
        assert not al[:, [0, 2, 3]].any()
        assert not ar[:, [0, 1, 3]].any()

    @pytest.mark.parametrize("kind,limiter", [("muscl", "van_albada"), ("round", None)])
    def test_directional_derivative(self, kind, limiter):
        # the chained coefficients must reproduce a directional derivative of
        # the reconstruction itself
        scheme = ReconstructionScheme(kind=kind, limiter=limiter or "van_albada")
        rng = np.random.default_rng(23)
        stencil = [prim_to_cons(np.array([[1.0 + 0.2 * k, 0.8 + 0.1 * k, 0.05 * k, 1.0 + 0.15 * k]]), GAS)
                   for k in range(4)]
        al, ar = reconstruction_coefficients(*stencil, scheme, GAS)
        d = [rng.uniform(-1.0, 1.0, 4) for _ in range(4)]
        h = 1.0e-6
        from shockstab.numerics import reconstruct_pair

        plus = reconstruct_pair(*[stencil[k] + h * d[k] for k in range(4)], scheme, GAS)
        minus = reconstruct_pair(*[stencil[k] - h * d[k] for k in range(4)], scheme, GAS)
        fd_l = (plus[0] - minus[0]) / (2.0 * h)
        fd_r = (plus[1] - minus[1]) / (2.0 * h)
        lin_l = sum(al[0, k] @ d[k] for k in range(4))
        lin_r = sum(ar[0, k] @ d[k] for k in range(4))
        assert np.max(np.abs(fd_l[0] - lin_l)) < 1e-6
        assert np.max(np.abs(fd_r[0] - lin_r)) < 1e-6

    @pytest.mark.parametrize("cell", [1, 2])
    def test_infinite_face_cell_is_a_linearization_error(self, cell):
        # A finite stencil cannot reach this error: the positivity fallback
        # replaces any non-finite face state by its finite cell value.  An
        # infinite energy in a face cell survives as the fallback, and
        # inf - inf (numpy's invalid-value warning, silenced here) leaves
        # the differenced columns NaN.
        stencil = [prim_to_cons(np.array([1.0, 0.5, 0.0, 1.0]), GAS) for _ in range(4)]
        stencil[cell][3] = np.inf
        with np.errstate(invalid="ignore"):
            with pytest.raises(LinearizationError, match="^reconstruction differencing produced non-finite entries$"):
                reconstruction_coefficients(*stencil, ReconstructionScheme(), GAS)

    def test_fd_map_is_shift_invariant(self):
        scheme = ReconstructionScheme(kind="muscl", limiter="van_albada")
        stencil = [prim_to_cons(np.array([[1.0 + 0.3 * k, 0.5, 0.0, 1.0 + 0.2 * k]]), GAS)
                   for k in range(4)]
        al, ar = reconstruction_coefficients(*stencil, scheme, GAS)
        assert np.allclose(al[0].sum(axis=0), np.eye(4), atol=1e-6)
        assert np.allclose(ar[0].sum(axis=0), np.eye(4), atol=1e-6)


class TestAssemble:
    def full_residual(self, q, bcs, metrics, scheme, solver):
        field = FlowField(q=q)
        ghosts = fill_ghosts(field, bcs, metrics, GAS)
        return residual(field, ghosts, metrics, scheme, solver, GAS)

    @pytest.mark.parametrize("kind,solver,tol", [
        ("first_order", "roe", 1e-6),
        ("muscl", "hllc", 1e-5),
        ("round", "hll", 1e-5),
    ])
    @pytest.mark.parametrize("bc_name", ["mixed", "periodic"])
    def test_matrix_matches_residual_differencing(self, kind, solver, tol, bc_name):
        # replicated/mirrored ghost layers park the normalized variable of the
        # round scheme exactly on its branch boundaries, flagging every
        # boundary face; a larger grid keeps interior rows to compare
        ni, nj = (7, 6) if kind == "round" else (5, 4)
        metrics = compute_metrics(make_cartesian_grid(ni, nj))
        base = smooth_field(ni, nj, seed=24, scale=0.12)
        bcs = mixed_bcs() if bc_name == "mixed" else periodic_bcs()
        scheme = ReconstructionScheme(kind=kind)
        smat = assemble(base, metrics, scheme, solver, bcs, GAS)
        ok_rows = np.repeat(~smat.flagged_cells().T.ravel(), 4)
        assert ok_rows.any()
        rng = np.random.default_rng(25)
        h = 1.0e-6
        for _ in range(3):
            d = rng.uniform(-1.0, 1.0, (ni, nj, 4))
            fd = (
                self.full_residual(base.q + h * d, bcs, metrics, scheme, solver)
                - self.full_residual(base.q - h * d, bcs, metrics, scheme, solver)
            ) / (2.0 * h)
            fd_flat = fd.transpose(1, 0, 2).ravel()  # block row = j*ni + i
            lin = smat.matrix @ d.transpose(1, 0, 2).ravel()
            scale = np.max(np.abs(fd_flat))
            assert np.max(np.abs(lin - fd_flat)[ok_rows]) < tol * scale

    def test_traced_peak_stays_within_six_times_the_matrix(self):
        # at 41x41 the faces span four blocks and the cell rows four; holding
        # every face's linearization and the whole scatter at once peaked at
        # 9.6 times the bytes of S
        n = 41
        base = init_normal_shock_rh(n, n, mach=20.0, epsilon=0.1, gas=GAS)
        args = (base, compute_metrics(make_cartesian_grid(n, n)),
                ReconstructionScheme(kind="muscl", limiter="van_albada"), "hllc", normal_shock_bcs(20.0, GAS), GAS)
        tracemalloc.start()
        try:
            matrix = assemble(*args).matrix
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6 * (matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes)

    def test_rejects_metrics_of_another_size_and_a_one_cell_slip_wall(self):
        scheme = ReconstructionScheme(kind="muscl")
        base = smooth_field(5, 4, seed=24)
        with pytest.raises(StateError, match="^metrics are 5 x 3 but field is 5 x 4$"):
            assemble(base, compute_metrics(make_cartesian_grid(5, 3)), scheme, "hllc", periodic_bcs(), GAS)
        wall = BoundaryCondition.slip_wall()
        walls = BoundaryConditionSet(left=wall, right=wall, bottom=BoundaryCondition.periodic(),
                                     top=BoundaryCondition.periodic())
        with pytest.raises(StateError, match="^slip_wall on the left side needs at least two cells across"):
            assemble(smooth_field(1, 4, seed=24), compute_metrics(make_cartesian_grid(1, 4)), scheme, "hllc",
                     walls, GAS)

    def test_block_row_layout(self):
        # one face's flux depends on its stencil only: perturbing cell (i, j)
        # must leave rows of far-away cells untouched
        ni, nj = 6, 5
        metrics = compute_metrics(make_cartesian_grid(ni, nj))
        base = smooth_field(ni, nj, seed=26)
        smat = assemble(base, metrics, ReconstructionScheme(kind="muscl"), "hllc", periodic_bcs(), GAS)
        coo = smat.matrix.tocoo()
        b_row, b_col = coo.row // 4, coo.col // 4
        ri, rj = b_row % ni, b_row // ni
        ci, cj = b_col % ni, b_col // ni
        di = np.minimum((ri - ci) % ni, (ci - ri) % ni)
        dj = np.minimum((rj - cj) % nj, (cj - rj) % nj)
        assert np.max(di) <= 2
        assert np.max(dj) <= 2
        assert np.all((di == 0) | (dj == 0))  # nine-point cross, no corners

    def test_row_block_count(self):
        ni, nj = 6, 5
        metrics = compute_metrics(make_cartesian_grid(ni, nj))
        base = smooth_field(ni, nj, seed=27)
        smat = assemble(base, metrics, ReconstructionScheme(kind="muscl"), "roe", periodic_bcs(), GAS)
        csr = smat.matrix
        for r in range(csr.shape[0]):
            cols = csr.indices[csr.indptr[r] : csr.indptr[r + 1]]
            assert len(np.unique(cols // 4)) <= 9

    def test_base_residual_recorded(self):
        ni, nj = 5, 3
        metrics = compute_metrics(make_cartesian_grid(ni, nj))
        base = smooth_field(ni, nj, seed=28)
        bcs = periodic_bcs()
        scheme = ReconstructionScheme(kind="first_order")
        smat = assemble(base, metrics, scheme, "roe", bcs, GAS)
        r = self.full_residual(base.q, bcs, metrics, scheme, "roe")
        assert smat.base_residual_inf == pytest.approx(np.max(np.abs(r)), rel=1e-15)
        assert smat.n == 4 * ni * nj
        assert smat.kink_iface.shape == (ni + 1, nj)
        assert smat.fallback_jface.shape == (ni, nj + 1)

    def test_positivity_fallback_reaches_matrix(self):
        # superbee drives the left-state pressure of i-faces 2 and 3 (the
        # right faces of cells 1 and 2) negative; those states revert to
        # the cell values
        cells = np.array([[2.0, 0.1, 0.0, 0.3], [1.0, 0.5, 0.0, 0.375],
                          [0.5, 0.9, 0.0, 0.85], [0.25, 1.3, 0.0, 3.5]])
        metrics = compute_metrics(make_cartesian_grid(4, 1))
        bcs = BoundaryConditionSet(
            left=BoundaryCondition.zero_gradient(),
            right=BoundaryCondition.zero_gradient(),
            bottom=BoundaryCondition.periodic(),
            top=BoundaryCondition.periodic(),
        )
        scheme = ReconstructionScheme(kind="muscl", limiter="superbee")
        smat = assemble(FlowField(q=cells[:, None, :]), metrics, scheme, "hll", bcs, GAS)
        assert smat.fallback_iface[:, 0].tolist() == [False, False, True, True, False]
        assert not smat.fallback_jface.any()

    def test_assembly_is_deterministic(self):
        ni, nj = 5, 4
        metrics = compute_metrics(make_cartesian_grid(ni, nj))
        base = init_normal_shock_rh(ni, nj, mach=3.0, epsilon=0.1, gas=GAS)
        bcs = normal_shock_bcs(3.0, GAS)
        scheme = ReconstructionScheme(kind="muscl", limiter="van_albada")
        a = assemble(base, metrics, scheme, "hllc", bcs, GAS).matrix
        b = assemble(base, metrics, scheme, "hllc", bcs, GAS).matrix
        assert np.array_equal(a.toarray(), b.toarray())

    def test_shift_commutation_for_y_invariant_base(self):
        # periodic top/bottom and a y-invariant base make the operator
        # commute with the one-cell shift in j
        ni, nj = 11, 4
        metrics = compute_metrics(make_cartesian_grid(ni, nj))
        base = init_normal_shock_rh(ni, nj, mach=3.0, epsilon=0.1, gas=GAS)
        bcs = normal_shock_bcs(3.0, GAS)
        smat = assemble(base, metrics, ReconstructionScheme(kind="muscl"), "hllc", bcs, GAS)
        s = smat.matrix
        n = s.shape[0]
        ii, jj = np.meshgrid(np.arange(ni), np.arange(nj), indexing="ij")
        src = (jj * ni + ii).T.ravel()
        dst = (((jj + 1) % nj) * ni + ii).T.ravel()
        rows = (4 * dst[:, None] + np.arange(4)).ravel()
        cols = (4 * src[:, None] + np.arange(4)).ravel()
        perm = sp.coo_matrix((np.ones(n), (rows, cols)), shape=(n, n)).tocsr()
        comm = s @ perm - perm @ s
        s_norm = sp.linalg.norm(s, "fro")
        assert sp.linalg.norm(comm, "fro") <= 1e-9 * s_norm


class TestEigensolve:
    def test_diagonal(self):
        vals = eigensolve(sp.diags([-1.0, 3.5, 0.0, -2.0]).tocsr())
        assert np.allclose(vals, [3.5, 0.0, -1.0, -2.0], atol=1e-14)

    def test_rotation_gives_conjugate_pair(self):
        vals = eigensolve(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert np.allclose(vals, [1j, -1j], atol=1e-10)

    def test_companion_matrix_roots(self):
        # companion form of z^3 - 6 z^2 + 11 z - 6 = (z-1)(z-2)(z-3)
        comp = np.array([[6.0, -11.0, 6.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        vals = eigensolve(comp)
        assert np.allclose(vals, [3.0, 2.0, 1.0], atol=1e-10)

    def planted_matrix(self):
        lam = [(-0.5, 2.0), (0.25, 0.7)]  # complex pairs as 2x2 blocks
        blocks = [np.array([[a, b], [-b, a]]) for a, b in lam]
        blocks.append(np.diag([-1.0, -3.0, 0.1, 2.0]))
        core = sp.block_diag(blocks).toarray()
        rng = np.random.default_rng(29)
        q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        m = q @ core @ q.T
        expected = np.array([2.0, 0.25 + 0.7j, 0.25 - 0.7j, 0.1, -0.5 + 2.0j,
                             -0.5 - 2.0j, -1.0, -3.0])
        return m, expected

    def test_planted_spectrum(self):
        m, expected = self.planted_matrix()
        vals = eigensolve(m)
        assert np.max(np.abs(vals - expected)) < 1e-10

    def test_dense_cap_enforced(self):
        with pytest.raises(EigenSolveError):
            eigensolve(sp.identity(10).tocsr(), cap=5)

    def leading_test_matrix(self, n=300):
        diag = sp.diags(-1.0 - 0.01 * np.arange(n - 2))
        spiral = sp.coo_matrix(np.array([[0.3, 2.0], [-2.0, 0.3]]))
        return sp.block_diag([spiral, diag]).tocsr()

    def test_leading_matches_dense(self):
        m = self.leading_test_matrix()
        lead = eigensolve_leading(m, k=6)
        dense = eigensolve(m)
        assert np.allclose(lead[0], 0.3 + 2.0j, atol=1e-8)
        assert np.allclose(lead[1], 0.3 - 2.0j, atol=1e-8)
        assert np.max(np.abs(lead - dense[:6])) < 1e-8

    def test_leading_is_deterministic(self):
        m = self.leading_test_matrix()
        assert np.array_equal(eigensolve_leading(m, k=4), eigensolve_leading(m, k=4))

    def test_leading_k_bounds(self):
        with pytest.raises(EigenSolveError):
            eigensolve_leading(sp.identity(5).tocsr(), k=4)

    def test_spectral_radius_bound(self):
        m, expected = self.planted_matrix()
        bound = spectral_radius_upper(sp.csr_matrix(m))
        assert bound >= np.max(np.abs(expected)) - 1e-12
        diag = sp.diags([1.0, -4.0, 2.0]).tocsr()
        assert spectral_radius_upper(diag) == pytest.approx(4.0, rel=1e-15)

    def test_max_real_eigenpair(self):
        m, expected = self.planted_matrix()
        csr = sp.csr_matrix(m)
        pair = max_real_eigenpair(csr)
        assert pair.eigenvalue == pytest.approx(2.0, abs=1e-10)
        v = pair.vector
        assert np.abs(v[np.argmax(np.abs(v))] - 1.0) < 1e-14  # pivot-normalized
        # the residual floor is set by the deliberate factorization offset
        # (shift 1e-8) times the vector norm
        assert np.linalg.norm(csr @ v - pair.eigenvalue * v) < 5e-8
        assert pair.residual < 5e-8

    def test_max_real_eigenpair_rejects_a_nan_eigenvector(self):
        # At this scale the Frobenius norm overflows and the iterates turn
        # NaN; a NaN residual is no converged eigenvector, and numpy stays quiet.
        m = np.array([[-3e295, 1e295, 0], [2e295, -5e295, 1e295], [0, 1e295, -4e295]])
        with pytest.raises(EigenSolveError, match="inverse iteration stalled: residual nan"):
            max_real_eigenpair(m)

    def test_max_real_eigenpair_reports_an_exactly_singular_shift(self):
        # Given eigenvalue -1e-8, the offset shift lambda + 1e-8 is exactly 0,
        # and the zero matrix minus 0 * I cannot be factored.
        message = "^inverse-iteration factorization failed: Factor is exactly singular$"
        with pytest.raises(EigenSolveError, match=message):
            max_real_eigenpair(sp.csr_matrix((3, 3)), eigenvalues=np.array([-1e-8]))

    def separated_matrix(self):
        """A 6x6 matrix whose leading eigenvalue (about 2.4) stands well clear of the rest."""
        a = np.random.default_rng(3).standard_normal((6, 6)) - 3.0 * np.eye(6)
        a[0, 0] = 2.0
        return a

    def test_max_real_eigenpair_on_entries_past_the_square_overflow(self):
        # Entries near 1e155 overflow the sum of squares behind |S|_F; the
        # scaled norm keeps the limit finite and the pair is that of the
        # unscaled matrix.  (At 1e200 the iterates' own norms underflow, as
        # the shift's 1e-8 drowns in the eigenvalue's rounding error.)
        a = self.separated_matrix()
        small, large = max_real_eigenpair(a), max_real_eigenpair(1e155 * a)
        assert large.eigenvalue / 1e155 == pytest.approx(small.eigenvalue, rel=1e-12)
        assert np.allclose(large.vector, small.vector, rtol=0.0, atol=1e-8)
        assert large.residual <= 1e-8 * 1e155 * np.linalg.norm(a)

    def test_max_real_eigenpair_detects_a_stall_on_large_entries(self):
        # An eigenvalue off by 1e-3 can never meet the limit; with |S|_F
        # overflowing to inf every finite residual used to pass.
        a = 1e155 * self.separated_matrix()
        lam = eigensolve(a)[0]
        with pytest.raises(EigenSolveError, match="inverse iteration stalled") as info:
            max_real_eigenpair(a, eigenvalues=np.array([lam * (1.0 + 1e-3)]))
        limit = float(str(info.value).rsplit("= ", 1)[1])
        assert limit == pytest.approx(1e-8 * 1e155 * np.linalg.norm(a / 1e155), rel=1e-5)  # printed with %g

    def test_leading_reports_an_arpack_error(self):
        # ARPACK cannot build an Arnoldi factorization here (info -9999).
        m = sp.random(40, 40, density=0.2, random_state=1, format="csr") * 1e300 - 3e300 * sp.identity(40)
        with pytest.raises(EigenSolveError, match="ARPACK error -9999"):
            eigensolve_leading(m, k=4)

    def test_mode_field_layout(self):
        ni, nj = 5, 3
        vec = np.arange(4 * ni * nj, dtype=float)
        mode = mode_field(vec, ni, nj)
        ii, jj = np.meshgrid(np.arange(ni), np.arange(nj), indexing="ij")
        expected = (4 * (jj * ni + ii))[..., None] + np.arange(4)
        assert np.array_equal(mode, expected)
        with pytest.raises(EigenSolveError):
            mode_field(np.zeros(10), ni, nj)

    def test_verdict_band(self):
        assert stability_verdict(-1.0) == "stable"
        assert stability_verdict(0.0) == "stable"
        assert stability_verdict(0.5 * NEUTRAL_TOL) == "stable"
        assert stability_verdict(1e-9) == "unstable"


def block_circulant(blocks, nj):
    """Sparse matrix holding ``blocks[d]`` in block column ``(j + d) mod nj`` of each block row ``j``."""
    m = next(iter(blocks.values())).shape[0]
    j = np.arange(nj)[:, None]
    r, c = (a.ravel() for a in np.indices((m, m)))
    rows = np.concatenate([(j * m + r).ravel() for d in blocks])
    cols = np.concatenate([(((j + d) % nj) * m + c).ravel() for d in blocks])
    vals = np.concatenate([np.tile(block.ravel(), nj) for block in blocks.values()])
    return sp.coo_matrix((vals, (rows, cols)), shape=(nj * m, nj * m)).tocsr()


def random_offset_blocks(m, seed, offsets=(0, 1, -1, 2, -2)):
    rng = np.random.default_rng(seed)
    return {d: rng.standard_normal((m, m)) / (1 + abs(d)) for d in offsets}


def matched_distance(a, b):
    """Largest distance from a value of ``a`` to its partner in ``b`` under
    the minimum-cost one-to-one matching."""
    cost = np.abs(np.asarray(a)[:, None] - np.asarray(b)[None, :])
    rows, cols = linear_sum_assignment(cost)
    assert len(rows) == len(a)
    return float(cost[rows, cols].max())


def anchor_analysis(grid):
    """The anchor configuration on ``grid`` with a 500-step 1-D base."""
    return cli.analyze(cli.parse_settings_text(
        f"grid = {grid}\nmach = 20\nepsilon = 0.1\nsolver = hllc\nreconstruction = muscl\n"
        "limiter = van_albada\noned_steps = 500\n"))


@pytest.fixture(scope="module")
def anchor_11():
    return anchor_analysis("11x11")


def normal_shock_matrix(ni=7, nj=4, bcs=None, base=None):
    metrics = compute_metrics(make_cartesian_grid(ni, nj))
    base = init_normal_shock_rh(ni, nj, mach=3.0, epsilon=0.3, gas=GAS) if base is None else base
    bcs = normal_shock_bcs(3.0, GAS) if bcs is None else bcs
    return assemble(base, metrics, ReconstructionScheme(kind="muscl"), "hllc", bcs, GAS).matrix


class TestTransverseSplit:
    @pytest.mark.parametrize("nj", [1, 2, 5, 6])
    def test_synthetic_spectrum_equals_dense(self, nj):
        matrix = block_circulant(random_offset_blocks(4, seed=nj), nj)
        split = transverse_blocks(matrix, nj)
        assert split.method == ("dense" if nj == 1 else "transverse_fourier")
        got = eigensolve(split)
        expected = np.linalg.eigvals(matrix.toarray())
        assert got.shape == expected.shape
        assert matched_distance(got, expected) <= 1e-10
        assert np.array_equal(got, eigensolve(matrix, nj=nj))

    @pytest.mark.parametrize("rel,splits", [(1e-15, True), (1e-11, False)])
    def test_block_rows_equal_to_1e13_of_max_entry(self, rel, splits):
        m, nj = 4, 5
        matrix = block_circulant(random_offset_blocks(m, seed=8), nj)
        matrix.data[matrix.indptr[2 * m]] += rel * np.max(np.abs(matrix.data))  # one entry of block row 2
        assert (transverse_blocks(matrix, nj).nj == nj) is splits

    @pytest.mark.parametrize("grid", ["11x11", "21x21"])
    def test_anchor_split_matches_plain_solve(self, grid, anchor_11):
        analysis = anchor_11 if grid == "11x11" else anchor_analysis(grid)
        nj = analysis.stab.nj
        assert analysis.eig_method_used == "transverse_fourier"
        assert transverse_blocks(analysis.stab.matrix, nj).offsets == (0, 1, 2, -2, -1)
        split, plain = analysis.spectrum, eigensolve(analysis.stab.matrix)
        assert split.shape == plain.shape
        # the deep left half-plane holds highly non-normal clusters that
        # neither route resolves to roundoff
        band = 1e-6
        assert matched_distance(plain[plain.real > -0.1], split[split.real > -0.1 - band]) <= 1e-10
        assert matched_distance(split[split.real > -0.1], plain[plain.real > -0.1 - band]) <= 1e-10

    def test_anchor_arnoldi_matches_split(self, anchor_11):
        leading = eigensolve_leading(anchor_11.stab.matrix, k=12)
        split = anchor_11.spectrum
        assert matched_distance(leading[leading.real > -0.1], split[split.real > -0.1 - 1e-6]) <= 1e-10

    def full_ring_matrix(self):
        # rotationally symmetric, but the velocity components are Cartesian
        ni, nj = 4, 8
        grid = make_annular_grid(ni, nj, 1.0, 2.0, 2.0 * np.pi)
        xc = 0.25 * (grid.x[:-1, :-1] + grid.x[1:, :-1] + grid.x[:-1, 1:] + grid.x[1:, 1:])
        yc = 0.25 * (grid.y[:-1, :-1] + grid.y[1:, :-1] + grid.y[:-1, 1:] + grid.y[1:, 1:])
        theta = np.arctan2(yc, xc)
        prim = np.stack([np.ones_like(theta), -2.0 * np.sin(theta), 2.0 * np.cos(theta),
                         np.full_like(theta, 1.0 / GAS.gamma)], axis=-1)
        bcs = BoundaryConditionSet(
            left=BoundaryCondition.zero_gradient(), right=BoundaryCondition.zero_gradient(),
            bottom=BoundaryCondition.periodic(), top=BoundaryCondition.periodic(),
        )
        smat = assemble(FlowField(q=prim_to_cons(prim, GAS)), compute_metrics(grid),
                        ReconstructionScheme(kind="muscl"), "hllc", bcs, GAS)
        return smat.matrix, nj

    def slip_top_matrix(self):
        # periodic sides come in pairs, so the bottom becomes zero-gradient
        bcs = normal_shock_bcs(3.0, GAS)
        bcs = BoundaryConditionSet(left=bcs.left, right=bcs.right, bottom=BoundaryCondition.zero_gradient(),
                                   top=BoundaryCondition.slip_wall())
        return normal_shock_matrix(bcs=bcs), 4

    def perturbed_row_matrix(self):
        base = init_normal_shock_rh(7, 4, mach=3.0, epsilon=0.3, gas=GAS)
        q = base.q.copy()
        q[:, 2, 0] *= 1.0 + 1e-9
        return normal_shock_matrix(base=FlowField(q=q)), 4

    def dropped_entry_matrix(self):
        coo = normal_shock_matrix().tocoo()
        drop = np.flatnonzero(coo.row == 4 * 7 * 2)[0]  # first row of block row 2
        keep = np.arange(coo.nnz) != drop
        return sp.coo_matrix((coo.data[keep], (coo.row[keep], coo.col[keep])), shape=coo.shape).tocsr(), 4

    def moved_entry_matrix(self):
        # every row keeps its entry count and its values in order; one entry
        # of block row 2 moves from offset +1 to offset +2
        m, nj = 2, 5
        coo = block_circulant(random_offset_blocks(m, seed=4, offsets=(0, 1)), nj).tocoo()
        cols = np.where((coo.row == 2 * m) & (coo.col == 3 * m + 1), 4 * m + 1, coo.col)
        return sp.coo_matrix((coo.data, (coo.row, cols)), shape=coo.shape).tocsr(), nj

    def test_normal_shock_control_splits(self):
        assert transverse_blocks(normal_shock_matrix(), 4).method == "transverse_fourier"

    @pytest.mark.parametrize("case", ["full_ring", "slip_top", "perturbed_row", "dropped_entry", "moved_entry"])
    def test_rejected_matrix_takes_the_plain_solve(self, case):
        matrix, nj = getattr(self, f"{case}_matrix")()
        split = transverse_blocks(matrix, nj)
        assert split.nj == 1 and split.method == "dense"
        expected = _sort_spectrum(np.linalg.eigvals(matrix.toarray()))
        assert np.array_equal(eigensolve(matrix, nj=nj), expected)

    @pytest.mark.parametrize("nj", [6, 7, 9])
    @pytest.mark.parametrize("scheme_name", ["first_order", "muscl_van_albada", "muscl_superbee_prim", "round"])
    def test_strip_blocks_equal_the_full_operators(self, nj, scheme_name):
        # A j-uniform M=20 shock, jittered along i, periodic in j: the
        # five-row strip's blocks and signed offsets are those read from the
        # full S, bit for bit, and so is the spectrum.
        rng = np.random.default_rng(nj)
        prim = cons_to_prim(init_normal_shock_rh(7, 1, 20.0, 0.3, gas=GAS).q, GAS)
        prim = prim * (1.0 + 0.05 * rng.uniform(-1.0, 1.0, prim.shape))
        base = FlowField(q=np.repeat(prim_to_cons(prim, GAS), nj, axis=1))
        metrics = compute_metrics(make_cartesian_grid(7, nj))
        bcs = normal_shock_bcs(20.0, GAS)
        scheme = PINNED_SCHEMES[scheme_name]
        # every scheme's stencil reaches two cells each way in j (zero blocks for first order)
        reach = (0, 1, 2, -2, -1)
        for solver in RIEMANN_SOLVERS:
            full = transverse_blocks(assemble(base, metrics, scheme, solver, bcs, GAS).matrix, nj)
            strip = cli._strip_blocks(base, metrics, scheme, solver, bcs, GAS)
            assert full.offsets == strip.offsets == reach, solver
            assert strip.nj == nj
            for a, b in zip(strip.blocks, full.blocks):
                assert a.tobytes() == b.tobytes(), solver
            assert eigensolve(strip).tobytes() == eigensolve(full).tobytes(), solver

    @pytest.mark.parametrize("nj", [6, 7])
    def test_strip_leaves_errors_to_the_full_operator(self, nj):
        # A j-uniform column of negative energy: the error of S counts its
        # faces, which a strip cannot, so the strip gives way to S.
        q = init_normal_shock_rh(7, nj, 3.0, 0.3, gas=GAS).q.copy()
        q[3, :, 3] = -1.0
        base, metrics, bcs = FlowField(q=q), compute_metrics(make_cartesian_grid(7, nj)), normal_shock_bcs(3.0, GAS)
        scheme = ReconstructionScheme(kind="muscl")
        assert cli._strip_blocks(base, metrics, scheme, "hllc", bcs, GAS) is None
        with pytest.raises(StateError, match=f"^{2 * nj + 1} non-physical left state"):
            assemble(base, metrics, scheme, "hllc", bcs, GAS)

    @pytest.mark.parametrize("nj", [6, 7, 8])
    def test_signed_and_modular_offsets_solve_to_the_same_bytes(self, nj):
        # k * d and k * (d - nj) are the same integer mod nj, so the solve
        # weighs every block alike under either labelling.
        split = transverse_blocks(block_circulant(random_offset_blocks(4, seed=nj + 20), nj), nj)
        assert split.offsets == (0, 1, 2, -2, -1)
        modular = replace(split, offsets=tuple(d % nj for d in split.offsets))
        assert modular.offsets == (0, 1, 2, nj - 2, nj - 1)
        assert eigensolve(split).tobytes() == eigensolve(modular).tobytes()

    def test_cap_applies_to_the_largest_block(self):
        m = 4
        nj = DENSE_CAP // m + 1
        matrix = block_circulant(random_offset_blocks(m, seed=3, offsets=(0, 1, -1)), nj)
        assert matrix.shape[0] > DENSE_CAP
        assert transverse_blocks(matrix, nj).order == 2 * m
        spectrum = eigensolve(matrix, nj=nj)
        assert spectrum.shape == (matrix.shape[0],) and np.all(np.isfinite(spectrum))
        with pytest.raises(EigenSolveError):
            eigensolve(matrix, cap=2 * m - 1, nj=nj)
        broken = matrix.copy()
        broken.data[0] += 1.0
        with pytest.raises(EigenSolveError):
            eigensolve(broken, nj=nj)


class TestUniformFlowSymbol:
    """``S`` about a uniform flow against its closed-form von Neumann symbol.

    Uniform flow at M = 2 in x with v = 0.3 (rho = 1, c = 1) on 8 x 6 unit
    cells, periodic on all four sides, first order.  Every cell then sees
    the same face Jacobians: ``JL``, ``JR`` on the x-faces and ``KL``,
    ``KR`` on the y-faces.  The unit-cell residual ``-(F_{i+1/2} -
    F_{i-1/2} + G_{j+1/2} - G_{j-1/2})`` gives block row (i, j) the block
    ``JL`` toward cell (i-1, j), ``-JR`` toward (i+1, j), ``KL`` toward
    (i, j-1), ``-KR`` toward (i, j+1) and ``JR - JL + KR - KL`` on the
    diagonal.  The closed forms come from the exact Jacobians ``A`` (x) and
    ``B`` (y) of :func:`euler_flux_jacobian`:

    - x, supersonic (``u - c = 1``): every solver but SLAU upwinds fully,
      ``JL = A`` and ``JR = 0``.  SLAU's mass flux averages ``|qn|`` over
      both sides even then (its ``g = 0``, ``chi = 0`` branch), giving
      ``rho_L (m_L + m_R) / (rho_L + rho_R)``, whose derivative in the right
      state is ``(e_1 - u e_0) / 2``, and its pressure is the left one.  So
      there ``JR = psi (e_1 - u e_0)^T / 2`` with ``psi = (1, u, v, H)``,
      and ``JL = A - JR``.
    - y, subsonic: Roe gives ``KL, KR = (B +- |B|) / 2``.  HLL and HLLE give
      the two-wave form with speeds ``sl, sr = v -+ c`` (Davis's and
      Einfeldt's speeds coincide at a uniform state):
      ``KL = (sr B - sl sr I) / (sr - sl)``, ``KR = (sl sr I - sl B) / (sr - sl)``.
      The other solvers are held to consistency, ``KL + KR = B``.

    Tolerance: ``S`` comes from central differences with step ``FD_STEP`` =
    1e-7, whose roundoff is about ``eps |F| / FD_STEP``, some 1e-8 of
    ``max |A|``; the entries match to 1.2e-8 of it here (HLL), the spectra
    to 1.5e-8 of ``max |lambda|``.  ``TOL`` pins 1e-7 relative.
    """

    NI, NJ = 8, 6
    PRIM = np.array([1.0, 2.0, 0.3, 1.0 / GAS.gamma])
    TOL = 1e-7

    def matrix(self, solver):
        cons = prim_to_cons(self.PRIM, GAS)
        base = FlowField(q=np.tile(cons, (self.NI, self.NJ, 1)))
        metrics = compute_metrics(make_cartesian_grid(self.NI, self.NJ))
        return assemble(base, metrics, ReconstructionScheme(kind="first_order"), solver, periodic_bcs(), GAS).matrix

    def x_faces(self, solver, a):
        """``(JL, JR)`` of the supersonic x-faces."""
        if solver != "slau":
            return a, np.zeros((4, 4))
        rho, u, v, p = self.PRIM
        total_enthalpy = (prim_to_cons(self.PRIM, GAS)[3] + p) / rho
        jr = 0.5 * np.outer([1.0, u, v, total_enthalpy], [-u, 1.0, 0.0, 0.0])
        return a - jr, jr

    def y_faces(self, solver, b):
        """``(KL, KR)`` of the subsonic y-faces, for the solvers with a closed form there."""
        if solver == "roe":
            speeds, vectors = np.linalg.eig(b)
            abs_b = ((vectors * np.abs(speeds)) @ np.linalg.inv(vectors)).real
            return 0.5 * (b + abs_b), 0.5 * (b - abs_b)
        sl, sr = self.PRIM[2] - 1.0, self.PRIM[2] + 1.0
        eye = np.eye(4)
        return (sr * b - sl * sr * eye) / (sr - sl), (sl * sr * eye - sl * b) / (sr - sl)

    def operator(self, jl, jr, kl, kr):
        """The dense ``S`` of these face Jacobians, cell (i, j) in block row ``j*ni + i``."""
        ni, nj = self.NI, self.NJ

        def shift(n, d):  # row k has its one in column (k + d) mod n
            return np.roll(np.eye(n), d, axis=1)

        x_part = np.kron(shift(ni, -1), jl) - np.kron(shift(ni, 1), jr)
        y_part = np.kron(np.kron(shift(nj, -1), np.eye(ni)), kl) - np.kron(np.kron(shift(nj, 1), np.eye(ni)), kr)
        return np.kron(np.eye(nj), x_part) + y_part + np.kron(np.eye(ni * nj), jr - jl + kr - kl)

    def jacobians(self):
        cons = prim_to_cons(self.PRIM, GAS)
        return euler_flux_jacobian(cons, (1.0, 0.0), GAS), euler_flux_jacobian(cons, (0.0, 1.0), GAS)

    @pytest.mark.parametrize("solver", RIEMANN_SOLVERS)
    def test_offset_blocks_equal_the_closed_form(self, solver):
        a, b = self.jacobians()
        s = self.matrix(solver).toarray()
        jl, jr = self.x_faces(solver, a)
        if solver in ("roe", "hll", "hlle"):
            kl, kr = self.y_faces(solver, b)
        else:
            # No closed form in y: take cell (0, 0)'s blocks toward (0, nj-1)
            # and (0, 1); the comparison below still holds every other block
            # row, the x-blocks and the diagonal to them.
            m = 4 * self.NI
            kl, kr = s[:4, (self.NJ - 1) * m : (self.NJ - 1) * m + 4], -s[:4, m : m + 4]
        scale = np.max(np.abs(a))
        assert np.max(np.abs(kl + kr - b)) <= self.TOL * scale
        assert np.max(np.abs(s - self.operator(jl, jr, kl, kr))) <= self.TOL * scale

    @pytest.mark.parametrize("solver", ["roe", "hll", "hlle"])
    def test_split_route_equals_the_symbol(self, solver):
        a, b = self.jacobians()
        jl, jr = self.x_faces(solver, a)
        kl, kr = self.y_faces(solver, b)
        split = transverse_blocks(self.matrix(solver), self.NJ)
        # The first-order operator keeps the pattern of the four-cell
        # stencil, so the blocks at offsets +-2 are there too, as zeros.
        assert split.offsets == (0, 1, 2, -2, -1)
        m = 4 * self.NI
        row = self.operator(jl, jr, kl, kr)[:m]  # block row 0 holds C_d in block column d mod nj
        scale = np.max(np.abs(a))
        for d, block in zip(split.offsets, split.blocks):
            col = d % self.NJ * m
            assert np.max(np.abs(block - row[:, col : col + m])) <= self.TOL * scale
        # The symbol at wavenumbers (tx, ty): each block times exp(i theta offset).
        symbol = np.concatenate([
            np.linalg.eigvals(jr - jl + kr - kl + np.exp(-1j * tx) * jl - np.exp(1j * tx) * jr
                              + np.exp(-1j * ty) * kl - np.exp(1j * ty) * kr)
            for tx in 2.0 * np.pi * np.arange(self.NI) / self.NI
            for ty in 2.0 * np.pi * np.arange(self.NJ) / self.NJ
        ])
        spectrum = eigensolve(split)
        assert spectrum.shape == symbol.shape
        assert matched_distance(spectrum, symbol) <= self.TOL * np.max(np.abs(symbol))


class TestMatrixIO:
    def test_round_trip_is_exact(self, tmp_path):
        ni, nj = 5, 3
        metrics = compute_metrics(make_cartesian_grid(ni, nj))
        base = init_normal_shock_rh(ni, nj, mach=2.0, epsilon=0.1, gas=GAS)
        smat = assemble(base, metrics, ReconstructionScheme(kind="muscl"), "hllc",
                        normal_shock_bcs(2.0, GAS), GAS)
        path = tmp_path / "matrix.dat"
        write_matrix(smat.matrix, path)
        back = read_matrix(path)
        assert np.array_equal(back.toarray(), smat.matrix.toarray())
        header = path.read_text().splitlines()[0].split()
        assert header == [str(smat.n), str(smat.n), str(smat.matrix.nnz)]

    def test_text_format(self, tmp_path):
        # entries given out of row-major order; the file lists them sorted
        rows = np.array([2, 1, 0, 1])
        cols = np.array([1, 1, 2, 0])
        vals = np.array([1e300, 5e-324, 0.1, -1.0 / 3.0])
        path = tmp_path / "matrix.dat"
        write_matrix(sp.coo_matrix((vals, (rows, cols)), shape=(3, 3)), path)
        assert path.read_text(encoding="ascii") == (
            "3 3 4\n"
            "0 2 0.10000000000000001\n"
            "1 0 -0.33333333333333331\n"
            "1 1 4.9406564584124654e-324\n"
            "2 1 1.0000000000000001e+300\n"
        )
        back = read_matrix(path).tocoo()
        assert sorted(zip(back.row, back.col, back.data)) == sorted(zip(rows, cols, vals))

    def test_blocked_text_matches_per_entry_reference(self, tmp_path):
        # 10,000 records span several of the writer's blocks
        matrix = sp.random(200, 200, density=0.25, random_state=7, format="csr")
        path = tmp_path / "matrix.dat"
        write_matrix(matrix, path)
        coo = matrix.tocoo()
        order = np.lexsort((coo.col, coo.row))
        expected = [f"200 200 {coo.nnz}"]
        expected += [f"{r} {c} {v:.17g}" for r, c, v in zip(coo.row[order], coo.col[order], coo.data[order])]
        assert path.read_text(encoding="ascii").splitlines() == expected
        assert np.array_equal(read_matrix(path).toarray(), matrix.toarray())

    @pytest.mark.parametrize("text, message", [
        ("3 3 2\n0 0 1.0\n0 1\n", "has 5 fields after its header, expected 3 per record for 2 records"),
        ("2 2 1\n0 1 abc\n", "contains a non-numeric field"),
        ("2 2\n0 0 1.0\n", "needs a 'nrows ncols nnz' header of non-negative integers, got '2 2'"),
        ("2 2 one\n0 0 1.0\n", "needs a 'nrows ncols nnz' header of non-negative integers, got '2 2 one'"),
        ("2 -2 1\n0 0 1.0\n", "needs a 'nrows ncols nnz' header of non-negative integers, got '2 -2 1'"),
        ("3 3 1\n0 0.5 1.0\n", "record 1 has column index '0.5', not an integer in [0, 3)"),
        ("3 3 2\n0 0 1.0\n3 1 2.0\n", "record 2 has row index '3', not an integer in [0, 3)"),
        ("3 3 1\n-1 0 1.0\n", "record 1 has row index '-1', not an integer in [0, 3)"),
        ("2 2 3\n0 0 1.5\n0 0 2.5\n1 1 1\n", "record 2 repeats row 0, column 0 of record 1"),
        ("3 3 4\n2 2 1\n0 1 2\n2 2 3\n0 1 4\n", "record 3 repeats row 2, column 2 of record 1"),
        ("2 2 2\n0 0 1\n1 1 nan\n", "record 2 has value 'nan', not a finite number"),
        ("2 2 2\n0 0 -inf\n1 1 1\n", "record 1 has value '-inf', not a finite number"),
    ], ids=["short", "non_numeric", "header_count", "header_type", "header_negative",
            "non_integer_index", "index_past_shape", "negative_index", "repeated_entry",
            "first_of_two_repeats", "nan_value", "infinite_value"])
    def test_malformed_dump_names_the_file(self, tmp_path, text, message):
        path = tmp_path / "matrix.dat"
        path.write_text(text, encoding="ascii")
        with pytest.raises(FlowFileError) as info:
            read_matrix(path)
        assert isinstance(info.value, ShockStabError)
        assert str(info.value) == f"matrix file {str(path)!r} {message}"

    def test_unreadable_dump_names_the_file(self, tmp_path):
        path = tmp_path / "missing.dat"
        with pytest.raises(FlowFileError, match="cannot read matrix file .*missing.dat"):
            read_matrix(path)


class TestArnoldiMatrixFormat:
    """ARPACK gets canonical CSR: the same products, in the same order, as the CSC it used to get."""

    @staticmethod
    def csc_route(matrix, k, seed=20230614):
        import scipy.sparse.linalg as spla

        v0 = np.random.default_rng(seed).standard_normal(matrix.shape[0])
        values = spla.eigs(matrix.tocsc().astype(float), k=k, which="LR", v0=v0, return_eigenvectors=False)
        return _sort_spectrum(values)

    def test_csr_route_equals_csc_route(self, anchor_11):
        matrices = (normal_shock_matrix(), normal_shock_matrix(6, 5, bcs=mixed_bcs()), anchor_11.stab.matrix)
        for matrix, k in zip(matrices, (6, 8, 12)):
            assert eigensolve_leading(matrix, k=k).tobytes() == self.csc_route(matrix, k).tobytes()

    def test_caller_matrix_is_left_as_given(self):
        # reversed column order within each row: not canonical
        matrix = normal_shock_matrix()
        indices, data = matrix.indices.copy(), matrix.data.copy()
        for row in range(matrix.shape[0]):
            span = slice(matrix.indptr[row], matrix.indptr[row + 1])
            indices[span], data[span] = indices[span][::-1], data[span][::-1]
        shuffled = sp.csr_matrix((data, indices, matrix.indptr.copy()), shape=matrix.shape)
        before = (shuffled.indices.copy(), shuffled.data.copy())
        assert eigensolve_leading(shuffled, k=6).tobytes() == eigensolve_leading(matrix, k=6).tobytes()
        assert np.array_equal(shuffled.indices, before[0]) and np.array_equal(shuffled.data, before[1])


def complex_shift_eigenpair(matrix, lam, seed=20230614):
    """Reference for :func:`max_real_eigenpair`: inverse iteration on ``S`` upcast to complex, stored zeros and all."""
    import scipy.sparse.linalg as spla

    n = matrix.shape[0]
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    lu = spla.splu((matrix.astype(complex) - (lam + 1.0e-8) * sp.identity(n, dtype=complex)).tocsc())
    limit = 1.0e-8 * float(np.linalg.norm(matrix.data))
    best = None
    for _ in range(50):
        v = lu.solve(v)
        v /= np.linalg.norm(v)
        res = float(np.linalg.norm(matrix @ v - lam * v))
        if best is None or res < best[0]:
            best = (res, v.copy())
        if res <= limit:
            break
    res, v = best
    assert res <= limit
    v = v / v[int(np.argmax(np.abs(v)))]
    return v, float(np.linalg.norm(matrix @ v - lam * v))


class TestStoredZeros:
    """The eigensolvers drop the exact zeros that ``S`` stores, and every bit stays."""

    @pytest.fixture(scope="class")
    def matrix(self):
        n = 21
        base = init_normal_shock_rh(n, n, mach=20.0, epsilon=0.1, gas=GAS)
        matrix = assemble(base, compute_metrics(make_cartesian_grid(n, n)),
                          ReconstructionScheme(kind="muscl", limiter="van_albada"), "hllc",
                          normal_shock_bcs(20.0, GAS), GAS).matrix
        assert np.count_nonzero(matrix.data == 0.0) > matrix.nnz // 2
        return matrix

    def test_arnoldi_values_equal_eigs_on_the_stored_zeros(self, matrix):
        import scipy.sparse.linalg as spla

        v0 = np.random.default_rng(20230614).standard_normal(matrix.shape[0])
        values = spla.eigs(matrix, k=6, which="LR", v0=v0, return_eigenvectors=False)
        assert eigensolve_leading(matrix, k=6).tobytes() == _sort_spectrum(values).tobytes()

    def test_eigenpair_equals_the_complex_shift_of_the_stored_zeros(self, matrix):
        nnz = matrix.nnz
        values = eigensolve_leading(matrix, k=6)
        pair = max_real_eigenpair(matrix, values)
        vector, res = complex_shift_eigenpair(matrix, complex(values[0]))
        assert pair.eigenvalue == values[0]
        assert pair.vector.tobytes() == vector.tobytes()
        assert np.float64(pair.residual).tobytes() == np.float64(res).tobytes()
        assert matrix.nnz == nnz


# ---------------------------------------------------------------------------
# Pinned bits of the assembled operator
# ---------------------------------------------------------------------------

PINNED_SCHEMES = {
    "first_order": ReconstructionScheme(kind="first_order"),
    "muscl_van_albada": ReconstructionScheme(kind="muscl", limiter="van_albada"),
    "muscl_superbee_prim": ReconstructionScheme(kind="muscl", limiter="superbee", variables="primitive"),
    "round": ReconstructionScheme(kind="round"),
}


def jittered(grid, rng, amp):
    """``grid`` with its interior nodes moved by up to ``amp`` in each direction."""
    x, y = grid.x.copy(), grid.y.copy()
    x[1:-1, 1:-1] += amp * rng.uniform(-1.0, 1.0, x[1:-1, 1:-1].shape)
    y[1:-1, 1:-1] += amp * rng.uniform(-1.0, 1.0, y[1:-1, 1:-1].shape)
    return Grid(x=x, y=y)


def pinned_matrix_setups():
    """``{name: (base, metrics, bcs)}`` of the operators whose bits are pinned.

    ``shock``: a jittered M=20 shock on a jittered 7x4 grid, cold enough
    upstream that MUSCL and ROUND fall back to first order on some faces;
    ``annulus``: a smooth field on a jittered 6x5 annulus with inflow,
    exit-pressure, slip-wall and zero-gradient sides, so the differenced
    exit-pressure ghost map and the exact wall reflection both enter ``S``.
    """
    rng = np.random.default_rng(41)
    prim = cons_to_prim(init_normal_shock_rh(7, 4, 20.0, 0.3, gas=GAS).q, GAS)
    shock = FlowField(q=prim_to_cons(prim * (1.0 + 0.05 * rng.uniform(-1.0, 1.0, prim.shape)), GAS))
    shock_metrics = compute_metrics(jittered(make_cartesian_grid(7, 4), rng, 0.1))
    ring_metrics = compute_metrics(jittered(make_annular_grid(6, 5), rng, 0.02))
    return {
        "shock": (shock, shock_metrics, normal_shock_bcs(20.0, GAS)),
        "annulus": (smooth_field(6, 5, seed=42, scale=0.1), ring_metrics, mixed_bcs()),
    }


def matrix_digest(smat):
    """SHA-256 over the CSR arrays of ``S``, its kink and fallback flags and its base residual."""
    h = hashlib.sha256()
    for part in (smat.matrix.data, smat.matrix.indices, smat.matrix.indptr, smat.kink_iface, smat.kink_jface,
                 smat.fallback_iface, smat.fallback_jface, np.array([smat.base_residual_inf])):
        h.update(np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


def pinned_matrix_digests():
    out = {}
    for setup, (base, metrics, bcs) in pinned_matrix_setups().items():
        for scheme_name, scheme in PINNED_SCHEMES.items():
            for solver in RIEMANN_SOLVERS:
                smat = assemble(base, metrics, scheme, solver, bcs, GAS)
                out[f"{setup}/{solver}/{scheme_name}"] = matrix_digest(smat)
    return out


# Recorded from the code that differenced each probe of a face batch with
# its own flux, reconstruction and ghost-map call.
PINNED_MATRIX_DIGESTS = {
    "shock/roe/first_order": "852a168d1a52c096bf67dbddbe2b8b4eab2fa44912774658dd67be48162c6010",
    "shock/hll/first_order": "2de415dfd773dbf49942c6906ebfd941631262d68959f37baffbd90719468968",
    "shock/hllc/first_order": "5745d3ede954ab5dc41696e770a5f55ed22d5468fa07c60b7e08791853c2aa49",
    "shock/hlle/first_order": "b110fbb191ee38f371926836fd0fdcd6b5017b2a386d7d5768f859f9632f7aed",
    "shock/hllem/first_order": "6ee86935d77fea44d2adc54a6b3d13a69126a74adb97d8a1bb576885c324feb3",
    "shock/van_leer_fvs/first_order": "b75f032613c37c4630a3ad9c9aa6c39c031f6bf6d63b99345478e5cecbad0af8",
    "shock/ausm_plus/first_order": "18891a65c8d7d1e5620a0921d96cd052b6c316c63ccbbe546496ef2010cf9781",
    "shock/slau/first_order": "1c164a3f9ea6c4499090ff97b16bd4d397bdf5d6215e2156cee1514976daf09c",
    "shock/roe/muscl_van_albada": "cd3aa2d74c1c285ea705dc4b9e85b98931419c8d4c3de81283fab6da13275546",
    "shock/hll/muscl_van_albada": "80b8402d5ab1549a02a60f0f160b894fd15e3b0b7a617f6737c2f1785cd16b46",
    "shock/hllc/muscl_van_albada": "bffc97995480ef6c559f919cefe68335f457806a33736ee8590774aefcd51a2b",
    "shock/hlle/muscl_van_albada": "0ef2bc229bb3958027dd5e8a46943f987847639ee6c79079b5ccb681b8c15b05",
    "shock/hllem/muscl_van_albada": "33a7dfed73cf802d9c57161140a5899942474b13f56562e403cf76459b791f66",
    "shock/van_leer_fvs/muscl_van_albada": "7644a83519d675edf86d6a6510e9b55ca9092c8297ee1a1e889d183823387e59",
    "shock/ausm_plus/muscl_van_albada": "620e99abdb4936d9cb83973253d6f913941f01ab74f1c41b409effdc51404cca",
    "shock/slau/muscl_van_albada": "4fb17a1185550961f39f69ddb5c60ec339f633ab110acdeb65d324f3b937add6",
    "shock/roe/muscl_superbee_prim": "8093836102d945209b5691220cb5b45d4f5560cac136e00b2183b38b32008643",
    "shock/hll/muscl_superbee_prim": "33ad5c3d91a80e2bd3658f5eac7f07a0c7af0e58c886ae5a09a55e815092be66",
    "shock/hllc/muscl_superbee_prim": "3d63c3be6c332854d97899b6ac28afc18828e355cf7fa26b67a76d98eb66e1dd",
    "shock/hlle/muscl_superbee_prim": "ca4f8d848d76b0eb0ab13ffb1caa447e390834852a3f26bea9c561084ea0a0c8",
    "shock/hllem/muscl_superbee_prim": "e702dadfe0d7d6b70467cc34aaad057f74d23b6459eb54cd0d8d1efaf13c65f7",
    "shock/van_leer_fvs/muscl_superbee_prim": "efe4a68b6f79340d6bd7a2c4c2bdc7cba00373ed320e25d2ceff4b0821b0eabd",
    "shock/ausm_plus/muscl_superbee_prim": "bfbf2d1ed0da960d94243eac0b616bd8cd8aef515a43add32452ad601a90354e",
    "shock/slau/muscl_superbee_prim": "b23870894fbc06e863d8e83118fd09eea8cfdc5d206dba3907483a166cdd091e",
    "shock/roe/round": "1a51d05819dd96c635b21a88040be0c61eddf20dbaed9a94b5f890f39b881b52",
    "shock/hll/round": "377e0b7a0e86b2b5b768ba8eb94ae52b70a8d1eeb35992df4a11b960a1bcbdf5",
    "shock/hllc/round": "a7b26d02f57e347f882ee80fb7e4e63700a2979bd34ec1fbd4a67b688ef6fc9f",
    "shock/hlle/round": "876cad865531b3ada0ec7867c9d3bc5f94944449dab5036cc7be5c308a2b9a92",
    "shock/hllem/round": "219cde0a4050a1dd4f68f886ecd005277b0177960ca385926b2cbb18e15e736a",
    "shock/van_leer_fvs/round": "426df1e0158ddd67b2c653c58e062f9befc4cbe76dc437a339e239cc6ac462e3",
    "shock/ausm_plus/round": "0d85bfbe8ff40396e3732547b6d7ac5a4d9029bcd86023e189906d25f37aba86",
    "shock/slau/round": "8dff41c2240284b2f244643e8c13d02c63750a2277b0efd160496a73c32c61d1",
    "annulus/roe/first_order": "a0911cca7b8ca71502fe95b5275fe6d215141cf2ea6043200dd9ba752998f8a0",
    "annulus/hll/first_order": "436814734f2544d697d1f83d24174b59a66623a19ace7b7074f8b7606f5facf1",
    "annulus/hllc/first_order": "104dc6ada13f74449fec9046f28eb5f4415dde201c4e6eee56fab237734dbf16",
    "annulus/hlle/first_order": "e846cb79d7c9d3d75ff03d012bb1ef64e8d5bccddf57a59c21905c5c985d98b5",
    "annulus/hllem/first_order": "f19cde4c0528d909df6e8c71ef3887ce29f59cfa27ffce2bb88e11303ab390d5",
    "annulus/van_leer_fvs/first_order": "13cc32f27ba8a2946e4a4bc8cd2b5827a72c939615c72d2c63b0ed45c24efa67",
    "annulus/ausm_plus/first_order": "7c9a51633aa087d4e562758f3b38b13a521236f4c3be08673df0a1be96245c2a",
    "annulus/slau/first_order": "5f6bcfa21ffa1649bb7b3792a890650d902317392d346055d44fec760d0ebbde",
    "annulus/roe/muscl_van_albada": "65b725a99de1001d71abb8b61c6e58596518eafc249c4f8433d86f9d3fc5cc04",
    "annulus/hll/muscl_van_albada": "06149a29da095ebcc3ff87c1a50dcb9a449ff646ffa965eaef80247b0d15dbc1",
    "annulus/hllc/muscl_van_albada": "4fbb2de201215d28b2647e63cb52b986059e28849ddc02ed0d48f80c869b9739",
    "annulus/hlle/muscl_van_albada": "dbd8a083d629c5b1015c5eb3feb59980ff6ceb9af54791a5632877165ab21546",
    "annulus/hllem/muscl_van_albada": "05c5b779157fffc65bff75b04032c4aa91224784a2838db6213ae3e65077d1c7",
    "annulus/van_leer_fvs/muscl_van_albada": "a133c49537c227172a8a0b23546b83467dd3348d2998f7f3c07e9da4581caa67",
    "annulus/ausm_plus/muscl_van_albada": "f7ecbf18429e95ec1c4759bfd12f08d1dd364c7d6ad851eae1caed983814f67f",
    "annulus/slau/muscl_van_albada": "213cea571d2bdfc231e331bd09180429c7e0d615956aaa872df687d68e788002",
    "annulus/roe/muscl_superbee_prim": "f856ff45ba1cde0c81f09f82b71c23de210446f43f782f9848b4a7173ba9f52f",
    "annulus/hll/muscl_superbee_prim": "e4840e9aae8ad4f2cda63922fc8db8ba9e6e01cc4213b7ec9b7aa7623fa44ae1",
    "annulus/hllc/muscl_superbee_prim": "08b70a164a8dc7c31c703b6a6ca830f4527dca1042ac25fbdfa27234ac8f09a0",
    "annulus/hlle/muscl_superbee_prim": "be2b3ab7ff202c9326c482fc8d72a4e466b58aba9e61a75ee557e105eb6beea1",
    "annulus/hllem/muscl_superbee_prim": "68fb60dcff06e81c15c8d647919a09b82a9417f01f6c11b40bb0c68d6d914ce0",
    "annulus/van_leer_fvs/muscl_superbee_prim": "9bc5b682d9a1699ec197286c8360e5ed25fe50677cbe90f35e593308f5b8dfd7",
    "annulus/ausm_plus/muscl_superbee_prim": "b06e92190c1423504614f34d8afdda6b734930ae9bf03d26feeb8ec8f6e85c49",
    "annulus/slau/muscl_superbee_prim": "0bd03782ede5f163409e1cd32a2d221b1ade5d76eb0785f6d8bccfb2cdcc0ddd",
    "annulus/roe/round": "4970cd97662108ea3685f2a1203cbbfd9585753573794089a75bda699e22511f",
    "annulus/hll/round": "63bb7965e557ced375ebfb4dbe8465e38573317301bfd799004df2277063b5da",
    "annulus/hllc/round": "84d859adbd8075f7626cd5600ab7b2bcf9ea21a584f466133afca747b9cf0a11",
    "annulus/hlle/round": "1335a6d95e368e4fb93b0e8a74f93c542ff1d8629f74f4dc4f16612a9bf9824c",
    "annulus/hllem/round": "fdacaf16f98d4d6ead45bbecca14403b9dab96e3b4e1951b4a644ee37de21556",
    "annulus/van_leer_fvs/round": "e7219b03b04e8041079c1fee8712b9c38070595952116e7093e139a31517c30d",
    "annulus/ausm_plus/round": "7f372c05cf21b1f0f0ad682fc9fb5856e4bc0f72d24d290b7ec5a861d8ca7832",
    "annulus/slau/round": "b9fd4e9af800a55a4a96e71529fa205a96ab8dfae01d01f43077b6b0c0f37f6f",
}


class TestPinnedMatrixBits:
    def test_assembled_operator_digests(self):
        assert pinned_matrix_digests() == PINNED_MATRIX_DIGESTS

    @pytest.mark.parametrize("face_block, cell_block", [(1, 1), (7, 3), (64, 17)])
    def test_digests_do_not_depend_on_the_block_sizes(self, monkeypatch, face_block, cell_block):
        # the pinned grids fit in one default block; these sizes cut them at many block edges
        monkeypatch.setattr(stability, "_FACE_BLOCK", face_block)
        monkeypatch.setattr(stability, "_CELL_BLOCK", cell_block)
        assert pinned_matrix_digests() == PINNED_MATRIX_DIGESTS
