"""Linearization chain, matrix assembly, and eigenvalue analysis."""

import numpy as np
import pytest
import scipy.sparse as sp

from shockstab import EigenSolveError
from shockstab.mesh import compute_metrics, make_cartesian_grid
from shockstab.numerics import ReconstructionScheme
from shockstab.residual import (
    BoundaryCondition,
    BoundaryConditionSet,
    fill_ghosts,
    normal_shock_bcs,
    residual,
)
from shockstab.stability import (
    FD_STEP,
    NEUTRAL_TOL,
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
    write_matrix,
)
from shockstab.state import FlowField, GasModel, init_normal_shock_rh, normal_shock_states, prim_to_cons

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
        assert stability_verdict(1e-9, tol=1e-8) == "stable"


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
