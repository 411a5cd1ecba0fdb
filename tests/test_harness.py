"""1-D base-flow driver, time marching, and growth-rate fitting."""

import numpy as np
import pytest
import scipy.sparse as sp

from shockstab import EvolutionError, FitError, StateError
from shockstab.harness import (
    dominance_gap,
    evolve_linear,
    evolve_nonlinear,
    fit_growth_rate,
    local_wave_speed_sums,
    make_base_flow,
    project_1d_to_2d,
    solve_1d_steady,
    write_series,
)
from shockstab.mesh import compute_metrics, make_cartesian_grid
from shockstab.numerics import ReconstructionScheme
from shockstab.residual import fill_ghosts, normal_shock_bcs, residual
from shockstab.state import (
    FlowField,
    GasModel,
    cons_to_prim,
    normal_shock_states,
    prim_to_cons,
)

GAS = GasModel()
FIRST = ReconstructionScheme(kind="first_order")
MUSCL = ReconstructionScheme(kind="muscl", limiter="van_albada")


class TestSolve1D:
    def test_roe_first_order_converges_six_orders(self):
        res = solve_1d_steady(11, 2.0, 0.1, 2000, FIRST, "roe")
        assert res.residual_history.shape == (2000,)
        assert res.residual_history[0] / res.residual_inf > 1e6

    def test_hllc_muscl_converges_six_orders(self):
        res = solve_1d_steady(11, 3.0, 0.1, 2000, MUSCL, "hllc")
        assert res.residual_history[0] / res.residual_inf > 1e6

    def test_transverse_momentum_stays_zero(self):
        res = solve_1d_steady(11, 3.0, 0.1, 200, MUSCL, "hllc")
        assert np.array_equal(res.q[:, 2], np.zeros(11))

    def test_supersonic_upstream_cells_never_move(self):
        res = solve_1d_steady(11, 2.0, 0.1, 500, FIRST, "roe")
        up, _ = normal_shock_states(2.0, GAS)
        u1 = prim_to_cons(up, GAS)
        for i in range(3):
            assert np.array_equal(res.q[i], u1)

    def test_exit_cell_reaches_downstream_state(self):
        res = solve_1d_steady(11, 2.0, 0.1, 2000, FIRST, "roe")
        _, down = normal_shock_states(2.0, GAS)
        prim = cons_to_prim(res.q, GAS)
        assert prim[-1, 3] == pytest.approx(down[3], rel=1e-8)

    def test_step_count_validation(self):
        with pytest.raises(EvolutionError):
            solve_1d_steady(11, 2.0, 0.1, 0, FIRST, "roe")

    def test_cell_width_validation(self):
        with pytest.raises(StateError):
            solve_1d_steady(5, 2.0, 0.1, 10, FIRST, "roe", dx=np.ones(4))
        with pytest.raises(StateError):
            solve_1d_steady(5, 2.0, 0.1, 10, FIRST, "roe", dx=-1.0)


class TestBaseFlow:
    def test_projection_replicates_rows(self):
        res = solve_1d_steady(9, 2.0, 0.1, 100, FIRST, "roe")
        field = project_1d_to_2d(res, 4)
        assert field.q.shape == (9, 4, 4)
        for j in range(4):
            assert np.array_equal(field.q[:, j], res.q)

    def test_projection_validates_shape(self):
        with pytest.raises(StateError):
            project_1d_to_2d(np.zeros((5, 3)), 4)

    def test_rh_init_returns_exact_field(self):
        field, oned = make_base_flow(11, 3, 3.0, 0.2, FIRST, "roe", init="rankine_hugoniot")
        assert oned is None
        from shockstab.state import init_normal_shock_rh

        assert np.array_equal(field.q, init_normal_shock_rh(11, 3, 3.0, 0.2, gas=GAS).q)

    def test_unknown_init_rejected(self):
        with pytest.raises(StateError):
            make_base_flow(11, 3, 3.0, 0.2, FIRST, "roe", init="uniform")

    def test_projected_base_residual_is_y_invariant(self):
        # the 2-D residual of a projected profile equals the strip residual
        # in every row: transverse fluxes cancel through the periodic pair
        ni, nj = 11, 4
        field, oned = make_base_flow(ni, nj, 2.0, 0.1, MUSCL, "hllc", oned_steps=300)
        metrics = compute_metrics(make_cartesian_grid(ni, nj))
        bc = normal_shock_bcs(2.0, GAS)
        ghosts = fill_ghosts(field, bc, metrics, GAS)
        r2d = residual(field, ghosts, metrics, MUSCL, "hllc", GAS)
        strip = project_1d_to_2d(oned, 1)
        strip_metrics = compute_metrics(make_cartesian_grid(ni, 1))
        strip_ghosts = fill_ghosts(strip, bc, strip_metrics, GAS)
        r1d = residual(strip, strip_ghosts, strip_metrics, MUSCL, "hllc", GAS)
        for j in range(nj):
            assert np.max(np.abs(r2d[:, j] - r1d[:, 0])) < 1e-12
        assert oned.residual_inf == pytest.approx(np.max(np.abs(r1d)), rel=1e-12)


class TestWaveSpeedSums:
    def test_uniform_flow_hand_value(self):
        metrics = compute_metrics(make_cartesian_grid(4, 3))
        prim = np.tile(np.array([1.0, 0.5, -0.25, 1.0]), (4, 3, 1))
        field = FlowField(q=prim_to_cons(prim, GAS))
        a = np.sqrt(1.4)
        expected = 2.0 * (0.5 + 0.25) + 4.0 * a
        total = local_wave_speed_sums(field, metrics, GAS)
        assert np.allclose(total, expected, rtol=1e-14)


class TestEvolveLinear:
    def test_scalar_decay_rate(self):
        m = sp.csr_matrix(np.array([[-1.0]]))
        series = evolve_linear(m, steps=1000, dt=0.001)
        drop = series.log_norm[-1] - series.log_norm[0]
        assert drop == pytest.approx(-1.0, abs=1e-8)
        assert series.t[-1] == pytest.approx(1.0, rel=1e-12)

    def test_rotation_preserves_norm(self):
        m = sp.csr_matrix(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        series = evolve_linear(m, steps=500, dt=0.01)
        assert np.max(np.abs(series.log_norm - series.log_norm[0])) < 1e-10

    def test_slope_matches_planted_growth(self):
        blocks = [np.array([[2.0]]), np.diag([-1.0, -2.0, -3.0]),
                  np.array([[0.25, 0.7], [-0.7, 0.25]])]
        m = sp.csr_matrix(sp.block_diag(blocks))
        series = evolve_linear(m, steps=2000, dt=0.05)
        fit = fit_growth_rate(series.t, series.log_norm, norms_are_log=True)
        assert fit.sigma == pytest.approx(2.0, abs=1e-5)

    def test_seeded_start_is_deterministic(self):
        m = sp.csr_matrix(np.diag([-0.5, -1.5]))
        a = evolve_linear(m, steps=50)
        b = evolve_linear(m, steps=50)
        assert np.array_equal(a.log_norm, b.log_norm)
        assert np.array_equal(a.t, b.t)

    def test_log_span_truncation(self):
        m = sp.csr_matrix(np.array([[5.0]]))
        series = evolve_linear(m, steps=100000, dt=0.1)
        assert series.truncated
        assert abs(series.log_norm[-1] - series.log_norm[0]) > 600.0 - 1.0

    def test_input_validation(self):
        m = sp.csr_matrix(np.diag([-1.0, -2.0]))
        with pytest.raises(EvolutionError):
            evolve_linear(m, steps=10, delta0=np.ones(3))
        with pytest.raises(EvolutionError):
            evolve_linear(sp.csr_matrix((2, 2)), steps=10)


class TestEvolveNonlinear:
    def uniform_equilibrium(self, ni, nj):
        # supersonic uniform flow with the exit pressure matching the base is
        # an exact equilibrium of the discrete residual
        from shockstab.residual import BoundaryCondition, BoundaryConditionSet

        prim = np.tile(np.array([1.0, 2.0, 0.0, 1.0 / 1.4]), (ni, nj, 1))
        base = FlowField(q=prim_to_cons(prim, GAS))
        bc = BoundaryConditionSet(
            left=BoundaryCondition.supersonic_inflow(prim_to_cons(prim[0, 0], GAS)),
            right=BoundaryCondition.fixed_pressure_outflow(1.0 / 1.4),
            bottom=BoundaryCondition.periodic(),
            top=BoundaryCondition.periodic(),
        )
        return base, bc

    def test_uniform_supersonic_flow_damps_noise(self):
        ni, nj = 8, 4
        metrics = compute_metrics(make_cartesian_grid(ni, nj))
        base, bc = self.uniform_equilibrium(ni, nj)
        series = evolve_nonlinear(base, bc, metrics, FIRST, "roe", GAS, steps=300)
        assert not series.diverged
        # noise convects out: the deviation norm ends far below its start
        assert series.log_norm[-1] < series.log_norm[0] - 2.0

    def test_initial_norm_matches_seeded_perturbation(self):
        ni, nj = 6, 3
        metrics = compute_metrics(make_cartesian_grid(ni, nj))
        base, bc = self.uniform_equilibrium(ni, nj)
        series = evolve_nonlinear(base, bc, metrics, FIRST, "roe", GAS, steps=1,
                                  amplitude=1e-8, seed=77)
        rng = np.random.default_rng(77)
        scale = np.linalg.norm(base.q, axis=-1, keepdims=True)
        pert = 1e-8 * scale * rng.uniform(-1.0, 1.0, size=base.q.shape)
        # (base + pert) - base loses ~eps/amplitude relative precision
        assert series.log_norm[0] == pytest.approx(np.log(np.linalg.norm(pert)), abs=1e-6)


class TestFitGrowthRate:
    def test_exact_exponential(self):
        t = np.linspace(0.0, 10.0, 200)
        fit = fit_growth_rate(t, 3.0 * np.exp(0.5 * t))
        assert fit.sigma == pytest.approx(0.5, abs=1e-12)
        assert fit.intercept == pytest.approx(np.log(3.0), abs=1e-10)
        assert fit.n_used == fit.n_total - int(round(0.2 * 200))

    def test_log_input_path(self):
        t = np.linspace(0.0, 10.0, 100)
        fit = fit_growth_rate(t, -0.25 * t + 1.0, norms_are_log=True)
        assert fit.sigma == pytest.approx(-0.25, abs=1e-12)

    def test_scale_invariance(self):
        t = np.linspace(0.0, 8.0, 150)
        y = np.exp(0.3 * t)
        a = fit_growth_rate(t, y)
        b = fit_growth_rate(t, 1e6 * y)
        assert a.sigma == pytest.approx(b.sigma, abs=1e-12)

    def test_small_oscillation_tolerated(self):
        t = np.linspace(0.0, 20.0, 400)
        y = 0.5 * t + 0.01 * np.sin(2.0 * np.pi * t)
        fit = fit_growth_rate(t, y, norms_are_log=True)
        assert fit.n_used == fit.n_total - int(round(0.2 * 400))
        assert fit.sigma == pytest.approx(0.5, abs=5e-3)

    def test_initial_transient_discarded(self):
        t = np.linspace(0.0, 20.0, 300)
        y = 0.5 * t + 2.0 * np.exp(-3.0 * t)
        fit = fit_growth_rate(t, y, norms_are_log=True)
        assert fit.sigma == pytest.approx(0.5, abs=1e-6)

    def test_saturating_tail_is_shrunk_away(self):
        t = np.linspace(0.0, 10.0, 400)
        y = np.minimum(t, 5.0)
        fit = fit_growth_rate(t, y, norms_are_log=True)
        assert fit.n_used < fit.n_total
        assert fit.sigma == pytest.approx(1.0, abs=0.05)

    def test_constant_history_has_no_rate(self):
        # zero dynamic range cannot certify an exponential rate
        t = np.linspace(0.0, 10.0, 100)
        with pytest.raises(FitError):
            fit_growth_rate(t, np.ones(100))

    def test_nonpositive_tail_cut(self):
        t = np.linspace(0.0, 10.0, 100)
        y = np.exp(-2.0 * t)
        y[80:] = 0.0  # hit the floating-point floor
        fit = fit_growth_rate(t, y)
        assert fit.sigma == pytest.approx(-2.0, abs=1e-9)
        assert fit.n_total == 80

    def test_validation(self):
        with pytest.raises(FitError):
            fit_growth_rate(np.arange(10.0), np.ones(9))
        with pytest.raises(FitError):
            fit_growth_rate(np.arange(5.0), np.exp(np.arange(5.0)))


class TestDominanceGap:
    def test_distinct_reals(self):
        assert dominance_gap(np.array([3.0, 3.0 - 1e-12, 1.0])) == pytest.approx(2.0)

    def test_conjugate_pair_merged(self):
        vals = np.array([2.0 + 5.0j, 2.0 - 5.0j, -1.0 + 0.0j])
        assert dominance_gap(vals) == pytest.approx(3.0)

    def test_single_real_part_is_infinite(self):
        assert dominance_gap(np.array([0.7 + 1j, 0.7 - 1j])) == np.inf


class TestWriteSeries:
    def test_two_column_round_trip(self, tmp_path):
        m = sp.csr_matrix(np.array([[-1.0]]))
        series = evolve_linear(m, steps=20, dt=0.01)
        path = tmp_path / "series.dat"
        write_series(series, path)
        data = np.loadtxt(path)
        assert data.shape == (21, 2)
        assert np.allclose(data[:, 0], series.t, rtol=1e-16)
        assert np.allclose(data[:, 1], np.exp(series.log_norm), rtol=1e-16)
