"""1-D base-flow driver, time marching, and growth-rate fitting."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

from shockstab import EvolutionError, FitError, StateError, cli, harness
from shockstab.harness import (
    OneDResult,
    _rk4_step_matrix,
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
from shockstab.numerics import RIEMANN_SOLVERS, ReconstructionScheme
from shockstab.residual import fill_ghosts, normal_shock_bcs, residual
from shockstab.stability import spectral_radius_upper
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

    def test_non_physical_step_is_named(self):
        # CFL 5 overshoots the M=20 shock; the end-of-step check stops the march
        with pytest.raises(EvolutionError, match="at step 5$"):
            solve_1d_steady(11, 20.0, 0.1, 200, MUSCL, "hllc", cfl=5.0)

    @pytest.mark.parametrize("cfl", [0.0, -0.5, float("nan"), float("inf")])
    def test_bad_cfl_rejected(self, cfl):
        # cfl = 0 used to return the unmarched profile; negative and NaN
        # values were reported as a non-physical step
        with pytest.raises(EvolutionError, match=f"^cfl must be positive and finite, got {cfl}$"):
            solve_1d_steady(11, 2.0, 0.1, 10, FIRST, "roe", cfl=cfl)


class TestBatchMarch:
    SCHEMES = (
        FIRST,
        MUSCL,
        ReconstructionScheme(kind="muscl", limiter="superbee"),
        ReconstructionScheme(kind="round"),
        ReconstructionScheme(kind="muscl", limiter="van_albada", variables="primitive"),
    )
    MACH, EPSILON, SHOCK_COL = [3.0, 20.0, 6.0], [0.1, 0.5, 0.9], [None, 4, 6]

    @staticmethod
    def outcome(*args, **kwargs):
        try:
            return solve_1d_steady(*args, **kwargs)
        except EvolutionError as exc:
            return exc

    def assert_members_march_alone(self, machs, epsilons, cols, solvers):
        """Each member of the batch equals its one-member march bit for bit, or fails alike."""
        for scheme in self.SCHEMES:
            batch = solve_1d_steady(11, machs, epsilons, 50, scheme, solvers, shock_col=cols)
            assert len(batch) == len(machs)
            names = [solvers] * len(machs) if isinstance(solvers, str) else solvers
            for got, mach, eps, col, solver in zip(batch, machs, epsilons, cols, names):
                alone = self.outcome(11, mach, eps, 50, scheme, solver, shock_col=col)
                assert type(got) is type(alone)
                if isinstance(alone, EvolutionError):
                    assert str(got) == str(alone)
                    continue
                assert np.array_equal(got.q, alone.q)
                assert np.array_equal(got.residual_history, alone.residual_history)
                assert got.residual_inf == alone.residual_inf
            assert any(isinstance(got, OneDResult) for got in batch)

    @pytest.mark.parametrize("solver", RIEMANN_SOLVERS)
    def test_members_equal_their_one_member_marches(self, solver):
        self.assert_members_march_alone(self.MACH, self.EPSILON, self.SHOCK_COL, solver)

    def test_mixed_solver_members_equal_their_one_member_marches(self):
        # Every solver in one batch, with interleaved runs (hll, roe, hll).
        solvers = ["hll", "roe", "hll", "hllc", "hlle", "hllem", "van_leer_fvs", "ausm_plus", "slau", "roe"]
        cycle = range(len(solvers))
        self.assert_members_march_alone([self.MACH[k % 3] for k in cycle], [self.EPSILON[(k + 1) % 3] for k in cycle],
                                        [self.SHOCK_COL[(k + 2) % 3] for k in cycle], solvers)

    def test_failing_solver_member_stops_only_itself(self):
        # SLAU with MUSCL/superbee leaves the physical state space at step
        # 151 at M=20 on 11 cells; the solver column shrinks with it and
        # the other members, SLAU at M=3 among them, march on as if alone.
        superbee = ReconstructionScheme(kind="muscl", limiter="superbee")
        machs, solvers = [3.0, 20.0, 20.0, 3.0, 6.0], ["hll", "hllc", "slau", "slau", "roe"]
        batch = solve_1d_steady(11, machs, 0.1, 200, superbee, solvers)
        assert isinstance(batch[2], EvolutionError)
        assert str(batch[2]) == "1-D march left the physical state space at step 151"
        with pytest.raises(EvolutionError, match="at step 151$"):
            solve_1d_steady(11, 20.0, 0.1, 200, superbee, "slau")
        for k in (0, 1, 3, 4):
            alone = solve_1d_steady(11, machs[k], 0.1, 200, superbee, solvers[k])
            assert np.array_equal(batch[k].q, alone.q)
            assert np.array_equal(batch[k].residual_history, alone.residual_history)
            assert batch[k].residual_inf == alone.residual_inf

    @pytest.mark.parametrize("solver", ["godunov", ["roe", "godunov"]])
    def test_unknown_solver_rejected_before_any_step(self, solver, monkeypatch):
        steps = []
        monkeypatch.setattr(harness, "_march_residual", lambda *args: steps.append(args))
        mach = [2.0, 3.0] if isinstance(solver, list) else 2.0
        with pytest.raises(StateError, match="^unknown solver 'godunov'; choose one of "):
            solve_1d_steady(11, mach, 0.1, 10, FIRST, solver)
        assert steps == []

    def test_failing_member_stops_only_itself(self):
        # At CFL 4 the M=20 member leaves the physical state space at step
        # 16; the M=6 member marches on as if alone.
        first, second = solve_1d_steady(11, [20.0, 6.0], 0.1, 50, MUSCL, "hllc", cfl=4.0)
        assert isinstance(first, EvolutionError)
        assert str(first) == "1-D march left the physical state space at step 16"
        alone = solve_1d_steady(11, 6.0, 0.1, 50, MUSCL, "hllc", cfl=4.0)
        assert np.array_equal(second.q, alone.q)
        assert np.array_equal(second.residual_history, alone.residual_history)
        assert second.residual_inf == alone.residual_inf
        assert all(isinstance(r, EvolutionError) for r in solve_1d_steady(11, [20.0], 0.1, 50, MUSCL, "hllc",
                                                                           cfl=4.0))

    def test_scalars_apply_to_every_member(self):
        batch = solve_1d_steady(9, [2.0, 3.0], 0.1, 20, FIRST, "roe", shock_col=3)
        for got, mach in zip(batch, [2.0, 3.0]):
            assert np.array_equal(got.q, solve_1d_steady(9, mach, 0.1, 20, FIRST, "roe", shock_col=3).q)

    @pytest.mark.parametrize("epsilon", [[0.1, 0.2, 0.3], []])
    def test_member_counts_must_agree(self, epsilon):
        mach = [2.0, 3.0] if epsilon else []
        with pytest.raises(EvolutionError, match="same positive number of members"):
            solve_1d_steady(9, mach, epsilon, 10, FIRST, "roe")


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
        a = np.sqrt(1.4)
        expected = 2.0 * (0.5 + 0.25) + 4.0 * a
        total = local_wave_speed_sums(prim, metrics, GAS)
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
        fit = fit_growth_rate(series.t, series.log_norm)
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

    @pytest.mark.parametrize("dt", [-0.1, 0.0, np.nan, np.inf])
    def test_rejects_bad_time_step(self, dt):
        # a negative step would march backwards and report the most stable
        # eigenvalue as the growth rate
        m = sp.csr_matrix(np.diag([-1.0, 0.5]))
        with pytest.raises(EvolutionError, match="time step must be positive and finite"):
            evolve_linear(m, steps=100, dt=dt)

    @pytest.mark.parametrize("steps", [0, -5])
    def test_rejects_step_count_below_one(self, steps):
        m = sp.csr_matrix(np.diag([-1.0, 0.5]))
        with pytest.raises(EvolutionError, match=f"need at least one step, got {steps}"):
            evolve_linear(m, steps=steps)

    def test_rejects_non_finite_perturbation(self):
        m = sp.csr_matrix(np.diag([-1.0, 0.5]))
        with pytest.raises(EvolutionError, match="non-finite"):
            evolve_linear(m, steps=10, delta0=np.array([1.0, np.nan]))


@pytest.fixture(scope="module")
def anchor_5x5():
    """The anchor configuration on 5x5 with the default 2000-step 1-D base."""
    return cli.analyze(cli.parse_settings_text(
        "grid = 5x5\nmach = 20\nepsilon = 0.1\nsolver = hllc\nreconstruction = muscl\n"
        "limiter = van_albada\n"))


def reference_march(step_matrix, delta0, steps):
    """``evolve_linear``'s loop without the flush; also returns the largest
    number of subnormal entries the vector held after a renormalization."""
    nrm = np.linalg.norm(delta0)
    v = delta0 / nrm
    logs = [float(np.log(nrm))]
    shift = 0.0
    subnormal = 0
    for _ in range(steps):
        v = step_matrix @ v
        growth = np.linalg.norm(v)
        shift += float(np.log(growth))
        v = v / growth
        logs.append(logs[0] + shift)
        subnormal = max(subnormal, int(np.count_nonzero((v != 0.0) & (np.abs(v) < np.finfo(float).tiny))))
    return np.array(logs), subnormal


class TestStepMatrix:
    """One step of ``evolve_linear`` is one product with ``P(dt S)``."""

    @pytest.fixture(params=["anchor_5x5", "decoupled"])
    def case(self, request):
        """``(S, dt, steps, dense)``.  The 5x5 anchor takes ``evolve_linear``'s
        default ``dt`` and has a dense ``P``; the decoupled matrix has a CSR one."""
        if request.param == "decoupled":
            # a growing rotation beside a block decaying about e-fold per step
            matrix = sp.block_diag([np.array([[0.1, 1.0], [-1.0, 0.1]]),
                                    np.array([[-20.0, 5.0], [0.0, -25.0]])], format="csr")
            return matrix, 0.05, 1000, False
        matrix = request.getfixturevalue("anchor_5x5").stab.matrix
        return matrix, 2.7 / spectral_radius_upper(matrix), 12000, True

    @staticmethod
    def march(matrix, dt, steps):
        delta0 = np.random.default_rng(3).standard_normal(matrix.shape[0])
        return evolve_linear(matrix, steps, delta0=delta0, dt=dt), delta0

    def test_step_matrix_is_one_classical_rk4_step(self, case):
        matrix, dt, _, dense = case
        p = _rk4_step_matrix(matrix, dt)
        assert isinstance(p, np.ndarray) == dense
        v = np.random.default_rng(5).standard_normal(matrix.shape[0])
        k1 = matrix @ v
        k2 = matrix @ (v + 0.5 * dt * k1)
        k3 = matrix @ (v + 0.5 * dt * k2)
        k4 = matrix @ (v + dt * k3)
        rk4 = v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        assert np.allclose(p @ v, rk4, rtol=0.0, atol=1e-13 * np.linalg.norm(v))

    def test_flush_is_invisible(self, case):
        matrix, dt, steps, _ = case
        series, delta0 = self.march(matrix, dt, steps)
        logs, subnormal = reference_march(_rk4_step_matrix(matrix, dt), delta0, steps)
        assert subnormal > 0  # the unflushed vector really underflows
        assert np.array_equal(series.log_norm, logs)

    def test_dense_and_csr_storage_agree(self, case):
        matrix, dt, steps, dense = case
        series, delta0 = self.march(matrix, dt, steps)
        p = _rk4_step_matrix(matrix, dt)
        logs, _ = reference_march(sp.csr_matrix(p) if dense else p.toarray(), delta0, steps)
        assert np.max(np.abs(series.log_norm - logs)) <= 1e-12


def test_linear_march_matches_expm_multiply(anchor_5x5):
    # exp(tS) v0 from scipy's truncated-Taylor action (Al-Mohy & Higham
    # 2011) on the march's time span: an integrator-free check of the rate
    matrix = anchor_5x5.stab.matrix
    max_real = float(anchor_5x5.spectrum[0].real)
    series = evolve_linear(matrix, 20000)
    t = np.linspace(0.0, series.t[-1], 201)
    exact = expm_multiply(matrix, np.random.default_rng(20230614).standard_normal(matrix.shape[0]),
                          start=0.0, stop=series.t[-1], num=t.size, endpoint=True)
    sigma_expm = fit_growth_rate(t, np.log(np.linalg.norm(exact, axis=1))).sigma
    sigma_march = fit_growth_rate(series.t, series.log_norm).sigma
    assert max_real > 0.1
    for a, b in ((sigma_expm, max_real), (sigma_march, max_real), (sigma_march, sigma_expm)):
        assert abs(a - b) <= 1e-3 * max_real


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

    def test_blow_up_marks_series_diverged(self):
        # an oversized first step leaves the physical state space; the march
        # reports that as divergence rather than raising
        base, _ = make_base_flow(7, 3, 20.0, 0.1, MUSCL, "hllc", oned_steps=50)
        metrics = compute_metrics(make_cartesian_grid(7, 3))
        series = evolve_nonlinear(base, normal_shock_bcs(20.0, GAS), metrics, MUSCL, "hllc", GAS,
                                  steps=50, cfl=3.0, amplitude=1e-2)
        assert series.diverged

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

    @pytest.mark.parametrize("kwargs,match", [
        ({"steps": 0}, "need at least one step, got 0"),
        ({"cfl": -0.4}, "cfl must be positive and finite"),
        ({"cfl": np.inf}, "cfl must be positive and finite"),
        ({"amplitude": 0.0}, "amplitude must be positive and finite"),
        ({"amplitude": np.nan}, "amplitude must be positive and finite"),
    ])
    def test_rejects_bad_controls(self, kwargs, match):
        # a negative cfl marches backwards in time; a zero amplitude has no
        # perturbation to take the log-norm of
        metrics = compute_metrics(make_cartesian_grid(6, 3))
        base, bc = self.uniform_equilibrium(6, 3)
        with pytest.raises(EvolutionError, match=match):
            evolve_nonlinear(base, bc, metrics, FIRST, "roe", GAS, **{"steps": 10, **kwargs})

    @pytest.mark.filterwarnings("error")
    def test_rejects_a_perturbation_lost_against_the_base(self):
        # An amplitude far below the base's last bit leaves the perturbed
        # state equal to the base: there is no deviation to take the
        # log-norm of, so the march refuses to start rather than warn and
        # return a one-step series.
        base, _ = make_base_flow(5, 5, 20.0, 0.1, MUSCL, "hllc", oned_steps=200)
        metrics = compute_metrics(make_cartesian_grid(5, 5))
        with pytest.raises(EvolutionError, match="initial perturbation is zero"):
            evolve_nonlinear(base, normal_shock_bcs(20.0, GAS), metrics, MUSCL, "hllc", GAS, steps=10,
                             amplitude=1e-300)

    def test_rejects_metrics_of_another_grid(self):
        base, bc = self.uniform_equilibrium(6, 3)
        with pytest.raises(StateError, match="metrics are 6 x 4 but field is 6 x 3"):
            evolve_nonlinear(base, bc, compute_metrics(make_cartesian_grid(6, 4)), FIRST, "roe", GAS, steps=10)


class TestFitGrowthRate:
    def test_exact_exponential(self):
        t = np.linspace(0.0, 10.0, 200)
        fit = fit_growth_rate(t, np.log(3.0 * np.exp(0.5 * t)))
        assert fit.sigma == pytest.approx(0.5, abs=1e-12)
        assert fit.intercept == pytest.approx(np.log(3.0), abs=1e-10)
        assert fit.n_used == fit.n_total - int(round(0.2 * 200))

    def test_log_input_path(self):
        t = np.linspace(0.0, 10.0, 100)
        fit = fit_growth_rate(t, -0.25 * t + 1.0)
        assert fit.sigma == pytest.approx(-0.25, abs=1e-12)

    def test_scale_invariance(self):
        t = np.linspace(0.0, 8.0, 150)
        y = np.exp(0.3 * t)
        a = fit_growth_rate(t, np.log(y))
        b = fit_growth_rate(t, np.log(1e6 * y))
        assert a.sigma == pytest.approx(b.sigma, abs=1e-12)

    def test_small_oscillation_tolerated(self):
        t = np.linspace(0.0, 20.0, 400)
        y = 0.5 * t + 0.01 * np.sin(2.0 * np.pi * t)
        fit = fit_growth_rate(t, y)
        assert fit.n_used == fit.n_total - int(round(0.2 * 400))
        assert fit.sigma == pytest.approx(0.5, abs=5e-3)

    def test_initial_transient_discarded(self):
        t = np.linspace(0.0, 20.0, 300)
        y = 0.5 * t + 2.0 * np.exp(-3.0 * t)
        fit = fit_growth_rate(t, y)
        assert fit.sigma == pytest.approx(0.5, abs=1e-6)

    def test_saturating_tail_is_shrunk_away(self):
        t = np.linspace(0.0, 10.0, 400)
        y = np.minimum(t, 5.0)
        fit = fit_growth_rate(t, y)
        assert fit.n_used < fit.n_total
        assert fit.sigma == pytest.approx(1.0, abs=0.05)

    def test_constant_history_has_no_rate(self):
        # zero dynamic range cannot certify an exponential rate
        t = np.linspace(0.0, 10.0, 100)
        with pytest.raises(FitError):
            fit_growth_rate(t, np.log(np.ones(100)))

    def test_nonpositive_tail_cut(self):
        t = np.linspace(0.0, 10.0, 100)
        y = np.exp(-2.0 * t)
        y[80:] = 0.0  # hit the floating-point floor
        with np.errstate(divide="ignore"):
            fit = fit_growth_rate(t, np.log(y))
        assert fit.sigma == pytest.approx(-2.0, abs=1e-9)
        assert fit.n_total == 80

    def test_validation(self):
        with pytest.raises(FitError):
            fit_growth_rate(np.arange(10.0), np.log(np.ones(9)))
        with pytest.raises(FitError):
            fit_growth_rate(np.arange(5.0), np.log(np.exp(np.arange(5.0))))


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


class TestNormByDotProduct:
    """The marches take their norms as one dot product, bit for bit ``np.linalg.norm``."""

    def test_norm_equals_numpy_norm(self):
        rng = np.random.default_rng(12)
        arrays = (rng.standard_normal(37), rng.standard_normal((5, 4, 4)), rng.standard_normal((6, 8))[:, ::3],
                  np.array([3e-200, -4e-200]), np.array([1e200, 1e200]), np.zeros(3))
        with np.errstate(over="ignore"):  # the 1e200 pair overflows to inf on both routes
            for a in arrays:
                assert harness._norm(a) == float(np.linalg.norm(a))

    @pytest.mark.parametrize("dense", [True, False])
    def test_linear_series_unchanged(self, monkeypatch, dense):
        rng = np.random.default_rng(13)
        matrix = sp.random(40, 40, density=0.6 if dense else 0.05, random_state=14, format="csr")
        matrix = matrix - 0.5 * sp.identity(40, format="csr")
        delta0 = rng.standard_normal(40)
        assert isinstance(_rk4_step_matrix(matrix, 0.01), np.ndarray) == dense
        series = evolve_linear(matrix, 3000, delta0=delta0, dt=0.01)
        monkeypatch.setattr(harness, "_norm", lambda a: float(np.linalg.norm(a)))
        reference = evolve_linear(matrix, 3000, delta0=delta0, dt=0.01)
        assert series.log_norm.tobytes() == reference.log_norm.tobytes()
        assert (series.diverged, series.truncated) == (reference.diverged, reference.truncated)

    def test_nonlinear_series_unchanged(self, monkeypatch):
        from shockstab.state import init_normal_shock_rh

        ni, nj = 7, 3
        metrics = compute_metrics(make_cartesian_grid(ni, nj))
        base = init_normal_shock_rh(ni, nj, 3.0, 0.3, gas=GAS)
        bc = normal_shock_bcs(3.0, GAS)
        args = (base, bc, metrics, FIRST, "hllc", GAS)
        series = evolve_nonlinear(*args, steps=60)
        monkeypatch.setattr(harness, "_norm", lambda a: float(np.linalg.norm(a)))
        reference = evolve_nonlinear(*args, steps=60)
        assert series.log_norm.tobytes() == reference.log_norm.tobytes()
        assert series.t.tobytes() == reference.t.tobytes()
