"""1-D base-flow driver, time marching, and growth-rate fitting."""

import hashlib

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
from shockstab.residual import (
    BoundaryCondition,
    BoundaryConditionSet,
    fill_ghosts,
    normal_shock_bcs,
    residual,
)
from shockstab.stability import spectral_radius_upper
from shockstab.state import (
    FlowField,
    GasModel,
    cons_to_prim,
    init_normal_shock_rh,
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
        monkeypatch.setattr(harness, "_march_map", lambda *args: steps.append(args))
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

    def test_members_naming_one_solver_march_as_the_single_name(self):
        # A solver list whose members all share a name is one run over the
        # whole batch, as the single name is: every member's bits agree.
        for scheme in (FIRST, MUSCL):
            named = solve_1d_steady(11, self.MACH, self.EPSILON, 50, scheme, "hllc", shock_col=self.SHOCK_COL)
            listed = solve_1d_steady(11, self.MACH, self.EPSILON, 50, scheme, ["hllc"] * 3, shock_col=self.SHOCK_COL)
            for got, want in zip(listed, named):
                assert got.q.tobytes() == want.q.tobytes()
                assert got.residual_history.tobytes() == want.residual_history.tobytes()
                assert got.residual_inf == want.residual_inf

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

    def test_rejects_zero_perturbation(self):
        m = sp.csr_matrix(np.diag([-1.0, 0.5]))
        with pytest.raises(EvolutionError, match="^initial perturbation is zero$"):
            evolve_linear(m, steps=10, delta0=np.zeros(2))

    def test_overflowing_step_marks_the_series_diverged(self):
        # The RK4 step polynomial of 1e200 * I overflows to inf, so the first
        # step's norm is inf: the series keeps its start and stops, diverged.
        m = sp.identity(2, format="csr") * 1e200
        series = evolve_linear(m, steps=10, delta0=np.array([3.0, 4.0]), dt=1.0)
        assert series.diverged and not series.truncated
        assert series.log_norm.tolist() == [np.log(5.0)]
        assert series.t.tolist() == [0.0]


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

    def test_deviation_past_the_log_span_truncates(self):
        # The Euler equations keep their solutions when density, momentum,
        # energy and pressure scale by one factor.  At 1e150 times the M = 20
        # Rankine-Hugoniot profile, an amplitude of 1e-304 survives only in
        # the zero y-momentum (a deviation near 1e-154), while the first step
        # moves the unconverged shock cells by about 1e149: the log-norm
        # rises by more than 600 and the series stops there.
        scale = 1e150
        base = FlowField(q=scale * init_normal_shock_rh(7, 3, 20.0, 0.1, gas=GAS).q)
        shock = normal_shock_bcs(20.0, GAS)
        bc = BoundaryConditionSet(left=BoundaryCondition.supersonic_inflow(scale * shock.left.state),
                                  right=BoundaryCondition.fixed_pressure_outflow(scale * shock.right.pressure),
                                  bottom=shock.bottom, top=shock.top)
        series = evolve_nonlinear(base, bc, compute_metrics(make_cartesian_grid(7, 3)), MUSCL, "hllc", GAS,
                                  steps=10, amplitude=1e-304)
        assert series.truncated and not series.diverged
        assert len(series.log_norm) == 2
        assert series.log_norm[0] < -350.0 and series.log_norm[1] - series.log_norm[0] > 600.0

    def test_overflowing_deviation_marks_the_series_diverged(self):
        # Gas at rest with density and pressure 4.7e153, perturbed by 20%:
        # every state is physical and every cell's norm finite, but the
        # deviation's sum of squares over the 36 cells overflows (by design,
        # so numpy's overflow warning is silenced).  The first step's
        # deviation is inf, and the series stops there, diverged.
        prim = np.tile([4.7e153, 0.0, 0.0, 4.7e153], (6, 6, 1))
        bc = BoundaryConditionSet(*(BoundaryCondition.periodic() for _ in range(4)))
        with np.errstate(over="ignore"):
            series = evolve_nonlinear(FlowField(q=prim_to_cons(prim, GAS)), bc,
                                      compute_metrics(make_cartesian_grid(6, 6)), FIRST, "hllc", GAS,
                                      steps=10, amplitude=0.2)
        assert series.diverged and not series.truncated
        assert series.t.tolist() == [0.0]
        assert series.log_norm.tolist() == [np.inf]

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


#: ``(q, residual_history)`` sha256 digests of each member of the ``sweep_small``
#: batch (11 cells, 500 steps, MUSCL/van Albada, epsilon 0.1), in the sweep's
#: order (each solver's members adjacent), recorded before the face kernels
#: moved to the component-major layout.  The march uses only + - * / sqrt,
#: min/max and selects, so the bytes hold on any IEEE machine.
PINNED_SWEEP_MARCH_DIGESTS = {
    (3.0, "hll"): (
        "56e34b2295b37706be679e20c4453e6fe6da2fe41731640a35ef895291ba68f6",
        "0513bb2f9955765a9a3698b8213200a0019ac233c468c73b44b83407915fede3",
    ),
    (20.0, "hll"): (
        "ee4f779649dbebae24db7341cb4712dcd7ff0b9ce1ca368da790a9e2548c8249",
        "a851069712dd2c8db37d641b8181c6ef698ff5073422263d5a681f33c8c1a8dd",
    ),
    (3.0, "hllc"): (
        "027c3beb8f1f3377ff34bd359f02c806d019cad335efd903ba93fedfafdf91d0",
        "0fd6eaee41b674228eadd8c1aa474d2b75afddd0d1420fa6e17a2da47451ef78",
    ),
    (20.0, "hllc"): (
        "658b47b06b813e9d6c1fb1a704c2b85f84dd7031e8d35312f6dfe8d6fffe3a37",
        "b4c5bea0756f21636fcaede583091bc3cd61bc0a01e8d6fc137c173b4887e82c",
    ),
    (3.0, "ausm_plus"): (
        "68d6f0c3da47cf0b8a20e80079ec1086a372d8efb8c13d6e6b130a72d494ff38",
        "6537ac25f2e9c399b0c7c78d1cf4b6e576333ddfcc2635f2fe55b5b57e0ad02f",
    ),
    (20.0, "ausm_plus"): (
        "9f05ba865f0231f2a0cb9e681a7e68bb42ac8ea0ed485f8bc634c8b6a56fef28",
        "30a8d4f5ca8c3c091e080e8aea22add7e99b31865f9e44f4406b29f00b6244ca",
    ),
    (3.0, "slau"): (
        "c00a76ecf2e6697d62ab441720ae53600644d77c9e374b18d1a7223b1ce32496",
        "a96a712fa253521547138a848bff854d44c8bbd53d6321cae607498d77cfb87d",
    ),
    (20.0, "slau"): (
        "9b7789e96f07bff2da64dacb282bd81ba849af26e287692d2ccfed2637d77dbe",
        "edc31331e94578abfd7fad164e762a7ac50820195e3726cd8a774251711f96f4",
    ),
}

#: sha256 of ``series.t`` of two nonlinear marches on their own 5x5 bases at
#: M=20, epsilon 0.1 (default 2000-step 1-D base, seed 20230614): every time
#: step is a minimum over the march's state, so a changed bit anywhere in the
#: march shows up in ``t``.
PINNED_NONLINEAR_T_DIGESTS = {
    ("hllc", "muscl", 600): "971ef6e567fc3937fb0123f3ef2ca72e8d3efd8b73f7ab8a7fc18550d041ec60",
    ("roe", "round", 100): "ba502c51137feeb0fe25b03750849141ac06099f6ece9290a79810fd9939e7df",
}


#: ``(q, residual_history)`` sha256 digests of the one-member 1-D march behind
#: ``validate_small``'s base (5 cells, 2000 steps, M=20, epsilon 0.1, HLLC,
#: MUSCL/van Albada), recorded before the march state moved to the
#: component-major layout.
PINNED_VALIDATE_MARCH_DIGESTS = (
    "a72422ef854b586ec77a14d17cfb0ecdc12269213d3c0782b7ffc05528a3e62e",
    "e79ca503e9d435e74c1036324966c62292f51835b3f855f9a1ddf5a60f767a4d",
)

#: The same digests for a three-member batch (11 cells, 50 steps, MUSCL/van
#: Albada, epsilon 0.1, CFL 4) whose middle member, M=20 HLLC, leaves the
#: physical state space at step 16; the outer members (M=6 HLLC, M=3 Roe)
#: march on with the state and solver column compacted around it.
PINNED_DROPOUT_MARCH = (
    ("2caf0bb9bd0c592dcdbad0ac982c6d2de2196a175926410785d7cc7ba441854d",
     "24630022b7fc50f7f6d655bbb812567cf4905f05a9453b1a46c857484fa8f0c5"),
    "1-D march left the physical state space at step 16",
    ("ed123d48e0c3ca772ba0d2eece4f45a2e84814689760dd33eac9633da09f5f1c",
     "33fd077165e78c6580332adb2aa9f7b2ef9fb9b7b3ac09fa6124ceb47c489279"),
)


def sha256(array):
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


class TestPinnedMarchBytes:
    """Byte gates on whole marches: 1-D batches and marches, and two nonlinear cross-checks."""

    def test_sweep_batch_members(self):
        machs, solvers = zip(*PINNED_SWEEP_MARCH_DIGESTS)
        batch = solve_1d_steady(11, list(machs), 0.1, 500, MUSCL, list(solvers))
        got = {key: (sha256(r.q), sha256(r.residual_history)) for key, r in zip(PINNED_SWEEP_MARCH_DIGESTS, batch)}
        assert got == PINNED_SWEEP_MARCH_DIGESTS

    def test_validate_base_march(self):
        res = solve_1d_steady(5, 20.0, 0.1, 2000, MUSCL, "hllc")
        assert (sha256(res.q), sha256(res.residual_history)) == PINNED_VALIDATE_MARCH_DIGESTS

    def test_batch_with_a_member_dropping_out(self):
        batch = solve_1d_steady(11, [6.0, 20.0, 3.0], 0.1, 50, MUSCL, ["hllc", "hllc", "roe"], cfl=4.0)
        got = tuple(str(r) if isinstance(r, EvolutionError) else (sha256(r.q), sha256(r.residual_history))
                    for r in batch)
        assert got == PINNED_DROPOUT_MARCH

    @pytest.mark.parametrize("solver,kind,steps", sorted(PINNED_NONLINEAR_T_DIGESTS))
    def test_nonlinear_time_axis(self, solver, kind, steps):
        scheme = ReconstructionScheme(kind=kind, limiter="van_albada")
        base, _ = make_base_flow(5, 5, 20.0, 0.1, scheme, solver)
        metrics = compute_metrics(make_cartesian_grid(5, 5))
        series = evolve_nonlinear(base, normal_shock_bcs(20.0, GAS), metrics, scheme, solver, GAS, steps=steps)
        assert len(series.t) == steps + 1 and not series.diverged
        assert sha256(series.t) == PINNED_NONLINEAR_T_DIGESTS[solver, kind, steps]


def shock_case(ni, nj):
    """A Rankine-Hugoniot M=20 base on ``ni x nj`` cells, its boundaries and metrics."""
    base = init_normal_shock_rh(ni, nj, 20.0, 0.1, gas=GAS)
    return base, normal_shock_bcs(20.0, GAS), compute_metrics(make_cartesian_grid(ni, nj))


class TestMarchErrorState:
    """Both explicit marches set numpy's error state around their step loop and give the caller's back.

    The caller's state here raises on divide and invalid, so a march that
    leaked its own silenced state, or left its kernels unsilenced, shows.
    """

    @staticmethod
    def restores(run):
        with np.errstate(divide="raise", invalid="raise"):
            before = np.geterr()
            result = run()
            assert np.geterr() == before
        return result

    def test_normal_returns(self):
        res = self.restores(lambda: solve_1d_steady(5, 20.0, 0.1, 50, MUSCL, "hllc"))
        assert res.residual_history.shape == (50,)
        base, bc, metrics = shock_case(5, 5)
        series = self.restores(lambda: evolve_nonlinear(base, bc, metrics, MUSCL, "hllc", GAS, steps=20))
        assert len(series.t) == 21 and not series.diverged

    def test_scalar_march_that_leaves_the_physical_states(self):
        def run():
            with pytest.raises(EvolutionError, match="at step 5$"):
                solve_1d_steady(11, 20.0, 0.1, 200, MUSCL, "hllc", cfl=5.0)

        self.restores(run)

    def test_nonlinear_march_that_diverges(self):
        base, _ = make_base_flow(7, 3, 20.0, 0.1, MUSCL, "hllc", oned_steps=50)
        metrics = compute_metrics(make_cartesian_grid(7, 3))
        series = self.restores(lambda: evolve_nonlinear(base, normal_shock_bcs(20.0, GAS), metrics, MUSCL, "hllc",
                                                        GAS, steps=50, cfl=3.0, amplitude=1e-2))
        assert series.diverged

    def test_an_error_inside_the_step_loop(self, monkeypatch):
        # Both loops take their time step from _wave_speed_sums; its third
        # call raises from inside the silenced block.
        calls = []
        wave_speed_sums = harness._wave_speed_sums

        def failing(*args):
            calls.append(None)
            if len(calls) == 3:
                raise RuntimeError("planted")
            return wave_speed_sums(*args)

        monkeypatch.setattr(harness, "_wave_speed_sums", failing)
        base, bc, metrics = shock_case(5, 5)
        for run in (lambda: solve_1d_steady(5, 20.0, 0.1, 10, MUSCL, "hllc"),
                    lambda: evolve_nonlinear(base, bc, metrics, MUSCL, "hllc", GAS, steps=10)):
            calls.clear()

            def raises(run=run):
                with pytest.raises(RuntimeError, match="^planted$"):
                    run()

            self.restores(raises)


class TestOneErrorStatePerMarch:
    """The number of ``np.errstate`` entries in a march does not grow with its step count."""

    @staticmethod
    def entries(monkeypatch, run) -> int:
        count = [0]

        class Counting(np.errstate):
            def __enter__(self):
                count[0] += 1
                return super().__enter__()

        with monkeypatch.context() as patch:
            patch.setattr(np, "errstate", Counting)
            run()
        return count[0]

    SCHEMES = {"first_order": FIRST, "muscl": MUSCL,
               "muscl_primitive": ReconstructionScheme(kind="muscl", limiter="van_albada", variables="primitive")}

    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    def test_1d_march(self, monkeypatch, scheme):
        def run(steps):
            res = solve_1d_steady(5, [20.0, 3.0], 0.1, steps, self.SCHEMES[scheme], ["hllc", "roe"])
            assert all(r.residual_history.shape == (steps,) for r in res)

        assert self.entries(monkeypatch, lambda: run(10)) == self.entries(monkeypatch, lambda: run(100))

    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    def test_nonlinear_march(self, monkeypatch, scheme):
        base, bc, metrics = shock_case(5, 5)

        def run(steps):
            series = evolve_nonlinear(base, bc, metrics, self.SCHEMES[scheme], "hllc", GAS, steps=steps)
            assert len(series.t) == steps + 1 and not series.diverged

        assert self.entries(monkeypatch, lambda: run(10)) == self.entries(monkeypatch, lambda: run(100))
