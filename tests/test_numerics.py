"""Limiters, reconstruction, kink diagnostics, and Riemann solver properties."""

import warnings

import numpy as np
import pytest

from shockstab import StateError
from shockstab.numerics import (
    LIMITERS,
    RECONSTRUCTION_KINDS,
    RIEMANN_SOLVERS,
    ReconstructionScheme,
    RoundParams,
    _FaceSide,
    _flux_ausm_plus,
    _flux_slau,
    _mach_split_m4,
    _pressure_split_p5,
    _reconstruct_stencil,
    _reconstruct_values,
    _riemann_flux,
    _side_signs,
    limiter_value,
    physical_flux,
    reconstruct_pair,
    reconstruction_kink_flags,
    riemann_flux,
    round_face_value,
)
from shockstab.state import GasModel, _primitive_columns, cons_to_prim, normal_shock_states, prim_to_cons

GAS = GasModel()

#: Solvers that reduce exactly to the one-sided flux when both states are
#: supersonic in the same direction.  SLAU's mass flux blends the two sides
#: even then, so it is checked for consistency only.
EXACT_UPWIND_SOLVERS = ("roe", "hll", "hllc", "hlle", "hllem", "van_leer_fvs", "ausm_plus")


def random_cons(rng, n):
    rho = rng.uniform(0.1, 5.0, n)
    u = rng.uniform(-3.0, 3.0, n)
    v = rng.uniform(-3.0, 3.0, n)
    p = rng.uniform(0.05, 4.0, n)
    return prim_to_cons(np.stack([rho, u, v, p], axis=-1), GAS)


def random_normals(rng, n):
    theta = rng.uniform(0.0, 2.0 * np.pi, n)
    return np.stack([np.cos(theta), np.sin(theta)], axis=-1)


def rotate_cons(cons, theta):
    c, s = np.cos(theta), np.sin(theta)
    out = cons.copy()
    out[..., 1] = c * cons[..., 1] - s * cons[..., 2]
    out[..., 2] = s * cons[..., 1] + c * cons[..., 2]
    return out


class TestLimiters:
    @pytest.mark.parametrize("name", LIMITERS)
    def test_unity_at_one(self, name):
        assert limiter_value(name, np.array(1.0)) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("name", LIMITERS)
    def test_zero_for_opposing_slopes(self, name):
        r = np.array([-5.0, -1.0, -1e-8, 0.0])
        assert np.array_equal(limiter_value(name, r), np.zeros(4))

    def test_hand_values(self):
        assert limiter_value("superbee", np.array(0.4)) == pytest.approx(0.8)
        assert limiter_value("superbee", np.array(0.7)) == pytest.approx(1.0)
        assert limiter_value("superbee", np.array(1.5)) == pytest.approx(1.5)
        assert limiter_value("superbee", np.array(5.0)) == pytest.approx(2.0)
        assert limiter_value("van_leer", np.array(3.0)) == pytest.approx(1.5)
        assert limiter_value("van_albada", np.array(2.0)) == pytest.approx(1.2)
        assert limiter_value("minmod", np.array(0.5)) == pytest.approx(0.5)
        assert limiter_value("minmod", np.array(4.0)) == pytest.approx(1.0)
        assert limiter_value("deng", np.array(0.1)) == pytest.approx(0.2)
        assert limiter_value("deng", np.array(1.0)) == pytest.approx(1.0)
        assert limiter_value("deng", np.array(2.5)) == pytest.approx(2.0)
        assert limiter_value("deng", np.array(10.0)) == pytest.approx(2.0)

    @pytest.mark.parametrize("name", ["superbee", "van_leer", "van_albada", "minmod"])
    def test_symmetry(self, name):
        # psi(r)/r == psi(1/r): reconstruction independent of sweep direction
        rng = np.random.default_rng(1)
        r = rng.uniform(0.05, 20.0, 200)
        assert np.allclose(limiter_value(name, r) / r, limiter_value(name, 1.0 / r), rtol=1e-13)

    @pytest.mark.parametrize("name", LIMITERS)
    def test_tvd_bounds(self, name):
        rng = np.random.default_rng(2)
        r = rng.uniform(-10.0, 10.0, 500)
        psi = limiter_value(name, r)
        assert np.all(psi >= 0.0)
        assert np.all(psi <= 2.0)
        pos = r > 0.0
        assert np.all(psi[pos] <= 2.0 * r[pos] + 1e-14)

    def test_unknown_limiter(self):
        with pytest.raises(StateError):
            limiter_value("koren", np.array(1.0))


class TestRoundFaceValue:
    def test_identity_outside_unit_interval(self):
        params = RoundParams()
        uh = np.array([-2.0, -0.3, 0.0, 1.1, 3.0])
        assert np.array_equal(round_face_value(uh, params), uh)

    def test_branch_boundary_value(self):
        # at uh = 0.5 the default weight is 1 and both branches give the
        # third-order value 1/3 + 5/12 = 3/4
        assert round_face_value(np.array(0.5), RoundParams()) == pytest.approx(0.75, abs=1e-15)

    def test_continuity_at_half(self):
        params = RoundParams()
        eps = 1e-9
        lo = round_face_value(np.array(0.5 - eps), params)
        hi = round_face_value(np.array(0.5 + eps), params)
        assert abs(hi - lo) < 1e-7

    def test_capped_by_bounds(self):
        # the blend lies above both bounds here, whatever the weight
        params = RoundParams(lambda1=0.5)
        assert round_face_value(np.array(0.2), params) == pytest.approx(0.4, abs=1e-15)
        assert round_face_value(np.array(0.8), params) == pytest.approx(0.9, abs=1e-15)

    def test_blends_linear_curve_with_weight(self):
        # uh = 0.4: weight 1/(1 + 1600*0.1**4)**2 between 1/3 + 5*uh/6 and 2*uh
        w = 1.0 / 1.16**2
        expected = w * (1.0 / 3.0 + 1.0 / 3.0) + (1.0 - w) * 0.8
        assert round_face_value(np.array(0.4), RoundParams()) == pytest.approx(expected, abs=1e-15)

    def test_bounded_on_unit_interval(self):
        rng = np.random.default_rng(3)
        uh = rng.uniform(1e-6, 1.0, 1000)
        out = round_face_value(uh, RoundParams())
        assert np.all(out >= uh - 1e-14)
        assert np.all(out <= 1.0 + 1e-14)


def linear_ramp_stencil(slopes, offsets):
    """Four conservative states sampled from per-component linear ramps."""
    slopes = np.asarray(slopes, dtype=float)
    offsets = np.asarray(offsets, dtype=float)
    return [offsets + k * slopes for k in range(4)]


def raw_faces(cells, scheme):
    """``(left, right)`` of ``_reconstruct_values`` over the ``(..., 4)`` stencil cells, before the fallback."""
    faces = _reconstruct_values(np.moveaxis(np.stack(cells), -1, 0), scheme)  # component-major
    return np.moveaxis(faces, 0, -1)


class TestReconstructPair:
    @pytest.mark.parametrize("kind", RECONSTRUCTION_KINDS)
    def test_uniform_data_is_untouched(self, kind):
        scheme = ReconstructionScheme(kind=kind)
        u = prim_to_cons(np.array([1.3, 0.4, -0.2, 0.9]), GAS)
        stack = [np.tile(u, (6, 1)) for _ in range(4)]
        left, right, fallback = reconstruct_pair(*stack, scheme, GAS)
        assert not fallback.any()
        assert np.array_equal(left, stack[1])
        assert np.array_equal(right, stack[2])

    @pytest.mark.parametrize("limiter", LIMITERS)
    def test_linear_data_hits_midpoint(self, limiter):
        # psi(1) = 1 makes every limiter exact on linear data (raw formula,
        # before the positivity fallback)
        scheme = ReconstructionScheme(kind="muscl", limiter=limiter)
        u0, u1, u2, u3 = linear_ramp_stencil([0.1, 0.05, -0.02, 0.2], [2.0, 0.3, 0.1, 5.0])
        left, right = raw_faces((u0, u1, u2, u3), scheme)
        mid = 0.5 * (u1 + u2)
        assert np.allclose(left, mid, rtol=1e-14)
        assert np.allclose(right, mid, rtol=1e-14)

    def test_round_linear_data_hits_midpoint(self):
        # monotone linear data sits at uh = 0.5 where the face value is 3/4
        # of the two-cell span, i.e. the face midpoint
        scheme = ReconstructionScheme(kind="round")
        u0, u1, u2, u3 = linear_ramp_stencil([0.1, 0.05, -0.02, 0.2], [2.0, 0.3, 0.1, 5.0])
        left, right, _ = reconstruct_pair(u0, u1, u2, u3, scheme, GAS)
        mid = 0.5 * (u1 + u2)
        assert np.allclose(left, mid, rtol=1e-13)
        assert np.allclose(right, mid, rtol=1e-13)

    def test_round_extremum_keeps_cell_value(self):
        # non-monotone data (uh outside (0,1]) falls back to the cell value
        scheme = ReconstructionScheme(kind="round")
        u0 = np.array([[1.0, 0.0, 0.0, 2.0]])
        u1 = np.array([[0.5, 0.0, 0.0, 2.0]])  # local minimum in rho
        u2 = np.array([[1.5, 0.0, 0.0, 2.0]])
        u3 = np.array([[1.6, 0.0, 0.0, 2.0]])
        left, _, _ = reconstruct_pair(u0, u1, u2, u3, scheme, GAS)
        assert left[0, 0] == u1[0, 0]

    @pytest.mark.parametrize("kind,limiter", [("muscl", lim) for lim in LIMITERS] + [("round", None)])
    def test_mirror_symmetry(self, kind, limiter):
        # raw formulas: the positivity fallback would replace many of these faces
        scheme = ReconstructionScheme(kind=kind, limiter=limiter or "van_albada")
        rng = np.random.default_rng(4)
        stack = [random_cons(rng, 30) for _ in range(4)]
        left, right = raw_faces(stack, scheme)
        m_left, m_right = raw_faces(stack[::-1], scheme)
        assert np.array_equal(m_left, right)
        assert np.array_equal(m_right, left)

    @pytest.mark.parametrize("limiter", LIMITERS)
    def test_bounded_on_monotone_data(self, limiter):
        # raw formula: the positivity fallback would replace most of these faces
        scheme = ReconstructionScheme(kind="muscl", limiter=limiter)
        rng = np.random.default_rng(5)
        base = np.sort(rng.uniform(0.5, 4.0, (50, 4, 4)), axis=1)  # increasing stencils
        u0, u1, u2, u3 = base[:, 0], base[:, 1], base[:, 2], base[:, 3]
        left, right = raw_faces((u0, u1, u2, u3), scheme)
        assert np.all(left >= u1 - 1e-12)
        assert np.all(left <= u2 + 1e-12)
        assert np.all(right >= u1 - 1e-12)
        assert np.all(right <= u2 + 1e-12)

    def test_positivity_fallback(self):
        # independently limited components conspire to a negative face
        # pressure: density drops, momentum rises, energy stays low
        u0 = np.array([[2.0, 0.1, 0.0, 0.3]])
        u1 = np.array([[1.0, 0.5, 0.0, 0.375]])
        u2 = np.array([[0.5, 0.9, 0.0, 0.85]])
        u3 = np.array([[0.25, 1.3, 0.0, 3.5]])
        scheme = ReconstructionScheme(kind="muscl", limiter="superbee")
        left_raw, _ = raw_faces((u0, u1, u2, u3), scheme)
        assert cons_to_prim(left_raw, GAS)[0, 3] < 0.0
        left, _, fallback = reconstruct_pair(u0, u1, u2, u3, scheme, GAS)
        assert np.array_equal(left, u1)
        assert fallback.tolist() == [True]

    def test_primitive_variable_mode(self):
        # ramps linear in the primitives reconstruct to the primitive midpoint
        scheme = ReconstructionScheme(kind="muscl", limiter="minmod", variables="primitive")
        prim = [np.array([[1.0 + 0.2 * k, 0.5 + 0.1 * k, -0.3, 1.0 + 0.5 * k]]) for k in range(4)]
        stack = [prim_to_cons(w, GAS) for w in prim]
        left, right, _ = reconstruct_pair(*stack, scheme, GAS)
        mid = 0.5 * (prim[1] + prim[2])
        assert np.allclose(cons_to_prim(left, GAS), mid, rtol=1e-14)
        assert np.allclose(cons_to_prim(right, GAS), mid, rtol=1e-14)

    def test_first_order_returns_cell_values(self):
        scheme = ReconstructionScheme(kind="first_order")
        rng = np.random.default_rng(6)
        stack = [random_cons(rng, 10) for _ in range(4)]
        left, right, fallback = reconstruct_pair(*stack, scheme, GAS)
        assert np.array_equal(left, stack[1])
        assert np.array_equal(right, stack[2])
        assert fallback.shape == (10,) and not fallback.any()

    @pytest.mark.parametrize("kind", RECONSTRUCTION_KINDS)
    def test_stencil_faces_and_primitives_give_the_public_flux(self, kind):
        # The positivity-fallback stencil of test_positivity_fallback beside
        # random ones: the private kernels pass the component-major sides and
        # their primitive columns, which come back unless the scheme is first
        # order or a face fell back, and the flux of what they pass has the
        # bits of the public flux of the public face states.
        rng = np.random.default_rng(13)
        stencil = [np.concatenate((u, random_cons(rng, 6))) for u in (
            [[2.0, 0.1, 0.0, 0.3]], [[1.0, 0.5, 0.0, 0.375]], [[0.5, 0.9, 0.0, 0.85]], [[0.25, 1.3, 0.0, 3.5]])]
        scheme = ReconstructionScheme(kind=kind, limiter="superbee")
        faces, primitives, fallback = _reconstruct_stencil(np.moveaxis(np.stack(stencil), -1, 0), scheme, GAS)
        left, right, public_fallback = reconstruct_pair(*stencil, scheme, GAS)
        assert fallback[0] == (kind == "muscl")
        assert fallback.tobytes() == public_fallback.tobytes()
        assert faces.shape == (4, 2, 7)
        assert np.moveaxis(faces, 0, -1).tobytes() == np.stack((left, right)).tobytes()
        assert (primitives is None) == (kind == "first_order" or fallback.any())
        if primitives is not None:
            assert np.stack(primitives).tobytes() == np.stack(_primitive_columns(faces, GAS)).tobytes()
        normal = random_normals(rng, 7)
        for solver in RIEMANN_SOLVERS:
            own = riemann_flux(solver, left, right, normal, GAS)
            flux = _riemann_flux(solver, faces, primitives, normal, GAS, primitives is None)
            assert flux.shape == (4, 7)
            assert np.moveaxis(flux, 0, -1).tobytes() == own.tobytes()

    def test_pair_is_a_plain_tuple_of_views_of_one_array(self):
        rng = np.random.default_rng(14)
        stencil = [random_cons(rng, 5) for _ in range(4)]
        for kind in RECONSTRUCTION_KINDS:
            pair = reconstruct_pair(*stencil, ReconstructionScheme(kind=kind), GAS)
            assert type(pair) is tuple and len(pair) == 3
            left, right, _ = pair
            assert left.base is not None and left.base is right.base

    def test_scheme_validation(self):
        with pytest.raises(StateError):
            ReconstructionScheme(kind="weno")
        with pytest.raises(StateError):
            ReconstructionScheme(kind="muscl", limiter="bad")
        with pytest.raises(StateError):
            ReconstructionScheme(variables="characteristic")
        assert not ReconstructionScheme(kind="first_order").is_second_order
        assert ReconstructionScheme(kind="round").is_second_order


class TestKinkFlags:
    def rho_stencil(self, *values):
        return [np.array([[v, 0.0, 0.0, 2.5]]) for v in values]

    def test_uniform_not_flagged(self):
        scheme = ReconstructionScheme(kind="muscl", limiter="van_albada")
        flags = reconstruction_kink_flags(*self.rho_stencil(1.0, 1.0, 1.0, 1.0), scheme, GAS)
        assert not flags[0]

    def test_exact_jump_not_flagged(self):
        # piecewise-constant data: zero variations are branch-stable
        scheme = ReconstructionScheme(kind="muscl", limiter="van_albada")
        flags = reconstruction_kink_flags(*self.rho_stencil(1.0, 1.0, 4.0, 4.0), scheme, GAS)
        assert not flags[0]

    def test_tiny_nonzero_variation_flagged(self):
        scheme = ReconstructionScheme(kind="muscl", limiter="van_albada")
        flags = reconstruction_kink_flags(*self.rho_stencil(1.0, 1.0 + 1e-9, 4.0, 4.1), scheme, GAS)
        assert flags[0]

    def test_ratio_near_limiter_kink(self):
        stencil = self.rho_stencil(1.0, 2.0, 3.0 + 1e-7, 4.0)  # r = 1 + 1e-7
        minmod = ReconstructionScheme(kind="muscl", limiter="minmod")
        assert reconstruction_kink_flags(*stencil, minmod, GAS)[0]
        # van Albada is smooth at r = 1, so the same data passes
        smooth = ReconstructionScheme(kind="muscl", limiter="van_albada")
        assert not reconstruction_kink_flags(*stencil, smooth, GAS)[0]

    def test_round_branch_boundary_flagged(self):
        # uh = 0.5 exactly: normalized value on the branch switch
        scheme = ReconstructionScheme(kind="round")
        flags = reconstruction_kink_flags(*self.rho_stencil(1.0, 2.0, 3.0, 5.0), scheme, GAS)
        assert flags[0]

    def test_round_interior_not_flagged(self):
        scheme = ReconstructionScheme(kind="round")
        flags = reconstruction_kink_flags(*self.rho_stencil(1.0, 2.0, 2.6, 5.0), scheme, GAS)
        assert not flags[0]

    def test_first_order_never_flagged(self):
        scheme = ReconstructionScheme(kind="first_order")
        flags = reconstruction_kink_flags(*self.rho_stencil(1.0, 1.0 + 1e-9, 4.0, 4.1), scheme, GAS)
        assert not flags[0]


class TestPhysicalFlux:
    def test_hand_value(self):
        cons = prim_to_cons(np.array([2.0, 3.0, 1.0, 5.0]), GAS)
        flux = physical_flux(cons, np.array([1.0, 0.0]), GAS)
        e_tot = 5.0 / 0.4 + 0.5 * 2.0 * 10.0
        assert np.allclose(flux, [6.0, 23.0, 6.0, 3.0 * (e_tot + 5.0)], rtol=1e-15)

    def test_odd_in_normal(self):
        rng = np.random.default_rng(7)
        cons = random_cons(rng, 20)
        n = random_normals(rng, 20)
        assert np.allclose(
            physical_flux(cons, n, GAS), -physical_flux(cons, -n, GAS), rtol=1e-15, atol=1e-300
        )


class TestRiemannFlux:
    @pytest.mark.parametrize("solver", RIEMANN_SOLVERS)
    def test_consistency(self, solver):
        rng = np.random.default_rng(8)
        cons = random_cons(rng, 200)
        n = random_normals(rng, 200)
        num = riemann_flux(solver, cons, cons, n, GAS)
        exact = physical_flux(cons, n, GAS)
        scale = np.max(np.abs(exact), axis=-1, keepdims=True)
        assert np.max(np.abs(num - exact) / scale) <= 1e-10

    @pytest.mark.parametrize("solver", RIEMANN_SOLVERS)
    def test_rotational_covariance(self, solver):
        rng = np.random.default_rng(9)
        left = random_cons(rng, 50)
        right = random_cons(rng, 50)
        n = random_normals(rng, 50)
        theta = rng.uniform(0.0, 2.0 * np.pi, 50)
        c, s = np.cos(theta), np.sin(theta)
        n_rot = np.stack([c * n[:, 0] - s * n[:, 1], s * n[:, 0] + c * n[:, 1]], axis=-1)
        flux = riemann_flux(solver, left, right, n, GAS)
        flux_rot = riemann_flux(
            solver, rotate_cons(left, theta), rotate_cons(right, theta), n_rot, GAS
        )
        expected = rotate_cons(flux, theta)
        scale = np.max(np.abs(flux), axis=-1, keepdims=True) + 1e-30
        assert np.max(np.abs(flux_rot - expected) / scale) < 1e-12

    @pytest.mark.parametrize("solver", EXACT_UPWIND_SOLVERS)
    def test_supersonic_upwinding(self, solver):
        rng = np.random.default_rng(10)
        prim_l = np.stack(
            [rng.uniform(0.5, 2.0, 30), rng.uniform(3.0, 6.0, 30),
             rng.uniform(-0.5, 0.5, 30), rng.uniform(0.5, 1.5, 30)], axis=-1)
        prim_r = prim_l.copy()
        prim_r[:, 0] *= rng.uniform(0.8, 1.2, 30)
        prim_r[:, 3] *= rng.uniform(0.8, 1.2, 30)
        left = prim_to_cons(prim_l, GAS)
        right = prim_to_cons(prim_r, GAS)
        n = np.tile([1.0, 0.0], (30, 1))
        flux = riemann_flux(solver, left, right, n, GAS)
        expected = physical_flux(left, n, GAS)
        scale = np.max(np.abs(expected), axis=-1, keepdims=True)
        assert np.max(np.abs(flux - expected) / scale) < 1e-12
        # reversed flow upwinds from the other side
        flux_rev = riemann_flux(solver, rotate_cons(right, np.pi), rotate_cons(left, np.pi), n, GAS)
        expected_rev = physical_flux(rotate_cons(left, np.pi), n, GAS)
        assert np.max(np.abs(flux_rev - expected_rev) / scale) < 1e-12

    @pytest.mark.parametrize("solver", ["roe", "hllc"])
    def test_stationary_contact_preserved(self, solver):
        # equal pressure and zero normal speed: flux must be pure pressure
        left = prim_to_cons(np.array([[1.0, 0.0, 0.7, 2.0]]), GAS)
        right = prim_to_cons(np.array([[3.0, 0.0, -0.4, 2.0]]), GAS)
        flux = riemann_flux(solver, left, right, np.array([[1.0, 0.0]]), GAS)
        assert np.allclose(flux, [[0.0, 2.0, 0.0, 0.0]], atol=1e-14)

    def test_hll_diffuses_contact(self):
        # the two-wave average cannot hold a contact: nonzero mass flux leaks
        left = prim_to_cons(np.array([[1.0, 0.0, 0.0, 2.0]]), GAS)
        right = prim_to_cons(np.array([[3.0, 0.0, 0.0, 2.0]]), GAS)
        flux = riemann_flux("hll", left, right, np.array([[1.0, 0.0]]), GAS)
        assert abs(flux[0, 0]) > 1e-3

    def test_roe_captures_stationary_shock(self):
        up, down = normal_shock_states(3.0, GAS)
        left = prim_to_cons(up, GAS)[None, :]
        right = prim_to_cons(down, GAS)[None, :]
        n = np.array([[1.0, 0.0]])
        flux = riemann_flux("roe", left, right, n, GAS)
        exact = physical_flux(left, n, GAS)
        assert np.allclose(flux, exact, rtol=1e-12, atol=1e-14)
        # HLL smears the same shock: its flux deviates from the exact one
        flux_hll = riemann_flux("hll", left, right, n, GAS)
        assert np.max(np.abs(flux_hll - exact)) > 1e-3

    def test_rejects_unknown_solver(self):
        u = prim_to_cons(np.array([1.0, 0.0, 0.0, 1.0]), GAS)
        with pytest.raises(StateError):
            riemann_flux("godunov", u, u, np.array([1.0, 0.0]), GAS)

    @staticmethod
    def assert_members_match_one_solver_calls(names):
        rng = np.random.default_rng(12)
        rows = 7 * len(names)
        left, right, n = random_cons(rng, rows), random_cons(rng, rows), random_normals(rng, rows)
        flux = riemann_flux(names, left, right, n, GAS)
        for k, name in enumerate(names):
            own = slice(7 * k, 7 * (k + 1))
            assert np.array_equal(flux[own], riemann_flux(name, left[own], right[own], n[own], GAS))

    def test_member_runs_equal_one_solver_calls(self):
        # One name per member, members outer: each member's rows get exactly
        # the flux of a one-solver call, interleaved runs included.
        self.assert_members_match_one_solver_calls(["hll", "roe", "hll", *RIEMANN_SOLVERS, "slau"])

    @pytest.mark.parametrize("names", [["ausm_plus", "hllc", "slau", "van_leer_fvs", "ausm_plus"], ["slau", "ausm_plus"]])
    def test_physical_fluxes_of_the_inner_runs(self, names):
        # Each run's wave model forms its own rows' physical fluxes where it
        # needs them; runs of the solvers that need none sit between them.
        self.assert_members_match_one_solver_calls(names)

    @pytest.mark.parametrize("solver", RIEMANN_SOLVERS)
    def test_members_of_one_solver_equal_the_single_name(self, solver):
        # Members that all name one solver form one run over the whole
        # batch, as the single name does, on a (members, faces) batch too.
        rng = np.random.default_rng(13)
        left, right = random_cons(rng, (3, 5)), random_cons(rng, (3, 5))
        n = random_normals(rng, (3, 5))
        flux = riemann_flux(solver, left, right, n, GAS)
        assert riemann_flux((solver,) * 3, left, right, n, GAS).tobytes() == flux.tobytes()
        assert riemann_flux([solver] * 3, left, right, n, GAS).tobytes() == flux.tobytes()

    def test_member_names_must_split_rows_evenly(self):
        u = prim_to_cons(np.array([[1.0, 0.5, 0.0, 1.0]] * 10), GAS)
        with pytest.raises(StateError, match="10 face rows do not split evenly among 3 solver members"):
            riemann_flux(["roe", "hll", "hllc"], u, u, np.array([[1.0, 0.0]] * 10), GAS)
        with pytest.raises(StateError, match="unknown solver 'godunov'"):
            riemann_flux(["roe", "godunov"], u, u, np.array([[1.0, 0.0]] * 10), GAS)

    def test_non_physical_state_names_its_members_solver(self):
        good = prim_to_cons(np.array([[1.0, 0.5, 0.0, 1.0]] * 6), GAS)
        bad = good.copy()
        bad[4:, 0] = 0.0
        with pytest.raises(StateError, match="^2 non-physical right state\\(s\\) passed to solver 'slau'$"):
            riemann_flux(["hll", "roe", "slau"], good, bad, np.array([[1.0, 0.0]] * 6), GAS)

    def test_rejects_unphysical_state(self):
        u = prim_to_cons(np.array([[1.0, 0.0, 0.0, 1.0]]), GAS)
        bad = u.copy()
        bad[0, 3] = 0.0  # zero total energy -> negative pressure
        with pytest.raises(StateError):
            riemann_flux("roe", u, bad, np.array([[1.0, 0.0]]), GAS)

    @pytest.mark.parametrize("solver", ["roe", "hlle", "hllem"])
    def test_unvalidated_negative_pressure_fails_the_roe_average(self, solver):
        # Unvalidated, a uniform state of negative pressure reaches the Roe
        # average, whose squared sound speed is then gamma p / rho < 0.
        u = prim_to_cons(np.array([[1.0, 0.5, 0.0, -1.0]] * 2), GAS)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StateError, match="^interface averaging produced a non-positive sound speed$"):
                riemann_flux(solver, u, u, np.array([[1.0, 0.0]] * 2), GAS, validate=False)

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("momentum", [0.0, 0.5])
    def test_zero_density_names_side_and_count_without_warning(self, side, momentum):
        good = prim_to_cons(np.array([[1.0, 0.5, 0.0, 1.0]] * 3), GAS)
        bad = good.copy()
        bad[1] = [0.0, momentum, 0.0, 1.0]
        left, right = (bad, good) if side == "left" else (good, bad)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StateError, match=f"^1 non-physical {side} state\\(s\\) passed to solver 'hllc'$"):
                riemann_flux("hllc", left, right, np.array([[1.0, 0.0]] * 3), GAS)


# ---------------------------------------------------------------------------
# AUSM+ and SLAU on the side axis
# ---------------------------------------------------------------------------

# The one-side-at-a-time formulas the side-axis kernels replaced, kept as the
# reference they must reproduce bit for bit.


def one_sided_m4(m, sign):
    sub = sign * (0.25 * (m + sign) ** 2 + 0.125 * (m * m - 1.0) ** 2)
    sup = 0.5 * (m + sign * np.abs(m))
    return np.where(np.abs(m) >= 1.0, sup, sub)


def one_sided_p5(m, sign, alpha=0.1875):
    sub = 0.25 * (m + sign) ** 2 * (2.0 - sign * m) + sign * alpha * m * (m * m - 1.0) ** 2
    sup = 0.5 * (1.0 + sign * np.sign(m))
    return np.where(np.abs(m) >= 1.0, sup, sub)


def one_sided_convection(L, R, mdot, p_half):
    one = np.ones_like(mdot)
    psi_l = np.stack((one, L.qn, L.qt, L.H), axis=-1)
    psi_r = np.stack((one, R.qn, R.qt, R.H), axis=-1)
    conv = 0.5 * (mdot + np.abs(mdot))[..., None] * psi_l + 0.5 * (mdot - np.abs(mdot))[..., None] * psi_r
    zero = np.zeros_like(mdot)
    return conv + np.stack((zero, p_half, zero, zero), axis=-1)


def one_sided_ausm_plus(S, gas):
    L, R = S.sides()
    g = gas.gamma
    a_crit2_l = 2.0 * (g - 1.0) / (g + 1.0) * L.H
    a_crit2_r = 2.0 * (g - 1.0) / (g + 1.0) * R.H
    a_hat_l = a_crit2_l / np.maximum(np.sqrt(a_crit2_l), np.abs(L.qn))
    a_hat_r = a_crit2_r / np.maximum(np.sqrt(a_crit2_r), np.abs(R.qn))
    a_half = np.minimum(a_hat_l, a_hat_r)
    ml, mr = L.qn / a_half, R.qn / a_half
    m_half = one_sided_m4(ml, +1.0) + one_sided_m4(mr, -1.0)
    p_half = one_sided_p5(ml, +1.0) * L.p + one_sided_p5(mr, -1.0) * R.p
    mdot = a_half * (np.maximum(m_half, 0.0) * L.rho + np.minimum(m_half, 0.0) * R.rho)
    return one_sided_convection(L, R, mdot, p_half)


def one_sided_slau(S, gas):
    L, R = S.sides()
    a_bar = 0.5 * (L.a + R.a)
    speed2 = 0.5 * (L.qn * L.qn + L.qt * L.qt + R.qn * R.qn + R.qt * R.qt)
    chi = (1.0 - np.minimum(1.0, np.sqrt(speed2) / a_bar)) ** 2
    ml, mr = L.qn / a_bar, R.qn / a_bar
    g_fac = -np.maximum(np.minimum(ml, 0.0), -1.0) * np.minimum(np.maximum(mr, 0.0), 1.0)
    vn_bar = (L.rho * np.abs(L.qn) + R.rho * np.abs(R.qn)) / (L.rho + R.rho)
    vn_plus = (1.0 - g_fac) * vn_bar + g_fac * np.abs(L.qn)
    vn_minus = (1.0 - g_fac) * vn_bar + g_fac * np.abs(R.qn)
    mdot = 0.5 * (L.rho * (L.qn + vn_plus) + R.rho * (R.qn - vn_minus) - (chi / a_bar) * (R.p - L.p))
    beta_p = one_sided_p5(ml, +1.0, alpha=0.0)
    beta_m = one_sided_p5(mr, -1.0, alpha=0.0)
    p_half = (0.5 * (L.p + R.p) + 0.5 * (beta_p - beta_m) * (L.p - R.p)
              + (1.0 - chi) * (beta_p + beta_m - 1.0) * 0.5 * (L.p + R.p))
    return one_sided_convection(L, R, mdot, p_half)


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


#: Mach numbers below, at and above |M| = 1 (exactly +-1 included), and +-0.
SPLIT_MACHS = np.array([-3.0, -1.0 - 2.0 ** -52, -1.0, -1.0 + 2.0 ** -53, -0.7, -1e-300, -0.0, 0.0, 1e-300, 0.3,
                        1.0 - 2.0 ** -53, 1.0, 1.0 + 2.0 ** -52, 2.5])


class TestSideAxisSplits:
    @pytest.mark.parametrize("alpha", [0.1875, 0.0])
    def test_split_polynomials_match_one_sided_formulas(self, alpha):
        # Both sides see every Mach number, so each sign meets |M| < 1,
        # |M| = 1 exactly, |M| > 1 and both signed zeros.
        m = np.stack((SPLIT_MACHS, SPLIT_MACHS[::-1]))
        sign = _side_signs(m.ndim)
        assert same_bits(_mach_split_m4(m, sign), np.stack((one_sided_m4(m[0], 1.0), one_sided_m4(m[1], -1.0))))
        assert same_bits(_pressure_split_p5(m, sign, alpha),
                         np.stack((one_sided_p5(m[0], 1.0, alpha), one_sided_p5(m[1], -1.0, alpha))))

    @pytest.mark.parametrize("kernel,reference", [(_flux_ausm_plus, one_sided_ausm_plus), (_flux_slau, one_sided_slau)])
    def test_flux_matches_one_sided_formulas(self, kernel, reference):
        # Sub- and supersonic faces of either direction, and faces whose
        # normal speed is +0.0 or -0.0 on one or both sides.
        rng = np.random.default_rng(60)
        n = 64
        prim_l, prim_r = (np.stack([rng.uniform(0.3, 2.0, n), rng.uniform(-4.0, 4.0, n), rng.uniform(-1.0, 1.0, n),
                                    rng.uniform(0.05, 2.0, n)], axis=-1) for _ in range(2))
        prim_l[:8, 1:3] = 0.0
        prim_r[4:12, 1:3] = 0.0
        prim_l[:4, 1] = -0.0
        normal = random_normals(rng, n)
        normal[:12] = [1.0, -0.0]
        stack = np.moveaxis(np.array((prim_to_cons(prim_l, GAS), prim_to_cons(prim_r, GAS))), -1, 0)
        S = _FaceSide.split(stack, _primitive_columns(stack, GAS), normal[..., 0], normal[..., 1], GAS)
        assert ((S.qn == 0.0) & np.signbit(S.qn)).any() and ((S.qn == 0.0) & ~np.signbit(S.qn)).any()
        assert (np.abs(S.qn / S.a) >= 1.0).any() and (np.abs(S.qn / S.a) < 1.0).any()
        assert same_bits(kernel(S, GAS).T, reference(S, GAS))  # the kernels' fluxes are component-major
