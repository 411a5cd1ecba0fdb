"""Boundary ghosts, their linearization, and the finite-volume residual."""

import hashlib
import warnings

import numpy as np
import pytest

from shockstab import StateError
from shockstab.mesh import compute_metrics, make_annular_grid, make_cartesian_grid
from shockstab.numerics import RIEMANN_SOLVERS, ReconstructionScheme, reconstruct_pair, riemann_flux
from shockstab.residual import (
    BoundaryCondition,
    BoundaryConditionSet,
    GhostField,
    _exit_pressure_state,
    _frame_rows,
    _frame_source_jacobian,
    _ghost_table,
    _march_map,
    _residual_map,
    _split_faces,
    _stencil_rows,
    face_reconstruction,
    fill_ghosts,
    ghost_dependency,
    normal_shock_bcs,
    residual,
)
from shockstab.state import (
    FlowField,
    GasModel,
    _primitive_columns,
    cons_to_prim,
    init_normal_shock_rh,
    normal_shock_states,
    prim_to_cons,
)
from shockstab.mesh import Grid

GAS = GasModel()


def zero_gradient_bcs():
    return BoundaryConditionSet(
        left=BoundaryCondition.zero_gradient(),
        right=BoundaryCondition.zero_gradient(),
        bottom=BoundaryCondition.zero_gradient(),
        top=BoundaryCondition.zero_gradient(),
    )


def periodic_bcs():
    return BoundaryConditionSet(
        left=BoundaryCondition.periodic(),
        right=BoundaryCondition.periodic(),
        bottom=BoundaryCondition.periodic(),
        top=BoundaryCondition.periodic(),
    )


def smooth_field(ni, nj, seed=0, scale=0.15):
    """Physical field with smooth seeded variation about a supersonic base."""
    rng = np.random.default_rng(seed)
    prim = np.empty((ni, nj, 4))
    for c, base in enumerate([1.0, 2.0, 0.1, 0.9]):
        amp = scale * abs(base) if base else scale
        prim[:, :, c] = base + amp * rng.uniform(-1.0, 1.0, (ni, nj))
    return FlowField(q=prim_to_cons(prim, GAS))


def perturbed_cartesian(ni, nj, seed=11, amp=0.12):
    grid = make_cartesian_grid(ni, nj)
    rng = np.random.default_rng(seed)
    x = grid.x.copy()
    y = grid.y.copy()
    x[1:-1, 1:-1] += amp * rng.uniform(-1.0, 1.0, x[1:-1, 1:-1].shape)
    y[1:-1, 1:-1] += amp * rng.uniform(-1.0, 1.0, y[1:-1, 1:-1].shape)
    return Grid(x=x, y=y)


class TestBoundaryCondition:
    def test_unknown_kind(self):
        with pytest.raises(StateError):
            BoundaryCondition(kind="farfield")

    def test_inflow_requires_state(self):
        with pytest.raises(StateError):
            BoundaryCondition(kind="supersonic_inflow")
        with pytest.raises(StateError):
            BoundaryCondition.supersonic_inflow(np.zeros(3))
        with pytest.raises(StateError):
            BoundaryCondition.supersonic_inflow(np.array([1.0, 0.0, 0.0, -1.0]))

    def test_state_only_for_inflow(self):
        with pytest.raises(StateError):
            BoundaryCondition(kind="zero_gradient", state=np.ones(4))

    def test_pressure_validation(self):
        with pytest.raises(StateError):
            BoundaryCondition(kind="fixed_pressure_outflow")
        with pytest.raises(StateError):
            BoundaryCondition.fixed_pressure_outflow(-0.5)
        with pytest.raises(StateError):
            BoundaryCondition(kind="slip_wall", pressure=1.0)

    def test_member_values(self):
        # A side holds one inflow state and one exit pressure: values per
        # member, even physical ones, are rejected.
        states = prim_to_cons(np.array([[1.0, 2.0, 0.0, 0.5], [1.0, 3.0, 0.0, 0.2]]), GAS)
        for state in (states, np.ones((2, 2, 4))):
            with pytest.raises(StateError, match="inflow state must have shape"):
                BoundaryCondition.supersonic_inflow(state)
        for pressure in (np.array([1.0, 0.5]), np.array([1.0, -0.5]), np.array([1.0, np.nan])):
            with pytest.raises(StateError):
                BoundaryCondition(kind="fixed_pressure_outflow", pressure=pressure)

    def test_periodic_must_pair(self):
        with pytest.raises(StateError):
            BoundaryConditionSet(
                left=BoundaryCondition.periodic(),
                right=BoundaryCondition.zero_gradient(),
                bottom=BoundaryCondition.zero_gradient(),
                top=BoundaryCondition.zero_gradient(),
            )

    def test_normal_shock_defaults(self):
        bcs = normal_shock_bcs(3.0, GAS)
        up, down = normal_shock_states(3.0, GAS)
        assert bcs.left.kind == "supersonic_inflow"
        assert np.allclose(bcs.left.state, prim_to_cons(up, GAS), rtol=1e-15)
        assert bcs.right.kind == "fixed_pressure_outflow"
        assert bcs.right.pressure == pytest.approx(down[3], rel=1e-15)
        assert bcs.bottom.kind == "periodic"
        assert bcs.top.kind == "periodic"


class TestFillGhosts:
    def setup_method(self):
        self.ni, self.nj = 5, 4
        self.metrics = compute_metrics(make_cartesian_grid(self.ni, self.nj))
        self.field = smooth_field(self.ni, self.nj, seed=1)

    def test_interior_is_embedded(self):
        ghosts = fill_ghosts(self.field, zero_gradient_bcs(), self.metrics, GAS)
        assert ghosts.ext.shape == (self.ni + 4, self.nj + 4, 4)
        assert np.array_equal(ghosts.interior, self.field.q)
        assert np.all(np.isfinite(ghosts.ext))

    def test_inflow_layers_are_frozen(self):
        state = prim_to_cons(np.array([1.0, 2.5, 0.0, 0.9]), GAS)
        bcs = BoundaryConditionSet(
            left=BoundaryCondition.supersonic_inflow(state),
            right=BoundaryCondition.zero_gradient(),
            bottom=BoundaryCondition.zero_gradient(),
            top=BoundaryCondition.zero_gradient(),
        )
        ext = fill_ghosts(self.field, bcs, self.metrics, GAS).ext
        assert np.allclose(ext[0, 2:-2], state, rtol=1e-15)
        assert np.allclose(ext[1, 2:-2], state, rtol=1e-15)

    def test_zero_gradient_replicates_adjacent(self):
        ext = fill_ghosts(self.field, zero_gradient_bcs(), self.metrics, GAS).ext
        q = self.field.q
        assert np.array_equal(ext[1, 2:-2], q[0])
        assert np.array_equal(ext[0, 2:-2], q[0])
        assert np.array_equal(ext[-1, 2:-2], q[-1])
        assert np.array_equal(ext[2:-2, 1], q[:, 0])
        assert np.array_equal(ext[2:-2, -1], q[:, -1])

    def test_exit_pressure_replaces_pressure_only(self):
        bcs = BoundaryConditionSet(
            left=BoundaryCondition.zero_gradient(),
            right=BoundaryCondition.fixed_pressure_outflow(0.75),
            bottom=BoundaryCondition.zero_gradient(),
            top=BoundaryCondition.zero_gradient(),
        )
        ext = fill_ghosts(self.field, bcs, self.metrics, GAS).ext
        ghost_prim = cons_to_prim(ext[-2, 2:-2], GAS)
        inner_prim = cons_to_prim(self.field.q[-1], GAS)
        assert np.allclose(ghost_prim[:, 3], 0.75, rtol=1e-15)
        assert np.allclose(ghost_prim[:, :3], inner_prim[:, :3], rtol=1e-14)

    def test_slip_wall_mirrors_momentum(self):
        bcs = BoundaryConditionSet(
            left=BoundaryCondition.zero_gradient(),
            right=BoundaryCondition.zero_gradient(),
            bottom=BoundaryCondition.slip_wall(),
            top=BoundaryCondition.zero_gradient(),
        )
        ext = fill_ghosts(self.field, bcs, self.metrics, GAS).ext
        q = self.field.q
        # bottom wall of a Cartesian grid has normal (0, 1): flip my only,
        # layer k mirrors interior cell k
        for layer, cell in ((1, 0), (0, 1)):
            assert np.allclose(ext[2:-2, layer, 0], q[:, cell, 0], rtol=1e-15)
            assert np.allclose(ext[2:-2, layer, 1], q[:, cell, 1], rtol=1e-15)
            assert np.allclose(ext[2:-2, layer, 2], -q[:, cell, 2], rtol=1e-15)
            assert np.allclose(ext[2:-2, layer, 3], q[:, cell, 3], rtol=1e-15)

    def test_periodic_wraps(self):
        ext = fill_ghosts(self.field, periodic_bcs(), self.metrics, GAS).ext
        q = self.field.q
        assert np.array_equal(ext[1, 2:-2], q[-1])
        assert np.array_equal(ext[0, 2:-2], q[-2])
        assert np.array_equal(ext[-2, 2:-2], q[0])
        assert np.array_equal(ext[-1, 2:-2], q[1])
        assert np.array_equal(ext[2:-2, 1], q[:, -1])
        assert np.array_equal(ext[2:-2, 0], q[:, -2])

    def test_periodic_single_strip(self):
        # one cell across the periodic direction wraps onto itself
        metrics = compute_metrics(make_cartesian_grid(4, 1))
        field = smooth_field(4, 1, seed=2)
        bcs = BoundaryConditionSet(
            left=BoundaryCondition.zero_gradient(),
            right=BoundaryCondition.zero_gradient(),
            bottom=BoundaryCondition.periodic(),
            top=BoundaryCondition.periodic(),
        )
        ext = fill_ghosts(field, bcs, metrics, GAS).ext
        assert np.array_equal(ext[2:-2, 0], field.q[:, 0])
        assert np.array_equal(ext[2:-2, 1], field.q[:, 0])
        assert np.array_equal(ext[2:-2, -1], field.q[:, 0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(StateError):
            fill_ghosts(smooth_field(3, 3), zero_gradient_bcs(), self.metrics, GAS)

    def test_slip_wall_needs_two_cells_across(self):
        # a one-cell side has no second cell to mirror into the outer layer
        metrics = compute_metrics(make_cartesian_grid(1, 4))
        field = smooth_field(1, 4, seed=2)
        bcs = BoundaryConditionSet(
            left=BoundaryCondition.slip_wall(),
            right=BoundaryCondition.slip_wall(),
            bottom=BoundaryCondition.periodic(),
            top=BoundaryCondition.periodic(),
        )
        with pytest.raises(StateError, match="left"):
            fill_ghosts(field, bcs, metrics, GAS)
        with pytest.raises(StateError, match="left"):
            ghost_dependency(field, bcs, metrics, GAS)


class TestGhostDependency:
    def all_kinds_bcs(self, mach=2.5):
        up, _ = normal_shock_states(mach, GAS)
        return BoundaryConditionSet(
            left=BoundaryCondition.supersonic_inflow(prim_to_cons(up, GAS)),
            right=BoundaryCondition.fixed_pressure_outflow(0.8),
            bottom=BoundaryCondition.slip_wall(),
            top=BoundaryCondition.zero_gradient(),
        )

    def test_interior_identity(self):
        metrics = compute_metrics(make_cartesian_grid(4, 3))
        field = smooth_field(4, 3, seed=3)
        dep, jac = ghost_dependency(field, self.all_kinds_bcs(), metrics, GAS)
        ii, jj = np.meshgrid(np.arange(4), np.arange(3), indexing="ij")
        assert np.array_equal(dep[2:-2, 2:-2], jj * 4 + ii)
        assert np.allclose(jac[2:-2, 2:-2], np.eye(4), rtol=1e-15)

    @pytest.mark.parametrize("shape", [(6, 3), (5, 4)])
    def test_rejects_metrics_of_another_grid(self, shape):
        field = smooth_field(5, 3, seed=3)
        metrics = compute_metrics(make_cartesian_grid(*shape))
        message = f"^metrics are {shape[0]} x {shape[1]} but field is 5 x 3$"
        for fn in (fill_ghosts, ghost_dependency):
            with pytest.raises(StateError, match=message):
                fn(field, self.all_kinds_bcs(), metrics, GAS)

    def test_inflow_has_no_dependency(self):
        metrics = compute_metrics(make_cartesian_grid(4, 3))
        field = smooth_field(4, 3, seed=3)
        dep, jac = ghost_dependency(field, self.all_kinds_bcs(), metrics, GAS)
        assert np.all(dep[0:2, 2:-2] == -1)
        assert np.all(jac[0:2, 2:-2] == 0.0)

    def test_slip_wall_jacobian_is_reflection(self):
        grid = perturbed_cartesian(4, 3, seed=4, amp=0.1)
        metrics = compute_metrics(grid)
        field = smooth_field(4, 3, seed=5)
        dep, jac = ghost_dependency(field, self.all_kinds_bcs(), metrics, GAS)
        normals = metrics.jface_normal[:, 0]
        for i in range(4):
            nx, ny = normals[i]
            expected = np.eye(4)
            expected[1, 1] = 1.0 - 2.0 * nx * nx
            expected[1, 2] = expected[2, 1] = -2.0 * nx * ny
            expected[2, 2] = 1.0 - 2.0 * ny * ny
            assert np.allclose(jac[i + 2, 1], expected, rtol=1e-14)
            assert np.allclose(jac[i + 2, 0], expected, rtol=1e-14)
            assert dep[i + 2, 1] == 0 * 4 + i
            assert dep[i + 2, 0] == 1 * 4 + i

    @pytest.mark.parametrize("case", ["mixed", "periodic", "strip"])
    def test_linearization_matches_refill(self, case):
        # perturb one interior cell and compare the predicted ghost response
        # against a central difference of fill_ghosts; "strip" is the 1-D
        # march's ni x 1 strip, periodic one cell across
        if case == "strip":
            ni, nj = 6, 1
            metrics = compute_metrics(make_cartesian_grid(ni, nj))
            bcs = normal_shock_bcs(2.5, GAS)
        else:
            ni, nj = 4, 3
            metrics = compute_metrics(perturbed_cartesian(ni, nj, seed=6, amp=0.08))
            bcs = self.all_kinds_bcs() if case == "mixed" else periodic_bcs()
        field = smooth_field(ni, nj, seed=7)
        dep, jac = ghost_dependency(field, bcs, metrics, GAS)
        rng = np.random.default_rng(8)
        mask = np.zeros((ni + 4, nj + 4), dtype=bool)
        mask[2:-2, :] = True
        mask[:, 2:-2] = True  # corner blocks are never read; skip them
        h = 1.0e-6
        for _ in range(4):
            ci, cj = rng.integers(0, ni), rng.integers(0, nj)
            d = rng.uniform(-1.0, 1.0, 4)
            qp, qm = field.q.copy(), field.q.copy()
            qp[ci, cj] += h * d
            qm[ci, cj] -= h * d
            ext_p = fill_ghosts(FlowField(q=qp), bcs, metrics, GAS).ext
            ext_m = fill_ghosts(FlowField(q=qm), bcs, metrics, GAS).ext
            fd = (ext_p - ext_m) / (2.0 * h)
            hit = (dep == cj * ni + ci)[..., None]
            predicted = np.where(hit, np.einsum("IJab,b->IJa", jac, d), 0.0)
            assert np.max(np.abs(fd - predicted)[mask]) < 1e-7


def loop_residual(field, ghosts, metrics, solver):
    """First-order residual assembled face by face with explicit loops."""
    ni, nj = field.ni, field.nj
    ext = ghosts.ext
    out = np.zeros((ni, nj, 4))
    for i in range(ni):
        for j in range(nj):
            acc = np.zeros(4)
            for f, sgn in ((i, -1.0), (i + 1, 1.0)):
                flux = riemann_flux(
                    solver, ext[f + 1, j + 2], ext[f + 2, j + 2], metrics.iface_normal[f, j], GAS
                )
                acc += sgn * metrics.iface_len[f, j] * flux
            for f, sgn in ((j, -1.0), (j + 1, 1.0)):
                flux = riemann_flux(
                    solver, ext[i + 2, f + 1], ext[i + 2, f + 2], metrics.jface_normal[i, f], GAS
                )
                acc += sgn * metrics.jface_len[i, f] * flux
            out[i, j] = -acc / metrics.volume[i, j]
    return out


def per_family_residual(field, ghosts, metrics, scheme, solver):
    """The residual with each face family reconstructed and fluxed on its own."""
    ni, nj = field.ni, field.nj
    sl = ghosts.ext[:, 2 : nj + 2]
    il, ir, fi = reconstruct_pair(sl[0 : ni + 1], sl[1 : ni + 2], sl[2 : ni + 3], sl[3 : ni + 4], scheme, GAS)
    sl = ghosts.ext[2 : ni + 2, :]
    jl, jr, fj = reconstruct_pair(sl[:, 0 : nj + 1], sl[:, 1 : nj + 2], sl[:, 2 : nj + 3], sl[:, 3 : nj + 4],
                                  scheme, GAS)
    lf_i = metrics.iface_len[..., None] * riemann_flux(solver, il, ir, metrics.iface_normal, GAS)
    lf_j = metrics.jface_len[..., None] * riemann_flux(solver, jl, jr, metrics.jface_normal, GAS)
    net = (lf_i[1:] - lf_i[:-1]) + (lf_j[:, 1:] - lf_j[:, :-1])
    return -net / metrics.volume[..., None], fi, fj


def parity_case(grid_name):
    """A 6x5 field, its metrics and boundaries for the batched-residual parity test."""
    field = smooth_field(6, 5, seed=21, scale=0.1)
    if grid_name == "cartesian":
        return field, compute_metrics(perturbed_cartesian(6, 5, seed=22, amp=0.12)), zero_gradient_bcs()
    bcs = BoundaryConditionSet(
        left=BoundaryCondition.supersonic_inflow(prim_to_cons(np.array([1.0, 2.0, 0.1, 0.9]), GAS)),
        right=BoundaryCondition.fixed_pressure_outflow(0.95),
        bottom=BoundaryCondition.slip_wall(),
        top=BoundaryCondition.zero_gradient(),
    )
    return field, compute_metrics(make_annular_grid(6, 5)), bcs


class TestResidual:
    @pytest.mark.parametrize("grid_name", ["cartesian", "annulus"])
    @pytest.mark.parametrize("solver", RIEMANN_SOLVERS)
    def test_batched_faces_equal_per_family_reference(self, solver, grid_name):
        field, metrics, bcs = parity_case(grid_name)
        ghosts = fill_ghosts(field, bcs, metrics, GAS)
        for variables in ("conservative", "primitive"):
            for scheme in (
                ReconstructionScheme(kind="first_order", variables=variables),
                ReconstructionScheme(kind="muscl", limiter="van_albada", variables=variables),
                ReconstructionScheme(kind="round", variables=variables),
            ):
                expected, ref_fi, ref_fj = per_family_residual(field, ghosts, metrics, scheme, solver)
                assert np.array_equal(residual(field, ghosts, metrics, scheme, solver, GAS), expected)
                fi, fj = _split_faces(face_reconstruction(ghosts, scheme, GAS)[2], 6, 5)
                assert fi.shape == (7, 5) and fj.shape == (6, 6)
                assert np.array_equal(fi, ref_fi) and np.array_equal(fj, ref_fj)

    @pytest.mark.parametrize("solver", RIEMANN_SOLVERS)
    def test_member_batch_equals_each_member(self, solver):
        # The 1-D march's residual of three members, each under its own
        # inflow state and exit pressure, gives every member the residual of
        # its own one-row frame, bit for bit, signed zeros included.
        metrics = compute_metrics(dyadic_strip(6, 30))
        q = np.stack([smooth_field(6, 1, seed=seed, scale=0.1).q[:, 0] for seed in (31, 32, 33)], axis=1)
        bcs = [strip_bcs(prim_to_cons(np.array([1.0, u, 0.1, 0.9]), GAS), p)
               for u, p in ((2.0, 0.95), (1.8, 1.0), (2.2, 0.9))]
        for scheme in (
            ReconstructionScheme(kind="first_order"),
            ReconstructionScheme(kind="muscl", limiter="van_albada"),
            ReconstructionScheme(kind="round", variables="primitive"),
        ):
            res = march_residual(q, bcs, metrics, scheme, solver)
            assert res.shape == (6, 3, 4)
            for k, bc in enumerate(bcs):
                assert res[:, k].tobytes() == own_residual(q[:, k], bc, metrics, scheme, solver).tobytes()

    def test_mixed_solver_batch_equals_each_member(self):
        # One solver name per member (interleaved runs included): every
        # member's march residual equals its own one-solver residual.
        solvers = ["hll", "roe", "hll", *RIEMANN_SOLVERS]
        metrics = compute_metrics(dyadic_strip(6, 34))
        q = np.stack([smooth_field(6, 1, seed=40 + k, scale=0.1).q[:, 0] for k in range(len(solvers))], axis=1)
        bc = strip_bcs(prim_to_cons(np.array([1.0, 2.0, 0.1, 0.9]), GAS), 0.95)
        for scheme in (
            ReconstructionScheme(kind="first_order"),
            ReconstructionScheme(kind="muscl", limiter="van_albada"),
            ReconstructionScheme(kind="round", variables="primitive"),
        ):
            res = march_residual(q, [bc] * len(solvers), metrics, scheme, solvers)
            for k, solver in enumerate(solvers):
                assert res[:, k].tobytes() == own_residual(q[:, k], bc, metrics, scheme, solver).tobytes()

    def test_exit_ghost_from_primitives_is_the_exit_pressure_route(self):
        # The march forms its exit ghosts from the primitives of its last
        # cells; fill_ghosts forms them through _exit_pressure_state.  Over an
        # 11-member mixed batch whose last cells carry v = 0, v = -0.0 and
        # u = -0.0 momenta, both routes give every member the same bits.
        solvers = ["hll", "roe", "hll", *RIEMANN_SOLVERS]
        metrics = compute_metrics(dyadic_strip(6, 35))
        q = np.stack([smooth_field(6, 1, seed=50 + k, scale=0.1).q[:, 0] for k in range(len(solvers))], axis=1)
        q[:, ::3, 2] = 0.0
        q[:, 1::3, 2] = -0.0
        q[-1, 2, 1] = -0.0
        bcs = [strip_bcs(prim_to_cons(np.array([1.0, 2.0 + 0.05 * k, 0.1, 0.9]), GAS), 0.9 + 0.02 * k)
               for k in range(len(solvers))]
        p_exit = np.array([bc.right.pressure for bc in bcs])
        ghosts = [fill_ghosts(FlowField(q=q[:, k, None]), bc, metrics, GAS).ext[-1, 2] for k, bc in enumerate(bcs)]
        assert np.stack(ghosts).tobytes() == _exit_pressure_state(q[-1].T, p_exit, GAS).T.tobytes()
        for scheme in (
            ReconstructionScheme(kind="first_order"),
            ReconstructionScheme(kind="muscl", limiter="van_albada"),
            ReconstructionScheme(kind="round", variables="primitive"),
        ):
            res = march_residual(q, bcs, metrics, scheme, solvers)
            for k, (solver, bc) in enumerate(zip(solvers, bcs)):
                assert res[:, k].tobytes() == own_residual(q[:, k], bc, metrics, scheme, solver).tobytes()

    @pytest.mark.parametrize("solver", ["roe", "hll", "hllc", "ausm_plus"])
    @pytest.mark.parametrize("kind", ["first_order", "muscl", "round"])
    def test_free_stream_on_distorted_grid(self, kind, solver):
        metrics = compute_metrics(perturbed_cartesian(6, 5, seed=9, amp=0.15))
        prim = np.tile(np.array([1.2, 0.8, -0.5, 1.1]), (6, 5, 1))
        field = FlowField(q=prim_to_cons(prim, GAS))
        ghosts = fill_ghosts(field, zero_gradient_bcs(), metrics, GAS)
        scheme = ReconstructionScheme(kind=kind)
        r = residual(field, ghosts, metrics, scheme, solver, GAS)
        assert np.max(np.abs(r)) < 1e-11

    def test_free_stream_on_annular_grid(self):
        metrics = compute_metrics(make_annular_grid(8, 6))
        prim = np.tile(np.array([1.0, 0.6, 0.3, 0.9]), (8, 6, 1))
        field = FlowField(q=prim_to_cons(prim, GAS))
        ghosts = fill_ghosts(field, zero_gradient_bcs(), metrics, GAS)
        scheme = ReconstructionScheme(kind="muscl", limiter="van_albada")
        r = residual(field, ghosts, metrics, scheme, "hllc", GAS)
        assert np.max(np.abs(r)) < 1e-11

    def test_slip_wall_preserves_tangential_stream(self):
        metrics = compute_metrics(make_cartesian_grid(6, 4))
        prim = np.tile(np.array([1.0, 1.5, 0.0, 1.0]), (6, 4, 1))
        field = FlowField(q=prim_to_cons(prim, GAS))
        bcs = BoundaryConditionSet(
            left=BoundaryCondition.zero_gradient(),
            right=BoundaryCondition.zero_gradient(),
            bottom=BoundaryCondition.slip_wall(),
            top=BoundaryCondition.slip_wall(),
        )
        ghosts = fill_ghosts(field, bcs, metrics, GAS)
        scheme = ReconstructionScheme(kind="muscl", limiter="superbee")
        r = residual(field, ghosts, metrics, scheme, "roe", GAS)
        assert np.max(np.abs(r)) < 1e-12

    @pytest.mark.parametrize("kind", ["first_order", "muscl"])
    def test_conservation_on_periodic_domain(self, kind):
        metrics = compute_metrics(make_cartesian_grid(6, 5))
        field = smooth_field(6, 5, seed=10, scale=0.2)
        ghosts = fill_ghosts(field, periodic_bcs(), metrics, GAS)
        scheme = ReconstructionScheme(kind=kind)
        r = residual(field, ghosts, metrics, scheme, "hllc", GAS)
        total = np.einsum("ij,ijc->c", metrics.volume, r)
        assert np.max(np.abs(total)) < 1e-12

    @pytest.mark.parametrize("solver", ["roe", "hll", "hllc", "hlle", "hllem",
                                        "van_leer_fvs", "ausm_plus", "slau"])
    def test_matches_loop_assembly(self, solver):
        metrics = compute_metrics(perturbed_cartesian(4, 3, seed=12, amp=0.1))
        field = smooth_field(4, 3, seed=13, scale=0.1)
        ghosts = fill_ghosts(field, zero_gradient_bcs(), metrics, GAS)
        scheme = ReconstructionScheme(kind="first_order")
        fast = residual(field, ghosts, metrics, scheme, solver, GAS)
        slow = loop_residual(field, ghosts, metrics, solver)
        assert np.allclose(fast, slow, rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize("scheme", [
        ReconstructionScheme(kind="first_order"),
        ReconstructionScheme(kind="muscl", limiter="superbee"),
    ])
    def test_roe_holds_sharp_shock_steady(self, scheme):
        # a zero-width interface placed exactly on a face is an equilibrium
        # of the Roe scheme: the interface flux equals the analytic one
        ni, nj = 11, 3
        metrics = compute_metrics(make_cartesian_grid(ni, nj))
        field = init_normal_shock_rh(ni, nj, mach=3.0, epsilon=0.0, gas=GAS)
        bcs = normal_shock_bcs(3.0, GAS)
        ghosts = fill_ghosts(field, bcs, metrics, GAS)
        r = residual(field, ghosts, metrics, scheme, "roe", GAS)
        assert np.max(np.abs(r)) < 1e-12

    def test_hllc_smears_sharp_shock(self):
        # the same configuration is *not* an equilibrium of HLLC, whose
        # two-acoustic-wave fan spreads the discontinuity
        ni, nj = 11, 3
        metrics = compute_metrics(make_cartesian_grid(ni, nj))
        field = init_normal_shock_rh(ni, nj, mach=3.0, epsilon=0.0, gas=GAS)
        bcs = normal_shock_bcs(3.0, GAS)
        ghosts = fill_ghosts(field, bcs, metrics, GAS)
        scheme = ReconstructionScheme(kind="first_order")
        r = residual(field, ghosts, metrics, scheme, "hllc", GAS)
        assert np.max(np.abs(r)) > 1e-3

    def test_row_invariance_for_oned_base(self):
        # a y-invariant base with periodic top/bottom gives identical rows
        # and exactly zero y-momentum residual
        ni, nj = 11, 4
        metrics = compute_metrics(make_cartesian_grid(ni, nj))
        field = init_normal_shock_rh(ni, nj, mach=3.0, epsilon=0.1, gas=GAS)
        bcs = normal_shock_bcs(3.0, GAS)
        ghosts = fill_ghosts(field, bcs, metrics, GAS)
        scheme = ReconstructionScheme(kind="muscl", limiter="van_albada")
        r = residual(field, ghosts, metrics, scheme, "hllc", GAS)
        for j in range(1, nj):
            assert np.array_equal(r[:, j], r[:, 0])
        assert np.max(np.abs(r[:, :, 2])) < 1e-13

    def test_fallback_flags_collected(self):
        metrics = compute_metrics(make_cartesian_grid(5, 3))
        field = smooth_field(5, 3, seed=14)
        ghosts = fill_ghosts(field, zero_gradient_bcs(), metrics, GAS)
        scheme = ReconstructionScheme(kind="muscl", limiter="van_albada")
        left, right, fallback = face_reconstruction(ghosts, scheme, GAS)
        assert left.shape == (38, 4) and right.shape == (38, 4)
        assert fallback.shape == (38,) and fallback.dtype == bool
        (il, jl), (ir, jr), (fi, fj) = (_split_faces(a, 5, 3) for a in (left, right, fallback))
        assert il.shape == (6, 3, 4) and ir.shape == (6, 3, 4)
        assert jl.shape == (5, 4, 4) and jr.shape == (5, 4, 4)
        assert fi.shape == (6, 3) and fi.dtype == bool
        assert fj.shape == (5, 4) and fj.dtype == bool
        assert not fi.any() and not fj.any()

    def test_ghost_frame_mismatch_rejected(self):
        metrics = compute_metrics(make_cartesian_grid(5, 3))
        field = smooth_field(5, 3, seed=15)
        bad = GhostField(ext=np.zeros((8, 8, 4)), ni=4, nj=4)
        with pytest.raises(StateError):
            residual(field, bad, metrics, ReconstructionScheme(kind="first_order"), "roe", GAS)


# ---------------------------------------------------------------------------
# Pinned kernel bits
# ---------------------------------------------------------------------------

PINNED_SCHEMES = {
    "first_order": ReconstructionScheme(kind="first_order"),
    "muscl_van_albada": ReconstructionScheme(kind="muscl", limiter="van_albada"),
    "muscl_superbee_prim": ReconstructionScheme(kind="muscl", limiter="superbee", variables="primitive"),
    "round": ReconstructionScheme(kind="round"),
}

PINNED_BATCH_SOLVERS = ("hllc", "ausm_plus", "hllc")

#: The solvers each setup runs, by the label its digest keys use.
PINNED_SOLVERS = {
    "shock": {name: name for name in RIEMANN_SOLVERS},
    "annulus": {"hllc": "hllc"},
    "batch": {"mixed": list(PINNED_BATCH_SOLVERS)},
}


def sha256(array):
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def pinned_setups():
    """``{name: (fields, frames, metrics)}``: the member fields whose residual bits are pinned, with their ghost frames.

    ``shock``: a jittered M=20 shock on a perturbed 7x4 grid, cold enough
    upstream that MUSCL and ROUND fall back to first order on some faces;
    ``annulus``: a jittered 6x5 annulus with inflow, exit-pressure,
    slip-wall and zero-gradient sides; ``batch``: three shock members
    (M = 3, 6, 20, jittered), each under its own inflow state and exit
    pressure.
    """
    rng = np.random.default_rng(5)
    prim = cons_to_prim(init_normal_shock_rh(7, 4, 20.0, 0.3, gas=GAS).q, GAS)
    shock = FlowField(q=prim_to_cons(prim * (1.0 + 0.05 * rng.uniform(-1.0, 1.0, prim.shape)), GAS))
    shock_metrics = compute_metrics(perturbed_cartesian(7, 4, seed=6, amp=0.1))

    ring = make_annular_grid(6, 5)
    x, y = ring.x.copy(), ring.y.copy()
    x[1:-1, 1:-1] += 0.02 * rng.uniform(-1.0, 1.0, x[1:-1, 1:-1].shape)
    y[1:-1, 1:-1] += 0.02 * rng.uniform(-1.0, 1.0, y[1:-1, 1:-1].shape)
    ring_metrics = compute_metrics(Grid(x=x, y=y))
    ring_field = smooth_field(6, 5, seed=7, scale=0.1)

    machs = (3.0, 6.0, 20.0)
    prim = np.stack([cons_to_prim(init_normal_shock_rh(6, 3, mach, 0.4, gas=GAS).q, GAS) for mach in machs], axis=2)
    batch_q = prim_to_cons(prim * (1.0 + 0.03 * rng.uniform(-1.0, 1.0, prim.shape)), GAS)
    batch = [FlowField(q=batch_q[:, :, k]) for k in range(len(machs))]
    batch_metrics = compute_metrics(perturbed_cartesian(6, 3, seed=8, amp=0.1))
    return {
        "shock": ([shock], [fill_ghosts(shock, normal_shock_bcs(20.0, GAS), shock_metrics, GAS)], shock_metrics),
        "annulus": ([ring_field], [fill_ghosts(ring_field, parity_case("annulus")[2], ring_metrics, GAS)],
                    ring_metrics),
        "batch": (batch, [fill_ghosts(field, normal_shock_bcs(mach, GAS), batch_metrics, GAS)
                          for field, mach in zip(batch, machs)], batch_metrics),
    }


def pinned_digests():
    """SHA-256 of every pinned residual and of each setup's fallback mask per scheme.

    A setup's residuals are stacked on axis 2 and its fallback masks joined,
    member after member: the layout of the batch fields these digests were
    recorded from.
    """
    residuals, fallbacks = {}, {}
    for setup, (fields, frames, metrics) in pinned_setups().items():
        for scheme_name, scheme in PINNED_SCHEMES.items():
            masks = [face_reconstruction(ghosts, scheme, GAS)[2] for ghosts in frames]
            fallbacks[f"{setup}/{scheme_name}"] = sha256(np.concatenate(masks))
            for label, solver in PINNED_SOLVERS[setup].items():
                names = solver if isinstance(solver, list) else [solver] * len(fields)
                res = [residual(field, ghosts, metrics, scheme, name, GAS)
                       for field, ghosts, name in zip(fields, frames, names)]
                residuals[f"{setup}/{label}/{scheme_name}"] = sha256(np.stack(res, axis=2))
    return residuals, fallbacks


# Recorded from the code before the face kernels took a side axis; the
# stacked kernels must reproduce every bit.
PINNED_RESIDUAL_DIGESTS = {
    "shock/roe/first_order": "0151db8bd364086865da9bd0e61c0b6fec8c9acbaaf1d23fa35e6523b4e4b2fe",
    "shock/hll/first_order": "c78c20786a6f56d73517fd614f568e68a56182002e09848284c4c39d40e78009",
    "shock/hllc/first_order": "91c807cebdd4f4376dfd1f3f63a72396dbf4d01cb98c4e6c8f627519278189e4",
    "shock/hlle/first_order": "397530fa5f70e16679d32545e701530e83f878bc5a2ee2a55f905444d8d3ace9",
    "shock/hllem/first_order": "6c083299cee3dccbdeccb917d786ee40be84fa148e2dd407f9cce1160c64e59d",
    "shock/van_leer_fvs/first_order": "9c85aa180a43f75f2499b73ccd2f9f6ac2ebb39f083c5b031766475aaafd43c0",
    "shock/ausm_plus/first_order": "46e789f11d7d51e75ea0c5e76fa59432656a7b24aa62b538f80006da2f4c1de5",
    "shock/slau/first_order": "e43777dbe8222e81c5a8205a3a4a0ba37ffe80aad56419ce6e585a7c46375b74",
    "shock/roe/muscl_van_albada": "f1484efae8d3414212bd4e4f44a826cf2aeb40865e9c0dfa7be5da1a487a29c5",
    "shock/hll/muscl_van_albada": "9e69d50e26ed48d28f21fa0067884d4c7e9e0b948bc7382d072ec0449cf7385d",
    "shock/hllc/muscl_van_albada": "3bc5687a5595eed1034dfd0fd6731b8a07adb1670efb618b8707fc2c1b0d008d",
    "shock/hlle/muscl_van_albada": "9ca6389310e77959096b1f38b12efa582da873a2cb674e02f91c6ac2a8ea47dc",
    "shock/hllem/muscl_van_albada": "87f0b7f3a4d1c799c876d54dee7bd467ef0dc7e35f7f53ff42dbbb008915d028",
    "shock/van_leer_fvs/muscl_van_albada": "caae3892180a8236f68945e57e7907223a0e7ded460812f5fa634112eaecd752",
    "shock/ausm_plus/muscl_van_albada": "5500172ab5d53326a60f58bcc3b4a8bfc368d5c627f1b40e763239f2fea5503c",
    "shock/slau/muscl_van_albada": "8642400cb1885857a70476aae60c46a0ae205e3974c95426e4b37bace4c77321",
    "shock/roe/muscl_superbee_prim": "c4748cb7ab9bf9dae05e7d59c441460cf32e0dca7255ead9341293cebc27789a",
    "shock/hll/muscl_superbee_prim": "7000b800f24d55bee3c28be9dd9633f389ec478181c4d5c9b07e025305607698",
    "shock/hllc/muscl_superbee_prim": "970b037aef8b4c98e91ee1b16f36f95e9ba511fe30f3e286e4624e0066957bab",
    "shock/hlle/muscl_superbee_prim": "e43d31ed7d5b918bce36e9f82e9a576595b381e835c35d76b5369bfc70b97dd8",
    "shock/hllem/muscl_superbee_prim": "2300e9058bc53c0492ea39b9f01a81fda212b2b929a33b8ec4dc0852cff37d3d",
    "shock/van_leer_fvs/muscl_superbee_prim": "0147cbda0817a2af138f1ce259174f94036e3b1f4c4770b869d49072593902d3",
    "shock/ausm_plus/muscl_superbee_prim": "ed99edc56dbdce76813d93c486f396c99db67538f2e33f78d1e6c5b7ae4f1e07",
    "shock/slau/muscl_superbee_prim": "cd66902a4f8516760f84fe482c4661a6a9ff9bfb07518e01eb695d1661bc91de",
    "shock/roe/round": "b9e396ce1f723ba01ea47eef01f4e01a0686bf94c2784c8275a0324f145acd2e",
    "shock/hll/round": "749bd912cb3747f2e6ebe171b626a24b66f2791c006190d29c6e5d7e785e1d52",
    "shock/hllc/round": "7a0ed324e72bdcac42b01b553329ad4289fa92bf37016530f0caa682ab2606b2",
    "shock/hlle/round": "7f896d4a7b8ba3ddd836357cce137e262ae7097507d1cf5c79b51173f565d237",
    "shock/hllem/round": "37cc002a95d77c7ae8bbf87e580de0249d2463848a1599f1578c7a8b36bae657",
    "shock/van_leer_fvs/round": "c15202581202c5580ac5f2ec49496965f3e02fba421f468b1c3b26c60fe84714",
    "shock/ausm_plus/round": "845342f4ae550fa275f0d5973d8f39c0ab474a5736a220fd18212cf52a8f2338",
    "shock/slau/round": "d3e81c3fa6d8ae140efa86881866a96b08f6c48eeed19a61e808a60d5d878ac3",
    "annulus/hllc/first_order": "e0dc71302f99d417494d69758d231ffb635ee610cf5758196b99d068a756ab8f",
    "annulus/hllc/muscl_van_albada": "ede2c821f346905f3bd78e9de3945ac0839822a3b865caa296a009c1b9828396",
    "annulus/hllc/muscl_superbee_prim": "0b1335c669b61523ccc85051af36e49a3ac0849699b382d743962a12308c1b08",
    "annulus/hllc/round": "d7957b438d40c771eebd774f16b81d8756bc5d09672bde24dc3441ddf5a750f5",
    "batch/mixed/first_order": "316e95bf3b580a8919e91cc42a47feb40e78053165d6d146fe9046176c9de014",
    "batch/mixed/muscl_van_albada": "d2d725b66cfc071c49a8e73d9f7306f663ebcee693c935b5ea26e0bf34713909",
    "batch/mixed/muscl_superbee_prim": "17c35c1d713ba0a84deee46fc02e9da92431c47987a0cbdab6252dbb42349e56",
    "batch/mixed/round": "c3a52820e076e4fff8315072762c67a57f5a1b03d8a04dac29a899344330a6a7",
}

PINNED_FALLBACK_DIGESTS = {
    "shock/first_order": "1be2b3990b410ca4fb38d1f79019c4018cd8820b69618646c81d22dfcbddc802",
    "shock/muscl_van_albada": "d1edaff44f89ee213002362eba304846413a158625d9d50964d78492d713a866",
    "shock/muscl_superbee_prim": "1be2b3990b410ca4fb38d1f79019c4018cd8820b69618646c81d22dfcbddc802",
    "shock/round": "28d6e7f28145517fda710e044215df3d21bca33b238161c992f605acddc6cf6f",
    "annulus/first_order": "0805dcdc42ca47abdc3d8fe11f8e0c7a108602022f71ab349648cfdd30a75aa6",
    "annulus/muscl_van_albada": "0805dcdc42ca47abdc3d8fe11f8e0c7a108602022f71ab349648cfdd30a75aa6",
    "annulus/muscl_superbee_prim": "0805dcdc42ca47abdc3d8fe11f8e0c7a108602022f71ab349648cfdd30a75aa6",
    "annulus/round": "0805dcdc42ca47abdc3d8fe11f8e0c7a108602022f71ab349648cfdd30a75aa6",
    "batch/first_order": "41a9a42d8072d429502781344a47e9c041ccfcd5455d014064c9227ae54e0187",
    "batch/muscl_van_albada": "9856bbf49bae9253cb79f4b2f745cbbfe5a1d33160dbf8420d6a0116ead45b25",
    "batch/muscl_superbee_prim": "41a9a42d8072d429502781344a47e9c041ccfcd5455d014064c9227ae54e0187",
    "batch/round": "d8f3f0cb65c11aa4824e8c3e421380f84970a3a2859d42121348a71b6b11aa26",
}
PINNED_ONE_SIDED_FALLBACK_DIGEST = "abcda423bf2ce156a8765f67a14226a642f2edcf23b1c4227afae0c2aa07db8a"


class TestPinnedBits:
    def test_residual_and_fallback_digests(self):
        residuals, fallbacks = pinned_digests()
        assert residuals == PINNED_RESIDUAL_DIGESTS
        assert fallbacks == PINNED_FALLBACK_DIGESTS

    @staticmethod
    def mixed_batch_sides():
        # Three members of four faces each; the solver runs are hllc (rows
        # 0-3), ausm_plus (4-7) and hllc again (8-11).
        prim = np.tile(np.array([1.0, 2.0, 0.1, 0.9]), (12, 1))
        prim[:, 1] += 0.01 * np.arange(12)
        left = prim_to_cons(prim, GAS)
        return left, left[::-1].copy(), np.tile(np.array([1.0, 0.0]), (12, 1))

    def test_bad_right_state_names_side_count_and_run(self):
        left, right, normal = self.mixed_batch_sides()
        right[[5, 6], 3] = -1.0
        with pytest.raises(StateError, match=r"^2 non-physical right state\(s\) passed to solver 'ausm_plus'$"):
            riemann_flux(list(PINNED_BATCH_SOLVERS), left, right, normal, GAS)

    def test_bad_left_state_names_side_count_and_run(self):
        left, right, normal = self.mixed_batch_sides()
        left[9, 0] = 0.0
        with pytest.raises(StateError, match=r"^1 non-physical left state\(s\) passed to solver 'hllc'$"):
            riemann_flux(list(PINNED_BATCH_SOLVERS), left, right, normal, GAS)

    def test_left_side_reported_before_right(self):
        # Both sides bad: the left side is checked first, whatever the runs.
        left, right, normal = self.mixed_batch_sides()
        right[[0, 1, 2], 0] = -1.0
        left[[10, 11], 3] = np.nan
        with pytest.raises(StateError, match=r"^2 non-physical left state\(s\) passed to solver 'hllc'$"):
            riemann_flux(list(PINNED_BATCH_SOLVERS), left, right, normal, GAS)

    def test_positivity_fallback_replaces_one_side(self):
        # A cold stream where the MUSCL right state of stencil ``a`` has
        # negative pressure while its left state is physical; ``b`` differs
        # only in the cell that the left state never reads and keeps both
        # sides.  The reversed stencils swap the roles of the sides.
        a = prim_to_cons(np.array([[1.0, 1.0, 0.0, 1e-3], [1.1, 1.0, 0.0, 1e-3],
                                   [1.0, 1.1, 0.0, 1e-3], [1.0, 1.2, 0.0, 1e-3]]), GAS)
        b = np.concatenate((a[:3], a[2:3]))
        stencils = np.stack((a, b, a[::-1], b[::-1]), axis=1)  # (stencil cell, face, 4)
        scheme = ReconstructionScheme(kind="muscl", limiter="van_albada")
        left, right, fallback = reconstruct_pair(*stencils, scheme, GAS)
        assert fallback.tolist() == [True, False, True, False]
        assert np.array_equal(right[0], a[2]) and np.array_equal(left[2], a[2])
        assert np.array_equal(left[0], left[1]) and np.array_equal(right[2], right[3])
        assert np.array_equal(left[0], right[2]) and not np.array_equal(left[0], a[1])
        assert sha256(np.stack((left, right))) == PINNED_ONE_SIDED_FALLBACK_DIGEST


# ---------------------------------------------------------------------------
# The one-gather ghost fill
# ---------------------------------------------------------------------------


def side_walk_ghosts(field, bc, metrics):
    """Reference ghost frame, filled one side at a time from each side's source cells."""
    ni, nj = field.ni, field.nj
    ext = np.empty((ni + 4, nj + 4, 4))
    ext[2:-2, 2:-2] = field.q
    sides = (
        ("left", ext[:, 2:-2], metrics.iface_normal[0]),
        ("right", ext[::-1, 2:-2], metrics.iface_normal[ni]),
        ("bottom", ext[2:-2].swapaxes(0, 1), metrics.jface_normal[:, 0]),
        ("top", ext[2:-2, ::-1].swapaxes(0, 1), metrics.jface_normal[:, nj]),
    )
    for name, view, normal in sides:
        side, cells = bc.side(name), view[2:-2]  # the interior counted from the boundary
        if side.kind == "supersonic_inflow":
            view[:2] = side.state
        elif side.kind == "periodic":
            view[:2] = cells[-2:]
        elif side.kind == "zero_gradient":
            view[:2] = cells[:1]
        elif side.kind == "fixed_pressure_outflow":
            prim = cons_to_prim(cells[:1], GAS)
            prim[..., 3] = side.pressure
            view[:2] = prim_to_cons(prim, GAS)
        else:  # slip_wall: layer k mirrors cell k about the wall normal
            src = cells[1::-1]
            mn = src[..., 1] * normal[..., 0] + src[..., 2] * normal[..., 1]
            view[:2] = src
            view[:2, ..., 1] = src[..., 1] - 2.0 * mn * normal[..., 0]
            view[:2, ..., 2] = src[..., 2] - 2.0 * mn * normal[..., 1]
    for rows in (slice(0, 2), slice(-2, None)):
        ext[rows, :2] = ext[rows, 2:3]
        ext[rows, -2:] = ext[rows, -3:-2]
    return ext


def side_kind_sets():
    """Every boundary set a side pair allows: each non-periodic kind on each side, or both periodic.

    Inflow states and exit pressures differ from side to side.
    """
    rng = np.random.default_rng(3)

    def make(kind):
        if kind == "supersonic_inflow":
            prim = np.array([1.0, 2.0, 0.1, 0.9]) * (1.0 + 0.1 * rng.uniform(-1.0, 1.0, 4))
            return BoundaryCondition(kind, state=prim_to_cons(prim, GAS))
        if kind == "fixed_pressure_outflow":
            return BoundaryCondition(kind, pressure=0.9 + 0.1 * rng.uniform(-1.0, 1.0))
        return BoundaryCondition(kind)

    open_kinds = ("supersonic_inflow", "zero_gradient", "fixed_pressure_outflow", "slip_wall")
    pairs = [(a, b) for a in open_kinds for b in open_kinds] + [("periodic", "periodic")]
    for left, right in pairs:
        for bottom, top in pairs:
            yield BoundaryConditionSet(left=make(left), right=make(right), bottom=make(bottom), top=make(top))


def ghost_fill_cases():
    """``(field, metrics)`` pairs: a field on a perturbed grid, one on an annulus, a two-row strip."""
    return (
        (smooth_field(4, 3, seed=52), compute_metrics(perturbed_cartesian(4, 3, seed=53, amp=0.1))),
        (smooth_field(5, 4, seed=50, scale=0.1), compute_metrics(make_annular_grid(5, 4))),
        (smooth_field(6, 2, seed=54), compute_metrics(make_cartesian_grid(6, 2))),
    )


def ghost_dependency_digest():
    """One SHA-256 over ``ghost_dependency`` of every side-kind set on the plain-field case."""
    field, metrics = ghost_fill_cases()[0]
    h = hashlib.sha256()
    for bcs in side_kind_sets():
        for array in ghost_dependency(field, bcs, metrics, GAS):
            h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


# Recorded from the side-by-side ghost walk that the one-gather fill replaced.
PINNED_GHOST_DEPENDENCY_DIGEST = "554ad97d7b6b865d4653a8e5d71082fe85b7e5d78d2d77a50d178de0f561272f"


class TestGhostGather:
    def test_fill_equals_side_walk_for_every_side_kind(self):
        count = 0
        for field, metrics in ghost_fill_cases():
            for bcs in side_kind_sets():
                ext = fill_ghosts(field, bcs, metrics, GAS).ext
                assert ext.tobytes() == side_walk_ghosts(field, bcs, metrics).tobytes()
                count += 1
        assert count == 3 * 17 * 17

    def test_slip_walls_on_all_four_sides(self):
        field, metrics = ghost_fill_cases()[0]
        wall = BoundaryCondition.slip_wall()
        bcs = BoundaryConditionSet(left=wall, right=wall, bottom=wall, top=wall)
        ext = fill_ghosts(field, bcs, metrics, GAS).ext
        assert ext.tobytes() == side_walk_ghosts(field, bcs, metrics).tobytes()
        # the wall ghosts carry mirrored momentum, not copies of their source cells
        assert not np.array_equal(ext[1, 2:-2], field.q[0]) and not np.array_equal(ext[2:-2, -1], field.q[:, -2])

    def test_ghost_dependency_is_unchanged(self):
        assert ghost_dependency_digest() == PINNED_GHOST_DEPENDENCY_DIGEST

    def test_fill_is_not_aliased_to_the_field(self):
        field, metrics = ghost_fill_cases()[2]
        bcs = normal_shock_bcs(3.0, GAS)
        before = field.q.copy()
        ghosts = fill_ghosts(field, bcs, metrics, GAS)
        ghosts.ext[...] = 0.0
        assert np.array_equal(field.q, before)
        assert np.array_equal(fill_ghosts(field, bcs, metrics, GAS).ext, side_walk_ghosts(field, bcs, metrics))


def ghost_rows(field, bcs, metrics):
    """The rows of the ghost table for ``field``'s cells, as a ``(rows, 4)`` view, and the table's maps."""
    table, cells, refresh, maps = _ghost_table(bcs, metrics, GAS)
    cells[...] = np.moveaxis(field.q, -1, 0)
    refresh()
    return table.T, maps


class TestOneTakeStencils:
    def test_stencils_equal_the_frame_gather_for_every_side_kind(self):
        # The nonlinear march gathers each face's stencil in one take from the
        # cells and the ghost rows; it must read the bits that the ghost frame
        # (and the side-by-side reference walk) holds at every stencil cell.
        count = 0
        for field, metrics in ghost_fill_cases():
            ni, nj = field.ni, field.nj
            for bcs in side_kind_sets():
                table, (_, rows, _) = ghost_rows(field, bcs, metrics)
                stencils = table.take(rows, axis=0)
                frame = fill_ghosts(field, bcs, metrics, GAS).ext.reshape(-1, 4)
                walk = side_walk_ghosts(field, bcs, metrics).reshape(-1, 4)
                assert stencils.shape == (4, (ni + 1) * nj + ni * (nj + 1), 4)
                assert stencils.tobytes() == frame.take(_stencil_rows(ni, nj), axis=0).tobytes()
                assert stencils.tobytes() == walk.take(_stencil_rows(ni, nj), axis=0).tobytes()
                count += 1
        assert count == 3 * 17 * 17

    def test_ghost_rows_hold_only_the_ghosts_that_copy_no_cell(self):
        # One row per inflow side, one per exit-pressure boundary cell, two
        # per slip-wall boundary cell; periodic and zero-gradient sides point
        # at the cells themselves.
        field, metrics = ghost_fill_cases()[0]
        ni, nj = field.ni, field.nj
        bcs = BoundaryConditionSet(
            left=BoundaryCondition.supersonic_inflow(field.q[0, 0]),
            right=BoundaryCondition.fixed_pressure_outflow(0.9),
            bottom=BoundaryCondition.slip_wall(),
            top=BoundaryCondition.zero_gradient(),
        )
        table, (frame, _, sources) = ghost_rows(field, bcs, metrics)
        assert table.shape == (ni * nj + 1 + nj + 2 * ni, 4)
        assert frame.max() == ni * nj + nj + 2 * ni
        assert sources.shape == (ni * nj + 1 + nj + 2 * ni,)

    def test_row_sources_and_derivatives_equal_the_ghost_dependency(self):
        # assemble reads each stencil cell's source cell and ghost derivative
        # through the stencil map; they must be the bits ghost_dependency
        # holds at every stencil cell of the frame.
        count = 0
        for field, metrics in ghost_fill_cases():
            ni, nj = field.ni, field.nj
            frame_rows = _stencil_rows(ni, nj)
            for bcs in side_kind_sets():
                _, rows, sources = _frame_rows(ni, nj, bcs)
                derivatives = _frame_source_jacobian(field.q, bcs, metrics, GAS)
                dep, jac = ghost_dependency(field, bcs, metrics, GAS)
                assert sources.take(rows).tobytes() == dep.reshape(-1).take(frame_rows).tobytes()
                assert (derivatives.take(rows, axis=0).tobytes()
                        == jac.reshape(-1, 4, 4).take(frame_rows, axis=0).tobytes())
                count += 1
        assert count == 3 * 17 * 17

    def test_each_call_builds_the_maps_once(self, monkeypatch):
        # The ghost table hands its maps to its callers, so no caller builds
        # them a second time to read their size or its stencil rows.
        import importlib

        from shockstab import stability

        module = importlib.import_module("shockstab.residual")
        builds = counting(monkeypatch, "_frame_rows")
        monkeypatch.setattr(stability, "_frame_rows", module._frame_rows, raising=False)  # counted if it is imported
        field, metrics = ghost_fill_cases()[0]
        bcs = BoundaryConditionSet(
            left=BoundaryCondition.supersonic_inflow(field.q[0, 0]),
            right=BoundaryCondition.fixed_pressure_outflow(0.9),
            bottom=BoundaryCondition.slip_wall(),
            top=BoundaryCondition.zero_gradient(),
        )
        scheme = PINNED_SCHEMES["muscl_van_albada"]
        calls = {
            "fill_ghosts": lambda: fill_ghosts(field, bcs, metrics, GAS),
            "ghost_dependency": lambda: ghost_dependency(field, bcs, metrics, GAS),
            "assemble": lambda: stability.assemble(field, metrics, scheme, "hllc", bcs, GAS),
            "_residual_map": lambda: _residual_map(bcs, metrics, scheme, "hllc", GAS),
        }
        counts = {}
        for name, call in calls.items():
            builds.clear()
            call()
            counts[name] = len(builds)
        assert counts == dict.fromkeys(calls, 1)


# ---------------------------------------------------------------------------
# The 1-D march's one-row strip
# ---------------------------------------------------------------------------


def dyadic_strip(ni, seed):
    """A one-row strip of tilted cells whose two j-face rows are bitwise equal.

    Every node coordinate is a multiple of 1/64 and the top row is the
    bottom row shifted by (0.25, 0.75), so the j-face differences are exact;
    the cells still vary in size and every i-face is tilted.
    """
    rng = np.random.default_rng(seed)
    x0 = np.cumsum(rng.integers(40, 90, ni + 1)) / 64.0
    y0 = rng.integers(-8, 9, ni + 1) / 64.0
    return Grid(x=np.stack((x0, x0 + 0.25), axis=1), y=np.stack((y0, y0 + 0.75), axis=1))


STRIP_BATCH_SOLVERS = ("hllc", "ausm_plus", "hllc")


def strip_bcs(inflow, p_exit):
    """Inflow on the left, exit pressure on the right, periodic in ``j``: the boundaries of the 1-D march."""
    return BoundaryConditionSet(
        left=BoundaryCondition.supersonic_inflow(inflow),
        right=BoundaryCondition.fixed_pressure_outflow(p_exit),
        bottom=BoundaryCondition.periodic(),
        top=BoundaryCondition.periodic(),
    )


def march_residual(q, bcs, metrics, scheme, solver):
    """The 1-D march's residual of the ``(ni, members, 4)`` state ``q``, member ``k`` under ``bcs[k]``."""
    inflow = np.stack([bc.left.state for bc in bcs])
    p_exit = np.array([bc.right.pressure for bc in bcs])
    cells, evaluate = _march_map(inflow, p_exit, metrics, scheme, solver, GAS)
    cells[...] = q.transpose(2, 1, 0)
    return evaluate(_primitive_columns(cells, GAS)).transpose(2, 1, 0)


def own_residual(cells, bcs, metrics, scheme, solver):
    """``residual`` of one member's ``(ni, 4)`` cells on its own one-row frame, as ``(ni, 4)``."""
    field = FlowField(q=cells[:, None])
    return residual(field, fill_ghosts(field, bcs, metrics, GAS), metrics, scheme, solver, GAS)[:, 0]


def strip_setups():
    """``{name: (q, bcs, metrics, solvers)}`` of one-row strips, periodic in ``j``.

    ``q`` is ``(ni, members, 4)``, as the 1-D march holds its members, and
    ``bcs`` one boundary set per member.  ``shock``: a jittered M=20 shock
    on a tilted 9-cell strip, cold enough upstream that MUSCL and ROUND
    fall back to first order on some faces; ``batch``: three jittered shock
    members (M = 3, 6, 20) on a unit-square strip, under their own inflow
    states and exit pressures and a mixed solver list.
    """
    rng = np.random.default_rng(17)
    prim = cons_to_prim(init_normal_shock_rh(9, 1, 20.0, 0.3, gas=GAS).q, GAS)
    shock = prim_to_cons(prim * (1.0 + 0.05 * rng.uniform(-1.0, 1.0, prim.shape)), GAS)
    machs = (3.0, 6.0, 20.0)
    prim = np.stack([cons_to_prim(init_normal_shock_rh(8, 1, m, 0.4, gas=GAS).q, GAS) for m in machs], axis=2)
    batch = prim_to_cons(prim * (1.0 + 0.03 * rng.uniform(-1.0, 1.0, prim.shape)), GAS)[:, 0]
    return {
        "shock": (shock, [normal_shock_bcs(20.0, GAS)], compute_metrics(dyadic_strip(9, 18)),
                  {name: name for name in RIEMANN_SOLVERS}),
        "batch": (batch, [normal_shock_bcs(m, GAS) for m in machs],
                  compute_metrics(make_cartesian_grid(8, 1)), {"mixed": list(STRIP_BATCH_SOLVERS)}),
    }


def one_row_annulus():
    """A one-row annular sector, periodic in ``j``: its two j-face rows have different normals."""
    bcs = BoundaryConditionSet(
        left=BoundaryCondition.supersonic_inflow(prim_to_cons(np.array([1.0, 2.0, 0.1, 0.9]), GAS)),
        right=BoundaryCondition.fixed_pressure_outflow(0.95),
        bottom=BoundaryCondition.periodic(),
        top=BoundaryCondition.periodic(),
    )
    return smooth_field(6, 1, seed=19, scale=0.1), bcs, compute_metrics(make_annular_grid(6, 1))


def strip_march_outcomes(scheme):
    """Each member's march outcome: all eight solvers at M=20 as one batch, 40 steps on 9 cells."""
    from shockstab.harness import solve_1d_steady

    return solve_1d_steady(9, 20.0, 0.37, 40, scheme, list(RIEMANN_SOLVERS), gas=GAS)


def strip_digests():
    """SHA-256 of every strip, annulus and march result per scheme.

    The ``shock`` strip goes through :func:`residual`, the three-member
    ``batch`` through the 1-D march's own residual.
    """
    out = {}
    for setup, (q, bcs, metrics, solvers) in strip_setups().items():
        for scheme_name, scheme in PINNED_SCHEMES.items():
            for label, solver in solvers.items():
                if setup == "batch":
                    res = march_residual(q, bcs, metrics, scheme, solver)
                else:
                    res = own_residual(q[:, 0], bcs[0], metrics, scheme, solver)
                out[f"{setup}/{label}/{scheme_name}"] = sha256(res)
    field, bcs, metrics = one_row_annulus()
    ghosts = fill_ghosts(field, bcs, metrics, GAS)
    for scheme_name, scheme in PINNED_SCHEMES.items():
        out[f"annulus/hllc/{scheme_name}"] = sha256(residual(field, ghosts, metrics, scheme, "hllc", GAS))
        for solver, outcome in zip(RIEMANN_SOLVERS, strip_march_outcomes(scheme)):
            if isinstance(outcome, Exception):
                out[f"march/{solver}/{scheme_name}"] = str(outcome)
            else:
                out[f"march/{solver}/{scheme_name}"] = sha256(
                    np.concatenate((outcome.q.ravel(), outcome.residual_history, [outcome.residual_inf])))
    return out


# Recorded from the code that fluxed both face families of the strip.
PINNED_STRIP_DIGESTS = {
    "annulus/hllc/first_order": "0cc71492fdfec5a10b1fd0c7641bafa6b382c6ced2793d477d6ae3c728f14813",
    "annulus/hllc/muscl_superbee_prim": "5d02df4b60e0bc42110f006d89091f6346d1cfae10418b878ace28dc907d2a3d",
    "annulus/hllc/muscl_van_albada": "223f1573e53220841d6a454cd6b634bc33231bcb04ab6daaac339104085bd03a",
    "annulus/hllc/round": "6736aeabe05cabd7d06939588d8139d2ea36032ff2d6b72a4b5471348e314f59",
    "batch/mixed/first_order": "435535d8e93b05f46f53f4f5017832ebf269d8277cb4d369df38c74608aa30a0",
    "batch/mixed/muscl_superbee_prim": "8d018f68a128bb12fcef74b629cefbe6198be78f71968c3a1c428e3cff27f012",
    "batch/mixed/muscl_van_albada": "3b09b659f8f146e90bf7e52b9a22270a00ba53c3ca3e7b5a476016fd50f6266b",
    "batch/mixed/round": "69836ef8c06c3879d175ac00b86ec168b1c3b749728666c7a9bf5ce39f0e9d21",
    "march/ausm_plus/first_order": "12bf8b8645ee8d4e2c2af398551f9b878515ee522c93bc4950717f0eef5166ff",
    "march/ausm_plus/muscl_superbee_prim": "c82e4b96d417f62986db8e84017ee1803d3e6a159dd3694c38bf32424382cdef",
    "march/ausm_plus/muscl_van_albada": "a461da6b469a9f2d906e34cbf3c2395c9ac93686ea6fd6dbc3626ad2ab0db692",
    "march/ausm_plus/round": "575a4e825a393e0701ad5f217c643b9b0141a3a039565abf96762a84eaaf881d",
    "march/hll/first_order": "8c9e4977f87c4f2549e5084595f73e7cd0f1017f8d68bdff31edce1f224caaf7",
    "march/hll/muscl_superbee_prim": "fefe5744793f235a29929332e12887bea66bf67f2405582481341fcbdb12db9a",
    "march/hll/muscl_van_albada": "03679786ef20cbcd45d03dd30d0741581326b708241f167601b6befc5b068643",
    "march/hll/round": "129def3d1fc58fcad2402d4a3b5863f8c6538a6325a0cdaf6fd764f0e0586713",
    "march/hllc/first_order": "130688e20224e88483fca62588f89ae1bced72800855c711edf1e3fa557bdbd5",
    "march/hllc/muscl_superbee_prim": "2efe16a40176522a0e23e0043f88f5fb043933731e8322e02025e691cc961e33",
    "march/hllc/muscl_van_albada": "d2102cb7e4d749e2b4772aa55d8f6b9e077d8e2e10350b659442a3b9e1998f97",
    "march/hllc/round": "542deee72c5f967557543172e5b8b415af2e1043113f61c8e24684f2635f0ea9",
    "march/hlle/first_order": "ac35d3647631b1465198491ba7b975ea287f5ac65743ef17326d6de3ac37f3ed",
    "march/hlle/muscl_superbee_prim": "b38f59486f7e4777c463f84451e254bca2226acb44f79af33ff8f4beb42f17e9",
    "march/hlle/muscl_van_albada": "b001c6dd6e4ed80aa243147ebdf93d4b2f7011d696179ceda843efd0eca39846",
    "march/hlle/round": "53bf96e1660b67d7f78696356507b999ad4a98f548ce842b5a9f4ed4e28afe25",
    "march/hllem/first_order": "4c4b22e407f7efaf3b33185b86cc11e4bb72ff42fb254a96124109c4e42f8a46",
    "march/hllem/muscl_superbee_prim": "197d1d6da47d16be783f9631b0c54461ae6190782dfd4949de1c69512297aaba",
    "march/hllem/muscl_van_albada": "42f0cf4c189b9bc7ecbeb4125a507eec69060006e308cc5c3a67652bc888cb84",
    "march/hllem/round": "6569e93ed3b1e1fbd70805b0ba4ee3b3686db9257b118b4e0b652adb505e17d6",
    "march/roe/first_order": "6e94e26ecdcead5df921782093bd294bfdaf9232c3cce6279affea3ac8d5d3d5",
    "march/roe/muscl_superbee_prim": "8ea4669ed30beb70860db43fdb3eda8239e05a5d4f3046a6711ca8a09018bef3",
    "march/roe/muscl_van_albada": "1b939b9b4a86f522ecd5fd9a3e450ee21ba9153c1d37a5448eee739616ca72da",
    "march/roe/round": "8667251dfaaabde4c02d503fa3c5d4adaae35844b37c9a3882896d418ee359c9",
    "march/slau/first_order": "bc84f377de1f3934642eadd4b659348353112b7fe879d87bb6f2ddb260beda34",
    "march/slau/muscl_superbee_prim": "30949d974f4ffabfb06c53fea6d747d136b863645bc0d27d806ca29d1eda2099",
    "march/slau/muscl_van_albada": "1-D march left the physical state space at step 3",
    "march/slau/round": "1-D march left the physical state space at step 2",
    "march/van_leer_fvs/first_order": "8bed7b00f34414256e8ca7e521b1ee25bef0e94c798e763ecbcdddfb04690f18",
    "march/van_leer_fvs/muscl_superbee_prim": "42e12a9e7b2a2aadc6fa64e44c525c71dcd39e497104182b024838c943801f21",
    "march/van_leer_fvs/muscl_van_albada": "e31ed31c94e83b0868bc3f486c73096f6674ce8d6d2f49eb91b10e757c83b862",
    "march/van_leer_fvs/round": "58349694472d8bea5dacb9d74e3f74dd3d56978f2dc98ff68b9f187f7991f3c5",
    "shock/ausm_plus/first_order": "00e2dd7a39ce97a76bce11a23b11f09289aaae2c27ac581f405ba1052dc5c7f0",
    "shock/ausm_plus/muscl_superbee_prim": "081b79a34411bbb7ca73cf84f828ed05305fffcfebe5ba67601e30eaf9e278ef",
    "shock/ausm_plus/muscl_van_albada": "7b425600bff9c459e2a629984d6132bda2b3bb5bce96c9ff260e7181339bdfb2",
    "shock/ausm_plus/round": "89d4f8e4346923886f67adddd2f718487818c95a5b791a61698c7a195bfb87fe",
    "shock/hll/first_order": "246474e51add3400af61a9bd7e617683f423c5190acb82af9d79778f052451d0",
    "shock/hll/muscl_superbee_prim": "5471f3750a9a47cad8e91f488ba76b3dee19819e879aee699f31458ea715d775",
    "shock/hll/muscl_van_albada": "aedd7040d1bde8f0589738511d06459987f5df1a7fb3fd9dd2842efc375385dd",
    "shock/hll/round": "45d8df52d901611712f4f9f08e8fa77659d0555d75522ec256e3fbb4fc3442e1",
    "shock/hllc/first_order": "8bb050ecefcb5537598f57d5aaef506bb56fff4d3daa3fd1870864c58264d0e5",
    "shock/hllc/muscl_superbee_prim": "f27d5bc48b6b176bdc81f7aa6bc73ebcd2c45a08df009280758d39d944e1a46b",
    "shock/hllc/muscl_van_albada": "b822e8b70f77336dbfc32b10b9e3081f0791f8274ed15a9f1ad16a6a0cebaf4b",
    "shock/hllc/round": "75b1d1881253b9b5516aedb087847e0346303873361459df5baca318a1eda091",
    "shock/hlle/first_order": "852a3a595e46b195741691e6aa1994f41731c3acbe9ca089741bbb9fa8a42377",
    "shock/hlle/muscl_superbee_prim": "bd1c534a24e5e03b8012ef4ab8f5c276e490c6647e3e0e3b338b1930eec87f65",
    "shock/hlle/muscl_van_albada": "aef85d0fa540b35d3b309e563a349770e1ba09d95c9dfe94b5372eb6a8551dcf",
    "shock/hlle/round": "52d3fc17e2091c2ff7216dcd38764719538664d2fb676ab2db177a7850724593",
    "shock/hllem/first_order": "0d23c0a60b340ae1389f22800230f66ae719ec3fbf4de5c4f5b2bbd4183aaeda",
    "shock/hllem/muscl_superbee_prim": "19a4f90437037aa12c3d5a1edd8d5a2beec19562d9713b246b7dd08a58bd2068",
    "shock/hllem/muscl_van_albada": "6c6fa84d921de73678f6e52244a65fccc5248cd296694ff47d4351a47e8ee331",
    "shock/hllem/round": "185880357c6e0a9252f9beacd5aa53134137b2ecb56c979edd2e22916d963ac4",
    "shock/roe/first_order": "f85a00180088627dea8410e187d92ae303a5a7674d7f963fab5e87a175ac49b6",
    "shock/roe/muscl_superbee_prim": "16edd056f48be31d45ad184b61b0f0a3dd80b7f81a994aedcae202c88bd4325e",
    "shock/roe/muscl_van_albada": "2ace4ceaa71a25928ec3fa2f6a3afbada35750424308a6de768ba0f172e09c78",
    "shock/roe/round": "8b15049c3a8733a3eeb7987c21f86158aeabbc7cf41d711812d9b6aa16195602",
    "shock/slau/first_order": "b2dd4031fd40c9fae3e47e29f42b82dff43113e3affcf303883ed07ad097b023",
    "shock/slau/muscl_superbee_prim": "cf4804437864fe3f02fc84ccb71f028cc9e4ea35cba86be0a8074f633658597d",
    "shock/slau/muscl_van_albada": "b3ba869ff9b4b52297b996e151f7b21983becc7c2fcbfbec231a772d930f06f1",
    "shock/slau/round": "9459e4646c0c83cf5f9c7ffdf7eee56ddbe06ca4cf4d4f5b309c619e0c8267ec",
    "shock/van_leer_fvs/first_order": "bf702e0ce1e6eac427f6b9c294ab9d5bfbc0cc9bcf098f4b9d8a8e115043ef52",
    "shock/van_leer_fvs/muscl_superbee_prim": "7b8700fa7f9a315c610b386011cbeb1825a7e5844ec04e9c2bb2f74959581fe3",
    "shock/van_leer_fvs/muscl_van_albada": "1a1c524e1a1c63cb87b26c44788f169d49b08c09a1bbf2921eeb67ff5216fa19",
    "shock/van_leer_fvs/round": "59f2c01e40dc09f443a1a0ff9d9c51c32f8f872abda8fcd885818d6acf2239a5",
}


def counting(monkeypatch, name):
    """Record each call of the residual module's ``name`` as its (args, kwargs)."""
    import importlib

    module = importlib.import_module("shockstab.residual")  # the package exports a function of that name
    calls, fn = [], getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append((args, kwargs))
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


class TestStripBranch:
    def test_strip_digests(self):
        assert strip_digests() == PINNED_STRIP_DIGESTS

    def test_strip_fluxes_only_its_i_faces(self, monkeypatch):
        # The march builds no 2-D ghost frame and calls no 2-D residual; each
        # step, and the final residual, makes one reconstruction and one flux
        # call over the members' i-faces alone, one row of faces per member.
        # The reconstruction takes the component-major stencil view of the
        # march's frame.
        # The harness imports neither name, so both are patched where they
        # are defined, and in the harness in case it comes to import them.
        import importlib

        from shockstab import harness

        for name in ("fill_ghosts", "residual"):
            def fail(*args, name=name, **kwargs):
                pytest.fail(f"the march called {name}")

            monkeypatch.setattr(importlib.import_module("shockstab.residual"), name, fail)
            monkeypatch.setattr(harness, name, fail, raising=False)
        pairs = counting(monkeypatch, "_reconstruct_stencil")
        fluxes = counting(monkeypatch, "_riemann_flux")
        ni, steps, solvers = 9, 5, ["hll", "hllc", "hllc"]
        harness.solve_1d_steady(ni, [3.0, 6.0, 20.0], 0.4, steps, PINNED_SCHEMES["muscl_van_albada"], solvers)
        assert len(pairs) == len(fluxes) == steps + 1
        for (pair_args, _), (flux_args, _) in zip(pairs, fluxes):
            assert pair_args[0].shape == (4, 4, len(solvers), ni + 1)
            assert flux_args[1].shape == (4, 2, len(solvers), ni + 1)

    def test_strip_equals_the_two_family_path(self):
        # The march's i-face residual equals residual() on each member's own
        # one-row frame, byte for byte (signed zeros included): the tilted
        # strip under every solver and scheme, and the mixed-solver batch.
        for q, bcs, metrics, solvers in strip_setups().values():
            for scheme in PINNED_SCHEMES.values():
                for solver in solvers.values():
                    res = march_residual(q, bcs, metrics, scheme, solver)
                    names = solver if isinstance(solver, list) else [solver] * len(bcs)
                    for k, (bc, name) in enumerate(zip(bcs, names)):
                        assert res[:, k].tobytes() == own_residual(q[:, k], bc, metrics, scheme, name).tobytes()

    def test_signed_zeros_of_a_converging_strip(self):
        # With v = 0 on the march's unit-square strip, the y-momentum flux of
        # an i-face is +0.0 where the mass flux runs forward and -0.0 where it
        # runs back, so the cells of a converging flow see a -0.0 i-face
        # difference; the cancelled j-faces' +0.0 must still turn it into the
        # residual's -0.0.
        prim = np.zeros((6, 1, 4))
        prim[..., 0], prim[..., 3] = 1.0, 1.0
        prim[:, 0, 1] = [0.5, 0.4, 0.3, -0.3, -0.4, -0.5]
        q = prim_to_cons(prim, GAS)
        bc = strip_bcs(q[0, 0], 1.0)
        metrics = compute_metrics(make_cartesian_grid(6, 1))
        for scheme in PINNED_SCHEMES.values():
            for solver in RIEMANN_SOLVERS:
                ref = own_residual(q[:, 0], bc, metrics, scheme, solver)
                assert np.signbit(ref[:, 2]).all() and not ref[:, 2].any()
                assert march_residual(q, [bc], metrics, scheme, solver)[:, 0].tobytes() == ref.tobytes()

    def test_one_row_annulus_keeps_both_families(self, monkeypatch):
        field, bcs, metrics = one_row_annulus()
        assert not np.array_equal(metrics.jface_normal[:, 0], metrics.jface_normal[:, 1])
        ghosts = fill_ghosts(field, bcs, metrics, GAS)
        pairs = counting(monkeypatch, "reconstruct_pair")
        residual(field, ghosts, metrics, PINNED_SCHEMES["round"], "hllc", GAS)
        assert pairs[0][0][0].shape == ((6 + 1) * 1 + 6 * 2, 4)


def stage_residual(field, bc, metrics, scheme):
    """The nonlinear march's stage right-hand side for ``field``, as ``(4, ni, nj)``, under the march's error state."""
    cells, evaluate = _residual_map(bc, metrics, scheme, "hllc", GAS)
    cells[...] = np.moveaxis(field.q, -1, 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return evaluate()


def validate_flags(calls):
    """The ``validate`` argument of each recorded flux call; both flux functions take it sixth."""
    return [kwargs.get("validate", args[5] if len(args) > 5 else True) for args, kwargs in calls]


class TestFaceStateValidation:
    """The marches' flux re-tests the face states only where the reconstruction left some untested.

    :func:`residual`, the frame-based reference, calls the public flux, which
    tests every face state.
    """

    @staticmethod
    def cases():
        """``(name, ghosts, evaluate)``: the 1-D march's strip, and 2-D fields through the nonlinear march and :func:`residual`.

        Each path runs on a smooth field and on a cold jittered shock.
        ``evaluate(scheme)`` runs the path's residual.  A strip frame's
        j-face stencils hold four copies of a cell and never fall back, so
        its fallback mask flags the march's i-faces alone.
        """
        shock, bcs, metrics, _ = strip_setups()["shock"]
        smooth = smooth_field(9, 1, seed=21, scale=0.1).q
        out = []
        for name, q, bc in (("strip/smooth", smooth, strip_bcs(smooth[0, 0], 0.9)), ("strip/shock", shock, bcs[0])):
            out.append((name, fill_ghosts(FlowField(q=q), bc, metrics, GAS),
                        lambda scheme, q=q, bc=bc: march_residual(q, [bc], metrics, scheme, "hllc")))
        setups = pinned_setups()
        for name, setup, bc in (("smooth", "annulus", parity_case("annulus")[2]),
                                ("shock", "shock", normal_shock_bcs(20.0, GAS))):
            (field,), (ghosts,), grid_metrics = setups[setup]
            out.append((f"march/{name}", ghosts, lambda scheme, field=field, bc=bc, grid_metrics=grid_metrics:
                        stage_residual(field, bc, grid_metrics, scheme)))
            out.append((f"2d/{name}", ghosts, lambda scheme, field=field, ghosts=ghosts, grid_metrics=grid_metrics:
                        residual(field, ghosts, grid_metrics, scheme, "hllc", GAS)))
        return out

    def test_validation_runs_exactly_where_a_face_state_is_untested(self, monkeypatch):
        seen = {}
        for name, ghosts, evaluate in self.cases():
            for scheme_name, scheme in PINNED_SCHEMES.items():
                fallback = face_reconstruction(ghosts, scheme, GAS)[2].any()
                kernel = counting(monkeypatch, "_riemann_flux")
                public = counting(monkeypatch, "riemann_flux")
                evaluate(scheme)
                flags = validate_flags(kernel) + validate_flags(public)
                if name.startswith("2d/"):
                    assert not kernel and flags == [True]
                else:
                    assert not public and flags == [not scheme.is_second_order or bool(fallback)]
                seen[f"{name}/{scheme_name}"] = flags[0]
                monkeypatch.undo()
        # both outcomes occur for the second-order schemes on both marches
        assert seen["strip/smooth/muscl_van_albada"] is False and seen["strip/shock/muscl_van_albada"] is True
        assert seen["march/smooth/round"] is False and seen["march/shock/round"] is True
        assert seen["strip/smooth/first_order"] is True and seen["march/smooth/first_order"] is True


# ---------------------------------------------------------------------------
# The nonlinear march's one-take stage residual
# ---------------------------------------------------------------------------


def frame_residual_map(bc, metrics, scheme, solver, gas):
    """The march's stage right-hand side as it was: a ghost frame from ``fill_ghosts``, then ``residual``.

    It takes the march's seam: a ``(4, ni, nj)`` block the march writes each
    stage's state into, and a function of that block.
    """
    cells = np.empty((4, metrics.ni, metrics.nj))

    def evaluate():
        field = FlowField(q=np.moveaxis(cells, 0, -1).copy())
        return np.moveaxis(residual(field, fill_ghosts(field, bc, metrics, gas), metrics, scheme, solver, gas), -1, 0)

    return cells, evaluate


def series_bytes(series):
    return series.t.tobytes(), series.log_norm.tobytes(), series.diverged, series.truncated


class TestNonlinearMarchStage:
    @staticmethod
    def marches(monkeypatch, base, bc, metrics, scheme, solver, **controls):
        """The march's series and the series of the frame-and-residual reference march."""
        from shockstab import harness

        series = harness.evolve_nonlinear(base, bc, metrics, scheme, solver, GAS, **controls)
        with monkeypatch.context() as patch:
            patch.setattr(harness, "_residual_map", frame_residual_map)
            reference = harness.evolve_nonlinear(base, bc, metrics, scheme, solver, GAS, **controls)
        return series, reference

    def test_shock_march_equals_the_frame_march(self, monkeypatch):
        # Inflow, exit pressure and periodic sides: every solver and scheme.
        base = init_normal_shock_rh(7, 3, 20.0, 0.1, gas=GAS)
        metrics = compute_metrics(make_cartesian_grid(7, 3))
        for scheme in PINNED_SCHEMES.values():
            for solver in RIEMANN_SOLVERS:
                series, reference = self.marches(monkeypatch, base, normal_shock_bcs(20.0, GAS), metrics, scheme,
                                                 solver, steps=25, amplitude=1e-4)
                assert series_bytes(series) == series_bytes(reference)
                assert len(series.t) == 26

    def test_annulus_and_fallback_marches_equal_the_frame_march(self, monkeypatch):
        # The jittered annulus has slip-wall and zero-gradient sides besides
        # inflow and exit pressure; the cold jittered shock falls back to
        # first order on some faces under MUSCL and ROUND.
        setups = pinned_setups()
        (ring,), _, ring_metrics = setups["annulus"]
        (shock,), (shock_ghosts,), shock_metrics = setups["shock"]
        fell_back = 0
        for scheme in PINNED_SCHEMES.values():
            fell_back += bool(face_reconstruction(shock_ghosts, scheme, GAS)[2].any())
            for base, bc, metrics in ((ring, parity_case("annulus")[2], ring_metrics),
                                      (shock, normal_shock_bcs(20.0, GAS), shock_metrics)):
                series, reference = self.marches(monkeypatch, base, bc, metrics, scheme, "hllc", steps=20)
                assert series_bytes(series) == series_bytes(reference)
        assert fell_back == 2

    @staticmethod
    def j_shock(ni, nj, mach):
        """A normal shock running in ``+j``: the ``(nj, ni)`` i-running shock transposed, momenta swapped."""
        q = init_normal_shock_rh(nj, ni, mach, 0.1, gas=GAS).q.transpose(1, 0, 2)[..., [0, 2, 1, 3]]
        up, down = normal_shock_states(mach, GAS)
        return FlowField(q=q.copy()), BoundaryCondition.supersonic_inflow(prim_to_cons(up[[0, 2, 1, 3]], GAS)), \
            BoundaryCondition.fixed_pressure_outflow(down[3])

    @pytest.mark.parametrize("setup", ["j_shock_periodic", "j_shock_walls", "i_shock_walls", "box"])
    def test_ghost_rows_on_every_side_equal_the_frame_march(self, monkeypatch, setup):
        # Exit-pressure rows on the top, inflow on the bottom, and slip-wall
        # rows on each of the four sides, on a perturbed grid so that every
        # wall has normals of its own.
        ni, nj = 5, 6
        metrics = compute_metrics(perturbed_cartesian(ni, nj, seed=41, amp=0.08))
        wall, periodic = BoundaryCondition.slip_wall(), BoundaryCondition.periodic()
        if setup.startswith("j_shock"):
            base, inflow, outflow = self.j_shock(ni, nj, 6.0)
            side = wall if setup == "j_shock_walls" else periodic
            bc = BoundaryConditionSet(left=side, right=side, bottom=inflow, top=outflow)
        elif setup == "i_shock_walls":
            base = init_normal_shock_rh(ni, nj, 6.0, 0.1, gas=GAS)
            bcs = normal_shock_bcs(6.0, GAS)
            bc = BoundaryConditionSet(left=bcs.left, right=bcs.right, bottom=wall, top=wall)
        else:
            base = smooth_field(ni, nj, seed=42, scale=0.1)
            bc = BoundaryConditionSet(left=wall, right=wall, bottom=wall, top=wall)
        for scheme in PINNED_SCHEMES.values():
            series, reference = self.marches(monkeypatch, base, bc, metrics, scheme, "hllc", steps=15,
                                             amplitude=1e-4)
            assert series_bytes(series) == series_bytes(reference)
            assert len(series.t) == 16

    def test_blow_up_equals_the_frame_march(self, monkeypatch):
        from shockstab.harness import make_base_flow

        scheme = PINNED_SCHEMES["muscl_van_albada"]
        base, _ = make_base_flow(7, 3, 20.0, 0.1, scheme, "hllc", oned_steps=50)
        metrics = compute_metrics(make_cartesian_grid(7, 3))
        series, reference = self.marches(monkeypatch, base, normal_shock_bcs(20.0, GAS), metrics, scheme, "hllc",
                                         steps=50, cfl=3.0, amplitude=1e-2)
        assert series.diverged
        assert series_bytes(series) == series_bytes(reference)

    def test_a_step_builds_no_frame_and_makes_four_flux_calls(self, monkeypatch):
        import importlib

        from shockstab import harness

        module = importlib.import_module("shockstab.residual")
        for name in ("fill_ghosts", "residual", "face_reconstruction", "reconstruct_pair"):
            def fail(*args, name=name, **kwargs):
                pytest.fail(f"the march called {name}")

            monkeypatch.setattr(module, name, fail)
            monkeypatch.setattr(harness, name, fail, raising=False)
        fluxes = counting(monkeypatch, "_riemann_flux")
        base = init_normal_shock_rh(7, 3, 20.0, 0.1, gas=GAS)
        metrics = compute_metrics(make_cartesian_grid(7, 3))
        series = harness.evolve_nonlinear(base, normal_shock_bcs(20.0, GAS), metrics,
                                          PINNED_SCHEMES["muscl_van_albada"], "hllc", GAS, steps=1)
        assert len(series.t) == 2 and not series.diverged
        assert len(fluxes) == 4
        assert all(args[1].shape == (4, 2, 8 * 3 + 7 * 4) for args, _ in fluxes)


class TestQuietOnNonPhysicalCells:
    """The public face, ghost and residual functions silence numpy's divide and invalid warnings.

    The private kernels behind them set no error state of their own (the
    marches set it once per march), so each public entry point sets it
    itself.  A zero-density or negative-pressure cell goes through each of
    them with every warning an error: the results carry inf/nan, or the
    physical-state test raises :class:`StateError`, and numpy stays quiet.
    """

    CELLS = {
        "zero_density": np.array([0.0, 0.0, 0.0, 1.0]),
        "negative_pressure": prim_to_cons(np.array([1.0, 0.5, 0.0, -0.5]), GAS),
    }
    GOOD = prim_to_cons(np.array([1.0, 0.5, 0.1, 1.0]), GAS)

    @staticmethod
    def field_with(cell):
        """A 5x3 M=3 field whose last cell in i, next to the exit-pressure ghosts, is ``cell``."""
        q = np.tile(TestQuietOnNonPhysicalCells.GOOD, (5, 3, 1))
        q[4, 1] = cell
        return FlowField(q=q), normal_shock_bcs(3.0, GAS), compute_metrics(make_cartesian_grid(5, 3))

    @pytest.mark.parametrize("name", sorted(CELLS))
    def test_reconstruct_pair(self, name):
        good, bad = self.GOOD, self.CELLS[name]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for scheme in PINNED_SCHEMES.values():
                left, right, _ = reconstruct_pair(good, good, bad, good, scheme, GAS)
                assert left.shape == right.shape == (4,)

    @pytest.mark.parametrize("name", sorted(CELLS))
    @pytest.mark.parametrize("solver", RIEMANN_SOLVERS)
    def test_riemann_flux_unvalidated(self, solver, name):
        good, bad = self.GOOD, self.CELLS[name]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for left, right in ((bad, good), (good, bad)):
                assert riemann_flux(solver, left, right, np.array([1.0, 0.0]), GAS, validate=False).shape == (4,)

    @pytest.mark.parametrize("name", sorted(CELLS))
    def test_fill_ghosts_and_ghost_dependency(self, name):
        field, bcs, metrics = self.field_with(self.CELLS[name])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ext = fill_ghosts(field, bcs, metrics, GAS).ext
            ghost_dependency(field, bcs, metrics, GAS)
        if name == "zero_density":  # the exit ghosts of a zero-density cell divide by zero
            assert not np.all(np.isfinite(ext[-2:, 3]))

    @pytest.mark.parametrize("name", sorted(CELLS))
    def test_residual_and_assemble_raise_quietly(self, name):
        from shockstab.stability import assemble

        field, bcs, metrics = self.field_with(self.CELLS[name])
        for scheme in PINNED_SCHEMES.values():
            for solver in RIEMANN_SOLVERS:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    ghosts = fill_ghosts(field, bcs, metrics, GAS)
                    with pytest.raises(StateError, match="non-physical"):
                        residual(field, ghosts, metrics, scheme, solver, GAS)
                    with pytest.raises(StateError, match="non-physical"):
                        assemble(field, metrics, scheme, solver, bcs, GAS)
