"""Boundary ghosts, their linearization, and the finite-volume residual."""

import hashlib

import numpy as np
import pytest

from shockstab import StateError
from shockstab.mesh import compute_metrics, make_annular_grid, make_cartesian_grid
from shockstab.numerics import RIEMANN_SOLVERS, ReconstructionScheme, reconstruct_pair, riemann_flux
from shockstab.residual import (
    BoundaryCondition,
    BoundaryConditionSet,
    GhostField,
    _split_faces,
    face_reconstruction,
    fill_ghosts,
    ghost_dependency,
    normal_shock_bcs,
    residual,
)
from shockstab.state import (
    FlowField,
    GasModel,
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
        # One inflow state / exit pressure per member; each must be physical.
        states = prim_to_cons(np.array([[1.0, 2.0, 0.0, 0.5], [1.0, 3.0, 0.0, 0.2]]), GAS)
        assert BoundaryCondition.supersonic_inflow(states).state.shape == (2, 4)
        with pytest.raises(StateError):
            BoundaryCondition.supersonic_inflow(np.ones((2, 2, 4)))
        with pytest.raises(StateError):
            BoundaryCondition.supersonic_inflow(np.array([[1.0, 2.0, 0.0, 3.0], [1.0, 0.0, 0.0, -1.0]]))
        with pytest.raises(StateError):
            BoundaryCondition(kind="fixed_pressure_outflow", pressure=np.array([1.0, -0.5]))
        with pytest.raises(StateError):
            BoundaryCondition(kind="fixed_pressure_outflow", pressure=np.array([1.0, np.nan]))

    def test_stack_needs_matching_kinds(self):
        stacked = BoundaryConditionSet.stack([normal_shock_bcs(2.0, GAS), normal_shock_bcs(3.0, GAS)])
        assert stacked.left.state.shape == (2, 4)
        assert np.array_equal(stacked.right.pressure,
                              [normal_shock_bcs(m, GAS).right.pressure for m in (2.0, 3.0)])
        with pytest.raises(StateError, match="left"):
            BoundaryConditionSet.stack([normal_shock_bcs(2.0, GAS), zero_gradient_bcs()])

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
        # A batch field (members on axis 2) whose boundaries hold one inflow
        # state and one exit pressure per member gets every member's own
        # ghosts and residual, bit for bit, slip-wall normals included.
        metrics = compute_metrics(make_annular_grid(6, 5))
        fields = [smooth_field(6, 5, seed=seed, scale=0.1) for seed in (31, 32, 33)]
        bcs = [
            BoundaryConditionSet(
                left=BoundaryCondition.supersonic_inflow(prim_to_cons(np.array([1.0, u, 0.1, 0.9]), GAS)),
                right=BoundaryCondition.fixed_pressure_outflow(p),
                bottom=BoundaryCondition.slip_wall(),
                top=BoundaryCondition.zero_gradient(),
            )
            for u, p in ((2.0, 0.95), (1.8, 1.0), (2.2, 0.9))
        ]
        batch = FlowField(q=np.stack([f.q for f in fields], axis=2))
        ghosts = fill_ghosts(batch, BoundaryConditionSet.stack(bcs), metrics, GAS)
        for scheme in (
            ReconstructionScheme(kind="first_order"),
            ReconstructionScheme(kind="muscl", limiter="van_albada"),
            ReconstructionScheme(kind="round", variables="primitive"),
        ):
            res = residual(batch, ghosts, metrics, scheme, solver, GAS)
            assert res.shape == (6, 5, 3, 4)
            for k, (field, bc) in enumerate(zip(fields, bcs)):
                own = fill_ghosts(field, bc, metrics, GAS)
                assert np.array_equal(ghosts.ext[:, :, k], own.ext)
                assert np.array_equal(res[:, :, k], residual(field, own, metrics, scheme, solver, GAS))

    def test_mixed_solver_batch_equals_each_member(self):
        # One solver name per member (interleaved runs included): every
        # member's residual equals its own one-solver residual, bit for bit.
        solvers = ["hll", "roe", "hll", *RIEMANN_SOLVERS]
        metrics = compute_metrics(make_annular_grid(6, 5))
        fields = [smooth_field(6, 5, seed=40 + k, scale=0.1) for k in range(len(solvers))]
        bc = parity_case("annulus")[2]
        batch = FlowField(q=np.stack([f.q for f in fields], axis=2))
        ghosts = fill_ghosts(batch, BoundaryConditionSet.stack([bc] * len(solvers)), metrics, GAS)
        for scheme in (
            ReconstructionScheme(kind="first_order"),
            ReconstructionScheme(kind="muscl", limiter="van_albada"),
            ReconstructionScheme(kind="round", variables="primitive"),
        ):
            res = residual(batch, ghosts, metrics, scheme, solvers, GAS)
            for k, (field, solver) in enumerate(zip(fields, solvers)):
                own = fill_ghosts(field, bc, metrics, GAS)
                assert np.array_equal(res[:, :, k], residual(field, own, metrics, scheme, solver, GAS))

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
    """``{name: (field, ghosts, metrics)}`` of the fields whose residual bits are pinned.

    ``shock``: a jittered M=20 shock on a perturbed 7x4 grid, cold enough
    upstream that MUSCL and ROUND fall back to first order on some faces;
    ``annulus``: a jittered 6x5 annulus with inflow, exit-pressure,
    slip-wall and zero-gradient sides; ``batch``: three shock members
    (M = 3, 6, 20, jittered) under their own inflow states and exit
    pressures.
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
    batch = FlowField(q=prim_to_cons(prim * (1.0 + 0.03 * rng.uniform(-1.0, 1.0, prim.shape)), GAS))
    batch_metrics = compute_metrics(perturbed_cartesian(6, 3, seed=8, amp=0.1))
    batch_bcs = BoundaryConditionSet.stack([normal_shock_bcs(mach, GAS) for mach in machs])
    return {
        "shock": (shock, fill_ghosts(shock, normal_shock_bcs(20.0, GAS), shock_metrics, GAS), shock_metrics),
        "annulus": (ring_field, fill_ghosts(ring_field, parity_case("annulus")[2], ring_metrics, GAS),
                    ring_metrics),
        "batch": (batch, fill_ghosts(batch, batch_bcs, batch_metrics, GAS), batch_metrics),
    }


def pinned_digests():
    """SHA-256 of every pinned residual and of each setup's fallback mask per scheme."""
    residuals, fallbacks = {}, {}
    for setup, (field, ghosts, metrics) in pinned_setups().items():
        for scheme_name, scheme in PINNED_SCHEMES.items():
            fallbacks[f"{setup}/{scheme_name}"] = sha256(face_reconstruction(ghosts, scheme, GAS)[2])
            for label, solver in PINNED_SOLVERS[setup].items():
                res = residual(field, ghosts, metrics, scheme, solver, GAS)
                residuals[f"{setup}/{label}/{scheme_name}"] = sha256(res)
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
