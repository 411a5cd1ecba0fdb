"""Boundary ghosts, their linearization, and the finite-volume residual."""

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
