"""State conversions, shock jump relations, flow-file I/O, and linearization."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shockstab import FlowFileError, StateError
from shockstab.state import (
    FlowField,
    GasModel,
    _physical_state,
    _primitive_columns,
    cons_to_prim,
    flow_file_paths,
    init_normal_shock_rh,
    is_physical_prim,
    normal_shock_states,
    perturbation_to_primitive,
    prim_to_cons,
    read_flow_files,
    sound_speed,
    write_flow_files,
)

GAS = GasModel()


def random_physical_prim(rng, shape=()):
    """Seeded primitive states with positive density and pressure."""
    rho = rng.uniform(0.1, 5.0, shape)
    u = rng.uniform(-3.0, 3.0, shape)
    v = rng.uniform(-3.0, 3.0, shape)
    p = rng.uniform(0.05, 4.0, shape)
    return np.stack([rho, u, v, p], axis=-1)


def euler_flux_x(prim, gas):
    """Exact x-direction flux of a primitive state (independent oracle)."""
    rho, u, v, p = prim
    e_tot = p / (gas.gamma - 1.0) + 0.5 * rho * (u * u + v * v)
    return np.array([rho * u, rho * u * u + p, rho * u * v, u * (e_tot + p)])


class TestGasModel:
    def test_default_gamma(self):
        assert GasModel().gamma == 1.4

    @pytest.mark.parametrize("gamma", [1.0, 0.9, -2.0, np.nan])
    def test_rejects_non_physical_gamma(self, gamma):
        with pytest.raises(StateError):
            GasModel(gamma=gamma)


class TestFlowField:
    @pytest.mark.parametrize("shape", [(3, 4), (2, 3, 3), (2, 3, 4, 1), (4,)])
    def test_rejects_a_shape_other_than_ni_nj_4(self, shape):
        message = rf"^flow field must have shape \(ni, nj, 4\), got {re.escape(str(shape))}$"
        with pytest.raises(StateError, match=message):
            FlowField(q=np.ones(shape))


class TestConversions:
    def test_hand_value(self):
        cons = prim_to_cons(np.array([2.0, 3.0, 4.0, 5.0]), GAS)
        # E = p/(gamma-1) + rho*(u^2+v^2)/2 = 12.5 + 25
        assert np.allclose(cons, [2.0, 6.0, 8.0, 37.5], rtol=0.0, atol=0.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        prim = random_physical_prim(rng, (40,))
        back = cons_to_prim(prim_to_cons(prim, GAS), GAS)
        assert np.allclose(back, prim, rtol=1e-14, atol=1e-14)

    def test_sound_speed(self):
        prim = np.array([2.0, 0.0, 0.0, 5.0])
        assert sound_speed(prim, GAS) == pytest.approx(np.sqrt(1.4 * 5.0 / 2.0), rel=1e-15)

    def test_is_physical_flags(self):
        prim = np.array(
            [
                [1.0, 0.0, 0.0, 1.0],
                [-1.0, 0.0, 0.0, 1.0],
                [1.0, 0.0, 0.0, -0.1],
                [1.0, np.nan, 0.0, 1.0],
            ]
        )
        assert list(is_physical_prim(prim)) == [True, False, False, False]

    def test_is_physical_rejects_every_non_finite_column(self):
        prim = np.tile([1.0, 0.5, -0.5, 1.0], (4, 1))
        prim[np.arange(4), np.arange(4)] = np.inf
        assert not is_physical_prim(prim).any()

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.tuples(*[st.one_of(
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-200, 1.0, -1.0, 0.4, 1e154, 1e200, -1e200,
                         1.7976931348623157e308, -1.7976931348623157e308, np.inf, -np.inf, np.nan]),
        st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)) for _ in range(4)]),
        min_size=1, max_size=16))
    def test_short_test_of_converted_states(self, rows):
        # For columns out of _primitive_columns, rho > 0 and 0 < p < inf is
        # the whole four-column test: a non-finite u or v, or an infinite
        # rho, leaves p NaN or -inf.
        cons = np.array(rows, dtype=float)
        with np.errstate(all="ignore"):
            rho, u, v, p = _primitive_columns(cons.T, GAS)
            full = np.isfinite(rho) & np.isfinite(u) & np.isfinite(v) & np.isfinite(p) & (rho > 0.0) & (p > 0.0)
            short = _physical_state(rho, p)
            assert np.array_equal(short, full)
            assert np.array_equal(short, is_physical_prim(cons_to_prim(cons, GAS)))


class TestNormalShock:
    def test_upstream_normalization(self):
        up, _ = normal_shock_states(5.0, GAS)
        assert np.array_equal(up[:3], [1.0, 1.0, 0.0])
        assert up[3] == pytest.approx(1.0 / (1.4 * 25.0), rel=1e-16)
        # upstream Mach is exactly the requested value
        assert 1.0 / sound_speed(up, GAS) == pytest.approx(5.0, rel=1e-14)

    def test_mach3_hand_ratios(self):
        _, down = normal_shock_states(3.0, GAS)
        assert abs(down[0] - 27.0 / 7.0) <= 1e-12 * (27.0 / 7.0)
        assert abs(down[1] - 7.0 / 27.0) <= 1e-12 * (7.0 / 27.0)

    def test_sonic_limit_is_continuous(self):
        up, down = normal_shock_states(1.0, GAS)
        assert np.allclose(down, up, rtol=1e-14, atol=1e-16)

    @pytest.mark.parametrize("mach", [0.99, 0.0, -3.0, np.nan])
    def test_rejects_subsonic(self, mach):
        with pytest.raises(StateError):
            normal_shock_states(mach, GAS)

    @pytest.mark.parametrize("mach", [1.01, 2.0, 3.0, 6.0, 20.0, 30.0])
    def test_jump_flux_equalities(self, mach):
        up, down = normal_shock_states(mach, GAS)
        f_up = euler_flux_x(up, GAS)
        f_down = euler_flux_x(down, GAS)
        scale = np.maximum(np.abs(f_up), 1e-30)
        assert np.max(np.abs(f_up - f_down) / scale) <= 1e-12

    @pytest.mark.parametrize("mach", [1.5, 3.0, 20.0])
    def test_downstream_subsonic(self, mach):
        _, down = normal_shock_states(mach, GAS)
        assert down[1] / sound_speed(down, GAS) < 1.0

    def test_gamma_dependence(self):
        # monatomic gas, M0=2: rho2 = (g+1)M^2/((g-1)M^2+2)
        gas = GasModel(gamma=5.0 / 3.0)
        _, down = normal_shock_states(2.0, gas)
        assert down[0] == pytest.approx((8.0 / 3.0) * 4.0 / ((2.0 / 3.0) * 4.0 + 2.0), rel=1e-14)


class TestShockInit:
    def test_plateaus_and_blend(self):
        field = init_normal_shock_rh(7, 3, 3.0, 0.25, shock_col=4, gas=GAS)
        up, down = normal_shock_states(3.0, GAS)
        u_up, u_down = prim_to_cons(up, GAS), prim_to_cons(down, GAS)
        assert np.array_equal(field.q[:4], np.broadcast_to(u_up, (4, 3, 4)))
        assert np.array_equal(field.q[5:], np.broadcast_to(u_down, (2, 3, 4)))
        blend = 0.25 * u_up + 0.75 * u_down
        assert np.array_equal(field.q[4], np.broadcast_to(blend, (3, 4)))

    def test_epsilon_limits(self):
        up, down = normal_shock_states(2.0, GAS)
        u_up, u_down = prim_to_cons(up, GAS), prim_to_cons(down, GAS)
        at_one = init_normal_shock_rh(5, 2, 2.0, 1.0, gas=GAS)
        assert np.array_equal(at_one.q[2, 0], u_up)
        at_zero = init_normal_shock_rh(5, 2, 2.0, 0.0, gas=GAS)
        assert np.array_equal(at_zero.q[2, 0], u_down)

    def test_default_shock_column(self):
        field = init_normal_shock_rh(11, 2, 2.0, 0.5, gas=GAS)
        mids = np.flatnonzero(
            [not np.allclose(field.q[i, 0], field.q[0, 0]) and
             not np.allclose(field.q[i, 0], field.q[-1, 0]) for i in range(11)]
        )
        assert list(mids) == [5]

    @pytest.mark.parametrize("epsilon", [-0.1, 1.5, np.nan])
    def test_rejects_bad_epsilon(self, epsilon):
        with pytest.raises(StateError):
            init_normal_shock_rh(5, 2, 2.0, epsilon, gas=GAS)

    @pytest.mark.parametrize("col", [-1, 5, 99])
    def test_rejects_bad_column(self, col):
        with pytest.raises(StateError):
            init_normal_shock_rh(5, 2, 2.0, 0.5, shock_col=col, gas=GAS)


class TestFlowFiles:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        prim = random_physical_prim(rng, (6, 4))
        field = FlowField(q=prim_to_cons(prim, GAS))
        prefix = str(tmp_path / "flow_")
        write_flow_files(field, prefix, GAS)
        back = read_flow_files(prefix, 6, 4, GAS)
        assert np.array_equal(back.q, field.q)

    def test_paths(self):
        assert flow_file_paths("out/f_") == [
            "out/f_rho.dat",
            "out/f_u.dat",
            "out/f_v.dat",
            "out/f_p.dat",
        ]

    def test_record_order_is_i_fastest(self, tmp_path):
        # rho = 10*i + j encodes the indices; record k = j*ni + i
        ni, nj = 3, 2
        prim = np.zeros((ni, nj, 4))
        for i in range(ni):
            for j in range(nj):
                prim[i, j] = (10.0 * i + j + 1.0, 0.0, 0.0, 1.0)
        prefix = str(tmp_path / "f_")
        write_flow_files(FlowField(q=prim_to_cons(prim, GAS)), prefix, GAS)
        values = [float(t) for t in (tmp_path / "f_rho.dat").read_text().split()]
        assert values == [1.0, 11.0, 21.0, 2.0, 12.0, 22.0]

    def test_missing_file(self, tmp_path):
        with pytest.raises(FlowFileError):
            read_flow_files(str(tmp_path / "absent_"), 2, 2, GAS)

    def test_non_ascii_file_rejected(self, tmp_path):
        prefix = str(tmp_path / "f_")
        write_flow_files(FlowField(q=prim_to_cons(np.ones((2, 2, 4)), GAS)), prefix, GAS)
        with open(f"{prefix}u.dat", "ab") as fh:
            fh.write("\u00e9\n".encode("utf-8"))
        with pytest.raises(FlowFileError, match="cannot read flow file .*f_u.dat"):
            read_flow_files(prefix, 2, 2, GAS)

    def test_count_mismatch(self, tmp_path):
        prefix = str(tmp_path / "f_")
        for path in flow_file_paths(prefix):
            with open(path, "w") as fh:
                fh.write("1.0\n" * 3)  # expected 4 records
        with pytest.raises(FlowFileError):
            read_flow_files(prefix, 2, 2, GAS)

    def test_non_numeric(self, tmp_path):
        prefix = str(tmp_path / "f_")
        for path in flow_file_paths(prefix):
            with open(path, "w") as fh:
                fh.write("1.0\n1.0\n1.0\nbad\n")
        with pytest.raises(FlowFileError):
            read_flow_files(prefix, 2, 2, GAS)

    def test_non_physical(self, tmp_path):
        prefix = str(tmp_path / "f_")
        field = FlowField(q=prim_to_cons(np.ones((2, 2, 4)), GAS))
        write_flow_files(field, prefix, GAS)
        with open(f"{prefix}p.dat", "w") as fh:
            fh.write("1.0\n-1.0\n1.0\n1.0\n")
        with pytest.raises(FlowFileError):
            read_flow_files(prefix, 2, 2, GAS)

    def test_overflowing_conservative_state(self, tmp_path):
        # Each primitive is finite and positive, but rho*u^2 overflows the
        # energy of two cells.
        prefix = str(tmp_path / "f_")
        write_flow_files(FlowField(q=prim_to_cons(np.ones((2, 2, 4)), GAS)), prefix, GAS)
        with open(f"{prefix}u.dat", "w") as fh:
            fh.write("1.0\n1e200\n1.0\n-1e160\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FlowFileError, match=r"^flow files '.*f_'\* contain 2 cell\(s\) whose conservative "
                                                    r"state overflows or loses its pressure$"):
                read_flow_files(prefix, 2, 2, GAS)


class TestPerturbationToPrimitive:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_finite_difference(self, seed):
        rng = np.random.default_rng(seed)
        prim = random_physical_prim(rng, (12,))
        base = prim_to_cons(prim, GAS)
        delta = rng.uniform(-1.0, 1.0, base.shape)
        h = 1e-6
        fd = (cons_to_prim(base + h * delta, GAS) - cons_to_prim(base - h * delta, GAS)) / (2.0 * h)
        lin = perturbation_to_primitive(base, delta, GAS)
        assert np.allclose(lin, fd, rtol=1e-7, atol=1e-9)

    def test_is_linear(self):
        rng = np.random.default_rng(5)
        base = prim_to_cons(random_physical_prim(rng, (8,)), GAS)
        d1 = rng.uniform(-1.0, 1.0, base.shape)
        d2 = rng.uniform(-1.0, 1.0, base.shape)
        combined = perturbation_to_primitive(base, 2.5 * d1 - 0.5 * d2, GAS)
        separate = 2.5 * perturbation_to_primitive(base, d1, GAS) - 0.5 * perturbation_to_primitive(
            base, d2, GAS
        )
        assert np.allclose(combined, separate, rtol=1e-13, atol=1e-15)

    def test_complex_passthrough(self):
        rng = np.random.default_rng(6)
        base = prim_to_cons(random_physical_prim(rng, (5,)), GAS)
        delta = rng.uniform(-1.0, 1.0, base.shape) + 1j * rng.uniform(-1.0, 1.0, base.shape)
        out = perturbation_to_primitive(base, delta, GAS)
        assert np.iscomplexobj(out)
        assert np.allclose(out.real, perturbation_to_primitive(base, delta.real, GAS))
        assert np.allclose(out.imag, perturbation_to_primitive(base, delta.imag, GAS))
