"""Gas model, state conversions, shock jump relations, and flow-field I/O.

Conservative states are arrays ``(..., 4)`` ordered ``(rho, rho*u, rho*v, E)``
with ``E`` the total energy per unit volume; primitive states are ordered
``(rho, u, v, p)``.  Everything is nondimensional: a normal-shock base flow
uses upstream density and speed as references, so the upstream state is
``(1, 1, 0, 1/(gamma*M0**2))``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FlowFileError, StateError

__all__ = [
    "GasModel",
    "FlowField",
    "prim_to_cons",
    "cons_to_prim",
    "sound_speed",
    "is_physical_prim",
    "normal_shock_states",
    "init_normal_shock_rh",
    "read_prim_files",
    "read_flow_files",
    "write_prim_files",
    "write_flow_files",
    "flow_file_paths",
    "perturbation_to_primitive",
]

FLOW_SUFFIXES = ("rho", "u", "v", "p")


@dataclass(frozen=True)
class GasModel:
    """Calorically perfect gas with ratio of specific heats ``gamma``."""

    gamma: float = 1.4

    def __post_init__(self) -> None:
        if not self.gamma > 1.0:
            raise StateError(f"gamma must exceed 1, got {self.gamma}")


@dataclass
class FlowField:
    """Cell-centered conservative states ``q`` of shape ``(ni, nj, 4)`` on an ``ni x nj`` grid."""

    q: np.ndarray

    def __post_init__(self) -> None:
        q = np.asarray(self.q, dtype=float)
        if q.ndim != 3 or q.shape[-1] != 4:
            raise StateError(f"flow field must have shape (ni, nj, 4), got {q.shape}")
        self.q = q

    @property
    def ni(self) -> int:
        return self.q.shape[0]

    @property
    def nj(self) -> int:
        return self.q.shape[1]


def prim_to_cons(prim: np.ndarray, gas: GasModel) -> np.ndarray:
    """Convert ``(rho, u, v, p)`` to ``(rho, rho*u, rho*v, E)``."""
    prim = np.asarray(prim, dtype=float)
    cons = np.empty_like(prim)
    _conservative_columns(*prim.T, gas, cons.T)
    return cons


def _conservative_columns(rho, u, v, p, gas: GasModel, out: np.ndarray) -> np.ndarray:
    """:func:`prim_to_cons` of the primitive columns ``rho, u, v, p``, written to component-major ``out`` ``(4, ...)``.

    The mirror of :func:`_primitive_columns`: states stored ``(..., 4)``
    pass their reversed views ``prim.T`` and ``cons.T``.
    """
    out[0] = rho
    out[1] = rho * u
    out[2] = rho * v
    out[3] = p / (gas.gamma - 1.0) + 0.5 * rho * (u * u + v * v)
    return out


def _primitive_columns(cons: np.ndarray, gas: GasModel):
    """``rho, u, v, p`` of component-major conservative states ``(4, ...)`` as separate arrays.

    States stored ``(..., 4)`` pass their reversed view ``cons.T``; the
    columns then come out reversed too.  Zero density gives inf/nan rather
    than an error; the caller sets the floating-point error state, once for
    all the work it does with the result.
    """
    rho = cons[0]
    u = cons[1] / rho
    v = cons[2] / rho
    p = (gas.gamma - 1.0) * (cons[3] - 0.5 * rho * (u * u + v * v))
    return rho, u, v, p


def cons_to_prim(cons: np.ndarray, gas: GasModel) -> np.ndarray:
    """Convert ``(rho, rho*u, rho*v, E)`` to ``(rho, u, v, p)``."""
    cons = np.asarray(cons, dtype=float)
    prim = np.empty_like(cons)
    columns = prim.T
    with np.errstate(divide="ignore", invalid="ignore"):
        columns[0], columns[1], columns[2], columns[3] = _primitive_columns(cons.T, gas)
    return prim


def sound_speed(prim: np.ndarray, gas: GasModel) -> np.ndarray:
    """Speed of sound ``sqrt(gamma*p/rho)`` from primitive states."""
    prim = np.asarray(prim, dtype=float)
    return _sound_speed(prim[..., 0], prim[..., 3], gas)


def _sound_speed(rho, p, gas: GasModel):
    """:func:`sound_speed` of separate density and pressure columns."""
    return np.sqrt(gas.gamma * p / rho)


def _physical_state(rho, p) -> np.ndarray:
    """The physical-state test of columns that come out of :func:`_primitive_columns`.

    There ``rho > 0``, ``0 < p < inf`` holds exactly when all four columns
    are finite and density and pressure positive: an infinite density or a
    non-finite velocity makes the kinetic energy infinite or NaN, which
    leaves ``p`` NaN or ``-inf``.
    """
    return (rho > 0.0) & (p > 0.0) & (p < np.inf)


def is_physical_prim(prim: np.ndarray) -> np.ndarray:
    """Elementwise check that density and pressure are finite and positive.

    Primitives from anywhere (a file, say) get the test in full: all four
    columns finite, density and pressure positive.
    """
    prim = np.asarray(prim, dtype=float)
    rho = prim[..., 0]
    return _physical_state(rho, prim[..., 3]) & (rho < np.inf) & np.isfinite(prim[..., 1]) & np.isfinite(prim[..., 2])


def normal_shock_states(mach: float, gas: GasModel = GasModel()) -> tuple[np.ndarray, np.ndarray]:
    """Upstream and downstream primitive states of a stationary normal shock.

    The upstream state is normalized to ``(rho, u, v, p) = (1, 1, 0,
    1/(gamma*M0**2))`` so the upstream Mach number is exactly ``mach``.  The
    downstream state follows from the stationary jump conditions

    ``rho2 = (gamma+1) M0^2 / ((gamma-1) M0^2 + 2)``,
    ``u2 = 1 / rho2``  (mass flux ``rho*u`` continuous),
    ``p2 = p1 * (1 + 2 gamma (M0^2 - 1)/(gamma+1))``.

    ``mach = 1`` degenerates to identical states; ``mach < 1`` is rejected.
    """
    if not np.isfinite(mach) or mach < 1.0:
        raise StateError(f"shock Mach number must be >= 1, got {mach}")
    g = gas.gamma
    m2 = mach * mach
    p1 = 1.0 / (g * m2)
    upstream = np.array([1.0, 1.0, 0.0, p1])
    rho2 = (g + 1.0) * m2 / ((g - 1.0) * m2 + 2.0)
    p2 = p1 * (1.0 + 2.0 * g * (m2 - 1.0) / (g + 1.0))
    downstream = np.array([rho2, 1.0 / rho2, 0.0, p2])
    return upstream, downstream


def init_normal_shock_rh(
    ni: int,
    nj: int,
    mach: float,
    epsilon: float,
    shock_col: int | None = None,
    gas: GasModel = GasModel(),
) -> FlowField:
    """Normal-shock base flow with a single numerical shock cell.

    All columns left of ``shock_col`` carry the upstream state, all columns
    right of it the downstream state, and the shock column itself the convex
    combination ``eps * U_up + (1 - eps) * U_down`` of the *conservative*
    states.  ``epsilon = 1`` places the shock entirely at the upstream state.
    ``shock_col`` defaults to ``ni // 2``.
    """
    if not (np.isfinite(epsilon) and 0.0 <= epsilon <= 1.0):
        raise StateError(f"shock-cell position parameter must lie in [0, 1], got {epsilon}")
    if shock_col is None:
        shock_col = ni // 2
    if not 0 <= shock_col < ni:
        raise StateError(f"shock column {shock_col} outside grid with {ni} columns")
    up_prim, down_prim = normal_shock_states(mach, gas)
    u_up = prim_to_cons(up_prim, gas)
    u_down = prim_to_cons(down_prim, gas)
    q = np.empty((ni, nj, 4))
    q[:shock_col] = u_up
    q[shock_col] = epsilon * u_up + (1.0 - epsilon) * u_down
    q[shock_col + 1 :] = u_down
    return FlowField(q=q)


def flow_file_paths(prefix: str) -> list[str]:
    """Paths of the four flow-variable files for a given prefix.

    The prefix is joined verbatim, e.g. ``prefix='out/flow_'`` yields
    ``out/flow_rho.dat`` ... ``out/flow_p.dat``.
    """
    return [f"{prefix}{suffix}.dat" for suffix in FLOW_SUFFIXES]


def _read_scalar_file(path, count: int) -> np.ndarray:
    try:
        with open(path, "r", encoding="ascii") as fh:
            tokens = fh.read().split()
    except (OSError, UnicodeDecodeError) as exc:
        raise FlowFileError(f"cannot read flow file {path!r}: {exc}") from exc
    if len(tokens) != count:
        raise FlowFileError(f"flow file {path!r} has {len(tokens)} records, expected {count}")
    try:
        return np.array(tokens, dtype=float)
    except ValueError as exc:
        raise FlowFileError(f"flow file {path!r} contains a non-numeric record") from exc


def read_prim_files(prefix: str, ni: int, nj: int) -> np.ndarray:
    """Read a primitive ``(ni, nj, 4)`` array from four one-column files.

    Each file holds ``ni * nj`` values, one per record, with the ``i`` index
    varying fastest.  Density and pressure must be positive everywhere.  The
    values are returned exactly as stored, without conversion.
    """
    count = ni * nj
    columns = [_read_scalar_file(path, count) for path in flow_file_paths(prefix)]
    prim = np.stack([c.reshape(nj, ni).T for c in columns], axis=-1)
    if not np.all(is_physical_prim(prim)):
        bad = int(np.sum(~is_physical_prim(prim)))
        raise FlowFileError(f"flow files {prefix!r}* contain {bad} non-physical cell(s)")
    return prim


def _checked_cons(prim: np.ndarray, gas: GasModel) -> tuple[np.ndarray, int]:
    """``prim_to_cons(prim)`` without numpy warnings, and the number of states
    that do not convert back to a physical one because their energy
    overflows or swamps their pressure."""
    with np.errstate(over="ignore", invalid="ignore"):
        cons = prim_to_cons(prim, gas)
        rho, _, _, p = _primitive_columns(cons.T, gas)
        return cons, int(np.sum(~_physical_state(rho, p)))


def _flow_file_cons(prim: np.ndarray, prefix: str, gas: GasModel) -> np.ndarray:
    """``prim_to_cons`` of the primitives read from the flow files at ``prefix``.

    A cell whose conservative state does not convert back to a physical
    one (:func:`_checked_cons`) raises :class:`FlowFileError` naming the
    files and the number of such cells.
    """
    cons, bad = _checked_cons(prim, gas)
    if bad:
        raise FlowFileError(f"flow files {prefix!r}* contain {bad} cell(s) whose conservative state "
                            "overflows or loses its pressure")
    return cons


def read_flow_files(prefix: str, ni: int, nj: int, gas: GasModel = GasModel()) -> FlowField:
    """Read a primitive-variable field from four one-column files.

    A cell whose conservative state overflows raises :class:`FlowFileError`.
    """
    return FlowField(q=_flow_file_cons(read_prim_files(prefix, ni, nj), prefix, gas))


def _write_records(fh, record: str, *columns) -> None:
    """Write one ``record % fields`` line per entry of the equal-length array ``columns``, one ``%`` per 4,096 records.

    Each block of records becomes Python floats and ints (``tolist``) on its
    own.  ``%.17g`` and ``{:.17g}`` share CPython's float formatter (signed
    zeros, ``inf`` and ``nan`` included), and ``%d`` prints a Python int as
    ``{}`` does, so the text is that of one f-string per record; the blocks
    bound the Python objects and the text held at once.
    """
    width = len(columns)
    for start in range(0, len(columns[0]), 4096):
        block = [column[start:start + 4096].tolist() for column in columns]
        fields = [None] * (width * len(block[0]))
        for k, column in enumerate(block):
            fields[k::width] = column
        fh.write(record * len(block[0]) % tuple(fields))


def write_prim_files(prim: np.ndarray, prefix: str) -> None:
    """Write a primitive ``(ni, nj, 4)`` array as four one-column files.

    The 17-digit format round-trips doubles exactly, so a file written here
    and read back through ``read_prim_files`` reproduces ``prim`` bit for
    bit.
    """
    for k, path in enumerate(flow_file_paths(prefix)):
        with open(path, "w", encoding="ascii") as fh:
            _write_records(fh, "%.17g\n", prim[:, :, k].T.ravel())  # i fastest


def write_flow_files(field: FlowField, prefix: str, gas: GasModel = GasModel()) -> None:
    """Write the field as four one-column primitive files (17 digits)."""
    write_prim_files(cons_to_prim(field.q, gas), prefix)


def perturbation_to_primitive(base_cons: np.ndarray, delta_cons: np.ndarray, gas: GasModel) -> np.ndarray:
    """First-order primitive increments induced by conservative increments.

    Linearizing ``(rho, u, v, p)`` about ``base_cons`` gives

    ``d_rho = dU0``,
    ``d_u = (dU1 - u dU0)/rho``,
    ``d_v = (dU2 - v dU0)/rho``,
    ``d_p = (gamma-1) (dU3 - (u^2+v^2)/2 dU0 - rho (u d_u + v d_v))``.

    Works elementwise on matching ``(..., 4)`` arrays; complex increments
    (eigenvector components) are passed through.
    """
    base_cons = np.asarray(base_cons, dtype=float)
    delta_cons = np.asarray(delta_cons)
    prim = cons_to_prim(base_cons, gas)
    rho, u, v = prim[..., 0], prim[..., 1], prim[..., 2]
    d_rho = delta_cons[..., 0]
    d_u = (delta_cons[..., 1] - u * d_rho) / rho
    d_v = (delta_cons[..., 2] - v * d_rho) / rho
    d_p = (gas.gamma - 1.0) * (
        delta_cons[..., 3] - 0.5 * (u * u + v * v) * d_rho - rho * (u * d_u + v * d_v)
    )
    out = np.empty(delta_cons.shape, dtype=delta_cons.dtype)
    out[..., 0] = d_rho
    out[..., 1] = d_u
    out[..., 2] = d_v
    out[..., 3] = d_p
    return out
