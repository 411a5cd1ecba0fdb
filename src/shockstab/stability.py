"""Linearized residual operator and its eigenvalue analysis.

Perturbing every interior cell of a base flow and chaining, per face, the
flux derivatives with respect to the reconstructed side states against the
derivatives of those side states with respect to the stencil cells yields a
block-sparse operator ``S`` with ``d(deltaU)/dt = S deltaU``.  Each face
couples its two adjacent cell rows to the four stencil cells (mapped through
the ghost layer where applicable), producing at most a nine-point block
stencil per row: self, two neighbours each way in ``i`` and in ``j``.

The base flow is stable in the linear sense exactly when no eigenvalue of
``S`` has positive real part.

Nonlinear maps are differenced centrally with an absolute step of ``1e-7``;
reconstruction branch switches (limiter kinks, guard activations, min ties)
make the operator non-differentiable at isolated states, and faces sitting
near such switches are flagged so downstream comparisons can exclude them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import EigenSolveError, LinearizationError
from .mesh import GridMetrics
from .numerics import ReconstructionScheme, reconstruct_pair, reconstruction_kink_flags, riemann_flux
from .residual import (
    BoundaryConditionSet,
    _iface_stencils,
    _jface_stencils,
    face_reconstruction,
    fill_ghosts,
    ghost_dependency,
    residual,
)
from .state import FlowField, GasModel

__all__ = [
    "FD_STEP",
    "NEUTRAL_TOL",
    "StabilityMatrix",
    "EigenPair",
    "stability_verdict",
    "flux_jacobians",
    "reconstruction_coefficients",
    "assemble",
    "eigensolve",
    "eigensolve_leading",
    "max_real_eigenpair",
    "spectral_radius_upper",
    "mode_field",
    "write_matrix",
    "read_matrix",
]

#: Absolute perturbation applied to conservative components when differencing.
FD_STEP = 1.0e-7

#: Default dense-eigensolver size cap.
DENSE_CAP = 12000

#: Width of the numerical-zero band used when classifying a spectrum.
#:
#: A captured shock in a straight duct with non-reflecting inflow/outflow is
#: neutrally stable to translation: steady discrete profiles form a
#: one-parameter family in the sub-cell shock position, so the matrix at a
#: converged base carries an exactly-zero eigenvalue whose computed value is
#: pure roundoff (observed at +/-1e-16 .. 1e-12 depending on convergence
#: level).  Genuine instabilities of interest sit many orders higher
#: (1e-3 .. 1e0), so real parts inside this band are treated as zero.
NEUTRAL_TOL = 1.0e-10


def stability_verdict(max_real: float, tol: float = NEUTRAL_TOL) -> str:
    """Classify a spectrum by its largest real part.

    ``"unstable"`` only when ``max_real`` exceeds the numerical-zero band
    ``tol``; values inside the band belong to the neutral shock-translation
    mode (see :data:`NEUTRAL_TOL`) and classify as ``"stable"``.
    """
    return "unstable" if max_real > tol else "stable"


def flux_jacobians(
    solver: str,
    left: np.ndarray,
    right: np.ndarray,
    normal: np.ndarray,
    gas: GasModel,
    delta: float = FD_STEP,
):
    """Central-difference flux derivatives with respect to both side states.

    Returns ``(JL, JR)``, each ``(..., 4, 4)`` with ``J[..., r, c] =
    dF_r/dU_c``.  Raises :class:`LinearizationError` if any differenced
    column is non-finite (e.g. a perturbation left the physical state space).
    """
    left = np.asarray(left, dtype=float)
    right = np.asarray(right, dtype=float)
    jl = np.empty(left.shape[:-1] + (4, 4))
    jr = np.empty_like(jl)
    for c in range(4):
        e = np.zeros(4)
        e[c] = delta
        fp = riemann_flux(solver, left + e, right, normal, gas, validate=False)
        fm = riemann_flux(solver, left - e, right, normal, gas, validate=False)
        jl[..., :, c] = (fp - fm) / (2.0 * delta)
        fp = riemann_flux(solver, left, right + e, normal, gas, validate=False)
        fm = riemann_flux(solver, left, right - e, normal, gas, validate=False)
        jr[..., :, c] = (fp - fm) / (2.0 * delta)
    if not (np.all(np.isfinite(jl)) and np.all(np.isfinite(jr))):
        raise LinearizationError(
            f"flux differencing for solver {solver!r} produced non-finite entries; "
            "the base flow sits too close to the boundary of the physical state space"
        )
    return jl, jr


def _first_order_coefficients(shape):
    al = np.zeros(shape + (4, 4, 4))
    ar = np.zeros_like(al)
    al[..., 1, :, :] = np.eye(4)
    ar[..., 2, :, :] = np.eye(4)
    return al, ar


def reconstruction_coefficients(
    s0: np.ndarray,
    s1: np.ndarray,
    s2: np.ndarray,
    s3: np.ndarray,
    scheme: ReconstructionScheme,
    gas: GasModel,
    delta: float = FD_STEP,
):
    """Derivatives of the face states with respect to the stencil cells.

    Returns ``(AL, AR)`` of shape ``(..., 4, 4, 4)`` where ``AL[..., c, r, m]``
    is ``dUleft_r/dU(cell c)_m`` and cells are numbered along the stencil.
    First-order coefficients are exact (0, I, 0 pattern); the nonlinear
    schemes are differenced centrally.
    """
    s0, s1, s2, s3 = (np.asarray(a, dtype=float) for a in (s0, s1, s2, s3))
    if scheme.kind == "first_order":
        return _first_order_coefficients(s0.shape[:-1])
    cells = (s0, s1, s2, s3)
    al = np.empty(s0.shape[:-1] + (4, 4, 4))
    ar = np.empty_like(al)
    for c in range(4):
        for m in range(4):
            e = np.zeros(4)
            e[m] = delta
            bumped = [cells[k] + e if k == c else cells[k] for k in range(4)]
            lp, rp = reconstruct_pair(*bumped, scheme, gas)
            bumped = [cells[k] - e if k == c else cells[k] for k in range(4)]
            lm, rm = reconstruct_pair(*bumped, scheme, gas)
            al[..., c, :, m] = (lp - lm) / (2.0 * delta)
            ar[..., c, :, m] = (rp - rm) / (2.0 * delta)
    if not (np.all(np.isfinite(al)) and np.all(np.isfinite(ar))):
        raise LinearizationError("reconstruction differencing produced non-finite entries")
    return al, ar


@dataclass
class StabilityMatrix:
    """Assembled linear operator plus assembly diagnostics.

    ``matrix`` is CSR of dimension ``4*ni*nj`` with cell ``(i, j)`` occupying
    the block row ``j*ni + i`` (``i`` fastest).  ``kink_iface``/``kink_jface``
    mark faces whose reconstruction sits near a branch switch of the scheme;
    ``fallback_iface``/``fallback_jface`` mark faces whose base reconstruction
    needed the positivity fallback.  ``base_residual_inf`` records how well
    the base flow satisfies the steady equations (diagnostic only: the
    analysis is meaningful for any base state, converged or not).
    """

    matrix: sp.csr_matrix
    ni: int
    nj: int
    base_residual_inf: float
    kink_iface: np.ndarray
    kink_jface: np.ndarray
    fallback_iface: np.ndarray
    fallback_jface: np.ndarray

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def flagged_cells(self) -> np.ndarray:
        """Interior cells adjacent to any flagged face (bool, ``(ni, nj)``)."""
        flag_i = self.kink_iface | self.fallback_iface
        flag_j = self.kink_jface | self.fallback_jface
        cells = np.zeros((self.ni, self.nj), dtype=bool)
        cells |= flag_i[1:, :]   # face f is the left face of cell f
        cells |= flag_i[:-1, :]  # and the right face of cell f-1
        cells |= flag_j[:, 1:]
        cells |= flag_j[:, :-1]
        return cells


def _scatter_family(entries, contrib, dep_sten, length, volume, cell_block, sign):
    """Append COO entries of one face family into one adjacent-cell row.

    ``contrib``: ``(..., 4, 4, 4)`` per-face blocks (stencil cell, flux
    component, state component); ``dep_sten``: ``(..., 4)`` flat interior
    indices per stencil cell (-1 = no dependency); ``cell_block``: ``(...,)``
    flat index of the receiving cell.
    """
    fac = sign * (length / volume)
    blocks = fac[..., None, None, None] * contrib
    rows = 4 * cell_block[..., None, None, None] + np.arange(4)[None, :, None]
    cols = 4 * dep_sten[..., :, None, None] + np.arange(4)[None, None, :]
    mask = np.broadcast_to(dep_sten[..., :, None, None] >= 0, blocks.shape)
    entries.append(
        (
            np.broadcast_to(rows, blocks.shape)[mask],
            np.broadcast_to(cols, blocks.shape)[mask],
            blocks[mask],
        )
    )


def assemble(
    base: FlowField,
    metrics: GridMetrics,
    scheme: ReconstructionScheme,
    solver: str,
    bc: BoundaryConditionSet,
    gas: GasModel,
    delta: float = FD_STEP,
    kink_tol: float = 1.0e-5,
    small_slope_tol: float = 1.0e-4,
) -> StabilityMatrix:
    """Assemble the global linearized operator about ``base``.

    Per face: difference the flux against both reconstructed side states,
    difference the reconstruction against its four stencil cells, chain the
    two, map stencil cells through the ghost dependencies, and scatter the
    resulting 4x4 blocks with ``-L/vol`` into the left adjacent cell row and
    ``+L/vol`` into the right one.
    """
    ni, nj = base.ni, base.nj
    ghosts = fill_ghosts(base, bc, metrics, gas)
    dep, gjac = ghost_dependency(base, bc, metrics, gas, delta)
    (il, ir), (jl, jr), flags = face_reconstruction(ghosts, scheme, gas, collect_fallback=True)

    base_res = residual(base, ghosts, metrics, scheme, solver, gas)
    base_residual_inf = float(np.max(np.abs(base_res)))

    entries: list = []
    for axis, (left_state, right_state) in (("i", (il, ir)), ("j", (jl, jr))):
        if axis == "i":
            stencils = _iface_stencils(ghosts.ext, ni, nj)
            normal = metrics.iface_normal
            length = metrics.iface_len
            dep_sten = np.stack([dep[c : c + ni + 1, 2 : nj + 2] for c in range(4)], axis=2)
            g_sten = np.stack([gjac[c : c + ni + 1, 2 : nj + 2] for c in range(4)], axis=2)
        else:
            stencils = _jface_stencils(ghosts.ext, ni, nj)
            normal = metrics.jface_normal
            length = metrics.jface_len
            dep_sten = np.stack([dep[2 : ni + 2, c : c + nj + 1] for c in range(4)], axis=2)
            g_sten = np.stack([gjac[2 : ni + 2, c : c + nj + 1] for c in range(4)], axis=2)

        jl_flux, jr_flux = flux_jacobians(solver, left_state, right_state, normal, gas, delta)
        al, ar = reconstruction_coefficients(*stencils, scheme, gas, delta)
        # Chain rule per stencil cell, then through the ghost map.
        contrib = np.einsum("...rk,...ckm->...crm", jl_flux, al)
        contrib += np.einsum("...rk,...ckm->...crm", jr_flux, ar)
        contrib = np.einsum("...crk,...ckm->...crm", contrib, g_sten)

        ii, jj = np.meshgrid(np.arange(ni), np.arange(nj), indexing="ij")
        block = jj * ni + ii
        if axis == "i":
            # Faces 1..ni feed cell (f-1, j) with -L/vol; faces 0..ni-1 feed (f, j) with +L/vol.
            _scatter_family(entries, contrib[1:], dep_sten[1:], length[1:], metrics.volume, block, -1.0)
            _scatter_family(entries, contrib[:-1], dep_sten[:-1], length[:-1], metrics.volume, block, +1.0)
        else:
            _scatter_family(entries, contrib[:, 1:], dep_sten[:, 1:], length[:, 1:], metrics.volume, block, -1.0)
            _scatter_family(entries, contrib[:, :-1], dep_sten[:, :-1], length[:, :-1], metrics.volume, block, +1.0)

    rows = np.concatenate([e[0] for e in entries])
    cols = np.concatenate([e[1] for e in entries])
    vals = np.concatenate([e[2] for e in entries])
    n = 4 * ni * nj
    matrix = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()

    kink_i = reconstruction_kink_flags(
        *_iface_stencils(ghosts.ext, ni, nj), scheme, gas, small_slope_tol, kink_tol
    )
    kink_j = reconstruction_kink_flags(
        *_jface_stencils(ghosts.ext, ni, nj), scheme, gas, small_slope_tol, kink_tol
    )
    return StabilityMatrix(
        matrix=matrix,
        ni=ni,
        nj=nj,
        base_residual_inf=base_residual_inf,
        kink_iface=kink_i,
        kink_jface=kink_j,
        fallback_iface=flags["iface"],
        fallback_jface=flags["jface"],
    )


# ---------------------------------------------------------------------------
# Eigenvalue analysis
# ---------------------------------------------------------------------------


@dataclass
class EigenPair:
    """Dominant eigenvalue with its (inverse-iteration) eigenvector."""

    eigenvalue: complex
    vector: np.ndarray
    residual: float


def _sort_spectrum(values: np.ndarray) -> np.ndarray:
    """Deterministic order: descending real part, then descending imaginary."""
    order = np.lexsort((-values.imag, -values.real))
    return values[order]


def eigensolve(matrix, cap: int = DENSE_CAP) -> np.ndarray:
    """Full spectrum via the dense nonsymmetric solver, deterministically sorted.

    Refuses matrices larger than ``cap`` (dense work grows cubically); use
    :func:`eigensolve_leading` beyond that.
    """
    n = matrix.shape[0]
    if n > cap:
        raise EigenSolveError(
            f"matrix dimension {n} exceeds the dense cap {cap}; use the iterative path"
        )
    dense = matrix.toarray() if sp.issparse(matrix) else np.asarray(matrix, dtype=float)
    values = np.linalg.eigvals(dense)
    return _sort_spectrum(values)


def eigensolve_leading(
    matrix: sp.spmatrix,
    k: int = 12,
    seed: int = 20230614,
    maxiter: int | None = None,
    tol: float = 0.0,
) -> np.ndarray:
    """Leading eigenvalues (largest real part) via the implicitly restarted
    Arnoldi iteration, with a seeded start vector for reproducibility."""
    n = matrix.shape[0]
    if not 0 < k < n - 1:
        raise EigenSolveError(f"need 0 < k < n-1 for the iterative path, got k={k}, n={n}")
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(n)
    try:
        values = spla.eigs(
            matrix.tocsc().astype(float),
            k=k,
            which="LR",
            v0=v0,
            maxiter=maxiter,
            tol=tol,
            return_eigenvectors=False,
        )
    except spla.ArpackNoConvergence as exc:
        raise EigenSolveError(f"Arnoldi iteration did not converge: {exc}") from exc
    return _sort_spectrum(values)


def spectral_radius_upper(matrix: sp.spmatrix) -> float:
    """Deterministic upper bound ``sqrt(norm1 * norminf)`` on the spectral radius."""
    a = abs(matrix)
    norm1 = float(a.sum(axis=0).max())
    norminf = float(a.sum(axis=1).max())
    return float(np.sqrt(norm1 * norminf))


def max_real_eigenpair(
    matrix: sp.spmatrix,
    eigenvalues: np.ndarray | None = None,
    cap: int = DENSE_CAP,
    seed: int = 20230614,
    shift: float = 1.0e-8,
    max_iterations: int = 50,
    residual_factor: float = 1.0e-8,
) -> EigenPair:
    """Eigenvalue of largest real part and its eigenvector.

    The eigenvector comes from inverse iteration with the slightly offset
    shift ``lambda + shift`` (so the factored matrix is nonsingular), started
    from a seeded random vector, and is normalized so its largest-magnitude
    component equals 1 exactly.  Convergence requires
    ``|S v - lambda v| <= residual_factor * |S|_F * |v|``.
    """
    if not sp.issparse(matrix):
        matrix = sp.csr_matrix(np.asarray(matrix, dtype=float))
    if eigenvalues is None:
        eigenvalues = eigensolve(matrix, cap=cap)
    lam = complex(eigenvalues[0])
    n = matrix.shape[0]
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    shifted = (matrix.astype(complex) - (lam + shift) * sp.identity(n, dtype=complex)).tocsc()
    try:
        lu = spla.splu(shifted)
    except RuntimeError as exc:
        raise EigenSolveError(f"inverse-iteration factorization failed: {exc}") from exc
    frob = float(spla.norm(matrix.tocsr(), "fro"))
    best = None
    for _ in range(max_iterations):
        v = lu.solve(v)
        v /= np.linalg.norm(v)
        res = float(np.linalg.norm(matrix @ v - lam * v))
        if best is None or res < best[0]:
            best = (res, v.copy())
        if res <= residual_factor * frob:
            break
    res, v = best
    if res > residual_factor * frob:
        raise EigenSolveError(
            f"inverse iteration stalled: residual {res:g} exceeds {residual_factor:g} * |S|_F = "
            f"{residual_factor * frob:g}"
        )
    pivot = int(np.argmax(np.abs(v)))
    v = v / v[pivot]
    res = float(np.linalg.norm(matrix @ v - lam * v))
    return EigenPair(eigenvalue=lam, vector=v, residual=res)


def mode_field(vector: np.ndarray, ni: int, nj: int) -> np.ndarray:
    """Reshape a flat eigenvector into an ``(ni, nj, 4)`` cell array."""
    if vector.shape != (4 * ni * nj,):
        raise EigenSolveError(f"vector length {vector.shape} does not match {ni} x {nj} cells")
    return vector.reshape(nj, ni, 4).transpose(1, 0, 2)


def write_matrix(matrix: sp.spmatrix, path) -> None:
    """Dump the operator as text: one ``row col value`` triplet per record
    (0-based, row-major order) after a ``nrows ncols nnz`` header."""
    coo = matrix.tocoo()
    order = np.lexsort((coo.col, coo.row))
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{coo.shape[0]} {coo.shape[1]} {coo.nnz}\n")
        for r, c, v in zip(coo.row[order], coo.col[order], coo.data[order]):
            fh.write(f"{r} {c} {v:.17g}\n")


def read_matrix(path) -> sp.csr_matrix:
    """Read a matrix written by :func:`write_matrix`."""
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().split()
        nrows, ncols, nnz = int(header[0]), int(header[1]), int(header[2])
        rows = np.empty(nnz, dtype=np.int64)
        cols = np.empty(nnz, dtype=np.int64)
        vals = np.empty(nnz)
        for k in range(nnz):
            fields = fh.readline().split()
            rows[k], cols[k], vals[k] = int(fields[0]), int(fields[1]), float(fields[2])
    return sp.coo_matrix((vals, (rows, cols)), shape=(nrows, ncols)).tocsr()
