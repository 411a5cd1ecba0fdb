"""Linearized residual operator and its eigenvalue analysis.

Perturbing every interior cell of a base flow and chaining, per face, the
flux derivatives with respect to the reconstructed side states against the
derivatives of those side states with respect to the stencil cells yields a
block-sparse operator ``S`` with ``d(deltaU)/dt = S deltaU``.  Each face
couples its two adjacent cell rows to the four stencil cells (mapped through
the ghost rows where applicable), producing at most a nine-point block
stencil per row: self, two neighbours each way in ``i`` and in ``j``.

The base flow is stable in the linear sense exactly when no eigenvalue of
``S`` has positive real part.

On a grid periodic in ``j`` about a ``j``-uniform base, ``S`` is
block-circulant in ``j``: block row ``j`` (the ``m = 4*ni`` rows of grid row
``j``) holds the same offset blocks ``C_d`` in block column ``(j + d) mod nj``
(``d`` in {0, +-1, +-2} for MUSCL).  The discrete Fourier transform in ``j``
then splits the spectrum of ``S`` into the spectra of the ``nj`` blocks
``S_k = sum_d C_d exp(2 pi i k d / nj)`` of order ``m``, one per transverse
wavenumber ``k`` -- the normal-mode view of the carbuncle literature.  The
full-spectrum solver checks the assembled matrix for this structure and,
where it holds, solves the small blocks instead of all of ``S``.  Since the
blocks reach two rows each way, a :data:`STRIP_ROWS`-row strip about the
same rows holds all of them (:func:`widen_strip_blocks`).

Nonlinear maps are differenced centrally with an absolute step of ``1e-7``;
reconstruction branch switches (limiter kinks, guard activations, min ties)
make the operator non-differentiable at isolated states, and faces sitting
near such switches are flagged so downstream comparisons can exclude them.

The sparse eigensolvers (``scipy.sparse.linalg``: ARPACK and SuperLU) load
on first use, in :func:`eigensolve_leading` and :func:`max_real_eigenpair`,
so runs that call neither (a ``--sweep``, grid generation) never load them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import EigenSolveError, FlowFileError, LinearizationError, StateError
from .mesh import GridMetrics
from .numerics import (
    FD_STEP,  # noqa: F401 - still importable as stability.FD_STEP
    ReconstructionScheme,
    _central_difference,
    _components_first,
    _components_last,
    _reconstruct_stencil,
    _riemann_flux,
    _solver_kernel,
    reconstruct_pair,
    reconstruction_kink_flags,
    riemann_flux,
)
from .residual import (
    BoundaryConditionSet,
    _cell_faces,
    _check_metrics,
    _flux_balance,
    _frame_source_jacobian,
    _ghost_table,
    _join_faces,
    _split_faces,
)
from .state import FlowField, GasModel, _write_records

__all__ = [
    "NEUTRAL_TOL",
    "StabilityMatrix",
    "EigenPair",
    "stability_verdict",
    "flux_jacobians",
    "reconstruction_coefficients",
    "assemble",
    "TransverseBlocks",
    "transverse_blocks",
    "widen_strip_blocks",
    "eigensolve",
    "eigensolve_leading",
    "max_real_eigenpair",
    "spectral_radius_upper",
    "mode_field",
    "write_matrix",
    "read_matrix",
]

#: Default cap on the order of the largest block the dense eigensolver factors.
DENSE_CAP = 12000

#: Block rows of the strip whose offset blocks give those of a wider
#: block-circulant operator: the fewest in which the offsets -2..2 do not alias.
STRIP_ROWS = 5

#: Largest deviation, relative to ``max|S|``, of a block row from block row 0
#: (cyclically shifted) that still counts as block-circulant in ``j``.
_CIRCULANT_TOL = 1.0e-13

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


def stability_verdict(max_real: float) -> str:
    """Classify a spectrum by its largest real part.

    ``"unstable"`` only when ``max_real`` exceeds the numerical-zero band
    :data:`NEUTRAL_TOL`; values inside the band belong to the neutral
    shock-translation mode and classify as ``"stable"``.
    """
    return "unstable" if max_real > NEUTRAL_TOL else "stable"


def flux_jacobians(
    solver: str,
    left: np.ndarray,
    right: np.ndarray,
    normal: np.ndarray,
    gas: GasModel,
):
    """Central-difference flux derivatives with respect to both side states.

    Returns ``(JL, JR)``, each ``(..., 4, 4)`` with ``J[..., r, c] =
    dF_r/dU_c``.  Raises :class:`LinearizationError` if a perturbation left
    the physical state space: a differenced column is non-finite, or the
    solver's interface average (Roe, HLLE, HLLEM) has no positive sound
    speed, whose :class:`StateError` is chained as the cause.
    ``solver`` is one name (a per-member list or an unknown name raises
    :class:`StateError`): each side's probes go through the flux stacked on
    a leading axis (see :func:`~shockstab.numerics._central_difference`),
    with the other side broadcast.
    """
    if not isinstance(solver, str):
        raise StateError(f"flux_jacobians takes one solver name, got {solver!r}")
    _solver_kernel(solver)
    left = np.asarray(left, dtype=float)
    right = np.asarray(right, dtype=float)
    near_boundary = "the base flow sits too close to the boundary of the physical state space"
    try:
        jl = _central_difference(
            lambda u: riemann_flux(solver, u, np.broadcast_to(right, u.shape), normal, gas, validate=False), left)
        jr = _central_difference(
            lambda u: riemann_flux(solver, np.broadcast_to(left, u.shape), u, normal, gas, validate=False), right)
    except StateError as exc:
        raise LinearizationError(f"flux differencing for solver {solver!r} failed: {exc}; {near_boundary}") from exc
    if not (np.all(np.isfinite(jl)) and np.all(np.isfinite(jr))):
        raise LinearizationError(
            f"flux differencing for solver {solver!r} produced non-finite entries; {near_boundary}")
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
):
    """Derivatives of the face states with respect to the stencil cells.

    Returns ``(AL, AR)`` of shape ``(..., 4, 4, 4)`` where ``AL[..., c, r, m]``
    is ``dUleft_r/dU(cell c)_m`` and cells are numbered along the stencil.
    First-order coefficients are exact (0, I, 0 pattern); the nonlinear
    schemes are differenced centrally, the probes of each stencil cell
    stacked on a leading axis and the other cells broadcast.
    """
    s0, s1, s2, s3 = (np.asarray(a, dtype=float) for a in (s0, s1, s2, s3))
    if scheme.kind == "first_order":
        return _first_order_coefficients(s0.shape[:-1])
    cells = (s0, s1, s2, s3)
    al = np.empty(s0.shape[:-1] + (4, 4, 4))
    ar = np.empty_like(al)

    def face_states(c: int, u: np.ndarray) -> np.ndarray:
        """Both face states with cell ``c`` replaced by the probes ``u``, the side axis next to last."""
        stencil = [u if k == c else np.broadcast_to(cell, u.shape) for k, cell in enumerate(cells)]
        left, right, _ = reconstruct_pair(*stencil, scheme, gas)
        return np.stack((left, right), axis=-2)

    for c in range(4):
        jac = _central_difference(lambda u: face_states(c, u), cells[c])  # (..., side, 4, 4)
        al[..., c, :, :], ar[..., c, :, :] = jac[..., 0, :, :], jac[..., 1, :, :]
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


def assemble(
    base: FlowField,
    metrics: GridMetrics,
    scheme: ReconstructionScheme,
    solver: str,
    bc: BoundaryConditionSet,
    gas: GasModel,
) -> StabilityMatrix:
    """Assemble the global linearized operator about ``base``.

    Every face is linearized in one pass over the face batch that
    :func:`~shockstab.residual.residual` evaluates (i-faces first): difference
    the flux against both reconstructed side states, difference the
    reconstruction against its four stencil cells, chain the two and map the
    stencil cells through their ghost derivatives.  The component-major
    stencils are gathered once from the cells and ghost rows of one
    :func:`~shockstab.residual._ghost_table`, through its stencil map, as
    in the nonlinear march; they feed the reconstruction, and their
    ``(faces, 4)`` views the public coefficient and kink-flag functions.
    The table's source map and
    :func:`~shockstab.residual._frame_source_jacobian` give each stencil
    cell's source cell and ghost derivative; the Jacobians and their
    ``einsum`` chain keep their layout.  Each cell row then takes the 4x4
    blocks of its four faces (:func:`~shockstab.residual._cell_faces`): a
    face feeds the cell before it with ``-L/vol`` and the cell after it
    with ``+L/vol``.  ``base_residual_inf`` comes from one call of the flux
    kernel :func:`~shockstab.numerics._riemann_flux` on the same
    reconstructed sides and :func:`~shockstab.residual._flux_balance`, so
    the base is reconstructed and split into primitives once.  The private
    kernels set no floating-point error state; their divide and invalid
    warnings are silenced here, as the public ghost, reconstruction and
    flux functions silence theirs.
    """
    ni, nj = base.ni, base.nj
    _check_metrics(base, metrics)
    table, cells, refresh, (_, rows, sources) = _ghost_table(bc, metrics, gas)
    cells[...] = _components_first(base.q)
    with np.errstate(divide="ignore", invalid="ignore"):
        refresh()
        stencils = table.take(rows, axis=1)  # (4, stencil cell, faces)
        faces, primitives, fallback = _reconstruct_stencil(stencils, scheme, gas)
        base_flux = _riemann_flux(solver, faces, primitives, metrics.face_normal, gas, primitives is None)
        g_sten = np.moveaxis(_frame_source_jacobian(base.q, bc, metrics, gas).take(rows, axis=0), 0, 1)
    stencils = _components_last(stencils)  # the four (faces, 4) cells of the public functions
    left, right = _components_last(faces)
    base_residual_inf = float(np.max(np.abs(_flux_balance(base_flux, metrics))))
    dep_sten = sources.take(rows).T  # (faces, stencil cell)
    jl_flux, jr_flux = flux_jacobians(solver, left, right, metrics.face_normal, gas)
    al, ar = reconstruction_coefficients(*stencils, scheme, gas)
    # Chain rule per stencil cell, then through the ghost map.
    contrib = np.einsum("...rk,...ckm->...crm", jl_flux, al)
    contrib += np.einsum("...rk,...ckm->...crm", jr_flux, ar)
    contrib = np.einsum("...crk,...ckm->...crm", contrib, g_sten)

    # The face order of _cell_faces fixes the COO order.  tocsr then sorts
    # each row by column (scipy's unstable std::sort) before it sums the
    # duplicates, and that sort fixes the summation order and the bits of S.
    faces = _cell_faces(ni, nj)
    length = _join_faces(metrics.iface_len, metrics.jface_len)
    fac = np.array([-1.0, 1.0, -1.0, 1.0]) * (length[faces] / metrics.volume.T.reshape(-1, 1))
    blocks = fac[..., None, None, None] * contrib[faces]  # (cell, face, stencil cell, flux, state)
    sten_cells = dep_sten[faces][..., None, None]
    cell_rows = 4 * np.arange(ni * nj)[:, None, None, None, None] + np.arange(4)[:, None]
    cols = 4 * sten_cells + np.arange(4)
    mask = np.broadcast_to(sten_cells >= 0, blocks.shape)
    n = 4 * ni * nj
    matrix = sp.coo_matrix(
        (blocks[mask], (np.broadcast_to(cell_rows, blocks.shape)[mask], np.broadcast_to(cols, blocks.shape)[mask])),
        shape=(n, n),
    ).tocsr()
    kink_i, kink_j = _split_faces(reconstruction_kink_flags(*stencils, scheme, gas), ni, nj)
    fallback_i, fallback_j = _split_faces(fallback, ni, nj)
    return StabilityMatrix(
        matrix=matrix,
        ni=ni,
        nj=nj,
        base_residual_inf=base_residual_inf,
        kink_iface=kink_i,
        kink_jface=kink_j,
        fallback_iface=fallback_i,
        fallback_jface=fallback_j,
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


@dataclass
class TransverseBlocks:
    """A matrix as its offset blocks ``C_d`` in ``j``, ready for the full-spectrum solve.

    With ``nj > 1`` the matrix is block-circulant in ``j`` with ``nj`` block
    rows: block row ``j`` holds ``blocks[i]`` (dense, ``m x m``) in block
    column ``(j + offsets[i]) mod nj``.  ``offsets`` are the offsets that occur,
    taken mod ``nj`` and ascending, and always start with ``0`` (a zero block
    if the diagonal has none).  ``nj == 1`` is the unsplit matrix: one block,
    the matrix itself, at offset ``0``.
    """

    nj: int
    offsets: tuple[int, ...]
    blocks: tuple

    @property
    def method(self) -> str:
        """``"transverse_fourier"`` for a split matrix, ``"dense"`` for one block."""
        return "transverse_fourier" if self.nj > 1 else "dense"

    @property
    def order(self) -> int:
        """Order of the largest dense block the solve factors: ``2m`` for the
        real form of a conjugate pair of wavenumbers, which exists for ``nj > 2``."""
        return self.blocks[0].shape[0] * (2 if self.nj > 2 else 1)


def transverse_blocks(matrix, nj: int = 1) -> TransverseBlocks:
    """Offset blocks of ``matrix`` if it is block-circulant with ``nj`` block rows.

    The split is accepted when ``nj > 1`` divides the order of a sparse
    ``matrix`` in canonical form (sorted, no duplicate entries), and every
    block row repeats the sparsity pattern of block row 0, shifted
    cyclically by its index, with values equal to within ``1e-13 * max|S|``.
    The blocks ``C_d`` are read from the rows of block row 0; nothing of
    order ``n`` is densified.  Any other matrix comes back as one block.
    """
    whole = TransverseBlocks(nj=1, offsets=(0,), blocks=(matrix,))
    n = matrix.shape[0]
    if nj < 2 or n % nj or not sp.issparse(matrix):
        return whole
    m = n // nj
    csr = matrix.tocsr()
    counts = np.diff(csr.indptr)
    if not csr.has_canonical_format or np.any(counts.reshape(nj, m) != counts[:m]):
        return whole
    rows = np.repeat(np.arange(n), counts)
    # Column of each entry in its own block row's frame: offset d, then the column inside C_d.
    frame = (csr.indices // m - rows // m) % nj * m + csr.indices % m
    order = np.lexsort((frame, rows))
    frame = frame[order].reshape(nj, -1)
    values = csr.data[order].reshape(nj, -1)
    scale = np.max(np.abs(csr.data), initial=0.0)
    if np.any(frame != frame[0]) or np.max(np.abs(values - values[0]), initial=0.0) > _CIRCULANT_TOL * scale:
        return whole
    # Block row 0 is its own frame: C_d sits in block column d.
    offsets = sorted({0, *(frame[0] // m).tolist()})
    slot = np.zeros(nj, dtype=int)
    slot[offsets] = range(len(offsets))
    blocks = np.zeros((len(offsets), m, m))
    blocks[slot[frame[0] // m], rows[order[:frame.shape[1]]], frame[0] % m] = values[0]
    return TransverseBlocks(nj=nj, offsets=tuple(offsets), blocks=tuple(blocks))


def widen_strip_blocks(strip: TransverseBlocks, nj: int) -> TransverseBlocks:
    """Offset blocks of an ``nj``-row operator from those of its split :data:`STRIP_ROWS`-row strip.

    A block-circulant operator couples each block row to the rows at most two
    away, so its ``STRIP_ROWS``-row strip (about the same ``j``-uniform base,
    periodic in ``j``) holds every block ``C_d``: the strip's offsets 3 and 4
    are ``-2`` and ``-1``, relabelled ``nj - 2`` and ``nj - 1``.  For
    ``nj > STRIP_ROWS`` the offsets stay ascending, so :func:`eigensolve`
    sums and solves the blocks as it would those of the full operator.
    """
    if strip.nj != STRIP_ROWS or nj <= STRIP_ROWS:
        raise EigenSolveError(f"a split {STRIP_ROWS}-row strip widens to more rows, "
                              f"got a {strip.nj}-row split for {nj} rows")
    offsets = tuple(d if d <= 2 else d - STRIP_ROWS + nj for d in strip.offsets)
    return TransverseBlocks(nj=nj, offsets=offsets, blocks=strip.blocks)


def eigensolve(matrix, cap: int = DENSE_CAP, nj: int = 1) -> np.ndarray:
    """Full spectrum via the dense nonsymmetric solver, deterministically sorted.

    ``matrix`` (sparse or dense, or its :class:`TransverseBlocks`, which then
    sets ``nj``) is split by :func:`transverse_blocks`.  For each transverse
    wavenumber ``k = 0 .. nj//2`` the block ``S_k = A + iB`` is solved in real
    arithmetic: ``A`` itself where ``S_k`` is real (``k = 0`` and
    ``k = nj/2``), otherwise ``[[A, -B], [B, A]]`` of order ``2m``, whose
    eigenvalues are exactly those of ``S_k`` and ``S_{nj-k} = conj(S_k)``, in
    conjugate pairs.  An unsplit matrix is the single block ``k = 0``.

    Refuses a solve whose largest block exceeds order ``cap`` (dense work
    grows cubically); use :func:`eigensolve_leading` beyond that.  Both
    routes agree to roundoff on well-conditioned eigenvalues; highly
    non-normal clusters (deep in the left half-plane of a captured shock)
    are limited by their conditioning in either route and can differ far
    above roundoff between them.
    """
    split = matrix if isinstance(matrix, TransverseBlocks) else transverse_blocks(matrix, nj)
    if split.order > cap:
        raise EigenSolveError(
            f"the largest dense block has order {split.order}, above the dense cap {cap}; "
            "use the iterative path"
        )
    dense = [b.toarray() if sp.issparse(b) else np.asarray(b, dtype=float) for b in split.blocks]
    offsets = np.asarray(split.offsets)
    values = []
    for k in range(split.nj // 2 + 1):
        angles = 2.0 * np.pi * (k * offsets[1:] % split.nj) / split.nj
        # offsets[0] == 0 has the weight 1, so a lone block is solved as given.
        block = sum((np.cos(a) * c for a, c in zip(angles, dense[1:])), dense[0])
        if 2 * k % split.nj:
            imag = sum((np.sin(a) * c for a, c in zip(angles, dense[1:])), np.zeros_like(block))
            block = np.block([[block, -imag], [imag, block]])
        values.append(np.linalg.eigvals(block))
    return _sort_spectrum(np.concatenate(values))


def eigensolve_leading(matrix: sp.spmatrix, k: int = 12, seed: int = 20230614) -> np.ndarray:
    """Leading eigenvalues (largest real part) via the implicitly restarted
    Arnoldi iteration, with a seeded start vector for reproducibility and
    ARPACK's default iteration limit and (machine-precision) tolerance."""
    n = matrix.shape[0]
    if not 0 < k < n - 1:
        raise EigenSolveError(f"need 0 < k < n-1 for the iterative path, got k={k}, n={n}")
    # Loaded on first use: sweeps and grid generation never need ARPACK or SuperLU.
    import scipy.sparse.linalg as spla

    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(n)
    # Canonical CSR sums each row in ascending column order, as a CSC matvec
    # does, so the iteration sees the same products without a conversion.
    csr = matrix.tocsr().astype(float)
    csr.sum_duplicates()
    try:
        with np.errstate(all="ignore"):
            values = spla.eigs(csr, k=k, which="LR", v0=v0, return_eigenvectors=False)
    except spla.ArpackNoConvergence as exc:
        raise EigenSolveError(f"Arnoldi iteration did not converge: {exc}") from exc
    except spla.ArpackError as exc:
        raise EigenSolveError(f"Arnoldi iteration failed: {exc}") from exc
    return _sort_spectrum(values)


def spectral_radius_upper(matrix: sp.spmatrix) -> float:
    """Deterministic upper bound ``sqrt(norm1 * norminf)`` on the spectral radius."""
    a = abs(matrix)
    norm1 = float(a.sum(axis=0).max())
    norminf = float(a.sum(axis=1).max())
    return float(np.sqrt(norm1 * norminf))


def _frobenius_norm(matrix: sp.spmatrix) -> float:
    """``|S|_F``, finite wherever the norm itself is.

    The sum of the squares of ``S``'s entries overflows once they pass
    about 1e154; the norm is then taken as ``s * |S / s|_F`` with ``s =
    max|S|``.  Below that it is the plain norm, bit for bit.
    """
    data = matrix.tocsr().data
    norm = float(np.linalg.norm(data))
    if norm < np.inf:
        return norm
    scale = float(max(data.max(), -data.min()))
    return scale * float(np.linalg.norm(data / scale)) if scale < np.inf else scale


def max_real_eigenpair(
    matrix: sp.spmatrix,
    eigenvalues: np.ndarray | None = None,
    seed: int = 20230614,
) -> EigenPair:
    """Eigenvalue of largest real part and its eigenvector.

    The eigenvector comes from at most 50 steps of inverse iteration with
    the slightly offset shift ``lambda + 1e-8`` (so the factored matrix is
    nonsingular), started from a seeded random vector, and is normalized so
    its largest-magnitude component equals 1 exactly.  Convergence requires
    ``|S v - lambda v| <= 1e-8 * |S|_F * |v|``, with ``|S|_F`` formed as
    :func:`_frobenius_norm` does, so that it stays finite where the sum of
    the squared entries overflows.
    """
    if not sp.issparse(matrix):
        matrix = sp.csr_matrix(np.asarray(matrix, dtype=float))
    if eigenvalues is None:
        eigenvalues = eigensolve(matrix)
    lam = complex(eigenvalues[0])
    n = matrix.shape[0]
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    shifted = (matrix.astype(complex) - (lam + 1.0e-8) * sp.identity(n, dtype=complex)).tocsc()
    import scipy.sparse.linalg as spla  # loaded on first use, as in eigensolve_leading

    try:
        lu = spla.splu(shifted)
    except RuntimeError as exc:
        raise EigenSolveError(f"inverse-iteration factorization failed: {exc}") from exc
    # A residual that overflows or is NaN fails the test below; numpy stays quiet.
    with np.errstate(all="ignore"):
        limit = 1.0e-8 * _frobenius_norm(matrix)
        best = None
        for _ in range(50):
            v = lu.solve(v)
            v /= np.linalg.norm(v)
            res = float(np.linalg.norm(matrix @ v - lam * v))
            if best is None or res < best[0]:
                best = (res, v.copy())
            if res <= limit:
                break
        res, v = best
        if not res <= limit:
            raise EigenSolveError(f"inverse iteration stalled: residual {res:g} exceeds 1e-8 * |S|_F = {limit:g}")
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
        # Blocks of records: Python lists of every entry would raise peak memory.
        for start in range(0, coo.nnz, 4096):
            block = order[start:start + 4096]
            _write_records(fh, "%d %d %.17g\n", coo.row[block].tolist(), coo.col[block].tolist(),
                           coo.data[block].tolist())


def read_matrix(path) -> sp.csr_matrix:
    """Read a matrix written by :func:`write_matrix`.

    A file that cannot be read, a header other than three non-negative
    integers, a record count other than the header's ``nnz``, a non-numeric
    field, or an index that is not an integer inside the header's shape
    raises :class:`FlowFileError` naming ``path``.
    """
    where = f"matrix file {str(path)!r}"
    try:
        with open(path, "r", encoding="ascii") as fh:
            header = fh.readline().split()
            tokens = fh.read().split()
    except (OSError, UnicodeDecodeError) as exc:
        raise FlowFileError(f"cannot read {where}: {exc}") from exc
    try:
        nrows, ncols, nnz = (int(tok) for tok in header)
        if min(nrows, ncols, nnz) < 0:
            raise ValueError
    except ValueError:
        raise FlowFileError(f"{where} needs a 'nrows ncols nnz' header of non-negative integers, "
                            f"got {' '.join(header)!r}") from None
    if len(tokens) != 3 * nnz:
        raise FlowFileError(f"{where} has {len(tokens)} fields after its header, expected 3 per record "
                            f"for {nnz} records")
    try:
        records = np.array(tokens, dtype=float).reshape(nnz, 3)
    except ValueError:
        raise FlowFileError(f"{where} contains a non-numeric field") from None
    for column, name, size in ((0, "row", nrows), (1, "column", ncols)):
        index = records[:, column]
        bad = ~((index == np.floor(index)) & (index >= 0) & (index < size))
        if np.any(bad):
            k = int(np.argmax(bad))
            raise FlowFileError(f"{where} record {k + 1} has {name} index {tokens[3 * k + column]!r}, "
                                f"not an integer in [0, {size})")
    rows, cols = records[:, 0].astype(np.int64), records[:, 1].astype(np.int64)
    return sp.coo_matrix((records[:, 2], (rows, cols)), shape=(nrows, ncols)).tocsr()
