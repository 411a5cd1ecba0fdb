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
where it holds, solves the small blocks instead of all of ``S``.

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

#: Faces that :func:`assemble` linearizes at a time, and cell rows of ``S``
#: it converts from COO to CSR at a time.  They bound the transients of an
#: assembly to a few times the bytes of ``S``; its bits do not depend on them.
_FACE_BLOCK = 1024
_CELL_BLOCK = 512


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

    Every face of the batch that :func:`~shockstab.residual.residual`
    evaluates (i-faces first) is linearized: difference the flux against
    both reconstructed side states, difference the reconstruction against
    its four stencil cells, chain the two and map the stencil cells through
    their ghost derivatives.  The component-major stencils are gathered once
    from the cells and ghost rows of one
    :func:`~shockstab.residual._ghost_table`, through its stencil map, as in
    the nonlinear march; they feed the reconstruction, and their ``(faces,
    4)`` views the public coefficient and kink-flag functions.  The table's
    source map and :func:`~shockstab.residual._frame_source_jacobian` give
    each stencil cell's source cell and ghost derivative.  Each cell row
    then takes the 4x4 blocks of its four faces
    (:func:`~shockstab.residual._cell_faces`): a face feeds the cell before
    it with ``-L/vol`` and the cell after it with ``+L/vol``.
    ``base_residual_inf`` comes from one call of the flux kernel
    :func:`~shockstab.numerics._riemann_flux` on the same reconstructed
    sides and :func:`~shockstab.residual._flux_balance`, so the base is
    reconstructed and split into primitives once.  The private kernels set
    no floating-point error state; their divide and invalid warnings are
    silenced here, as the public ghost, reconstruction and flux functions
    silence theirs.

    Memory stays bounded on large grids: the flux and reconstruction
    Jacobians, their ``einsum`` chain and the kink flags run over blocks of
    :data:`_FACE_BLOCK` faces into one ``(faces, 4, 4, 4)`` table, and the
    scatter becomes CSR :data:`_CELL_BLOCK` cell rows at a time, the blocks
    joined by ``sp.vstack``.  The bits of ``S`` do not depend on the block
    sizes: every kernel is elementwise per face, and ``tocsr`` sorts and
    sums each row's entries within that row, so a row that receives the
    same entries in the same order gets the same bits in any block.  Only
    the stencil cells read from a ghost row go through their ghost
    derivative.  A cell row's is the identity, and an ``einsum`` with it
    sums from +0.0, which turns -0.0 into +0.0 and keeps every other
    value; the other cells take ``part + 0.0``, which does the same.
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
        ghost_jac = _frame_source_jacobian(base.q, bc, metrics, gas)
    stencils = _components_last(stencils)  # the four (faces, 4) cells of the public functions
    left, right = _components_last(faces)
    base_residual_inf = float(np.max(np.abs(_flux_balance(base_flux, metrics))))
    n_faces = rows.shape[1]
    contrib = np.empty((n_faces, 4, 4, 4))
    kink = np.empty(n_faces, dtype=bool)

    def linearize(block: slice) -> None:
        """Fill ``contrib`` and ``kink`` for the faces of ``block``."""
        sten = [s[block] for s in stencils]
        jl_flux, jr_flux = flux_jacobians(solver, left[block], right[block], metrics.face_normal[block], gas)
        al, ar = reconstruction_coefficients(*sten, scheme, gas)
        # Chain rule per stencil cell, then through the ghost map.
        part = np.einsum("...rk,...ckm->...crm", jl_flux, al)
        part += np.einsum("...rk,...ckm->...crm", jr_flux, ar)
        # A cell row's ghost derivative is the identity, which an einsum
        # applies by summing from +0.0: that is part + 0.0, which turns -0.0
        # into +0.0 and keeps every other value.  Only the stencil cells read
        # from a ghost row go through their derivative.
        sten_rows = rows[:, block].T  # (faces, stencil cell)
        ghost = sten_rows >= ni * nj
        np.add(part, 0.0, out=contrib[block])
        contrib[block][ghost] = np.einsum("...rk,...km->...rm", part[ghost], ghost_jac[sten_rows[ghost]])
        kink[block] = reconstruction_kink_flags(*sten, scheme, gas)

    for start in range(0, n_faces, _FACE_BLOCK):
        linearize(slice(start, start + _FACE_BLOCK))

    # The face order of _cell_faces fixes the COO order of each row.  tocsr
    # then sorts each row by column (scipy's unstable std::sort) before it
    # sums the duplicates, and that sort fixes the summation order and the
    # bits of S.  It sees one row at a time, so a block of cell rows gets
    # the bits it would get inside the whole matrix.
    cell_faces = _cell_faces(ni, nj)
    length = _join_faces(metrics.iface_len, metrics.jface_len)
    volume = metrics.volume.T.reshape(-1, 1)
    dep_sten = sources.take(rows).T  # (faces, stencil cell)
    n = 4 * ni * nj

    def row_block(start: int) -> sp.csr_matrix:
        """The CSR rows of the cells from ``start`` on, at most :data:`_CELL_BLOCK` of them."""
        faces = cell_faces[start : start + _CELL_BLOCK]
        count = len(faces)
        fac = np.array([-1.0, 1.0, -1.0, 1.0]) * (length[faces] / volume[start : start + count])
        blocks = fac[..., None, None, None] * contrib[faces]  # (cell, face, stencil cell, flux, state)
        sten_cells = dep_sten[faces][..., None, None]
        cell_rows = 4 * np.arange(count)[:, None, None, None, None] + np.arange(4)[:, None]
        cols = 4 * sten_cells + np.arange(4)
        mask = np.broadcast_to(sten_cells >= 0, blocks.shape)
        entries = (np.broadcast_to(cell_rows, blocks.shape)[mask], np.broadcast_to(cols, blocks.shape)[mask])
        return sp.coo_matrix((blocks[mask], entries), shape=(4 * count, n)).tocsr()

    matrix = sp.vstack([row_block(start) for start in range(0, ni * nj, _CELL_BLOCK)], format="csr")
    kink_i, kink_j = _split_faces(kink, ni, nj)
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
    column ``(j + offsets[i]) mod nj``.  ``offsets`` are the offsets that
    occur, signed: ``d`` in ``(-nj/2, nj/2]``, so a row's neighbours one and
    two rows below are ``-1`` and ``-2`` for any ``nj``.  They are listed in
    ascending order of ``d mod nj`` and always start with ``0`` (a zero block
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
    order ``n`` is densified.  An offset ``d`` with ``2d > nj`` is given as
    ``d - nj``, so the offsets are signed (see :class:`TransverseBlocks`).
    Any other matrix comes back as one block.
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
    signed = tuple(d - nj if 2 * d > nj else d for d in offsets)
    return TransverseBlocks(nj=nj, offsets=signed, blocks=tuple(blocks))


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
    ARPACK's default iteration limit and (machine-precision) tolerance.

    ARPACK gets a canonical CSR copy of ``matrix`` without its stored zeros
    (more than half of an assembled ``S``).  The values keep their bits: a
    stored zero adds +-0.0 to its row sum, which starts from +0.0 and so is
    never -0.0, and adding +-0.0 to anything else changes nothing.
    """
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
    # A stored zero adds +-0.0 to a row sum that starts from +0.0 and so is
    # never -0.0: dropping it keeps the bits of every product.
    csr.eliminate_zeros()
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

    One complex CSR copy of ``matrix`` without its stored zeros gives the
    shifted matrix and every residual product, so ``S`` is not upcast to
    complex on each step.  The bits are those of ``S`` itself: a stored zero
    adds +-0.0 to a row sum that starts from +0.0, which changes nothing,
    and the sparse subtraction of the shift drops zero results anyway.
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
    # One complex copy without stored zeros serves the shift and every
    # residual product.  A dropped zero adds +-0.0 to a row sum that starts
    # from +0.0, so the products keep their bits; the sparse subtraction
    # drops zero results anyway, so the shifted matrix is unchanged.
    cmatrix = matrix.tocsr().astype(complex)
    cmatrix.eliminate_zeros()
    shifted = (cmatrix - (lam + 1.0e-8) * sp.identity(n, dtype=complex)).tocsc()
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
            res = float(np.linalg.norm(cmatrix @ v - lam * v))
            if best is None or res < best[0]:
                best = (res, v.copy())
            if res <= limit:
                break
        res, v = best
        if not res <= limit:
            raise EigenSolveError(f"inverse iteration stalled: residual {res:g} exceeds 1e-8 * |S|_F = {limit:g}")
        pivot = int(np.argmax(np.abs(v)))
        v = v / v[pivot]
        res = float(np.linalg.norm(cmatrix @ v - lam * v))
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
        _write_records(fh, "%d %d %.17g\n", coo.row[order], coo.col[order], coo.data[order])


def read_matrix(path) -> sp.csr_matrix:
    """Read a matrix written by :func:`write_matrix`.

    A file that cannot be read, a header other than three non-negative
    integers, a record count other than the header's ``nnz``, a non-numeric
    field, an index that is not an integer inside the header's shape, a
    value that is not finite (``nan``, ``inf``), or a ``(row, col)`` pair
    that an earlier record already holds raises :class:`FlowFileError`
    naming ``path``, and for the last three the 1-based record.
    :func:`write_matrix` writes neither of the last two; a repeated pair
    would otherwise be summed into one entry.
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
    bad = ~np.isfinite(records[:, 2])
    if np.any(bad):
        k = int(np.argmax(bad))
        raise FlowFileError(f"{where} record {k + 1} has value {tokens[3 * k + 2]!r}, not a finite number")
    rows, cols = records[:, 0].astype(np.int64), records[:, 1].astype(np.int64)
    order = np.lexsort((np.arange(nnz), cols, rows))  # each pair's records in file order
    repeat = (rows[order[1:]] == rows[order[:-1]]) & (cols[order[1:]] == cols[order[:-1]])
    if np.any(repeat):
        k = int(order[1:][repeat].min())
        first = int(np.argmax((rows == rows[k]) & (cols == cols[k])))
        raise FlowFileError(f"{where} record {k + 1} repeats row {rows[k]}, column {cols[k]} "
                            f"of record {first + 1}")
    return sp.coo_matrix((records[:, 2], (rows, cols)), shape=(nrows, ncols)).tocsr()
