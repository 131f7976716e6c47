"""Unitary intertwiner between isospectral operators and first integrals.

Given a Hermitian H and a synthesized diagonal A with the same spectrum,
the unitary U maps eigenvectors of H onto eigenvectors of A in ascending
eigenvalue order, so UH = AU.  Conjugating the number operators through U
produces a commuting family whose joint eigenvalue tuples separate basis
states.

A is held as the 1-D array of its diagonal.  Its eigenvectors are basis
vectors, so U = V_H^dagger with its rows permuted by an ``argsort`` of that
diagonal, for either kind of V_H.

``eigensolve`` is the one place an eigensolver is chosen, for
certification and for ``schrodinger.low_spectrum`` alike.  An H of several
connected components gets a block-sparse V_H, U and T_i: a diagonal H has
1 x 1 blocks, so U is a permutation and a certificate costs O(d).  Every
operator stays in H's field, so a real H gives real U and T_i.

Verification reads only H, U, the diagonal a of A and the number diagonals
n_i.  It measures the residuals R_rho = UH - diag(rho) U, for the rows'
Rayleigh quotients rho, and G = UU^dagger - I, and from them bounds the
commutators of the exact operators T_i = U^dagger N_i U, with no T_i
formed: [T_i, H] and [T_i, T_j] are exact expressions in R_rho and G, so
each bound costs O(d^2) once they are known, or O(nnz) for CSR operands.
R = UH - diag(a) U is not formed: its row k is R_rho's plus the orthogonal
(rho_k - a_k) u_k, so its norm follows from R_rho and rho.  A mode whose
number diagonal is all zero has T_i = 0: verification skips it, and
``certify`` gives every such mode one shared, read-only zero.
``unitarity_defect`` is max|UU^dagger - I|.
Each operand is multiplied in the kind it is given: a sparse one as CSR, a
dense one through BLAS.  ``certify`` verifies first and forms the dense or
CSR T_i afterwards, for its callers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from itertools import combinations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigh_tridiagonal
from scipy.sparse.csgraph import connected_components

from . import spectra
from .errors import InputError, NotIsospectralError
from .fockspace import (
    HERMITICITY_RTOL,
    TruncationBasis,
    _number_diagonal,
    _synthesized_diagonal,
    dense_within_cap,
    eigendecompose,
    hermitian_defect,
    is_hermitian,
    sparse_diagonal,
)

UNITARITY_TOL_PER_DIM = 1e-9
DEFAULT_COMMUTATOR_TOL = 1e-8


def _diagonal(A) -> np.ndarray:
    """The real 1-D diagonal A of a diagonal operator, as a float copy.

    Rejects an A that is not 1-D, entries that are not finite, and a
    Hermiticity defect above HERMITICITY_RTOL.
    """
    diag = np.asarray(A)
    if diag.ndim != 1:
        raise InputError(f"A must be the 1-D diagonal of a diagonal operator, got {diag.ndim}-D")
    if not np.isfinite(diag).all():
        raise InputError("A has entries that are not finite")
    scale = max(1.0, float(np.abs(diag).max()) if diag.size else 0.0)
    # the same defect |M - M^dagger| that fockspace.is_hermitian measures
    if diag.size and float(np.abs(diag - diag.conj()).max()) > HERMITICITY_RTOL * scale:
        raise InputError("A is not Hermitian: its diagonal is not real")
    return diag.real.astype(float)


PIVOT_RTOL = 1e-10  # how far a shift or cutoff at a zero pivot moves, relative


def level_count(m, dim: int) -> int:
    """m as an int in 1..dim, with None for dim, or InputError."""
    m = dim if m is None else int(m)
    if not 1 <= m <= dim:
        raise InputError(f"level count {m} out of range 1..{dim}")
    return m


def eigensolve(H, m: int | None = None, *, vectors: bool = False, cap: int | None = None,
               window: tuple[float, float] | None = None):
    """The m lowest eigenvalues of the Hermitian H, ascending, and with
    ``vectors`` their eigenvector columns: the one place a solver is chosen.

    ``m`` defaults to every level.  The first rule that fits decides:

    1. a dense H whose first row has no zero, for all levels or all but
       one: ``eigendecompose``;
    2. with ``vectors``, several connected components: one stacked
       ``eigh`` per block size, each block within ``cap``, and a
       block-sparse CSC V;
    3. a tridiagonal H: ``eigh_tridiagonal``;
    4. all levels or all but one: ``eigendecompose``, a sparse H made dense
       within ``cap``;
    5. shift-invert Lanczos in a ``window`` (floor, c) with exactly m
       levels between: 1 below the floor when c is infinite, else at the
       midpoint, where those m are the nearest.  A missing window is
       (Gershgorin's bound, ∞).

    Values alone never compute vectors.
    """
    if not sp.issparse(H):
        H = np.asarray(H)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise InputError(f"H must be a square matrix, got shape {H.shape}")
    dim = H.shape[0]
    if not dim:
        raise InputError("H is 0 x 0: an eigensolve needs at least one row")
    # before any arithmetic on H, so one message covers NaN and inf in every path
    if not np.isfinite(H.data if sp.issparse(H) else H).all():
        raise InputError("H has entries that are not finite")
    remedy = "give a smaller matrix" if m is None else "ask for fewer levels"
    m = level_count(m, dim)
    if not sp.issparse(H) and m >= dim - 1 and np.all(H[0] != 0):
        return _lowest(eigendecompose(H, vectors=vectors), m)
    given, H = H, sp.csr_array(H)
    if not is_hermitian(H):
        raise InputError("matrix is not Hermitian within tolerance")
    C = H.tocoo()
    tridiagonal = not np.any(C.data[np.abs(C.row - C.col) > 1])
    # components only give block-sparse vectors; a tridiagonal H with no
    # zero above its diagonal is a single chain
    if vectors and not (tridiagonal and H.diagonal(1).all()):
        count, labels = connected_components(H != 0, directed=False)
        if count > 1:
            return _lowest(_stacked(H, labels, cap), m)
    if tridiagonal:
        return _tridiagonal(H, m, vectors)
    if m >= dim - 1:  # ARPACK takes at most dim - 2 levels
        dense = dense_within_cap(H, cap, remedy) if sp.issparse(given) else given
        return _lowest(eigendecompose(dense, vectors=vectors), m)
    return _shift_invert(H, m, vectors, window)


def _lowest(solved, m: int):
    """The m lowest of an ascending solve, values or (values, vector columns)."""
    if isinstance(solved, tuple):
        w, V = solved
        return (w, V) if m == w.size else (w[:m], V[:, :m])
    return solved[:m]


def _stacked(H, labels: np.ndarray, cap):
    """Every eigenpair of the CSR H, block by block over its components, with a CSC V.

    Equal eigenvalues keep the order of their blocks' first nodes: basis
    order for 1 x 1 blocks.
    """
    size = np.bincount(labels)[labels]  # the size of each node's block
    # the largest blocks first, so they meet the cap first; each block's
    # nodes together and ascending, so H[nodes][:, nodes] is block-diagonal
    nodes = np.lexsort((labels, -size))
    C = H[nodes][:, nodes].tocoo()
    w, vals, rows, start = [], [], [], 0
    for s in np.unique(size)[::-1]:
        k = np.count_nonzero(size == s) // s
        at = (C.row >= start) & (C.row < start + k * s)
        # entry (r, c) of block i goes to row i s + r, column c of a (k s) x s stack
        stack = sp.coo_array((C.data[at], (C.row[at] - start, (C.col[at] - start) % s)),
                             shape=(k * s, s))
        wk, Vk = np.linalg.eigh(dense_within_cap(stack, cap).reshape(k, s, s))
        w.append(wk.ravel())
        vals.append(Vk.transpose(0, 2, 1).ravel())  # column by column
        rows.append(np.repeat(start + np.arange(k * s).reshape(k, s), s, axis=0).ravel())
        start += k * s
    w = np.concatenate(w)
    indptr = np.concatenate(([0], np.cumsum(size[nodes])))
    V = sp.csc_array((np.concatenate(vals), nodes[np.concatenate(rows)], indptr), shape=H.shape)
    order = np.lexsort((V.indices[indptr[:-1]], w))
    return w[order], V[:, order]


def _tridiagonal(H, m: int, vectors: bool):
    """The m lowest eigenpairs of the Hermitian tridiagonal CSR H.

    A complex H is D J D^dagger, J real with off-diagonal |e|, for the phases
    D = diag(phi), phi_0 = 1 and phi_{k+1} = phi_k conj(e_k)/|e_k| with
    e_k = H[k, k+1] (or phi_k where e_k = 0), so V_H = D V_J.
    """
    e, phase = H.diagonal(1), None
    if np.iscomplexobj(e):
        if vectors:
            step = np.divide(e.conj(), np.abs(e), out=np.ones_like(e), where=e != 0)
            phase = np.cumprod(np.concatenate(([1.0], step)))
            phase /= np.abs(phase)
        e = np.abs(e)
    # MRRR for the whole spectrum costs about as much as bisection for dim/16 levels
    select = "a" if m >= H.shape[0] / 16 else "i"
    solved = _lowest(eigh_tridiagonal(H.diagonal().real, e, eigvals_only=not vectors,
                                      select=select, select_range=(0, m - 1)), m)
    return solved if phase is None else (solved[0], phase[:, None] * solved[1])


def _shift_invert(H, m: int, vectors: bool, window):
    """The m eigenpairs of the CSR H nearest a shift below, or inside, its lowest m levels."""
    dim = H.shape[0]
    if window is None:  # Gershgorin's lower bound on the spectrum
        Habs = abs(H)
        window = ((H.diagonal().real - (_row_sums(Habs) - Habs.diagonal())).min(), math.inf)
    floor, c = float(window[0]), float(window[1])
    # every level above c lies farther from the midpoint than any below it
    sigma, width = (floor - 1.0, 0.0) if c == math.inf else (0.5 * (floor + c), c - floor)
    # fixed start vector keeps the Lanczos iteration bit-reproducible
    v0 = np.full(dim, 1.0 / np.sqrt(dim))
    for _ in range(4):
        try:
            # H is Hermitian, so a minimum-degree ordering on its pattern
            # keeps the LU fill of H - sigma I low
            lu = spla.splu(
                (H - sigma * sp.identity(dim, format="csr")).tocsc(),
                permc_spec="MMD_AT_PLUS_A",
            )
            break
        except RuntimeError:  # SuperLU's "Factor is exactly singular": sigma is a level
            sigma += PIVOT_RTOL * max(abs(sigma), width)
    else:
        raise np.linalg.LinAlgError(f"no shift near {sigma:.17g} leaves H - sigma I nonsingular")
    solved = spla.eigsh(
        H, k=m, sigma=sigma, which="LM", v0=v0, return_eigenvectors=vectors,
        OPinv=spla.LinearOperator((dim, dim), matvec=lu.solve, dtype=H.dtype),
    )
    if not vectors:
        return np.sort(solved)
    order = np.argsort(solved[0])
    return solved[0][order], solved[1][:, order]


def _intertwine(wH: np.ndarray, VH, a: np.ndarray, tol: float | None):
    """U with UH = diag(a) U, from the ascending eigenpairs (wH, VH) of H.

    Requires wH and ``a`` to match as multisets within ``tol``.  The k-th
    eigenvector of H goes to the basis position holding the k-th smallest
    entry of ``a``; ties keep basis order.  U is of V_H's kind and field:
    CSR for a sparse V_H, dense for a dense one.
    """
    if tol is None:
        tol = spectra.default_tolerance(wH, a)
    report = spectra.completely_isospectral(wH, a, tol)
    if not report.matched:
        raise NotIsospectralError(
            f"operators are not isospectral within tol={tol:g}", report=report
        )
    # row perm[k] of U is row k of V_H^dagger: rows gathered first, then
    # conjugated in place, so a dense U costs one d x d copy
    perm = np.argsort(a, kind="stable")
    U = VH.T[np.argsort(perm)]
    return U.conj() if sp.issparse(U) else np.conjugate(U, out=U)


def build_unitary(H, A, tol: float | None = None):
    """Unitary U with UH = diag(A) U, built from ascending-ordered eigenbases.

    A is the 1-D diagonal of the diagonal operator.  Requires the two
    spectra to match as multisets within ``tol`` (default
    1e-9 * max(1, spectral range)).  U is of the kind ``certify`` gives:
    a CSR array for an H, dense or sparse, of several components, and a
    dense array for an H of one.
    """
    wH, VH = eigensolve(H, vectors=True)
    a = _diagonal(A)
    if wH.size != a.size:
        raise InputError(f"dimension mismatch: {(wH.size, wH.size)} vs {(a.size, a.size)}")
    return _intertwine(wH, VH, a, tol)


def first_integrals(U, basis: TruncationBasis) -> list:
    """T_i = U† N_i U for each mode of the basis, one matmul per mode whose
    number diagonal is not all zero.

    Every other mode has T_i = 0 and gets one shared, read-only zero of U's
    kind.  A sparse U gives CSR T_i, which for a permutation U are diagonal
    and cost O(d) each; a dense U gives dense T_i.
    """
    U = _operand(U)
    if U.shape != (basis.d, basis.d):
        raise InputError(
            f"unitary dimension {U.shape} does not match basis size {basis.d}"
        )
    Ud = U.conj().T
    zero = None  # the T_i of every mode whose number diagonal is all zero
    T = []
    for i in range(1, basis.n + 1):
        n = _number_diagonal(basis, i)
        if n.any():
            # U† N_i scales column k of U† by the k-th diagonal entry of N_i
            Ti = (Ud * n) @ U
            T.append(sp.csr_array(Ti) if sp.issparse(U) else Ti)
        else:
            if zero is None:
                zero = sp.csr_array(U.shape, dtype=U.dtype) if sp.issparse(U) else np.zeros_like(U)
                for part in (zero.data, zero.indices, zero.indptr) if sp.issparse(U) else (zero,):
                    part.flags.writeable = False
            T.append(zero)
    return T


@dataclass
class IntegrabilityCertificate:
    """Verification record for the commuting family T_i = U† N_i U.

    The commutator fields bound the commutators of the exact operators
    U† N_i U of the returned U, from the measured residuals
    R_ρ = UH − diag(ρ) U, ρ the rows' Rayleigh quotients, and G = UU† − I:
    up to the rounding of measuring them, never below ‖[H, T_i]‖_F and
    ‖[T_i, T_j]‖_F.
    ``unitarity_defect`` is max|UU† − I|, ``hermiticity_defect`` is
    ‖H − H†‖_F, and ``intertwining_residual`` is ‖R‖_F for R = UH − diag(a) U.
    """

    dim: int
    n_modes: int
    U: object = field(repr=False)  # from certify: CSR for an H of several components, else dense
    T: list | None = field(repr=False)  # attached by certify, of the same kind as U
    unitarity_defect: float
    intertwining_residual: float
    hermiticity_defect: float
    max_pairwise_commutator: float
    max_hamiltonian_commutator: float
    independence: bool
    commutator_tol: float
    unitarity_tol: float
    passed: bool

    def to_dict(self) -> dict:
        """Every field but the operators U and T."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.repr}


def _frob(M) -> float:
    if sp.issparse(M):
        M = M.tocsr()
        M.sum_duplicates()  # then the stored entries are the distinct nonzeros
        return float(np.linalg.norm(M.data))
    return float(np.linalg.norm(M, "fro"))


def _operand(M):
    """M as verification multiplies it: CSR for a sparse M, else a dense array."""
    return sp.csr_array(M) if sp.issparse(M) else np.asarray(M)


def _squared_moduli(M):
    """|M_kl|² entry by entry, of M's kind: CSR for a sparse M, else dense."""
    M = abs(M)
    return sp.csr_array(M.multiply(M)) if sp.issparse(M) else np.square(M, out=M)


def _row_sums(M) -> np.ndarray:
    return np.asarray(M.sum(axis=1)).ravel()


def _row_inner(X, Y) -> np.ndarray:
    """Re⟨x_k, y_k⟩ = Re Σ_l x_kl conj(y_kl) for each row k; a dense pair
    is read through its real and imaginary views, with no d x d temporary."""
    if sp.issparse(X):
        return _row_sums(X.multiply(Y.conj()).real)
    inner = np.einsum("kl,kl->k", X.real, Y.real)
    if np.iscomplexobj(X) and np.iscomplexobj(Y):
        inner += np.einsum("kl,kl->k", X.imag, Y.imag)
    return inner


def _minus_scaled_rows(R, s: np.ndarray, U):
    """R − diag(s) U: a new CSR array for a sparse R, else R updated in place."""
    if sp.issparse(R):
        return R - sparse_diagonal(s) @ U
    R -= s[:, None] * U
    return R


def _residual_row_norms(U, H, a: np.ndarray, u2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The squared row norms of R = UH − diag(a) U and of R_ρ = UH − diag(ρ) U,
    given U's squared row norms u2, the diagonal of UU† (see ``_gram_defect``).

    ρ_k = Re(u_k H u_k†)/‖u_k‖² is row k's Rayleigh quotient, so the row
    r_k − r^ρ_k = (ρ_k − a_k) u_k of R − R_ρ is orthogonal to r^ρ_k, and
    ‖r_k‖² = ‖r^ρ_k‖² + (ρ_k − a_k)²‖u_k‖², two terms that cannot cancel:
    only R_ρ is formed.
    """
    R = U @ H  # CSR when U and H both are, else dense
    if not sp.issparse(R):
        R = np.asarray(R, dtype=np.result_type(R, float))  # in place below, so inexact
        U = U.toarray() if sp.issparse(U) else U
    rho = np.divide(_row_inner(R, U), u2, out=np.zeros_like(u2), where=u2 > 0)
    rho2 = _row_sums(_squared_moduli(_minus_scaled_rows(R, rho, U)))
    return rho2 + (rho - a) ** 2 * u2, rho2


def _gram_defect(U):
    """U's squared row norms, the real diagonal of UU†; |UU† − I|² entry by
    entry; and max|UU† − I|."""
    G = U @ U.conj().T
    u2 = G.diagonal().real.copy()
    if sp.issparse(G):
        G = G - sp.csr_array(sp.identity(U.shape[0]))
    else:
        G[np.diag_indices_from(G)] -= 1
    P = _squared_moduli(G)
    return u2, P, float(np.sqrt(P.max()))


def _antisymmetric_mass(P, x: np.ndarray, y: np.ndarray) -> float:
    """‖(x yᵀ − y xᵀ) ∘ G‖_F², summed entry by entry from P = |G|², so nothing cancels."""
    if sp.issparse(P):
        P = P.tocoo()
        c = x[P.row] * y[P.col] - y[P.row] * x[P.col]
        return float(np.dot(c * c, P.data))
    C = np.outer(x, y)
    C -= C.T
    return float(np.einsum("kl,kl,kl->", C, C, P))


def verify_integrability(H, U, basis: TruncationBasis, A) -> IntegrabilityCertificate:
    """Bound the commutators of T_i = U† N_i U, and measure unitarity and independence.

    Reads only H, U, the number diagonals n_i and A, the 1-D diagonal a of
    the diagonal operator, and measures the residuals R_ρ = UH − diag(ρ) U
    with ρ_k row k's Rayleigh quotient Re(u_k H u_k†)/‖u_k‖², and
    G = UU† − I.  For any U and any real diagonal ρ, with D = H − H†,

        [T_i, H] = U† N_i R_ρ − R_ρ† N_i U − D T_i,
        [T_i, T_j] = U† (N_i G N_j − N_j G N_i) U,

    and ‖U‖₂² ≤ 1 + ‖G‖_F.  So the certificate reports

        max_hamiltonian_commutator = max_i 2 √(1 + ‖G‖_F) ‖N_i R_ρ‖_F
                                     + ‖D‖_F max(n_i) (1 + ‖G‖_F),
        max_pairwise_commutator = max_{i<j} (1 + ‖G‖_F) ‖(n_i n_jᵀ − n_j n_iᵀ) ∘ G‖_F,

    each from R_ρ's row norms and G's entries in O(d²), or O(nnz) for CSR
    operands, over the modes whose n_i is not all zero: any other has
    T_i = 0.  The D term vanishes for an exactly Hermitian H.  With ρ, a
    sequence off by a uniform shift, which commutes with every T_i, adds
    nothing to the bound.  No T_i is formed.  ``unitarity_defect`` is
    max|G|, ``hermiticity_defect`` is ‖D‖_F, and ``intertwining_residual``
    is ‖R‖_F for R = UH − diag(a) U, whose rows' squared norms are
    ‖r^ρ_k‖² + (ρ_k − a_k)²‖u_k‖², so R is not formed.  The commutator bounds,
    the Hermiticity defect and the intertwining residual are gated against
    ``DEFAULT_COMMUTATOR_TOL`` times max(1, ‖H‖_F + Σ_i ‖n_i‖₂), and the
    unitarity defect against ``UNITARITY_TOL_PER_DIM`` times d.  Sparse
    operands are multiplied as CSR and dense ones densely.

    Failures are reported in the certificate, never raised.
    """
    Hop, Uop = _operand(H), _operand(U)
    d = Hop.shape[0]
    if Hop.shape != (d, d) or Uop.shape != (d, d) or basis.d != d:
        raise InputError("H, U and the basis must share the Hamiltonian's dimension")
    a = _diagonal(A)
    if a.size != d:
        raise InputError(f"A has dimension {a.size}, the Hamiltonian {d}")
    # a mode whose number diagonal is all zero has T_i = 0: it adds 0 to every bound
    n = [x for x in (_number_diagonal(basis, i) for i in range(1, basis.n + 1)) if x.any()]

    # each residual is reduced to vectors and scalars as soon as it is
    # measured, and freed before the next one is formed
    herm_defect = _frob(Hop - Hop.conj().T) if sp.issparse(Hop) else hermitian_defect(Hop)[1]
    row_norms2, P, unit_defect = _gram_defect(Uop)
    u2 = 1.0 + float(np.sqrt(P.sum()))  # 1 + ‖G‖_F bounds ‖U‖₂²
    pair_mass = max((_antisymmetric_mass(P, x, y) for x, y in combinations(n, 2)), default=0.0)
    del P
    r2, rho2 = _residual_row_norms(Uop, Hop, a, row_norms2)
    max_pair = u2 * float(np.sqrt(pair_mass))
    max_ham = max((2.0 * float(np.sqrt(u2 * np.dot(x * x, rho2))) + herm_defect * float(x.max()) * u2
                   for x in n), default=0.0)
    inter_res = float(np.sqrt(r2.sum()))

    # exact integer check: the quantum-number tuples must separate states;
    # once the rows are sorted, a repeated tuple sits next to its twin
    rows = basis.indices[np.lexsort(basis.indices.T)]
    independence = not np.any(np.all(rows[1:] == rows[:-1], axis=1))

    scale = _frob(Hop) + sum(float(np.linalg.norm(x)) for x in n)
    bound = DEFAULT_COMMUTATOR_TOL * max(1.0, scale)
    residuals = (max_pair, max_ham, herm_defect, inter_res)
    passed = (
        independence
        and all(r <= bound for r in residuals)
        and unit_defect <= UNITARITY_TOL_PER_DIM * d
    )
    return IntegrabilityCertificate(
        dim=d,
        n_modes=basis.n,
        U=U,
        T=None,
        unitarity_defect=unit_defect,
        intertwining_residual=inter_res,
        hermiticity_defect=herm_defect,
        max_pairwise_commutator=max_pair,
        max_hamiltonian_commutator=max_ham,
        independence=independence,
        commutator_tol=DEFAULT_COMMUTATOR_TOL,
        unitarity_tol=UNITARITY_TOL_PER_DIM * d,
        passed=passed,
    )


def certify(H, seq, n_modes: int, tol: float | None = None) -> IntegrabilityCertificate:
    """Full pipeline: synthesize A from ``seq``, intertwine, verify, then form T.

    ``seq`` defaults to the spectrum of H itself when given as None.  H is
    decomposed once by ``eigensolve``; its eigenpairs serve both as the
    default ``seq`` and for the intertwiner.  An H of several components,
    dense or sparse, is verified as CSR and gets a block-sparse CSR U and
    CSR T_i; an H of one component is verified as given, with a dense U.
    The first integrals are formed after verification has freed its
    residuals, and attached to the certificate as ``T``.
    """
    wH, VH = eigensolve(H, vectors=True)
    H = sp.csr_array(H) if sp.issparse(VH) else H  # verified in V_H's kind
    basis = TruncationBasis.build(n_modes, wH.size)
    a = _synthesized_diagonal(wH if seq is None else seq, basis)
    U = _intertwine(wH, VH, a, tol)
    del VH  # free V_H before verification and the first integrals allocate
    cert = verify_integrability(H, U, basis, A=a)
    cert.T = first_integrals(U, basis)
    return cert
