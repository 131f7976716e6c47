"""Unitary intertwiner between isospectral operators and first integrals.

Given a Hermitian H and a synthesized diagonal A with the same spectrum,
the unitary U maps eigenvectors of H onto eigenvectors of A in ascending
eigenvalue order, so UH = AU.  Conjugating the number operators through U
produces a commuting family whose joint eigenvalue tuples separate basis
states.

A is held as the 1-D array of its diagonal.  Its eigenvectors are basis
vectors, so U is a row permutation of V_H^dagger read off an ``argsort``
of that diagonal.  The one O(d^3) decomposition per certificate is
``eigh(H)``, and only for a general H: the eigenpairs of an exactly
diagonal H come from an ``argsort`` of its diagonal too, so U is then a
permutation and every T_i is diagonal.

Verification measures in the original frame from H, U, T and the diagonal
of A only.  Each operand that is monomial (at most one nonzero per row and
per column: a diagonal or a scaled permutation) is multiplied as a CSR
array holding every entry passed in, so its products and norms cost O(d)
instead of O(d^3); any other operand goes through dense BLAS.  The
commutator of Hermitian X and Y is evaluated as XY - (XY)^dagger, so
verification also measures the Hermiticity defect of H and of every T_i,
and gates it in ``passed`` together with the commutators and, when A is
given, the intertwining residual.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import spectra
from .errors import InputError, NotIsospectralError
from .fockspace import (
    HERMITICITY_RTOL,
    TruncationBasis,
    _number_diagonal,
    _synthesized_diagonal,
    eigendecompose,
)

UNITARITY_TOL_PER_DIM = 1e-9
DEFAULT_COMMUTATOR_TOL = 1e-8


def _is_diagonal(M: np.ndarray) -> bool:
    """True when every nonzero entry of the 2-D array M is on its diagonal.

    The first row settles most non-diagonal matrices in O(d).
    """
    if np.count_nonzero(M[:1, 1:]):
        return False
    return np.count_nonzero(M) == np.count_nonzero(np.diagonal(M))


def _diagonal(A, name: str = "A") -> np.ndarray:
    """Real diagonal of A, given as that 1-D diagonal or as a diagonal matrix.

    Rejects what ``eigendecompose`` rejects of a diagonal matrix: entries
    that are not finite, and a Hermiticity defect above HERMITICITY_RTOL.
    Always a copy, so no dense A outlives the caller's reference to it.
    """
    arr = np.asarray(A)
    if arr.ndim == 2:
        if arr.shape[0] != arr.shape[1]:
            raise InputError(f"{name} must be square, got shape {arr.shape}")
        if not _is_diagonal(arr):
            raise InputError(f"{name} must be diagonal")
        diag = np.diagonal(arr)
    elif arr.ndim == 1:
        diag = arr
    else:
        raise InputError(
            f"{name} must be a diagonal matrix or its 1-D diagonal, got {arr.ndim}-D"
        )
    if not np.isfinite(diag).all():
        raise InputError(f"{name} has entries that are not finite")
    scale = max(1.0, float(np.abs(diag).max()) if diag.size else 0.0)
    # the same defect |M - M^dagger| that fockspace.is_hermitian measures
    if diag.size and float(np.abs(diag - diag.conj()).max()) > HERMITICITY_RTOL * scale:
        raise InputError(f"{name} is not Hermitian: its diagonal is not real")
    return diag.real.astype(float)


def _eigenpairs(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenpairs of H; an exactly diagonal H needs no ``eigh``.

    The eigenvalues of a diagonal H are its diagonal in stable ascending
    order, and the matching eigenvectors are the basis vectors in that order.
    """
    if H.ndim != 2 or not _is_diagonal(H):
        return eigendecompose(H)
    h = _diagonal(H, "H")
    order = np.argsort(h, kind="stable")
    VH = np.zeros(H.shape, dtype=complex)
    VH[order, np.arange(h.size)] = 1.0
    return h[order], VH


def _sparse_if_monomial(M: np.ndarray):
    """M as a CSR array when it is monomial, otherwise M itself.

    A monomial matrix (a diagonal or a scaled permutation) has at most one
    nonzero per row and per column, so its products and norms cost O(d).
    The CSR array holds every nonzero entry of M, so whatever is computed
    from it measures M itself.
    """
    # a dense matrix usually fails on its first row alone, in O(d)
    if np.count_nonzero(M[:1]) > 1 or np.count_nonzero(M) > M.shape[0]:
        return M
    rows, cols = np.nonzero(M)
    if np.unique(rows).size < rows.size or np.unique(cols).size < cols.size:
        return M
    return sp.csr_array((M[rows, cols], (rows, cols)), shape=M.shape)


def _intertwine(wH: np.ndarray, VH: np.ndarray, a: np.ndarray, tol: float | None) -> np.ndarray:
    """U with UH = diag(a) U, from the ascending eigenpairs (wH, VH) of H.

    Requires wH and ``a`` to match as multisets within ``tol``.  The k-th
    eigenvector of H goes to the basis position holding the k-th smallest
    entry of ``a``; ties keep basis order.
    """
    if tol is None:
        tol = spectra.default_tolerance(wH, a)
    report = spectra.completely_isospectral(wH, a, tol)
    if not report.matched:
        raise NotIsospectralError(
            f"operators are not isospectral within tol={tol:g}", report=report
        )
    perm = np.argsort(a, kind="stable")
    U = np.empty((a.size, a.size), dtype=complex)
    U[perm] = VH.conj().T
    return U


def build_unitary(H: np.ndarray, A, tol: float | None = None) -> np.ndarray:
    """Unitary U with UH = AU, built from ascending-ordered eigenbases.

    A is diagonal, given as a matrix or as its 1-D diagonal.  Requires the
    two spectra to match as multisets within ``tol`` (default
    1e-9 * max(1, spectral range)).
    """
    H = np.asarray(H, dtype=complex)
    a = _diagonal(A)
    if H.shape != (a.size, a.size):
        raise InputError(f"dimension mismatch: {H.shape} vs {(a.size, a.size)}")
    wH, VH = _eigenpairs(H)
    return _intertwine(wH, VH, a, tol)


def first_integrals(U: np.ndarray, basis: TruncationBasis) -> list[np.ndarray]:
    """T_i = U† N_i U for each mode of the basis, one matmul per mode.

    A monomial U gives diagonal T_i in O(d) each; they are returned dense.
    """
    U = np.asarray(U, dtype=complex)
    if U.shape != (basis.d, basis.d):
        raise InputError(
            f"unitary dimension {U.shape} does not match basis size {basis.d}"
        )
    U = _sparse_if_monomial(U)
    Ud = U.conj().T
    # U† N_i scales column k of U† by the k-th diagonal entry of N_i
    T = [(Ud * _number_diagonal(basis, i)) @ U for i in range(1, basis.n + 1)]
    return [Ti.toarray() if sp.issparse(Ti) else Ti for Ti in T]


@dataclass
class IntegrabilityCertificate:
    """Verification record for a commuting family of first integrals."""

    dim: int
    n_modes: int
    U: np.ndarray = field(repr=False)
    T: list = field(repr=False)
    joint_spectrum: np.ndarray = field(repr=False)
    unitarity_defect: float
    intertwining_residual: float | None
    hermiticity_defect: float
    max_pairwise_commutator: float
    max_hamiltonian_commutator: float
    independence: bool
    commutator_tol: float
    unitarity_tol: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "n_modes": self.n_modes,
            "unitarity_defect": self.unitarity_defect,
            "intertwining_residual": self.intertwining_residual,
            "hermiticity_defect": self.hermiticity_defect,
            "max_pairwise_commutator": self.max_pairwise_commutator,
            "max_hamiltonian_commutator": self.max_hamiltonian_commutator,
            "independence": self.independence,
            "commutator_tol": self.commutator_tol,
            "unitarity_tol": self.unitarity_tol,
            "passed": self.passed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def _frob(M) -> float:
    if sp.issparse(M):
        M = M.tocsr()
        M.sum_duplicates()  # then the stored entries are the distinct nonzeros
        return float(np.linalg.norm(M.data))
    return float(np.linalg.norm(M, "fro"))


def _identity_like(U):
    """The identity of U's size and kind: a CSR array for a CSR operand."""
    d = U.shape[0]
    return sp.csr_array(sp.identity(d)) if sp.issparse(U) else np.eye(d)


def _hermitian_commutator(X: np.ndarray, Y: np.ndarray) -> float:
    """‖[X, Y]‖_F for Hermitian X and Y, where YX = (XY)†: one matmul."""
    XY = X @ Y
    return _frob(XY - XY.conj().T)


def verify_integrability(
    H: np.ndarray,
    U: np.ndarray,
    T: list[np.ndarray],
    basis: TruncationBasis,
    A=None,
    commutator_tol: float = DEFAULT_COMMUTATOR_TOL,
) -> IntegrabilityCertificate:
    """Measure commutators, unitarity, and joint-spectrum injectivity.

    A, when given, is diagonal (a matrix or its 1-D diagonal) and yields
    the intertwining residual ‖UH − AU‖_F.  The commutators assume H and
    every T_i Hermitian, so their largest Hermiticity defect ‖X − X†‖_F is
    gated against the commutator tolerance too, and so is the intertwining
    residual.  Monomial operands are multiplied as CSR arrays of the same
    entries, any other operand densely.

    Failures are reported in the certificate, never raised.
    """
    H = np.asarray(H, dtype=complex)
    d = H.shape[0]
    if H.shape != (d, d) or U.shape != (d, d) or any(Ti.shape != (d, d) for Ti in T):
        raise InputError("all matrices must share the Hamiltonian's dimension")
    Hop, Uop = _sparse_if_monomial(H), _sparse_if_monomial(np.asarray(U))
    Tops = [_sparse_if_monomial(np.asarray(Ti)) for Ti in T]

    # the identity is built after U†U and freed with it, so no dense d×d
    # temporary lives on into the commutators below
    unit_defect = float(abs(Uop.conj().T @ Uop - _identity_like(Uop)).max())
    inter_res = None
    if A is not None:
        a = _diagonal(A)
        if a.size != d:
            raise InputError(f"A has dimension {a.size}, the Hamiltonian {d}")
        inter_res = _frob(Uop @ Hop - a[:, None] * Uop)

    herm_defect = max(_frob(X - X.conj().T) for X in (Hop, *Tops))
    max_pair = 0.0
    for i in range(len(Tops)):
        for j in range(i + 1, len(Tops)):
            max_pair = max(max_pair, _hermitian_commutator(Tops[i], Tops[j]))
    max_ham = max((_hermitian_commutator(Hop, Ti) for Ti in Tops), default=0.0)

    # exact integer check: the quantum-number tuples must separate states
    tuples = {tuple(int(v) for v in row) for row in basis.indices}
    independence = len(tuples) == basis.d

    scale = _frob(Hop) + sum(_frob(Ti) for Ti in Tops)
    bound = commutator_tol * max(1.0, scale)
    residuals = (max_pair, max_ham, herm_defect, 0.0 if inter_res is None else inter_res)
    passed = (
        independence
        and all(r <= bound for r in residuals)
        and unit_defect <= UNITARITY_TOL_PER_DIM * d
    )
    return IntegrabilityCertificate(
        dim=d,
        n_modes=basis.n,
        U=U,
        T=list(T),
        joint_spectrum=basis.indices.copy(),
        unitarity_defect=unit_defect,
        intertwining_residual=inter_res,
        hermiticity_defect=herm_defect,
        max_pairwise_commutator=max_pair,
        max_hamiltonian_commutator=max_ham,
        independence=independence,
        commutator_tol=commutator_tol,
        unitarity_tol=UNITARITY_TOL_PER_DIM * d,
        passed=passed,
    )


def certify(H: np.ndarray, seq, n_modes: int, tol: float | None = None) -> IntegrabilityCertificate:
    """Full pipeline: synthesize A from ``seq``, intertwine, verify.

    ``seq`` defaults to the spectrum of H itself when given as None.  H is
    decomposed once, with no ``eigh`` when it is diagonal; its eigenpairs
    serve both as the default ``seq`` and for the intertwiner.
    """
    H = np.asarray(H, dtype=complex)
    wH, VH = _eigenpairs(H)
    basis = TruncationBasis.build(n_modes, H.shape[0])
    a = _synthesized_diagonal(wH if seq is None else seq, basis)
    U = _intertwine(wH, VH, a, tol)
    del VH  # free V_H before the first integrals and verification allocate
    T = first_integrals(U, basis)
    return verify_integrability(H, U, T, basis, A=a)
