"""Unitary intertwiner between isospectral operators and first integrals.

Given a Hermitian H and a synthesized diagonal A with the same spectrum,
the unitary U maps eigenvectors of H onto eigenvectors of A in ascending
eigenvalue order, so UH = AU.  Conjugating the number operators through U
produces a commuting family whose joint eigenvalue tuples separate basis
states.

A is held as the 1-D array of its diagonal.  Its eigenvectors are basis
vectors, so U is a row permutation of V_H^dagger read off an ``argsort``
of that diagonal, and the one O(d^3) decomposition per certificate is
``eigh(H)``.  Verification measures in the original frame from H, U, T and
the diagonal of A only.  It evaluates each commutator of Hermitian X and Y
as XY - (XY)^dagger, so it also measures the Hermiticity defect of H and
of every T_i and gates it in ``passed``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

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


def _diagonal(A) -> np.ndarray:
    """Real diagonal of A, given as that 1-D diagonal or as a diagonal matrix.

    Always a copy, so no dense A outlives the caller's reference to it.
    """
    arr = np.asarray(A)
    if arr.ndim == 2:
        if arr.shape[0] != arr.shape[1]:
            raise InputError(f"A must be square, got shape {arr.shape}")
        diag = np.diagonal(arr)
        if np.count_nonzero(arr) != np.count_nonzero(diag):
            raise InputError("A must be diagonal")
    elif arr.ndim == 1:
        diag = arr
    else:
        raise InputError(
            f"A must be a diagonal matrix or its 1-D diagonal, got {arr.ndim}-D"
        )
    scale = max(1.0, float(np.abs(diag).max()) if diag.size else 0.0)
    if diag.size and float(np.abs(diag.imag).max()) > HERMITICITY_RTOL * scale:
        raise InputError("A is not Hermitian: its diagonal is not real")
    return diag.real.astype(float)


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
    wH, VH = eigendecompose(H)
    return _intertwine(wH, VH, a, tol)


def first_integrals(U: np.ndarray, basis: TruncationBasis) -> list[np.ndarray]:
    """T_i = U† N_i U for each mode of the basis, one matmul per mode."""
    U = np.asarray(U, dtype=complex)
    if U.shape != (basis.d, basis.d):
        raise InputError(
            f"unitary dimension {U.shape} does not match basis size {basis.d}"
        )
    Ud = U.conj().T
    # U† N_i scales column k of U† by the k-th diagonal entry of N_i
    return [(Ud * _number_diagonal(basis, i)) @ U for i in range(1, basis.n + 1)]


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


def _frob(M: np.ndarray) -> float:
    return float(np.linalg.norm(M, "fro"))


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
    gated against the commutator tolerance too.

    Failures are reported in the certificate, never raised.
    """
    H = np.asarray(H, dtype=complex)
    d = H.shape[0]
    if any(Ti.shape != (d, d) for Ti in T) or U.shape != (d, d):
        raise InputError("all matrices must share the Hamiltonian's dimension")

    unit_defect = float(np.abs(U.conj().T @ U - np.eye(d)).max())
    inter_res = None
    if A is not None:
        a = _diagonal(A)
        if a.size != d:
            raise InputError(f"A has dimension {a.size}, the Hamiltonian {d}")
        inter_res = _frob(U @ H - a[:, None] * U)

    herm_defect = max(_frob(X - X.conj().T) for X in (H, *T))
    max_pair = 0.0
    for i in range(len(T)):
        for j in range(i + 1, len(T)):
            max_pair = max(max_pair, _hermitian_commutator(T[i], T[j]))
    max_ham = max((_hermitian_commutator(H, Ti) for Ti in T), default=0.0)

    # exact integer check: the quantum-number tuples must separate states
    tuples = {tuple(int(v) for v in row) for row in basis.indices}
    independence = len(tuples) == basis.d

    scale = _frob(H) + sum(_frob(Ti) for Ti in T)
    passed = (
        independence
        and max(max_pair, max_ham, herm_defect) <= commutator_tol * max(1.0, scale)
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
    decomposed once; its eigenpairs serve both as the default ``seq`` and
    for the intertwiner.
    """
    H = np.asarray(H, dtype=complex)
    wH, VH = eigendecompose(H)
    basis = TruncationBasis.build(n_modes, H.shape[0])
    a = _synthesized_diagonal(wH if seq is None else seq, basis)
    U = _intertwine(wH, VH, a, tol)
    del VH  # free V_H before the first integrals and verification allocate
    T = first_integrals(U, basis)
    return verify_integrability(H, U, T, basis, A=a)
