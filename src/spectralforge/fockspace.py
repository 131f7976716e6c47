"""Truncated number/position/momentum operators and spectrum synthesis.

The truncation basis is the graded-lex prefix of multi-indices, so for any
basis size d the synthesized Hamiltonian and all number operators are
simultaneously diagonal on exactly d states.  Inside the package those
diagonal operators are held as 1-D arrays of their diagonals
(``_number_diagonal``, ``_synthesized_diagonal``); ``number_operator`` and
``synthesize`` return the dense matrices only at the public edge.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import pairing
from .errors import InputError
from .spectra import as_spectrum

HERMITICITY_RTOL = 1e-10


@dataclass(frozen=True)
class TruncationBasis:
    """First ``d`` multi-indices of dimension ``n`` in graded-lex order."""

    n: int
    d: int
    indices: np.ndarray  # (d, n) int64, row k = decode(k, n)

    @classmethod
    def build(cls, n: int, d: int) -> "TruncationBasis":
        idx = pairing.enumerate_first(d, n)
        idx.setflags(write=False)
        return cls(n=int(n), d=int(d), indices=idx)


def is_hermitian(M: np.ndarray, rtol: float = HERMITICITY_RTOL) -> bool:
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        return False
    scale = max(1.0, float(np.abs(M).max()) if M.size else 0.0)
    return float(np.abs(M - M.conj().T).max()) <= rtol * scale


def _number_diagonal(basis: TruncationBasis, mode: int) -> np.ndarray:
    """Diagonal of the number operator of ``mode``: I_mode at the position of I."""
    if not 1 <= mode <= basis.n:
        raise InputError(f"mode {mode} out of range 1..{basis.n}")
    return basis.indices[:, mode - 1].astype(float)


def number_operator(basis: TruncationBasis, mode: int) -> np.ndarray:
    """Diagonal operator with entry I_mode at the basis position of I."""
    return np.diag(_number_diagonal(basis, mode).astype(complex))


def ladder_xp(K: int) -> tuple[np.ndarray, np.ndarray]:
    """K x K truncations of position and momentum in the ladder basis.

    X[k, k+1] = X[k+1, k] = sqrt(k+1)/sqrt(2) and
    P[k, k+1] = -i sqrt(k+1)/sqrt(2) = -conj(P[k+1, k]).
    """
    K = int(K)
    if K < 2:
        raise InputError("single-mode cutoff must be >= 2")
    off = np.sqrt(np.arange(1, K)) / np.sqrt(2.0)
    X = np.zeros((K, K), dtype=complex)
    P = np.zeros((K, K), dtype=complex)
    rows = np.arange(K - 1)
    X[rows, rows + 1] = off
    X[rows + 1, rows] = off
    P[rows, rows + 1] = -1j * off
    P[rows + 1, rows] = 1j * off
    return X, P


def _synthesized_diagonal(seq, basis: TruncationBasis) -> np.ndarray:
    """Diagonal of ``synthesize(seq, basis)``: E_rank(I) at the position of I."""
    arr = as_spectrum(seq)
    if arr.size < basis.d:
        raise InputError(
            f"need at least {basis.d} energies, got {arr.size}"
        )
    return arr[pairing.encode_many(basis.indices)]


def synthesize(seq, basis: TruncationBasis) -> np.ndarray:
    """Diagonal operator with entry E_rank(I) at the basis position of I.

    Its spectrum is exactly the multiset of the first d sequence entries,
    and it commutes exactly with every number operator on the same basis.
    """
    return np.diag(_synthesized_diagonal(seq, basis).astype(complex))


def eigendecompose(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and orthonormal eigenvector columns of M."""
    M = np.asarray(M)
    if not is_hermitian(M):
        raise InputError("matrix is not Hermitian within tolerance")
    w, V = np.linalg.eigh(M)
    return w, V


# ---------------------------------------------------------------------------
# matrix JSON interchange: {dim, re: row-major, im: row-major}

def matrix_to_json(M: np.ndarray) -> str:
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InputError("matrix must be square")
    return json.dumps(
        {
            "dim": M.shape[0],
            "re": [float(f"{v:.17g}") for v in M.real.ravel()],
            "im": [float(f"{v:.17g}") for v in M.imag.ravel()],
        }
    )


def matrix_from_json(text: str) -> np.ndarray:
    data = json.loads(text)
    try:
        dim = int(data["dim"])
        re = np.asarray(data["re"], dtype=float)
        im = np.asarray(data["im"], dtype=float)
    except (KeyError, TypeError) as exc:
        raise InputError(f"bad matrix JSON: {exc}")
    if re.size != dim * dim or im.size != dim * dim:
        raise InputError("matrix JSON arrays do not match dim*dim")
    return (re + 1j * im).reshape(dim, dim)
