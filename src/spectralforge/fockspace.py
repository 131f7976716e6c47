"""Truncated number operators and spectrum synthesis.

The truncation basis is the graded-lex prefix of multi-indices, so for any
basis size d the synthesized Hamiltonian and all number operators are
simultaneously diagonal on exactly d states.  Inside the package those
diagonal operators are held as 1-D arrays of their diagonals
(``_number_diagonal``, ``_synthesized_diagonal``), or as CSR arrays of d
entries (``sparse_diagonal``).  ``hermitian_defect`` is the one measurement
of an operator, dense or sparse: its Hermiticity defect and scale in one read.

Matrix JSON comes in two forms: dense ``{dim, re, im}`` with all d*d
entries in row-major order, and sparse ``{dim, rows, cols, re, im}`` with
the nonzero entries only.  A matrix whose imaginary parts are all zero is
read as real.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import pairing
from .errors import CapacityError, InputError
from .spectra import as_spectrum

HERMITICITY_RTOL = 1e-10
HERMITICITY_TILE = 128  # two complex tiles take 512 KiB, which stay in cache
DEFAULT_DIM_CAP = 4096
CAP_ENV_VAR = "SPECTRAL_FORGE_CAP"


@dataclass(frozen=True)
class TruncationBasis:
    """First ``d`` multi-indices of dimension ``n`` in graded-lex order."""

    n: int
    d: int
    indices: np.ndarray  # (d, n) int64, row k = decode(k, n)

    @classmethod
    def build(cls, n: int, d: int) -> "TruncationBasis":
        if int(n) < 1:
            raise InputError(f"mode count must be at least 1, got {n}")
        idx = pairing.enumerate_first(d, n)
        idx.setflags(write=False)
        return cls(n=int(n), d=int(d), indices=idx)


def sparse_diagonal(diag) -> sp.csr_array:
    """The diagonal operator with diagonal ``diag``, as a CSR array of d entries in its field."""
    diag = np.asarray(diag)
    d = diag.size
    return sp.csr_array((diag, np.arange(d), np.arange(d + 1)), shape=(d, d))


def hermitian_defect(M) -> tuple[float, float, float, float]:
    """max|M - M^dagger|, ||M - M^dagger||_F, max|M| and ||M||_F of a square M, dense or sparse.

    A dense M is read one pair of tiles M[I, J], M[J, I], I <= J, at a time:
    tile (J, I) of M - M^dagger is minus the adjoint of tile (I, J), with the
    same moduli.  A sparse M is read as M - M^dagger and a summed copy of M,
    so its buffers are never written.  A NaN entry makes every result NaN.
    """
    if sp.issparse(M):
        D, S = (M - M.conj().T).data, M.tocsr(copy=True)
        S.sum_duplicates()
        return (float(np.abs(D).max(initial=0.0)), float(np.linalg.norm(D)),
                float(np.abs(S.data).max(initial=0.0)), float(np.linalg.norm(S.data)))
    M = np.asarray(M)
    d, b = M.shape[0], HERMITICITY_TILE
    defect_max = defect_sq = entry_max = entry_sq = np.float64(0.0)
    for i in range(0, d, b):
        for j in range(i, d, b):
            upper, lower = M[i : i + b, j : j + b], M[j : j + b, i : i + b]
            D = np.abs(upper - lower.conj().T)
            defect_max = np.maximum(defect_max, D.max())
            defect_sq += (1.0 if i == j else 2.0) * np.vdot(D, D)
            for tile in (upper,) if i == j else (upper, lower):
                A = np.abs(tile)
                entry_max = np.maximum(entry_max, A.max())
                entry_sq += np.vdot(A, A)
    return float(defect_max), float(np.sqrt(defect_sq)), float(entry_max), float(np.sqrt(entry_sq))


def is_hermitian(M) -> bool:
    """True when M, dense or sparse, is square and M - M^dagger is within HERMITICITY_RTOL."""
    shape = np.shape(M)
    if len(shape) != 2 or shape[0] != shape[1]:
        return False
    defect, _, scale, _ = hermitian_defect(M)
    return defect <= HERMITICITY_RTOL * max(1.0, scale)


def _number_diagonal(basis: TruncationBasis, mode: int) -> np.ndarray:
    """Diagonal of the number operator of ``mode``: I_mode at the position of I."""
    if not 1 <= mode <= basis.n:
        raise InputError(f"mode {mode} out of range 1..{basis.n}")
    return basis.indices[:, mode - 1].astype(float)


def number_operator(basis: TruncationBasis, mode: int) -> np.ndarray:
    """Diagonal operator with entry I_mode at the basis position of I."""
    return np.diag(_number_diagonal(basis, mode).astype(complex))


def _synthesized_diagonal(seq, basis: TruncationBasis) -> np.ndarray:
    """Diagonal of ``synthesize(seq, basis)``: E_rank(I) at the position of I."""
    arr = as_spectrum(seq)
    if arr.size < basis.d:
        raise InputError(
            f"need at least {basis.d} energies, got {arr.size}"
        )
    # basis row k is decode(k, n), so position k has rank k; no caller writes
    # to this view of seq
    return arr[: basis.d]


def synthesize(seq, basis: TruncationBasis) -> np.ndarray:
    """Diagonal operator with entry E_rank(I) at the basis position of I.

    Its spectrum is exactly the multiset of the first d sequence entries,
    and it commutes exactly with every number operator on the same basis.
    """
    return np.diag(_synthesized_diagonal(seq, basis).astype(complex))


def eigendecompose(M: np.ndarray, vectors: bool = True):
    """Ascending eigenvalues of M and, with ``vectors``, orthonormal eigenvector columns.

    LAPACK's MRRR driver ``?heevr`` / ``?syevr`` (Dhillon, Parlett and Vömel,
    ACM TOMS 32, 533, 2006): faster than the divide-and-conquer ``?heevd`` at
    the same residuals.
    """
    M = np.asarray(M)
    if not is_hermitian(M):
        raise InputError("matrix is not Hermitian within tolerance")
    from scipy.linalg import eigh  # loaded on use, like the other SciPy submodules

    return eigh(M, eigvals_only=not vectors, driver="evr", check_finite=False)


def dimension_cap(cap: int | None = None) -> int:
    """The given ``cap``, else ``SPECTRAL_FORGE_CAP``, else the default; refused unless positive."""
    source = "cap"
    if cap is None:
        source, raw = CAP_ENV_VAR, os.environ.get(CAP_ENV_VAR)
        if raw is None:
            return DEFAULT_DIM_CAP
        try:
            cap = int(raw)
        except ValueError:
            raise InputError(f"{CAP_ENV_VAR} must be an integer, got {raw!r}")
    cap = int(cap)
    if cap < 1:
        raise InputError(f"{source} must be positive, got {cap}")
    return cap


def dense_within_cap(M, cap: int | None = None, remedy: str = "give a smaller matrix"):
    """The dense form of the sparse M, made only when its width M.shape[1] is within the cap.

    The one check of the cap, ``dimension_cap(cap)``: k stacked s x s
    blocks, as a (k s) x s M, are capped on s.
    """
    cap = dimension_cap(cap)
    if M.shape[1] > cap:
        raise CapacityError(
            f"matrix dimension {M.shape[1]} exceeds cap {cap}; {remedy} or raise the cap"
        )
    return M.toarray()


# ---------------------------------------------------------------------------
# matrix JSON interchange: dense {dim, re, im}, both row-major, or sparse
# {dim, rows, cols, re, im}, one list entry per nonzero

def matrix_to_json(M) -> str:
    """The dense form for an array, the sparse form for a scipy sparse array."""
    if not sp.issparse(M):
        M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InputError("matrix must be square")
    if sp.issparse(M):
        C = sp.csr_array(M, dtype=complex, copy=True)
        C.sum_duplicates()  # also sorts each row, so entries go row-major
        C.eliminate_zeros()
        C = C.tocoo()
        return json.dumps(
            {
                "dim": C.shape[0],
                "rows": C.row.tolist(),
                "cols": C.col.tolist(),
                "re": C.data.real.tolist(),
                "im": C.data.imag.tolist(),
            }
        )
    return json.dumps(
        {
            "dim": M.shape[0],
            "re": M.real.ravel().tolist(),
            "im": M.imag.ravel().tolist(),
        }
    )


def _json_indices(values, dim: int, name: str) -> np.ndarray:
    if not isinstance(values, list) or not all(type(v) is int for v in values):
        raise InputError(f"matrix JSON {name} must be a list of integers")
    idx = np.array(values, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= dim):
        raise InputError(f"matrix JSON {name} has an index outside 0..{dim - 1}")
    return idx


def matrix_from_json(text: str):
    """An array from the dense form, CSR from the sparse; float64 when every ``im`` is 0."""
    try:
        data = json.loads(text)
        dim = data["dim"]
        if type(dim) is not int:  # bool is an int subclass; 2.5 or "2" is no dimension
            raise InputError(f"matrix JSON dim must be an integer, got {dim!r}")
        re = np.asarray(data["re"], dtype=float)
        im = np.asarray(data["im"], dtype=float)
        sparse = "rows" in data or "cols" in data
        if sparse:
            rows = _json_indices(data["rows"], dim, "rows")
            cols = _json_indices(data["cols"], dim, "cols")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"bad matrix JSON: {exc}")
    if dim < 1:
        raise InputError(f"matrix JSON dim must be at least 1, got {dim}")
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise InputError("matrix JSON has entries that are not finite")
    if not sparse:
        if re.shape != (dim * dim,) or im.shape != (dim * dim,):
            raise InputError("matrix JSON arrays do not match dim*dim")
        return (re + 1j * im if im.any() else re).reshape(dim, dim)
    if not rows.shape == cols.shape == re.shape == im.shape:
        raise InputError("matrix JSON rows, cols, re and im differ in length")
    order = np.lexsort((cols, rows))
    if np.any((np.diff(rows[order]) == 0) & (np.diff(cols[order]) == 0)):
        raise InputError("matrix JSON repeats a (row, col) pair")
    return sp.csr_array((re + 1j * im if im.any() else re, (rows, cols)), shape=(dim, dim))
