"""Critical-line zeros via the Hardy Z function, plus zero-table ingestion.

Z(t) = exp(i theta(t)) zeta(1/2 + it) is real for real t and changes sign
at each critical-line zero.  zeta on the critical line is evaluated through
the alternating Dirichlet eta series accelerated with Borwein's
Chebyshev-coefficient scheme; theta comes from the log-Gamma function.
The evaluator is desk-scale: accuracy is guaranteed only up to t ~ 250,
which covers the first 100 zeros.

The eta sum is a Dirichlet sum, sum_k a_k k^(-1/2) k^(-it).  The factor
k^(-it) is completely multiplicative, so only the primes p <= n pay a
complex ``exp``; every composite k is the product of the rows of its
smallest prime factor and of k / spf(k), filled level by level in the
number of prime factors.  The k^(-1/2) factor lives in the weights.

``compute_zeros`` scans Z on a grid for sign changes, then bisects all the
brackets together, so each halving is one vectorized ``hardy_z`` call over
every bracket still open.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from math import isqrt, pi

import numpy as np

from .errors import CapacityError, InputError
from .spectra import read_values

MAX_COMPUTED_ZEROS = 100
SCAN_STEP = 0.05
BISECTION_TOL = 1e-8
_SCAN_START = 3.0  # Z has no zeros below the first one near t = 14.13


def siegel_theta(t) -> np.ndarray:
    """Riemann-Siegel theta: Im log Gamma(1/4 + it/2) - (t/2) log pi."""
    from scipy.special import loggamma  # loaded on use: only zeta needs scipy.special

    t = np.asarray(t, dtype=float)
    return loggamma(0.25 + 0.5j * t).imag - 0.5 * t * np.log(pi)


def _borwein_coefficients(n: int) -> np.ndarray:
    # ratios (d_k - d_n) / d_n with d_k = sum_{j<=k} n (n+j-1)! 4^j / ((n-j)! (2j)!);
    # every term is an integer, so each follows exactly from the one before
    terms = [1]
    for j in range(1, n + 1):
        terms.append(terms[-1] * 4 * (n + j - 1) * (n - j + 1) // (2 * j * (2 * j - 1)))
    d = list(accumulate(terms))
    return np.array([(dk - d[n]) / d[n] for dk in d[:n]])


@lru_cache(maxsize=8)
def _eta_terms(n: int) -> np.ndarray:
    coeffs = _borwein_coefficients(n)
    signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    return -signs * coeffs  # term k multiplies (k+1)^(-s)


@lru_cache(maxsize=8)
def _eta_plan(n: int):
    """The n-term eta sum as a multiplicative plan over k = 1..n.

    Rows are ordered by Omega(k), the number of prime factors with
    multiplicity: k = 1, then the primes, then one block per level.  Returns
    -log p for the prime rows, one (start, stop, spf_rows, cofactor_rows)
    gather per composite level, and the weights w_k k^(-1/2) in row order.
    """
    spf = np.zeros(n + 1, dtype=np.intp)  # smallest prime factor; primes keep 0 here
    for p in range(2, isqrt(n) + 1):
        if spf[p] == 0:
            multiples = spf[p * p :: p]
            multiples[multiples == 0] = p
    spf = np.where(spf == 0, np.arange(n + 1), spf)
    omega = np.zeros(n + 1, dtype=np.intp)
    for j in range(2, n + 1):
        omega[j] = omega[j // spf[j]] + 1
    order = np.argsort(omega[1:], kind="stable") + 1  # k values in row order
    row = np.empty(n + 1, dtype=np.intp)
    row[order] = np.arange(n)
    levels = []
    for level in range(2, int(omega.max()) + 1):
        ks = order[omega[order] == level]
        start = int(row[ks[0]])
        levels.append((start, start + ks.size, row[spf[ks]], row[ks // spf[ks]]))
    primes = order[omega[order] == 1]
    weights = _eta_terms(n)[order - 1] / np.sqrt(order)
    return -np.log(primes), tuple(levels), weights


def zeta_half_line(t) -> np.ndarray:
    """zeta(1/2 + it) for real t, vectorized."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    # term count from Borwein's error bound, quantized for coefficient reuse
    n = int(0.9 * float(np.abs(t).max())) + 30
    n = 64 * ((n + 63) // 64)
    neg_log_p, levels, weights = _eta_plan(n)
    # row r holds k^(-it) for the r-th k of the plan, shaped (n, t)
    rows = np.empty((n, t.size), dtype=complex)
    rows[0] = 1.0
    rows[1 : 1 + neg_log_p.size] = np.exp(1j * np.outer(neg_log_p, t))
    for start, stop, spf_rows, cofactor_rows in levels:
        np.multiply(rows[spf_rows], rows[cofactor_rows], out=rows[start:stop])
    eta = weights @ rows
    s = 0.5 + 1j * t
    return eta / (1.0 - 2.0 ** (1.0 - s))


def hardy_z(t) -> np.ndarray:
    """The real-valued Hardy Z function on the critical line."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    return (np.exp(1j * siegel_theta(t)) * zeta_half_line(t)).real


@dataclass(frozen=True)
class ZetaZeroSet:
    """Ordered imaginary parts of critical-line zeros."""

    values: np.ndarray
    source: str  # "file" or "computed"

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.size == 0:
            raise InputError("zero set must be non-empty")
        if not np.isfinite(arr).all():
            raise InputError("zeros must be finite")
        if (arr <= 0).any():
            raise InputError("zeros must be positive")
        if (np.diff(arr) <= 0).any():
            raise InputError("zeros must be strictly increasing")

    @property
    def count(self) -> int:
        return int(np.asarray(self.values).size)


def parse_zeros(path) -> ZetaZeroSet:
    """Read an ascending one-float-per-line zero table; '#' lines are comments."""
    values = []
    for lineno, v in read_values(path):
        if not np.isfinite(v):
            raise InputError(f"{path}: non-finite zero {v!r} at line {lineno}")
        if v <= 0:
            raise InputError(f"{path}: non-positive zero at line {lineno}")
        if values and v <= values[-1]:
            raise InputError(f"{path}: non-monotone zero at line {lineno}")
        values.append(v)
    if not values:
        raise InputError(f"{path}: no zeros found")
    return ZetaZeroSet(values=np.array(values), source="file")


def _bisect_brackets(
    lo: np.ndarray, hi: np.ndarray, lo_negative: np.ndarray
) -> np.ndarray:
    """Bisect every sign-change bracket [lo_k, hi_k] together, in place.

    One ``hardy_z`` call per halving evaluates the midpoints of all brackets
    still wider than ``BISECTION_TOL``; a midpoint where Z is exactly zero
    collapses its bracket.  ``lo_negative`` is the sign of Z at each lower
    end, which a halving never changes.
    """
    while True:
        open_ = np.nonzero(hi - lo > BISECTION_TOL)[0]
        if open_.size == 0:
            return 0.5 * (lo + hi)
        mid = 0.5 * (lo[open_] + hi[open_])
        z_mid = hardy_z(mid)
        same = (z_mid < 0) == lo_negative[open_]
        lo[open_] = np.where(same | (z_mid == 0.0), mid, lo[open_])
        hi[open_] = np.where(same & (z_mid != 0.0), hi[open_], mid)


def compute_zeros(count: int) -> ZetaZeroSet:
    """Locate the first ``count`` zeros by sign-change scan plus bisection."""
    count = int(count)
    if count < 1:
        raise InputError("zero count must be >= 1")
    if count > MAX_COMPUTED_ZEROS:
        raise CapacityError(
            f"desk-scale evaluator computes at most {MAX_COMPUTED_ZEROS} zeros; "
            "ingest a published table for more"
        )
    lo, hi, lo_negative = [], [], []
    start = _SCAN_START
    batch = 512
    while len(lo) < count:
        grid = start + SCAN_STEP * np.arange(batch + 1)
        z = hardy_z(grid)
        flips = np.nonzero(np.signbit(z[:-1]) != np.signbit(z[1:]))[0]
        lo.extend(grid[flips])
        hi.extend(grid[flips + 1])
        lo_negative.extend(z[flips] < 0)
        start = float(grid[-1])
    zeros = _bisect_brackets(
        np.array(lo[:count]), np.array(hi[:count]), np.array(lo_negative[:count])
    )
    return ZetaZeroSet(values=zeros, source="computed")
