"""Graded-lexicographic bijection between n-dimensional multi-indices and ranks.

Multi-indices (tuples of non-negative integers) are enumerated by total
degree, ties broken lexicographically.  For n=2 the order starts

    (0,0), (0,1), (1,0), (0,2), (1,1), (2,0), (0,3), ...

``encode`` and ``decode`` are exact inverses for every dimension n >= 1.
Ranks are Python integers, so they never wrap.  ``encode_many`` works in
int64 and refuses inputs that could overflow; ``enumerate_first`` does no
rank arithmetic, and its counts stay below d (m + 1), m = min(n, d - 1),
for any n.
"""

from __future__ import annotations

from math import comb

import numpy as np

from .errors import CapacityError, InputError

def _int64_degree_cap(n: int) -> int:
    # falling products of n factors must stay below 2**63 (see _comb_int64)
    return int((2**63 - 1) ** (1.0 / n)) - n - 1


def _validate_index(index) -> tuple[int, ...]:
    entries = tuple(int(v) for v in index)
    if len(entries) < 1:
        raise InputError("multi-index must have dimension >= 1")
    if any(v < 0 for v in entries):
        raise InputError(f"multi-index entries must be >= 0, got {entries}")
    return entries


def encode(index) -> int:
    """Rank of a multi-index in graded-lexicographic order (0-based)."""
    entries = _validate_index(index)
    n = len(entries)
    degree = sum(entries)
    # indices of strictly smaller degree come first
    rank = comb(degree + n - 1, n)
    remaining = degree
    for j, a in enumerate(entries[:-1]):
        m = n - j - 1
        # lex block skipped by choosing entry a at position j (hockey-stick sum)
        rank += comb(remaining + m, m) - comb(remaining - a + m, m)
        remaining -= a
    return rank


def decode(rank: int, n: int) -> tuple[int, ...]:
    """Multi-index of dimension ``n`` at the given graded-lex rank."""
    rank = int(rank)
    n = int(n)
    if rank < 0:
        raise InputError("rank must be >= 0")
    if n < 1:
        raise InputError("dimension must be >= 1")
    if n == 1:
        return (rank,)
    degree = 0
    while comb(degree + n, n) <= rank:
        degree += 1
    rest = rank - comb(degree + n - 1, n)
    out = []
    remaining = degree
    for j in range(n - 1):
        m = n - j - 1
        a = 0
        while True:
            block = comb(remaining - a + m - 1, m - 1)
            if rest < block:
                break
            rest -= block
            a += 1
        out.append(a)
        remaining -= a
    out.append(remaining)
    return tuple(out)


def enumerate_first(d: int, n: int) -> np.ndarray:
    """First ``d`` multi-indices of dimension ``n``, as a (d, n) int64 array.

    Row k equals ``decode(k, n)``, decoded for every k at once, one column
    at a time.  An index whose entry j is nonzero has rank at least n - j,
    so only the last m = min(n, d - 1) columns are nonzero, and the work
    and the counts involved are bounded by d and m, never by n.
    """
    d = int(d)
    n = int(n)
    if d < 1:
        raise InputError("count must be >= 1")
    if n < 1:
        raise InputError("dimension must be >= 1")
    if n == 1:
        return np.arange(d, dtype=np.int64).reshape(d, 1)
    try:
        out = np.zeros((d, n), dtype=np.int64)
    except ValueError as exc:  # numpy refuses a shape past its index range
        raise CapacityError(f"a {d} x {n} multi-index table: {exc}") from None
    m = min(n, max(2, d - 1))  # at least the two columns of the closed form below
    # S[x] = C(x + p, p), the count of p-dimensional indices of degree <= x,
    # for p = m and x up to the degree of row d - 1
    S = [1]
    while S[-1] < d:
        S.append(comb(len(S) + m, m))
    S = np.array(S, dtype=np.int64)
    first = np.concatenate(([0], S[:-1]))  # the first row of each degree
    size = np.minimum(S, d) - first
    r = np.repeat(np.arange(S.size), size)  # the degree of row k
    rest = np.arange(d) - np.repeat(first, size)  # its rank within that degree
    cols = out[:, n - m :]
    for j in range(m - 2):
        # with p = m - j - 1 columns after j, entry a of column j skips the
        # C(r + p, p) - C(r - a + p, p) indices whose entry j is below a, so
        # r - a is the least x with C(x + p, p) >= C(r + p, p) - rest
        S[1:] = np.diff(S)
        above = S[r] - rest
        x = np.searchsorted(S, above)
        cols[:, j] = r - x
        rest = S[x] - above
        r = x
    # the last two columns hold composition number ``rest`` of r into two parts
    cols[:, -2] = rest
    cols[:, -1] = r - rest
    return out


def _comb_int64(x: np.ndarray, m: int) -> np.ndarray:
    """C(x, m) for an int64 array and small fixed m >= 1 (falling-product formula)."""
    num = np.ones_like(x)
    for i in range(m):
        num = num * (x - i)
    den = 1
    for i in range(1, m + 1):
        den *= i
    return num // den


def encode_many(indices: np.ndarray) -> np.ndarray:
    """Vectorized ``encode`` for a (d, n) array of multi-indices."""
    arr = np.asarray(indices, dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] < 1:
        raise InputError("expected a (d, n) array of multi-indices")
    if (arr < 0).any():
        raise InputError("multi-index entries must be >= 0")
    n = arr.shape[1]
    degree = arr.sum(axis=1)
    if degree.size and int(degree.max()) + n > _int64_degree_cap(n):
        raise CapacityError("multi-index degree too large for int64 rank arithmetic")
    rank = _comb_int64(degree + n - 1, n)
    remaining = degree.copy()
    for j in range(n - 1):
        m = n - j - 1
        a = arr[:, j]
        rank += _comb_int64(remaining + m, m) - _comb_int64(remaining - a + m, m)
        remaining -= a
    return rank
