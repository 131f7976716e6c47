"""Spectrum sequences, isospectrality and dense subsets.

A spectrum sequence is a finite 1-D float array of energies; repeated
values are meaningful and encode eigenvalue multiplicity.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import InputError

CONTINUOUS_SPECTRUM_NOTE = (
    "continuous-spectrum comparison is vacuous at finite truncation"
)


def as_spectrum(values) -> np.ndarray:
    """Validate and return a spectrum sequence as a float64 array."""
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size == 0:
        raise InputError("spectrum sequence must be non-empty")
    if not np.isfinite(arr).all():
        raise InputError("spectrum sequence must contain only finite values")
    return arr


def default_tolerance(*spectra) -> float:
    """1e-9 * max(1, spectral range) over all given sequences."""
    spread = 1.0
    for s in spectra:
        arr = np.asarray(s, dtype=float)
        if arr.size:
            spread = max(spread, float(arr.max() - arr.min()))
    return 1e-9 * spread


@dataclass(frozen=True)
class IsospectralReport:
    """Outcome of a completely-isospectral comparison of two sequences."""

    matched: bool
    tol: float
    length_a: int
    length_b: int
    unmatched_a: tuple[float, ...] = ()
    unmatched_b: tuple[float, ...] = ()
    note: str = CONTINUOUS_SPECTRUM_NOTE

    def to_dict(self) -> dict:
        return asdict(self)


def completely_isospectral(a, b, tol: float) -> IsospectralReport:
    """Multiset equality of two spectra within ``tol`` after sorting.

    A length mismatch yields ``matched=False`` with both tails reported,
    never an exception.
    """
    if not tol >= 0:  # also refuses NaN, which compares false
        raise InputError(f"tolerance must be >= 0, got {tol}")
    sa = np.sort(as_spectrum(a))
    sb = np.sort(as_spectrum(b))
    k = min(sa.size, sb.size)
    diff_mask = np.abs(sa[:k] - sb[:k]) > tol
    unmatched_a = list(sa[:k][diff_mask]) + list(sa[k:])
    unmatched_b = list(sb[:k][diff_mask]) + list(sb[k:])
    matched = sa.size == sb.size and not diff_mask.any()
    return IsospectralReport(
        matched=matched,
        tol=float(tol),
        length_a=int(sa.size),
        length_b=int(sb.size),
        unmatched_a=tuple(float(v) for v in unmatched_a),
        unmatched_b=tuple(float(v) for v in unmatched_b),
    )


# ---------------------------------------------------------------------------
# closed-set specifications and their countable dense subsets

@dataclass(frozen=True)
class ClosedSetSpec:
    """Constructive description of a closed subset of the real line.

    variant is one of ``finite``, ``intervals``, ``cantor``:
      - finite: ``points`` lists the members (enumeration cycles through them)
      - intervals: ``intervals`` is a list of (lo, hi) closed intervals
      - cantor: the middle-thirds Cantor set on [0, 1]
    """

    variant: str
    points: tuple[float, ...] = ()
    intervals: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        if self.variant == "finite":
            if not self.points:
                raise InputError("finite set spec requires at least one point")
        elif self.variant == "intervals":
            if not self.intervals:
                raise InputError("interval set spec requires at least one interval")
            for lo, hi in self.intervals:
                # a finite width also rules out infinite and NaN ends
                if not np.isfinite(hi - lo) or lo > hi:
                    raise InputError(f"bad interval ({lo}, {hi})")
        elif self.variant != "cantor":
            raise InputError(f"unknown closed-set variant {self.variant!r}")

    @classmethod
    def finite(cls, points) -> "ClosedSetSpec":
        return cls(variant="finite", points=tuple(float(p) for p in points))

    @classmethod
    def interval(cls, lo: float, hi: float) -> "ClosedSetSpec":
        return cls.interval_union([(lo, hi)])

    @classmethod
    def interval_union(cls, pairs) -> "ClosedSetSpec":
        return cls(
            variant="intervals",
            intervals=tuple((float(lo), float(hi)) for lo, hi in pairs),
        )

    @classmethod
    def cantor(cls) -> "ClosedSetSpec":
        return cls(variant="cantor")


def _dyadic_units(k: np.ndarray) -> np.ndarray:
    # terms k of 0, 1, 1/2, 1/4, 3/4, 1/8, ...: with g the bit length of k - 1
    # (exact from frexp for k < 2^53), term k >= 2 is (2(k - 2^(g-1)) - 1) / 2^g
    half = 2 ** (np.frexp(np.maximum(k - 1, 1))[1].astype(np.int64) - 1)
    return np.where(k < 2, k, (2 * (k - half) - 1) / (2 * half))


def _cantor_endpoints(p: np.ndarray) -> np.ndarray:
    # terms p >= 1 of 0, 1, 1/3, 2/3, 1/9, 2/9, 7/9, 8/9, ...: generation g
    # holds terms 2^g .. 2^(g+1) - 1, the ends (6L + 1) / 3^g and (6L + 2) / 3^g
    # of the middle third of kept interval k, whose left end is 2L / 3^(g-1)
    # with L the binary digits of k read in base 3.  Below p = 2^34 (128 GiB
    # of terms) 3^g < 2^53, so each term is one correctly rounded division.
    g = np.frexp(p)[1].astype(np.int64) - 1
    k, side = np.divmod(p - 2**g, 2)
    digits3 = sum(((k >> j) & 1) * 3**j for j in range(int(g.max(initial=0))))
    return (6 * digits3 + 1 + side) / 3**g


def dense_subset(spec: ClosedSetSpec, m: int) -> np.ndarray:
    """First ``m`` terms of a fixed enumeration of a countable dense subset."""
    m = int(m)
    if m < 1:
        raise InputError("count must be >= 1")
    i = np.arange(m)
    if spec.variant == "finite":
        return np.array(spec.points, dtype=float)[i % len(spec.points)]
    if spec.variant == "cantor":
        return np.concatenate(([0.0], _cantor_endpoints(i[1:])))
    # intervals take turns, each walking the dyadic terms 0, 1, 1/2, ... of itself;
    # lo - t (lo - hi) has the bits of lo + t (hi - lo) and keeps lo = hi = -0.0
    lo, hi = np.array(spec.intervals, dtype=float)[i % len(spec.intervals)].T
    return lo - _dyadic_units(i // len(spec.intervals)) * (lo - hi)


# ---------------------------------------------------------------------------
# serialization: one float per line, blank lines and '#' comments skipped

def read_values(path):
    """Yield (line number, value) for each value line of a one-float-per-line file."""
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            try:
                value = float(stripped)
            except ValueError:
                raise InputError(f"{path}: unparsable value at line {lineno}")
            yield lineno, value


def save_spectrum_text(seq, path) -> None:
    with open(path, "w") as fh:
        fh.write("".join(f"{v:.17g}\n" for v in as_spectrum(seq)))


def load_spectrum_text(path) -> np.ndarray:
    values = [value for _, value in read_values(path)]
    if not values:
        raise InputError(f"{path}: no spectrum values found")
    return as_spectrum(values)
