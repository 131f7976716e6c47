"""Spectrum sequences, isospectrality and dense subsets.

A spectrum sequence is a finite 1-D float array of energies; repeated
values are meaningful and encode eigenvalue multiplicity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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
        return {
            "matched": self.matched,
            "tol": self.tol,
            "length_a": self.length_a,
            "length_b": self.length_b,
            "unmatched_a": list(self.unmatched_a),
            "unmatched_b": list(self.unmatched_b),
            "note": self.note,
        }


def completely_isospectral(a, b, tol: float) -> IsospectralReport:
    """Multiset equality of two spectra within ``tol`` after sorting.

    A length mismatch yields ``matched=False`` with both tails reported,
    never an exception.
    """
    if tol < 0:
        raise InputError("tolerance must be >= 0")
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
                if not (np.isfinite(lo) and np.isfinite(hi)) or lo > hi:
                    raise InputError(f"bad interval ({lo}, {hi})")
        elif self.variant != "cantor":
            raise InputError(f"unknown closed-set variant {self.variant!r}")

    @classmethod
    def finite(cls, points) -> "ClosedSetSpec":
        return cls(variant="finite", points=tuple(float(p) for p in points))

    @classmethod
    def interval(cls, lo: float, hi: float) -> "ClosedSetSpec":
        return cls(variant="intervals", intervals=((float(lo), float(hi)),))

    @classmethod
    def interval_union(cls, pairs) -> "ClosedSetSpec":
        return cls(
            variant="intervals",
            intervals=tuple((float(lo), float(hi)) for lo, hi in pairs),
        )

    @classmethod
    def cantor(cls) -> "ClosedSetSpec":
        return cls(variant="cantor")


def _dyadic_unit_stream():
    # 0, 1, 1/2, 1/4, 3/4, 1/8, 3/8, 5/8, 7/8, ...
    yield Fraction(0)
    yield Fraction(1)
    g = 1
    while True:
        for k in range(1, 2**g, 2):
            yield Fraction(k, 2**g)
        g += 1


def _cantor_endpoint_stream():
    # interval endpoints by generation, left to right within a generation
    yield Fraction(0)
    yield Fraction(1)
    removed = [(Fraction(0), Fraction(1))]
    while True:
        next_removed = []
        for lo, hi in removed:
            third = (hi - lo) / 3
            a, b = lo + third, hi - third
            yield a
            yield b
            next_removed.append((lo, a))
            next_removed.append((b, hi))
        removed = next_removed


def dense_subset(spec: ClosedSetSpec, m: int) -> np.ndarray:
    """First ``m`` terms of a fixed enumeration of a countable dense subset."""
    m = int(m)
    if m < 1:
        raise InputError("count must be >= 1")
    if spec.variant == "finite":
        pts = spec.points
        return np.array([pts[i % len(pts)] for i in range(m)], dtype=float)
    if spec.variant == "cantor":
        stream = _cantor_endpoint_stream()
        return np.array([float(next(stream)) for _ in range(m)])
    # intervals: round-robin over per-interval dyadic streams
    streams = []
    for lo, hi in spec.intervals:
        streams.append((lo, hi, None if lo == hi else _dyadic_unit_stream()))
    out = np.empty(m)
    for i in range(m):
        lo, hi, stream = streams[i % len(streams)]
        if lo == hi:
            out[i] = lo
        else:
            t = next(stream)
            out[i] = lo + float(t) * (hi - lo)
    return out


# ---------------------------------------------------------------------------
# serialization: one float per line (plain text) and a JSON array

def format_spectrum_text(seq) -> str:
    arr = as_spectrum(seq)
    return "\n".join(f"{v:.17g}" for v in arr) + "\n"


def save_spectrum_text(seq, path) -> None:
    with open(path, "w") as fh:
        fh.write(format_spectrum_text(seq))


def load_spectrum_text(path) -> np.ndarray:
    values = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            try:
                values.append(float(stripped))
            except ValueError:
                raise InputError(f"{path}: unparsable value at line {lineno}")
    if not values:
        raise InputError(f"{path}: no spectrum values found")
    return as_spectrum(values)
