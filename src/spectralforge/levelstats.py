"""Level-spacing statistics: unfolding, spacing laws, equidistribution.

Raw energy levels are unfolded with a least-squares polynomial fit of the
counting staircase, then rescaled to unit mean spacing.  Spacing samples
are compared against the Poisson law P(s) = exp(-s), the orthogonal-ensemble
Wigner surmise P(s) = (pi/2) s exp(-pi s^2 / 4) or the unitary-ensemble
surmise P(s) = (32/pi^2) s^2 exp(-4 s^2 / pi) with a one-sample
Kolmogorov-Smirnov test, which passes on the two-sided distance.

Both layers work on rows: each row of a 2-D array is one spectrum.  ``unfold``
and ``spacing_test`` run them on one row, and ``ensemble_experiment`` on
blocks of stacked trials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .spectra import as_spectrum

DEFAULT_UNFOLD_DEGREE = 3
KS_PASS_COEFFICIENT = 1.95  # threshold 1.95/sqrt(N), roughly alpha = 0.001
MIN_SPACINGS = 50  # below this a spacing test is only a tendency check
MODELS = ("poisson", "goe", "gue")
HISTOGRAM_BINS = 40  # bins of a spacing test's histogram, on [0, max(pi, largest spacing)]
# raw levels of one block of ensemble trials; with the fit's work arrays a
# block peaks near 14 times this (3.6 MB at 32 trials of 1000 levels)
_BLOCK_BYTES = 1 << 18


@dataclass(frozen=True)
class SpacingSample:
    """Unfolded ascending levels with unit mean spacing, and their gaps."""

    unfolded_levels: np.ndarray
    spacings: np.ndarray

    @property
    def count(self) -> int:
        return int(self.spacings.size)


def _unfold_rows(levels: np.ndarray, degree: int) -> np.ndarray:
    """Unfolded ascending levels of each row, with unit mean spacing.

    Fits a polynomial of the given degree to each row's staircase
    (E_i, i + 1/2) on its own affine image in [-1, 1], by one stacked QR of
    the Vandermonde matrices with the staircase as an extra column, and
    rescales the fitted values to span exactly n - 1.
    """
    arr = np.sort(levels, axis=-1)
    n = arr.shape[-1]
    distinct = 1 + np.min(np.count_nonzero(np.diff(arr, axis=-1) > 0, axis=-1))
    # 10 distinct levels determine a fit of every degree in 1..8
    if distinct < 10:
        raise InputError("need at least 10 distinct levels to unfold")
    lo, hi = arr[..., :1], arr[..., -1:]
    t = arr - 0.5 * (lo + hi)
    t /= np.maximum(0.5 * (hi - lo), np.finfo(float).tiny)
    k = degree + 1
    # columns 1, t, ..., t^degree, then the staircase; QR reads a stack of
    # (n, k + 1) matrices, which this layout hands it in Fortran order
    V = np.empty(arr.shape[:-1] + (k + 1, n))
    V[..., 0, :] = 1.0
    for j in range(1, k):
        np.multiply(V[..., j - 1, :], t, out=V[..., j, :])
    V[..., k, :] = np.arange(n) + 0.5
    R = np.linalg.qr(np.swapaxes(V, -1, -2), mode="r")
    del V
    coeffs = np.linalg.solve(R[..., :k, :k], R[..., :k, k:])  # (..., k, 1)
    eps = np.empty_like(t)
    eps[...] = coeffs[..., k - 1, :]
    for j in range(k - 2, -1, -1):
        eps *= t
        eps += coeffs[..., j, :]
    eps.sort(axis=-1)
    eps -= eps[..., :1]
    span = eps[..., -1:].copy()
    if not (span > 0).all():
        raise InputError("unfolding collapsed the spectrum; lower the degree")
    eps *= n - 1
    eps /= span
    return eps


def unfold(levels, degree: int = DEFAULT_UNFOLD_DEGREE) -> SpacingSample:
    """Map raw levels through a fitted smooth counting function.

    Fits a polynomial of the given degree to the empirical staircase
    (E_i, i + 1/2) by least squares and rescales the image to mean
    spacing exactly 1.
    """
    arr = as_spectrum(levels)
    # Python floats: a span that overflows is inf, with no numpy warning
    if not math.isfinite(float(arr.max()) - float(arr.min())):
        raise InputError("the spectrum's span overflows; rescale the levels")
    degree = int(degree)
    if not 1 <= degree <= 8:
        raise InputError("unfolding degree must be in 1..8")
    eps = _unfold_rows(arr, degree)
    return SpacingSample(unfolded_levels=eps, spacings=np.diff(eps))


def poisson_cdf(s: np.ndarray) -> np.ndarray:
    return 1.0 - np.exp(-np.asarray(s, dtype=float))


def wigner_goe_cdf(s: np.ndarray) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    return -np.expm1(-np.pi * s**2 / 4.0)


def wigner_gue_cdf(s: np.ndarray) -> np.ndarray:
    from scipy.special import erf  # loaded on use: only the GUE law needs scipy.special

    s = np.asarray(s, dtype=float)
    return erf(2.0 * s / np.sqrt(np.pi)) - (4.0 * s / np.pi) * np.exp(
        -4.0 * s**2 / np.pi
    )


_MODEL_CDF = {"poisson": poisson_cdf, "goe": wigner_goe_cdf, "gue": wigner_gue_cdf}


def _ks_rows(spacings: np.ndarray, model_cdf) -> tuple[np.ndarray, np.ndarray]:
    """KS distances D+ and D- of each row's empirical CDF from the model CDF.

    With s_(1) <= ... <= s_(N) the row in ascending order,
    D+ = max_i (i/N - F(s_(i))) and D- = max_i (F(s_(i)) - (i-1)/N), both
    clipped at zero.  Evaluating the step CDF at its tops and bottoms keeps
    the statistics stable under exact level degeneracies.
    """
    s = np.sort(spacings, axis=-1)
    N = s.shape[-1]
    F = model_cdf(s)
    steps = np.arange(N + 1) / N
    d_plus = (steps[1:] - F).max(axis=-1)
    d_minus = (F - steps[:-1]).max(axis=-1)
    return np.maximum(d_plus, 0.0), np.maximum(d_minus, 0.0)


def ks_distance(sample: np.ndarray, model_cdf) -> float:
    """One-sided sup distance D+ of the empirical step CDF above the model CDF."""
    return float(_ks_rows(np.asarray(sample, dtype=float).ravel(), model_cdf)[0])


def _check_spacing_count(size: int, min_count: int) -> None:
    if size < min_count:
        raise InputError(f"need at least {min_count} spacings for a spacing test")


@dataclass(frozen=True)
class SpacingTestReport:
    """``ks_distance`` is D+; ``passed`` compares the two-sided D = max(D+, D-)."""

    model: str
    ks_distance: float
    ks_distance_minus: float
    sample_size: int
    threshold: float
    passed: bool
    bin_edges: np.ndarray
    bin_counts: np.ndarray

    @property
    def ks_distance_two_sided(self) -> float:
        return max(self.ks_distance, self.ks_distance_minus)

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "ks_distance": self.ks_distance,
            "ks_distance_minus": self.ks_distance_minus,
            "ks_distance_two_sided": self.ks_distance_two_sided,
            "sample_size": self.sample_size,
            "threshold": self.threshold,
            "passed": self.passed,
            "histogram": {
                "bin_edges": [float(v) for v in self.bin_edges],
                "counts": [int(v) for v in self.bin_counts],
            },
        }

    def histogram_csv(self) -> str:
        lines = ["bin_left,bin_right,count"]
        for left, right, c in zip(
            self.bin_edges[:-1], self.bin_edges[1:], self.bin_counts
        ):
            lines.append(f"{left:.17g},{right:.17g},{int(c)}")
        return "\n".join(lines) + "\n"


def spacing_test(
    sample: SpacingSample, model: str, min_count: int = MIN_SPACINGS
) -> SpacingTestReport:
    """One-sample two-sided KS test of the spacing sample against a reference law.

    Below ~50 spacings the test is only a tendency check; callers that
    accept that (e.g. short zero tables) may lower ``min_count``.
    """
    if model not in MODELS:
        raise InputError(f"model must be one of {MODELS}")
    s = np.asarray(sample.spacings, dtype=float)
    _check_spacing_count(s.size, min_count)
    d_plus, d_minus = _ks_rows(s, _MODEL_CDF[model])
    threshold = float(KS_PASS_COEFFICIENT / np.sqrt(s.size))
    # edges k pi / 40 keep 0.015 from integers: spacings 1 up to rounding keep their bin
    hi = max(np.pi, float(s.max()) * (1 + 1e-12))
    counts, edges = np.histogram(s, bins=HISTOGRAM_BINS, range=(0.0, hi))
    return SpacingTestReport(
        model=model,
        ks_distance=float(d_plus),
        ks_distance_minus=float(d_minus),
        sample_size=int(s.size),
        threshold=threshold,
        passed=bool(max(d_plus, d_minus) < threshold),
        bin_edges=edges,
        bin_counts=counts,
    )


def discrepancy(points) -> float:
    """Exact star discrepancy of a point set in [0, 1]."""
    x = np.sort(np.asarray(points, dtype=float).ravel())
    if x.size == 0:
        raise InputError("need at least one point")
    if (x < 0).any() or (x > 1).any():
        raise InputError("points must lie in [0, 1]")
    N = x.size
    i = np.arange(1, N + 1)
    return float(np.maximum(i / N - x, x - (i - 1) / N).max())


def _ensemble_ks(trials: int, N: int, seed: int, levels: str) -> tuple[np.ndarray, np.ndarray]:
    """Per-trial Poisson KS distances D+ and two-sided D of the ensemble.

    Trial t draws its levels from the t-th stream spawned by
    ``SeedSequence(seed)``; blocks of trials are unfolded and tested
    together, so the block size changes no result.
    """
    _check_spacing_count(N - 1, MIN_SPACINGS)
    block = max(1, _BLOCK_BYTES // (8 * N))
    root = np.random.SeedSequence(seed)
    d_plus = np.empty(trials)
    d_two = np.empty(trials)
    for start in range(0, trials, block):
        stop = min(start + block, trials)
        raw = np.empty((stop - start, N))
        if levels == "uniform":
            for row, child in zip(raw, root.spawn(stop - start)):
                row[:] = np.random.default_rng(child).uniform(0.0, 1.0, size=N)
        else:
            raw[:] = np.arange(N)
        spacings = np.diff(_unfold_rows(raw, DEFAULT_UNFOLD_DEGREE), axis=-1)
        d_plus[start:stop], d_minus = _ks_rows(spacings, poisson_cdf)
        np.maximum(d_plus[start:stop], d_minus, out=d_two[start:stop])
    return d_plus, d_two


def ensemble_experiment(
    trials: int,
    N: int,
    seed: int,
    levels: str = "uniform",
) -> dict:
    """Seeded Monte Carlo over random spectra, Poisson spacing test per trial.

    ``levels`` is ``uniform`` (N i.i.d. uniform[0,1] energies per trial, the
    concrete stand-in for a random pure-point spectrum) or ``arithmetic``
    (rigid equally spaced control).  Each trial draws from its own spawned
    RNG stream, so the summary does not depend on execution order.  A trial
    passes on the two-sided KS distance; ``mean_ks`` and the quantiles are
    of D+, whose mean on the arithmetic control is 1/e.
    """
    trials = int(trials)
    if trials < 1:
        raise InputError("trials must be >= 1")
    if levels not in ("uniform", "arithmetic"):
        raise InputError("levels must be 'uniform' or 'arithmetic'")
    d_plus, d_two = _ensemble_ks(trials, N, seed, levels)
    threshold = float(KS_PASS_COEFFICIENT / np.sqrt(N - 1))
    q = np.quantile(d_plus, [0.05, 0.25, 0.5, 0.75, 0.95])
    return {
        "trials": trials,
        "levels_per_trial": int(N),
        "seed": int(seed),
        "level_model": levels,
        "unfold_degree": DEFAULT_UNFOLD_DEGREE,
        "threshold": threshold,
        "pass_rate": int(np.count_nonzero(d_two < threshold)) / trials,
        "mean_ks": float(d_plus.mean()),
        "ks_quantiles": {
            "q05": float(q[0]),
            "q25": float(q[1]),
            "q50": float(q[2]),
            "q75": float(q[3]),
            "q95": float(q[4]),
        },
        "note": "uniform[0,1] i.i.d. levels stand in for a random pure-point spectrum",
    }
