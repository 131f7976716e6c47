"""Level-spacing statistics: unfolding, spacing laws, equidistribution.

Raw energy levels are unfolded with a least-squares polynomial fit of the
counting staircase, then rescaled to unit mean spacing.  Spacing samples
are compared against the Poisson law P(s) = exp(-s) or the unitary-ensemble
Wigner surmise P(s) = (32/pi^2) s^2 exp(-4 s^2 / pi) with a one-sample
Kolmogorov-Smirnov statistic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from .errors import InputError
from .spectra import as_spectrum

DEFAULT_UNFOLD_DEGREE = 3
KS_PASS_COEFFICIENT = 1.95  # threshold 1.95/sqrt(N), roughly alpha = 0.001
MODELS = ("poisson", "gue")
HISTOGRAM_BINS = 40  # bins of a spacing test's histogram, on [0, max(4, largest spacing)]


@dataclass(frozen=True)
class SpacingSample:
    """Unfolded ascending levels with unit mean spacing, and their gaps."""

    unfolded_levels: np.ndarray
    spacings: np.ndarray

    @property
    def count(self) -> int:
        return int(self.spacings.size)


def unfold(levels, degree: int = DEFAULT_UNFOLD_DEGREE) -> SpacingSample:
    """Map raw levels through a fitted smooth counting function.

    Fits a polynomial of the given degree to the empirical staircase
    (E_i, i + 1/2) by least squares and rescales the image to mean
    spacing exactly 1.
    """
    arr = np.sort(as_spectrum(levels))
    degree = int(degree)
    if not 1 <= degree <= 8:
        raise InputError("unfolding degree must be in 1..8")
    distinct = np.unique(arr).size
    if distinct < 10:
        raise InputError("need at least 10 distinct levels to unfold")
    if distinct < degree + 2:
        raise InputError(
            f"degree {degree} fit needs at least {degree + 2} distinct levels"
        )
    staircase = np.arange(arr.size) + 0.5
    # fit on [-1, 1] for conditioning; an affine pre-map spans the same space
    mid = 0.5 * (arr[0] + arr[-1])
    half = max(0.5 * (arr[-1] - arr[0]), np.finfo(float).tiny)
    t = (arr - mid) / half
    coeffs = np.polyfit(t, staircase, degree)
    eps = np.sort(np.polyval(coeffs, t))
    span = eps[-1] - eps[0]
    if span <= 0:
        raise InputError("unfolding collapsed the spectrum; lower the degree")
    eps = (eps - eps[0]) * (arr.size - 1) / span
    return SpacingSample(unfolded_levels=eps, spacings=np.diff(eps))


def poisson_cdf(s: np.ndarray) -> np.ndarray:
    return 1.0 - np.exp(-np.asarray(s, dtype=float))


def wigner_gue_pdf(s: np.ndarray) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    return (32.0 / np.pi**2) * s**2 * np.exp(-4.0 * s**2 / np.pi)


def wigner_gue_cdf(s: np.ndarray) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    return erf(2.0 * s / np.sqrt(np.pi)) - (4.0 * s / np.pi) * np.exp(
        -4.0 * s**2 / np.pi
    )


_MODEL_CDF = {"poisson": poisson_cdf, "gue": wigner_gue_cdf}


def ks_distance(sample: np.ndarray, model_cdf) -> float:
    """One-sided sup distance of the empirical step CDF above the model CDF.

    D = max_i (i/N - F(s_(i))), clipped at zero.  Evaluating the step CDF at
    its tops keeps the statistic stable under exact level degeneracies.
    """
    s = np.sort(np.asarray(sample, dtype=float))
    N = s.size
    F = model_cdf(s)
    ecdf = np.arange(1, N + 1) / N
    return float(max(0.0, (ecdf - F).max()))


@dataclass(frozen=True)
class SpacingTestReport:
    model: str
    ks_distance: float
    sample_size: int
    threshold: float
    passed: bool
    bin_edges: np.ndarray
    bin_counts: np.ndarray

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "ks_distance": self.ks_distance,
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


def spacing_test(sample: SpacingSample, model: str, min_count: int = 50) -> SpacingTestReport:
    """One-sample KS test of the spacing sample against a reference law.

    Below ~50 spacings the test is only a tendency check; callers that
    accept that (e.g. short zero tables) may lower ``min_count``.
    """
    if model not in MODELS:
        raise InputError(f"model must be one of {MODELS}")
    s = np.asarray(sample.spacings, dtype=float)
    if s.size < min_count:
        raise InputError(f"need at least {min_count} spacings for a spacing test")
    dist = ks_distance(s, _MODEL_CDF[model])
    threshold = KS_PASS_COEFFICIENT / np.sqrt(s.size)
    hi = max(4.0, float(s.max()) * (1 + 1e-12))
    counts, edges = np.histogram(s, bins=HISTOGRAM_BINS, range=(0.0, hi))
    return SpacingTestReport(
        model=model,
        ks_distance=dist,
        sample_size=int(s.size),
        threshold=float(threshold),
        passed=bool(dist < threshold),
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
    RNG stream, so the summary does not depend on execution order.
    """
    trials = int(trials)
    if trials < 1:
        raise InputError("trials must be >= 1")
    if levels not in ("uniform", "arithmetic"):
        raise InputError("levels must be 'uniform' or 'arithmetic'")
    child_seeds = np.random.SeedSequence(seed).spawn(trials)
    distances = np.empty(trials)
    passes = 0
    for t in range(trials):
        if levels == "uniform":
            rng = np.random.default_rng(child_seeds[t])
            raw = rng.uniform(0.0, 1.0, size=N)
        else:
            raw = np.arange(N, dtype=float)
        report = spacing_test(unfold(raw), "poisson")
        distances[t] = report.ks_distance
        passes += report.passed
    q = np.quantile(distances, [0.05, 0.25, 0.5, 0.75, 0.95])
    return {
        "trials": trials,
        "levels_per_trial": int(N),
        "seed": int(seed),
        "level_model": levels,
        "unfold_degree": DEFAULT_UNFOLD_DEGREE,
        "threshold": float(KS_PASS_COEFFICIENT / np.sqrt(N - 1)),
        "pass_rate": passes / trials,
        "mean_ks": float(distances.mean()),
        "ks_quantiles": {
            "q05": float(q[0]),
            "q25": float(q[1]),
            "q50": float(q[2]),
            "q75": float(q[3]),
            "q95": float(q[4]),
        },
        "note": "uniform[0,1] i.i.d. levels stand in for a random pure-point spectrum",
    }
