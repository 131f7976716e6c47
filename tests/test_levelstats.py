import numpy as np
import pytest

from spectralforge import levelstats as ls
from spectralforge.errors import InputError


def test_unfold_arithmetic_sequence():
    sample = ls.unfold(np.arange(100.0), degree=1)
    assert np.allclose(sample.spacings, 1.0, atol=1e-9)


def test_unfold_polynomial_counting_function_fit_exactly():
    # levels sqrt(i) have counting function N(E) = E^2, matched by degree 2
    sample = ls.unfold(np.sqrt(np.arange(1000.0)), degree=2)
    assert np.abs(sample.spacings - 1.0).max() < 1e-6


def test_unfold_uniform_draws_have_exponential_spacings():
    raw = np.random.default_rng(11).uniform(0, 1, 1000)
    sample = ls.unfold(raw, degree=1)
    assert sample.spacings.mean() == pytest.approx(1.0, abs=1e-12)
    assert sample.spacings.var() == pytest.approx(1.0, abs=0.15)


def test_unfold_mean_spacing_is_one():
    rng = np.random.default_rng(12)
    for _ in range(10):
        raw = rng.normal(size=200)
        sample = ls.unfold(raw, degree=3)
        assert abs(sample.spacings.mean() - 1.0) < 1e-6


def test_unfold_input_validation():
    with pytest.raises(InputError):
        ls.unfold(np.arange(5.0))
    with pytest.raises(InputError):
        ls.unfold(np.arange(100.0), degree=0)
    with pytest.raises(InputError):
        ls.unfold(np.arange(100.0), degree=9)
    with pytest.raises(InputError):
        ls.unfold([1.0] * 100)


def test_gue_cdf_matches_quadrature():
    # independent oracle: integrate the surmise density numerically
    from scipy.integrate import quad

    for s in (0.2, 0.7, 1.0, 2.3):
        expected, _ = quad(ls.wigner_gue_pdf, 0.0, s)
        assert ls.wigner_gue_cdf(s) == pytest.approx(expected, abs=1e-12)


def test_ks_constant_spacings_analytic_value():
    sample = ls.SpacingSample(
        unfolded_levels=np.arange(200.0), spacings=np.ones(199)
    )
    report = ls.spacing_test(sample, "poisson")
    assert report.ks_distance == pytest.approx(np.exp(-1), abs=1e-12)
    assert not report.passed


def test_ks_exponential_spacings_pass_poisson():
    passes = 0
    for seed in range(200):
        s = np.random.default_rng(seed).exponential(1.0, 1000)
        d = ls.ks_distance(s, ls.poisson_cdf)
        passes += d < 1.63 / np.sqrt(1000)
    assert passes >= 0.99 * 200


def test_ks_exponential_spacings_fail_gue():
    # population oracle: sup of (1 - e^-s) - GUE_cdf(s) on a dense grid
    grid = np.linspace(0, 10, 100001)
    population = float((ls.poisson_cdf(grid) - ls.wigner_gue_cdf(grid)).max())
    s = np.random.default_rng(5).exponential(1.0, 1000)
    d = ls.ks_distance(s, ls.wigner_gue_cdf)
    assert d == pytest.approx(population, abs=0.05)
    sample = ls.SpacingSample(unfolded_levels=np.cumsum(s), spacings=s)
    assert not ls.spacing_test(sample, "gue").passed


def test_gue_and_poisson_models_separated():
    s = np.random.default_rng(6).exponential(1.0, 10**4)
    dp = ls.ks_distance(s, ls.poisson_cdf)
    dg = ls.ks_distance(s, ls.wigner_gue_cdf)
    assert dg - dp > 0.05


def test_ks_affine_invariance_of_raw_levels():
    raw = np.random.default_rng(7).uniform(0, 1, 500)
    d1 = ls.spacing_test(ls.unfold(raw), "poisson").ks_distance
    d2 = ls.spacing_test(ls.unfold(raw * 3.7 + 42.0), "poisson").ks_distance
    assert abs(d1 - d2) < 1e-8


def test_spacing_report_histogram_and_serialization():
    sample = ls.unfold(np.random.default_rng(8).uniform(0, 1, 400))
    report = ls.spacing_test(sample, "poisson")
    assert report.bin_counts.sum() == sample.count
    assert 0.0 <= report.ks_distance <= 1.0
    csv = report.histogram_csv()
    assert csv.startswith("bin_left,bin_right,count")
    assert len(csv.strip().splitlines()) == report.bin_counts.size + 1


def test_spacing_test_sample_floor():
    sample = ls.SpacingSample(
        unfolded_levels=np.arange(20.0), spacings=np.ones(19)
    )
    with pytest.raises(InputError):
        ls.spacing_test(sample, "poisson")
    assert ls.spacing_test(sample, "poisson", min_count=10).sample_size == 19


def test_discrepancy_examples():
    N = 10
    centered = (2 * np.arange(1, N + 1) - 1) / (2 * N)
    assert ls.discrepancy(centered) == pytest.approx(0.05, abs=1e-15)
    assert ls.discrepancy([0.0]) == 1.0
    golden = np.mod(np.arange(1, 1001) * 0.6180339887, 1.0)
    assert ls.discrepancy(golden) < 0.01


def test_discrepancy_matches_brute_force():
    rng = np.random.default_rng(9)
    x = rng.uniform(0, 1, 150)
    # brute force: check every candidate box [0, t) at sample points
    xs = np.sort(x)
    N = xs.size
    brute = 0.0
    for t in np.concatenate([xs, [1.0]]):
        inside = np.sum(xs < t) / N
        inside_closed = np.sum(xs <= t) / N
        brute = max(brute, abs(t - inside), abs(t - inside_closed))
    assert ls.discrepancy(x) == pytest.approx(brute, abs=1e-12)
    assert ls.discrepancy(x) == ls.discrepancy(x[::-1])


def test_discrepancy_input_validation():
    with pytest.raises(InputError):
        ls.discrepancy([1.5])
    with pytest.raises(InputError):
        ls.discrepancy([])


def test_ensemble_deterministic():
    a = ls.ensemble_experiment(5, 300, seed=42)
    b = ls.ensemble_experiment(5, 300, seed=42)
    assert a == b


def test_ensemble_pass_rates():
    uniform = ls.ensemble_experiment(50, 1000, seed=1)
    assert uniform["pass_rate"] >= 0.95
    rigid = ls.ensemble_experiment(10, 1000, seed=1, levels="arithmetic")
    assert rigid["pass_rate"] == 0.0
