import tracemalloc

import numpy as np
import pytest
from scipy import stats

from spectralforge import levelstats as ls
from spectralforge import zeta
from spectralforge.errors import InputError


def _polyfit_unfold(raw, degree):
    """The per-spectrum unfolding by np.polyfit, kept as an oracle for the QR fit."""
    arr = np.sort(raw)
    mid = 0.5 * (arr[0] + arr[-1])
    half = 0.5 * (arr[-1] - arr[0])
    t = (arr - mid) / half
    eps = np.sort(np.polyval(np.polyfit(t, np.arange(arr.size) + 0.5, degree), t))
    return (eps - eps[0]) * (arr.size - 1) / (eps[-1] - eps[0])


def _scalar_ks(spacings, cdf):
    """D+ and D- of one sample, written out per sample as an oracle for the row core."""
    s = np.sort(spacings)
    N = s.size
    F = cdf(s)
    return (
        max(0.0, (np.arange(1, N + 1) / N - F).max()),
        max(0.0, (F - np.arange(N) / N).max()),
    )


def _oracle_ensemble(trials, N, seed):
    """The per-trial loop: one spawned stream, one polyfit unfold, one KS test per trial."""
    d_plus, d_two = np.empty(trials), np.empty(trials)
    for t, child in enumerate(np.random.SeedSequence(seed).spawn(trials)):
        raw = np.random.default_rng(child).uniform(0.0, 1.0, size=N)
        spacings = np.diff(_polyfit_unfold(raw, ls.DEFAULT_UNFOLD_DEGREE))
        plus, minus = _scalar_ks(spacings, ls.poisson_cdf)
        d_plus[t], d_two[t] = plus, max(plus, minus)
    return d_plus, d_two


def _assert_summary_matches_oracle(summary, d_plus, d_two, tol=1e-12):
    assert summary["pass_rate"] == np.mean(d_two < summary["threshold"])
    assert summary["mean_ks"] == pytest.approx(d_plus.mean(), abs=tol)
    q = np.quantile(d_plus, [0.05, 0.25, 0.5, 0.75, 0.95])
    got = [summary["ks_quantiles"][k] for k in ("q05", "q25", "q50", "q75", "q95")]
    assert np.abs(np.array(got) - q).max() <= tol


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

    def gue_pdf(s):
        return (32.0 / np.pi**2) * s**2 * np.exp(-4.0 * s**2 / np.pi)

    for s in (0.2, 0.7, 1.0, 2.3):
        expected, _ = quad(gue_pdf, 0.0, s)
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


def test_rigid_spectrum_histogram_is_stable_under_rounding():
    # the spacings of 0..399 are 1 up to rounding, which no bin edge touches
    levels = np.arange(400.0)
    noise = 1e-13 * np.random.default_rng(31).uniform(-1.0, 1.0, levels.size)
    counts = [ls.spacing_test(ls.unfold(x), "poisson").bin_counts
              for x in (levels, levels + noise)]
    assert np.array_equal(counts[0], counts[1])
    assert counts[0].max() == levels.size - 1


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


@pytest.mark.parametrize("degree", [1, 3, 8])
@pytest.mark.parametrize(
    "spectrum",
    [
        lambda: np.random.default_rng(21).uniform(0.0, 1.0, 1000),
        lambda: np.sqrt(np.arange(1000.0)),
        lambda: np.arange(1000.0),
        lambda: zeta.compute_zeros(100).values,
    ],
    ids=["uniform", "sqrt", "arithmetic", "zeta_zeros"],
)
def test_unfold_matches_polyfit_oracle(spectrum, degree):
    raw = spectrum()
    sample = ls.unfold(raw, degree=degree)
    oracle = _polyfit_unfold(raw, degree)
    assert np.abs(sample.spacings - np.diff(oracle)).max() < 1e-10
    assert np.abs(sample.unfolded_levels - oracle).max() < 1e-10 * raw.size


@pytest.mark.parametrize("seed", [1, 20261017])
def test_ensemble_matches_per_trial_oracle(seed):
    d_plus, d_two = ls._ensemble_ks(2000, 1000, seed, "uniform")
    o_plus, o_two = _oracle_ensemble(2000, 1000, seed)
    threshold = ls.KS_PASS_COEFFICIENT / np.sqrt(999)
    assert np.array_equal(d_two < threshold, o_two < threshold)
    assert np.abs(d_plus - o_plus).max() < 1e-12
    assert np.abs(d_two - o_two).max() < 1e-12


def test_ensemble_trial_counts_around_the_block():
    N = 1000
    block = ls._BLOCK_BYTES // (8 * N)
    assert block > 2
    for trials in (1, block - 1, block, block + 1):
        summary = ls.ensemble_experiment(trials, N, seed=7)
        assert summary["trials"] == trials
        _assert_summary_matches_oracle(summary, *_oracle_ensemble(trials, N, 7))


@pytest.mark.parametrize("levels", ["uniform", "arithmetic"])
def test_ensemble_summary_does_not_depend_on_block_size(monkeypatch, levels):
    N = 300
    reference = ls.ensemble_experiment(40, N, seed=3, levels=levels)
    for block in (1, 7, 40, 64):
        monkeypatch.setattr(ls, "_BLOCK_BYTES", 8 * N * block)
        assert ls.ensemble_experiment(40, N, seed=3, levels=levels) == reference


def test_ensemble_arithmetic_control_mean_ks_is_inverse_e():
    rigid = ls.ensemble_experiment(50, 1000, seed=1, levels="arithmetic")
    assert rigid["mean_ks"] == pytest.approx(np.exp(-1), abs=1e-3)


def test_ensemble_memory_stays_one_block():
    # a block of 32 trials of 1000 levels peaks near 4 MB; 256 trials near 30 MB
    tracemalloc.start()
    try:
        ls.ensemble_experiment(2000, 1000, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_ensemble_input_validation():
    with pytest.raises(InputError):
        ls.ensemble_experiment(0, 1000, seed=1)
    with pytest.raises(InputError):
        ls.ensemble_experiment(5, 1000, seed=1, levels="gaussian")
    with pytest.raises(InputError):
        ls.ensemble_experiment(5, 50, seed=1)


@pytest.mark.parametrize("model", ls.MODELS)
def test_ks_distances_match_scipy_kstest(model):
    cdf = ls._MODEL_CDF[model]
    s = np.random.default_rng(22).exponential(1.0, 700)
    sample = ls.SpacingSample(unfolded_levels=np.cumsum(s), spacings=s)
    report = ls.spacing_test(sample, model)
    for alternative, got in (
        ("greater", report.ks_distance),
        ("less", report.ks_distance_minus),
        ("two-sided", report.ks_distance_two_sided),
    ):
        expected = stats.kstest(s, cdf, alternative=alternative).statistic
        assert got == pytest.approx(expected, abs=1e-12)
    assert ls.ks_distance(s, cdf) == report.ks_distance
    assert report.passed == (report.ks_distance_two_sided < report.threshold)


def test_spacing_gap_fails_two_sided_test():
    # exponential spacings with none below 0.3: the empirical CDF never rises
    # above 1 - e^-s, so D+ passes, but it lies 0.26 below it at s = 0.3
    draws = np.random.default_rng(23).exponential(1.0, 4000)
    s = draws[draws >= 0.3][:2000]
    sample = ls.SpacingSample(unfolded_levels=np.cumsum(s), spacings=s)
    report = ls.spacing_test(sample, "poisson")
    assert report.ks_distance < report.threshold
    assert report.ks_distance_minus == pytest.approx(1 - np.exp(-0.3), abs=0.02)
    assert not report.passed
    assert report.to_dict()["ks_distance_two_sided"] == report.ks_distance_minus


def test_goe_cdf_matches_quadrature():
    from scipy.integrate import quad

    def goe_pdf(s):
        return (np.pi / 2.0) * s * np.exp(-np.pi * s**2 / 4.0)

    for s in (0.2, 0.7, 1.0, 2.3, 5.0):
        expected, _ = quad(goe_pdf, 0.0, s)
        assert ls.wigner_goe_cdf(s) == pytest.approx(expected, abs=1e-12)


def test_goe_surmise_samples_pass_goe_and_fail_poisson():
    # inverse CDF of 1 - exp(-pi s^2 / 4)
    u = np.random.default_rng(24).uniform(0.0, 1.0, 2000)
    s = np.sqrt(-4.0 * np.log1p(-u) / np.pi)
    sample = ls.SpacingSample(unfolded_levels=np.cumsum(s), spacings=s)
    assert ls.spacing_test(sample, "goe").passed
    assert not ls.spacing_test(sample, "poisson").passed


@pytest.mark.parametrize("levels", [
    np.concatenate([-np.geomspace(1e300, 1e308, 30), np.geomspace(1e300, 1e308, 30)]),
    np.repeat([-1e308, 1e308], 60),
], ids=["wide", "two_values"])
def test_unfold_refuses_a_span_that_overflows(levels):
    with np.errstate(all="raise"):  # no arithmetic may overflow before the refusal
        with pytest.raises(InputError, match="span overflows"):
            ls.unfold(levels)


@pytest.mark.parametrize("call, message", [
    (lambda: ls.unfold(np.arange(12.0), degree=9), "unfolding degree must be in 1..8"),
    (lambda: ls.spacing_test(ls.unfold(np.arange(100.0), degree=1), "gaussian"),
     f"model must be one of {ls.MODELS}"),
], ids=["degree_above_8", "unknown_model"])
def test_malformed_input_raises_its_message(call, message):
    with pytest.raises(InputError) as info:
        call()
    assert str(info.value) == message
