import time
from fractions import Fraction

import numpy as np
import pytest

from spectralforge import spectra
from spectralforge.errors import InputError


def test_isospectral_examples():
    assert spectra.completely_isospectral([1, 2, 2], [2, 1, 2], 0.0).matched
    assert not spectra.completely_isospectral([1, 2], [1, 3], 0.5).matched
    assert spectra.completely_isospectral([0, 1], [1e-12, 1], 1e-9).matched


@pytest.mark.parametrize("tol", [np.nan, -1e-12])
def test_isospectral_refuses_a_tolerance_that_is_not_at_least_0(tol):
    # NaN compares false with everything, so it must not pass as a tolerance
    with pytest.raises(InputError, match="tolerance must be >= 0"):
        spectra.completely_isospectral([1, 2], [5, 9], tol)


def test_isospectral_reflexive_and_symmetric():
    rng = np.random.default_rng(2)
    a = rng.normal(size=30)
    b = rng.normal(size=30)
    assert spectra.completely_isospectral(a, a, 0.0).matched
    ab = spectra.completely_isospectral(a, b, 0.1)
    ba = spectra.completely_isospectral(b, a, 0.1)
    assert ab.matched == ba.matched


def test_isospectral_length_mismatch_reports_not_raises():
    report = spectra.completely_isospectral([1.0, 2.0], [1.0], 0.0)
    assert not report.matched
    assert report.unmatched_a == (2.0,)
    assert spectra.CONTINUOUS_SPECTRUM_NOTE in report.note


def test_dense_subset_examples():
    finite = spectra.ClosedSetSpec.finite([1.0, 2.0])
    assert spectra.dense_subset(finite, 4).tolist() == [1.0, 2.0, 1.0, 2.0]
    interval = spectra.ClosedSetSpec.interval(0.0, 1.0)
    assert spectra.dense_subset(interval, 3).tolist() == [0.0, 1.0, 0.5]
    cantor = spectra.ClosedSetSpec.cantor()
    assert spectra.dense_subset(cantor, 2).tolist() == [0.0, 1.0]


def test_dense_subset_interval_density_grid():
    interval = spectra.ClosedSetSpec.interval(-2.0, 3.0)
    pts = spectra.dense_subset(interval, 10**4)
    grid = np.arange(-2.0, 3.0 + 1e-12, 1e-2)
    dmin = np.abs(grid[:, None] - pts[None, :]).min(axis=1)
    assert dmin.max() < 2e-2


def test_dense_subset_membership():
    union = spectra.ClosedSetSpec.interval_union([(0.0, 1.0), (5.0, 6.0)])
    pts = spectra.dense_subset(union, 200)
    inside = ((pts >= 0) & (pts <= 1)) | ((pts >= 5) & (pts <= 6))
    assert inside.all()
    cantor_pts = spectra.dense_subset(spectra.ClosedSetSpec.cantor(), 50)
    # all emitted points are k/3^g; check exact membership by iterating the
    # ternary self-map (removed middle thirds are open intervals)
    for v in cantor_pts:
        fr = Fraction(round(v * 3**6), 3**6)
        for _ in range(10):
            if fr in (Fraction(0), Fraction(1)):
                break
            if fr <= Fraction(1, 3):
                fr *= 3
            elif fr >= Fraction(2, 3):
                fr = 3 * fr - 2
            else:
                pytest.fail(f"{v} escaped the Cantor construction")


# exact references: the enumerations as streams of rationals, each term
# rounded once by float(Fraction)

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


def _fraction_dense_subset(spec, m):
    if spec.variant == "finite":
        return np.array([spec.points[i % len(spec.points)] for i in range(m)], dtype=float)
    if spec.variant == "cantor":
        stream = _cantor_endpoint_stream()
        return np.array([float(next(stream)) for _ in range(m)])
    streams = [(lo, hi, None if lo == hi else _dyadic_unit_stream()) for lo, hi in spec.intervals]
    out = np.empty(m)
    for i in range(m):
        lo, hi, stream = streams[i % len(streams)]
        out[i] = lo if lo == hi else lo + float(next(stream)) * (hi - lo)
    return out


REFERENCE_SPECS = {
    "finite": spectra.ClosedSetSpec.finite([3.0, -1.5, 2.0, 3.0]),
    "cantor": spectra.ClosedSetSpec.cantor(),
    "interval": spectra.ClosedSetSpec.interval(0.0, 1.0),
    "offset_interval": spectra.ClosedSetSpec.interval(-2.5, 17.25),
    "degenerate": spectra.ClosedSetSpec.interval(7.0, 7.0),
    "negative_zero": spectra.ClosedSetSpec.interval_union([(-0.0, -0.0), (-0.0, 2.0)]),
    "huge": spectra.ClosedSetSpec.interval(-1e300, 1e300),
    "union": spectra.ClosedSetSpec.interval_union([(0.0, 1.0), (7.0, 7.0), (-3.0, 2.5)]),
}


@pytest.mark.parametrize("spec", REFERENCE_SPECS.values(), ids=REFERENCE_SPECS)
def test_dense_subset_matches_fraction_streams(spec):
    # the enumeration is fixed, so every m gives a prefix of the longest
    want = _fraction_dense_subset(spec, 20000)
    for m in (1, 2, 3, 4, 5, 7, 8, 9, 64, 1000, 4097, 20000):
        got = spectra.dense_subset(spec, m)
        assert got.dtype == want.dtype and got.tobytes() == want[:m].tobytes(), m


def test_dense_subset_million_terms_within_budget():
    for spec in (spectra.ClosedSetSpec.interval(0.0, 1.0), spectra.ClosedSetSpec.cantor()):
        start = time.perf_counter()
        pts = spectra.dense_subset(spec, 10**6)
        assert time.perf_counter() - start < 2.0, spec.variant
        assert pts.shape == (10**6,) and ((pts >= 0.0) & (pts <= 1.0)).all()


def test_bad_set_specs():
    with pytest.raises(InputError):
        spectra.ClosedSetSpec.finite([])
    with pytest.raises(InputError):
        spectra.ClosedSetSpec.interval(2.0, 1.0)
    with pytest.raises(InputError, match="bad interval"):
        spectra.ClosedSetSpec.interval(-1e308, 1e308)  # finite ends, infinite width
    with pytest.raises(InputError):
        spectra.dense_subset(spectra.ClosedSetSpec.cantor(), 0)


def test_text_serialization_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    seq = rng.normal(scale=1e3, size=100)
    path = tmp_path / "spec.txt"
    spectra.save_spectrum_text(seq, path)
    back = spectra.load_spectrum_text(path)
    assert np.array_equal(back, seq)


def test_text_load_skips_comments(tmp_path):
    path = tmp_path / "spec.txt"
    path.write_text("# header\n1.5\n\n2.5\n")
    assert spectra.load_spectrum_text(path).tolist() == [1.5, 2.5]


def test_text_load_reports_bad_line(tmp_path):
    path = tmp_path / "spec.txt"
    path.write_text("1.0\nnot-a-number\n")
    with pytest.raises(InputError, match="line 2"):
        spectra.load_spectrum_text(path)


def test_nonfinite_rejected():
    with pytest.raises(InputError):
        spectra.as_spectrum([1.0, np.nan])
    with pytest.raises(InputError):
        spectra.as_spectrum([])


@pytest.mark.parametrize("call, message", [
    (lambda path: spectra.ClosedSetSpec.interval_union([]),
     "interval set spec requires at least one interval"),
    (lambda path: spectra.ClosedSetSpec("fractal"), "unknown closed-set variant 'fractal'"),
    (lambda path: spectra.load_spectrum_text(path), "{path}: no spectrum values found"),
], ids=["no_intervals", "unknown_variant", "no_values"])
def test_malformed_input_raises_its_message(tmp_path, call, message):
    path = tmp_path / "levels.txt"
    path.write_text("# comments only\n\n")
    with pytest.raises(InputError) as info:
        call(path)
    assert str(info.value) == message.format(path=path)
