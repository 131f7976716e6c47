import numpy as np
import pytest

from spectralforge import spectra
from spectralforge.errors import InputError


def test_isospectral_examples():
    assert spectra.completely_isospectral([1, 2, 2], [2, 1, 2], 0.0).matched
    assert not spectra.completely_isospectral([1, 2], [1, 3], 0.5).matched
    assert spectra.completely_isospectral([0, 1], [1e-12, 1], 1e-9).matched


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
    from fractions import Fraction

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


def test_bad_set_specs():
    with pytest.raises(InputError):
        spectra.ClosedSetSpec.finite([])
    with pytest.raises(InputError):
        spectra.ClosedSetSpec.interval(2.0, 1.0)
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
