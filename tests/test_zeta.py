from fractions import Fraction
from math import factorial

import numpy as np
import pytest

from spectralforge import zeta
from spectralforge.errors import CapacityError, InputError

# Odlyzko's table, truncated
FIRST_ZEROS = [14.134725141734, 21.022039638771, 25.010857580145]


def test_zeta_half_real_point():
    # zeta(1/2) = -1.4603545088...
    val = zeta.zeta_half_line(0.0)[0]
    assert val.real == pytest.approx(-1.4603545088095868, abs=1e-10)
    assert abs(val.imag) < 1e-10


def test_hardy_z_is_real_and_vanishes_at_zeros():
    t = np.array(FIRST_ZEROS)
    z = zeta.hardy_z(t)
    assert np.abs(z).max() < 1e-6


def test_compute_first_zero():
    zs = zeta.compute_zeros(1)
    assert zs.values[0] == pytest.approx(14.134725, abs=1e-6)


def test_compute_first_three_zeros():
    zs = zeta.compute_zeros(3)
    assert np.allclose(zs.values, FIRST_ZEROS, atol=1e-6)
    assert zs.source == "computed"


def test_computed_zeros_strictly_increase():
    zs = zeta.compute_zeros(30)
    assert (np.diff(zs.values) > 1e-6).all()


def _fraction_borwein_coefficients(n):
    # the closed form in exact rationals, each ratio rounded once
    d = []
    acc = Fraction(0)
    for j in range(n + 1):
        acc += Fraction(factorial(n + j - 1) * 4**j, factorial(n - j) * factorial(2 * j))
        d.append(n * acc)
    return np.array([float((d[k] - d[n]) / d[n]) for k in range(n)])


@pytest.mark.parametrize("n", [64, 128, 192, 256, 320])
def test_borwein_coefficients_match_rational_formula(n):
    # every n the evaluator requests for up to 100 zeros
    assert np.array_equal(zeta._borwein_coefficients(n), _fraction_borwein_coefficients(n))


def direct_zeta_half_line(t):
    """The direct eta sum exp(-outer(s, log k)) @ w, one complex exp per
    term, that the prime-only kernel replaced."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    n = int(0.9 * float(np.abs(t).max())) + 30
    n = 64 * ((n + 63) // 64)
    k = np.arange(1, n + 1, dtype=float)
    s = 0.5 + 1j * t
    eta = np.exp(-np.outer(s, np.log(k))) @ zeta._eta_terms(n)
    return eta / (1.0 - 2.0 ** (1.0 - s))


@pytest.mark.parametrize("n", [64, 128, 192, 256, 320])
def test_zeta_half_line_matches_direct_sum(n):
    # t up to (n - 30) / 0.9 asks for n terms; each call's largest t sets n
    rng = np.random.default_rng(n)
    top = (n - 30) / 0.9
    t = np.append(rng.uniform(0.0, top, size=200), top - 1e-9)
    got, ref = zeta.zeta_half_line(t), direct_zeta_half_line(t)
    assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))


def test_eta_plan_fills_each_level_from_earlier_rows():
    for n in (64, 320):
        neg_log_p, levels, weights = zeta._eta_plan(n)
        primes = np.rint(np.exp(-neg_log_p)).astype(int)
        assert primes.tolist() == [p for p in range(2, n + 1)
                                   if all(p % q for q in range(2, p))]
        assert len(levels) <= 8 and weights.shape == (n,)
        stop = 1 + primes.size
        for start, end, spf_rows, cofactor_rows in levels:
            assert start == stop and (spf_rows < start).all() and (cofactor_rows < start).all()
            stop = end
        assert stop == n


def test_hardy_z_matches_mpmath_siegelz():
    mpmath = pytest.importorskip("mpmath")
    t = np.random.default_rng(20).uniform(0.0, 250.0, size=20)
    ref = np.array([float(mpmath.siegelz(v)) for v in t])
    assert np.abs(zeta.hardy_z(t) - ref).max() < 1e-11


def test_computed_zeros_match_direct_sum_kernel(monkeypatch):
    zeros = zeta.compute_zeros(100).values
    monkeypatch.setattr(zeta, "zeta_half_line", direct_zeta_half_line)
    assert np.abs(zeros - zeta.compute_zeros(100).values).max() <= 1e-12


def test_compute_zeros_capacity():
    with pytest.raises(CapacityError):
        zeta.compute_zeros(101)
    with pytest.raises(InputError):
        zeta.compute_zeros(0)


def test_parse_zeros(tmp_path):
    path = tmp_path / "zeros.txt"
    path.write_text("14.134725\n21.022040\n25.010858\n")
    zs = zeta.parse_zeros(path)
    assert zs.count == 3
    assert zs.source == "file"


def test_parse_zeros_skips_comments(tmp_path):
    path = tmp_path / "zeros.txt"
    path.write_text("# header\n14.134725\n21.022040\n")
    assert zeta.parse_zeros(path).count == 2


def test_parse_zeros_monotonicity_error(tmp_path):
    path = tmp_path / "zeros.txt"
    path.write_text("21.0\n14.1\n")
    with pytest.raises(InputError, match="line 2"):
        zeta.parse_zeros(path)


def test_parse_zeros_bad_value_error(tmp_path):
    path = tmp_path / "zeros.txt"
    path.write_text("14.1\nbogus\n")
    with pytest.raises(InputError, match="line 2"):
        zeta.parse_zeros(path)


def test_parse_zeros_nonpositive_error(tmp_path):
    path = tmp_path / "zeros.txt"
    path.write_text("-3.0\n")
    with pytest.raises(InputError, match="line 1"):
        zeta.parse_zeros(path)


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_parse_zeros_non_finite_error(tmp_path, value):
    path = tmp_path / "zeros.txt"
    path.write_text(f"14.1\n{value}\n")
    with pytest.raises(InputError, match=f"non-finite zero {value} at line 2$"):
        zeta.parse_zeros(path)


def test_parse_matches_computed(tmp_path):
    computed = zeta.compute_zeros(3)
    path = tmp_path / "zeros.txt"
    path.write_text("\n".join(f"{v:.8f}" for v in computed.values) + "\n")
    parsed = zeta.parse_zeros(path)
    assert np.allclose(parsed.values, computed.values, atol=1e-7)


def test_bisection_collapses_bracket_on_exact_zero(monkeypatch):
    # f vanishes exactly at the first midpoint of [0, 1] and changes sign
    # inside [2, 3]
    monkeypatch.setattr(zeta, "hardy_z", lambda t: (t - 0.5) * (t - 2.3))
    roots = zeta._bisect_brackets(
        np.array([0.0, 2.0]), np.array([1.0, 3.0]), np.array([False, True])
    )
    assert roots[0] == 0.5
    assert roots[1] == pytest.approx(2.3, abs=zeta.BISECTION_TOL)


def test_computed_zeros_match_mpmath_oracle():
    mpmath = pytest.importorskip("mpmath")
    zs = zeta.compute_zeros(100)
    for k in (1, 2, 37, 99, 100):
        assert abs(zs.values[k - 1] - float(mpmath.zetazero(k).imag)) < 1e-7


@pytest.mark.parametrize("call, message", [
    (lambda path: zeta.ZetaZeroSet(values=np.array([]), source="file"),
     "zero set must be non-empty"),
    (lambda path: zeta.ZetaZeroSet(values=np.array([0.0, 1.0]), source="file"),
     "zeros must be positive"),
    (lambda path: zeta.ZetaZeroSet(values=np.array([2.0, 1.0]), source="file"),
     "zeros must be strictly increasing"),
    (lambda path: zeta.ZetaZeroSet(values=np.array([14.1, np.nan, 30.0]), source="file"),
     "zeros must be finite"),
    (lambda path: zeta.ZetaZeroSet(values=np.array([14.1, 21.0, np.inf]), source="file"),
     "zeros must be finite"),
    (lambda path: zeta.ZetaZeroSet(values=np.array([-np.inf, 14.1]), source="file"),
     "zeros must be finite"),
    (lambda path: zeta.parse_zeros(path), "{path}: no zeros found"),
], ids=["empty", "non_positive", "not_increasing", "nan", "inf", "minus_inf",
        "file_without_zeros"])
def test_malformed_input_raises_its_message(tmp_path, call, message):
    path = tmp_path / "zeros.txt"
    path.write_text("# comments only\n")
    with pytest.raises(InputError) as info:
        call(path)
    assert str(info.value) == message.format(path=path)
