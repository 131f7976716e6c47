import io

import numpy as np
import pytest
from scipy.interpolate import CubicSpline, RectBivariateSpline

from spectralforge import pairing
from spectralforge.classical import (
    FLOW_DOMAIN_TOL,
    MAX_FLOW_STEPS,
    ActionTable,
    _not_a_knot,
    actions_of,
    integrate_flow,
)
from spectralforge.errors import CapacityError, InputError


def quadratic_two_mode_table(K=6):
    d = pairing.encode((K - 1, K - 1)) + 1
    idx = pairing.enumerate_first(d, 2)
    energies = (
        5.0
        + 1.0 * idx[:, 0]
        + 1.3 * idx[:, 1]
        + 0.08 * idx[:, 0] ** 2
        + 0.05 * idx[:, 1] ** 2
        + 0.04 * idx[:, 0] * idx[:, 1]
    )
    return ActionTable.build(energies, 2, K)


def test_value_examples():
    identity = ActionTable.build(np.arange(8.0), 1, 8)
    assert identity.value_at_actions(actions_of([1.0], [0.0])) == pytest.approx(0.0, abs=1e-12)
    odd = ActionTable.build(2 * np.arange(8.0) + 1, 1, 8)
    assert odd.value_at_actions(actions_of([np.sqrt(3.0)], [0.0])) == pytest.approx(3.0, abs=1e-10)


def test_value_two_mode_graded_lex_lookup():
    K = 5
    d = pairing.encode((K - 1, K - 1)) + 1
    energies = 5.0 + 2.0 * np.arange(d)  # E = (5, 7, 9, ...) by rank
    table = ActionTable.build(energies, 2, K)
    # actions (0, 1) sit at graded-lex rank 1, so the value is 7
    x = [1.0, np.sqrt(3.0)]
    p = [0.0, 0.0]
    assert table.value_at_actions(actions_of(x, p)) == pytest.approx(7.0, abs=1e-10)


def test_interpolant_exact_at_nodes():
    table = quadratic_two_mode_table()
    for j1 in range(table.K):
        for j2 in range(table.K):
            got = table.value_at_actions([j1, j2])
            assert got == pytest.approx(table.values[j1, j2], abs=1e-12)


def sample_actions(rng, n, K, count=100):
    """Seeded points in [0, K-1]^n, the first few on nodes and domain corners."""
    nodes = np.array([[0.0] * n, [K - 1.0] * n, [1.0] * n, [2.0, K - 1.0][:n]])
    return np.vstack([nodes, rng.uniform(0.0, K - 1.0, size=(count - len(nodes), n))])


def assert_close(got, ref):
    scale = np.abs(ref).max()
    assert np.abs(np.asarray(got) - ref).max() <= 1e-12 * scale


def test_one_mode_table_is_the_cubic_spline():
    rng = np.random.default_rng(11)
    K = 9
    energies = np.sort(rng.uniform(0.0, 20.0, size=K))
    table = ActionTable.build(energies, 1, K)
    ref = CubicSpline(np.arange(K, dtype=float), energies)
    J = sample_actions(rng, 1, K)[:, 0]
    assert_close([table.value_at_actions([j]) for j in J], ref(J))
    assert_close([table.gradient_at_actions([j])[0] for j in J], ref(J, 1))


def test_two_mode_table_is_the_bicubic_spline():
    rng = np.random.default_rng(12)
    K = 7
    d = pairing.encode((K - 1, K - 1)) + 1
    energies = np.sort(rng.uniform(0.0, 30.0, size=d))
    table = ActionTable.build(energies, 2, K)
    nodes = np.arange(K, dtype=float)
    ref = RectBivariateSpline(nodes, nodes, table.values, kx=3, ky=3, s=0)
    J = sample_actions(rng, 2, K)
    assert_close([table.value_at_actions(j) for j in J], ref(J[:, 0], J[:, 1], grid=False))
    grads = np.array([table.gradient_at_actions(j) for j in J])
    assert_close(grads[:, 0], ref(J[:, 0], J[:, 1], dx=1, grid=False))
    assert_close(grads[:, 1], ref(J[:, 0], J[:, 1], dy=1, grid=False))


@pytest.mark.parametrize("K", [4, 5, 9, 33])
def test_not_a_knot_is_scipys_cubic_spline(K):
    rng = np.random.default_rng(K)
    for shape in ((K,), (K, 3), (K, 4, K - 1)):
        y = rng.normal(size=shape)
        ref = CubicSpline(np.arange(K, dtype=float), y).c
        got = _not_a_knot(y)
        assert got.shape == ref.shape == (4, K - 1) + shape[1:]
        assert np.abs(got - ref).max() <= 1e-15 * np.abs(ref).max()


@pytest.mark.parametrize("n, K", [(1, 9), (2, 7)])
def test_table_coeffs_are_the_per_axis_cubic_spline(n, K):
    rng = np.random.default_rng(14)
    d = pairing.encode((K - 1,) * n) + 1
    table = ActionTable.build(np.sort(rng.uniform(0.0, 30.0, size=d)), n, K)
    ref = table.values
    for _ in range(n):
        ref = np.moveaxis(CubicSpline(np.arange(K, dtype=float), ref).c, (0, 1), (-2, -1))
    ref = ref.transpose(tuple(range(1, 2 * n, 2)) + tuple(range(0, 2 * n, 2)))
    assert table.coeffs.shape == ref.shape
    assert np.abs(table.coeffs - ref).max() <= 1e-15 * np.abs(ref).max()


@pytest.mark.parametrize("n, K", [(1, 9), (2, 7)])
def test_flow_evaluator_equals_gradient_at_actions(n, K):
    # the flow's float evaluator runs the same Horner arithmetic, so the
    # frequencies must agree exactly, clipped actions included
    rng = np.random.default_rng(13)
    d = pairing.encode((K - 1,) * n) + 1
    table = ActionTable.build(np.sort(rng.uniform(0.0, 30.0, size=d)), n, K)
    frequencies = table._float_frequencies()
    radius = np.sqrt(K)  # actions up to K - 1/2, past the last node
    for x, p in rng.uniform(0.0, radius, size=(200, 2, n)):
        J = np.clip(0.5 * (x**2 + p**2 - 1.0), 0.0, K - 1.0)
        got = frequencies(*np.column_stack([x, p]).ravel().tolist())
        assert np.array_equal(got, table.gradient_at_actions(J))


def list_of_pairs_flow(table, x0, p0, T, dt=None):
    """The RK4 loop on a state of n (x_i, p_i) pairs that ``integrate_flow``
    replaced with unrolled loops on flat floats; returns xs, ps, energies
    and the truncation flag."""
    if dt is None:
        dt = 1e-2 / table.characteristic_frequency()
    flat = table._float_frequencies()

    def frequencies(modes):
        return flat(*[v for pair in modes for v in pair])

    lo, hi = 0.0, float(table.K - 1)

    def in_domain(modes):
        return all(
            lo - FLOW_DOMAIN_TOL <= 0.5 * (x * x + p * p - 1.0) <= hi + FLOW_DOMAIN_TOL
            for x, p in modes
        )

    def rhs(modes):
        return [(w * p, -w * x) for w, (x, p) in zip(frequencies(modes), modes)]

    def shifted(modes, h, k):
        return [(x + h * kx, p + h * kp) for (x, p), (kx, kp) in zip(modes, k)]

    modes = list(zip(np.atleast_1d(x0).tolist(), np.atleast_1d(p0).tolist()))
    half, sixth = 0.5 * dt, dt / 6.0
    path = list(modes)
    truncated = False
    for _ in range(int(round(T / dt))):
        k1 = rhs(modes)
        k2 = rhs(shifted(modes, half, k1))
        k3 = rhs(shifted(modes, half, k2))
        k4 = rhs(shifted(modes, dt, k3))
        new = [
            (
                x + sixth * (a1 + 2 * a2 + 2 * a3 + a4),
                p + sixth * (b1 + 2 * b2 + 2 * b3 + b4),
            )
            for (x, p), (a1, b1), (a2, b2), (a3, b3), (a4, b4) in zip(
                modes, k1, k2, k3, k4
            )
        ]
        if not in_domain(new):
            truncated = True
            break
        modes = new
        path += modes
    phase = np.array(path).reshape(-1, table.n, 2)
    xs, ps = phase[:, :, 0], phase[:, :, 1]
    actions = 0.5 * (xs**2 + ps**2 - 1.0)
    energies = table._evaluate(np.clip(actions, lo, hi), (0,) * table.n)
    return xs, ps, energies, truncated


@pytest.mark.parametrize(
    "n, K, J0, T, dt, truncates",
    [
        (1, 9, [2.3], 30.0, 0.01, False),
        (2, 7, [1.2, 3.4], 30.0, 0.01, False),
        (1, 9, [0.3], 20.0, 0.3, True),  # the orbit shrinks below J = 0
        (2, 7, [5.9, 0.5], 20.0, 0.3, True),
        (1, 9, [2.3], 10.0, None, False),
        (2, 7, [1.2, 3.4], 10.0, None, False),
    ],
    ids=["one_mode", "two_modes", "one_mode_truncates", "two_modes_truncates",
         "one_mode_default_dt", "two_modes_default_dt"],
)
def test_flow_is_bit_identical_to_list_of_pairs_oracle(n, K, J0, T, dt, truncates):
    rng = np.random.default_rng(14)
    d = pairing.encode((K - 1,) * n) + 1
    table = ActionTable.build(np.sort(rng.uniform(0.0, 30.0, size=d)), n, K)
    x0 = np.sqrt(2 * np.array(J0) + 1) * np.cos(0.3)
    p0 = np.sqrt(2 * np.array(J0) + 1) * np.sin(0.3)
    report = integrate_flow(table, x0, p0, T=T, dt=dt)
    xs, ps, energies, truncated = list_of_pairs_flow(table, x0, p0, T, dt)
    assert report.truncated == truncated == truncates
    assert report.times.size > 10
    assert np.array_equal(report.xs, xs)
    assert np.array_equal(report.ps, ps)
    assert np.array_equal(report.energies, energies)


@pytest.mark.parametrize("T, dt", [(1.0, float("nan")), (float("nan"), 0.01),
                                   (float("inf"), 0.01), (1.0, float("-inf"))])
def test_non_finite_time_or_step_rejected(T, dt):
    table = ActionTable.build(np.arange(8.0), 1, 8)
    with pytest.raises(InputError, match="finite"):
        integrate_flow(table, [1.0], [0.0], T=T, dt=dt)


def test_step_count_capped_before_the_loop(monkeypatch):
    table = ActionTable.build(np.arange(8.0), 1, 8)

    def no_loop(self):
        raise AssertionError("the flow started")

    monkeypatch.setattr(ActionTable, "_float_frequencies", no_loop)
    with pytest.raises(CapacityError, match="cap"):
        integrate_flow(table, [1.0], [0.0], T=1.0, dt=1e-300)
    with pytest.raises(CapacityError):
        integrate_flow(table, [1.0], [0.0], T=MAX_FLOW_STEPS + 1.0, dt=1.0)


def test_out_of_domain_rejected():
    table = ActionTable.build(np.arange(8.0), 1, 8)
    with pytest.raises(InputError):
        table.value_at_actions([7.5])
    with pytest.raises(InputError):
        table.value_at_actions(actions_of([10.0], [10.0]))


def test_harmonic_flow_exact_circle():
    identity = ActionTable.build(np.arange(8.0), 1, 8)
    report = integrate_flow(identity, [1.0], [0.0], T=100.0, dt=0.01)
    assert report.max_action_drift < 1e-8
    assert not report.truncated


def test_two_mode_flow_conserves_actions():
    table = quadratic_two_mode_table()
    x0 = [np.sqrt(2 * 1.2 + 1), 0.0]
    p0 = [0.0, np.sqrt(2 * 2.1 + 1)]
    report = integrate_flow(table, x0, p0, T=100.0, dt=0.01)
    assert report.max_action_drift < 1e-6
    assert report.max_energy_drift < 1e-6
    assert not report.truncated
    # orbit stays on its torus: radius bounded by initial actions + drift
    radius = np.sqrt(report.xs**2 + report.ps**2)
    initial = np.sqrt(2 * report.actions[0] + 1)
    assert (radius <= initial + 1e-3).all()


def test_step_halving_reduces_drift():
    table = quadratic_two_mode_table()
    x0 = [np.sqrt(2 * 1.2 + 1), 0.0]
    p0 = [0.0, np.sqrt(2 * 2.1 + 1)]
    d1 = integrate_flow(table, x0, p0, T=100.0, dt=0.01).max_action_drift
    d2 = integrate_flow(table, x0, p0, T=100.0, dt=0.005).max_action_drift
    assert d1 / d2 >= 12.0


def exact_rotation_error(dt):
    """Largest distance of the RK4 orbit from the exact flow of the quadratic table.

    The spline reproduces E(J) = 5 + J1 + 1.3 J2 + 0.08 J1^2 + 0.05 J2^2
    + 0.04 J1 J2 exactly, so each (x_i, p_i) plane rotates clockwise at the
    constant frequency w_i = dE/dJ_i(J0).
    """
    J0 = np.array([1.2, 2.1])
    w = np.array([1.0 + 0.16 * J0[0] + 0.04 * J0[1], 1.3 + 0.1 * J0[1] + 0.04 * J0[0]])
    x0 = np.array([np.sqrt(2 * J0[0] + 1), 0.0])
    p0 = np.array([0.0, np.sqrt(2 * J0[1] + 1)])
    report = integrate_flow(quadratic_two_mode_table(), x0, p0, T=100.0, dt=dt)
    assert not report.truncated
    phase = np.outer(report.times, w)
    xs = x0 * np.cos(phase) + p0 * np.sin(phase)
    ps = p0 * np.cos(phase) - x0 * np.sin(phase)
    return max(np.abs(report.xs - xs).max(), np.abs(report.ps - ps).max())


def test_two_mode_flow_matches_exact_rotation():
    coarse = exact_rotation_error(0.01)
    fine = exact_rotation_error(0.005)
    assert coarse < 1e-6
    assert coarse / fine >= 12.0


def test_default_step_from_table_frequency():
    table = ActionTable.build(10.0 * np.arange(8.0), 1, 8)
    report = integrate_flow(table, [1.0], [0.0], T=1.0)
    assert report.times[1] == pytest.approx(1e-2 / 10.0, rel=1e-6)


def test_domain_exit_truncates_with_flag():
    # the exact flow conserves actions, so force an exit with a step so coarse
    # the one-step map amplifies the orbit radius past the last node
    table = ActionTable.build(np.arange(6.0) ** 2, 1, 6)
    report = integrate_flow(table, [np.sqrt(2 * 4.9 + 1)], [0.0], T=10.0, dt=0.5)
    assert report.truncated
    assert report.times[-1] < 10.0


def test_trajectory_csv_shape():
    table = quadratic_two_mode_table()
    report = integrate_flow(table, [1.0, 1.0], [0.0, 0.0], T=1.0, dt=0.01)
    csv = report.trajectory_csv()
    lines = csv.strip().splitlines()
    assert lines[0] == "t,x1,x2,p1,p2,J1,J2,energy"
    assert len(lines) == report.times.size + 1
    # every float printed with 17 significant digits, so it reads back exactly
    out = io.StringIO()
    columns = (report.times, report.xs, report.ps, report.actions, report.energies)
    np.savetxt(out, np.column_stack(columns), fmt="%.17g", delimiter=",",
               header=lines[0], comments="")
    assert csv == out.getvalue()


def test_build_validation():
    with pytest.raises(InputError):
        ActionTable.build(np.arange(10.0), 3, 4)
    with pytest.raises(InputError):
        ActionTable.build(np.arange(3.0), 1, 3)
    with pytest.raises(InputError):
        ActionTable.build(np.arange(5.0), 2, 4)  # too few energies for 4x4 grid


@pytest.mark.parametrize("method", ["value_at_actions", "gradient_at_actions"])
@pytest.mark.parametrize("J, message", [
    ([10.0, 0.0], "outside the table domain"),
    ([np.nan, 1.0], "outside the table domain"),
    ([1.0, -0.5], "outside the table domain"),
    ([1.0], "expected 2 actions"),
    ([1.0, 2.0, 3.0], "expected 2 actions"),
], ids=["past-last-node", "nan", "negative", "too-few", "too-many"])
def test_evaluation_refuses_actions_off_the_table(method, J, message):
    table = quadratic_two_mode_table(K=5)
    with pytest.raises(InputError, match=message):
        getattr(table, method)(J)


@pytest.mark.parametrize("n", [1, 2])
def test_build_refuses_a_spline_that_overflows(n):
    wide = np.geomspace(1e300, 1e308, 30)
    levels = np.sort(np.concatenate([-wide, wide]))
    with np.errstate(all="raise"):  # a numpy warning would escape as an error here
        with pytest.raises(InputError, match="overflows"):
            ActionTable.build(levels, n, 4)


@pytest.mark.parametrize("x0, p0, T, dt, message", [
    (1.0, 0.0, 1.0, -0.1, "require dt > 0 and T >= dt"),
    (1.0, 0.0, 0.01, 0.1, "require dt > 0 and T >= dt"),
    ([1.0, 1.0], 0.0, 1.0, 0.1, "phase point must have 1 positions and momenta"),
    (0.0, 0.0, 1.0, 0.1, "initial actions outside the interpolant domain"),
    (10.0, 0.0, 1.0, 0.1, "initial actions outside the interpolant domain"),
], ids=["negative_step", "time_below_step", "phase_point_size", "action_below", "action_above"])
def test_malformed_flow_input_raises_its_message(x0, p0, T, dt, message):
    table = ActionTable.build(np.arange(8.0), 1, 8)
    with pytest.raises(InputError) as info:
        integrate_flow(table, x0, p0, T, dt)
    assert str(info.value) == message
