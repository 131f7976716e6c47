"""Acceptance gate: one criterion per test, one pass/fail line each.

The lines are printed inline (visible with ``-s``) and repeated in the
terminal summary by the conftest hook, so they survive output capture.
"""

import json
import time
from contextlib import contextmanager

import numpy as np

from spectralforge import classical, cli, levelstats, pairing, schrodinger, zeta
from spectralforge.fockspace import TruncationBasis, number_operator, synthesize
from spectralforge.intertwiner import certify

CRITERION_LINES: list[str] = []


@contextmanager
def criterion(number: int, name: str, limit: float | None):
    start = time.perf_counter()
    ok = False
    try:
        yield
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        in_time = limit is None or elapsed < limit
        status = "PASS" if ok and in_time else "FAIL"
        budget = "no limit" if limit is None else f"limit {limit:g}s"
        line = f"acceptance {number} [{name}]: {status} ({elapsed:.2f}s, {budget})"
        CRITERION_LINES.append(line)
        print(line)
    assert limit is None or elapsed < limit, (
        f"criterion {number} took {elapsed:.2f}s, over the {limit:g}s budget"
    )


def test_criterion_1_bijection_suite():
    with criterion(1, "bijection suite", 5.0):
        for n in range(1, 5):
            idx = pairing.enumerate_first(10**6, n)
            ranks = pairing.encode_many(idx)
            assert np.array_equal(ranks, np.arange(10**6))
            # scalar path agrees with the bulk enumeration
            for k in np.random.default_rng(n).integers(0, 10**6, 50):
                assert pairing.encode(pairing.decode(int(k), n)) == int(k)
            degrees = idx[: 10**5].sum(axis=1)
            assert (np.diff(degrees) >= 0).all()


def test_criterion_2_exact_realization():
    with criterion(2, "exact realization", 30.0):
        rng = np.random.default_rng(20)
        cases = [(d, n) for d in (10, 100, 500) for n in (1, 2, 3)]
        for trial in range(100):
            d, n = cases[trial % len(cases)]
            seq = rng.normal(scale=5.0, size=d)
            basis = TruncationBasis.build(n, d)
            A = synthesize(seq, basis)
            assert np.array_equal(np.sort(np.diag(A).real), np.sort(seq))
            for i in range(1, n + 1):
                Ni = number_operator(basis, i)
                assert np.abs(A @ Ni - Ni @ A).max() == 0.0


def test_criterion_3_intertwiner_suite():
    with criterion(3, "intertwiner suite", 120.0):
        rng = np.random.default_rng(30)
        degenerate = 0
        for trial in range(50):
            d = int(rng.integers(10, 201))
            n = int(rng.integers(1, 4))
            if trial % 4 == 0:
                half = rng.normal(size=(d + 1) // 2)
                seq = np.repeat(half, 2)[:d]
                degenerate += 1
            else:
                seq = rng.normal(size=d)
            basis = TruncationBasis.build(n, d)
            A = synthesize(seq, basis)
            G = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            Q, _ = np.linalg.qr(G)
            H = Q @ A @ Q.conj().T
            H = 0.5 * (H + H.conj().T)
            cert = certify(H, seq, n)
            h_norm = np.linalg.norm(H, "fro")
            assert cert.unitarity_defect <= 1e-9 * d
            assert cert.intertwining_residual <= 1e-8 * max(1.0, h_norm)
            assert cert.independence
            assert cert.passed
        assert degenerate >= 10


def test_criterion_4_poisson_statistics():
    with criterion(4, "uniform-spectrum spacing statistics", 60.0):
        uniform = levelstats.ensemble_experiment(200, 1000, seed=40)
        assert uniform["pass_rate"] >= 0.95
        control = levelstats.ensemble_experiment(
            200, 1000, seed=40, levels="arithmetic"
        )
        assert control["pass_rate"] <= 0.05
        assert abs(control["mean_ks"] - np.exp(-1)) < 1e-3


def test_criterion_5_zeta_contrast():
    with criterion(5, "critical-line zero statistics", 60.0):
        zeros = zeta.compute_zeros(100)
        assert abs(zeros.values[0] - 14.134725) < 1e-6
        sample = levelstats.unfold(zeros.values, degree=3)
        d_gue = levelstats.ks_distance(sample.spacings, levelstats.wigner_gue_cdf)
        d_poisson = levelstats.ks_distance(sample.spacings, levelstats.poisson_cdf)
        assert d_gue < d_poisson


def test_criterion_6_schrodinger_pipeline():
    with criterion(6, "finite-difference pipeline", 180.0):
        errors = []
        for M in (200, 400, 800):
            grid = schrodinger.GridSpec(1, 10.0, M)
            H = schrodinger.assemble_sparse(grid, schrodinger.potential("harmonic", grid))
            w = schrodinger.low_spectrum(H, 4)
            errors.append(np.abs(w - np.array([1.0, 3.0, 5.0, 7.0])))
        assert errors[-1].max() < 1e-2
        assert (errors[0][:3] / errors[1][:3] >= 3.5).all()
        assert (errors[1][:3] / errors[2][:3] >= 3.5).all()

        g64, g96 = schrodinger.GridSpec(2, 8.0, 64), schrodinger.GridSpec(2, 8.0, 96)
        quartic = schrodinger.potential("x2y2", g64)
        w64 = schrodinger.low_spectrum(schrodinger.assemble_sparse(g64, quartic), 1)
        w96 = schrodinger.low_spectrum(
            schrodinger.assemble_sparse(g96, schrodinger.potential("x2y2", g96)), 1
        )
        assert abs(w64[0] - w96[0]) / w96[0] < 0.05

        g400 = schrodinger.GridSpec(1, 10.0, 400)
        cert_1d = schrodinger.pipeline_integrate(
            g400, schrodinger.potential("harmonic", g400), 1, 20
        )
        cert_2d = schrodinger.pipeline_integrate(g64, quartic, 2, 30)
        assert cert_1d.passed
        assert cert_2d.passed


def test_criterion_7_classical_witness():
    with criterion(7, "action-variable flow", 60.0):
        one_mode = classical.ActionTable.build(
            1.0 + np.arange(8.0) + 0.1 * np.arange(8.0) ** 2, 1, 8
        )
        flow_1 = classical.integrate_flow(
            one_mode, [np.sqrt(2 * 1.2 + 1)], [0.0], T=100.0, dt=0.01
        )
        assert flow_1.max_action_drift < 1e-6
        assert not flow_1.truncated

        K = 6
        d = pairing.encode((K - 1, K - 1)) + 1
        idx = pairing.enumerate_first(d, 2)
        energies = (
            5.0
            + idx[:, 0]
            + 1.3 * idx[:, 1]
            + 0.08 * idx[:, 0] ** 2
            + 0.05 * idx[:, 1] ** 2
            + 0.04 * idx[:, 0] * idx[:, 1]
        )
        two_mode = classical.ActionTable.build(energies, 2, K)
        x0 = [np.sqrt(2 * 1.2 + 1), 0.0]
        p0 = [0.0, np.sqrt(2 * 2.1 + 1)]
        flow_2 = classical.integrate_flow(two_mode, x0, p0, T=100.0, dt=0.01)
        assert flow_2.max_action_drift < 1e-6
        assert not flow_2.truncated
        halved = classical.integrate_flow(two_mode, x0, p0, T=100.0, dt=0.005)
        assert flow_2.max_action_drift / halved.max_action_drift >= 12.0


def test_criterion_8_cli_determinism(tmp_path, capsys):
    spectrum = tmp_path / "levels.txt"
    raw = np.sort(np.random.default_rng(8).uniform(0.0, 1.0, 200))
    spectrum.write_text("\n".join(f"{v:.17g}" for v in raw) + "\n")
    matrix = tmp_path / "op.json"
    assert (
        cli.run(
            [
                "synthesize",
                "--set",
                "finite:0,1,2",
                "--count",
                "16",
                "--out",
                str(matrix),
                "--no-timestamp",
            ]
        )
        == 0
    )
    zeros = tmp_path / "zeros.txt"
    zeros.write_text(
        "\n".join(f"{v:.10f}" for v in zeta.compute_zeros(15).values) + "\n"
    )
    capsys.readouterr()

    commands = [
        ["synthesize", "--set", "finite:0,1,2", "--count", "16", "--no-timestamp"],
        ["verify", "--matrix", str(matrix), "--no-timestamp"],
        ["stats", "--spectrum", str(spectrum), "--model", "poisson", "--no-timestamp"],
        ["zeta", "--zeros", str(zeros), "--no-timestamp"],
        [
            "schrodinger",
            "--dimension",
            "1",
            "--points",
            "64",
            "--levels",
            "5",
            "--no-timestamp",
        ],
        [
            "classical",
            "--spectrum",
            str(spectrum),
            "--nodes",
            "8",
            "--time",
            "1",
            "--dt",
            "0.01",
            "--no-timestamp",
        ],
    ]
    with criterion(8, "deterministic reports", None):
        for argv in commands:
            cli.run(argv)
            first = capsys.readouterr().out
            cli.run(argv)
            second = capsys.readouterr().out
            assert first, f"no report emitted for {argv[0]}"
            assert first == second, f"report for {argv[0]} is not reproducible"
            json.loads(first)
