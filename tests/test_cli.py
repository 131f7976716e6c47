import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spectralforge import cli, schrodinger, zeta


def run_report(argv, capsys):
    """Run the CLI in-process and parse the JSON report from stdout."""
    code = cli.run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


@pytest.fixture(scope="module")
def zeros_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("zeros") / "zeros.txt"
    values = zeta.compute_zeros(40).values
    path.write_text("\n".join(f"{v:.10f}" for v in values) + "\n")
    return str(path)


def test_synthesize_finite_set_report(capsys):
    code, report = run_report(
        ["synthesize", "--set", "finite:0,1,2", "--count", "12", "--no-timestamp"],
        capsys,
    )
    assert code == 0
    assert report["schema_version"] == 1
    assert report["subcommand"] == "synthesize"
    assert report["dim"] == 12
    assert report["exact_isospectrality"]["matched"] is True
    assert report["config"]["set"] == "finite:0,1,2"
    assert "generated_at" not in report


def test_timestamp_present_by_default(capsys):
    code, report = run_report(
        ["synthesize", "--set", "finite:0,1", "--count", "4"], capsys
    )
    assert code == 0
    assert "generated_at" in report


def test_reports_byte_identical(capsys):
    argv = ["synthesize", "--set", "interval:0:1", "--count", "32", "--no-timestamp"]
    assert cli.run(argv) == 0
    first = capsys.readouterr().out
    assert cli.run(argv) == 0
    second = capsys.readouterr().out
    assert first == second


def test_synthesize_then_verify_roundtrip(tmp_path, capsys):
    matrix = tmp_path / "op.json"
    code = cli.run(
        [
            "synthesize",
            "--set",
            "cantor",
            "--count",
            "20",
            "--modes",
            "2",
            "--out",
            str(matrix),
            "--report",
            str(tmp_path / "syn.json"),
        ]
    )
    assert code == 0
    code, report = run_report(
        ["verify", "--matrix", str(matrix), "--modes", "2", "--no-timestamp"], capsys
    )
    assert code == 0
    cert = report["certificate"]
    assert cert["passed"] is True
    assert cert["independence"] is True
    assert cert["max_pairwise_commutator"] < 1e-10


def test_stats_pass_and_histogram(tmp_path, capsys):
    spectrum = tmp_path / "levels.txt"
    raw = np.sort(np.random.default_rng(3).uniform(0.0, 1.0, 500))
    spectrum.write_text("\n".join(f"{v:.17g}" for v in raw) + "\n")
    hist = tmp_path / "hist.csv"
    code, report = run_report(
        [
            "stats",
            "--spectrum",
            str(spectrum),
            "--model",
            "poisson",
            "--histogram",
            str(hist),
            "--no-timestamp",
        ],
        capsys,
    )
    assert code == 0
    assert report["spacing_test"]["passed"] is True
    lines = hist.read_text().strip().splitlines()
    assert lines[0] == "bin_left,bin_right,count"
    assert len(lines) > 1


def test_stats_rigid_spectrum_fails_with_exit_1(tmp_path, capsys):
    spectrum = tmp_path / "rigid.txt"
    spectrum.write_text("\n".join(str(float(i)) for i in range(400)) + "\n")
    code, report = run_report(
        [
            "stats",
            "--spectrum",
            str(spectrum),
            "--model",
            "poisson",
            "--no-timestamp",
        ],
        capsys,
    )
    assert code == 1
    assert report["spacing_test"]["passed"] is False


def test_config_file_precedence(tmp_path, capsys):
    spectrum = tmp_path / "levels.txt"
    raw = np.sort(np.random.default_rng(4).uniform(0.0, 1.0, 300))
    spectrum.write_text("\n".join(f"{v:.17g}" for v in raw) + "\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"spectrum": str(spectrum), "model": "gue", "degree": 2}))
    # config file fills in spectrum/degree, the flag overrides the model
    code, report = run_report(
        ["stats", "--config", str(cfg), "--model", "poisson", "--no-timestamp"],
        capsys,
    )
    assert code == 0
    assert report["config"]["model"] == "poisson"
    assert report["config"]["degree"] == 2
    assert report["config"]["spectrum"] == str(spectrum)


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "poisson", "bogus_key": 1}))
    code = cli.run(["stats", "--config", str(cfg)])
    assert code == 2
    assert "bogus_key" in capsys.readouterr().err


def test_missing_spectrum_file_exit_2(capsys):
    assert cli.run(["stats", "--spectrum", "/nonexistent/levels.txt"]) == 2
    assert "error: input" in capsys.readouterr().err


def test_bad_set_spec_exit_2(capsys):
    assert cli.run(["synthesize", "--set", "fractal:weird", "--count", "8"]) == 2
    capsys.readouterr()


def test_schrodinger_capacity_exit_3(capsys):
    code = cli.run(
        ["schrodinger", "--dimension", "2", "--points", "96", "--potential", "x2y2"]
    )
    assert code == 3
    assert "capacity" in capsys.readouterr().err


def test_schrodinger_cap_override_and_out(tmp_path, capsys):
    out = tmp_path / "levels.txt"
    code, report = run_report(
        [
            "schrodinger",
            "--dimension",
            "2",
            "--points",
            "96",
            "--potential",
            "x2y2",
            "--cap",
            "10000",
            "--levels",
            "3",
            "--out",
            str(out),
            "--no-timestamp",
        ],
        capsys,
    )
    assert code == 0
    assert len(report["levels"]) == 3
    saved = [float(v) for v in out.read_text().split()]
    assert np.allclose(saved, report["levels"])


def test_schrodinger_pipeline_certificate(capsys):
    code, report = run_report(
        [
            "schrodinger",
            "--dimension",
            "1",
            "--points",
            "300",
            "--levels",
            "12",
            "--pipeline",
            "--no-timestamp",
        ],
        capsys,
    )
    assert code == 0
    assert report["certificate"]["passed"] is True


def test_schrodinger_pipeline_solves_spectrum_once(capsys, monkeypatch):
    calls = []
    solve = schrodinger.low_spectrum

    def counted(H, m):
        calls.append(m)
        return solve(H, m)

    monkeypatch.setattr(schrodinger, "low_spectrum", counted)
    argv = ["schrodinger", "--points", "200", "--levels", "10", "--pipeline",
            "--modes", "2", "--no-timestamp"]
    code, report = run_report(argv, capsys)
    assert code == 0
    assert report["certificate"]["passed"] is True
    assert calls == [10]


@pytest.mark.parametrize("module", ["spectralforge", "spectralforge.cli"])
def test_python_m_help(module):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", module, "--help"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0
    assert "spectral-forge" in proc.stdout


def test_zeta_comparative_report(zeros_file, capsys):
    code, report = run_report(
        ["zeta", "--zeros", zeros_file, "--no-timestamp"], capsys
    )
    assert code == 0
    assert report["zero_count"] == 40
    assert report["source"] == "file"
    assert report["first_zero"] == pytest.approx(14.134725, abs=1e-5)
    assert set(report["spacing_tests"]) == {"poisson", "gue"}
    assert isinstance(report["gue_fits_better"], bool)


def test_zeta_synthesize_out(zeros_file, tmp_path, capsys):
    matrix = tmp_path / "zeros_op.json"
    code, report = run_report(
        [
            "zeta",
            "--zeros",
            zeros_file,
            "--synthesize-out",
            str(matrix),
            "--no-timestamp",
        ],
        capsys,
    )
    assert code == 0
    data = json.loads(matrix.read_text())
    assert data["dim"] == 40


def test_classical_flow_and_trajectory(tmp_path, capsys):
    spectrum = tmp_path / "levels.txt"
    spectrum.write_text("\n".join(str(2.0 * i + 1.0) for i in range(8)) + "\n")
    traj = tmp_path / "traj.csv"
    code, report = run_report(
        [
            "classical",
            "--spectrum",
            str(spectrum),
            "--modes",
            "1",
            "--nodes",
            "8",
            "--time",
            "10",
            "--dt",
            "0.01",
            "--trajectory",
            str(traj),
            "--no-timestamp",
        ],
        capsys,
    )
    assert code == 0
    assert report["truncated"] is False
    assert report["max_action_drift"] < 1e-6
    lines = traj.read_text().strip().splitlines()
    assert lines[0] == "t,x1,p1,J1,energy"
    assert len(lines) == report["steps"] + 2
