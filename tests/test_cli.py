import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from spectralforge import classical, cli, intertwiner, schrodinger, zeta
from spectralforge.fockspace import matrix_to_json


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


@pytest.mark.parametrize("model, code", [("goe", 0), ("poisson", 1)])
def test_stats_goe_surmise_spectrum(tmp_path, capsys, model, code):
    # spacings drawn from the GOE surmise by its inverse CDF, summed into levels
    u = np.random.default_rng(5).uniform(0.0, 1.0, 1000)
    spectrum = tmp_path / "goe.txt"
    levels = np.cumsum(np.sqrt(-4.0 * np.log1p(-u) / np.pi))
    spectrum.write_text("\n".join(f"{v:.17g}" for v in levels) + "\n")
    got, report = run_report(
        ["stats", "--spectrum", str(spectrum), "--model", model, "--degree", "1",
         "--no-timestamp"],
        capsys,
    )
    test = report["spacing_test"]
    assert (got, test["model"], test["passed"]) == (code, model, code == 0)
    assert test["ks_distance_two_sided"] == max(test["ks_distance"], test["ks_distance_minus"])


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
    # every level of the 65 x 65 grid: the largest block, E on 33 x 32 = 1056
    # nodes, would be made dense
    code = cli.run(["schrodinger", "--dimension", "2", "--points", "65", "--levels", "4225",
                    "--cap", "1000"])
    assert code == 3
    captured = capsys.readouterr()
    assert _one_error_line(captured, "error: capacity:")
    assert "matrix dimension 1056 exceeds cap 1000" in captured.err


def test_schrodinger_grid_above_cap_is_solved_by_sectors(capsys):
    # 65 x 65 = 4225 nodes exceed the default cap, but no matrix is made dense
    code, report = run_report(["schrodinger", "--dimension", "2", "--points", "65",
                               "--levels", "25", "--no-timestamp"], capsys)
    assert code == 0 and len(report["levels"]) == 25


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

    def counted(H, m, cap=None, **kwargs):
        calls.append(m)
        return solve(H, m, cap, **kwargs)

    monkeypatch.setattr(schrodinger, "low_spectrum", counted)
    argv = ["schrodinger", "--points", "200", "--levels", "10", "--pipeline",
            "--modes", "2", "--no-timestamp"]
    code, report = run_report(argv, capsys)
    assert code == 0
    assert report["certificate"]["passed"] is True
    # each parity half once: the even half for its share of 10 levels, the odd
    # half for the 9 that its count puts below the even half's top level
    assert calls == [10, 9]


def test_verify_and_pipeline_never_form_the_first_integrals(tmp_path, capsys, monkeypatch):
    def no_first_integrals(*args):
        raise AssertionError("a report formed the first integrals T_i")

    monkeypatch.setattr(intertwiner, "first_integrals", no_first_integrals)
    matrix = str(tmp_path / "op.json")
    for argv in (["synthesize", "--set", "interval:0:1", "--count", "300", "--modes", "3",
                  "--out", matrix],
                 ["verify", "--matrix", matrix, "--modes", "3"],
                 ["schrodinger", "--points", "200", "--levels", "200", "--pipeline",
                  "--modes", "3"]):
        code, report = run_report(argv + ["--no-timestamp"], capsys)
        assert code == 0 and report.get("certificate", {"passed": True})["passed"] is True


@pytest.mark.parametrize("points, levels", [(201, 30), (200, 200)])
def test_schrodinger_1d_report_sectors_sum_to_levels(capsys, points, levels):
    code, report = run_report(["schrodinger", "--points", str(points), "--levels", str(levels),
                               "--no-timestamp"], capsys)
    assert code == 0 and len(report["levels"]) == levels
    assert list(report["sectors"]) == ["even", "odd"]
    assert sum(report["sectors"].values()) == levels


def test_schrodinger_asymmetric_1d_table_has_no_sectors(tmp_path, capsys):
    grid = schrodinger.GridSpec(1, 6.0, 40)
    x = grid.axis_nodes().tolist()
    path = tmp_path / "v.csv"
    path.write_text("".join(f"{xi!r},{(xi - 1.0) ** 2!r}\n" for xi in x))
    code, report = run_report(["schrodinger", "--half-width", "6", "--points", "40",
                               "--levels", "6", "--potential", f"csv:{path}",
                               "--no-timestamp"], capsys)
    assert code == 0 and len(report["levels"]) == 6 and "sectors" not in report


def _src_env() -> dict:
    """The environment of a fresh interpreter that imports this checkout's src/ first."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


@pytest.mark.parametrize("module", ["spectralforge", "spectralforge.cli"])
def test_python_m_help(module):
    proc = subprocess.run([sys.executable, "-m", module, "--help"],
                          capture_output=True, text=True, env=_src_env(), timeout=120)
    assert proc.returncode == 0
    assert "spectral-forge" in proc.stdout


_DEFERRED_IMPORTS_SCRIPT = """
import json, sys
import spectralforge.cli
from spectralforge import classical, levelstats, zeta
loaded = [m for m in ("scipy.interpolate", "scipy.special") if m in sys.modules]
table = classical.ActionTable.build([0.0, 1.0, 3.0, 4.0, 7.0], 1, 5)
print(json.dumps({"loaded_by_cli": loaded,
                  "coeffs": table.coeffs.tolist(),
                  "theta": zeta.siegel_theta([14.134725, 20.0, 50.0]).tolist(),
                  "gue": levelstats.wigner_gue_cdf([0.5, 1.0, 2.0]).tolist()}))
"""


def test_cli_import_defers_interpolate_and_special():
    """``import spectralforge.cli`` leaves scipy.interpolate and scipy.special
    unloaded, and the three functions that load them on use still compute."""
    proc = subprocess.run([sys.executable, "-c", _DEFERRED_IMPORTS_SCRIPT],
                          capture_output=True, text=True, env=_src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["loaded_by_cli"] == []
    # the values before the imports moved, on numpy 2.4.6 and scipy 1.17.1
    np.testing.assert_allclose(out["coeffs"], [
        [-0.541666666666667, 2.125000000000001, -0.5833333333333339, 0.0],
        [-0.5416666666666665, 0.49999999999999956, 2.041666666666667, 1.0],
        [0.7083333333333335, -1.125, 1.4166666666666665, 3.0],
        [0.708333333333333, 1.0, 1.291666666666667, 4.0]], rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(
        out["theta"], [-1.7286703041172755, 1.1868948084444835, 26.461366070161414], rtol=1e-12)
    np.testing.assert_allclose(
        out["gue"], [0.11199971378298262, 0.5330502005906137, 0.982949876829839], rtol=1e-12)


_CLASSICAL_IMPORTS_SCRIPT = """
import json, sys
from spectralforge import cli
code = cli.run(["classical", "--spectrum", sys.argv[1], "--modes", "2", "--nodes", "8",
                "--time", "1", "--no-timestamp"])
print(json.dumps({"code": code, "loaded": [
    m for m in ("scipy.interpolate", "scipy.optimize") if m in sys.modules]}))
"""


def test_classical_loads_neither_interpolate_nor_optimize(tmp_path):
    """The action table's spline is one banded solve from scipy.linalg, so a
    whole ``classical`` run leaves scipy.interpolate and scipy.optimize unloaded."""
    table = tmp_path / "table.txt"
    np.savetxt(table, np.sort(np.random.default_rng(1).uniform(0.0, 1.0, 200)))
    proc = subprocess.run([sys.executable, "-c", _CLASSICAL_IMPORTS_SCRIPT, str(table)],
                          capture_output=True, text=True, env=_src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out == {"code": 0, "loaded": []}


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


def test_classical_start_on_domain_edge_exit_0(tmp_path, capsys):
    # action 7 + 1e-9: past the table's last node, inside the flow's domain
    spectrum = tmp_path / "levels.txt"
    spectrum.write_text("\n".join(str(float(i)) for i in range(8)) + "\n")
    x0 = np.sqrt(2 * (7 + 1e-9) + 1)
    code, report = run_report(
        ["classical", "--spectrum", str(spectrum), "--modes", "1", "--nodes", "8",
         "--x0", repr(float(x0)), "--p0", "0", "--time", "1", "--dt", "0.01",
         "--no-timestamp"],
        capsys,
    )
    assert code == 0
    assert report["truncated"] is False
    assert report["initial_energy"] == pytest.approx(7.0)


@pytest.mark.parametrize("content", [b"not json", b"\xff\xfe{}", b'{"dim": 0, "re": [], "im": []}',
                                     b'{"dim": 0, "rows": [], "cols": [], "re": [], "im": []}'],
                         ids=["not_json", "not_utf8", "empty_dense", "empty_sparse"])
def test_verify_malformed_matrix_exit_2(tmp_path, capsys, content):
    matrix = tmp_path / "op.json"
    matrix.write_bytes(content)
    assert cli.run(["verify", "--matrix", str(matrix)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: input:")


def test_schrodinger_non_numeric_potential_csv_exit_2(tmp_path, capsys):
    table = tmp_path / "v.csv"
    table.write_text("x\n")
    argv = ["schrodinger", "--points", "16", "--potential", f"csv:{table}"]
    assert cli.run(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: input:")


def _write_matrix(path):
    code = cli.run(["synthesize", "--set", "finite:0,1,2", "--count", "8", "--out",
                    str(path), "--report", str(path.with_suffix(".report.json"))])
    assert code == 0
    return str(path)


@pytest.mark.parametrize(
    "subcommand, file_cfg",
    [
        ("synthesize", {"set": 5, "count": 3}),
        ("synthesize", {"set": "finite:0,1,2", "count": [3]}),
        ("synthesize", {"set": "finite:0,1,2", "count": 3, "modes": 1.7}),
        ("synthesize", {"set": "finite:0,1,2", "count": 3, "modes": True}),
        ("stats", {"set": "interval:0:1", "count": 50, "degree": "x"}),
        ("schrodinger", {"points": 20, "levels": 3, "cap": "abc"}),
        ("schrodinger", {"points": 20, "levels": 3, "half_width": "abc"}),
        ("schrodinger", {"points": 20, "levels": 3, "pipeline": "no"}),
        ("schrodinger", {"points": 20, "levels": 3, "modes": None}),
        ("verify", {"matrix": "MATRIX", "tol": "x"}),
        ("verify", {"matrix": 7}),
    ],
    ids=["set_number", "count_list", "modes_fraction", "modes_bool", "degree_text", "cap_text",
         "half_width_text", "pipeline_text", "modes_null", "tol_text", "matrix_number"],
)
def test_config_value_rejected_exit_2(tmp_path, capsys, subcommand, file_cfg):
    if file_cfg.get("matrix") == "MATRIX":
        file_cfg = dict(file_cfg, matrix=_write_matrix(tmp_path / "op.json"))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(file_cfg))
    capsys.readouterr()
    assert cli.run([subcommand, "--config", str(cfg), "--no-timestamp"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: input:")


@pytest.mark.parametrize(
    "argv",
    [
        ["synthesize", "--set", "cantor", "--count", "20", "--dim", "12", "--modes", "2"],
        ["verify", "--matrix", "MATRIX", "--modes", "2"],
        ["stats", "--set", "interval:0:1", "--count", "300", "--model", "gue", "--degree", "2"],
        ["zeta", "--zeros", "ZEROS", "--modes", "2"],
        ["schrodinger", "--points", "32", "--levels", "4", "--half-width", "8", "--pipeline"],
        ["classical", "--set", "interval:0:5", "--count", "200", "--modes", "2", "--time",
         "1", "--dt", "0.01", "--x0", "1,1.5"],
    ],
    ids=lambda argv: argv[0],
)
def test_config_block_round_trips(tmp_path, capsys, zeros_file, argv):
    # a report's config block, fed back through --config, reproduces the report
    replace = {"MATRIX": lambda: _write_matrix(tmp_path / "op.json"), "ZEROS": lambda: zeros_file}
    argv = [replace[a]() if a in replace else a for a in argv] + ["--no-timestamp"]
    capsys.readouterr()
    code = cli.run(argv)
    from_flags = capsys.readouterr().out
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(json.loads(from_flags)["config"]))
    assert cli.run([argv[0], "--config", str(cfg), "--no-timestamp"]) == code
    assert capsys.readouterr().out == from_flags


def _one_error_line(captured, prefix="error: input:"):
    lines = captured.err.splitlines()
    return captured.out == "" and len(lines) == 1 and lines[0].startswith(prefix)


def test_synthesize_out_writes_sparse_form(tmp_path, capsys):
    matrix = tmp_path / "op.json"
    code, _ = run_report(["synthesize", "--set", "finite:0,1,2", "--count", "12",
                          "--modes", "2", "--out", str(matrix), "--no-timestamp"], capsys)
    assert code == 0
    data = json.loads(matrix.read_text())
    assert set(data) == {"dim", "rows", "cols", "re", "im"}
    # the diagonal without its four zeros
    assert data["dim"] == 12 and data["rows"] == data["cols"] and len(data["rows"]) == 8


def test_zeta_synthesize_out_writes_sparse_form(zeros_file, tmp_path, capsys):
    matrix = tmp_path / "zeros_op.json"
    run_report(["zeta", "--zeros", zeros_file, "--synthesize-out", str(matrix)], capsys)
    data = json.loads(matrix.read_text())
    assert data["rows"] == data["cols"] and len(data["rows"]) == 40
    assert sorted(data["re"]) == pytest.approx(np.loadtxt(zeros_file), abs=0)


def _verify(path, capsys, modes="2"):
    code, report = run_report(["verify", "--matrix", str(path), "--modes", modes,
                               "--no-timestamp"], capsys)
    return code, report["certificate"]


def test_dense_form_file_still_verifies(tmp_path, capsys):
    h = np.array([2.0, -1.0, 0.0, 3.5, 2.0, 7.0])
    dense, sparse = tmp_path / "dense.json", tmp_path / "sparse.json"
    dense.write_text(matrix_to_json(np.diag(h)))
    sparse.write_text(matrix_to_json(sp.csr_array(np.diag(h))))
    code, cert = _verify(dense, capsys)
    assert code == 0 and cert["passed"]
    assert _verify(sparse, capsys) == (code, cert)


def _sparse_hermitian(d, seed):
    rng = np.random.default_rng(seed)
    X = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) * (rng.uniform(size=(d, d)) < 0.3)
    return X + X.conj().T


def test_sparse_non_diagonal_matrix_matches_dense_form(tmp_path, capsys):
    H = _sparse_hermitian(12, 3)
    dense, sparse = tmp_path / "dense.json", tmp_path / "sparse.json"
    dense.write_text(matrix_to_json(H))
    sparse.write_text(matrix_to_json(sp.csr_array(H)))
    assert "rows" in json.loads(sparse.read_text())
    code, ref = _verify(dense, capsys)
    assert code == 0 and ref["passed"]
    got_code, got = _verify(sparse, capsys)
    assert got_code == code and got.keys() == ref.keys()
    for key, value in ref.items():
        if isinstance(value, (bool, int)):
            assert got[key] == value, key
        else:
            assert abs(got[key] - value) <= 1e-12, key


def test_sparse_non_diagonal_matrix_above_cap_exit_3(tmp_path, capsys, monkeypatch):
    sparse, diagonal = tmp_path / "sparse.json", tmp_path / "diagonal.json"
    sparse.write_text(matrix_to_json(sp.csr_array(_sparse_hermitian(12, 4))))
    diagonal.write_text(matrix_to_json(sp.csr_array(np.diag(np.arange(12.0)))))
    monkeypatch.setenv("SPECTRAL_FORGE_CAP", "11")
    assert cli.run(["verify", "--matrix", str(sparse)]) == 3
    assert _one_error_line(capsys.readouterr(), "error: capacity:")
    # a diagonal H is certified in O(d), with no dense matrix to cap
    assert _verify(diagonal, capsys)[0] == 0


@pytest.mark.parametrize(
    "argv, names",
    [
        (["zeta", "--compute", "0"], "--compute must be in 1..100"),
        (["synthesize", "--set", "finite:0,1", "--count", "0"], "--count must be at least 1"),
        (["stats", "--set", "interval:0:1", "--count", "-3"], "--count must be at least 1"),
        (["synthesize", "--set", "finite:0,1", "--count", "4", "--dim", "0"],
         "--dim must be in 1..4, got 0"),
        (["synthesize", "--set", "finite:0,1", "--count", "4", "--dim", "-3"],
         "--dim must be in 1..4, got -3"),
    ],
    ids=["zeta_compute", "synthesize_count", "stats_count", "synthesize_dim_zero",
         "synthesize_dim_negative"],
)
def test_zero_count_is_range_checked_exit_2(capsys, argv, names):
    assert cli.run(argv) == 2
    captured = capsys.readouterr()
    assert _one_error_line(captured) and names in captured.err


@pytest.mark.parametrize("flags", [["--dt", "nan"], ["--time", "nan"], ["--time", "inf"]],
                         ids=["dt_nan", "time_nan", "time_inf"])
def test_classical_non_finite_step_or_time_exit_2(tmp_path, capsys, flags):
    spectrum = tmp_path / "levels.txt"
    spectrum.write_text("\n".join(str(float(i)) for i in range(8)) + "\n")
    argv = ["classical", "--spectrum", str(spectrum), "--modes", "1", "--nodes", "8"]
    assert cli.run(argv + flags) == 2
    captured = capsys.readouterr()
    assert _one_error_line(captured) and "must be finite" in captured.err


@pytest.mark.parametrize("dimension", ["1", "2"])
@pytest.mark.parametrize("half_width", ["1e-300", "1e-160", "1e200", "inf"])
def test_schrodinger_half_width_without_finite_inverse_h2_exit_2(capsys, dimension, half_width):
    argv = ["schrodinger", "--dimension", dimension, "--half-width", half_width,
            "--points", "16", "--levels", "3"]
    assert cli.run(argv) == 2
    captured = capsys.readouterr()
    assert _one_error_line(captured) and "1/h^2" in captured.err


def test_classical_step_count_cap_exit_3_before_the_loop(tmp_path, capsys, monkeypatch):
    spectrum = tmp_path / "levels.txt"
    spectrum.write_text("\n".join(str(float(i)) for i in range(8)) + "\n")

    def no_loop(self):
        raise AssertionError("the flow started")

    monkeypatch.setattr(classical.ActionTable, "_float_frequencies", no_loop)
    argv = ["classical", "--spectrum", str(spectrum), "--modes", "1", "--nodes", "8",
            "--dt", "1e-300", "--time", "1"]
    assert cli.run(argv) == 3
    captured = capsys.readouterr()
    assert _one_error_line(captured, "error: capacity:") and "exceeds" in captured.err


def test_empty_potential_csv_one_stderr_line(tmp_path):
    table = tmp_path / "empty.csv"
    table.write_text("")
    proc = subprocess.run([sys.executable, "-m", "spectralforge", "schrodinger", "--points",
                           "16", "--potential", f"csv:{table}"],
                          capture_output=True, text=True, env=_src_env(), timeout=120)
    assert proc.returncode == 2 and proc.stdout == ""
    # no numpy warning before the error line
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: input:")
    assert "no data rows" in lines[0]


@pytest.mark.parametrize(
    "argv",
    [["synthesize", "--set", "finite:0,1", "--count", "4", "--modes", "1.7"],
     ["stats", "--set", "interval:0:1", "--count", "50", "--model", "goe"]],
    ids=["modes_fraction", "unknown_model"],
)
def test_malformed_flag_value_exit_2_one_line(capsys, argv):
    assert cli.run(argv) == 2
    assert _one_error_line(capsys.readouterr())


def _potential_csv(path, grid, potential):
    """A csv: table of ``potential(x, y)`` on the grid's nodes, in row-major order."""
    x = grid.axis_nodes()
    X, Y = np.repeat(x, grid.M), np.tile(x, grid.M)
    rows = zip(X.tolist(), Y.tolist(), potential(X, Y).tolist())
    path.write_text("".join(f"{a!r},{b!r},{v!r}\n" for a, b, v in rows))
    return f"csv:{path}"


@pytest.mark.parametrize(
    "potential, symmetric",
    [(lambda x, y: (x**2) ** 2 + 0.5 * y**2, True), (lambda x, y: (x - 1.0) ** 2 + y**2, False),
     # numpy's x**4 rounds x and -x apart by a few ulps
     (lambda x, y: x**4 + 0.5 * y**2, True)],
    ids=["mirror_symmetric", "asymmetric", "near_symmetric"],
)
def test_schrodinger_csv_table_sectors(tmp_path, capsys, potential, symmetric):
    grid = schrodinger.GridSpec(2, 6.0, 24)
    table = _potential_csv(tmp_path / "v.csv", grid, potential)
    argv = ["schrodinger", "--dimension", "2", "--half-width", "6", "--points", "24",
            "--levels", "12", "--potential", table, "--no-timestamp"]
    code, report = run_report(argv, capsys)
    assert code == 0
    V = schrodinger.potential(table, grid)
    ref = schrodinger.low_spectrum(schrodinger.assemble_sparse(grid, V), 12)
    assert np.abs(np.array(report["levels"]) - ref).max() <= 1e-12 * np.abs(ref).max()
    assert ("sectors" in report) == symmetric
    if symmetric:
        assert list(report["sectors"]) == list(schrodinger.SECTORS)
        assert sum(report["sectors"].values()) == 12


@pytest.mark.parametrize("table", [False, True], ids=["harmonic_overflow", "csv_nan"])
def test_schrodinger_non_finite_potential_exit_2_one_line(tmp_path, capsys, table):
    grid = schrodinger.GridSpec(2, 6.0, 24)
    if table:
        spec = _potential_csv(tmp_path / "v.csv", grid, lambda x, y: np.where(x > 0, np.nan, y))
        argv = ["--half-width", "6", "--points", "24", "--potential", spec]
    else:  # x^2 overflows at the outer nodes of this box
        argv = ["--half-width", "1e155", "--points", "24"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would be a second stderr line
        assert cli.run(["schrodinger", "--dimension", "2", "--levels", "3", *argv]) == 2
    captured = capsys.readouterr()
    assert _one_error_line(captured) and "not finite" in captured.err


@pytest.mark.parametrize(
    "error, names",
    [(MemoryError("Unable to allocate 72.8 TiB for an array with shape (10000000000001,) "
                  "and data type int64"), "72.8 TiB"),
     (MemoryError(), "out of memory")],
    ids=["numpy_message", "bare"],
)
def test_allocation_failure_exit_3_one_line(tmp_path, capsys, monkeypatch, error, names):
    matrix = tmp_path / "huge.json"
    matrix.write_text('{"dim": 10000000000000, "rows": [], "cols": [], "re": [], "im": []}')

    def unable_to_allocate(text):
        raise error

    monkeypatch.setattr(cli, "matrix_from_json", unable_to_allocate)
    assert cli.run(["verify", "--matrix", str(matrix)]) == 3
    captured = capsys.readouterr()
    assert _one_error_line(captured, "error: capacity:") and names in captured.err


def test_many_modes_certify_and_too_many_exit_3_one_line(tmp_path, capsys):
    matrix = tmp_path / "op20.json"
    code, _ = run_report(["synthesize", "--set", "finite:0,1,2", "--count", "12",
                          "--modes", "20", "--out", str(matrix), "--no-timestamp"], capsys)
    assert code == 0
    code, report = run_report(["verify", "--matrix", str(matrix), "--modes", "20",
                               "--no-timestamp"], capsys)
    assert code == 0 and report["certificate"]["n_modes"] == 20
    # a basis table numpy cannot even shape is a capacity error, not a traceback
    argv = ["synthesize", "--set", "finite:1,2", "--count", "5", "--modes", str(10**19)]
    assert cli.run(argv) == 3
    assert _one_error_line(capsys.readouterr(), "error: capacity:")


def test_verify_of_a_thousand_modes_on_twelve_levels_is_fast(tmp_path, capsys):
    matrix = tmp_path / "op.json"
    code, _ = run_report(["synthesize", "--set", "finite:0,1,2", "--count", "12",
                          "--out", str(matrix), "--no-timestamp"], capsys)
    assert code == 0
    start = time.perf_counter()
    code, report = run_report(["verify", "--matrix", str(matrix), "--modes", "1000",
                               "--no-timestamp"], capsys)
    # only the 11 nonzero number columns of 1000 are paired; all 1000 took about 20 s
    assert time.perf_counter() - start < 1.0
    assert code == 0 and report["certificate"]["passed"] is True
    assert report["certificate"]["n_modes"] == 1000


def test_lanczos_that_drops_a_level_exit_3_one_line(capsys, monkeypatch):
    eigsh = spla.eigsh
    monkeypatch.setattr(schrodinger.spla, "eigsh",
                        lambda A, k, **kwargs: np.sort(eigsh(A, k=k, **kwargs))[1:])
    argv = ["schrodinger", "--dimension", "2", "--potential", "x2y2", "--points", "24",
            "--levels", "10"]
    assert cli.run(argv) == 3
    captured = capsys.readouterr()
    assert _one_error_line(captured, "error: numerical: block A1:")


@pytest.mark.parametrize("cap", ["0", "-5"])
@pytest.mark.parametrize("dimension", ["1", "2"])
def test_schrodinger_cap_not_positive_exit_2_one_line(capsys, monkeypatch, cap, dimension):
    argv = ["schrodinger", "--dimension", dimension, "--points", "16", "--levels", "3"]
    assert cli.run([*argv, "--cap", cap]) == 2
    assert _one_error_line(capsys.readouterr())
    monkeypatch.setenv("SPECTRAL_FORGE_CAP", cap)
    assert cli.run(argv) == 2
    assert _one_error_line(capsys.readouterr())


@pytest.mark.parametrize("argv", [["classical", "--modes", "1"],
                                  ["classical", "--modes", "2", "--nodes", "4"], ["stats"]])
def test_spectrum_whose_span_overflows_exit_2_one_line(tmp_path, capsys, argv):
    wide = np.geomspace(1e300, 1e308, 30)
    path = tmp_path / "wide.txt"
    np.savetxt(path, np.sort(np.concatenate([-wide, wide])), fmt="%.17g")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would be a second stderr line
        assert cli.run([*argv, "--spectrum", str(path)]) == 2
    captured = capsys.readouterr()
    assert _one_error_line(captured) and "overflows" in captured.err


@pytest.mark.parametrize("values", [[3.0] * 80, [-1e308] * 60 + [1e308] * 60],
                         ids=["flat", "flat_first_nodes"])
def test_classical_table_without_motion_exit_2_one_line(tmp_path, capsys, values):
    path = tmp_path / "flat.txt"
    np.savetxt(path, values, fmt="%.17g")
    assert cli.run(["classical", "--spectrum", str(path), "--modes", "1"]) == 2
    captured = capsys.readouterr()
    assert _one_error_line(captured) and "no motion" in captured.err
    assert "dt" not in captured.err.replace("dE/dJ", "")  # no step the user never gave
    # with a step given, the table's trivial flow runs
    code = cli.run(["classical", "--spectrum", str(path), "--modes", "1", "--dt", "0.1",
                    "--time", "1", "--no-timestamp"])
    assert code == 0


@pytest.mark.parametrize("content", ['{"dim": 0, "re": [], "im": []}',
                                     '{"dim": 0, "rows": [], "cols": [], "re": [], "im": []}'],
                         ids=["dense", "sparse"])
def test_verify_empty_matrix_exit_2_names_the_matrix(tmp_path, capsys, content):
    matrix = tmp_path / "op.json"
    matrix.write_text(content)
    assert cli.run(["verify", "--matrix", str(matrix)]) == 2
    captured = capsys.readouterr()
    assert _one_error_line(captured) and "matrix JSON dim must be at least 1" in captured.err


def test_arpack_no_convergence_exit_3_one_line(capsys, monkeypatch):
    def no_convergence(*args, **kwargs):
        raise spla.ArpackNoConvergence(
            "ARPACK error -1: No convergence (1001 iterations, 0/10 eigenvectors converged)",
            np.empty(0), np.empty((0, 0)),
        )

    monkeypatch.setattr(schrodinger.spla, "eigsh", no_convergence)
    argv = ["schrodinger", "--dimension", "2", "--potential", "x2y2", "--points", "24",
            "--levels", "10"]
    assert cli.run(argv) == 3
    captured = capsys.readouterr()
    assert _one_error_line(captured, "error: numerical:") and "No convergence" in captured.err


def test_linalg_error_exit_3_one_line(capsys, monkeypatch):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("eigenvalue computation did not converge")

    monkeypatch.setattr(intertwiner, "eigh_tridiagonal", no_convergence)
    assert cli.run(["schrodinger", "--points", "50", "--levels", "5"]) == 3
    captured = capsys.readouterr()
    assert _one_error_line(captured, "error: numerical:") and "did not converge" in captured.err


@pytest.mark.parametrize("argv, files, message", [
    (["schrodinger", "--config", "{tmp}/cfg.json"], {"cfg.json": '{"half_width": true}'},
     "config key 'half_width': expected number, got true"),
    (["stats", "--config", "{tmp}/absent.json"], {}, "config file not found: {tmp}/absent.json"),
    (["stats", "--config", "{tmp}/cfg.json"], {"cfg.json": "not json"},
     "config file {tmp}/cfg.json: Expecting value: line 1 column 1 (char 0)"),
    (["stats", "--config", "{tmp}/cfg.json"], {"cfg.json": "[1]"},
     "config file {tmp}/cfg.json: expected a JSON object"),
    (["synthesize", "--set", "finite:0,x", "--count", "3"], {},
     "bad finite set spec: 'finite:0,x'"),
    (["synthesize", "--set", "interval:0", "--count", "3"], {},
     "bad interval spec: 'interval:0' (want interval:LO:HI)"),
    (["synthesize", "--set", "interval:0:x", "--count", "3"], {},
     "bad interval spec: 'interval:0:x'"),
    (["synthesize", "--set", "finite:0,1"], {}, "--count is required with --set"),
    (["synthesize"], {}, "provide --spectrum FILE or --set SPEC"),
    (["synthesize", "--set", "finite:0,1", "--count", "4", "--modes", "0"], {},
     "mode count must be at least 1, got 0"),
    (["verify"], {}, "--matrix is required"),
    (["verify", "--matrix", "{tmp}/absent.json"], {}, "matrix file not found: {tmp}/absent.json"),
    (["zeta"], {}, "provide --zeros FILE or --compute COUNT"),
    (["classical", "--set", "interval:0:1", "--count", "200", "--x0", "1,x"], {},
     "bad x0 vector '1,x'"),
    (["classical", "--set", "interval:0:1", "--count", "200", "--p0", "0,0"], {},
     "p0 must have 1 components"),
], ids=["config_bool_number", "config_missing", "config_not_json", "config_not_object",
        "finite_spec", "interval_parts", "interval_number", "set_without_count", "no_sequence",
        "zero_modes",
        "no_matrix", "matrix_missing", "no_zeros", "phase_vector_text", "phase_vector_size"])
def test_input_error_exit_2_one_line_with_its_message(tmp_path, capsys, argv, files, message):
    for name, content in files.items():
        (tmp_path / name).write_text(content)
    assert cli.run([arg.format(tmp=tmp_path) for arg in argv] + ["--no-timestamp"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: input: " + message.format(tmp=tmp_path)]
