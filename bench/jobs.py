"""Workload inputs, jobs and output checks for the spectral-forge benchmark.

A workload is a fixed list of jobs that the benchmark runs in rounds, one
job at a time.  A job calls the package the way a user does: a library
function, or ``spectralforge.cli.run(argv)`` in-process with the report
captured from stdout.  Each job's check compares its output with
references computed or stored by the benchmark, never by the code under
test.  Sizes and job lists are recorded in ``workloads.json``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

from spectralforge import cli, intertwiner, levelstats, zeta

BENCH_DIR = Path(__file__).resolve().parent
DEFINITIONS = json.loads((BENCH_DIR / "workloads.json").read_text())

HALF_WIDTH = 10.0  # box half-width of the Schrödinger jobs
REL_TOL = 1e-10  # residuals relative to the operator's scale
ZERO_TOL = 1e-7  # computed zeta zeros vs the mpmath table
LEVEL_RTOL = 1e-9  # Schrödinger levels vs references, relative to the largest level
DRIFT_BOUND = 1e-6  # acceptance criterion 7's action-drift bound
PASS_RATE_GATE = 0.95  # acceptance criterion 4's ensemble gate

# end-to-end latency metric of each job kind
LATENCY_METRIC = {
    "certify": "certify_s",
    "cli_verify": "certify_s",
    "cli_synthesize": "synthesize_s",
    "cli_schrodinger": "pipeline_s",
    "cli_zeta": "zeros_s",
    "cli_classical": "flow_s",
    "ensemble": "ensemble_s",
}


class CheckFailed(Exception):
    """A job's output did not match its reference."""


def require(condition: bool, what: str) -> None:
    if not condition:
        raise CheckFailed(what)


@dataclass
class Job:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]


Rounds = Callable[[int], list[Job]]  # round index -> the jobs of that round


def cli_job(kind: str, argv: list[str], check: Callable[[dict], None]) -> Job:
    """A CLI call whose report, captured from stdout, must pass ``check``."""

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.run(argv)
        return code, out.getvalue()

    def check_report(result):
        code, text = result
        require(code == cli.EXIT_OK, f"{argv[0]} exited {code}")
        check(json.loads(text))

    return Job(kind, run, check_report)


def write_levels(path: Path, values) -> str:
    path.write_text("".join(f"{v:.17g}\n" for v in values))
    return str(path)


def check_certificate(cert: dict, h_scale: float) -> None:
    """A report's certificate passed and its residuals are small."""
    require(cert["passed"], "certificate did not pass")
    require(cert["unitarity_defect"] <= REL_TOL, "unitarity defect")
    bound = REL_TOL * max(1.0, h_scale) * cert["dim"]
    for key in ("intertwining_residual", "max_pairwise_commutator", "max_hamiltonian_commutator"):
        require(cert[key] is not None and cert[key] <= bound, key)


# ---------------------------------------------------------------------------
# dense_certify

def gue(rng: np.random.Generator, d: int) -> np.ndarray:
    X = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (X + X.conj().T) / 2


def check_library_certificate(cert, H: np.ndarray, levels: np.ndarray) -> None:
    """Recompute the certificate's residuals from the returned U and T.

    The synthesized A is diag(ascending eigenvalues of H): the basis lists
    multi-indices in graded-lex order, so basis position k has rank k.
    """
    require(cert.passed, "certificate did not pass")
    U, d = cert.U, H.shape[0]
    h_norm = np.linalg.norm(H)
    require(np.linalg.norm(U @ H - levels[:, None] * U) <= REL_TOL * h_norm, "UH - AU")
    require(np.abs(U.conj().T @ U - np.eye(d)).max() <= REL_TOL, "U^dagger U - I")
    for T in cert.T:
        t_norm = max(1.0, np.linalg.norm(T))
        require(np.linalg.norm(T - T.conj().T) <= REL_TOL * t_norm, "T_i not Hermitian")
        HT = H @ T  # [H, T] = HT - (HT)^dagger for Hermitian H and T
        require(np.linalg.norm(HT - HT.conj().T) <= REL_TOL * h_norm * t_norm, "[H, T_i]")


def dense_certify(seed: int, sz: dict, workdir: Path) -> Rounds:
    rng = np.random.default_rng(seed)
    pool = [gue(rng, sz["dim"]) for _ in range(sz["pool"])]
    levels = {}  # pool index -> reference eigenvalues, computed at first check

    def job(i: int) -> Job:
        H = pool[i]

        def check(cert):
            if i not in levels:
                levels[i] = np.linalg.eigvalsh(H)
            check_library_certificate(cert, H, levels[i])

        return Job("certify", lambda: intertwiner.certify(H, None, sz["modes"]), check)

    return lambda r: [job(r % len(pool))]


# ---------------------------------------------------------------------------
# cli_structured

def fd_levels_1d(points: int) -> np.ndarray:
    """All levels of the 1-D finite-difference -d^2/dx^2 + x^2, from the tridiagonal."""
    h = 2.0 * HALF_WIDTH / (points + 1)
    x = -HALF_WIDTH + h * np.arange(1, points + 1)
    return eigvalsh_tridiagonal(2.0 / h**2 + x**2, np.full(points - 1, -1.0 / h**2))


def cli_structured(seed: int, sz: dict, workdir: Path) -> Rounds:
    rng = np.random.default_rng(seed)
    modes, points = str(sz["modes"]), sz["points"]
    levels = np.sort(rng.uniform(0.0, float(sz["levels"]), size=sz["levels"]))
    spectrum = write_levels(workdir / "levels.txt", levels)
    op = str(workdir / "op.json")
    reference_1d = fd_levels_1d(points)

    def check_synthesize(report):
        require(report["exact_isospectrality"]["matched"], "synthesize: not isospectral")
        require(report["dim"] == levels.size, "synthesize: dim")

    def check_verify(report):
        check_certificate(report["certificate"], float(np.abs(levels).max()))

    def check_schrodinger(report):
        got = np.asarray(report["levels"])
        require(got.shape == reference_1d.shape, "schrodinger: level count")
        scale = np.abs(reference_1d).max()
        require(np.abs(got - reference_1d).max() <= LEVEL_RTOL * scale, "schrodinger: levels")
        check_certificate(report["certificate"], scale)

    jobs = [
        cli_job("cli_synthesize", ["synthesize", "--spectrum", spectrum, "--modes", modes,
                                   "--out", op], check_synthesize),
        cli_job("cli_verify", ["verify", "--matrix", op, "--modes", modes], check_verify),
        cli_job("cli_schrodinger", ["schrodinger", "--dimension", "1", "--half-width",
                                    str(HALF_WIDTH), "--points", str(points), "--levels",
                                    str(points), "--pipeline", "--modes", modes],
                check_schrodinger),
    ]
    return lambda r: jobs


# ---------------------------------------------------------------------------
# spectra_sources

def load_zero_table() -> np.ndarray:
    lines = (BENCH_DIR / "data" / "zetazero_100.txt").read_text().splitlines()
    return np.array([float(v) for v in lines if v and not v.startswith("#")])


def load_x2y2_levels(points: int, levels: int) -> np.ndarray:
    refs = json.loads((BENCH_DIR / "data" / "x2y2_levels.json").read_text())
    return np.array(refs["levels"][f"{points}x{levels}"])


def spectra_sources(seed: int, sz: dict, workdir: Path) -> Rounds:
    rng = np.random.default_rng(seed)
    count = sz["zeros"]
    zero_table = load_zero_table()[:count]
    x2y2_reference = load_x2y2_levels(sz["x2y2_points"], sz["x2y2_levels"])
    table = write_levels(workdir / "table.txt", np.sort(rng.uniform(0.0, 30.0, size=200)))
    dt = 0.005
    steps = round(sz["flow_time"] / dt)

    def check_zeta(report):
        require(report["zero_count"] == count, "zeta: zero count")
        require(abs(report["first_zero"] - zero_table[0]) <= ZERO_TOL, "zeta: first zero")
        require(report["gue_fits_better"], "zeta: GUE does not fit better than Poisson")
        # the report omits the zeros, so compare the library's with the table
        computed = zeta.compute_zeros(count).values
        require(np.abs(computed - zero_table).max() <= ZERO_TOL, "zeta: zeros vs mpmath")

    def check_flow(report):
        require(report["steps"] == steps, "classical: step count")
        require(not report["truncated"], "classical: trajectory truncated")
        require(report["max_action_drift"] < DRIFT_BOUND, "classical: action drift")

    def check_ensemble(summary):
        require(summary["trials"] == sz["trials"], "ensemble: trial count")
        require(summary["pass_rate"] >= PASS_RATE_GATE, "ensemble: pass rate")

    def check_x2y2(report):
        got = np.asarray(report["levels"])
        require(got.shape == x2y2_reference.shape, "x2y2: level count")
        scale = np.abs(x2y2_reference).max()
        require(np.abs(got - x2y2_reference).max() <= LEVEL_RTOL * scale, "x2y2: levels")
        check_certificate(report["certificate"], scale)

    zeta_job = cli_job("cli_zeta", ["zeta", "--compute", str(count)], check_zeta)
    jobs = [zeta_job] * sz["zeta_repeats"] + [
        cli_job("cli_classical", ["classical", "--spectrum", table, "--modes", "2",
                                  "--nodes", "8", "--dt", str(dt), "--time",
                                  str(sz["flow_time"]), "--x0", f"{math.sqrt(3.4)!r},0",
                                  "--p0", f"0,{math.sqrt(5.2)!r}"], check_flow),
        Job("ensemble", lambda: levelstats.ensemble_experiment(
            sz["trials"], sz["ensemble_levels"], seed), check_ensemble),
        cli_job("cli_schrodinger", ["schrodinger", "--dimension", "2", "--potential", "x2y2",
                                    "--points", str(sz["x2y2_points"]), "--levels",
                                    str(sz["x2y2_levels"]), "--cap", str(sz["x2y2_cap"]),
                                    "--pipeline", "--modes", "2"], check_x2y2),
    ]
    return lambda r: jobs


BUILDERS = {
    "dense_certify": dense_certify,
    "cli_structured": cli_structured,
    "spectra_sources": spectra_sources,
}


def build(name: str, seed: int, sizes: str, workdir: Path) -> Rounds:
    """The workload ``name`` at the ``full`` or ``tiny`` sizes of workloads.json."""
    sz = DEFINITIONS["workloads"][name]["sizes"][sizes]
    workdir.mkdir(parents=True, exist_ok=True)
    return BUILDERS[name](seed, sz, workdir)
