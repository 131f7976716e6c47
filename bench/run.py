#!/usr/bin/env python3
"""spectral-forge benchmark: closed-loop workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload dense_certify --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/``.  One
process runs one job at a time, in rounds of the workload's fixed job list
(``workloads.json``), until ``--seconds`` have passed.  The last line of
stdout is one JSON object ``{"correct", "attempted", "failed", "metrics"}``:

- ``--trace 0``: the end-to-end metrics ``setup_s``, ``wall_s`` and
  ``peak_rss_mb``, measured untraced;
- ``--trace 1``: the per-layer metrics of ``tracing.LAYER_METRICS`` and
  ``trace.overhead_s``, from rounds that alternate untraced and traced.

Lines before it record the environment and each job kind's median latency
with its sample count.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from here: before any other import

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5  # set-ups per run: this process and four set-up-only children
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
WORKLOAD_NAMES = tuple(json.loads((BENCH_DIR / "workloads.json").read_text())["workloads"])


def configure_environment() -> None:
    """Pin the BLAS thread count (at most nproc) before numpy loads; put src/ first."""
    threads = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    sys.path.insert(0, str(SRC))


def _blas_threads_in_use():
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    for lib in sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps))):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str:
    """HEAD commit read from .git files; a checkout without .git reads "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    import numpy as np
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": args.sizes,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_set": int(os.environ[BLAS_THREAD_VARS[0]]),
        "blas_threads_in_use": _blas_threads_in_use(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "load_model": "closed loop, 1 process, 1 job at a time",
    }


def set_up(args, workdir: Path):
    """Imports, seeded inputs, references, then one small untimed run of each job kind."""
    import jobs

    rounds = jobs.build(args.workload, args.seed, args.sizes, workdir / "main")
    warm_up = jobs.build(args.workload, args.seed, "tiny", workdir / "warm-up")
    seen = set()
    for job in warm_up(0):
        if job.kind in seen:
            continue
        seen.add(job.kind)
        try:
            job.check(job.run())
        except Exception:  # a broken warm-up shows again, counted, in the timed jobs
            traceback.print_exc()
    return rounds


class Measurement:
    """Job latencies, round wall times and failure counts of one run."""

    def __init__(self):
        self.latency = defaultdict(list)  # job kind -> seconds, untraced successful jobs
        self.round_wall = {False: [], True: []}  # traced? -> round wall seconds
        self.attempted = 0
        self.failed = 0


def run_job(job, measurement, tracer, round_index) -> float:
    measurement.attempted += 1
    if tracer:
        tracer.begin_job(job.kind, round_index)
    start = time.perf_counter()
    try:
        output, ok = job.run(), True
    except Exception:
        traceback.print_exc()
        output, ok = None, False
    finally:
        elapsed = time.perf_counter() - start
        if tracer:
            tracer.end_job()
    if ok:
        try:
            job.check(output)
        except Exception as exc:
            print(f"check failed: {job.kind}: {exc!r}", file=sys.stderr)
            ok = False
    if not ok:
        measurement.failed += 1
    elif not tracer:
        measurement.latency[job.kind].append(elapsed)
    return elapsed


def measure(rounds, seconds: float, tracer) -> Measurement:
    """Rounds of the job list until ``seconds`` pass; with a tracer, odd rounds are traced."""
    m = Measurement()
    deadline = time.perf_counter() + seconds
    r = 0
    while True:
        traced = tracer is not None and r % 2 == 1
        if traced:
            tracer.install()
        try:
            wall = sum(run_job(job, m, tracer if traced else None, r)
                       for job in rounds(r))
        finally:
            if traced:
                tracer.uninstall()
        m.round_wall[traced].append(wall)
        r += 1
        if time.perf_counter() >= deadline and r >= (2 if tracer else 1):
            return m


def job_list_wall(rounds, m: Measurement) -> float:
    """Wall time of one pass of the job list: the sum of each job's median latency.

    Per-kind medians resist a slow moment better than the median of whole
    rounds; if some kind never succeeded, the median round wall is used.
    """
    kinds = [job.kind for job in rounds(0)]
    if all(m.latency[k] for k in kinds):
        return sum(statistics.median(m.latency[k]) for k in kinds)
    return statistics.median(m.round_wall[False])


def setup_children(args) -> list[float]:
    """Set-up times of fresh processes that only set up, run one after another."""
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--sizes", args.sizes, "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


def execute(args, t0: float):
    """Run one benchmark invocation: (result object, tracer or None), or None for --setup-only."""
    import jobs
    import tracing

    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        rounds = set_up(args, workdir)
        setup_s = time.perf_counter() - t0
        if args.setup_only:
            print(repr(setup_s))
            return None
        print("env " + json.dumps(environment(args), sort_keys=True))
        tracer = tracing.Tracer() if args.trace else None
        m = measure(rounds, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:  # another run still uses it
            pass

    for kind, samples in sorted(m.latency.items()):
        print(f"job {kind} {jobs.LATENCY_METRIC[kind]} median "
              f"{statistics.median(samples):.6f} s n={len(samples)}")
    print(f"job failed_frac {m.failed / m.attempted:.6f} n={m.attempted}")

    if args.trace:
        metrics = {name: {"value": value, "unit": tracing.LAYER_METRICS[name][0]}
                   for name, value in tracing.layer_metrics(tracer).items()}
        overhead = statistics.median(m.round_wall[True]) - statistics.median(m.round_wall[False])
        metrics[tracing.OVERHEAD_METRIC] = {"value": overhead, "unit": "s"}
    else:
        setups = [setup_s] + setup_children(args)
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": job_list_wall(rounds, m),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        print(f"samples setup_s n={len(setups)} rounds n={len(m.round_wall[False])}")
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    result = {"correct": m.failed == 0, "attempted": m.attempted, "failed": m.failed,
              "metrics": metrics}
    return result, tracer


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--sizes", choices=("full", "tiny"), default="full",
                   help="input sizes from workloads.json; tiny is for selftest.py")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.setup_only and (args.seconds is None or args.trace is None):
        p.error("--seconds and --trace are required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "spectralforge" / "__init__.py").is_file():
        print(f"error: no spectralforge package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    configure_environment()
    out = execute(args, _T0)
    if out is not None:
        print(json.dumps(out[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
