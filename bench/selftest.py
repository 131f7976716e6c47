#!/usr/bin/env python3
"""Fast self-test of the benchmark at tiny sizes (well under a minute).

    python3 bench/selftest.py

For every workload it checks that:

- an untraced and a traced run emit exactly the metrics, with the units,
  that BENCHMARK.json lists, and no job fails;
- the count metrics in ``COUNTS`` repeat exactly across two traced runs;
- in every traced job, the self times of the job's spans sum to the job
  span, and no span's children cover more than the span itself;
- the tracer leaves no wrapper behind in the package.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time

import run

COUNTS = (
    "fockspace.eigendecompose.calls",
    "zeta.hardy_z.calls",
    "classical.integrate_flow.steps",
    "schrodinger.low_spectrum.calls",
)
SPAN_SUM_RTOL = 1e-9


def bench_run(workload: str, trace: int):
    args = run.parse_args(["--workload", workload, "--seed", "1", "--seconds", "0.5",
                           "--trace", str(trace), "--sizes", "tiny"])
    with contextlib.redirect_stdout(io.StringIO()):
        return run.execute(args, time.perf_counter())


def main() -> int:
    run.configure_environment()
    from spectralforge import cli, classical, intertwiner

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    totals = dict.fromkeys(COUNTS, 0.0)
    for workload in run.WORKLOAD_NAMES:
        results = {0: [bench_run(workload, 0)], 1: [bench_run(workload, 1) for _ in range(2)]}
        for trace, outs in results.items():
            for res, _ in outs:
                got = {name: m["unit"] for name, m in res["metrics"].items()}
                if got != expected[trace]:
                    problems.append(f"{workload} trace={trace}: metrics differ from BENCHMARK.json: "
                                    f"{sorted(set(got) ^ set(expected[trace]))}")
                if not res["correct"] or res["failed"] or res["attempted"] < 1:
                    problems.append(f"{workload} trace={trace}: {res['failed']} of "
                                    f"{res['attempted']} jobs failed")
        first, second = (res["metrics"] for res, _ in results[1])
        for name in COUNTS:
            totals[name] += first[name]["value"]
            if first[name]["value"] != second[name]["value"]:
                problems.append(f"{workload}: {name} {first[name]['value']} then "
                                f"{second[name]['value']}")
        for _, tracer in results[1]:
            for span, total in tracer.job_span_sums():
                if abs(span - total) > SPAN_SUM_RTOL * span:
                    problems.append(f"{workload}: job span {span} but self times sum to {total}")
            if min(tracer.self_times()) < -SPAN_SUM_RTOL:
                problems.append(f"{workload}: a span's children cover more than the span")
        print(f"{workload}: checked", flush=True)

    problems += [f"{name} is 0 on every workload" for name, v in totals.items() if not v]
    for fn in (cli.run, cli.certify, intertwiner.certify, intertwiner.eigendecompose,
               classical.ActionTable.gradient_at_actions):
        if hasattr(fn, "__wrapped__"):
            problems.append(f"{fn.__qualname__} is still wrapped after the traced runs")

    for p in problems:
        print("FAIL", p)
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
