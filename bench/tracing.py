"""Spans and counters recorded around calls into the package's public functions.

The tracer wraps each function in ``TARGETS``.  The wrapper is installed in
the function's own module and in every ``spectralforge`` module that
imported it by name (``cli.certify``, ``schrodinger.build_unitary``, ...),
so calls between modules are seen.  Spans stay in memory; per-layer
metrics are computed from them when the run ends.

A span is recorded only while a job is open (``begin_job``/``end_job``),
so output checks made between jobs are not traced.
"""

from __future__ import annotations

import functools
import hashlib
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

# (module, attribute path) of every wrapped public function; span name is
# "<module>.<attribute path>"
TARGETS = [
    ("pairing", "enumerate_first"),
    ("pairing", "encode_many"),
    ("spectra", "dense_subset"),
    ("spectra", "completely_isospectral"),
    ("spectra", "load_spectrum_text"),
    ("fockspace", "eigendecompose"),
    ("fockspace", "number_operator"),
    ("fockspace", "synthesize"),
    ("fockspace", "matrix_to_json"),
    ("fockspace", "matrix_from_json"),
    ("intertwiner", "build_unitary"),
    ("intertwiner", "first_integrals"),
    ("intertwiner", "verify_integrability"),
    ("intertwiner", "certify"),
    ("levelstats", "unfold"),
    ("levelstats", "spacing_test"),
    ("levelstats", "ensemble_experiment"),
    ("schrodinger", "assemble_sparse"),
    ("schrodinger", "low_spectrum"),
    ("schrodinger", "pipeline_integrate"),
    ("zeta", "hardy_z"),
    ("zeta", "compute_zeros"),
    ("classical", "ActionTable.build"),
    ("classical", "integrate_flow"),
    ("cli", "run"),
]

# called ~80,000 times per flow job: counted, not spanned, so its time
# stays in integrate_flow's self time
COUNTED_ONLY = [("classical", "ActionTable.gradient_at_actions", "classical.gradient_at_actions")]


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    job: int


def _matrix_digest(H) -> str:
    h = hashlib.blake2b(digest_size=16)
    if sp.issparse(H):
        H = H.tocsr()
        for part in (H.data, H.indices, H.indptr):
            h.update(np.ascontiguousarray(part).tobytes())
    else:
        h.update(np.ascontiguousarray(H).tobytes())
    h.update(repr(H.shape).encode())
    return h.hexdigest()


# counters recorded at the span boundary: name -> hook(args, result) -> {counter: amount}
_HOOKS = {
    "fockspace.eigendecompose": lambda a, r: {"fockspace.eigendecompose.dim3": np.shape(a[0])[0] ** 3},
    "fockspace.matrix_to_json": lambda a, r: {"fockspace.matrix_json.bytes": len(r)},
    "fockspace.matrix_from_json": lambda a, r: {"fockspace.matrix_json.bytes": len(a[0])},
    "zeta.hardy_z": lambda a, r: {"zeta.hardy_z.points": np.size(r)},
    "zeta.compute_zeros": lambda a, r: {"zeta.compute_zeros.zeros": r.count},
    "classical.integrate_flow": lambda a, r: {"classical.integrate_flow.steps": r.times.size - 1},
}


class Tracer:
    """In-memory span and counter store for one traced run."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.counters: dict[tuple[int, str], float] = defaultdict(float)
        self.solves: set[tuple[int, str, int]] = set()  # (job, matrix digest, m)
        self.job_round: dict[int, int] = {}
        self._stack: list[int] = []
        self._job: int | None = None
        self._job_span: tuple[int, float, str] | None = None
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _open(self) -> tuple[int, float]:
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        return sid, time.perf_counter()

    def _close(self, sid: int, name: str, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        self.spans[sid] = Span(name, start, end, parent, self._job)

    def begin_job(self, kind: str, round_index: int) -> None:
        self._job = len(self.job_round)
        self.job_round[self._job] = round_index
        self._job_span = (*self._open(), f"job.{kind}")

    def end_job(self) -> None:
        sid, start, name = self._job_span
        self._close(sid, name, start)
        self._job = None

    def _wrap(self, name, fn):
        hook = _HOOKS.get(name)
        count_solves = name == "schrodinger.low_spectrum"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._job is None:
                return fn(*args, **kwargs)
            sid, start = self._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid, name, start)
            if hook is not None:
                for counter, amount in hook(args, result).items():
                    self.counters[(self._job, counter)] += amount
            if count_solves:
                self.solves.add((self._job, _matrix_digest(args[0]), int(args[1])))
            return result

        return traced

    def _count(self, name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self._job is not None:
                self.counters[(self._job, name + ".calls")] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Replace every target, wherever a spectralforge module holds it."""
        replaced = {}  # id(original function) -> wrapper
        for mod_name, path in TARGETS:
            name = f"{mod_name}.{path}"
            replaced.update(self._patch(mod_name, path, lambda fn, n=name: self._wrap(n, fn)))
        for mod_name, path, name in COUNTED_ONLY:
            self._patch(mod_name, path, lambda fn, n=name: self._count(n, fn))
        # the same functions imported by name into other modules
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("spectralforge") or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in replaced:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, replaced[id(value)])

    def _patch(self, mod_name, path, make) -> dict:
        owner = sys.modules[f"spectralforge.{mod_name}"]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        raw = vars(owner)[attr]
        self._patches.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make(raw.__func__)))
            return {}
        new = make(raw)
        setattr(owner, attr, new)
        return {id(raw): new}

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        return [s.end - s.start - c for s, c in zip(self.spans, child)]

    def job_span_sums(self) -> list[tuple[float, float]]:
        """(job span duration, sum of self times of all spans in the job)."""
        selfs = self.self_times()
        total = defaultdict(float)
        root = {}
        for s, t in zip(self.spans, selfs):
            total[s.job] += t
            if s.parent is None:
                root[s.job] = s.end - s.start
        return [(root[j], total[j]) for j in sorted(root)]

    def round_aggregates(self) -> dict[int, "RoundAggregate"]:
        rounds = defaultdict(RoundAggregate)
        for s, t in zip(self.spans, self.self_times()):
            agg = rounds[self.job_round[s.job]]
            agg.calls[s.name] += 1
            agg.self_s[s.name] += t
            agg.span_s[s.name] += s.end - s.start
        for (job, counter), amount in self.counters.items():
            rounds[self.job_round[job]].counters[counter] += amount
        for job, _, _ in self.solves:
            rounds[self.job_round[job]].counters["schrodinger.low_spectrum.distinct"] += 1
        return dict(rounds)


class RoundAggregate:
    """Per-round totals: span calls, self and span seconds, counters."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.span_s = defaultdict(float)
        self.counters = defaultdict(float)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _self(name):
    return lambda a: a.self_s[name]


def _calls(name):
    return lambda a: a.calls[name]


def _counter(name):
    return lambda a: a.counters[name]


# per-layer metric -> (unit, value from one traced round); a layer that a
# workload does not call reads 0
LAYER_METRICS = {
    "intertwiner.build_unitary.self_s": ("s", _self("intertwiner.build_unitary")),
    "intertwiner.first_integrals.self_s": ("s", _self("intertwiner.first_integrals")),
    "intertwiner.verify_integrability.self_s": ("s", _self("intertwiner.verify_integrability")),
    "intertwiner.certify.self_s": ("s", _self("intertwiner.certify")),
    "fockspace.eigendecompose.calls": ("count", _calls("fockspace.eigendecompose")),
    "fockspace.eigendecompose.self_s": ("s", _self("fockspace.eigendecompose")),
    "fockspace.eigendecompose.dim3_sum": ("count", _counter("fockspace.eigendecompose.dim3")),
    "fockspace.number_operator.calls": ("count", _calls("fockspace.number_operator")),
    "fockspace.number_operator.self_s": ("s", _self("fockspace.number_operator")),
    "fockspace.synthesize.self_s": ("s", _self("fockspace.synthesize")),
    "fockspace.matrix_to_json.self_s": ("s", _self("fockspace.matrix_to_json")),
    "fockspace.matrix_from_json.self_s": ("s", _self("fockspace.matrix_from_json")),
    "fockspace.matrix_json.bytes": ("bytes", _counter("fockspace.matrix_json.bytes")),
    "cli.run.self_s": ("s", _self("cli.run")),
    "pairing.enumerate_first.self_s": ("s", _self("pairing.enumerate_first")),
    "pairing.encode_many.self_s": ("s", _self("pairing.encode_many")),
    "spectra.dense_subset.self_s": ("s", _self("spectra.dense_subset")),
    "spectra.completely_isospectral.self_s": ("s", _self("spectra.completely_isospectral")),
    "spectra.load_spectrum_text.self_s": ("s", _self("spectra.load_spectrum_text")),
    "schrodinger.assemble_sparse.self_s": ("s", _self("schrodinger.assemble_sparse")),
    "schrodinger.low_spectrum.calls": ("count", _calls("schrodinger.low_spectrum")),
    "schrodinger.low_spectrum.self_s": ("s", _self("schrodinger.low_spectrum")),
    "schrodinger.low_spectrum.useful_ratio": ("1", lambda a: _ratio(
        a.counters["schrodinger.low_spectrum.distinct"], a.calls["schrodinger.low_spectrum"])),
    "schrodinger.pipeline_integrate.self_s": ("s", _self("schrodinger.pipeline_integrate")),
    "zeta.hardy_z.calls": ("count", _calls("zeta.hardy_z")),
    "zeta.hardy_z.points": ("count", _counter("zeta.hardy_z.points")),
    "zeta.hardy_z.self_s": ("s", _self("zeta.hardy_z")),
    "zeta.hardy_z.calls_per_zero": ("1", lambda a: _ratio(
        a.calls["zeta.hardy_z"], a.counters["zeta.compute_zeros.zeros"])),
    "zeta.compute_zeros.self_s": ("s", _self("zeta.compute_zeros")),
    "classical.ActionTable.build.self_s": ("s", _self("classical.ActionTable.build")),
    "classical.integrate_flow.self_s": ("s", _self("classical.integrate_flow")),
    "classical.integrate_flow.steps": ("count", _counter("classical.integrate_flow.steps")),
    "classical.gradient_at_actions.calls": ("count", _counter("classical.gradient_at_actions.calls")),
    "classical.integrate_flow.us_per_step": ("us", lambda a: 1e6 * _ratio(
        a.span_s["classical.integrate_flow"], a.counters["classical.integrate_flow.steps"])),
    "levelstats.unfold.calls": ("count", _calls("levelstats.unfold")),
    "levelstats.unfold.self_s": ("s", _self("levelstats.unfold")),
    "levelstats.spacing_test.calls": ("count", _calls("levelstats.spacing_test")),
    "levelstats.spacing_test.self_s": ("s", _self("levelstats.spacing_test")),
    "levelstats.ensemble_experiment.self_s": ("s", _self("levelstats.ensemble_experiment")),
}

OVERHEAD_METRIC = "trace.overhead_s"


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Median over traced rounds of each per-layer metric."""
    rounds = list(tracer.round_aggregates().values())
    return {
        name: float(statistics.median(fn(a) for a in rounds))
        for name, (_, fn) in LAYER_METRICS.items()
    }
