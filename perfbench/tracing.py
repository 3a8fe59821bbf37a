"""In-memory spans around the calls into each layer, and their metrics.

The traced run wraps each layer's public functions *where its caller
looks them up* (a module global, a class attribute, or one instance's
attribute) and restores them afterwards; nothing inside the program is
edited.  A span is ``(name, start, end, parent, run_id)``, kept in
memory and written out when the run ends.  A span's self time is its
duration minus the time its child spans cover.

The simulator's sub-layers call each other on every event, so wrapping
them is not affordable; their split comes from a cProfile pass instead
(:func:`profile_shares`).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import sysconfig
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: ladder rungs, in ladder order
RUNGS = ("replay", "vectorized-adaptive", "predict", "simulate")

#: per-layer metric -> unit (a self-test pins these to BENCHMARK.json);
#: counts and busy seconds are per measured round
PER_LAYER_UNITS = {
    **{f"runner.rung.{rung}": "count" for rung in RUNGS},
    "sim.runs": "count", "sim.busy_s": "s", "sim.events": "count",
    "sim.events_per_s": "1/s", "sim.messages": "count",
    "sim.wan_messages": "count",
    "sim.share.engine": "frac", "sim.share.runtime": "frac",
    "sim.share.network": "frac", "sim.share.apps": "frac",
    "sim.share.stdlib": "frac",
    "whatif.record.calls": "count", "whatif.record.busy_s": "s",
    "whatif.evaluate.calls": "count", "whatif.evaluate.busy_s": "s",
    "whatif.validate.self_s": "s",
    "replay.compile.calls": "count", "replay.compile.busy_s": "s",
    "replay.probe.busy_s": "s", "replay.price.calls": "count",
    "replay.price.points": "count", "replay.price.busy_s": "s",
    "replay.price.us_per_level": "us", "replay.price.alloc_peak_mb": "MB",
    "replay.adaptive.busy_s": "s", "replay.adaptive.iterations_max": "count",
    "replay.adaptive.downgraded_points": "count",
    "cache.lookups": "count", "cache.hits": "count",
    "cache.hit_ratio": "frac", "cache.stores": "count",
    "cache.lookup_ms": "ms", "cache.store_ms": "ms",
    "serve.submit_ms": "ms", "serve.first_record_ms": "ms",
    "serve.server_job_ms": "ms", "serve.http_overhead_ms": "ms",
    "serve.points.dispatched": "count", "serve.points.cache_hits": "count",
    "serve.jobs.rejected": "count", "serve.jobs.warm_frac": "frac",
    "trace.overhead_s": "s", "trace.overhead_frac": "frac",
    "trace.spans": "count",
    "check.err_pp_max": "pp",
    "job.p99_ms": "ms",
}
SERVE_METRICS = tuple(n for n in PER_LAYER_UNITS if n.startswith("serve."))
SHARE_METRICS = tuple(n for n in PER_LAYER_UNITS if n.startswith("sim.share."))


class Tracer:
    """Spans plus counters, safe to feed from several threads."""

    def __init__(self) -> None:
        #: [name, start, end, parent index or None, run id]
        self.spans: List[list] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.maxima: Dict[str, float] = defaultdict(float)
        #: the largest ReplayProgram.price_grid call: (points, fn, args)
        self.largest_price: Optional[Tuple[int, Callable, tuple]] = None
        self.run_id = "setup"
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent,
                               self.run_id])
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def add(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += value

    def peak(self, name: str, value: float) -> None:
        with self._lock:
            self.maxima[name] = max(self.maxima[name], value)

    # ------------------------------------------------------------------
    def write(self, path: str, header: Dict[str, Any]) -> None:
        """Spans as JSON lines after one header line."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for name, start, end, parent, run_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "run": run_id}) + "\n")


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: Dict[int, List[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span[3] is not None:
            children[span[3]].append(index)
    out = []
    for index, (_name, start, end, _parent, _run) in enumerate(spans):
        covered = 0.0
        reach = start
        for lo, hi in sorted((max(spans[c][1], start), min(spans[c][2], end))
                             for c in children.get(index, ())):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


class Aggregate:
    """Per-name calls, busy time (outermost spans), self time, durations."""

    def __init__(self, spans: List[list]) -> None:
        selfs = self_times(spans)
        self.calls: Dict[str, int] = defaultdict(int)
        self.busy: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.durations: Dict[str, List[float]] = defaultdict(list)
        for index, (name, start, end, parent, _run) in enumerate(spans):
            duration = end - start
            self.calls[name] += 1
            self.self_s[name] += selfs[index]
            self.durations[name].append(duration)
            if not self._inside_same(spans, parent, name):
                self.busy[name] += duration

    @staticmethod
    def _inside_same(spans: List[list], parent: Optional[int],
                     name: str) -> bool:
        while parent is not None:
            if spans[parent][0] == name:
                return True
            parent = spans[parent][3]
        return False

    def median_ms(self, name: str) -> float:
        values = self.durations.get(name)
        return 1e3 * statistics.median(values) if values else 0.0


# ----------------------------------------------------------------------
# Wrapping callers' lookups
# ----------------------------------------------------------------------
OnResult = Callable[[Tracer, Any, tuple], None]


def _wrap(tracer: Tracer, name: str, fn: Callable,
          on_result: Optional[OnResult]) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if on_result is not None:
            on_result(tracer, result, args)
        return result
    return wrapper


@contextmanager
def instrumented(tracer: Tracer,
                 targets: Iterable[Tuple[str, Any, str, Optional[OnResult]]]):
    """Replace ``owner.attr`` with a span-recording wrapper for each
    ``(span name, owner, attr, on_result)``; restore on exit."""
    saved = []
    try:
        for name, owner, attr, on_result in targets:
            own = vars(owner)
            entry = (owner, attr, attr in own, own.get(attr))
            setattr(owner, attr,
                    _wrap(tracer, name, getattr(owner, attr), on_result))
            saved.append(entry)
        yield tracer
    finally:
        for owner, attr, had, original in reversed(saved):
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def _on_panel(tracer: Tracer, grid, _args) -> None:
    tracer.add(f"runner.rung.{grid.backend}")


def _on_sim(tracer: Tracer, result, _args) -> None:
    tracer.add("sim.events", result.machine.engine.events_processed)
    tracer.add("sim.messages", result.stats.total_messages)
    tracer.add("sim.wan_messages", result.stats.inter.messages)


def _on_price(tracer: Tracer, out, args) -> None:
    program = args[0]
    tracer.add("replay.price.points", out.size)
    tracer.add("replay.price.levels", program.num_levels)
    largest = tracer.largest_price
    if largest is None or out.size > largest[0]:
        # The class attribute is the span wrapper while tracing; keep the
        # function it wraps, so the re-run adds no span or counter.
        tracer.largest_price = (out.size,
                                type(program).price_grid.__wrapped__, args)


def _on_convergence(tracer: Tracer, report, _args) -> None:
    tracer.peak("replay.adaptive.iterations_max", report.max_iterations)


def _on_adaptive_grid(tracer: Tracer, result, _args) -> None:
    tracer.peak("replay.adaptive.iterations_max", result.max_iterations)
    tracer.add("replay.adaptive.downgraded_points", result.num_unconverged)


def _on_lookup(tracer: Tracer, entry, _args) -> None:
    if entry is not None:
        tracer.add("cache.hits")


def program_targets() -> List[tuple]:
    """Wrap points for the Sweeper's ladder and everything below it."""
    # Modules by import path: the packages re-export functions named
    # like some of their submodules (``repro.whatif.validate``).
    runner = importlib.import_module("repro.experiments.runner")
    backend = importlib.import_module("repro.replay.backend")
    record = importlib.import_module("repro.whatif.record")
    validate = importlib.import_module("repro.whatif.validate")
    from repro.replay.backend import ReplayBackend
    from repro.replay.program import ReplayProgram
    from repro.whatif.evaluate import Evaluator

    return [
        ("runner.panel", runner.Sweeper, "speedup_grid", _on_panel),
        ("sim.run", runner, "run_app", _on_sim),
        # Sweeper's predict ladder imports record_app at call time;
        # ReplayBackend.for_app uses its module-level import.
        ("whatif.record", record, "record_app", None),
        ("whatif.record", backend, "record_app", None),
        ("whatif.evaluate", Evaluator, "evaluate", None),
        ("whatif.validate", validate, "validate", None),
        ("replay.compile", backend, "compile_dag", None),
        ("replay.probe", ReplayBackend, "probe", None),
        ("replay.adaptive", ReplayBackend, "convergence_check",
         _on_convergence),
        ("replay.adaptive", ReplayBackend, "price_grid_adaptive",
         _on_adaptive_grid),
        ("replay.price", ReplayProgram, "price_grid", _on_price),
    ]


def cache_targets(cache) -> List[tuple]:
    """Wrap points on ``SimCache`` lookups and stores (the class, or one
    instance)."""
    return [("cache.lookup", cache, "lookup", _on_lookup),
            ("cache.store", cache, "store", None)]


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, rounds: int) -> Dict[str, float]:
    """Per-round layer metrics from one traced pass of ``rounds`` rounds.

    Spans booked under the ``setup`` run id (a traced set-up) count once;
    spans of the measured rounds are divided by ``rounds``.
    """
    setup = Aggregate([s for s in tracer.spans if s[4] == "setup"])
    measured = Aggregate([s for s in tracer.spans if s[4] != "setup"])
    per = 1.0 / rounds
    counters = tracer.counters

    def calls(name: str) -> float:
        return setup.calls[name] + per * measured.calls[name]

    def busy(name: str) -> float:
        return setup.busy[name] + per * measured.busy[name]

    def per_round(counter: str) -> float:
        return per * counters.get(counter, 0.0)

    m: Dict[str, float] = {}
    for rung in RUNGS:
        m[f"runner.rung.{rung}"] = per_round(f"runner.rung.{rung}")
    m["sim.runs"] = calls("sim.run")
    m["sim.busy_s"] = busy("sim.run")
    m["sim.events"] = per_round("sim.events")
    m["sim.events_per_s"] = _ratio(m["sim.events"], m["sim.busy_s"])
    m["sim.messages"] = per_round("sim.messages")
    m["sim.wan_messages"] = per_round("sim.wan_messages")
    m["whatif.record.calls"] = calls("whatif.record")
    m["whatif.record.busy_s"] = busy("whatif.record")
    m["whatif.evaluate.calls"] = calls("whatif.evaluate")
    m["whatif.evaluate.busy_s"] = busy("whatif.evaluate")
    m["whatif.validate.self_s"] = (setup.self_s["whatif.validate"]
                                   + per * measured.self_s["whatif.validate"])
    m["replay.compile.calls"] = calls("replay.compile")
    m["replay.compile.busy_s"] = busy("replay.compile")
    m["replay.probe.busy_s"] = busy("replay.probe")
    m["replay.price.calls"] = calls("replay.price")
    m["replay.price.points"] = per_round("replay.price.points")
    m["replay.price.busy_s"] = busy("replay.price")
    m["replay.price.us_per_level"] = 1e6 * _ratio(
        setup.busy["replay.price"] + measured.busy["replay.price"],
        counters.get("replay.price.levels", 0.0))
    m["replay.adaptive.busy_s"] = busy("replay.adaptive")
    m["replay.adaptive.iterations_max"] = \
        tracer.maxima.get("replay.adaptive.iterations_max", 0.0)
    m["replay.adaptive.downgraded_points"] = \
        per_round("replay.adaptive.downgraded_points")
    m["cache.lookups"] = calls("cache.lookup")
    m["cache.hits"] = per_round("cache.hits")
    m["cache.hit_ratio"] = _ratio(m["cache.hits"], m["cache.lookups"])
    m["cache.stores"] = calls("cache.store")
    m["cache.lookup_ms"] = measured.median_ms("cache.lookup")
    m["cache.store_ms"] = measured.median_ms("cache.store")
    m["trace.spans"] = per * sum(measured.calls.values())
    return m


def alloc_peak_mb(tracer: Tracer) -> float:
    """Peak traced allocation of the largest ``price_grid`` call, re-run
    once under tracemalloc (kept out of the timed spans)."""
    import tracemalloc

    if tracer.largest_price is None:
        return 0.0
    _points, fn, args = tracer.largest_price
    tracemalloc.start()
    try:
        fn(*args)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2**20


# ----------------------------------------------------------------------
# Simulator sub-layer shares (cProfile)
# ----------------------------------------------------------------------
#: package directory fragment -> share name
SIM_PACKAGES = (("/repro/sim/", "engine"), ("/repro/runtime/", "runtime"),
                ("/repro/network/", "network"), ("/repro/apps/", "apps"))


def _bucket(filename: str, stdlib: str) -> Optional[str]:
    path = filename.replace(os.sep, "/")
    for fragment, share in SIM_PACKAGES:
        if fragment in path:
            return share
    if filename.startswith("~") or filename.startswith(stdlib):
        return "stdlib"                 # builtins and the standard library
    return None


def profile_shares(profiler) -> Dict[str, float]:
    """Share of profiled self time per simulator package and the stdlib."""
    import pstats

    stdlib = sysconfig.get_paths()["stdlib"]
    totals: Dict[str, float] = defaultdict(float)
    grand = 0.0
    for (filename, _line, _func), row in pstats.Stats(profiler).stats.items():
        tottime = row[2]
        grand += tottime
        share = _bucket(filename, stdlib)
        if share is not None:
            totals[share] += tottime
    names = [share for _, share in SIM_PACKAGES] + ["stdlib"]
    return {f"sim.share.{name}": _ratio(totals[name], grand) for name in names}
