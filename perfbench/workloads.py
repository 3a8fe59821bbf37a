"""The four benchmark workloads.

Each workload has a ``setup`` (repeatable; the runner times several and
reports the median), a measured ``round`` that returns the points and
per-job latencies it delivered, and a ``check`` that books the round's
outputs against the reference table.  See README.md for why each one
exists and which layers it stresses.
"""

from __future__ import annotations

import os
import shutil
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from . import inputs
from .reference import Checker, Reference

clock = time.perf_counter


@dataclass
class Round:
    """What one measured round delivered."""

    points: int
    #: (start, end) perf_counter stamps per job: a panel, a priced grid,
    #: or a served job
    jobs: List[Tuple[float, float]] = field(default_factory=list)


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 100])."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class Workload:
    name = ""
    #: the traced run also traces one set-up (where its layers work)
    trace_setup = False
    #: calibration kernel matching the work: "python" or "numpy"
    calibration = "python"
    #: measured rounds a run makes even past its time budget
    min_rounds = 1
    #: end each job with a full collection, timed as part of it, so each
    #: job pays for its own garbage and not for collections its
    #: predecessors' allocations made due (too slow for 2 ms jobs)
    collect_between_jobs = True

    def __init__(self, seed: int, reference: Reference, work_dir: str) -> None:
        self.seed = seed
        self.app_seed = inputs.app_seed(seed)
        self.reference = reference
        self.work_dir = work_dir
        self.outputs: List[Any] = []

    def setup(self) -> None:
        raise NotImplementedError

    def round(self, tracer=None, between=clock) -> Round:
        """One measured round.  Calls ``between()`` at the end of each
        job; what it returns is the job's end stamp."""
        raise NotImplementedError

    def check(self, checker: Checker) -> None:
        raise NotImplementedError

    def trace_targets(self) -> List[tuple]:
        return []

    def reset_trace_window(self) -> None:
        """Forget per-job samples gathered before the traced pass."""

    def traced_metrics(self, rounds: int) -> Dict[str, float]:
        return {}

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# Figure-3 regeneration through the Sweeper
# ----------------------------------------------------------------------
class _SweeperWorkload(Workload):
    """Regenerates a set of panels with one fresh, cache-less Sweeper."""

    backend = "simulate"
    panels = inputs.PANELS

    def _axes(self):
        raise NotImplementedError

    def setup(self) -> None:
        from repro.experiments.runner import Sweeper
        from repro.lint.proto.report import order_stability_label

        # Lazy process-wide state the measured rounds would otherwise
        # pay once: each app's first simulation and the ladder's static
        # order-stability hints.
        sweeper = Sweeper(scale="bench", seed=self.app_seed)
        first_variant: Dict[str, str] = {}
        for app, variant in self.panels:
            first_variant.setdefault(app, variant)
        for app, variant in first_variant.items():
            sweeper.baseline_runtime(app, variant)
        for app, variant in self.panels:
            order_stability_label(app, variant)

    def round(self, tracer=None, between=clock) -> Round:
        from repro.experiments.runner import Sweeper

        bandwidths, latencies = self._axes()
        sweeper = Sweeper(scale="bench", seed=self.app_seed,
                          backend=self.backend)
        self.outputs = []
        jobs = []
        points = 0
        for app, variant in self.panels:
            t0 = clock()
            try:
                grid = sweeper.speedup_grid(app, variant,
                                            bandwidths=bandwidths,
                                            latencies=latencies)
            except Exception as exc:    # booked as failed points by check()
                grid = exc
            jobs.append((t0, between()))
            if not isinstance(grid, Exception):
                points += len(grid.points) + 1
            self.outputs.append((app, variant, grid))
        return Round(points=points, jobs=jobs)

    def check(self, checker: Checker) -> None:
        bandwidths, latencies = self._axes()
        corners = self.reference.corners()
        for app, variant, grid in self.outputs:
            label = f"{self.name} {app}/{variant}"
            if isinstance(grid, Exception):
                checker.fail(label, grid,
                             count=len(bandwidths) * len(latencies) + 1)
                continue
            runtimes = {key: p.runtime for key, p in grid.points.items()}
            expected = {(bw, lat) for lat in latencies for bw in bandwidths}
            if set(runtimes) != expected:
                checker.fail(label, ValueError("grid points differ from "
                                               "the requested axes"),
                             count=len(expected) + 1)
                continue
            exact = None if grid.backend == "simulate" else corners
            for ok in checker.check_grid(app, variant, grid.baseline_runtime,
                                         runtimes, exact, label):
                checker.record(ok)


class Fig3Simulate(_SweeperWorkload):
    """All 11 panels by full simulation on one seeded sub-grid."""

    name = "fig3-simulate"

    def _axes(self):
        return inputs.subgrid(self.seed)


class Fig3Replay(_SweeperWorkload):
    """The 7 analytic panels on full 42-point grids, backend="replay"."""

    name = "fig3-replay"
    backend = "replay"
    panels = inputs.REPLAY_PANELS

    def _axes(self):
        return list(inputs.BANDWIDTHS), list(inputs.LATENCIES)


# ----------------------------------------------------------------------
# Dense-grid pricing
# ----------------------------------------------------------------------
class DenseGrid(Workload):
    """``ReplayBackend.price_grid`` on wide grids of the order-stable panels."""

    name = "dense-grid"
    trace_setup = True
    calibration = "numpy"

    def __init__(self, seed: int, reference: Reference, work_dir: str) -> None:
        super().__init__(seed, reference, work_dir)
        self.bandwidths, self.latencies = inputs.dense_axes(seed)
        self.backends: List[Any] = []

    def setup(self) -> None:
        from repro.replay.backend import ReplayBackend

        self.backends = []
        for app, variant in inputs.DENSE_PANELS:
            backend = ReplayBackend.for_app(app, variant, scale="bench",
                                            seed=self.app_seed)
            backend.prepare()
            backend.probe()
            self.backends.append(backend)

    def round(self, tracer=None, between=clock) -> Round:
        self.outputs = []
        jobs = []
        points = 0
        for (app, variant), backend in zip(inputs.DENSE_PANELS,
                                           self.backends):
            t0 = clock()
            try:
                priced = backend.price_grid(self.bandwidths, self.latencies)
            except Exception as exc:    # booked as failed points by check()
                priced = exc
            jobs.append((t0, between()))
            if not isinstance(priced, Exception):
                points += int(priced.size)
            self.outputs.append((app, variant, priced))
        return Round(points=points, jobs=jobs)

    def check(self, checker: Checker) -> None:
        import numpy as np

        ref = self.reference
        size = len(self.bandwidths) * len(self.latencies)
        axis_bw = [self.bandwidths.index(bw) for bw in ref.bandwidths]
        axis_lat = [self.latencies.index(lat) for lat in ref.latencies]
        for app, variant, priced in self.outputs:
            label = f"{self.name} {app}/{variant}"
            if isinstance(priced, Exception):
                checker.fail(label, priced, count=size)
                continue
            if priced.shape != (len(self.latencies), len(self.bandwidths)):
                checker.fail(label, ValueError(f"shape {priced.shape}"),
                             count=size)
                continue
            sane = np.isfinite(priced) & (priced > 0.0)
            base = ref.baseline(self.app_seed, app, variant)
            for i, lat in zip(axis_lat, ref.latencies):
                for j, bw in zip(axis_bw, ref.bandwidths):
                    want = ref.runtime(self.app_seed, app, variant, bw, lat)
                    checker.record(bool(sane[i, j]) and checker.analytic(
                        f"{label} ({bw:g} MB/s, {lat:g} ms)", base,
                        float(priced[i, j]), base, want))
            off_axis = np.ones(priced.shape, dtype=bool)
            off_axis[np.ix_(axis_lat, axis_bw)] = False
            bad = int((off_axis & ~sane).sum())
            if bad:
                checker.note(f"{label}: {bad} non-finite or non-positive "
                             f"runtimes")
            checker.record(True, count=int(off_axis.sum()) - bad)
            checker.record(False, count=bad)


# ----------------------------------------------------------------------
# Served job mix
# ----------------------------------------------------------------------
class ServeMix(Workload):
    """A closed-loop client driving a live ServeServer with a Zipf mix."""

    name = "serve-mix"
    collect_between_jobs = False
    min_rounds = -(-inputs.SERVE_RUN_JOBS // inputs.SERVE_JOBS)

    def __init__(self, seed: int, reference: Reference, work_dir: str) -> None:
        super().__init__(seed, reference, work_dir)
        self.catalogue = inputs.serve_catalogue(seed)
        self.sequence = inputs.serve_sequence(self.catalogue, seed)
        self.harness = None
        self._setups = 0
        self._rounds = 0
        self._round_cache: Optional[str] = None
        #: per served job: (submit_s, first_result_s, latency_s, wall_s,
        #: points dispatched)
        self.job_times: List[tuple] = []
        self._counters: Dict[str, float] = {}

    def setup(self) -> None:
        from .servemix import ServeHarness

        self.close()
        self._setups += 1
        root = os.path.join(self.work_dir, f"setup-{self._setups}")
        self.harness = ServeHarness(root)
        self.harness.warm()

    def round(self, tracer=None, between=clock) -> Round:
        harness = self.harness
        self._rounds += 1
        self._round_cache = os.path.join(self.work_dir,
                                         f"round-{self._rounds}")
        harness.use_cache(self._round_cache)
        before = {name: harness.counter(name) for name in _SERVE_COUNTERS}
        self.outputs = []
        jobs = []
        points = 0
        for index in self.sequence:
            spec = self.catalogue[index]
            t0 = clock()
            try:
                records, t_submit, t_first, latency, job = \
                    harness.run_job(spec, tracer)
            except Exception as exc:    # booked as a failed job by check()
                jobs.append((t0, clock()))
                self.outputs.append((spec, exc))
            else:
                jobs.append((t0, t0 + latency))
                self.job_times.append((t_submit, t_first, latency,
                                       job.wall_s, job.dispatched))
                points += job.points_done
                self.outputs.append((spec, records))
            between()
        for name in _SERVE_COUNTERS:
            self._counters[name] = self._counters.get(name, 0.0) + \
                harness.counter(name) - before[name]
        return Round(points=points, jobs=jobs)

    def check(self, checker: Checker) -> None:
        for spec, records in self.outputs:
            label = (f"{self.name} {spec['kind']} {spec['app']}/"
                     f"{spec['variant']}")
            if isinstance(records, Exception):
                checker.fail(label, records)
                continue
            checker.record(self._job_ok(checker, spec, records, label))
        self.outputs = []
        self.harness.forget_jobs()
        if self._round_cache is not None:
            shutil.rmtree(self._round_cache, ignore_errors=True)

    def _job_ok(self, checker: Checker, spec: Dict[str, Any],
                records: List[Dict[str, Any]], label: str) -> bool:
        end = records[-1] if records else {}
        if end.get("kind") != "end" or end.get("state") != "done":
            checker.note(f"{label}: ended {end.get('state')!r} "
                                 f"{end.get('error', '')}")
            return False
        bases = [r for r in records if r.get("kind") == "baseline"]
        runtimes = {(r["bandwidth_mbyte_s"], r["latency_ms"]): r.get("runtime")
                    for r in records if r.get("kind") == "point"}
        bandwidths = spec.get("bandwidths", self.reference.bandwidths)
        latencies = spec.get("latencies", self.reference.latencies)
        expected = {(bw, lat) for lat in latencies for bw in bandwidths}
        if len(bases) != 1 or set(runtimes) != expected:
            checker.note(f"{label}: stream lacks its baseline or "
                                 f"points")
            return False
        base = bases[0]
        if spec["kind"] == "sweep" or base.get("mode") == "simulate" or \
                not base.get("predicted", True):
            exact = None                          # simulated end to end
        elif spec["kind"] == "replay":
            exact = self.reference.corners()      # validation sims spliced
        else:
            exact = []                            # predict path: no splice
        return all(checker.check_grid(spec["app"], spec["variant"],
                                      base["runtime"], runtimes, exact,
                                      label))

    def trace_targets(self) -> List[tuple]:
        from repro.experiments.cache import SimCache

        from .tracing import cache_targets
        # The scheduler's cache is swapped each round, so wrap the class:
        # in this process only the scheduler's SimCache instances exist.
        return cache_targets(SimCache)

    def reset_trace_window(self) -> None:
        self.job_times = []
        self._counters = {}

    def traced_metrics(self, rounds: int) -> Dict[str, float]:
        times = self.job_times
        m = {
            "serve.submit_ms": 1e3 * percentile([t[0] for t in times], 50),
            "serve.first_record_ms":
                1e3 * percentile([t[1] for t in times], 50),
            "serve.server_job_ms":
                1e3 * percentile([t[3] for t in times], 50),
            "serve.http_overhead_ms":
                1e3 * percentile([t[2] - t[3] for t in times], 50),
            "serve.jobs.warm_frac":
                sum(t[4] == 0 for t in times) / len(times),
        }
        for name in _SERVE_COUNTERS:
            m[name] = self._counters.get(name, 0.0) / rounds
        return m

    def close(self) -> None:
        if self.harness is not None:
            harness, self.harness = self.harness, None
            harness.close()


_SERVE_COUNTERS = ("serve.points.dispatched", "serve.points.cache_hits",
                   "serve.jobs.rejected")

WORKLOADS = {cls.name: cls for cls in (Fig3Simulate, Fig3Replay, DenseGrid,
                                       ServeMix)}
