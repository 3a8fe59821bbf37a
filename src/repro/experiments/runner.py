"""Sweep driver: relative speedups over the bandwidth x latency grid.

Relative speedup follows the paper exactly: ``T_L / T_M * 100%`` where
``T_L`` is the run time on the all-Myrinet single cluster with the same
number of processors and ``T_M`` the run time on the multi-cluster.
Baseline runs are cached per (app, variant, scale, ranks, seed).

``backend=`` picks where a sweep enters the fallback ladder (the one
description is the "fallback ladder" section of ``docs/replay.md``):

``"simulate"`` (default)
    Full simulation at every grid point.

``"predict"``
    Record the application's communication DAG once (see
    :mod:`repro.whatif`) and price every point with the interpreted
    evaluator — orders of magnitude faster than simulating every point.
    Never compiles or probes, so it needs no numpy.

``"replay"``
    Compile the recorded DAG into a flat vectorized event program (see
    :mod:`repro.replay`) and price the whole grid in one numpy pass;
    order-unstable programs step down to the **vectorized-adaptive**
    rung (:mod:`repro.replay.adaptive`) and then to the predict rung.

The analytic rungs are rows of one table (``_LADDER``); the first row
from the entry down whose gate opens is validated against full
simulation at the four grid corners and prices the grid.  Simulation is
the shared bottom: timing-sensitive recordings (TSP's work stealing,
Awari's arrival-order MARK protocol), active fault plans and
corner-validation failures all land there.  The validation corners
were simulated anyway, so every analytic grid carries them verbatim and
agrees with a full sweep at those points down to the last bit.

``workers=N``
    Run ground-truth grid simulations in a
    :class:`concurrent.futures.ProcessPoolExecutor` with ``N`` workers.
    Results are merged in the serial iteration order, so the produced
    grid is identical to a serial run.  (Per-run reporter records are
    not emitted for pool-side runs.)

``cache=SimCache(...)``
    Memoize every ground-truth runtime on disk; see
    :mod:`repro.experiments.cache`.

``faults=FaultPlan(...)``
    Inject the plan's WAN faults into every *multi-cluster* run (the
    all-Myrinet baseline stays clean — relative speedups then read as
    "degraded WAN vs. ideal LAN", mirroring the paper's T_L / T_M).  A
    fault-bearing sweep disables the accelerators for the faulty runs:
    every backend lands on simulation (recorded DAGs do not model the
    plan's seeded faults), the on-disk cache is bypassed (its key does
    not include the plan), and grid points run serially.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..apps import default_config, run_app
from ..network.topology import Topology
from ..obs.report import RunReporter, run_record
from ..runtime.run import RunResult
from . import grids
from .cache import SimCache


@dataclass
class GridPoint:
    bandwidth_mbyte_s: float
    latency_ms: float
    runtime: float
    relative_speedup_pct: float


@dataclass
class SpeedupGrid:
    """Relative-speedup surface for one application variant."""

    app: str
    variant: str
    baseline_runtime: float
    points: Dict[Tuple[float, float], GridPoint] = field(default_factory=dict)
    #: True when the points were produced by the what-if evaluator
    #: rather than full simulation.
    predicted: bool = False
    #: the :class:`repro.whatif.validate.ValidationReport` backing a
    #: predicted grid (or explaining why prediction fell back), if any.
    validation: Optional[object] = None
    #: the rung of the backend ladder that actually produced the points:
    #: "simulate", "predict", "vectorized-adaptive", or "replay".
    backend: str = "simulate"
    #: the :class:`repro.replay.backend.ProbeReport` measured while
    #: deciding a ``backend="replay"`` sweep, if one was run.
    replay: Optional[object] = None
    #: the :class:`repro.replay.backend.ConvergenceReport` measured for
    #: a probe-unstable program, if the adaptive rung was tried.
    convergence: Optional[object] = None
    #: (bw, lat) points of a "vectorized-adaptive" grid that did not
    #: converge and were re-priced by the interpreted evaluator.
    downgraded_points: List[Tuple[float, float]] = field(default_factory=list)

    def series(self, latency_ms: float) -> List[GridPoint]:
        """One Figure-3 curve: points of a latency series, by bandwidth."""
        if not self.points:
            raise KeyError(
                f"speedup grid for {self.app}/{self.variant} has no points "
                f"yet — populate it with Sweeper.speedup_grid() before "
                f"calling series()")
        bws = sorted({bw for bw, lat in self.points if lat == latency_ms})
        if not bws:
            available = ", ".join(
                f"{lat:g}" for lat in sorted({lat for _, lat in self.points}))
            raise KeyError(
                f"speedup grid for {self.app}/{self.variant} has no "
                f"latency={latency_ms:g} ms series; available latencies: "
                f"{available} ms")
        return [self.points[(bw, latency_ms)] for bw in bws]


#: the paper's 4x8 full-mesh shape, as ``(clusters, cluster_size, wan_shape)``
PAPER_SHAPE = (grids.NUM_CLUSTERS, grids.CLUSTER_SIZE, "full")

#: why a fault-bearing sweep never takes an analytic rung
_FAULTS_REASON = ("fault injection active: recorded DAGs and compiled "
                  "programs do not model the plan's seeded loss, outages, "
                  "or retransmission; simulating every grid point")

_Runtimes = Dict[Tuple[float, float], float]


@dataclass
class LadderDecision:
    """Memoized outcome of the fallback ladder for one app and shape.

    ``rung`` is the analytic row that prices the grid, or None when
    simulation does; ``backend`` the
    :class:`~repro.replay.backend.ReplayBackend` (compiled entries
    only); ``evaluator`` the interpreted
    :class:`~repro.whatif.evaluate.Evaluator` — the predict rung's
    pricer and the adaptive rung's per-point downgrade target;
    ``report`` the ground-truth
    :class:`~repro.whatif.validate.ValidationReport`; ``probe`` and
    ``convergence`` the replay and adaptive gates' measurements, when
    they ran.
    """

    shape: Tuple[int, int, str] = PAPER_SHAPE
    rung: Optional["_Rung"] = None
    backend: Optional[object] = None
    evaluator: Optional[object] = None
    report: Optional[object] = None
    probe: Optional[object] = None
    convergence: Optional[object] = None

    @property
    def mode(self) -> str:
        """The rung label: "replay", "vectorized-adaptive", "predict",
        or "simulate"."""
        return self.rung.name if self.rung is not None else "simulate"

    def topology(self, bw: float, lat: float) -> Topology:
        return grids.multi_cluster(bw, lat, *self.shape)

    def evaluate(self, bw: float, lat: float) -> float:
        return self.evaluator.evaluate(self.topology(bw, lat))


@dataclass(frozen=True)
class _Rung:
    """One analytic rung of the fallback ladder, as data."""

    name: str
    #: needs the compiled program (and so numpy)
    compiled: bool
    #: does the rung open?  Runs and records the rung's own check.
    gate: Callable[[LadderDecision], bool]
    #: the ``evaluate(topology)`` object corner validation checks
    validator: Callable[[LadderDecision], object]
    #: ``(decision, bandwidths, latencies) -> (runtimes, downgraded)``
    price_grid: Callable[..., Tuple[_Runtimes, List[Tuple[float, float]]]]
    #: ``(decision, bw, lat) -> runtime``
    price_point: Callable[[LadderDecision, float, float], float]


def _probe_gate(d: LadderDecision) -> bool:
    d.probe = d.backend.probe()
    return d.probe.stable


def _program_validator(d: LadderDecision):
    from ..replay.backend import _ProgramEvaluator
    return _ProgramEvaluator(d.backend.program)


def _replay_grid(d: LadderDecision, bandwidths, latencies):
    priced = d.backend.price_grid(bandwidths, latencies)
    return {(bw, lat): float(priced[i][j])
            for i, lat in enumerate(latencies)
            for j, bw in enumerate(bandwidths)}, []


def _convergence_gate(d: LadderDecision) -> bool:
    d.convergence = d.backend.convergence_check()
    return d.convergence.converged


def _adaptive_validator(d: LadderDecision):
    from ..replay.backend import _AdaptiveEvaluator
    return _AdaptiveEvaluator(d.backend.prepare_adaptive())


def _adaptive_grid(d: LadderDecision, bandwidths, latencies):
    result = d.backend.price_grid_adaptive(bandwidths, latencies)
    runtimes: _Runtimes = {}
    downgraded: List[Tuple[float, float]] = []
    for i, lat in enumerate(latencies):
        for j, bw in enumerate(bandwidths):
            if bool(result.converged[i][j]):
                runtimes[(bw, lat)] = float(result.runtimes[i][j])
            else:
                # A point the iteration could not fix is re-priced by the
                # interpreted evaluator, never trusted at its capped value.
                downgraded.append((bw, lat))
                runtimes[(bw, lat)] = d.evaluate(bw, lat)
    return runtimes, downgraded


def _adaptive_point(d: LadderDecision, bw: float, lat: float) -> float:
    runtime, converged, _iters = \
        d.backend.prepare_adaptive().price_adaptive(d.topology(bw, lat))
    return runtime if converged else d.evaluate(bw, lat)


def _evaluator_grid(d: LadderDecision, bandwidths, latencies):
    return {(bw, lat): d.evaluate(bw, lat)
            for lat in latencies for bw in bandwidths}, []


#: The analytic rungs, top (fastest) first.  ``backend=`` names the
#: entry row; the first row from there whose gate opens is validated,
#: and a validation miss lands on simulation, the shared bottom.
_LADDER = (
    _Rung("replay", True, _probe_gate, _program_validator, _replay_grid,
          lambda d, bw, lat: d.backend.price(bw, lat)),
    _Rung("vectorized-adaptive", True, _convergence_gate,
          _adaptive_validator, _adaptive_grid, _adaptive_point),
    _Rung("predict", False, lambda d: True, lambda d: d.evaluator,
          _evaluator_grid, LadderDecision.evaluate),
)
_ENTRY = {**{rung.name: i for i, rung in enumerate(_LADDER)},
          "simulate": len(_LADDER)}


def point_key(app: str, variant: str, scale: str, seed: int,
              bandwidth_mbyte_s: float, latency_ms: float,
              clusters: int = grids.NUM_CLUSTERS,
              cluster_size: int = grids.CLUSTER_SIZE,
              wan_shape: str = "full") -> str:
    """Content-addressed :class:`SimCache` key for one clean grid point.

    This is *the* per-point identity the sweep machinery and
    :mod:`repro.serve` share: two processes (or two users' job
    submissions) that name the same ``(app, variant, scale, seed,
    grid-point, cluster shape)`` compute the same key and therefore
    dedup against the same on-disk entry.  The key is a pure function of
    its arguments — no process state, no dict iteration order — backed
    by :meth:`~repro.network.topology.Topology.fingerprint`.
    """
    topo = grids.multi_cluster(bandwidth_mbyte_s, latency_ms, clusters,
                               cluster_size, wan_shape)
    return SimCache.key(app, variant, scale, seed, topo)


def baseline_key(app: str, variant: str, scale: str, seed: int,
                 num_ranks: int = grids.NUM_RANKS) -> str:
    """:class:`SimCache` key for the all-Myrinet baseline run."""
    return SimCache.key(app, variant, scale, seed, grids.baseline(num_ranks))


def _simulate_point(payload: tuple) -> Tuple[float, float, float]:
    """Worker-process task: one ground-truth grid simulation.

    Module-level so it pickles for :class:`ProcessPoolExecutor`; returns
    ``(bandwidth, latency_ms, runtime)``.
    """
    (app, variant, scale, seed, bw, lat, clusters, cluster_size,
     wan_shape) = payload
    topo = grids.multi_cluster(bw, lat, clusters, cluster_size, wan_shape)
    config = default_config(app, scale)
    result = run_app(app, variant, topo, config=config, seed=seed)
    return (bw, lat, result.runtime)


class Sweeper:
    """Runs applications over grids with baseline caching.

    Pass ``reporter=`` (a :class:`~repro.obs.report.RunReporter`) to get
    one machine-readable JSON-lines record per simulated run — config,
    seed, topology, sim/wall time, and the full traffic summary — the raw
    material sharded/async sweep drivers resume from.
    """

    def __init__(self, scale: str = "bench", seed: int = 0,
                 reporter: Optional[RunReporter] = None,
                 workers: Optional[int] = None,
                 cache: Optional[SimCache] = None,
                 tolerance_pp: float = 5.0,
                 faults=None,
                 backend: str = "simulate") -> None:
        if backend not in ("simulate", "predict", "replay"):
            raise ValueError(
                f"unknown sweep backend {backend!r}: expected 'simulate', "
                f"'predict', or 'replay'")
        self.scale = scale
        self.seed = seed
        self.reporter = reporter
        self.backend = backend
        self.workers = workers
        self.cache = cache
        self.tolerance_pp = tolerance_pp
        self.faults = faults
        self._baseline_cache: Dict[Tuple[str, str, int], float] = {}
        #: (app, variant, clusters, cluster_size, wan_shape) -> decision
        self._decisions: Dict[tuple, LadderDecision] = {}

    @property
    def _active_faults(self):
        """The sweep's :class:`FaultPlan` when it changes runs, else None."""
        plan = self.faults
        if plan is not None and plan.active:
            return plan
        return None

    # ------------------------------------------------------------------
    def run_on(self, app: str, variant: str, topo: Topology,
               faults=None) -> RunResult:
        config = default_config(app, self.scale)
        result = run_app(app, variant, topo, config=config, seed=self.seed,
                         faults=faults)
        if self.reporter is not None:
            self.reporter.emit(run_record(
                result.machine, result.runtime, result.wall_time,
                meta={"app": app, "variant": variant, "scale": self.scale,
                      "harness": "sweeper"}))
        return result

    def _sim_runtime(self, app: str, variant: str, topo: Topology,
                     faults=None) -> float:
        """Ground-truth runtime for one point, via the on-disk cache.

        Fault-bearing runs bypass the cache entirely — its key does not
        encode the plan, so a hit from (or a store into) a clean sweep
        would silently mix clean and degraded runtimes.
        """
        if faults is None and self.cache is not None:
            hit = self.cache.get(app, variant, self.scale, self.seed, topo)
            if hit is not None:
                return hit
        runtime = self.run_on(app, variant, topo, faults=faults).runtime
        if faults is None and self.cache is not None:
            self.cache.put(app, variant, self.scale, self.seed, topo, runtime)
        return runtime

    def baseline_runtime(self, app: str, variant: str,
                         num_ranks: int = grids.NUM_RANKS) -> float:
        key = (app, variant, num_ranks)
        if key not in self._baseline_cache:
            self._baseline_cache[key] = self._sim_runtime(
                app, variant, grids.baseline(num_ranks))
        return self._baseline_cache[key]

    # ------------------------------------------------------------------
    # The fallback ladder
    # ------------------------------------------------------------------
    def decide(self, app: str, variant: str,
               shape: Tuple[int, int, str] = PAPER_SHAPE) -> LadderDecision:
        """The ladder's decision for (app, variant, shape), memoized.

        Raises :class:`~repro.replay.ReplayUnavailable` when a compiled
        rung is the entry and numpy is missing — asking for the
        vectorized backend without its one dependency is a setup error,
        not a fallback condition.
        """
        shape = tuple(shape)
        key = (app, variant) + shape
        if key not in self._decisions:
            decision = self._walk(app, variant, shape)
            self._decisions[key] = decision
            if self.backend == "replay":
                self._emit_replay_record(app, variant, decision)
        return self._decisions[key]

    def _walk(self, app: str, variant: str,
              shape: Tuple[int, int, str]) -> LadderDecision:
        from ..whatif.evaluate import Evaluator
        from ..whatif.validate import ValidationReport, corner_points, validate

        decision = LadderDecision(shape=shape)

        def fall_back(reason: str) -> LadderDecision:
            decision.report = ValidationReport(
                app=app, variant=variant, tolerance_pp=self.tolerance_pp,
                fallback=True, reason=reason)
            return decision

        rungs = _LADDER[_ENTRY[self.backend]:]
        if not rungs:
            return decision
        if self._active_faults is not None:
            return fall_back(_FAULTS_REASON)

        if rungs[0].compiled:
            from ..replay.backend import ReplayBackend
            from ..replay.compile import CompileError

            decision.backend = ReplayBackend.for_app(
                app, variant, scale=self.scale, seed=self.seed,
                cache=self.cache)
            recording = decision.backend.recording
        else:
            from ..whatif.record import record_app

            recording = record_app(app, variant, scale=self.scale,
                                   seed=self.seed)
        if recording.timing_sensitive:
            decision.report = validate(recording, 1.0, lambda bw, lat: 1.0,
                                       [], tolerance_pp=self.tolerance_pp)
            return decision
        if decision.backend is not None:
            try:
                decision.backend.prepare()
            except CompileError as err:
                return fall_back(f"replay compilation failed: {err}")
            decision.evaluator = decision.backend.evaluator
        else:
            decision.evaluator = Evaluator(recording.dag)

        # The predict row's gate always opens, so a rung is found.
        rung = next(r for r in rungs if r.gate(decision))
        clusters, cluster_size, _wan_shape = shape
        baseline = self.baseline_runtime(app, variant,
                                         clusters * cluster_size)
        # Ground-truth corner validation of the rung's own pricer.  A
        # miss lands on simulation, not the next rung: every rung prices
        # the same recording, so the recording is what is wrong there.
        decision.report = validate(
            recording, baseline_runtime=baseline,
            simulate=lambda bw, lat: self._sim_runtime(
                app, variant, decision.topology(bw, lat)),
            points=corner_points(grids.BANDWIDTHS_MBYTE_S, grids.LATENCIES_MS),
            tolerance_pp=self.tolerance_pp,
            evaluator=rung.validator(decision),
            topology_for=decision.topology)
        if not decision.report.fallback:
            decision.rung = rung
        return decision

    def _emit_replay_record(self, app: str, variant: str,
                            decision: LadderDecision) -> None:
        if self.reporter is None:
            return
        from ..replay.backend import replay_record

        backend = decision.backend
        program = getattr(backend, "program", None)
        self.reporter.emit(replay_record(
            app=app, variant=variant, scale=self.scale, seed=self.seed,
            mode=decision.mode,
            program_stats=program.stats() if program is not None else None,
            timings=backend.timings if backend is not None else None,
            from_cache=backend.from_cache if backend is not None else False,
            probe_summary=(decision.probe.summary()
                           if decision.probe is not None else None),
            validation_summary=(decision.report.summary()
                                if decision.report is not None else None),
            static_hint=(backend.static_hint
                         if backend is not None else None),
            convergence_summary=(decision.convergence.summary()
                                 if decision.convergence is not None
                                 else None),
            meta={"harness": "sweeper"}))

    # ------------------------------------------------------------------
    def _simulate_grid(self, app: str, variant: str,
                       points: Sequence[Tuple[float, float]],
                       shape: Tuple[int, int, str] = PAPER_SHAPE
                       ) -> _Runtimes:
        """Ground-truth runtimes for ``points``, serial or pooled.

        The parallel path checks the on-disk cache up front, fans the
        misses out to a process pool, and merges in the serial iteration
        order — the resulting dict is identical to a serial sweep's.
        Fault-bearing sweeps always run serially (the pool payload does
        not carry the plan) and never touch the cache; so do single
        points, which a pool would only slow down.
        """
        faults = self._active_faults
        runtimes: Dict[Tuple[float, float], Optional[float]] = {}
        if self.workers and self.workers > 1 and faults is None and \
                len(points) > 1:
            from concurrent.futures import ProcessPoolExecutor

            misses: List[Tuple[float, float]] = []
            for bw, lat in points:
                hit = None
                if self.cache is not None:
                    entry = self.cache.lookup(point_key(
                        app, variant, self.scale, self.seed, bw, lat, *shape))
                    if entry is not None and "runtime" in entry:
                        hit = float(entry["runtime"])
                runtimes[(bw, lat)] = hit
                if hit is None:
                    misses.append((bw, lat))
            if misses:
                payloads = [(app, variant, self.scale, self.seed, bw, lat)
                            + tuple(shape) for bw, lat in misses]
                with ProcessPoolExecutor(max_workers=self.workers) as pool:
                    for bw, lat, runtime in pool.map(_simulate_point, payloads):
                        runtimes[(bw, lat)] = runtime
                        if self.cache is not None:
                            self.cache.put(app, variant, self.scale, self.seed,
                                           grids.multi_cluster(bw, lat, *shape),
                                           runtime)
        else:
            for bw, lat in points:
                runtimes[(bw, lat)] = self._sim_runtime(
                    app, variant, grids.multi_cluster(bw, lat, *shape),
                    faults=faults)
        return runtimes

    def _panel(self, app: str, variant: str, bandwidths: Sequence[float],
               latencies: Sequence[float],
               shape: Tuple[int, int, str] = PAPER_SHAPE,
               point: bool = False) -> SpeedupGrid:
        """The one pricing path behind :meth:`speedup_grid` and
        :meth:`speedup_at` (``point=True``: the rung's point pricer)."""
        clusters, cluster_size, _wan_shape = shape
        base = self.baseline_runtime(app, variant, clusters * cluster_size)
        decision = self.decide(app, variant, shape)
        grid = SpeedupGrid(app=app, variant=variant, baseline_runtime=base,
                           predicted=decision.rung is not None,
                           validation=decision.report, backend=decision.mode,
                           replay=decision.probe,
                           convergence=decision.convergence)
        ordered = [(bw, lat) for lat in latencies for bw in bandwidths]
        rung = decision.rung
        if rung is None:
            runtimes = self._simulate_grid(app, variant, ordered, shape)
        elif point:
            runtimes = {(bw, lat): rung.price_point(decision, bw, lat)
                        for bw, lat in ordered}
        else:
            runtimes, grid.downgraded_points = rung.price_grid(
                decision, bandwidths, latencies)
        if rung is not None:
            # The validation corners were simulated anyway — splice the
            # ground truth in so analytic grids agree with full sweeps
            # bit-for-bit at the spot-check points.
            for vp in decision.report.points:
                key = (vp.bandwidth_mbyte_s, vp.latency_ms)
                if key in runtimes:
                    runtimes[key] = vp.simulated_runtime
        for bw, lat in ordered:
            runtime = runtimes[(bw, lat)]
            grid.points[(bw, lat)] = GridPoint(
                bandwidth_mbyte_s=bw, latency_ms=lat, runtime=runtime,
                relative_speedup_pct=100.0 * base / runtime)
        return grid

    def speedup_at(self, app: str, variant: str, bandwidth: float,
                   latency_ms: float, clusters: int = grids.NUM_CLUSTERS,
                   cluster_size: int = grids.CLUSTER_SIZE,
                   wan_shape: str = "full") -> GridPoint:
        """One grid point, on any cluster shape."""
        grid = self._panel(app, variant, [bandwidth], [latency_ms],
                           (clusters, cluster_size, wan_shape), point=True)
        return grid.points[(bandwidth, latency_ms)]

    def speedup_grid(self, app: str, variant: str,
                     bandwidths=grids.BANDWIDTHS_MBYTE_S,
                     latencies=grids.LATENCIES_MS) -> SpeedupGrid:
        """The full Figure-3 panel for one application variant."""
        return self._panel(app, variant, bandwidths, latencies)

    # ------------------------------------------------------------------
    def communication_time_pct(self, app: str, variant: str, bandwidth: float,
                               latency_ms: float) -> float:
        """Figure 4's metric: (T_M - T_L) / T_M * 100."""
        point = self.speedup_at(app, variant, bandwidth, latency_ms)
        base = self.baseline_runtime(app, variant)
        return max(0.0, 100.0 * (point.runtime - base) / point.runtime)
