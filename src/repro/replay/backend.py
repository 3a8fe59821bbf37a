"""The replay backend: record once, compile once, re-price everywhere.

:class:`ReplayBackend` packages the full pipeline for one
``(app, variant, scale, seed)``:

1. **Record** the communication DAG at the reference point
   (:func:`~repro.whatif.record.record_app`), exactly like the what-if
   predict path.
2. **Compile or load** the :class:`~repro.replay.program.ReplayProgram`.
   Compiled programs are content-addressed into
   :class:`~repro.experiments.cache.SimCache` (key includes the recorded
   topology fingerprint and the program format version), so a service
   cold start pays a millisecond JSON load instead of a recording run.
3. **Probe** the program against the reference
   :class:`~repro.whatif.evaluate.Evaluator` at the grid corners.  The
   compiled program freezes every contention order (resource queues,
   daemon service) at the reference point; the probe measures how much
   that frozen order matters at the grid extremes.  DAGs whose orders are
   stable (asp, barnes: sub-0.3%% everywhere) price vectorized; DAGs
   whose orders flip (fft's pipelined transpose rounds, water's daemon
   scheduling) are flagged *order-unstable* and the caller downgrades to
   the per-point predict path — still analytic, just interpreted.
4. **Converge** (order-unstable programs only): compile the adaptive
   variant (:func:`compile_dag` with ``adaptive=True``) and run the
   :class:`~repro.replay.adaptive.AdaptiveProgram` fixed-point engine at
   the same corners.  Programs whose re-sorted orders converge (fft)
   price vectorized-adaptively; programs whose value feedback is too
   deep to fix within the iteration cap (water) downgrade per the old
   ladder.
5. **Price** whole grids in one vectorized pass, including the
   loss-rate axis the interpreted paths do not offer.

The fallback ladder, each rung guarded by the next: vectorized replay →
(order-unstable) → vectorized-adaptive → (unconverged at the corners) →
predict path → (timing-sensitive, faults, corner validation failure) →
full simulation.  The ladder itself lives in
:class:`~repro.experiments.runner.Sweeper` (its rungs are data rows over
this class's probe, convergence check and pricers); the "fallback
ladder" section of ``docs/replay.md`` describes it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..experiments import grids
from ..experiments.cache import SimCache
from ..network.topology import Topology
from ..whatif.evaluate import Evaluator
from ..whatif.record import Recording, record_app
from .adaptive import ADAPTIVE_FORMAT, DEFAULT_MAX_ITERS, AdaptiveProgram
from .compile import CompileError, compile_dag
from .program import PROGRAM_FORMAT, ReplayProgram

#: Default maximum |program - evaluator| / evaluator runtime disagreement
#: at a probe point before the DAG is declared order-unstable.  The gap
#: between stable and unstable DAGs is wide (<0.3% vs >10%), so the
#: exact threshold is not delicate.
PROBE_REL_TOL = 0.02


@dataclass
class ProbePoint:
    """Program vs evaluator at one grid point (both analytic)."""

    bandwidth_mbyte_s: float
    latency_ms: float
    replay_runtime: float
    evaluator_runtime: float

    @property
    def rel_error(self) -> float:
        return abs(self.replay_runtime - self.evaluator_runtime) \
            / self.evaluator_runtime


@dataclass
class ProbeReport:
    """Stability verdict for one compiled program.

    This is *not* the ground-truth validation (that stays
    :func:`repro.whatif.validate.validate`, against full simulation): it
    isolates the one error the compilation step adds on top of the
    evaluator — frozen contention order — so the backend can downgrade
    to the interpreted evaluator precisely when compilation, not
    recording, is what broke.
    """

    rel_tol: float
    points: List[ProbePoint] = field(default_factory=list)

    @property
    def max_rel_error(self) -> float:
        return max((p.rel_error for p in self.points), default=0.0)

    @property
    def stable(self) -> bool:
        return self.max_rel_error <= self.rel_tol

    def summary(self) -> str:
        if self.stable:
            return (f"order-stable: max frozen-order error "
                    f"{self.max_rel_error:.2%} over {len(self.points)} "
                    f"probe points (tolerance {self.rel_tol:.0%})")
        return (f"order-unstable: frozen-order error "
                f"{self.max_rel_error:.2%} exceeds {self.rel_tol:.0%} "
                f"at the grid corners; trying the adaptive engine")


@dataclass
class ConvergencePoint:
    """Adaptive engine vs evaluator at one grid corner."""

    bandwidth_mbyte_s: float
    latency_ms: float
    adaptive_runtime: float
    evaluator_runtime: float
    converged: bool
    iterations: int

    @property
    def rel_error(self) -> float:
        return abs(self.adaptive_runtime - self.evaluator_runtime) \
            / self.evaluator_runtime


@dataclass
class ConvergenceReport:
    """Outcome of the adaptive corner check for one compiled program.

    The probe asked "does the frozen order hold?"; this asks the next
    question down the ladder: "does the re-sorting iteration *find* the
    right order?".  At a converged point the engine's fixed point is the
    serve-in-arrival-order schedule, so its price must agree with the
    interpreted evaluator to float noise; a converged corner whose
    price still disagrees beyond ``rel_tol`` means the recording itself
    (not the iteration) is wrong there, and also fails the check.
    """

    rel_tol: float
    max_iters: int
    points: List[ConvergencePoint] = field(default_factory=list)

    @property
    def max_rel_error(self) -> float:
        return max((p.rel_error for p in self.points), default=0.0)

    @property
    def max_iterations(self) -> int:
        return max((p.iterations for p in self.points), default=0)

    @property
    def all_converged(self) -> bool:
        return all(p.converged for p in self.points)

    @property
    def converged(self) -> bool:
        """The rung verdict: every corner converged *and* agrees with
        the evaluator within tolerance."""
        return self.all_converged and self.max_rel_error <= self.rel_tol

    def summary(self) -> str:
        if self.converged:
            return (f"adaptive-converged: all {len(self.points)} corners "
                    f"fixed within {self.max_iterations} iterations, max "
                    f"error {self.max_rel_error:.2%} vs the evaluator")
        if not self.all_converged:
            bad = sum(1 for p in self.points if not p.converged)
            return (f"adaptive-unconverged: {bad}/{len(self.points)} "
                    f"corners still changing after {self.max_iters} "
                    f"iterations; downgrading to the per-point evaluator")
        return (f"adaptive-diverged: corners converged but max error "
                f"{self.max_rel_error:.2%} exceeds {self.rel_tol:.0%} "
                f"vs the evaluator; downgrading to the per-point evaluator")


class ReplayBackend:
    """Compile-and-price harness for one recorded application."""

    def __init__(self, recording: Recording,
                 cache: Optional[SimCache] = None,
                 rel_tol: float = PROBE_REL_TOL) -> None:
        self.recording = recording
        self.cache = cache
        self.rel_tol = rel_tol
        self.program: Optional[ReplayProgram] = None
        self.from_cache = False
        #: the adaptive-mode compilation, kept separate from ``program``:
        #: its base arrays are *chainless* (queue joins carry no frozen
        #: service chain), so its frozen sweep prices a no-waiting
        #: relaxation — only the iterated entry points may be used.
        self.adaptive_program: Optional[AdaptiveProgram] = None
        self.adaptive_from_cache = False
        #: host-seconds per pipeline stage, for reports and the serve
        #: job results (record_s is the recording's own wall time).
        self.timings: Dict[str, float] = {"record_s": recording.wall_time}
        self._evaluator: Optional[Evaluator] = None
        self._probe: Optional[ProbeReport] = None
        self._convergence: Optional[ConvergenceReport] = None
        self._static_hint: Optional[str] = None
        self._static_hint_known = False

    # ------------------------------------------------------------------
    @classmethod
    def for_app(cls, app: str, variant: str, scale: str = "bench",
                seed: int = 0, cache: Optional[SimCache] = None,
                rel_tol: float = PROBE_REL_TOL) -> "ReplayBackend":
        """Record ``app``/``variant`` at the reference point and wrap it."""
        recording = record_app(app, variant, scale=scale, seed=seed)
        return cls(recording, cache=cache, rel_tol=rel_tol)

    # ------------------------------------------------------------------
    @property
    def evaluator(self) -> Evaluator:
        """The interpreted evaluator for the same recording (the probe
        arbiter, and the downgrade target when orders are unstable)."""
        if self._evaluator is None:
            self._evaluator = Evaluator(self.recording.dag)
        return self._evaluator

    @property
    def static_hint(self) -> Optional[str]:
        """Order-stability label from the static protocol analyzer.

        The recording itself carries the pre-recording hint when
        :func:`~repro.whatif.record.record_app` computed one; otherwise
        it is looked up here (memoized).  Advisory only — the runtime
        probe remains the arbiter of the fallback ladder — but reports
        carry it so hint/probe disagreements are visible.
        """
        if self._static_hint_known:
            return self._static_hint
        hint = getattr(self.recording, "static_label", None)
        if hint is None:
            try:
                from ..lint.proto.report import order_stability_label
                hint = order_stability_label(self.recording.app,
                                             self.recording.variant)
            except Exception:
                hint = None
        self._static_hint = hint
        self._static_hint_known = True
        return hint

    def hint_matches_probe(self) -> Optional[bool]:
        """Did the measured probe agree with the static hint?

        ``None`` when no probe has run yet, no hint is available, or
        the hint is ``timing-sensitive`` (the ladder short-circuits to
        simulation before probing those).

        The hint forecasts the *ladder rung*, not the fixed point: an
        ``unstable`` label predicts that the frozen order drifts and the
        program needs per-point re-sorting — exactly the
        vectorized-adaptive rung.  So when the adaptive convergence
        check has run (it only runs on probe-unstable programs) and the
        engine converged, an ``unstable`` hint is a *match*, never a
        failure — even though the converged corner prices now agree
        with the evaluator and a naive re-probe would read "stable".
        """
        hint = self.static_hint
        if hint not in ("stable", "unstable"):
            return None
        if (hint == "unstable" and self._convergence is not None
                and self._convergence.converged):
            return True
        if self._probe is None:
            return None
        return self._probe.stable == (hint == "stable")

    def topology_for(self, bandwidth_mbyte_s: float,
                     latency_ms: float) -> Topology:
        """A grid-point topology on the recorded cluster shape."""
        sizes = self.recording.dag.cluster_sizes
        return grids.multi_cluster(bandwidth_mbyte_s, latency_ms,
                                   clusters=len(sizes),
                                   cluster_size=sizes[0])

    def cache_key(self) -> str:
        """Content-addressed :class:`SimCache` key of the compiled program.

        Everything the program depends on is in the key: the recording
        identity (app, variant, scale, seed), the recorded topology
        fingerprint (shape, link constants, and the reference point the
        orders were frozen at), and the program format version.
        """
        rec = self.recording
        return (f"replay-{rec.app}-{rec.variant}-{rec.scale}"
                f"-r{rec.topology.num_ranks}-s{rec.seed}"
                f"-{rec.topology.fingerprint()}-f{PROGRAM_FORMAT}")

    def adaptive_cache_key(self) -> str:
        """Cache key of the adaptive compilation: the frozen key plus
        the adaptive format version (group-array layout + iteration
        semantics)."""
        return f"{self.cache_key()}-a{ADAPTIVE_FORMAT}"

    # ------------------------------------------------------------------
    def prepare(self) -> ReplayProgram:
        """Load the compiled program from cache, or compile and store it.

        Raises :class:`~repro.replay.compile.CompileError` for
        timing-sensitive recordings — callers decide the fallback.
        """
        if self.program is not None:
            return self.program
        key = self.cache_key()
        if self.cache is not None:
            t0 = time.perf_counter()  # lint: ignore[wall-clock]
            entry = self.cache.lookup(key)
            if entry is not None and "program" in entry:
                try:
                    self.program = ReplayProgram.from_record(entry["program"])
                except ValueError:
                    self.program = None   # stale format: recompile below
                if self.program is not None:
                    self.from_cache = True
                    self.timings["load_s"] = \
                        time.perf_counter() - t0  # lint: ignore[wall-clock]
                    return self.program
        t0 = time.perf_counter()  # lint: ignore[wall-clock]
        self.program = compile_dag(self.recording.dag, self.recording.topology)
        self.timings["compile_s"] = \
            time.perf_counter() - t0  # lint: ignore[wall-clock]
        if self.cache is not None:
            rec = self.recording
            self.cache.store(key, {
                "kind": "replay",
                "app": rec.app,
                "variant": rec.variant,
                "scale": rec.scale,
                "seed": rec.seed,
                "ranks": rec.topology.num_ranks,
                "fingerprint": rec.topology.fingerprint(),
                "stats": self.program.stats(),
                "program": self.program.to_record(),
            })
        return self.program

    def prepare_adaptive(self) -> AdaptiveProgram:
        """Load or compile the adaptive (queue-group) program.

        Kept separate from :meth:`prepare`'s frozen program: the
        adaptive compilation is only needed once the probe has declared
        the frozen orders unstable, and its chainless base arrays make
        it unusable for frozen pricing.
        """
        if self.adaptive_program is not None:
            return self.adaptive_program
        key = self.adaptive_cache_key()
        if self.cache is not None:
            t0 = time.perf_counter()  # lint: ignore[wall-clock]
            entry = self.cache.lookup(key)
            if entry is not None and "program" in entry:
                try:
                    self.adaptive_program = \
                        AdaptiveProgram.from_record(entry["program"])
                except ValueError:
                    self.adaptive_program = None  # stale format: recompile
                if self.adaptive_program is not None:
                    self.adaptive_from_cache = True
                    self.timings["adaptive_load_s"] = \
                        time.perf_counter() - t0  # lint: ignore[wall-clock]
                    return self.adaptive_program
        t0 = time.perf_counter()  # lint: ignore[wall-clock]
        self.adaptive_program = compile_dag(
            self.recording.dag, self.recording.topology, adaptive=True)
        self.timings["adaptive_compile_s"] = \
            time.perf_counter() - t0  # lint: ignore[wall-clock]
        if self.cache is not None:
            rec = self.recording
            self.cache.store(key, {
                "kind": "replay-adaptive",
                "app": rec.app,
                "variant": rec.variant,
                "scale": rec.scale,
                "seed": rec.seed,
                "ranks": rec.topology.num_ranks,
                "fingerprint": rec.topology.fingerprint(),
                "stats": self.adaptive_program.stats(),
                "program": self.adaptive_program.to_record(),
            })
        return self.adaptive_program

    # ------------------------------------------------------------------
    def probe(self, bandwidths: Sequence[float] = grids.BANDWIDTHS_MBYTE_S,
              latencies: Sequence[float] = grids.LATENCIES_MS) -> ProbeReport:
        """Frozen-order stability check at the grid corners (memoized)."""
        if self._probe is not None:
            return self._probe
        from ..whatif.validate import corner_points

        program = self.prepare()
        t0 = time.perf_counter()  # lint: ignore[wall-clock]
        points = corner_points(bandwidths, latencies)
        priced = program.price_points(points)
        report = ProbeReport(rel_tol=self.rel_tol)
        for (bw, lat), replayed in zip(points, priced):
            evaluated = self.evaluator.evaluate(self.topology_for(bw, lat))
            report.points.append(ProbePoint(
                bandwidth_mbyte_s=bw, latency_ms=lat,
                replay_runtime=float(replayed),
                evaluator_runtime=evaluated))
        self.timings["probe_s"] = \
            time.perf_counter() - t0  # lint: ignore[wall-clock]
        self._probe = report
        return report

    def convergence_check(
            self, bandwidths: Sequence[float] = grids.BANDWIDTHS_MBYTE_S,
            latencies: Sequence[float] = grids.LATENCIES_MS,
            max_iters: int = DEFAULT_MAX_ITERS) -> ConvergenceReport:
        """Adaptive fixed-point check at the grid corners (memoized).

        This is the probe's analogue one rung down the ladder: run the
        re-sorting engine at the corners and compare its *converged*
        prices against the interpreted evaluator.  Corners are the
        natural check points — they bracket the grid's order churn, and
        a corner that converges bounds the iteration budget the full
        grid will need.
        """
        if self._convergence is not None:
            return self._convergence
        from ..whatif.validate import corner_points

        program = self.prepare_adaptive()
        t0 = time.perf_counter()  # lint: ignore[wall-clock]
        points = corner_points(bandwidths, latencies)
        result = program.price_points_adaptive(points, max_iters=max_iters)
        report = ConvergenceReport(rel_tol=self.rel_tol,
                                   max_iters=max_iters)
        for i, (bw, lat) in enumerate(points):
            evaluated = self.evaluator.evaluate(self.topology_for(bw, lat))
            report.points.append(ConvergencePoint(
                bandwidth_mbyte_s=bw, latency_ms=lat,
                adaptive_runtime=float(result.runtimes[i]),
                evaluator_runtime=evaluated,
                converged=bool(result.converged[i]),
                iterations=int(result.iterations[i])))
        self.timings["convergence_s"] = \
            time.perf_counter() - t0  # lint: ignore[wall-clock]
        self._convergence = report
        return report

    # ------------------------------------------------------------------
    def price_grid(self, bandwidths: Sequence[float] = grids.BANDWIDTHS_MBYTE_S,
                   latencies: Sequence[float] = grids.LATENCIES_MS,
                   loss_rates: Optional[Sequence[float]] = None):
        """Vectorized runtimes for a whole grid; see
        :meth:`~repro.replay.program.ReplayProgram.price_grid`."""
        program = self.prepare()
        t0 = time.perf_counter()  # lint: ignore[wall-clock]
        out = program.price_grid(bandwidths, latencies, loss_rates)
        self.timings["price_s"] = \
            time.perf_counter() - t0  # lint: ignore[wall-clock]
        return out

    def price_grid_adaptive(
            self, bandwidths: Sequence[float] = grids.BANDWIDTHS_MBYTE_S,
            latencies: Sequence[float] = grids.LATENCIES_MS,
            loss_rates: Optional[Sequence[float]] = None,
            max_iters: int = DEFAULT_MAX_ITERS):
        """Adaptive runtimes + convergence flags for a whole grid; see
        :meth:`~repro.replay.adaptive.AdaptiveProgram.
        price_grid_adaptive`."""
        program = self.prepare_adaptive()
        t0 = time.perf_counter()  # lint: ignore[wall-clock]
        out = program.price_grid_adaptive(bandwidths, latencies, loss_rates,
                                          max_iters=max_iters)
        self.timings["adaptive_price_s"] = \
            time.perf_counter() - t0  # lint: ignore[wall-clock]
        return out

    def price(self, bandwidth_mbyte_s: float, latency_ms: float,
              loss_rate: float = 0.0) -> float:
        """Runtime at one grid point."""
        return self.prepare().price(
            self.topology_for(bandwidth_mbyte_s, latency_ms), loss_rate)


class _ProgramEvaluator:
    """Adapter presenting a :class:`ReplayProgram` through the
    ``evaluate(topology)`` surface :func:`repro.whatif.validate.validate`
    expects, so ground-truth corner validation is shared verbatim with
    the predict path."""

    def __init__(self, program: ReplayProgram) -> None:
        self._program = program

    def evaluate(self, topology: Topology) -> float:
        from ..whatif.evaluate import EvaluationError

        try:
            return self._program.price(topology)
        except ValueError as err:
            raise EvaluationError(str(err)) from err


class _AdaptiveEvaluator:
    """The same adapter for the adaptive engine, so the
    vectorized-adaptive rung shares ground-truth corner validation
    verbatim too.  An unconverged point is an evaluation *failure*
    (validate() then falls back), never a silently-wrong price."""

    def __init__(self, program: AdaptiveProgram,
                 max_iters: int = DEFAULT_MAX_ITERS) -> None:
        self._program = program
        self._max_iters = max_iters

    def evaluate(self, topology: Topology) -> float:
        from ..whatif.evaluate import EvaluationError

        try:
            runtime, converged, _iters = self._program.price_adaptive(
                topology, max_iters=self._max_iters)
        except ValueError as err:
            raise EvaluationError(str(err)) from err
        if not converged:
            raise EvaluationError(
                f"adaptive engine did not converge within "
                f"{self._max_iters} iterations at this point")
        return runtime


def replay_record(app: str, variant: str, scale: str, seed: int, mode: str,
                  program_stats: Optional[Dict[str, Any]] = None,
                  timings: Optional[Dict[str, float]] = None,
                  from_cache: bool = False,
                  probe_summary: Optional[str] = None,
                  validation_summary: Optional[str] = None,
                  static_hint: Optional[str] = None,
                  convergence_summary: Optional[str] = None,
                  meta: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Build one ``replay`` report record (JSON-lines, obs substrate).

    ``mode`` is the rung of the fallback ladder that actually produced
    the grid: ``"replay"`` (vectorized), ``"vectorized-adaptive"``
    (order-unstable but the re-sorting engine converges), ``"predict"``
    (order-unstable and unconverged), or ``"simulate"``
    (timing-sensitive/faulty/invalid).
    """
    record: Dict[str, Any] = {
        "kind": "replay",
        "meta": dict(meta or {}),
        "app": app,
        "variant": variant,
        "scale": scale,
        "seed": seed,
        "replay": {
            "mode": mode,
            "from_cache": from_cache,
            "program": dict(program_stats or {}),
            "timings": dict(timings or {}),
        },
    }
    if probe_summary is not None:
        record["replay"]["probe"] = probe_summary
    if validation_summary is not None:
        record["replay"]["validation"] = validation_summary
    if static_hint is not None:
        record["replay"]["static_hint"] = static_hint
    if convergence_summary is not None:
        record["replay"]["convergence"] = convergence_summary
    return record
