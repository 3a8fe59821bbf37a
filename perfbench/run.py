"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig3-simulate --seed 3 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run;
``--trace 1`` prints the per-layer metrics of a traced run, which also
measures an untraced pass to report the tracing overhead.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is the
environment stamp.  Exits 2 without a result when the checkout holds no
``src/repro`` to measure.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads, here and (through the
# environment) in the serve pool's spawned workers, so two replay jobs
# do not oversubscribe two cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import shutil
import signal
import statistics
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Set-ups per run; the median is reported as setup_s.
SETUP_REPEATS = 5

#: end-to-end metric -> unit (a self-test pins these to BENCHMARK.json)
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "points_per_s": "1/s",
    "job_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


class Measurement:
    """Per-round wall times, points and job latencies, all at the
    reference host speed (see ``perfbench/speed.py``)."""

    def __init__(self) -> None:
        self.walls: List[float] = []
        self.raw_walls: List[float] = []
        self.points: List[int] = []
        #: per round, the latency of each job (same jobs every round)
        self.jobs: List[List[float]] = []
        self.raw_jobs: List[List[float]] = []

    @property
    def wall_s(self) -> float:
        return statistics.median(self.walls)

    def job_latencies(self) -> List[float]:
        """Each job's median latency over the rounds."""
        return [statistics.median(times) for times in zip(*self.jobs)]

    def all_job_latencies(self) -> List[float]:
        """Every job latency of every round."""
        return [t for times in self.jobs for t in times]


def measure(workload, seconds: float, checker, speed,
            tracer=None) -> Measurement:
    """Run rounds until another would overrun ``seconds`` (at least the
    workload's ``min_rounds``), checking each round's outputs outside its
    timed region.

    Each job's time is scaled by the host speed around it; a round's
    wall time, minus its calibration samples, by the job-time-weighted
    mean of those factors.
    """
    out = Measurement()
    paused = 0.0

    def between() -> float:
        """End a job: collect the garbage it left (timed, as part of the
        job), then take a calibration sample if one is due (not timed).
        Returns the job's end stamp."""
        nonlocal paused
        if workload.collect_between_jobs:
            gc.collect()
        end = time.perf_counter()
        speed.tick()
        paused += time.perf_counter() - end
        return end

    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.run_id = f"r{len(out.walls)}"
        gc.collect()
        speed.sample()
        paused = 0.0
        t0 = time.perf_counter()
        result = workload.round(tracer, between)
        raw = time.perf_counter() - t0 - paused
        speed.sample()
        raw_jobs = [end - begin for begin, end in result.jobs]
        jobs = [(end - begin) * speed.factor(begin, end)
                for begin, end in result.jobs]
        out.raw_walls.append(raw)
        out.raw_jobs.append(raw_jobs)
        out.walls.append(raw * sum(jobs) / sum(raw_jobs))
        out.points.append(result.points)
        out.jobs.append(jobs)
        workload.check(checker)
        if len(out.walls) >= workload.min_rounds and \
                time.perf_counter() - start + raw > seconds:
            return out


def timed_setups(workload, speed) -> List[float]:
    """``SETUP_REPEATS`` set-ups, each at the reference host speed."""
    times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        speed.sample()
        t0 = time.perf_counter()
        workload.setup()
        t1 = time.perf_counter()
        speed.sample()
        times.append((t1 - t0) * speed.factor(t0, t1))
    return times


def end_to_end(m: Measurement, setup_times: List[float]) -> Dict[str, float]:
    from perfbench.workloads import percentile

    jobs = m.job_latencies()
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": m.wall_s,
        "points_per_s": statistics.median(
            p / w for p, w in zip(m.points, m.walls)),
        "job_p50_ms": 1e3 * percentile(jobs, 50),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced(workload, seconds: float, checker, speed) -> Dict[str, float]:
    """Untraced pass, traced pass (and a cProfile pass for the simulator
    workload); returns every per-layer metric."""
    import cProfile

    from perfbench import tracing
    from perfbench.workloads import percentile

    passes = 3 if workload.name == "fig3-simulate" else 2
    plain = measure(workload, seconds / passes, checker, speed)
    workload.reset_trace_window()
    tracer = tracing.Tracer()
    targets = tracing.program_targets() + workload.trace_targets()
    with tracing.instrumented(tracer, targets):
        if workload.trace_setup:
            workload.setup()
        spanned = measure(workload, seconds / passes, checker, speed, tracer)
    rounds = len(spanned.walls)
    metrics = tracing.layer_metrics(tracer, rounds)
    metrics["replay.price.alloc_peak_mb"] = tracing.alloc_peak_mb(tracer)
    serve = workload.traced_metrics(rounds)
    for name in tracing.SERVE_METRICS:
        metrics[name] = serve.get(name, 0.0)
    shares = {name: 0.0 for name in tracing.SHARE_METRICS}
    if passes == 3:
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            workload.round()
        finally:
            profiler.disable()
        workload.check(checker)
        shares = tracing.profile_shares(profiler)
    metrics.update(shares)
    overhead = spanned.wall_s - plain.wall_s
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_frac"] = overhead / plain.wall_s
    metrics["check.err_pp_max"] = checker.err_pp_max
    metrics["job.p99_ms"] = 1e3 * percentile(plain.all_job_latencies(), 99)
    tracer.write(os.path.join(ROOT, ".perfbench",
                              f"spans-{workload.name}-s{workload.seed}.jsonl"),
                 {"workload": workload.name, "seed": workload.seed,
                  "rounds": rounds})
    return metrics


def write_raw(workload: str, seed: int, m: Measurement,
              setup_times: List[float], speed) -> None:
    """The unscaled measurements behind a run's metrics, for inspection."""
    path = os.path.join(ROOT, ".perfbench", f"run-{workload}-s{seed}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"walls": m.walls, "raw_walls": m.raw_walls,
                   "jobs": m.jobs, "raw_jobs": m.raw_jobs,
                   "setup_s": setup_times, "samples": speed.samples}, fh)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still closes its workload (and the serve pool's
    # processes) on the way out.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no src/repro under {ROOT}; nothing to measure",
              file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

    from perfbench import tracing
    from perfbench.envstamp import environment
    from perfbench.reference import Checker, Reference
    from perfbench.speed import Speedometer
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(one of {', '.join(WORKLOADS)})")
    work_dir = os.path.join(ROOT, ".perfbench", f"work-{os.getpid()}")
    workload = WORKLOADS[args.workload](args.seed, Reference.load(), work_dir)
    checker = Checker(workload.reference, workload.app_seed)
    speed = Speedometer.for_kind(workload.calibration)
    try:
        setup_times = timed_setups(workload, speed)
        if args.trace:
            metrics = traced(workload, args.seconds, checker, speed)
            units = tracing.PER_LAYER_UNITS
        else:
            m = measure(workload, args.seconds, checker, speed)
            metrics = end_to_end(m, setup_times)
            units = END_TO_END_UNITS
    finally:
        workload.close()
        shutil.rmtree(work_dir, ignore_errors=True)

    metrics = {name: metrics[name] for name in units}     # in listed order
    print(f"perfbench {args.workload} seed={args.seed} "
          f"app_seed={workload.app_seed} trace={args.trace}")
    for name, value in metrics.items():
        print(f"  {name:36s} {value:14.6g} {units[name]}")
    if not args.trace:
        write_raw(args.workload, args.seed, m, setup_times, speed)
        print(f"  {len(m.walls)} rounds; raw wall_s median "
              f"{statistics.median(m.raw_walls):.6g} s, scaled by "
              f"{m.wall_s / statistics.median(m.raw_walls):.3f} to the "
              f"reference host speed")
    for note in checker.notes:
        print(f"  FAILED {note}")
    env = environment(ROOT)
    env["host_speed"] = speed.host_speed()
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
