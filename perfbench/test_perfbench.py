"""Self-tests of the benchmark harness (not part of the tier-1 suite).

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import os
import types

import pytest

from perfbench import inputs, tracing
from perfbench.reference import Checker, Reference
from perfbench.run import END_TO_END_UNITS
from perfbench.workloads import WORKLOADS, Fig3Simulate

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def reference():
    return Reference.load()


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------
def test_same_seed_same_inputs():
    for seed in (0, 1, 12345):
        assert inputs.app_seed(seed) == inputs.app_seed(seed)
        assert inputs.subgrid(seed) == inputs.subgrid(seed)
        assert inputs.dense_axes(seed) == inputs.dense_axes(seed)
        assert inputs.serve_catalogue(seed) == inputs.serve_catalogue(seed)
        catalogue = inputs.serve_catalogue(seed)
        assert inputs.serve_sequence(catalogue, seed) == \
            inputs.serve_sequence(catalogue, seed)


def _served_points(catalogue, sequence) -> int:
    return sum(len(catalogue[i].get("bandwidths", inputs.BANDWIDTHS))
               * len(catalogue[i].get("latencies", inputs.LATENCIES))
               for i in sequence)


def test_seeds_vary_inputs_but_not_their_size():
    assert len({repr(inputs.subgrid(s)) for s in range(10)}) > 1
    assert {inputs.app_seed(s) for s in range(10)} == set(inputs.APP_SEEDS)
    served = set()
    for seed in range(5):
        bws, lats = inputs.dense_axes(seed)
        assert (len(bws), len(lats)) == inputs.DENSE_SHAPE
        assert set(inputs.BANDWIDTHS) <= set(bws)
        assert set(inputs.LATENCIES) <= set(lats)
        assert bws == sorted(bws, reverse=True) and lats == sorted(lats)
        catalogue = inputs.serve_catalogue(seed)
        sequence = inputs.serve_sequence(catalogue, seed)
        assert len(sequence) == inputs.SERVE_JOBS
        assert set(sequence) == set(range(len(catalogue)))
        served.add(_served_points(catalogue, sequence))
    assert len(served) == 1


def test_serve_mix_keeps_the_measured_warm_share():
    measured = inputs.MEASURED_WARM_JOBS / inputs.MEASURED_JOBS
    corners = {(bw, lat) for bw in (inputs.BANDWIDTHS[0],
                                    inputs.BANDWIDTHS[-1])
               for lat in (inputs.LATENCIES[0], inputs.LATENCIES[-1])}
    for seed in range(3):
        catalogue = inputs.serve_catalogue(seed)
        sequence = inputs.serve_sequence(catalogue, seed)
        # A job is cold the first time it is served, warm afterwards:
        # no sweep point is shared with another job or is a corner.
        warm = 1.0 - len(set(sequence)) / len(sequence)
        assert abs(warm - measured) < 1.0 / inputs.MEASURED_JOBS
        sweeps = [(s["app"], s["variant"], s["bandwidths"][0],
                   s["latencies"][0])
                  for s in catalogue if s["kind"] == "sweep"]
        assert len(set(sweeps)) == len(sweeps)
        assert not {(bw, lat) for _a, _v, bw, lat in sweeps} & corners


def test_axes_match_the_program():
    from repro.experiments import grids

    assert inputs.BANDWIDTHS == grids.BANDWIDTHS_MBYTE_S
    assert inputs.LATENCIES == grids.LATENCIES_MS


# ----------------------------------------------------------------------
# Reference checks
# ----------------------------------------------------------------------
def test_reference_covers_every_panel(reference):
    for seed in inputs.APP_SEEDS:
        for app, variant in inputs.PANELS:
            assert reference.baseline(seed, app, variant) > 0
            for lat in reference.latencies:
                for bw in reference.bandwidths:
                    assert reference.runtime(seed, app, variant, bw, lat) > 0


def _nudged(path: str, seed: int, app: str, variant: str, bw: float,
            lat: float) -> Reference:
    """The reference table with one runtime moved up by one ULP."""
    with open(path) as fh:
        table = json.load(fh)
    i = table["latencies"].index(lat)
    j = table["bandwidths"].index(bw)
    row = table["seeds"][str(seed)][f"{app}/{variant}"]["runtimes"][i]
    row[j] = math.nextafter(row[j], math.inf)
    return Reference(table)


def test_one_ulp_off_reference_fails_the_check(reference):
    from repro.experiments.runner import Sweeper

    seed = 4
    workload = Fig3Simulate(seed, reference, work_dir="unused")
    bandwidths, latencies = inputs.subgrid(seed)
    grid = Sweeper(seed=workload.app_seed).speedup_grid(
        "barnes", "optimized", bandwidths=bandwidths, latencies=latencies)
    workload.outputs = [("barnes", "optimized", grid)]

    honest = Checker(reference, workload.app_seed)
    workload.check(honest)
    assert honest.attempted == len(grid.points) + 1
    assert honest.failed == 0

    from perfbench.reference import REFERENCE_PATH
    nudged = _nudged(REFERENCE_PATH, workload.app_seed, "barnes",
                     "optimized", bandwidths[0], latencies[0])
    caught = Checker(nudged, workload.app_seed)
    workload.check(caught)
    assert caught.attempted == honest.attempted
    assert caught.failed / caught.attempted > 0


def test_err_pp_max_is_zero_when_analytic_equals_simulated(reference):
    checker = Checker(reference, 0)
    app, variant = "water", "optimized"
    runtimes = {(bw, lat): reference.runtime(0, app, variant, bw, lat)
                for lat in reference.latencies for bw in reference.bandwidths}
    verdicts = checker.check_grid(app, variant,
                                  reference.baseline(0, app, variant),
                                  runtimes, exact_points=[], label="t")
    assert all(verdicts) and len(verdicts) == 43
    assert checker.err_pp_max == 0.0


def test_analytic_gap_beyond_tolerance_fails(reference):
    checker = Checker(reference, 0)
    base = reference.baseline(0, "asp", "optimized")
    want = reference.runtime(0, "asp", "optimized", 0.95, 10.0)
    assert checker.analytic("near", base, want * 1.001, base, want)
    assert not checker.analytic("far", base, want * 1.5, base, want)
    assert checker.err_pp_max > 5.0


# ----------------------------------------------------------------------
# Span arithmetic and wrapping
# ----------------------------------------------------------------------
def test_self_time_on_a_hand_built_span_tree():
    # root [0, 10]: children a [1, 4] and b [3, 6] overlap on [3, 4];
    # a has a child [2, 3]; c [8, 12] sticks out past the root's end.
    spans = [
        ["root", 0.0, 10.0, None, "r0"],
        ["a", 1.0, 4.0, 0, "r0"],
        ["b", 3.0, 6.0, 0, "r0"],
        ["a.child", 2.0, 3.0, 1, "r0"],
        ["c", 8.0, 12.0, 0, "r0"],
    ]
    assert tracing.self_times(spans) == [10.0 - 5.0 - 2.0, 2.0, 3.0, 1.0,
                                         4.0]
    agg = tracing.Aggregate(spans)
    assert agg.busy["root"] == 10.0 and agg.self_s["a"] == 2.0


def test_busy_time_counts_recursive_spans_once():
    spans = [["f", 0.0, 4.0, None, "r0"], ["f", 1.0, 2.0, 0, "r0"]]
    agg = tracing.Aggregate(spans)
    assert agg.calls["f"] == 2
    assert agg.busy["f"] == 4.0
    assert agg.self_s["f"] == 4.0


def test_instrumented_wraps_and_restores():
    module = types.SimpleNamespace(work=lambda x: x * 2)
    original = module.work

    class Thing:
        def method(self):
            return 7

    tracer = tracing.Tracer()
    seen = []
    with tracing.instrumented(tracer, [
            ("mod.work", module, "work", None),
            ("thing", Thing, "method",
             lambda t, result, args: seen.append(result))]):
        assert module.work(3) == 6
        assert Thing().method() == 7
    assert module.work is original and "method" in vars(Thing)
    assert Thing.method.__name__ == "method" and Thing().method() == 7
    assert [s[0] for s in tracer.spans] == ["mod.work", "thing"]
    assert seen == [7]
    assert len(tracer.spans) == 2           # restored: no new spans


def test_alloc_peak_rerun_adds_no_spans():
    import numpy as np

    class Program:
        num_levels = 3

        def price_grid(self, bandwidths, latencies):
            return np.ones((len(latencies), len(bandwidths)))

    tracer = tracing.Tracer()
    with tracing.instrumented(tracer, [
            ("replay.price", Program, "price_grid", tracing._on_price)]):
        Program().price_grid([1.0, 2.0], [3.0])
        spans, counters = len(tracer.spans), dict(tracer.counters)
        assert tracing.alloc_peak_mb(tracer) > 0.0
        assert len(tracer.spans) == spans and tracer.counters == counters


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------
def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        tracing.PER_LAYER_UNITS
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


# ----------------------------------------------------------------------
# The harness against the real program
# ----------------------------------------------------------------------
def test_traced_fig3_replay_takes_every_analytic_rung(reference, tmp_path):
    from perfbench.workloads import Fig3Replay

    seed = next(s for s in range(100) if inputs.app_seed(s) == 0)
    workload = Fig3Replay(seed, reference, str(tmp_path))
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer, tracing.program_targets()):
        tracer.run_id = "r0"
        workload.round(tracer)
    checker = Checker(reference, workload.app_seed)
    workload.check(checker)
    assert checker.failed == 0, checker.notes
    metrics = tracing.layer_metrics(tracer, rounds=1)
    assert {rung: metrics[f"runner.rung.{rung}"]
            for rung in tracing.RUNGS} == {
        "replay": 4, "vectorized-adaptive": 1, "predict": 2, "simulate": 0}
    assert metrics["sim.runs"] > 0 and metrics["replay.price.calls"] == 4
    assert 0 < checker.err_pp_max < 5.0


def test_serve_harness_runs_a_job_and_leaves_no_workers(reference, tmp_path):
    import multiprocessing

    from perfbench.servemix import ServeHarness

    harness = ServeHarness(str(tmp_path / "cache"))
    try:
        harness.warm()
        spec = {"kind": "sweep", "app": "barnes", "variant": "optimized",
                "seed": 0, "bandwidths": [0.95], "latencies": [10.0]}
        records, _submit, _first, _latency, job = harness.run_job(spec)
        assert records[-1]["state"] == "done" and job.points_done == 2
        checker = Checker(reference, 0)
        runtime = [r for r in records if r["kind"] == "point"][0]["runtime"]
        assert checker.exact("point", runtime, reference.runtime(
            0, "barnes", "optimized", 0.95, 10.0))
    finally:
        harness.close()
    assert multiprocessing.active_children() == []


def test_serve_harness_process_leaves_no_tracker_behind(tmp_path):
    """The spawn pool starts multiprocessing's resource tracker, which
    is no child of the benchmark; it must be gone when the benchmark
    process has exited."""
    import subprocess
    import sys

    script = (
        "import sys\n"
        "from multiprocessing import resource_tracker\n"
        "from perfbench.servemix import ServeHarness\n"
        f"harness = ServeHarness({str(tmp_path / 'cache')!r})\n"
        "try:\n"
        "    harness.warm()\n"
        "finally:\n"
        "    harness.close()\n"
        "print(resource_tracker._resource_tracker._pid)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), ROOT]))
    done = subprocess.run([sys.executable, "-c", script], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    tracker = int(done.stdout.split()[-1])
    with pytest.raises(ProcessLookupError):
        os.kill(tracker, 0)
