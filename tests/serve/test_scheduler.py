"""Scheduler unit tests: admission, lifecycle, dedup, cancellation.

These drive the :class:`~repro.serve.scheduler.Scheduler` directly (no
HTTP) on a thread pool, which runs the same picklable worker functions
in-process — fast, and every code path except process spawning is the
production one.
"""

import asyncio
import json
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.experiments.cache import SimCache
from repro.obs.report import RunReporter
from repro.serve.jobs import (CANCELLED, DONE, QUEUED, AdmissionError,
                              InvalidJob, UnknownJob)
from repro.serve.scheduler import AdmissionPolicy, Scheduler


def make_scheduler(tmp_path, **kwargs):
    """A started scheduler whose pool is an in-process thread pool."""
    scheduler = Scheduler(SimCache(str(tmp_path / "serve-cache")), **kwargs)
    scheduler._pool = ThreadPoolExecutor(max_workers=2)
    scheduler._started = True
    return scheduler


async def collect(scheduler, job_id):
    return [record async for record in scheduler.stream(job_id)]


SPEC = {"app": "water", "bandwidths": [6.3, 0.95], "latencies": [0.5]}


# ----------------------------------------------------------------------
# Admission
# ----------------------------------------------------------------------
def test_unstarted_scheduler_refuses_submissions(tmp_path):
    scheduler = Scheduler(SimCache(str(tmp_path / "c")))
    with pytest.raises(RuntimeError):
        scheduler.submit(SPEC)


def test_admission_queue_full(tmp_path):
    scheduler = make_scheduler(tmp_path, policy=AdmissionPolicy(max_jobs=0))
    with pytest.raises(AdmissionError) as err:
        scheduler.submit(SPEC)
    assert "queue full" in str(err.value)
    assert scheduler.registry.counter("serve.jobs.rejected").value == 1


def test_admission_point_budget(tmp_path):
    scheduler = make_scheduler(
        tmp_path, policy=AdmissionPolicy(max_points_per_job=2))
    with pytest.raises(AdmissionError) as err:
        scheduler.submit(SPEC)                 # 2 points + baseline = 3
    assert "budget" in str(err.value)


def test_admission_event_budget(tmp_path):
    scheduler = make_scheduler(
        tmp_path, policy=AdmissionPolicy(max_events_per_point=1000))
    with pytest.raises(AdmissionError):
        scheduler.submit(dict(SPEC, max_events=2000))


def test_invalid_payload_counts_as_rejected(tmp_path):
    scheduler = make_scheduler(tmp_path)
    with pytest.raises(InvalidJob):
        scheduler.submit({"app": "water", "bogus": True})
    with pytest.raises(InvalidJob):
        scheduler.submit(["not", "an", "object"])
    assert scheduler.registry.counter("serve.jobs.rejected").value == 2
    assert not scheduler.jobs


def test_effective_max_events_composes():
    policy = AdmissionPolicy(max_events_per_point=1000)
    from repro.serve.jobs import JobSpec
    loose = JobSpec.from_json(SPEC)
    tight = JobSpec.from_json(dict(SPEC, max_events=10))
    assert policy.effective_max_events(loose) == 1000
    assert policy.effective_max_events(tight) == 10
    unlimited = AdmissionPolicy(max_events_per_point=None)
    assert unlimited.effective_max_events(loose) is None
    assert unlimited.effective_max_events(tight) == 10


def test_unknown_job_is_typed(tmp_path):
    scheduler = make_scheduler(tmp_path)
    with pytest.raises(UnknownJob):
        scheduler.get("j9999-deadbeef")
    with pytest.raises(UnknownJob):
        scheduler.cancel("j9999-deadbeef")


# ----------------------------------------------------------------------
# Lifecycle, streaming, dedup
# ----------------------------------------------------------------------
def test_sweep_lifecycle_stream_and_dedup(tmp_path):
    scheduler = make_scheduler(tmp_path)

    async def run():
        job = scheduler.submit(SPEC)
        assert job.state == QUEUED
        records = await collect(scheduler, job.id)

        kinds = [record["kind"] for record in records]
        assert kinds[0] == "job" and kinds[1] == "baseline"
        assert kinds.count("point") == 2 and kinds[-1] == "end"
        assert records[0]["spec"]["app"] == "water"
        end = records[-1]
        assert end["state"] == DONE
        assert end["points_done"] == end["points_total"] == 3
        assert end["dispatched"] == 3 and end["cache_hits"] == 0
        assert job.state == DONE and job.wall_s > 0

        for record in records:
            if record["kind"] == "point":
                assert record["cached"] is False
                assert record["relative_speedup_pct"] == \
                    100.0 * records[1]["runtime"] / record["runtime"]

        # Late subscribers replay the identical, complete history.
        replay = await collect(scheduler, job.id)
        assert replay == records

        # The identical submission is served entirely from cache.
        second = scheduler.submit(SPEC)
        assert second.id != job.id
        assert second.spec.content_hash() == job.spec.content_hash()
        records2 = await collect(scheduler, second.id)
        end2 = records2[-1]
        assert end2["state"] == DONE and end2["dispatched"] == 0
        assert end2["cache_hits"] == 3 and end2["hit_rate"] == 1.0
        assert all(record["cached"] for record in records2
                   if record["kind"] in ("baseline", "point"))
        # Cached replay carries the same runtimes bit for bit.
        runtime_of = lambda recs: {  # noqa: E731
            (r["bandwidth_mbyte_s"], r["latency_ms"]): r["runtime"]
            for r in recs if r["kind"] == "point"}
        assert runtime_of(records2) == runtime_of(records)

        reg = scheduler.registry
        assert reg.counter("serve.jobs.submitted").value == 2
        assert reg.counter("serve.jobs.done").value == 2
        assert reg.counter("serve.points.completed").value == 6
        assert reg.counter("serve.points.cache_hits").value == 3
        assert reg.counter("serve.points.dispatched").value == 3
        assert reg.gauge("serve.cache.hit_rate").value == 0.5
        await scheduler.stop()

    asyncio.run(run())


def test_cancel_queued_job_is_instant(tmp_path):
    scheduler = make_scheduler(
        tmp_path, policy=AdmissionPolicy(max_concurrent_jobs=1))

    async def run():
        first = scheduler.submit(dict(SPEC, bandwidths=[6.3]))
        second = scheduler.submit(dict(SPEC, seed=7))
        assert second.state == QUEUED
        cancelled = scheduler.cancel(second.id)
        assert cancelled.state == CANCELLED
        assert cancelled.results[-1]["kind"] == "end"
        assert cancelled.results[-1]["state"] == CANCELLED
        # The running job is unaffected and completes.
        records = await collect(scheduler, first.id)
        assert records[-1]["state"] == DONE
        assert scheduler.registry.counter("serve.jobs.cancelled").value == 1
        await scheduler.stop()

    asyncio.run(run())


def test_cancel_running_job_stops_dispatch(tmp_path):
    scheduler = make_scheduler(tmp_path)
    big = {"app": "water", "bandwidths": [6.3, 2.0, 0.95],
           "latencies": [0.5, 2.0, 5.0]}          # 9 points + baseline

    async def run():
        job = scheduler.submit(big)
        records = []
        async for record in scheduler.stream(job.id):
            records.append(record)
            if record["kind"] == "baseline":
                scheduler.cancel(job.id)
        end = records[-1]
        assert end["state"] == CANCELLED
        assert job.state == CANCELLED
        assert job.points_done < job.points_total
        await scheduler.stop()

    asyncio.run(run())


# ----------------------------------------------------------------------
# Whatif fast path
# ----------------------------------------------------------------------
def test_whatif_grid_runs_once_then_serves_from_cache(tmp_path):
    scheduler = make_scheduler(tmp_path)
    spec = {"app": "water", "kind": "whatif",
            "bandwidths": [6.3, 0.95], "latencies": [0.5, 5.0]}

    async def run():
        job = scheduler.submit(spec)
        records = await collect(scheduler, job.id)
        end = records[-1]
        assert end["state"] == DONE
        baseline = next(r for r in records if r["kind"] == "baseline")
        assert "predicted" in baseline
        points = [r for r in records if r["kind"] == "point"]
        assert len(points) == 4
        # water is order-unstable but the whatif job enters the ladder at
        # the predict rung, and every record names that rung
        assert baseline["mode"] == "predict"
        assert all(p["mode"] == "predict" for p in points)

        second = scheduler.submit(spec)
        records2 = await collect(scheduler, second.id)
        end2 = records2[-1]
        assert end2["state"] == DONE and end2["dispatched"] == 0
        assert end2["hit_rate"] == 1.0
        await scheduler.stop()

    asyncio.run(run())


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def test_finished_jobs_emit_serve_job_records(tmp_path):
    report_path = tmp_path / "serve-report.jsonl"
    reporter = RunReporter(str(report_path))
    scheduler = make_scheduler(tmp_path, reporter=reporter)

    async def run():
        job = scheduler.submit(dict(SPEC, bandwidths=[6.3]))
        await collect(scheduler, job.id)
        await scheduler.stop()
        return job

    job = asyncio.run(run())
    reporter.close()
    records = [json.loads(line)
               for line in report_path.read_text().splitlines()]
    serve_records = [r for r in records if r["kind"] == "serve-job"]
    assert len(serve_records) == 1
    assert serve_records[0]["job"]["id"] == job.id
    assert serve_records[0]["job"]["state"] == DONE
    assert serve_records[0]["job"]["content_hash"] == \
        job.spec.content_hash()
