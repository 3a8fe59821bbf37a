"""The ``replay`` job kind: admission, dedup, metrics, cache kinds.

Same thread-pool harness as the scheduler tests; the grid itself runs
the production :func:`~repro.serve.worker.run_grid` in-process.
"""

import asyncio
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.experiments.cache import SimCache
from repro.serve.jobs import DONE, InvalidJob, JobSpec
from repro.serve.scheduler import Scheduler

SPEC = {"app": "asp", "kind": "replay",
        "bandwidths": [6.3, 2.6], "latencies": [0.5, 1.3]}


def make_scheduler(tmp_path, **kwargs):
    scheduler = Scheduler(SimCache(str(tmp_path / "serve-cache")), **kwargs)
    scheduler._pool = ThreadPoolExecutor(max_workers=2)
    scheduler._started = True
    return scheduler


async def collect(scheduler, job_id):
    return [record async for record in scheduler.stream(job_id)]


def test_replay_job_runs_then_serves_from_cache(tmp_path):
    scheduler = make_scheduler(tmp_path)

    async def run():
        job = scheduler.submit(SPEC)
        records = await collect(scheduler, job.id)
        assert records[-1]["state"] == DONE

        baseline = next(r for r in records if r["kind"] == "baseline")
        assert baseline["predicted"]
        assert baseline["mode"] == "replay"    # asp vectorizes
        assert "order-stable" in baseline["probe"]
        points = [r for r in records if r["kind"] == "point"]
        assert len(points) == 4
        assert all(p["relative_speedup_pct"] > 0 for p in points)
        assert all(p["mode"] == "replay" for p in points)

        second = scheduler.submit(SPEC)
        records2 = await collect(scheduler, second.id)
        assert records2[-1]["state"] == DONE
        assert records2[-1]["dispatched"] == 0
        assert records2[-1]["hit_rate"] == 1.0
        await scheduler.stop()

    asyncio.run(run())
    assert scheduler.registry.counter("replay.jobs").value == 1
    assert scheduler.registry.counter("replay.mode.replay").value == 1
    # the compiled program itself was left behind, content-addressed
    kinds = scheduler.cache.stats()["kinds"]
    assert kinds["replay"]["entries"] >= 1


def test_replay_job_refuses_faults():
    with pytest.raises(InvalidJob) as err:
        JobSpec.from_json(dict(SPEC, faults={"loss": 0.05}))
    assert "faults" in str(err.value)


def test_replay_job_refuses_non_paper_shape():
    with pytest.raises(InvalidJob) as err:
        JobSpec.from_json(dict(SPEC, clusters=2, cluster_size=16))
    assert "shape" in str(err.value)
