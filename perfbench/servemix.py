"""A live ``repro.serve`` server inside the benchmark process.

The server's asyncio loop runs on a background thread; the benchmark's
closed-loop client submits from the main thread over loopback TCP, one
job at a time, and waits for each job's end record before the next.

Caveat (ROADMAP 4b): the scheduler builds its process pool once, in
``Scheduler.start()``.  If a pool worker dies, the pool stays broken and
every later dispatching job fails with ``BrokenProcessPool`` until the
server restarts; the benchmark books those as failed jobs.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import multiprocessing.util
import threading
import time
from typing import Any, Dict, List

#: Seconds to wait for the server to start or stop, and for one job.
STARTUP_TIMEOUT = 120.0
JOB_TIMEOUT = 170.0
#: Seconds to wait for the pool workers to exit before terminating them.
WORKER_EXIT_TIMEOUT = 30.0

#: Cheap jobs submitted together in set-up so each of the two pool
#: workers spawns and imports the full stack (simulator, what-if,
#: replay, numpy) before anything is timed.
WARMUP_JOBS = ({"kind": "replay", "app": "barnes", "variant": "unoptimized"},
               {"kind": "replay", "app": "barnes", "variant": "optimized"})


def _stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait for it to exit.

    The spawn pool's semaphores start the tracker, a process of its own
    that would otherwise outlive the benchmark by a moment.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


# At interpreter exit, after the semaphores' own finalizers (priority 0),
# which still write to the tracker and would start a new one if it were
# already stopped.
multiprocessing.util.Finalize(None, _stop_resource_tracker, exitpriority=-1)


class ServeHarness:
    """``Scheduler(workers=2)`` behind a ``ServeServer`` on 127.0.0.1."""

    def __init__(self, cache_root: str) -> None:
        from repro.experiments.cache import SimCache
        from repro.serve.client import ServeClient
        from repro.serve.scheduler import Scheduler
        from repro.serve.server import ServeServer

        self.scheduler = Scheduler(SimCache(cache_root), workers=2)
        self.server = ServeServer(self.scheduler, host="127.0.0.1", port=0)
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever,
                                       name="perfbench-serve", daemon=True)
        self.thread.start()
        addresses = self._call(self.server.start())
        self.client = ServeClient(addresses[0], timeout=JOB_TIMEOUT)

    def _call(self, coro, timeout: float = STARTUP_TIMEOUT):
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result(
            timeout=timeout)

    def warm(self) -> None:
        """Run the warm-up jobs concurrently; raise unless all are done."""
        jobs = [self.client.submit(spec) for spec in WARMUP_JOBS]
        for job in jobs:
            end = list(self.client.stream(job["id"]))[-1]
            if end.get("state") != "done":
                raise RuntimeError(f"warm-up job {job['id']} ended {end}")

    def use_cache(self, cache_root: str) -> None:
        """Point the scheduler at a fresh cache (between jobs only)."""
        from repro.experiments.cache import SimCache

        async def swap():
            self.scheduler.cache = SimCache(cache_root)
        self._call(swap())

    def forget_jobs(self) -> None:
        """Drop finished jobs' records, so memory does not grow by round."""
        async def forget():
            self.scheduler.jobs.clear()
        self._call(forget())

    def counter(self, name: str) -> float:
        return self.scheduler.registry.counter(name).value

    def run_job(self, spec: Dict[str, Any], tracer=None):
        """Submit one job and read its stream to the end record.

        Returns ``(records, submit_s, first_result_s, latency_s, job)``;
        times are host seconds from the start of the submit.
        """
        clock = time.perf_counter
        job_span = tracer.open("serve.job") if tracer else None
        t0 = clock()
        try:
            if tracer:
                with tracer.span("serve.submit"):
                    job = self.client.submit(spec)
            else:
                job = self.client.submit(spec)
            t_submit = clock() - t0
            t_first = None
            records: List[Dict[str, Any]] = []
            stream_span = tracer.open("serve.stream") if tracer else None
            try:
                for record in self.client.stream(job["id"]):
                    if t_first is None and record.get("kind") != "job":
                        t_first = clock() - t0
                    records.append(record)
            finally:
                if tracer:
                    tracer.close(stream_span)
            latency = clock() - t0
        finally:
            if tracer:
                tracer.close(job_span)
        return records, t_submit, t_first or latency, latency, \
            self.scheduler.jobs[job["id"]]

    def close(self) -> None:
        """Stop the server and pool, then wait for every worker to exit."""
        try:
            self._call(self.server.stop())
        finally:
            self.loop.call_soon_threadsafe(self.loop.stop)
            self.thread.join(timeout=STARTUP_TIMEOUT)
            if not self.thread.is_alive():
                self.loop.close()
            # Scheduler.stop() shuts the pool down without waiting; the
            # benchmark must not leave its workers behind.  The pool's own
            # thread joins them; a second join from here could reap a
            # worker under that thread's feet, so poll until they are gone.
            deadline = time.monotonic() + WORKER_EXIT_TIMEOUT
            while multiprocessing.active_children():
                if time.monotonic() > deadline:
                    for child in multiprocessing.active_children():
                        child.terminate()
                        child.join(timeout=10)
                    break
                time.sleep(0.02)
