"""Host-speed calibration, interleaved with the measured work.

The machines this benchmark runs on are shared: the same bench-scale
simulation measured on one idle container swung between 44 and 70 ms
across 5-second windows of one 40-second run, with the CPU time tracking
the wall time (the host's speed changes, not our share of it).  Raw
times then spread more between runs than any useful regression bound.

So every timed region is bracketed by a short *calibration kernel* that
uses no repository code, and times are reported at a fixed reference
speed: ``raw_seconds * (reference_s / kernel_seconds) ** elasticity``.
A change to the program moves the raw time but not the kernel, so it
moves the reported time; a slower host moves both, and the scaled time
stays put.  Two kernels
exist because the slow-downs differ by kind of work: an interpreter
kernel (a generator-driven event loop over a heap and a dict, like the
simulator) and a numpy kernel (a matmul plus a levelized gather-max
sweep, like ``ReplayProgram.price_grid``).

The reference constants are the kernels' typical times on the machine
the benchmark was defined on (Intel Xeon, 2 vCPUs, Python 3.11.7, numpy
2.4.6), so reported times read as seconds on that machine.
"""

from __future__ import annotations

import bisect
import heapq
import time
from typing import Callable, List, Tuple

#: typical min-of-3 kernel times on the defining machine (seconds)
PYTHON_REFERENCE_S = 2.5e-3
NUMPY_REFERENCE_S = 5.0e-3

#: How far job times follow kernel times, fitted across ten runs per
#: workload on the defining machine (slope of log job time on log kernel
#: time).  The interpreter kernel feels host slow-downs about twice as
#: much as the program does (fig3-simulate 0.51, fig3-replay 0.52); the
#: numpy kernel tracks price_grid one to one.
PYTHON_ELASTICITY = 0.5
NUMPY_ELASTICITY = 1.0

#: seconds of measured work between calibration samples
INTERVAL_S = 0.15


def python_kernel() -> int:
    """A tiny discrete-event loop: generators resumed from a heap.  Its
    working set fits in the core's caches, so it measures the core's
    speed and not the cache state the previous job left behind."""
    def process(steps: int):
        for step in range(steps):
            yield step

    procs = [process(50) for _ in range(60)]
    heap = [(0.0, i) for i in range(len(procs))]
    heapq.heapify(heap)
    totals: dict = {}
    while heap:
        now, i = heapq.heappop(heap)
        try:
            value = next(procs[i])
        except StopIteration:
            continue
        totals[i] = totals.get(i, 0) + value
        heapq.heappush(heap, (now + 1.0 + (i * 7 % 5) * 0.1, i))
    return len(totals)


class NumpyKernel:
    """A fixed random (max, +) sweep: one matmul, then per-level maxima."""

    NODES, POINTS, LEVELS = 1500, 200, 40

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        n = self.NODES
        self.np = np
        self.cost_a = rng.random((n, 4))
        self.cost_b = rng.random((n, 4))
        self.pred_a = rng.integers(0, n, n)
        self.pred_b = rng.integers(0, n, n)
        self.params = rng.random((4, self.POINTS))
        self.bounds = np.linspace(0, n, self.LEVELS + 1).astype(int)

    def __call__(self) -> float:
        np = self.np
        ca = self.cost_a @ self.params
        cb = self.cost_b @ self.params
        t = np.zeros_like(ca)
        for lo, hi in zip(self.bounds[:-1], self.bounds[1:]):
            np.maximum(t[self.pred_a[lo:hi]] + ca[lo:hi],
                       t[self.pred_b[lo:hi]] + cb[lo:hi], out=t[lo:hi])
        return float(t.max())


class Speedometer:
    """Calibration samples of one run."""

    def __init__(self, kernel: Callable[[], object], reference_s: float,
                 elasticity: float) -> None:
        self.kernel = kernel
        self.reference_s = reference_s
        self.elasticity = elasticity
        #: (perf_counter at the sample, kernel seconds)
        self.samples: List[Tuple[float, float]] = []
        self._last = 0.0

    @classmethod
    def for_kind(cls, kind: str) -> "Speedometer":
        if kind == "numpy":
            return cls(NumpyKernel(), NUMPY_REFERENCE_S, NUMPY_ELASTICITY)
        return cls(python_kernel, PYTHON_REFERENCE_S, PYTHON_ELASTICITY)

    def sample(self) -> None:
        """Time the kernel (best of three)."""
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            self.kernel()
            best = min(best, time.perf_counter() - t0)
        end = time.perf_counter()
        self.samples.append((end, best))
        self._last = end

    def tick(self) -> None:
        """Sample if ``INTERVAL_S`` of work has passed since the last one."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """Scale for a job timed over ``[start, end]``: (reference / kernel
        time) ** elasticity, with the mean kernel time of the last sample
        before ``start`` and the first one after ``end`` (the run samples
        before and after every timed region, so both exist)."""
        stamps = [t for t, _d in self.samples]
        before = self.samples[max(bisect.bisect_right(stamps, start) - 1, 0)]
        after = self.samples[min(bisect.bisect_left(stamps, end),
                                 len(stamps) - 1)]
        kernel_s = (before[1] + after[1]) / 2.0
        return (self.reference_s / kernel_s) ** self.elasticity

    def host_speed(self) -> float:
        """Mean host speed over all samples, as a fraction of reference."""
        return self.reference_s * len(self.samples) / sum(
            d for _t, d in self.samples)
