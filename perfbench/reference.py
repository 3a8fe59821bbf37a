"""Ground-truth checks against the full-simulation reference table.

Simulated outputs must be ``repr``-equal to the table.  Analytic outputs
are compared to simulation in relative-speedup percentage points; a gap
beyond the ladder's own 5 pp tolerance is a failure, and every gap feeds
``err_pp_max``.  Analytic values are never compared to earlier analytic
output, so a change that makes them *more* accurate still passes.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Sequence, Tuple

#: ``Sweeper``'s default ``tolerance_pp``: the ladder's own criterion.
TOLERANCE_PP = 5.0

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")

#: Failure notes kept per run (the count is exact; the notes are samples).
MAX_NOTES = 20


class Reference:
    """Simulated runtimes of the bench-scale Figure-3 grid per app seed."""

    def __init__(self, table: Dict) -> None:
        self.bandwidths: List[float] = table["bandwidths"]
        self.latencies: List[float] = table["latencies"]
        self._seeds: Dict[str, Dict] = table["seeds"]
        self._bw_index = {bw: j for j, bw in enumerate(self.bandwidths)}
        self._lat_index = {lat: i for i, lat in enumerate(self.latencies)}

    @classmethod
    def load(cls, path: str = REFERENCE_PATH) -> "Reference":
        with open(path) as fh:
            return cls(json.load(fh))

    def _panel(self, seed: int, app: str, variant: str) -> Dict:
        return self._seeds[str(seed)][f"{app}/{variant}"]

    def baseline(self, seed: int, app: str, variant: str) -> float:
        return self._panel(seed, app, variant)["baseline"]

    def runtime(self, seed: int, app: str, variant: str, bandwidth: float,
                latency_ms: float) -> float:
        """Simulated runtime at a Figure-3 axis point (KeyError off-axis)."""
        i = self._lat_index[latency_ms]
        j = self._bw_index[bandwidth]
        return self._panel(seed, app, variant)["runtimes"][i][j]

    def corners(self) -> List[Tuple[float, float]]:
        """The four grid corners the analytic ladder validates and splices."""
        return [(bw, lat) for lat in (self.latencies[0], self.latencies[-1])
                for bw in (self.bandwidths[0], self.bandwidths[-1])]


def speedup_pct(baseline: float, runtime: float) -> float:
    """The Sweeper's relative-speedup expression."""
    return 100.0 * baseline / runtime


class Checker:
    """Counts attempted/failed operations and the worst analytic gap.

    ``exact``, ``analytic`` and ``check_grid`` judge values and return
    verdicts; ``record`` books operations (grid points, or served jobs).
    """

    def __init__(self, reference: Reference, app_seed: int) -> None:
        self.reference = reference
        self.app_seed = app_seed
        self.attempted = 0
        self.failed = 0
        self.err_pp_max = 0.0
        self.notes: List[str] = []

    def note(self, message: str) -> None:
        if len(self.notes) < MAX_NOTES:
            self.notes.append(message)

    def record(self, ok: bool, count: int = 1) -> None:
        self.attempted += count
        if not ok:
            self.failed += count

    def fail(self, label: str, error: BaseException, count: int = 1) -> None:
        """Book ``count`` operations lost to an exception."""
        self.note(f"{label}: {type(error).__name__}: {error}")
        self.record(False, count)

    def exact(self, label: str, got: float, want: float) -> bool:
        if repr(got) == repr(want):
            return True
        self.note(f"{label}: {got!r} != reference {want!r}")
        return False

    def analytic(self, label: str, baseline: float, got: float,
                 ref_baseline: float, want: float) -> bool:
        """Analytic runtime ``got`` against simulated ``want``, compared as
        relative speedups (each over its own baseline)."""
        gap = abs(speedup_pct(baseline, got) - speedup_pct(ref_baseline, want))
        if gap == gap:                      # NaN never raises err_pp_max
            self.err_pp_max = max(self.err_pp_max, gap)
        if gap <= TOLERANCE_PP:
            return True
        self.note(f"{label}: {gap:.3f} pp from simulation "
                   f"(tolerance {TOLERANCE_PP} pp)")
        return False

    # ------------------------------------------------------------------
    def check_grid(self, app: str, variant: str, baseline: float,
                   runtimes: Dict[Tuple[float, float], float],
                   exact_points: Optional[Sequence[Tuple[float, float]]],
                   label: str) -> List[bool]:
        """Verdicts for the baseline and then each grid point.

        ``exact_points`` lists the points that must be ``repr``-equal to
        simulation (``None``: all of them); every other point is analytic.
        """
        ref = self.reference
        seed = self.app_seed
        ref_base = ref.baseline(seed, app, variant)
        verdicts = [self.exact(f"{label} baseline", baseline, ref_base)]
        exact = None if exact_points is None else set(exact_points)
        for (bw, lat), got in runtimes.items():
            want = ref.runtime(seed, app, variant, bw, lat)
            where = f"{label} ({bw:g} MB/s, {lat:g} ms)"
            if exact is None or (bw, lat) in exact:
                verdicts.append(self.exact(where, got, want))
            else:
                verdicts.append(self.analytic(where, baseline, got, ref_base,
                                              want))
        return verdicts
