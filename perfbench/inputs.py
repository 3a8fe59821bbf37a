"""Seeded workload inputs: sub-grids, dense axes and the serve job mix.

Every generator is a pure function of the benchmark seed, so the same
seed always yields the same inputs.  The *amount* of work does not
depend on the seed — only which Figure-3 points, which log-spaced dense
points and which job order — so runs on different seeds measure the same
work and their spread is measurement noise.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Sequence, Tuple

#: Figure-3 axes (mirrors ``repro.experiments.grids``; a self-test pins
#: the two together).
BANDWIDTHS = (6.3, 2.6, 0.95, 0.3, 0.1, 0.03)
LATENCIES = (0.5, 1.3, 3.3, 10.0, 30.0, 100.0, 300.0)

#: Application seeds the golden fingerprints pin; the reference table
#: holds ground truth for both.
APP_SEEDS = (0, 7)

#: The 11 Figure-3 panels (FFT has no optimized variant).
PANELS: Tuple[Tuple[str, str], ...] = (
    ("water", "unoptimized"), ("water", "optimized"),
    ("barnes", "unoptimized"), ("barnes", "optimized"),
    ("tsp", "unoptimized"), ("tsp", "optimized"),
    ("asp", "unoptimized"), ("asp", "optimized"),
    ("awari", "unoptimized"), ("awari", "optimized"),
    ("fft", "unoptimized"),
)

#: Panels the analytic ladder handles (tsp and awari sit on the
#: simulate rung, which fig3-simulate covers).
REPLAY_PANELS = tuple(p for p in PANELS if p[0] not in ("tsp", "awari"))

#: Order-stable panels priced on dense grids.
DENSE_PANELS = (("asp", "unoptimized"), ("asp", "optimized"),
                ("barnes", "unoptimized"), ("barnes", "optimized"))

#: fig3-simulate sub-grid shape (bandwidths x latencies).
SUBGRID_SHAPE = (1, 2)

#: Dense grid shape; asp-unoptimized at 60 x 70 = 4,200 points peaks
#: near 1.3 GB RSS, the most this benchmark asks of a 7 GiB machine.
DENSE_SHAPE = (60, 70)

#: serve-mix: jobs per round, and jobs per run.  A run serves at least
#: 1,000, so that ten jobs lie beyond p99 (with 120 jobs p95 drifted from
#: 151 to 244 ms between identical runs); it does so in several rounds,
#: so each job's latency is a median over rounds.
SERVE_JOBS = 250
SERVE_RUN_JOBS = 1000

#: serve-mix cold share, from the one measurement of this service's
#: traffic: a 120-job sizing run of the Zipf-skewed ``repro submit`` mix
#: served 97 jobs fully from the cache and dispatched work for 23.
MEASURED_WARM_JOBS, MEASURED_JOBS = 97, 120

#: Zipf exponent of job popularity.  No job log of this service exists,
#: so the skew is borrowed from a public measurement of request traffic:
#: Breslau, Cao, Fan, Phillips and Shenker, "Web Caching and Zipf-like
#: Distributions: Evidence and Implications", INFOCOM 1999, fitted
#: exponents between 0.64 and 0.83 over six web proxy traces.  This is
#: the middle of that range.
ZIPF_S = 0.735

#: serve-mix sweep jobs leave out awari, whose simulations cost ten
#: times the others': they would double a round for two panels.
SERVE_SWEEP_PANELS = tuple(p for p in PANELS if p[0] != "awari")

#: serve-mix full-grid analytic jobs (kind, app, variant): "a few", as
#: the mix was specified; their number is an assumption.
SERVE_GRID_JOBS = (("replay", "barnes", "unoptimized"),
                   ("replay", "barnes", "optimized"),
                   ("whatif", "water", "optimized"),
                   ("whatif", "fft", "unoptimized"))


def serve_sweeps_per_panel() -> int:
    """One-point sweep jobs per panel in serve-mix: the measured cold share
    of a round's jobs, less the grid jobs, split evenly over the panels."""
    cold = SERVE_JOBS * (MEASURED_JOBS - MEASURED_WARM_JOBS) / MEASURED_JOBS
    return round((cold - len(SERVE_GRID_JOBS)) / len(SERVE_SWEEP_PANELS))


def _rng(seed: int, salt: str) -> random.Random:
    return random.Random(f"perfbench/{salt}/{seed}")


def app_seed(seed: int) -> int:
    """The application seed (0 or 7) a benchmark seed runs."""
    return APP_SEEDS[_rng(seed, "app-seed").randrange(len(APP_SEEDS))]


def _pick(rng: random.Random, axis: Sequence[float], k: int) -> List[float]:
    """``k`` distinct values of ``axis``, kept in axis order."""
    chosen = set(rng.sample(range(len(axis)), k))
    return [axis[i] for i in range(len(axis)) if i in chosen]


def subgrid(seed: int) -> Tuple[List[float], List[float]]:
    """fig3-simulate's sub-grid of the Figure-3 axes (same for all panels)."""
    rng = _rng(seed, "subgrid")
    nb, nl = SUBGRID_SHAPE
    return _pick(rng, BANDWIDTHS, nb), _pick(rng, LATENCIES, nl)


def _dense_axis(rng: random.Random, axis: Sequence[float],
                size: int) -> List[float]:
    """``axis`` plus ``size - len(axis)`` log-uniform points between its
    neighbouring values, spread evenly over the gaps, in axis order."""
    extra = size - len(axis)
    gaps = len(axis) - 1
    per_gap = [extra // gaps] * gaps
    for g in rng.sample(range(gaps), extra % gaps):
        per_gap[g] += 1
    out: List[float] = []
    for g in range(gaps):
        lo, hi = math.log(axis[g]), math.log(axis[g + 1])
        inner = sorted(rng.random() for _ in range(per_gap[g]))
        out.append(axis[g])
        out.extend(math.exp(lo + u * (hi - lo)) for u in inner)
    out.append(axis[-1])
    return out


def dense_axes(seed: int) -> Tuple[List[float], List[float]]:
    """dense-grid's (bandwidths, latencies): Figure-3 axes plus seeded
    log-spaced points between them."""
    rng = _rng(seed, "dense")
    nb, nl = DENSE_SHAPE
    return _dense_axis(rng, BANDWIDTHS, nb), _dense_axis(rng, LATENCIES, nl)


def serve_catalogue(seed: int) -> List[Dict[str, object]]:
    """The distinct jobs of serve-mix, as ``repro submit`` JSON specs.

    The full-grid analytic jobs, and per panel of ``SERVE_SWEEP_PANELS``
    ``serve_sweeps_per_panel()`` one-point sweep jobs on distinct Figure-3
    points.  Corners are left out: the replay jobs' validation simulates
    them, so a sweep there could find its point cached before its own
    first run.
    """
    rng = _rng(seed, "serve-catalogue")
    a_seed = app_seed(seed)
    corners = {(bw, lat) for bw in (BANDWIDTHS[0], BANDWIDTHS[-1])
               for lat in (LATENCIES[0], LATENCIES[-1])}
    points = [(bw, lat) for lat in LATENCIES for bw in BANDWIDTHS
              if (bw, lat) not in corners]
    jobs: List[Dict[str, object]] = []
    for app, variant in SERVE_SWEEP_PANELS:
        for bw, lat in rng.sample(points, serve_sweeps_per_panel()):
            jobs.append({"kind": "sweep", "app": app, "variant": variant,
                         "seed": a_seed, "bandwidths": [bw],
                         "latencies": [lat]})
    for kind, app, variant in SERVE_GRID_JOBS:
        jobs.append({"kind": kind, "app": app, "variant": variant,
                     "seed": a_seed})
    return jobs


def _job_class(spec: Dict[str, object]) -> Tuple[str, int]:
    """Jobs of one class cost the same when served from the cache."""
    if spec["kind"] == "sweep":
        return ("sweep", len(spec["bandwidths"]) * len(spec["latencies"]))
    return (str(spec["kind"]), len(BANDWIDTHS) * len(LATENCIES))


def _zipf_counts(ranks: int, total: int) -> List[int]:
    """``total`` repeats split over ``ranks`` by Zipf weight (largest
    remainder, ties to the more popular rank)."""
    weights = [1.0 / (r + 1) ** ZIPF_S for r in range(ranks)]
    shares = [total * w / sum(weights) for w in weights]
    counts = [int(share) for share in shares]
    by_remainder = sorted(range(ranks), key=lambda r: counts[r] - shares[r])
    for r in by_remainder[:total - sum(counts)]:
        counts[r] += 1
    return counts


def serve_sequence(catalogue: List[Dict[str, object]], seed: int,
                   num_jobs: int = SERVE_JOBS) -> List[int]:
    """Catalogue indices in submission order.

    Every job appears once, so the cold work is the same on every seed,
    plus Zipf-skewed repeats.  Popularity ranks hold a fixed pattern of
    job classes with fixed repeat counts; the seed picks which job of a
    class holds each rank, and the order.  So every seed serves the same
    number of points and the same mix of warm job shapes.
    """
    classes = [_job_class(spec) for spec in catalogue]
    slots = sorted(classes)
    random.Random("perfbench/serve-layout").shuffle(slots)
    rng = _rng(seed, "serve-sequence")
    members: Dict[Tuple[str, int], List[int]] = {}
    for index, cls in enumerate(classes):
        members.setdefault(cls, []).append(index)
    for group in members.values():
        rng.shuffle(group)
    by_rank = [members[cls].pop() for cls in slots]
    counts = _zipf_counts(len(catalogue), num_jobs - len(catalogue))
    sequence = list(range(len(catalogue)))
    for job, count in zip(by_rank, counts):
        sequence.extend([job] * count)
    rng.shuffle(sequence)
    return sequence
