"""``python -m repro replay <app>`` — vectorized compiled-DAG pricing.

Records one instrumented run of the app at the mid-grid reference
point, compiles the communication DAG into a flat vectorized event
program, probes its frozen contention orders against the interpreted
evaluator at the grid corners, validates against full simulation there,
and prints the complete Figure-3 panel priced in one numpy pass — plus
the probe/validation verdicts and a stage-by-stage timing summary.
Order-unstable DAGs try the vectorized-adaptive rung first: the
fixed-point engine re-sorts every contended queue per grid point and
keeps the grid batched when its corner convergence check passes (fft);
programs whose iteration does not converge (water) downgrade to the
per-point predict path, and timing-dependent apps (tsp, awari) report
their fallback and run the full simulation.  With ``--loss``, reprices
the panel under a uniform WAN packet-loss rate — an axis only the
compiled programs offer analytically.
"""

from __future__ import annotations

import argparse
import time
from typing import Optional

from ..experiments import grids
from ..experiments.cache import SimCache
from ..experiments.figure3 import render_panel
from ..experiments.report import render_table
from ..experiments.runner import GridPoint, Sweeper


def _loss_panel(sweeper: Sweeper, app: str, variant: str,
                loss_rate: float) -> Optional[str]:
    """The Figure-3 panel re-priced under a uniform WAN loss rate."""
    decision = sweeper.decide(app, variant)
    if decision.mode not in ("replay", "vectorized-adaptive"):
        print(f"[replay] --loss needs a vectorized program; {app}/{variant} "
              f"runs in {decision.mode!r} mode — skipping the loss panel")
        return None
    base = sweeper.baseline_runtime(app, variant)
    if decision.mode == "replay":
        runtimes = decision.backend.price_grid(loss_rates=[loss_rate])[0]
    else:
        result = decision.backend.price_grid_adaptive(loss_rates=[loss_rate])
        if not result.all_converged:
            # The interpreted evaluator has no loss axis, so there is no
            # per-point downgrade target under loss — skip honestly.
            print(f"[replay] --loss skipped: {result.num_unconverged} "
                  f"points did not converge at p={loss_rate:g} and no "
                  f"analytic downgrade exists on the loss axis")
            return None
        runtimes = result.runtimes[0]
    from ..experiments.runner import SpeedupGrid

    grid = SpeedupGrid(app=app, variant=variant, baseline_runtime=base,
                       predicted=True, backend=decision.mode)
    for i, lat in enumerate(grids.LATENCIES_MS):
        for j, bw in enumerate(grids.BANDWIDTHS_MBYTE_S):
            runtime = float(runtimes[i][j])
            grid.points[(bw, lat)] = GridPoint(
                bandwidth_mbyte_s=bw, latency_ms=lat, runtime=runtime,
                relative_speedup_pct=100.0 * base / runtime)
    return render_panel(grid)


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro replay", description=__doc__)
    parser.add_argument("app", choices=list(grids.APPS))
    parser.add_argument("--variant", default="optimized",
                        choices=["unoptimized", "optimized"])
    parser.add_argument("--scale", default="bench", choices=["paper", "bench"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tolerance-pp", type=float, default=5.0,
                        help="max |program - simulated| relative speedup "
                             "(percentage points) at the validation corners "
                             "before falling back")
    parser.add_argument("--cache", default=None, metavar="DIR",
                        help="SimCache directory: reuse/store the compiled "
                             "program and the corner simulations")
    parser.add_argument("--loss", type=float, default=None, metavar="P",
                        help="also print the panel re-priced under a uniform "
                             "WAN packet-loss rate P (0 <= P < 0.5)")
    args = parser.parse_args(argv)

    variant = args.variant
    if args.app == "fft" and variant == "optimized":
        variant = "unoptimized"  # the paper found no optimization for FFT
        print("note: fft has no optimized variant; using unoptimized\n")

    cache = SimCache(args.cache) if args.cache else None
    sweeper = Sweeper(scale=args.scale, seed=args.seed, backend="replay",
                      tolerance_pp=args.tolerance_pp, cache=cache)
    wall_start = time.perf_counter()  # lint: ignore[wall-clock]
    grid = sweeper.speedup_grid(args.app, variant)
    wall = time.perf_counter() - wall_start  # lint: ignore[wall-clock]

    print(render_panel(grid))
    print()
    print(f"[replay] backend={grid.backend} "
          f"({len(grid.points)}-point grid in {wall:.2f}s total)")
    if grid.replay is not None:
        print(f"[replay] probe: {grid.replay.summary()}")
    if grid.convergence is not None:
        print(f"[replay] convergence: {grid.convergence.summary()}")
    if grid.downgraded_points:
        pts = ", ".join(f"({bw:g} MB/s, {lat:g} ms)"
                        for bw, lat in grid.downgraded_points)
        print(f"[replay] {len(grid.downgraded_points)} unconverged "
              f"points re-priced by the evaluator: {pts}")
    if grid.validation is not None:
        print(f"[replay] validation: {grid.validation.summary()}")

    decision = sweeper.decide(args.app, variant)
    backend = decision.backend
    if backend is not None and backend.program is not None:
        stats = backend.program.stats()
        print(f"[replay] program: {stats['nodes']} nodes in "
              f"{stats['levels']} levels, {stats['joins_reduced']} joins "
              f"folded at compile time"
              + (" (loaded from cache)" if backend.from_cache else ""))
    if backend is not None and backend.adaptive_program is not None:
        stats = backend.adaptive_program.stats()
        print(f"[replay] adaptive program: {stats['nodes']} nodes in "
              f"{stats['levels']} levels, {stats['adaptive_group_ops']} "
              f"queue ops across {stats['adaptive_groups']} groups"
              + (" (loaded from cache)"
                 if backend.adaptive_from_cache else ""))
    if backend is not None and backend.timings:
        stages = ", ".join(f"{name[:-2]} {secs * 1e3:.1f}ms"
                           for name, secs in sorted(backend.timings.items()))
        print(f"[replay] stages: {stages}")

    if args.loss is not None and grid.backend in ("replay",
                                                  "vectorized-adaptive"):
        panel = _loss_panel(sweeper, args.app, variant, args.loss)
        if panel is not None:
            print()
            print(f"--- re-priced at WAN loss rate p={args.loss:g} ---")
            print(panel)
    elif args.loss is not None:
        print(f"[replay] --loss skipped: grid was produced by "
              f"{grid.backend!r}, not the vectorized program")
    return 0


if __name__ == "__main__":
    main()
