"""Regenerate ``perfbench/reference.json``: full-simulation ground truth.

Simulates the whole bench-scale Figure-3 grid — 11 panels x 42 points
plus each panel's all-Myrinet baseline — for the two application seeds
the golden fingerprints pin (0 and 7), through the same
``Sweeper(backend="simulate")`` code path the benchmark checks.  Floats
are stored with ``json``'s shortest round-trip repr, so a value read back
is bit-identical to the simulated one.

Run from the repository root (about a minute with two workers)::

    python3 perfbench/make_reference.py [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE_PATH = os.path.join(HERE, "reference.json")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=REFERENCE_PATH)
    args = parser.parse_args(argv)

    sys.path.insert(0, ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from perfbench.inputs import APP_SEEDS, PANELS
    from repro.experiments import grids
    from repro.experiments.runner import Sweeper

    table = {
        "about": "full-simulation runtimes (s) of the bench-scale Figure-3 "
                 "grid; runtimes[i][j] is latencies[i] x bandwidths[j]",
        "scale": "bench",
        "bandwidths": list(grids.BANDWIDTHS_MBYTE_S),
        "latencies": list(grids.LATENCIES_MS),
        "seeds": {},
    }
    for seed in APP_SEEDS:
        sweeper = Sweeper(scale="bench", seed=seed, workers=2)
        panels = {}
        for app, variant in PANELS:
            grid = sweeper.speedup_grid(app, variant)
            panels[f"{app}/{variant}"] = {
                "baseline": grid.baseline_runtime,
                "runtimes": [[grid.points[(bw, lat)].runtime
                              for bw in grids.BANDWIDTHS_MBYTE_S]
                             for lat in grids.LATENCIES_MS],
            }
            print(f"seed {seed} {app}/{variant} done", flush=True)
        table["seeds"][str(seed)] = panels
    tmp = args.out + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, args.out)


if __name__ == "__main__":
    main()
