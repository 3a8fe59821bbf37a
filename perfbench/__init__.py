"""The repository benchmark: Figure-3 regeneration, dense-grid pricing and
a served job mix, checked against full-simulation ground truth.

Run one workload from the repository root::

    python3 perfbench/run.py --workload fig3-replay --seed 1 --seconds 20 --trace 0

See ``perfbench/README.md`` for the workloads, metrics and layer map.
"""
