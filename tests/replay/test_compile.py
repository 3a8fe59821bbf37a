"""Compiler correctness: exactness at the anchor, guards, reductions.

The one property the compilation step must never lose: priced at the
*same* topology it was compiled against, the program is the evaluator —
every contention order it froze is the order the evaluator would have
resolved.  Any disagreement there is a compiler bug, not an
approximation (frozen-order drift only appears *away* from the anchor,
and is the probe's job to measure).
"""

import pytest

from repro.experiments import grids
from repro.replay.compile import CompileError, compile_dag, compile_recording
from repro.whatif.evaluate import Evaluator
from repro.whatif.record import record_app

#: every analytic app/variant — the order-unstable ones (fft, water) are
#: where a frozen affine walk and a float walk could actually disagree
ANCHOR_COMBOS = [(app, variant)
                 for app in ("asp", "barnes", "fft", "water")
                 for variant in ("optimized", "unoptimized")]


@pytest.mark.parametrize("app,variant", ANCHOR_COMBOS)
def test_exact_at_reference_anchor(app, variant):
    recording = record_app(app, variant)
    program = compile_recording(recording)
    evaluated = Evaluator(recording.dag).evaluate(recording.topology)
    priced = program.price(recording.topology)
    assert priced == pytest.approx(evaluated, rel=1e-9)


def test_exact_at_arbitrary_anchor():
    """Compiled at any grid point, exact at that point — the property
    that makes the corner probe a pure frozen-order measurement.  fft's
    frozen orders move between corners, so there the float and affine
    walks resolve different orders at each anchor."""
    for app, variant in [("asp", "optimized"), ("fft", "unoptimized")]:
        recording = record_app(app, variant)
        evaluator = Evaluator(recording.dag)
        for bw, lat in [(0.03, 300.0), (6.3, 300.0), (0.03, 0.5)]:
            topo = grids.multi_cluster(bw, lat)
            program = compile_dag(recording.dag, topo)
            assert program.price(topo) == pytest.approx(
                evaluator.evaluate(topo), rel=1e-9), (app, bw, lat)


def test_timing_sensitive_recording_refused():
    recording = record_app("tsp", "optimized")
    assert recording.timing_sensitive
    with pytest.raises(CompileError) as err:
        compile_recording(recording)
    assert "timing" in str(err.value)


def test_program_shape_and_reductions():
    recording = record_app("asp", "optimized")
    program = compile_recording(recording)
    stats = program.stats()
    assert stats["nodes"] > 0
    assert 0 < stats["levels"] <= stats["nodes"]
    # The dominance/zero reductions must actually fire — an asp DAG has
    # thousands of same-node and root-zero joins.
    assert stats["joins_reduced"] > 0
    assert stats["num_messages"] == recording.dag.num_messages


def test_program_rejects_foreign_topology():
    recording = record_app("asp", "optimized")
    program = compile_recording(recording)
    with pytest.raises(ValueError):
        program.price(grids.multi_cluster(0.95, 3.3, clusters=2,
                                          cluster_size=16))
    with pytest.raises(ValueError):
        program.price(grids.baseline())
