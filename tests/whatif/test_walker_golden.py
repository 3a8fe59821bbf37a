"""Golden values for the replay walker's two stamp algebras.

``tests/goldens/walker_values.json`` holds, for every analytic
application variant (asp, barnes, fft, water x optimized/unoptimized):

- ``repr(Evaluator.evaluate(...))`` at the four Figure-3 corners and the
  recording's reference point — the float algebra;
- the sha256 of the compiled program's canonical JSON record, both the
  frozen and the ``adaptive=True`` compile — the affine algebras.

Both algebras drive one walker, so neither can serve as the other's
independent reference; this table does.  Any bit of drift in an
evaluated runtime or a compiled program fails here with the diff.

Regenerate only in a change that means to alter analytic values (and
says so in CHANGES.md)::

    PYTHONPATH=src python tests/goldens/regen_walker_values.py
"""

import hashlib
import json
import pathlib

import pytest

from repro.experiments import grids
from repro.replay.compile import compile_dag
from repro.whatif.evaluate import Evaluator
from repro.whatif.record import REFERENCE_POINT, record_app

GOLDEN_PATH = (pathlib.Path(__file__).parents[1] / "goldens"
               / "walker_values.json")

APPS = ("asp", "barnes", "fft", "water")
VARIANTS = ("optimized", "unoptimized")
#: the four Figure-3 corners, then the recording's reference point
POINTS = ((6.3, 0.5), (6.3, 300.0), (0.03, 0.5), (0.03, 300.0),
          REFERENCE_POINT)


def program_digest(program) -> str:
    record = json.dumps(program.to_record(), sort_keys=True)
    return hashlib.sha256(record.encode()).hexdigest()


def walker_values(app: str, variant: str) -> dict:
    """Repr-exact walker outputs; the regeneration script calls this."""
    recording = record_app(app, variant)
    dag, topology = recording.dag, recording.topology
    evaluator = Evaluator(dag)
    return {
        "evaluate": {f"{bw},{lat}": repr(evaluator.evaluate(
            grids.multi_cluster(bw, lat))) for bw, lat in POINTS},
        "compile_sha256": program_digest(compile_dag(dag, topology)),
        "compile_adaptive_sha256": program_digest(
            compile_dag(dag, topology, adaptive=True)),
    }


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_file_covers_every_analytic_variant(goldens):
    assert sorted(goldens) == sorted(f"{app}/{variant}" for app in APPS
                                     for variant in VARIANTS)


@pytest.mark.parametrize("app", APPS)
@pytest.mark.parametrize("variant", VARIANTS)
def test_walker_matches_golden(app, variant, goldens):
    assert walker_values(app, variant) == goldens[f"{app}/{variant}"]
