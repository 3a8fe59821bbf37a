"""One ladder: a point and its grid agree with simulation at the corners.

``speedup_at`` and ``speedup_grid`` price through the same ladder
decision, and every analytic rung splices in the ground-truth runtimes
its corner validation simulated.  So at each validated corner, on the
predict and the replay entry alike, the single point, the grid point
and a plain simulation must be the same float, down to the repr.
"""

import pytest

from repro.experiments.runner import Sweeper

#: one app per analytic rung of the replay entry: replay (asp, barnes)
#: and vectorized-adaptive (fft)
CASES = [("asp", "optimized"), ("barnes", "optimized"),
         ("fft", "unoptimized")]


@pytest.mark.parametrize("backend", ["predict", "replay"])
@pytest.mark.parametrize("app,variant", CASES)
def test_corner_point_equals_grid_and_simulation(app, variant, backend):
    sweeper = Sweeper(backend=backend, seed=0)
    grid = sweeper.speedup_grid(app, variant)
    assert grid.predicted
    corners = [(vp.bandwidth_mbyte_s, vp.latency_ms)
               for vp in grid.validation.points]
    assert len(corners) == 4

    truth = Sweeper(seed=0)
    for bw, lat in corners:
        point = sweeper.speedup_at(app, variant, bw, lat)
        assert repr(point) == repr(grid.points[(bw, lat)])
        assert repr(point) == repr(truth.speedup_at(app, variant, bw, lat))
