"""Smoke + content tests for the runnable experiment modules.

Each main() must run end-to-end at bench scale and print the artifact's
table(s).  Content checks are light here — the heavy shape assertions
live in benchmarks/.
"""

import pytest

from repro.experiments import (
    ablations,
    clusters,
    figure1,
    figure3,
    figure4,
    magpie_bench,
    table1,
    table2,
    variability,
)


def test_table1_main_bench_scale(capsys):
    table1.main(["--scale", "bench"])
    out = capsys.readouterr().out
    assert "Table 1" in out
    for app in ("water", "barnes", "tsp", "asp", "awari", "fft"):
        assert app in out


def test_table1_measure_app_row_fields():
    row = table1.measure_app("tsp", scale="bench")
    assert row.app == "tsp"
    assert row.speedup_32 > row.speedup_8 > 1.0
    assert row.runtime_32 > 0 and row.traffic_mbyte_s > 0


def test_table2_main(capsys):
    table2.main(["--scale", "bench"])
    out = capsys.readouterr().out
    assert "Sequencer migration" in out
    assert "none found" in out


def test_figure1_main(capsys):
    figure1.main(["--scale", "bench"])
    out = capsys.readouterr().out
    assert "MByte/s/cluster" in out and "msgs/s/cluster" in out


def test_figure3_single_panel(capsys):
    figure3.main(["--apps", "tsp", "--variant", "optimized"])
    out = capsys.readouterr().out
    assert "TSP optimized" in out
    assert "0.5 ms" in out and "300 ms" in out
    assert "legend" in out  # the ASCII chart rendered


def test_figure3_fft_has_single_variant(capsys):
    figure3.main(["--apps", "fft"])
    out = capsys.readouterr().out
    assert out.count("FFT unoptimized") == 1
    assert "FFT optimized" not in out


def test_figure3_prints_one_summary_keyed_on_the_rung(capsys):
    figure3.main(["--apps", "asp", "--variant", "optimized", "--replay"])
    out = capsys.readouterr().out
    assert "[replay] order-stable" in out
    assert "[replay] asp/optimized: predictions valid" in out
    assert "[whatif]" not in out


@pytest.mark.parametrize("module", [figure3, figure4])
def test_backend_flags_are_mutually_exclusive(module, capsys):
    with pytest.raises(SystemExit) as exc:
        module.main(["--predict", "--replay"])
    assert exc.value.code == 2
    assert "not allowed with" in capsys.readouterr().err


def test_figure4_main(capsys):
    figure4.main([])
    out = capsys.readouterr().out
    assert "communication time vs bandwidth" in out
    assert "communication time vs latency" in out


def test_clusters_main(capsys):
    clusters.main(["--apps", "water"])
    out = capsys.readouterr().out
    assert "8x4" in out and "4x8" in out and "2x16" in out


def test_magpie_bench_main(capsys):
    magpie_bench.main([])
    out = capsys.readouterr().out
    assert "MagPIe vs MPICH-like" in out
    for name in ("bcast", "allgatherv", "reduce_scatter", "scan"):
        assert name in out


def test_variability_sweep_shapes():
    curve = variability.sweep("tsp", "latency")
    assert len(curve) == len(variability.CVS)
    assert all(0 < v <= 110 for v in curve)


def test_ablations_main_single(capsys):
    ablations.main(["water-coordinator"])
    out = capsys.readouterr().out
    assert "Ablation: water-coordinator" in out
    assert "spread over members" in out
