"""Figure 8 — range query cost vs database scale (range fixed at 0.1%)."""

from repro.bench.experiments import run_fig8


def test_fig8_report(benchmark):
    result = benchmark.pedantic(
        lambda: run_fig8(scales=(0.1, 0.3, 1, 3), queries_per_point=3),
        rounds=1, iterations=1,
    )
    # AP2G-tree costs increase monotonically with scale (paper Fig. 8).
    tree_rows = [r for r in result.rows if r[1] == "AP2G-tree"]
    sp_times = [r[2] for r in tree_rows]
    assert len(tree_rows) == 4
    assert sp_times[-1] >= sp_times[0]
