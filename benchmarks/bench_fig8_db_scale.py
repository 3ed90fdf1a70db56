"""Figure 8 — range query cost vs database scale (range fixed at 0.1%)."""

from repro.bench.experiments import run_fig8


def test_fig8_report(benchmark):
    result = benchmark.pedantic(
        lambda: run_fig8(scales=(0.1, 0.3, 1, 3), queries_per_point=3),
        rounds=1, iterations=1,
    )
    # AP2G-tree costs increase with scale (paper Fig. 8).  The trend is
    # asserted on the VO size, which the seeded queries fix; the SP time
    # of a 3-query point is wall-clock noise of the same order as the
    # trend, and the first point also pays the process's warm-up.
    tree_rows = [r for r in result.rows if r[1] == "AP2G-tree"]
    assert len(tree_rows) == 4
    vo_kib = [r[4] for r in tree_rows]
    assert vo_kib == sorted(vo_kib)
    assert vo_kib[-1] > vo_kib[0]
