"""Figure 10 — range query cost vs role count / max policy length."""

from repro.bench.experiments import run_fig10


def test_fig10_report(benchmark):
    result = benchmark.pedantic(
        lambda: run_fig10(configs=((10, 3, 2), (20, 4, 3), (40, 6, 4)),
                          queries_per_point=3),
        rounds=1, iterations=1,
    )
    # Larger role spaces / longer policies cost more (paper Fig. 10).
    sp_times = [r[2] for r in result.rows]
    assert sp_times[-1] > sp_times[0]
