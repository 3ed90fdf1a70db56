"""Figure 9 — range query cost vs number of distinct access policies."""

from repro.bench.experiments import run_fig9


def test_fig9_report(benchmark):
    result = benchmark.pedantic(
        lambda: run_fig9(policy_counts=(5, 10, 20, 40), queries_per_point=3),
        rounds=1, iterations=1,
    )
    # Performance stays roughly flat with policy diversity (paper Fig. 9):
    # max/min SP time within an order of magnitude.
    sp_times = [r[1] for r in result.rows]
    assert max(sp_times) < 10 * max(min(sp_times), 1e-9)
