"""Figure 7 — range query cost vs query range size (Basic vs AP2G-tree)."""

from repro.bench.experiments import run_fig7
from repro.bench.harness import measure_range
from repro.workload.queries import query_batch


def test_range_query_tree(benchmark, small_setup):
    box = query_batch(small_setup.domain, 0.01, 1)[0]
    cost = benchmark(lambda: measure_range(small_setup, box, "tree"))
    assert cost.queries == 1


def test_range_query_basic(benchmark, small_setup):
    box = query_batch(small_setup.domain, 0.01, 1)[0]
    cost = benchmark(lambda: measure_range(small_setup, box, "basic"))
    assert cost.queries == 1


def test_fig7_report(benchmark):
    result = benchmark.pedantic(
        lambda: run_fig7(fractions=(0.0003, 0.001, 0.003, 0.01),
                         queries_per_point=3, backend="simulated"),
        rounds=1, iterations=1,
    )
    # AP2G-tree must beat Basic on the largest range in every metric.
    rows = {(r[0], r[1]): r for r in result.rows}
    basic, tree = rows[(1.0, "Basic")], rows[(1.0, "AP2G-tree")]
    assert tree[2] < basic[2]  # SP CPU
    assert tree[4] < basic[4]  # VO size
