"""Figure 14 — AP2kd-tree vs AP2G-tree under relaxed confidentiality."""

from repro.bench.experiments import run_fig14
from repro.bench.harness import measure_range
from repro.index.kdtree import APKDTree
from repro.workload.queries import query_batch


def test_kdtree_range_query(benchmark, small_setup):
    kd = APKDTree.build(small_setup.dataset, small_setup.owner.signer, small_setup.rng)
    box = query_batch(small_setup.domain, 0.01, 1)[0]
    cost = benchmark(lambda: measure_range(small_setup, box, "tree", tree=kd))
    assert cost.queries == 1


def test_fig14_report(benchmark):
    result = benchmark.pedantic(
        lambda: run_fig14(fractions=(0.001, 0.01), queries_per_point=3),
        rounds=1, iterations=1,
    )
    rows = {(r[0], r[1]): r for r in result.rows}
    # AP2kd-tree outperforms AP2G-tree on VO size at the larger range.
    assert rows[(1.0, "AP2kd-tree")][4] < rows[(1.0, "AP2G-tree")][4]
