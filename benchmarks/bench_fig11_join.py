"""Figure 11 — join query cost (Q12: Orders x Lineitem on orderkey)."""

from repro.bench.experiments import run_fig11
from repro.bench.harness import build_setup, measure_join
from repro.workload.queries import query_batch
from repro.workload.tpch import TpchGenerator


def test_join_query_tree(benchmark):
    setup = build_setup(shape=(16, 4, 4))
    orders, lineitem = TpchGenerator(setup.config).orders_lineitem_join(setup.workload)
    tree_r = setup.owner.build_tree(orders)
    tree_s = setup.owner.build_tree(lineitem)
    box = query_batch(orders.domain, 0.1, 1)[0]
    cost = benchmark(lambda: measure_join(setup, tree_r, tree_s, box, "tree"))
    assert cost.queries == 1


def test_fig11_report(benchmark):
    result = benchmark.pedantic(
        lambda: run_fig11(fractions=(0.05, 0.1, 0.2, 0.4), queries_per_point=3),
        rounds=1, iterations=1,
    )
    # AP2G-tree substantially cheaper than Basic at the largest range.
    rows = {(r[0], r[1]): r for r in result.rows}
    basic, tree = rows[(40.0, "Basic")], rows[(40.0, "AP2G-tree")]
    assert tree[2] < basic[2] and tree[4] < basic[4]
