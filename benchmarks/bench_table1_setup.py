"""Table 1 — DO setup overhead: APP signing + AP2G-tree construction."""

import random

from repro.bench.experiments import run_table1
from repro.core.system import DataOwner
from repro.crypto import simulated
from repro.policy.policygen import PolicyGenerator
from repro.workload.tpch import TpchConfig, TpchGenerator


def test_sign_and_build_index(benchmark):
    """Hot path: signing one AP2G-tree over a small domain."""
    workload = PolicyGenerator().generate()
    dataset = TpchGenerator(TpchConfig(scale=0.3, shape=(16, 4, 4))).lineitem(workload)
    owner = DataOwner(simulated(), workload.universe, rng=random.Random(1))
    tree = benchmark.pedantic(
        lambda: owner.build_tree(dataset), rounds=3, iterations=1
    )
    assert tree.stats.num_leaves == 16 * 4 * 4


def test_table1_report(benchmark):
    result = benchmark.pedantic(
        lambda: run_table1(shape=(32, 8, 8)), rounds=1, iterations=1
    )
    assert len(result.rows) == 4
    # Index size must saturate: scale 3 within 5% of scale 1.
    sizes = [row[4] for row in result.rows]
    assert sizes[-1] <= sizes[-2] * 1.05
