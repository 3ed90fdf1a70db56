"""Benchmarks for the extension features (beyond the paper's figures):
multi-way joins, inequality joins, aggregation, and the query planner."""

import random

from repro.bench.report import ExperimentResult, kib, millis
from repro.core.aggregation import authenticated_aggregate
from repro.core.app_signature import AppAuthenticator
from repro.core.inequality_join import inequality_join_vo, verify_inequality_join_vo
from repro.core.multiway_join import multiway_join_vo, verify_multiway_join_vo
from repro.core.planner import plan_range_query
from repro.core.range_query import clip_query, range_vo
from repro.core.records import Dataset, Record
from repro.core.system import DataOwner
from repro.crypto import simulated
from repro.index.boxes import Box, Domain
from repro.policy.boolexpr import parse_policy
from repro.policy.roles import RoleUniverse

import pytest


@pytest.fixture(scope="module")
def ext_env():
    rng = random.Random(3030)
    universe = RoleUniverse(["RoleA", "RoleB"])
    owner = DataOwner(simulated(), universe, rng=rng)
    domain = Domain.of((0, 63))
    tables = {}
    for name in ("R", "S", "T"):
        ds = Dataset(domain)
        for k in sorted(rng.sample(range(64), 24)):
            ds.add(Record((k,), f"{name}{k}".encode(),
                          parse_policy("RoleA" if k % 2 else "RoleB")))
        tables[name] = ds
    trees = {name: owner.build_tree(ds) for name, ds in tables.items()}
    auth = AppAuthenticator(simulated(), universe, owner.mvk)
    return rng, owner, domain, trees, auth


def test_multiway_join_bench(benchmark, ext_env):
    rng, owner, domain, trees, auth = ext_env
    roles = frozenset({"RoleA"})
    query = Box((0,), (63,))
    named = [(n, trees[n]) for n in ("R", "S", "T")]

    def run():
        vo = multiway_join_vo(named, auth, query, roles, rng)
        return verify_multiway_join_vo(vo, auth, query, roles, ["R", "S", "T"])

    results = benchmark(run)
    assert all(len(r.records) == 3 for r in results)


def test_inequality_join_bench(benchmark, ext_env):
    rng, owner, domain, trees, auth = ext_env
    roles = frozenset({"RoleA"})
    query = Box((8,), (40,))

    def run():
        bundle = inequality_join_vo(trees["R"], trees["S"], auth, query, roles, rng)
        return verify_inequality_join_vo(bundle, auth, domain, roles)

    pairs = benchmark(run)
    assert pairs and all(p.right.key[0] >= p.left.key[0] for p in pairs)


def test_aggregation_bench(benchmark, ext_env):
    rng, owner, domain, trees, auth = ext_env
    roles = frozenset({"RoleA"})
    query = clip_query(trees["R"], (0,), (63,))
    vo = range_vo(trees["R"], auth, query, roles, rng)

    expected = sum(
        1 for n in trees["R"].iter_nodes()
        if n.is_leaf and not n.record.is_pseudo and n.record.policy.evaluate(roles)
    )
    result = benchmark(
        lambda: authenticated_aggregate(vo, auth, query, roles, "count")
    )
    assert result.value == expected


def test_planner_bench(benchmark, ext_env):
    rng, owner, domain, trees, auth = ext_env
    roles = frozenset({"RoleA"})
    query = clip_query(trees["R"], (0,), (63,))
    plan = benchmark(
        lambda: plan_range_query(trees["R"], owner.universe, query, roles)
    )
    vo = range_vo(trees["R"], auth, query, roles, rng)
    assert plan.vo_bytes == vo.byte_size()


def test_extensions_report(benchmark, ext_env):
    """One summary table comparing the extension query types."""
    rng, owner, domain, trees, auth = ext_env
    roles = frozenset({"RoleA"})
    import time

    result = ExperimentResult(
        exp_id="Extensions",
        title="Extension query types (64-key domain, RoleA user)",
        headers=["query", "SP+user (ms)", "proof (KB)", "results"],
    )

    def row(name, fn):
        t0 = time.perf_counter()
        size, count = fn()
        result.add_row(name, millis(time.perf_counter() - t0), kib(size), count)

    def _range():
        query = clip_query(trees["R"], (0,), (63,))
        vo = range_vo(trees["R"], auth, query, roles, rng)
        from repro.core.verifier import verify_vo

        return vo.byte_size(), len(verify_vo(vo, auth, query, roles))

    def _multiway():
        query = Box((0,), (63,))
        named = [(n, trees[n]) for n in ("R", "S", "T")]
        vo = multiway_join_vo(named, auth, query, roles, rng)
        return vo.byte_size(), len(
            verify_multiway_join_vo(vo, auth, query, roles, ["R", "S", "T"])
        )

    def _inequality():
        query = Box((8,), (40,))
        bundle = inequality_join_vo(trees["R"], trees["S"], auth, query, roles, rng)
        return bundle.byte_size(), len(
            verify_inequality_join_vo(bundle, auth, domain, roles)
        )

    def once():
        result.rows.clear()
        row("range", _range)
        row("3-way join", _multiway)
        row("band join", _inequality)
        return result

    benchmark.pedantic(once, rounds=1, iterations=1)
    assert len(result.rows) == 3
