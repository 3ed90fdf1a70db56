"""Measurement harness shared by benchmarks and EXPERIMENTS.md generation.

``build_setup`` assembles the full three-party system for a given
configuration (scale, policy workload, backend); ``measure_*`` time one
query end-to-end and report the paper's three metrics:

* SP CPU time  — VO construction (including ABS.Relax derivations);
* user CPU time — VO verification;
* VO size      — real serialized bytes.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.core.app_signature import AppAuthenticator
from repro.core.engine import execute, traverse_join, traverse_range, traverse_range_basic
from repro.core.records import Dataset
from repro.core.system import DataOwner
from repro.core.verifier import verify_join_vo, verify_vo
from repro.core.vo import VerificationObject
from repro.crypto import get_backend
from repro.index.boxes import Box, Domain
from repro.index.gridtree import APGTree
from repro.policy.policygen import (
    PolicyGenerator,
    PolicyWorkload,
    user_roles_for_coverage,
)
from repro.workload.tpch import TpchConfig, TpchGenerator


def _merge_ops(into: dict, other: dict) -> dict:
    for key, value in other.items():
        into[key] = into.get(key, 0) + value
    return into


@dataclass
class QueryCost:
    """Averaged per-query costs (the paper's reported metrics).

    ``sp_ops``/``user_ops`` carry the logical group-operation counts
    (mults, pows, pairings — see :class:`repro.crypto.GroupOpStats`) of
    the SP and user phases, so speedups can be traced to the operations
    saved rather than asserted from wall-clock alone.  Every field is
    measured whether or not observability is on; the per-stage account
    of a query is its :class:`~repro.obs.ledger.QueryLedger` entry.
    """

    sp_seconds: float = 0.0
    user_seconds: float = 0.0
    vo_bytes: float = 0.0
    num_results: float = 0.0
    queries: int = 0
    sp_ops: dict = field(default_factory=dict)
    user_ops: dict = field(default_factory=dict)

    def add(self, other: "QueryCost") -> None:
        self.sp_seconds += other.sp_seconds
        self.user_seconds += other.user_seconds
        self.vo_bytes += other.vo_bytes
        self.num_results += other.num_results
        self.queries += other.queries
        _merge_ops(self.sp_ops, other.sp_ops)
        _merge_ops(self.user_ops, other.user_ops)

    def averaged(self) -> "QueryCost":
        n = max(1, self.queries)
        return QueryCost(
            sp_seconds=self.sp_seconds / n,
            user_seconds=self.user_seconds / n,
            vo_bytes=self.vo_bytes / n,
            num_results=self.num_results / n,
            queries=n,
            sp_ops={k: v / n for k, v in self.sp_ops.items()},
            user_ops={k: v / n for k, v in self.user_ops.items()},
        )


@dataclass
class Setup:
    """A fully built three-party system ready for measurement."""

    config: TpchConfig
    workload: PolicyWorkload
    owner: DataOwner
    authenticator: AppAuthenticator
    dataset: Dataset
    tree: APGTree
    user_roles: frozenset[str]
    rng: random.Random

    @property
    def domain(self) -> Domain:
        return self.dataset.domain

    def missing_roles(self) -> Optional[list[str]]:
        if self.owner.hierarchy is not None:
            return self.owner.hierarchy.maximal_missing(
                self.owner.universe, self.user_roles
            )
        return None


def build_setup(
    scale: float = 0.3,
    shape: tuple[int, ...] = (64, 16, 16),
    num_policies: int = 10,
    num_roles: int = 10,
    max_or_fanin: int = 3,
    max_and_fanin: int = 2,
    coverage: float = 0.2,
    hierarchical: bool = False,
    num_global_roles: int = 2,
    backend: str = "simulated",
    seed: int = 2018,
) -> Setup:
    """Build DO + signed AP2G-tree + a user with ~``coverage`` access."""
    rng = random.Random(seed)
    group = get_backend(backend)
    policy_gen = PolicyGenerator(
        num_roles=num_roles,
        num_policies=num_policies,
        max_or_fanin=max_or_fanin,
        max_and_fanin=max_and_fanin,
        seed=seed,
    )
    workload = (
        policy_gen.generate_hierarchical(num_global_roles)
        if hierarchical
        else policy_gen.generate()
    )
    config = TpchConfig(scale=scale, shape=shape, seed=seed)
    dataset = TpchGenerator(config).lineitem(workload)
    owner = DataOwner(group, workload.universe, hierarchy=workload.hierarchy, rng=rng)
    tree = owner.build_tree(dataset)
    roles = user_roles_for_coverage(workload, coverage, seed=seed)
    if workload.hierarchy is not None:
        roles = workload.hierarchy.close_user_roles(roles)
    authenticator = AppAuthenticator(group, workload.universe, owner.mvk)
    return Setup(
        config=config,
        workload=workload,
        owner=owner,
        authenticator=authenticator,
        dataset=dataset,
        tree=tree,
        user_roles=frozenset(roles),
        rng=rng,
    )


def measure_range(
    setup: Setup,
    query: Box,
    method: str = "tree",
    tree: Optional[APGTree] = None,
    workers: int = 1,
    auth: Optional[AppAuthenticator] = None,
) -> QueryCost:
    """Time one range query end-to-end on a prepared setup.

    ``workers`` > 1 runs the APS materialization on that many pool processes;
    ``auth`` substitutes a caller-held authenticator (e.g. an SP's
    pooled, APS-cached one) for the setup's default.
    """
    tree = tree if tree is not None else setup.tree
    traverse = traverse_range if method == "tree" else traverse_range_basic
    missing = setup.missing_roles()
    if auth is None:
        auth = setup.authenticator
        if missing is not None:
            auth = _reduced_auth(setup, missing)
    stats = auth.group.stats
    before = stats.snapshot()
    t0 = time.perf_counter()
    vo = execute(
        "range",
        lambda: traverse(tree, query, setup.user_roles),
        auth, setup.user_roles, setup.rng, workers,
    )
    sp = time.perf_counter() - t0
    sp_ops = stats.delta(before)
    data = vo.to_bytes()
    before = stats.snapshot()
    t0 = time.perf_counter()
    records = verify_vo(vo, setup.authenticator, query, setup.user_roles, missing)
    user = time.perf_counter() - t0
    return QueryCost(
        sp_seconds=sp,
        user_seconds=user,
        vo_bytes=len(data),
        num_results=len(records),
        queries=1,
        sp_ops=sp_ops,
        user_ops=stats.delta(before),
    )


def measure_join(
    setup: Setup,
    tree_r: APGTree,
    tree_s: APGTree,
    query: Box,
    method: str = "tree",
    workers: int = 1,
) -> QueryCost:
    """Time one join query end-to-end."""
    missing = setup.missing_roles()
    auth = setup.authenticator
    if missing is not None:
        auth = _reduced_auth(setup, missing)
    stats = auth.group.stats
    before = stats.snapshot()
    if method == "tree":
        t0 = time.perf_counter()
        vo = execute(
            "join",
            lambda: traverse_join(tree_r, tree_s, query, setup.user_roles),
            auth, setup.user_roles, setup.rng, workers,
        )
        sp = time.perf_counter() - t0
    else:
        # Basic join baseline: authenticate the range on both tables with
        # per-key equality proofs, then join client-side.
        t0 = time.perf_counter()
        vo_r = execute(
            "range-basic",
            lambda: traverse_range_basic(tree_r, query, setup.user_roles, "R"),
            auth, setup.user_roles, setup.rng, workers,
        )
        vo_s = execute(
            "range-basic",
            lambda: traverse_range_basic(tree_s, query, setup.user_roles, "S"),
            auth, setup.user_roles, setup.rng, workers,
        )
        sp = time.perf_counter() - t0
        vo = VerificationObject(entries=list(vo_r.entries) + list(vo_s.entries))
    sp_ops = stats.delta(before)
    data = vo.to_bytes()
    before = stats.snapshot()
    t0 = time.perf_counter()
    if method == "tree":
        results = verify_join_vo(vo, setup.authenticator, query, setup.user_roles, missing)
        n_results = len(results)
    else:
        recs_r = verify_vo(
            VerificationObject(entries=vo.for_table("R")),
            setup.authenticator, query, setup.user_roles, missing,
        )
        recs_s = verify_vo(
            VerificationObject(entries=vo.for_table("S")),
            setup.authenticator, query, setup.user_roles, missing,
        )
        keys_s = {r.key for r in recs_s}
        n_results = sum(1 for r in recs_r if r.key in keys_s)
    user = time.perf_counter() - t0
    return QueryCost(
        sp_seconds=sp,
        user_seconds=user,
        vo_bytes=len(data),
        num_results=n_results,
        queries=1,
        sp_ops=sp_ops,
        user_ops=stats.delta(before),
    )


def _reduced_auth(setup: Setup, missing: list[str]) -> AppAuthenticator:
    """Authenticator whose super predicate is the reduced missing set."""
    return AppAuthenticator(
        setup.authenticator.group,
        setup.owner.universe,
        setup.owner.mvk,
        missing_override=missing,
    )


def average_costs(costs: Iterable[QueryCost]) -> QueryCost:
    total = QueryCost()
    for cost in costs:
        total.add(cost)
    return total.averaged()
