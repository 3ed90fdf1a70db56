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
from repro.crypto import get_backend
from repro.index.boxes import Box, Domain
from repro.index.gridtree import APGTree
from repro.obs import ledger as _obs_ledger
from repro.obs import metrics as _obs_metrics
from repro.obs import trace as _obs_trace
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
    (mults, pows, pairings, memo hits — see
    :class:`repro.crypto.GroupOpStats`) of the SP and user phases, so
    speedups can be traced to the operations saved rather than asserted
    from wall-clock alone.

    The SP phase is further split along the two-phase engine's seam:
    ``traversal_seconds`` (crypto-free tree walk) vs. ``relax_seconds``
    (APS materialization, across ``workers`` threads), plus the APS
    cache hits the materializer scored.

    ``registry_delta`` is the measurement's view over the global obs
    registry (:mod:`repro.obs.metrics`): every counter that moved during
    the measured query, keyed by its exposition name.  Empty when
    ``REPRO_OBS=0`` — the wall-clock and op-count fields above are
    always-on and remain the primary record.

    ``ledger`` is the measured trace's :class:`~repro.obs.ledger.
    QueryLedger` in ``as_dict`` form (stage seconds, counters, group
    ops) — ``None`` when ``REPRO_OBS=0``.  Averaging keeps the last
    observed ledger as a representative sample rather than averaging
    stage times across queries.
    """

    sp_seconds: float = 0.0
    user_seconds: float = 0.0
    vo_bytes: float = 0.0
    num_entries: float = 0.0
    num_results: float = 0.0
    queries: int = 0
    sp_ops: dict = field(default_factory=dict)
    user_ops: dict = field(default_factory=dict)
    traversal_seconds: float = 0.0
    relax_seconds: float = 0.0
    workers: int = 1
    aps_cache_hits: float = 0.0
    registry_delta: dict = field(default_factory=dict)
    ledger: Optional[dict] = None

    def add(self, other: "QueryCost") -> None:
        self.sp_seconds += other.sp_seconds
        self.user_seconds += other.user_seconds
        self.vo_bytes += other.vo_bytes
        self.num_entries += other.num_entries
        self.num_results += other.num_results
        self.queries += other.queries
        _merge_ops(self.sp_ops, other.sp_ops)
        _merge_ops(self.user_ops, other.user_ops)
        self.traversal_seconds += other.traversal_seconds
        self.relax_seconds += other.relax_seconds
        self.workers = max(self.workers, other.workers)
        self.aps_cache_hits += other.aps_cache_hits
        _merge_ops(self.registry_delta, other.registry_delta)
        if other.ledger is not None:
            self.ledger = other.ledger

    def averaged(self) -> "QueryCost":
        n = max(1, self.queries)
        return QueryCost(
            sp_seconds=self.sp_seconds / n,
            user_seconds=self.user_seconds / n,
            vo_bytes=self.vo_bytes / n,
            num_entries=self.num_entries / n,
            num_results=self.num_results / n,
            queries=n,
            sp_ops={k: v / n for k, v in self.sp_ops.items()},
            user_ops={k: v / n for k, v in self.user_ops.items()},
            traversal_seconds=self.traversal_seconds / n,
            relax_seconds=self.relax_seconds / n,
            workers=self.workers,
            aps_cache_hits=self.aps_cache_hits / n,
            registry_delta={k: v / n for k, v in self.registry_delta.items()},
            ledger=self.ledger,
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

    ``workers`` fans the APS materialization over that many threads;
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
    window = _obs_metrics.registry().window()
    with _obs_trace.span("bench.measure_range", workers=workers) as bench_span:
        measured_trace = getattr(bench_span, "trace_id", None)
        t0 = time.perf_counter()
        vo, estats = execute(
            "range",
            lambda: traverse(tree, query, setup.user_roles),
            auth, setup.user_roles, setup.rng, workers,
        )
        sp = time.perf_counter() - t0
        sp_ops = stats.delta(before)
        data = vo.to_bytes()
        user_ops: dict = {}
        t0 = time.perf_counter()
        records = verify_vo(
            vo, setup.authenticator, query, setup.user_roles, missing,
            collect_ops=user_ops,
        )
        user = time.perf_counter() - t0
    entry = _obs_ledger.ledger().get(measured_trace)
    return QueryCost(
        sp_seconds=sp,
        user_seconds=user,
        vo_bytes=len(data),
        num_entries=len(vo),
        num_results=len(records),
        queries=1,
        sp_ops=sp_ops,
        user_ops=user_ops,
        traversal_seconds=estats.traversal_ms / 1000.0,
        relax_seconds=estats.relax_ms / 1000.0,
        workers=estats.workers,
        aps_cache_hits=estats.aps_cache_hits,
        registry_delta=window.delta(),
        ledger=entry.as_dict() if entry is not None else None,
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
    window = _obs_metrics.registry().window()
    if method == "tree":
        t0 = time.perf_counter()
        vo, estats = execute(
            "join",
            lambda: traverse_join(tree_r, tree_s, query, setup.user_roles),
            auth, setup.user_roles, setup.rng, workers,
        )
        sp = time.perf_counter() - t0
    else:
        # Basic join baseline: authenticate the range on both tables with
        # per-key equality proofs, then join client-side.
        t0 = time.perf_counter()
        vo_r, estats_r = execute(
            "range-basic",
            lambda: traverse_range_basic(tree_r, query, setup.user_roles, "R"),
            auth, setup.user_roles, setup.rng, workers,
        )
        vo_s, estats = execute(
            "range-basic",
            lambda: traverse_range_basic(tree_s, query, setup.user_roles, "S"),
            auth, setup.user_roles, setup.rng, workers,
        )
        sp = time.perf_counter() - t0
        estats.traversal_ms += estats_r.traversal_ms
        estats.relax_ms += estats_r.relax_ms
        estats.aps_cache_hits += estats_r.aps_cache_hits
        from repro.core.vo import VerificationObject

        vo = VerificationObject(entries=list(vo_r.entries) + list(vo_s.entries))
    sp_ops = stats.delta(before)
    data = vo.to_bytes()
    before = stats.snapshot()
    t0 = time.perf_counter()
    if method == "tree":
        results = verify_join_vo(vo, setup.authenticator, query, setup.user_roles, missing)
        n_results = len(results)
    else:
        from repro.core.vo import VerificationObject

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
        num_entries=len(vo),
        num_results=n_results,
        queries=1,
        sp_ops=sp_ops,
        user_ops=stats.delta(before),
        traversal_seconds=estats.traversal_ms / 1000.0,
        relax_seconds=estats.relax_ms / 1000.0,
        workers=estats.workers,
        aps_cache_hits=estats.aps_cache_hits,
        registry_delta=window.delta(),
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
