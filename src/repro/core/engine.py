"""Two-phase query engine: crypto-free traversal + proof materialization.

Every SP-side query answer used to interleave tree traversal with inline
``ABS.Relax`` calls, and the same walk was hand-duplicated per query kind
(equality, range, join, multi-way join) plus a crypto-free copy in the
planner.  This module splits the work into two phases:

* **Phase 1 — traversal** (``traverse_*``): walk the AP2G/AP2kd-tree for
  any query kind and emit typed :class:`ProofTask` descriptors
  (accessible-record / inaccessible-record / inaccessible-node).  No
  group operation is performed; the task list *is* the query plan, which
  is why :mod:`repro.core.planner` prices queries from the same walk.
* **Phase 2 — materialization** (:func:`materialize`): turn descriptors
  into VO entries.  Accessible tasks copy the stored APP signature; the
  independent ``ABS.Relax`` derivations (the dominant SP cost, paper
  Section 8.2) are dispatched through
  :func:`repro.parallel.parallel_map` with a configurable worker count,
  after consulting the authenticator's APS cache so repeated proofs are
  never re-derived.

With ``workers=1`` and a shared ``rng`` the materializer consumes
randomness in task order, making its output byte-identical to the
historical single-phase builders (golden-tested).  With ``workers > 1``
each relax job gets an independent seed pre-drawn in task order, so the
output is deterministic for a given seed regardless of scheduling (the
APS bytes differ from the serial stream, but sizes and validity do not).
"""

from __future__ import annotations

import random
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.abs.keys import AbsVerificationKey
from repro.abs.relax import relax
from repro.abs.scheme import AbsScheme, AbsSignature
from repro.core.app_signature import AppAuthenticator
from repro.core.records import Record
from repro.core.vo import (
    AccessibleRecordEntry,
    InaccessibleRecordEntry,
    InaccessibleNodeEntry,
    VerificationObject,
    VOEntry,
)
from repro.errors import ReproError, WorkloadError
from repro.index.boxes import Box, Point
from repro.index.gridtree import APGTree, IndexNode
from repro.obs import metrics as _metrics
from repro.obs import ledger as _ledger
from repro.obs import trace as _trace
from repro.parallel import parallel_map, resolve_workers
from repro.policy.boolexpr import BoolExpr

_REG = _metrics.registry()
_M_TASKS = _REG.counter(
    "repro_engine_tasks_total", "Proof tasks materialized, by task kind.",
    labelnames=("kind",),
)
_M_RELAX = _REG.counter(
    "repro_engine_relax_calls_total", "ABS.Relax derivations actually performed.",
)
_M_APS_CACHE = _REG.counter(
    "repro_engine_aps_cache_total", "APS cache lookups by outcome.",
    labelnames=("outcome",),
)
_M_PHASE = _REG.histogram(
    "repro_engine_phase_seconds", "Engine phase wall time.",
    labelnames=("phase",),
)
_M_GROUP_OPS = _REG.counter(
    "repro_group_ops_total",
    "Group operations charged to engine materialization, by backend and op.",
    labelnames=("backend", "op"),
)

_M_INFLIGHT_FALLBACK = _REG.counter(
    "repro_relax_inflight_fallback_total",
    "Foreign in-flight relax waits that fell back to local derivation "
    "(owner errored or never published).",
)

#: Materialization executor backends (``materialize(backend=...)``).
RELAX_BACKENDS = ("thread", "process")

#: Task kinds (also the keys of :attr:`EngineStats.tasks`).
ACCESSIBLE_RECORD = "accessible_record"
INACCESSIBLE_RECORD = "inaccessible_record"
INACCESSIBLE_NODE = "inaccessible_node"

TASK_KINDS = (ACCESSIBLE_RECORD, INACCESSIBLE_RECORD, INACCESSIBLE_NODE)


@dataclass(frozen=True)
class ProofTask:
    """One unit of VO work emitted by a phase-1 traversal.

    * ``ACCESSIBLE_RECORD`` — ``record`` + its APP ``signature`` are
      returned verbatim (no cryptography);
    * ``INACCESSIBLE_RECORD`` — an APS on ``record.message()`` must be
      derived under the user's super policy;
    * ``INACCESSIBLE_NODE`` — an APS on ``box.to_bytes()`` (the node's
      grid box) must be derived; ``policy`` is the node policy the
      relaxation starts from.
    """

    kind: str
    signature: AbsSignature
    table: str = ""
    record: Optional[Record] = None
    box: Optional[Box] = None
    policy: Optional[BoolExpr] = None

    @property
    def needs_relax(self) -> bool:
        return self.kind != ACCESSIBLE_RECORD

    def relax_message(self) -> bytes:
        """The message the APS signature must cover."""
        if self.kind == INACCESSIBLE_RECORD:
            return self.record.message()
        if self.kind == INACCESSIBLE_NODE:
            return self.box.to_bytes()
        raise ReproError(f"task kind {self.kind!r} needs no relaxation")

    def relax_policy(self) -> BoolExpr:
        """The original predicate the relaxation starts from."""
        if self.kind == INACCESSIBLE_RECORD:
            return self.record.policy
        if self.kind == INACCESSIBLE_NODE:
            return self.policy
        raise ReproError(f"task kind {self.kind!r} needs no relaxation")


def _accessible(node: IndexNode, table: str) -> ProofTask:
    return ProofTask(
        kind=ACCESSIBLE_RECORD, signature=node.signature, table=table, record=node.record
    )


def _inaccessible_record(node: IndexNode, table: str) -> ProofTask:
    return ProofTask(
        kind=INACCESSIBLE_RECORD, signature=node.signature, table=table, record=node.record
    )


def _inaccessible_node(node: IndexNode, table: str) -> ProofTask:
    return ProofTask(
        kind=INACCESSIBLE_NODE,
        signature=node.signature,
        table=table,
        box=node.box,
        policy=node.policy,
    )


# ----------------------------------------------------------------------
# Phase 1: crypto-free traversals.  Emission order matches the historical
# single-phase builders exactly (the serial materializer relies on this
# for byte-identical output).
# ----------------------------------------------------------------------
def traverse_equality(
    tree: APGTree, key: Point, user_roles, table: str = ""
) -> list[ProofTask]:
    """Equality query (Algorithm 1): one task for the unit-cell leaf."""
    leaf = tree.leaf_at(key)
    if leaf.record.policy.evaluate(user_roles):
        return [_accessible(leaf, table)]
    return [_inaccessible_record(leaf, table)]


def traverse_range(
    tree: APGTree, query: Box, user_roles, table: str = ""
) -> list[ProofTask]:
    """Range query via AP2G-tree breadth-first search (Algorithm 3)."""
    tasks: list[ProofTask] = []
    queue: deque = deque([tree.root])
    while queue:
        node = queue.popleft()
        if not node.box.intersects(query):
            continue
        if not query.contains_box(node.box):
            if node.is_leaf:
                # A partially-overlapping leaf is a pseudo-region leaf of
                # an AP2kd-tree (record leaves are unit cells and can
                # never partially overlap).  Its APS covers the whole
                # region, which may extend beyond the query range
                # (Section 9.2); the verifier clips it.
                tasks.append(_inaccessible_node(node, table))
            else:
                queue.extend(node.children)
            continue
        # Node fully inside the query range.
        if node.accessible_to(user_roles):
            if node.is_leaf:
                tasks.append(_accessible(node, table))
            else:
                queue.extend(node.children)
        elif node.is_leaf and node.record is not None:
            tasks.append(_inaccessible_record(node, table))
        else:
            tasks.append(_inaccessible_node(node, table))
    return tasks


def traverse_range_basic(
    tree: APGTree, query: Box, user_roles, table: str = ""
) -> list[ProofTask]:
    """Baseline: the equality-query walk repeated for every discrete key."""
    tasks: list[ProofTask] = []
    for point in query.points():
        tasks.extend(traverse_equality(tree, point, user_roles, table))
    return tasks


def _descend_covering(node: IndexNode, box: Box) -> IndexNode:
    """Smallest node under ``node`` whose grid box contains ``box``."""
    descended = True
    while descended and not node.is_leaf:
        descended = False
        for child in node.children:
            if child.box.contains_box(box):
                node = child
                descended = True
                break
    return node


def traverse_join(
    tree_r: APGTree,
    tree_s: APGTree,
    query: Box,
    user_roles,
    table_r: str = "R",
    table_s: str = "S",
) -> list[ProofTask]:
    """Equi-join (Algorithm 4): R drives, S contributes covering regions."""
    tasks: list[ProofTask] = []
    queue: deque = deque([(tree_r.root, tree_s.root)])
    while queue:
        node_r, node_s = queue.popleft()
        if not node_r.box.intersects(query):
            continue
        if not query.contains_box(node_r.box):
            for child in node_r.children:
                queue.append((child, node_s))
            continue
        # node_r fully inside the query range.
        if not node_r.accessible_to(user_roles):
            if node_r.is_leaf:
                tasks.append(_inaccessible_record(node_r, table_r))
            else:
                tasks.append(_inaccessible_node(node_r, table_r))
            continue
        cover_s = _descend_covering(node_s, node_r.box)
        if not cover_s.accessible_to(user_roles):
            # Nothing under node_r can join: one APS for the S region.
            if cover_s.is_leaf and cover_s.record is not None:
                tasks.append(_inaccessible_record(cover_s, table_s))
            else:
                tasks.append(_inaccessible_node(cover_s, table_s))
            continue
        if node_r.is_leaf:
            # cover_s is the S leaf for the same key (full trees over the
            # same domain), and both sides are accessible: a result pair.
            tasks.append(_accessible(node_r, table_r))
            tasks.append(_accessible(cover_s, table_s))
        else:
            for child in node_r.children:
                queue.append((child, cover_s))
    return tasks


def traverse_multiway_join(
    trees: Sequence[tuple[str, APGTree]], query: Box, user_roles
) -> list[ProofTask]:
    """k-way equi-join: first table drives; first inaccessible cover prunes."""
    driver_name, driver = trees[0]
    others = trees[1:]
    tasks: list[ProofTask] = []
    queue: deque = deque([(driver.root, [tree.root for _, tree in others])])
    while queue:
        node, covers = queue.popleft()
        if not node.box.intersects(query):
            continue
        if not query.contains_box(node.box):
            for child in node.children:
                queue.append((child, covers))
            continue
        if not node.accessible_to(user_roles):
            if node.is_leaf and node.record is not None:
                tasks.append(_inaccessible_record(node, driver_name))
            else:
                tasks.append(_inaccessible_node(node, driver_name))
            continue
        # Check every other table's covering node; first blocker prunes.
        new_covers = []
        blocked = False
        for (other_name, _), cover in zip(others, covers):
            cover = _descend_covering(cover, node.box)
            if not cover.accessible_to(user_roles):
                if cover.is_leaf and cover.record is not None:
                    tasks.append(_inaccessible_record(cover, other_name))
                else:
                    tasks.append(_inaccessible_node(cover, other_name))
                blocked = True
                break
            new_covers.append(cover)
        if blocked:
            continue
        if node.is_leaf:
            # All covering nodes are the matching leaves (identical grid
            # structure over a shared domain): emit the k-way result.
            tasks.append(_accessible(node, driver_name))
            for (other_name, _), cover in zip(others, new_covers):
                tasks.append(_accessible(cover, other_name))
        else:
            for child in node.children:
                queue.append((child, new_covers))
    return tasks


# ----------------------------------------------------------------------
# Phase 2: proof materialization.
# ----------------------------------------------------------------------
@dataclass
class EngineStats:
    """Per-phase observability for one engine execution.

    ``group_ops`` is the :class:`~repro.crypto.GroupOpStats` delta of the
    materialization phase; cache counters are deltas of the
    authenticator's APS-cache counters; ``relax_calls`` counts the
    ``ABS.Relax`` derivations actually performed (cache hits excluded).
    """

    kind: str = ""
    workers: int = 1
    backend: str = "thread"
    traversal_ms: float = 0.0
    relax_ms: float = 0.0
    tasks: dict = field(default_factory=dict)
    relax_calls: int = 0
    aps_cache_hits: int = 0
    aps_cache_misses: int = 0
    group_ops: dict = field(default_factory=dict)

    @property
    def total_tasks(self) -> int:
        return sum(self.tasks.values())

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "workers": self.workers,
            "backend": self.backend,
            "traversal_ms": round(self.traversal_ms, 3),
            "relax_ms": round(self.relax_ms, 3),
            "tasks": dict(self.tasks),
            "relax_calls": self.relax_calls,
            "aps_cache_hits": self.aps_cache_hits,
            "aps_cache_misses": self.aps_cache_misses,
            "group_ops": dict(self.group_ops),
        }


def _entry_for(task: ProofTask, aps: Optional[AbsSignature]) -> VOEntry:
    if task.kind == ACCESSIBLE_RECORD:
        record = task.record
        return AccessibleRecordEntry(
            key=record.key,
            value=record.value,
            policy=record.policy,
            signature=task.signature,
            table=task.table,
        )
    if task.kind == INACCESSIBLE_RECORD:
        record = task.record
        return InaccessibleRecordEntry(
            key=record.key,
            value_hash=record.value_hash(),
            aps=aps,
            table=task.table,
        )
    if task.kind == INACCESSIBLE_NODE:
        return InaccessibleNodeEntry(box=task.box, aps=aps, table=task.table)
    raise ReproError(f"unknown proof task kind {task.kind!r}")


def _materialize_serial(
    tasks: Sequence[ProofTask],
    authenticator: AppAuthenticator,
    user_roles,
    rng: Optional[random.Random],
    stats: EngineStats,
) -> list[VOEntry]:
    """Derive in task order with a shared rng (byte-identical to the
    historical single-phase builders for the same seed)."""
    entries: list[VOEntry] = []
    for task in tasks:
        if task.needs_relax:
            hits_before = authenticator.aps_cache_hits
            if task.kind == INACCESSIBLE_RECORD:
                aps = authenticator.derive_record_aps(
                    task.record, task.signature, user_roles, rng
                )
            else:
                aps = authenticator.derive_node_aps(
                    task.box, task.policy, task.signature, user_roles, rng
                )
            if authenticator.aps_cache_hits == hits_before:
                stats.relax_calls += 1
        else:
            aps = None
        entries.append(_entry_for(task, aps))
    return entries


#: One planned relax derivation: (cache key, in-flight slot, first task
#: index, task, pre-drawn seed).
_RelaxJob = tuple[Optional[tuple], object, int, ProofTask, Optional[int]]


def _plan_relax(
    tasks: Sequence[ProofTask],
    authenticator: AppAuthenticator,
    missing: Sequence[str],
    rng: Optional[random.Random],
):
    """Phase-2 work planning shared by the thread and process paths.

    Consults the APS cache, collapses duplicate derivations within the
    batch (``pending``), and claims an in-flight slot per remaining key
    so *concurrent queries* sharing APS work dedup against each other:
    flights this call owns go to ``jobs`` (we derive and publish);
    flights another query already owns go to ``foreign`` (we wait for its
    result instead of recomputing).  Seeds are pre-drawn in task order —
    for a single in-flight query every ``begin`` returns ownership, so
    the rng stream is identical to the historical planner.
    """
    aps_by_index: dict[int, AbsSignature] = {}
    pending: dict[tuple, list[int]] = {}
    jobs: list[_RelaxJob] = []
    foreign: list[_RelaxJob] = []
    for index, task in enumerate(tasks):
        if not task.needs_relax:
            continue
        key = authenticator.aps_cache_key(task.signature, task.relax_message(), missing)
        if key is not None:
            cached = authenticator.aps_cache_get(key)
            if cached is not None:
                aps_by_index[index] = cached
                continue
            positions = pending.get(key)
            if positions is not None:  # duplicate within this batch
                positions.append(index)
                continue
            pending[key] = [index]
        seed = rng.getrandbits(64) if rng is not None else None
        slot, owner = authenticator.relax_begin(key)
        (jobs if owner else foreign).append((key, slot, index, task, seed))
    return aps_by_index, pending, jobs, foreign


def _local_relax(
    authenticator: AppAuthenticator,
    task: ProofTask,
    missing: Sequence[str],
    seed: Optional[int],
) -> AbsSignature:
    job_rng = random.Random(seed) if seed is not None else None
    aps, _ = relax(
        authenticator.scheme, authenticator.mvk, task.signature,
        task.relax_message(), task.relax_policy(), missing, job_rng,
    )
    return aps


def _settle_relax(
    authenticator: AppAuthenticator,
    aps_by_index: dict[int, AbsSignature],
    pending: dict[tuple, list[int]],
    jobs: list[_RelaxJob],
    results: Sequence[AbsSignature],
    foreign: list[_RelaxJob],
    missing: Sequence[str],
    stats: EngineStats,
) -> None:
    """Publish owned results, then settle flights owned by other queries."""
    for (key, slot, index, _task, _seed), aps in zip(jobs, results):
        if key is not None:
            authenticator.aps_cache_put(key, aps)
        authenticator.relax_publish(key, slot, value=aps)
        if key is not None:
            for position in pending[key]:
                aps_by_index[position] = aps
        else:
            aps_by_index[index] = aps
    stats.relax_calls += len(jobs)
    for key, slot, index, task, seed in foreign:
        try:
            aps = authenticator.relax_wait(slot)
        except Exception:
            # The owning query errored or never published: derive locally
            # rather than failing a query that did nothing wrong.
            _M_INFLIGHT_FALLBACK.inc()
            aps = _local_relax(authenticator, task, missing, seed)
            stats.relax_calls += 1
            if key is not None:
                authenticator.aps_cache_put(key, aps)
        for position in pending.get(key, (index,)):
            aps_by_index[position] = aps


def _abort_relax(authenticator: AppAuthenticator, jobs: list[_RelaxJob],
                 exc: BaseException) -> None:
    """Release owned flights on failure so concurrent waiters never hang."""
    for key, slot, _index, _task, _seed in jobs:
        authenticator.relax_publish(key, slot, error=exc)


def _materialize_parallel(
    tasks: Sequence[ProofTask],
    authenticator: AppAuthenticator,
    user_roles,
    rng: Optional[random.Random],
    workers: int,
    stats: EngineStats,
) -> list[VOEntry]:
    """Dispatch relax jobs through thread-backed :func:`parallel_map`.

    The APS cache is consulted (and filled) in the dispatching thread, so
    worker threads never touch shared mutable state; identical derivations
    within one batch are deduplicated when the cache is enabled, and
    derivations already in flight for a *concurrent* query are awaited
    instead of recomputed.  Seeds are pre-drawn in task order, making the
    output deterministic for a given ``rng`` seed regardless of thread
    scheduling.
    """
    missing = authenticator.missing_roles_for(user_roles)
    aps_by_index, pending, jobs, foreign = _plan_relax(tasks, authenticator, missing, rng)

    scheme, mvk = authenticator.scheme, authenticator.mvk

    def run_job(job) -> AbsSignature:
        _key, _slot, _index, task, seed = job
        job_rng = random.Random(seed) if seed is not None else None
        aps, _ = relax(
            scheme, mvk, task.signature, task.relax_message(),
            task.relax_policy(), missing, job_rng,
        )
        return aps

    try:
        results = parallel_map(
            run_job, jobs, workers=min(workers, max(1, len(jobs)))
        )
    except BaseException as exc:
        _abort_relax(authenticator, jobs, exc)
        raise
    _settle_relax(
        authenticator, aps_by_index, pending, jobs, results, foreign, missing, stats
    )
    return [_entry_for(task, aps_by_index.get(i)) for i, task in enumerate(tasks)]


# ----------------------------------------------------------------------
# Process-pool materialization.
#
# Spawned workers cannot share the dispatcher's group singleton or its
# caches, so each worker rebuilds its own from bytes exactly once (the
# pool initializer below) and every job travels as picklable primitives:
# serialized signatures in, serialized signatures out.  Group elements
# round-trip losslessly through ``to_bytes``/``deserialize``, and relax
# randomness comes only from the pre-drawn per-job seed — so the process
# path is byte-identical to the thread path for the same rng.
# ----------------------------------------------------------------------
_WORKER_CTX: dict = {}


def _relax_worker_init(backend_name: str, mvk_bytes: bytes,
                       warm_roles: tuple) -> None:
    """One-time initializer for a spawned relax worker.

    Rebuilds the process-local group singleton, deserializes the
    verification key, and pre-warms the caches every relax touches
    (generator + attribute-base Lim-Lee combs, e(g1, g2)) so the
    worker's first job runs at steady-state speed.
    """
    from repro.crypto.group import resolve_pickle_backend

    group = resolve_pickle_backend(backend_name)
    group.warm_worker()
    mvk = AbsVerificationKey.from_bytes(group, mvk_bytes)
    for role in warm_roles:
        group.pow_fixed(mvk.attribute_base(role), 1)
    group.pow_fixed(mvk.g, 1)
    group.pow_fixed(mvk.c, 1)
    _WORKER_CTX["group"] = group
    _WORKER_CTX["mvk"] = mvk
    _WORKER_CTX["scheme"] = AbsScheme(group)


def _relax_worker_job(job: tuple) -> tuple[bytes, dict]:
    """Run one relax derivation inside a pool worker.

    ``job`` is ``(signature bytes, message, policy, missing roles, seed)``;
    returns ``(APS bytes, group-op delta)`` so the dispatcher can fold the
    worker's op counts back into its own stats (counter parity with a
    serial run of the same workload).
    """
    try:
        group = _WORKER_CTX["group"]
        mvk = _WORKER_CTX["mvk"]
        scheme = _WORKER_CTX["scheme"]
    except KeyError:
        raise ReproError(
            "relax worker context missing: _relax_worker_job must run in a "
            "pool initialized with _relax_worker_init"
        ) from None
    sig_bytes, message, policy, missing, seed = job
    before = group.stats.snapshot()
    signature = AbsSignature.from_bytes(group, sig_bytes)
    job_rng = random.Random(seed) if seed is not None else None
    aps, _ = relax(scheme, mvk, signature, message, policy, missing, job_rng)
    return aps.to_bytes(), group.stats.delta(before)


def _materialize_process(
    tasks: Sequence[ProofTask],
    authenticator: AppAuthenticator,
    user_roles,
    rng: Optional[random.Random],
    workers: int,
    stats: EngineStats,
) -> list[VOEntry]:
    """Dispatch relax jobs to the persistent spawn process pool.

    This is the path where cold batches actually scale with cores: the
    pairing math runs in separate interpreters, free of the GIL.  Even
    ``workers=1`` routes through the pool — process jobs depend on
    worker-initializer state the dispatching process does not have.
    """
    missing = authenticator.missing_roles_for(user_roles)
    aps_by_index, pending, jobs, foreign = _plan_relax(tasks, authenticator, missing, rng)

    group = authenticator.group
    payloads = [
        (task.signature.to_bytes(), task.relax_message(), task.relax_policy(),
         list(missing), seed)
        for _key, _slot, _index, task, seed in jobs
    ]
    try:
        raw = parallel_map(
            _relax_worker_job,
            payloads,
            workers=workers,
            backend="process",
            initializer=_relax_worker_init,
            initargs=(
                group.name,
                authenticator.mvk.to_bytes(),
                tuple(authenticator.universe.roles),
            ),
        )
    except BaseException as exc:
        _abort_relax(authenticator, jobs, exc)
        raise
    results = []
    for aps_bytes, ops_delta in raw:
        results.append(AbsSignature.from_bytes(group, aps_bytes))
        group.stats.merge(ops_delta)
    _settle_relax(
        authenticator, aps_by_index, pending, jobs, results, foreign, missing, stats
    )
    return [_entry_for(task, aps_by_index.get(i)) for i, task in enumerate(tasks)]


def materialize(
    tasks: Sequence[ProofTask],
    authenticator: AppAuthenticator,
    user_roles,
    rng: Optional[random.Random] = None,
    workers: Optional[int] = 1,
    stats: Optional[EngineStats] = None,
    backend: str = "thread",
    traverse_seconds: Optional[float] = None,
) -> VerificationObject:
    """Phase 2: turn a task list into a VO.

    ``user_roles`` must already be validated (the traversal's roles);
    ``workers`` > 1 routes all ``ABS.Relax`` work through
    :func:`repro.parallel.parallel_map` (``None`` auto-sizes from the
    host's CPU count), and ``backend="process"`` ships the jobs to the
    persistent spawn process pool — the only configuration where
    pure-Python pairing math escapes the GIL.  ``stats``, when given, is
    filled with per-phase costs.  ``traverse_seconds`` (from
    :func:`execute`) joins this phase's ledger record, so one query's
    engine work is one ledger charge.
    """
    if workers is not None and workers < 1:
        raise WorkloadError("workers must be >= 1")
    if backend not in RELAX_BACKENDS:
        raise WorkloadError(
            f"unknown materialization backend {backend!r}; expected one of "
            f"{RELAX_BACKENDS}"
        )
    workers = resolve_workers(workers)
    if stats is None:
        stats = EngineStats(workers=workers)
    stats.workers = workers
    stats.backend = backend
    call_tasks = {kind: 0 for kind in TASK_KINDS}
    for task in tasks:
        call_tasks[task.kind] = call_tasks.get(task.kind, 0) + 1
    for kind in TASK_KINDS:
        stats.tasks[kind] = stats.tasks.get(kind, 0)
    for kind, count in call_tasks.items():
        stats.tasks[kind] = stats.tasks.get(kind, 0) + count
    hits0 = authenticator.aps_cache_hits
    misses0 = authenticator.aps_cache_misses
    relax0 = stats.relax_calls
    ops_before = authenticator.group.stats.snapshot()
    t0 = time.perf_counter()
    with _trace.span("engine.materialize", workers=workers, backend=backend) as mat_span:
        if backend == "process":
            # Always through the pool: process jobs need initializer state.
            entries = _materialize_process(
                tasks, authenticator, user_roles, rng, workers, stats
            )
        elif workers == 1:
            entries = _materialize_serial(tasks, authenticator, user_roles, rng, stats)
        else:
            entries = _materialize_parallel(
                tasks, authenticator, user_roles, rng, workers, stats
            )
        mat_span.set_attributes(
            tasks=len(tasks), relax_calls=stats.relax_calls - relax0
        )
    elapsed = time.perf_counter() - t0
    stats.relax_ms += elapsed * 1000.0
    relaxed_hits = authenticator.aps_cache_hits - hits0
    relaxed_misses = authenticator.aps_cache_misses - misses0
    stats.aps_cache_hits += relaxed_hits
    stats.aps_cache_misses += relaxed_misses
    backend = getattr(authenticator.group, "name", type(authenticator.group).__name__)
    ops_delta = {
        key: value
        for key, value in authenticator.group.stats.delta(ops_before).items()
        if value
    }
    for key, value in ops_delta.items():
        stats.group_ops[key] = stats.group_ops.get(key, 0) + value
        _M_GROUP_OPS.inc(value, backend=backend, op=key)
    ledger = _ledger.ledger()
    trace_id = _trace.current_trace_id()
    phases = {"materialize": elapsed}
    if traverse_seconds is not None:
        phases["traverse"] = traverse_seconds
    ledger.record(
        trace_id,
        phases,
        relax_calls=stats.relax_calls - relax0,
        aps_cache_hits=relaxed_hits,
        aps_cache_misses=relaxed_misses,
    )
    if ops_delta:
        ledger.merge_group_ops(trace_id, ops_delta)
    for kind, count in call_tasks.items():
        if count:
            _M_TASKS.inc(count, kind=kind)
    if stats.relax_calls > relax0:
        _M_RELAX.inc(stats.relax_calls - relax0)
    if relaxed_hits:
        _M_APS_CACHE.inc(relaxed_hits, outcome="hit")
    if relaxed_misses:
        _M_APS_CACHE.inc(relaxed_misses, outcome="miss")
    _M_PHASE.observe(elapsed, phase="materialize")
    return VerificationObject(entries=entries)


def execute(
    kind: str,
    traversal: Callable[[], list[ProofTask]],
    authenticator: AppAuthenticator,
    user_roles,
    rng: Optional[random.Random] = None,
    workers: Optional[int] = 1,
    backend: str = "thread",
) -> tuple[VerificationObject, EngineStats]:
    """Run both phases, timing each: returns ``(vo, stats)``.

    ``traversal`` is a zero-argument closure over one of the
    ``traverse_*`` functions with validated roles.
    """
    stats = EngineStats(kind=kind, workers=workers or 0, backend=backend)
    t0 = time.perf_counter()
    with _trace.span("engine.traverse", kind=kind) as trav_span:
        tasks = traversal()
        trav_span.set_attribute("tasks", len(tasks))
    elapsed = time.perf_counter() - t0
    stats.traversal_ms = elapsed * 1000.0
    _M_PHASE.observe(elapsed, phase="traverse")
    vo = materialize(
        tasks, authenticator, user_roles, rng, workers, stats, backend,
        traverse_seconds=elapsed,
    )
    return vo, stats
