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
  Section 8.2) go through the authenticator's one relax bookkeeping
  (APS cache, in-batch dedup, cross-query single flight), which runs the
  derivations it owns inline or on the process pool of
  :func:`repro.parallel.parallel_map`.

With ``workers=1`` the owned derivations run inline and consume the
shared ``rng`` in task order, making the output byte-identical to the
historical single-phase builders (golden-tested).  With ``workers > 1``
each relax job gets an independent seed pre-drawn in task order, so the
output is deterministic for a given seed regardless of scheduling (the
APS bytes differ from the inline stream, but sizes and validity do not).
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

#: Task kinds (also the keys of :attr:`EngineStats.tasks`).
ACCESSIBLE_RECORD = "accessible_record"
INACCESSIBLE_RECORD = "inaccessible_record"
INACCESSIBLE_NODE = "inaccessible_node"

TASK_KINDS = (ACCESSIBLE_RECORD, INACCESSIBLE_RECORD, INACCESSIBLE_NODE)

# Every query updates these, so their label sets are resolved once.
_TASKS = {kind: _M_TASKS.labels(kind=kind) for kind in TASK_KINDS}
_APS_HITS = _M_APS_CACHE.labels(outcome="hit")
_APS_MISSES = _M_APS_CACHE.labels(outcome="miss")
_PHASE_MATERIALIZE = _M_PHASE.labels(phase="materialize")
_PHASE_TRAVERSE = _M_PHASE.labels(phase="traverse")


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
# single-phase builders exactly (the inline materializer relies on this
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


# ----------------------------------------------------------------------
# Process-pool materialization.
#
# Spawned workers cannot share the dispatcher's group singleton or its
# caches, so each worker rebuilds its own from bytes exactly once (the
# pool initializer below) and every job travels as picklable primitives:
# serialized signatures in, serialized signatures out.  Group elements
# round-trip losslessly through ``to_bytes``/``deserialize``, and relax
# randomness comes only from the pre-drawn per-job seed — so the VO is
# the same for a given rng at any worker count above one.
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
    worker's op counts back into its own stats (counter parity with an
    inline run of the same workload).
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
    delta = group.stats.delta(before)
    # Decoding the shipped signature is transport, not relax work: the
    # inline path reads the same points from memory.
    delta["points_decoded"] = 0
    return aps.to_bytes(), delta


def _pool_runner(authenticator: AppAuthenticator, missing: Sequence[str], workers: int):
    """``run`` for :meth:`~repro.core.app_signature.AppAuthenticator.derive_batch`
    that ships owned derivations to the persistent spawn process pool.

    The pairing math then runs in separate interpreters, free of the
    GIL; the workers' group-op deltas merge back into the dispatcher's
    counters.
    """
    group = authenticator.group

    def run(jobs: list) -> list[AbsSignature]:
        raw = parallel_map(
            _relax_worker_job,
            [
                (signature.to_bytes(), message, policy, list(missing), seed)
                for (signature, message, policy), seed in jobs
            ],
            workers=workers,
            initializer=_relax_worker_init,
            initargs=(
                group.name,
                authenticator.mvk.to_bytes(),
                tuple(authenticator.universe.roles),
            ),
        )
        results = []
        for aps_bytes, ops_delta in raw:
            results.append(AbsSignature.from_bytes(group, aps_bytes))
            group.stats.merge(ops_delta)
        return results

    return run


def materialize(
    tasks: Sequence[ProofTask],
    authenticator: AppAuthenticator,
    user_roles,
    rng: Optional[random.Random] = None,
    workers: Optional[int] = 1,
    stats: Optional[EngineStats] = None,
    traverse_seconds: Optional[float] = None,
) -> VerificationObject:
    """Phase 2: turn a task list into a VO.

    ``user_roles`` must already be validated (the traversal's roles).
    Every ``ABS.Relax`` derivation goes through
    :meth:`~repro.core.app_signature.AppAuthenticator.derive_batch`, and
    ``workers`` only decides where the owned ones run: inline on ``rng``
    for ``workers=1``, else on the persistent spawn process pool
    (``None`` auto-sizes from the host's CPU count).  ``stats``, when
    given, is filled with per-phase costs.  ``traverse_seconds`` (from
    :func:`execute`) joins this phase's ledger record, so one query's
    engine work is one ledger charge.
    """
    if workers is not None and workers < 1:
        raise WorkloadError("workers must be >= 1")
    workers = resolve_workers(workers)
    if stats is None:
        stats = EngineStats(workers=workers)
    stats.workers = workers
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
    with _trace.span("engine.materialize", workers=workers) as mat_span:
        relaxing = [task for task in tasks if task.needs_relax]
        missing = authenticator.missing_roles_for(user_roles)
        run = None if workers == 1 else _pool_runner(authenticator, missing, workers)
        derived, relaxed = authenticator.derive_batch(
            [(task.signature, task.relax_message(), task.relax_policy()) for task in relaxing],
            missing, rng, run,
        )
        stats.relax_calls += relaxed
        aps = iter(derived)
        entries = [_entry_for(task, next(aps) if task.needs_relax else None) for task in tasks]
        mat_span.set_attributes(tasks=len(tasks), relax_calls=relaxed)
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
            _TASKS[kind].inc(count)
    if stats.relax_calls > relax0:
        _M_RELAX.inc(stats.relax_calls - relax0)
    if relaxed_hits:
        _APS_HITS.inc(relaxed_hits)
    if relaxed_misses:
        _APS_MISSES.inc(relaxed_misses)
    _PHASE_MATERIALIZE.observe(elapsed)
    return VerificationObject(entries=entries)


def execute(
    kind: str,
    traversal: Callable[[], list[ProofTask]],
    authenticator: AppAuthenticator,
    user_roles,
    rng: Optional[random.Random] = None,
    workers: Optional[int] = 1,
) -> tuple[VerificationObject, EngineStats]:
    """Run both phases, timing each: returns ``(vo, stats)``.

    ``traversal`` is a zero-argument closure over one of the
    ``traverse_*`` functions with validated roles.
    """
    stats = EngineStats(kind=kind, workers=workers or 0)
    t0 = time.perf_counter()
    with _trace.span("engine.traverse", kind=kind) as trav_span:
        tasks = traversal()
        trav_span.set_attribute("tasks", len(tasks))
    elapsed = time.perf_counter() - t0
    stats.traversal_ms = elapsed * 1000.0
    _PHASE_TRAVERSE.observe(elapsed)
    vo = materialize(
        tasks, authenticator, user_roles, rng, workers, stats,
        traverse_seconds=elapsed,
    )
    return vo, stats
