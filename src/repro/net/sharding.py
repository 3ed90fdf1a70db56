"""Shard-tolerant scatter-gather serving over verifiable partitions.

ROADMAP item 2: one SP process holding the whole table is the paper's
model, not a deployment's.  This module partitions a table across N SP
*shards* — each shard itself a replicated set served through
:class:`~repro.net.cluster.ReplicatedClient` — and gives the user a
:class:`ShardedClient` that scatters one logical query, gathers
per-shard VOs, and merges them into **one verifiable answer**.

The trust model does not soften anywhere in that sentence.  A
coordinator that could silently drop a shard's contribution from a
"verified" answer would be a completeness hole bigger than anything the
per-shard VOs close, so the merge is anchored in the DO-signed **shard
roster** (:class:`~repro.core.freshness.ShardRoster`): shard count,
partition bounds, and the epoch every shard must serve at, bound into
one :class:`~repro.core.freshness.FreshnessToken` the client verifies
before its first query.  Every shard response must carry a freshness
token naming *that shard* at *exactly* the roster's epoch, and the
merged verifier (:func:`~repro.core.verifier.verify_sharded`) checks
that the contributed ranges tile the query.  Dropped, duplicated,
re-routed, stale, and rolled-back shards are all verification-class
errors — detected cryptographically, not by trusting the coordinator.

Partitioning is pluggable through :class:`ShardMap`:

* :class:`RangeShardMap` — contiguous slabs of the indexed attribute;
  each shard's AP2G-tree covers only its slab, so sub-queries clip
  naturally and per-shard VOs stay proportional to the slab's share of
  the query;
* :class:`HashShardMap` — records scattered by key hash; every shard
  covers the full domain and answers every range sub-query (absent keys
  prove out as pseudo records), which trades VO size for insert balance.

**Degraded mode.**  Each shard has its own replica budget (the
per-shard :class:`~repro.net.client.RetryPolicy`, with the replicated
client's hedging and failover inside it).  When a whole shard stays
unavailable past its budget the client *fails closed* by default — a
:class:`~repro.errors.CompletenessError` naming the uncovered
partitions — or, with ``allow_partial=True``, returns a
:class:`~repro.core.verifier.PartialResult` that names the missing
partitions and is still fully verified for every shard it covers.  A
partial answer is a distinct type, never a shorter list.

See ``docs/OPERATIONS.md`` ("Sharded topologies and degraded mode") for
the operator view and ``benchmarks/chaos_soak.py --sharded`` for the
invariant drill.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional

from repro.core.freshness import (
    FreshnessToken,
    ShardDescriptor,
    ShardRoster,
    check_shard_token,
    issue_roster_token,
    issue_shard_token,
    verify_roster_token,
)
from repro.core.records import Dataset
from repro.core.verifier import PartialResult, ShardAnswer, verify_sharded
from repro.errors import (
    AccessDeniedError,
    CompletenessError,
    ReproError,
    VerificationError,
    WorkloadError,
)
from repro.index.boxes import Box, Domain, Point
from repro.net.client import RetryPolicy
from repro.net.cluster import ReplicatedClient
from repro.net.transport import Clock, Transport
from repro.obs import ledger as _ledger
from repro.obs import logging as _obslog
from repro.obs import metrics as _metrics
from repro.obs import relay as _relay
from repro.obs import trace as _trace
from repro.obs.metrics import COUNTER, GAUGE

# Every repro_shard_* family is a view over the live sharded clients'
# stats records (and the records of collected clients), read when scraped.
_SHARDED_CLIENTS = _metrics.Census(
    (COUNTER, "repro_shard_queries_total",
     "Logical queries issued by ShardedClient.", ("kind",),
     lambda stats: stats.requests_by_kind),
    (COUNTER, "repro_shard_scatter_total", "Per-shard sub-queries issued.",
     ("shard",), lambda stats: stats.scatter_by_shard),
    (COUNTER, "repro_shard_failures_total",
     "Sub-queries that exhausted a shard's replica budget.", ("shard",),
     lambda stats: stats.failures_by_shard),
    (COUNTER, "repro_shard_outcomes_total", "Logical sharded-query outcomes.",
     ("outcome",), lambda stats: {
         "verified": stats.verified, "partial": stats.partials,
         "failed": stats.failures}),
    (COUNTER, "repro_shard_missing_total",
     "Shards absent from a degraded (partial) answer.", ("shard",),
     lambda stats: stats.missing_by_shard),
    (GAUGE, "repro_shard_degraded_shards",
     "Shards missing from the most recent merged answer (0 = complete).",
     (), lambda stats: {(): stats.degraded}),
)
_LOG = _obslog.get_logger("sharding")


# ---------------------------------------------------------------------------
# Partitioning disciplines
# ---------------------------------------------------------------------------

class ShardMap:
    """Pluggable partitioning discipline: domain -> shard descriptors.

    Subclasses set :attr:`kind` (a :data:`~repro.core.freshness.
    ROSTER_KINDS` member) and implement :meth:`descriptors`.  Record
    *assignment* is not part of the interface — it derives from the
    roster itself (:meth:`~repro.core.freshness.ShardRoster.
    shard_for_key`), so the client and the partitioner can never
    disagree about who owns a key.
    """

    kind: str = ""

    def descriptors(
        self, table: str, domain: Domain, epoch: int
    ) -> tuple[ShardDescriptor, ...]:
        raise NotImplementedError

    def build_roster(
        self, table: str, domain: Domain, version: int, epoch: int
    ) -> ShardRoster:
        return ShardRoster(
            table=table, version=version, kind=self.kind,
            shards=self.descriptors(table, domain, epoch),
        )


class RangeShardMap(ShardMap):
    """Contiguous slabs of one axis of the indexed domain."""

    kind = "range"

    def __init__(self, shards: int, axis: int = 0):
        if shards < 1:
            raise ReproError("a shard map needs at least one shard")
        if axis < 0:
            raise ReproError("axis must be non-negative")
        self.shards = shards
        self.axis = axis

    def descriptors(
        self, table: str, domain: Domain, epoch: int
    ) -> tuple[ShardDescriptor, ...]:
        if self.axis >= domain.dims:
            raise ReproError(
                f"axis {self.axis} outside the {domain.dims}-dim domain"
            )
        lo, hi = domain.bounds[self.axis]
        extent = hi - lo + 1
        if extent < self.shards:
            raise ReproError(
                f"cannot cut an extent of {extent} into {self.shards} slabs"
            )
        out = []
        for i in range(self.shards):
            slab_lo = lo + (extent * i) // self.shards
            slab_hi = lo + (extent * (i + 1)) // self.shards - 1
            box_lo = list(domain.box.lo)
            box_hi = list(domain.box.hi)
            box_lo[self.axis] = slab_lo
            box_hi[self.axis] = slab_hi
            out.append(ShardDescriptor(
                shard_id=f"shard{i}", box=Box(tuple(box_lo), tuple(box_hi)),
                epoch=epoch,
            ))
        return tuple(out)


class HashShardMap(ShardMap):
    """Key-hash scatter: every shard covers the full domain."""

    kind = "hash"

    def __init__(self, shards: int):
        if shards < 1:
            raise ReproError("a shard map needs at least one shard")
        self.shards = shards

    def descriptors(
        self, table: str, domain: Domain, epoch: int
    ) -> tuple[ShardDescriptor, ...]:
        return tuple(
            ShardDescriptor(shard_id=f"shard{i}", box=domain.box, epoch=epoch)
            for i in range(self.shards)
        )


def partition_dataset(
    dataset: Dataset, roster: ShardRoster
) -> Dict[str, Dataset]:
    """Split a dataset into per-shard datasets per the roster's discipline.

    Range shards get a dataset over their *slab* sub-domain (so their
    trees index only the slab and clip sub-queries to it); hash shards
    get the full domain (they must disprove any key).
    """
    shards: Dict[str, Dataset] = {}
    for descriptor in roster.shards:
        if roster.kind == "range":
            sub_domain = Domain(tuple(
                (descriptor.box.lo[d], descriptor.box.hi[d])
                for d in range(descriptor.box.dims)
            ))
        else:
            sub_domain = dataset.domain
        shards[descriptor.shard_id] = Dataset(sub_domain)
    for record in dataset:
        owner = roster.shard_for_key(record.key)
        shards[owner.shard_id].add(record)
    return shards


@dataclass
class ShardedTables:
    """A DO-side sharded outsourcing: roster + token + per-shard SPs."""

    roster: ShardRoster
    roster_token: FreshnessToken
    providers: Dict[str, object]  # shard_id -> ServiceProvider
    shard_tokens: Dict[str, FreshnessToken]
    datasets: Dict[str, Dataset] = field(default_factory=dict)


def outsource_sharded(
    owner,
    table: str,
    dataset: Dataset,
    shard_map: ShardMap,
    version: int = 1,
    epoch: int = 1,
    rng: Optional[random.Random] = None,
) -> ShardedTables:
    """DO side: partition, sign per-shard ADSs, sign the roster.

    Each shard gets its own :class:`~repro.core.system.ServiceProvider`
    holding only its partition's signed tree, with the shard's freshness
    token (``table@shard`` at the roster epoch) pre-installed so every
    response it serves carries the binding the merged verifier demands.
    """
    roster = shard_map.build_roster(table, dataset.domain, version, epoch)
    roster_token = issue_roster_token(owner.signer, roster, rng)
    datasets = partition_dataset(dataset, roster)
    providers: Dict[str, object] = {}
    shard_tokens: Dict[str, FreshnessToken] = {}
    for descriptor in roster.shards:
        shard_id = descriptor.shard_id
        provider = owner.outsource({table: datasets[shard_id]})
        token = issue_shard_token(owner.signer, roster, shard_id, rng=rng)
        provider.set_freshness_token(table, token)
        providers[shard_id] = provider
        shard_tokens[shard_id] = token
    return ShardedTables(
        roster=roster, roster_token=roster_token, providers=providers,
        shard_tokens=shard_tokens, datasets=datasets,
    )


# ---------------------------------------------------------------------------
# The scatter-gather client
# ---------------------------------------------------------------------------

class _ShardUser:
    """Per-shard verify adapter: the VO checks plus the roster's epoch pin.

    Each shard's :class:`~repro.net.cluster.ReplicatedClient` verifies
    through this wrapper, so the stale/missing-token check runs *inside*
    the replica attempt: a replica serving a rolled-back epoch raises
    :class:`~repro.errors.VerificationError` mid-loop, gets
    tamper-quarantined like any forger, and the query fails over to a
    fresh replica — the shard stays available through one stale replica
    instead of the whole merged answer dying at the coordinator.
    :func:`~repro.core.verifier.verify_sharded` re-checks every token at
    merge time anyway (defense in depth: the merge must stand alone
    against an adversarial coordinator that never ran this wrapper).
    """

    def __init__(self, user, roster: ShardRoster, shard_id: str):
        self.user = user
        self.roster = roster
        self.shard_id = shard_id

    @property
    def group(self):
        return self.user.group

    @property
    def roles(self):
        return self.user.roles

    def verify(self, response) -> ShardAnswer:
        check_shard_token(
            self.user.authenticator, self.roster, self.shard_id, response.freshness
        )
        records = self.user.verify(response)
        return ShardAnswer(
            shard_id=self.shard_id, box=response.query,
            token=response.freshness, records=tuple(records),
        )


@dataclass(eq=False)
class ShardedStats:
    """Coordinator-level counts (per-replica detail lives per cluster).

    Per-label counts are kept once: logical queries per kind, and
    sub-queries issued, sub-queries that exhausted a shard's budget, and
    partial answers missing a shard, each per shard id.
    ``requests``, ``scatter_attempts`` and ``shard_failures`` are their
    read-only sums.  ``degraded`` is the number of shards missing from
    this client's most recent merged answer.
    """

    requests_by_kind: Counter = field(default_factory=Counter)
    verified: int = 0
    partials: int = 0
    failures: int = 0
    scatter_retries: int = 0
    degraded: int = 0
    scatter_by_shard: Counter = field(default_factory=Counter)
    failures_by_shard: Counter = field(default_factory=Counter)
    missing_by_shard: Counter = field(default_factory=Counter)

    requests = property(lambda self: sum(self.requests_by_kind.values()))
    scatter_attempts = property(lambda self: sum(self.scatter_by_shard.values()))
    shard_failures = property(lambda self: sum(self.failures_by_shard.values()))

    def as_dict(self) -> dict:
        return {
            name: getattr(self, name) for name in (
                "requests", "verified", "partials", "failures",
                "scatter_attempts", "shard_failures", "scatter_retries",
            )
        }


class ShardedClient:
    """Scatter one logical query over N shards; trust only the merge.

    ``transports`` maps shard id -> (endpoint name -> :class:`~repro.net.
    transport.Transport`): each shard's replica set becomes its own
    :class:`~repro.net.cluster.ReplicatedClient` with the full PR-5
    machinery (health-ranked failover, hedging, Byzantine quarantine,
    overload backoff) scoped to that shard's budget (``shard_policy``).

    The constructor verifies the roster token before anything is served:
    an unsigned or doctored roster is rejected up front, so every later
    merge starts from DO-signed partition facts.

    ``allow_partial`` picks the degraded mode: ``False`` (default) fails
    closed with :class:`~repro.errors.CompletenessError` naming the
    uncovered partitions; ``True`` returns a
    :class:`~repro.core.verifier.PartialResult` instead.  Either way the
    records handed back are fully verified — degraded mode surrenders
    coverage, never soundness.
    """

    def __init__(
        self,
        user,
        roster: ShardRoster,
        roster_token: FreshnessToken,
        transports: Mapping[str, Mapping[str, Transport]],
        shard_policy: Optional[RetryPolicy] = None,
        clock: Optional[Clock] = None,
        rng: Optional[random.Random] = None,
        allow_partial: bool = False,
        scatter_retries: int = 1,
        cluster_options: Optional[dict] = None,
    ):
        verify_roster_token(user.authenticator, roster, roster_token)
        expected_ids = {d.shard_id for d in roster.shards}
        if set(transports) != expected_ids:
            raise ReproError(
                f"transports cover shards {sorted(transports)}, roster names "
                f"{sorted(expected_ids)}"
            )
        if scatter_retries < 0:
            raise ReproError("scatter_retries must be non-negative")
        self.user = user
        self.roster = roster
        self.roster_token = roster_token
        self.allow_partial = allow_partial
        self.scatter_retries = scatter_retries
        self.clock = clock or Clock()
        rng = rng or random.Random()
        options = dict(cluster_options or {})
        self.shards: Dict[str, ReplicatedClient] = {}
        for descriptor in roster.shards:
            shard_id = descriptor.shard_id
            self.shards[shard_id] = ReplicatedClient(
                _ShardUser(user, roster, shard_id),
                dict(transports[shard_id]),
                policy=shard_policy,
                clock=self.clock,
                rng=random.Random(rng.getrandbits(64)),
                **options,
            )
        self.counters = ShardedStats()
        _SHARDED_CLIENTS.enroll(self, self.counters)
        self._last_trace_id: Optional[str] = None

    # -- public queries ------------------------------------------------------
    def query_range(self, table: str, lo, hi, encrypt: bool = True):
        self._check_table(table)
        query = self.roster.domain_box.intersection(
            Box(tuple(int(x) for x in lo), tuple(int(x) for x in hi))
        )
        if query is None:
            raise WorkloadError(
                f"query range {lo}..{hi} does not intersect the sharded domain"
            )
        return self._query(
            "range", table, self.roster.shards_for(query), query, None,
            lambda client, sub: client.query_range(table, sub.lo, sub.hi, encrypt),
        )

    def query_equality(self, table: str, key, encrypt: bool = True):
        self._check_table(table)
        key = tuple(int(x) for x in key)
        if not self.roster.domain_box.contains_point(key):
            raise WorkloadError(
                f"key {key} outside the sharded domain {self.roster.domain_box}"
            )
        return self._query(
            "equality", table, (self.roster.shard_for_key(key),), Box(key, key),
            key, lambda client, sub: client.query_equality(table, key, encrypt),
        )

    def query_join(self, left: str, right: str, lo, hi, encrypt: bool = True):
        raise WorkloadError(
            "join queries are not supported across shards: the join VO "
            "interleaves both trees, so serve joins from an unsharded "
            "deployment of the joined tables"
        )

    # -- scatter / merge -----------------------------------------------------
    def _query(self, kind: str, table: str,
               expected: tuple[ShardDescriptor, ...], query: Box,
               key: Optional[Point],
               issue: Callable[[ReplicatedClient, Box], ShardAnswer]):
        """One logical query: scatter, merge, under one root span."""
        self.counters.requests_by_kind[kind] += 1
        wall_t0 = time.perf_counter()
        with _trace.span(
            "shard.query", kind=kind, table=table, shards=len(expected)
        ) as query_span:
            trace_id = self._last_trace_id = getattr(query_span, "trace_id", None)
            try:
                answers, errors = self._scatter(expected, query, issue)
                return self._merge(query, answers, errors, key=key)
            finally:
                _ledger.ledger().set_wall(trace_id, time.perf_counter() - wall_t0)

    def _check_table(self, table: str) -> None:
        if table != self.roster.table:
            raise WorkloadError(
                f"this client serves {self.roster.table!r}, not {table!r}"
            )

    def _scatter(
        self,
        expected: tuple[ShardDescriptor, ...],
        query: Box,
        issue: Callable[[ReplicatedClient, Box], ShardAnswer],
    ) -> tuple[Dict[str, ShardAnswer], Dict[str, ReproError]]:
        """Issue each shard's sub-query; re-sweep failures up to the budget.

        Deterministic rejections (workload / access-denied) propagate
        immediately — they are properties of the query, corroborated
        inside the shard's own replica set, and no amount of re-scatter
        changes them.
        """
        answers: Dict[str, ShardAnswer] = {}
        errors: Dict[str, ReproError] = {}
        pending = list(expected)
        for sweep in range(self.scatter_retries + 1):
            if not pending:
                break
            if sweep:
                self.counters.scatter_retries += len(pending)
            still_failing = []
            for descriptor in pending:
                sub = descriptor.box.intersection(query)
                self.counters.scatter_by_shard[descriptor.shard_id] += 1
                try:
                    answers[descriptor.shard_id] = issue(
                        self.shards[descriptor.shard_id], sub
                    )
                    errors.pop(descriptor.shard_id, None)
                except (WorkloadError, AccessDeniedError):
                    raise
                except ReproError as exc:
                    errors[descriptor.shard_id] = exc
                    self.counters.failures_by_shard[descriptor.shard_id] += 1
                    _LOG.warning(
                        "shard_scatter_failed", shard=descriptor.shard_id,
                        error=type(exc).__name__, sweep=sweep,
                    )
                    still_failing.append(descriptor)
            pending = still_failing
        return answers, errors

    def _merge(
        self,
        query: Box,
        answers: Dict[str, ShardAnswer],
        errors: Dict[str, ReproError],
        key: Optional[Point],
    ):
        merge_t0 = time.perf_counter()
        try:
            result = verify_sharded(
                self.roster, query, list(answers.values()), self.user.authenticator,
                allow_partial=self.allow_partial, key=key,
            )
        except VerificationError as exc:
            self.counters.failures += 1
            if isinstance(exc, CompletenessError):
                _LOG.error(
                    "shard_merge_incomplete",
                    missing=sorted(set(errors) - set(answers)),
                )
                if errors:
                    # Name the partitions (the verifier's message) but
                    # chain the transport-level cause so operators see
                    # both.
                    raise exc from next(iter(errors.values()))
            raise
        finally:
            _ledger.ledger().record(
                _trace.current_trace_id(), {"merge": time.perf_counter() - merge_t0},
            )
        if isinstance(result, PartialResult):
            self.counters.partials += 1
            self.counters.missing_by_shard.update(result.missing_shards)
            self.counters.degraded = len(result.missing_shards)
            _LOG.warning(
                "shard_partial_result",
                missing=list(result.missing_shards),
                covered_records=len(result.records),
            )
        else:
            self.counters.verified += 1
            self.counters.degraded = 0
        return result

    # -- observability -------------------------------------------------------
    def collect_remote_spans(self, trace_id: str) -> list:
        """Scrape every shard's every endpoint for relayed spans.

        Origin tags are qualified ``shard/endpoint`` so the assembled
        tree names which replica of which shard produced each remote
        span.  Best-effort: unreachable endpoints are skipped.
        """
        remote: list = []
        for shard_id, cluster in self.shards.items():
            spans = cluster.collect_remote_spans(trace_id)
            for span in spans:
                attrs = span.setdefault("attributes", {})
                attrs[_relay.RELAY_ORIGIN_ATTR] = (
                    f"{shard_id}/{attrs.get(_relay.RELAY_ORIGIN_ATTR, '?')}"
                )
            remote.extend(spans)
        return remote

    def assemble_trace(self, trace_id: Optional[str] = None) -> Optional[dict]:
        """One tree for a logical sharded query: coordinator + every shard.

        With no ``trace_id`` the last query's trace is used.  Returns
        ``None`` when the trace is not in the tracer's finished ring.
        """
        trace_id = trace_id or self._last_trace_id
        if trace_id is None:
            return None
        root = _trace.tracer().find_trace(trace_id)
        if root is None:
            return None
        return _relay.assemble_trace(root, self.collect_remote_spans(trace_id))

    def stats(self) -> dict:
        """Coordinator counters + every shard cluster's own snapshot."""
        snapshot = _metrics.registry().snapshot()
        last = _ledger.ledger().get(self._last_trace_id)
        return {
            "counters": self.counters.as_dict(),
            "shards": {
                shard_id: client.stats()
                for shard_id, client in self.shards.items()
            },
            "registry": {
                name: value for name, value in snapshot.items()
                if name.startswith("repro_shard_")
            },
            "quantiles": _metrics.quantile_summaries(prefix="repro_shard_"),
            "ledger": last.as_dict() if last is not None else None,
        }


__all__ = [
    "HashShardMap",
    "RangeShardMap",
    "ShardMap",
    "ShardedClient",
    "ShardedStats",
    "ShardedTables",
    "outsource_sharded",
    "partition_dataset",
]
