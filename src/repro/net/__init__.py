"""Fault-tolerant client/server stack around the byte wire protocol.

The paper's deployment model (Section 3) interposes an untrusted,
failure-prone Service Provider between the Data Owner and many Query
Users.  This package layers the operational hardening around the
zero-knowledge core — without ever weakening it:

* :mod:`repro.net.transport` — framed exchanges with request ids, the
  :class:`Transport` interface, the in-process loopback, and the
  clock abstraction;
* :mod:`repro.net.server` — :class:`ResilientSPServer`, a frame loop
  that turns every per-request failure into a typed error frame, plus
  liveness probes (``ready`` / ``draining``) that bypass admission;
* :mod:`repro.net.client` — the shared user-side query pipeline
  (:class:`~repro.net.client.QueryClient`) and :class:`ResilientClient`
  on top of it, with bounded retries, deadlines, duplicate detection,
  and a circuit breaker;
* :mod:`repro.net.cluster` — :class:`ReplicatedClient`, which fans a
  logical query over N replica endpoints with per-endpoint breakers,
  health-ranked failover, hedged requests, and **Byzantine quarantine**
  (an endpoint whose response fails verification is evicted as
  ``tamper``, distinctly from ``transport`` evictions);
* :mod:`repro.net.sharding` — :class:`ShardedClient`, the
  scatter-gather coordinator over a DO-signed shard roster: each shard
  is a :class:`ReplicatedClient` over its replicas, per-shard VOs merge
  into one verifiable answer, and dropped / stale / duplicated shards
  are detected cryptographically (fail closed, or an explicit
  :class:`~repro.core.verifier.PartialResult` when opted in);
* :mod:`repro.net.ingest` — crash-consistent live ingest:
  :class:`UpdatePublisher` streams the DO's signed update paths to every
  SP under monotonic sequence numbers, :class:`ServerIngest` journals
  (write-ahead, CRC-framed, fsync'd) before applying to a staging tree
  and makes each epoch visible through one atomic ``(tree, token)``
  swap, and :class:`FreshnessGuard` bounds the epoch age of every
  verified answer (:class:`~repro.errors.StaleEpochError` marks lagging
  replicas as degraded, never Byzantine);
* :mod:`repro.net.faults` — :class:`FaultyTransport`, seeded fault
  injection (drop/delay/duplicate/truncate/bitflip/tamper) for
  adversarial testing;
* :mod:`repro.net.chaos` — the scripted-failure layer: a schedule DSL
  (``@<t> crash sp0`` ...), scriptable :class:`ChaosEndpoint` replicas
  with snapshot cold-restarts and pinnable stale freshness tokens, and
  a :class:`ChaosController` that applies due events (to endpoints or
  whole groups, e.g. a shard) as virtual time advances.

The invariant the whole stack maintains: every fault ends in a retry, a
typed :class:`~repro.errors.ReproError`, or a
:class:`~repro.errors.VerificationError` — a client never accepts a
tampered result as verified, no matter which replica or shard answered.
See ``docs/OPERATIONS.md``.
"""

from repro.net.chaos import (
    ChaosController,
    ChaosEndpoint,
    ChaosEvent,
    ChaosSchedule,
    parse_schedule,
)
from repro.net.client import (
    CircuitBreaker,
    ClientStats,
    ResilientClient,
    RetryPolicy,
    fetch_trace_spans,
    is_tamper_error,
    probe_endpoint,
    wire_exchange,
)
from repro.net.cluster import ClusterStats, Endpoint, ReplicatedClient
from repro.net.faults import FAULT_KINDS, FaultyTransport
from repro.net.ingest import (
    FreshnessGuard,
    ServerIngest,
    SimulatedCrashError,
    UpdatePublisher,
    apply_replacements,
)
from repro.net.server import (
    PROBE_DRAINING,
    PROBE_READY,
    PROBE_REQUEST,
    PROBE_RESPONSE,
    STATS_REQUEST,
    STATS_RESPONSE,
    TRACE_REQUEST,
    TRACE_RESPONSE,
    ResilientSPServer,
    decode_probe_response,
    decode_stats_response,
    decode_trace_response,
    trace_request,
)
from repro.net.sharding import (
    HashShardMap,
    RangeShardMap,
    ShardedClient,
    ShardedStats,
    ShardedTables,
    ShardMap,
    outsource_sharded,
    partition_dataset,
)
from repro.net.transport import (
    REQUEST_ID_BYTES,
    Clock,
    FakeClock,
    LoopbackTransport,
    Transport,
    embed_trace_id,
    extract_trace_id,
    frame,
    unframe,
)

__all__ = [
    "ChaosController",
    "ChaosEndpoint",
    "ChaosEvent",
    "ChaosSchedule",
    "parse_schedule",
    "CircuitBreaker",
    "ClientStats",
    "ClusterStats",
    "Endpoint",
    "ReplicatedClient",
    "ResilientClient",
    "RetryPolicy",
    "fetch_trace_spans",
    "is_tamper_error",
    "probe_endpoint",
    "wire_exchange",
    "FAULT_KINDS",
    "FaultyTransport",
    "FreshnessGuard",
    "ServerIngest",
    "SimulatedCrashError",
    "UpdatePublisher",
    "apply_replacements",
    "HashShardMap",
    "RangeShardMap",
    "ShardMap",
    "ShardedClient",
    "ShardedStats",
    "ShardedTables",
    "outsource_sharded",
    "partition_dataset",
    "ResilientSPServer",
    "PROBE_DRAINING",
    "PROBE_READY",
    "PROBE_REQUEST",
    "PROBE_RESPONSE",
    "STATS_REQUEST",
    "STATS_RESPONSE",
    "TRACE_REQUEST",
    "TRACE_RESPONSE",
    "decode_probe_response",
    "decode_stats_response",
    "decode_trace_response",
    "trace_request",
    "REQUEST_ID_BYTES",
    "Clock",
    "FakeClock",
    "LoopbackTransport",
    "Transport",
    "embed_trace_id",
    "extract_trace_id",
    "frame",
    "unframe",
]
