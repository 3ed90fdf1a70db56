"""Trace-id propagation: every frame of one logical query shares one trace.

The first 8 bytes of a frame's request id carry the originating query
span's trace id (:func:`repro.net.transport.extract_trace_id` reads it
back; the server adopts it when rooting its own spans).  These tests
capture every request frame a logical query emits — across shards,
replicas, scatter re-sweeps, and hedges — and assert they all carry the
same trace id the client recorded for that query, while the random
8-byte suffixes stay unique per exchange.
"""

import random

import pytest

from repro import obs
from repro.core.messages import SPServer
from repro.core.records import Dataset, Record
from repro.core.system import DataOwner, QueryUser
from repro.crypto import simulated
from repro.errors import TransportError
from repro.index.boxes import Domain
from repro.net import (
    FakeClock,
    LoopbackTransport,
    RangeShardMap,
    ReplicatedClient,
    ResilientSPServer,
    RetryPolicy,
    ShardedClient,
    outsource_sharded,
)
from repro.net.transport import extract_trace_id, unframe
from repro.policy.boolexpr import parse_policy
from repro.policy.roles import RoleUniverse

DOMAIN = Domain.of((0, 47))
# RangeShardMap(3) slabs: shard0 = 0..15, shard1 = 16..31, shard2 = 32..47.
ROWS = {
    4: (b"forecast", "analyst or manager"),
    11: (b"salaries", "manager"),
    23: (b"minutes", "analyst"),
    40: (b"roadmap", "analyst"),
}
ANALYST_TRUTH = [b"forecast", b"minutes", b"roadmap"]


@pytest.fixture(autouse=True)
def obs_on():
    """Traces must be live: without a span there is no trace id to carry."""
    previous = obs.set_enabled(True)
    obs.reset_for_tests()
    try:
        yield
    finally:
        obs.reset_for_tests()
        obs.set_enabled(previous)


class RecordingTransport:
    """Wrap a transport; log ``(site, request_id)`` for every frame.

    Optionally advances a :class:`FakeClock` by ``latency`` per call (so
    hedging sees virtual slowness) and fails the first ``fail_first``
    calls with a :class:`TransportError` (so re-sweeps have something to
    sweep).
    """

    def __init__(self, inner, site, log, clock=None, fail_first=0):
        self.inner = inner
        self.site = site
        self.log = log
        self.clock = clock
        self.latency = 0.0
        self.fail_first = fail_first

    def round_trip(self, request_frame: bytes) -> bytes:
        request_id, _ = unframe(request_frame)
        self.log.append((self.site, request_id))
        if self.clock is not None and self.latency:
            self.clock.advance(self.latency)
        if self.fail_first > 0:
            self.fail_first -= 1
            raise TransportError(f"{self.site} injected outage")
        return self.inner.round_trip(request_frame)


def build_docs() -> Dataset:
    docs = Dataset(DOMAIN)
    for key, (value, policy) in ROWS.items():
        docs.add(Record((key,), value, parse_policy(policy)))
    return docs


def recorded_shards(workers=1, fail_shard=None):
    """3 shards x 2 replicas over recording transports; one shared log.

    ``workers`` is each provider's relax worker count: 1 runs inline, 2 on
    the spawn process pool.
    """
    rng = random.Random(4242)
    group = simulated()
    universe = RoleUniverse(["analyst", "manager"])
    owner = DataOwner(group, universe, rng=rng)
    user = QueryUser(group, universe, owner.register_user(["analyst"]))
    tables = outsource_sharded(
        owner, "docs", build_docs(), RangeShardMap(3), rng=rng
    )
    log: list = []
    transports = {}
    for sid, provider in tables.providers.items():
        provider.workers = workers
        handler = ResilientSPServer(SPServer(provider, rng=rng)).handle_frame
        transports[sid] = {
            rid: RecordingTransport(
                LoopbackTransport(handler), f"{sid}/{rid}", log,
                fail_first=1 if sid == fail_shard else 0,
            )
            for rid in ("r0", "r1")
        }
    client = ShardedClient(
        user, tables.roster, tables.roster_token, transports,
        shard_policy=RetryPolicy(max_attempts=1, base_delay=0.0),
        clock=FakeClock(), rng=random.Random(99), scatter_retries=1,
    )
    return client, log


def trace_ids(log) -> set:
    return {extract_trace_id(request_id) for _, request_id in log}


@pytest.mark.parametrize("workers", [1, 2])
def test_one_logical_query_is_one_trace_across_shards(workers):
    client, log = recorded_shards(workers=workers)
    records = client.query_range("docs", (0,), (47,), encrypt=False)
    assert [r.value for r in records] == ANALYST_TRUTH

    assert client._last_trace_id is not None
    assert trace_ids(log) == {client._last_trace_id}
    assert {site.split("/")[0] for site, _ in log} == \
        {"shard0", "shard1", "shard2"}
    # Request ids stay unique per exchange: the trace prefix correlates,
    # the random suffix still dedups each wire exchange.
    suffixes = [request_id[8:] for _, request_id in log]
    assert len(set(suffixes)) == len(suffixes)

    # A second logical query is a fresh trace.
    first = client._last_trace_id
    log.clear()
    client.query_range("docs", (0,), (47,), encrypt=False)
    assert client._last_trace_id != first
    assert trace_ids(log) == {client._last_trace_id}


def test_equality_query_routes_one_shard_same_trace():
    client, log = recorded_shards()
    assert [r.value for r in client.query_equality("docs", (23,), encrypt=False)] \
        == [b"minutes"]
    assert trace_ids(log) == {client._last_trace_id}
    assert {site.split("/")[0] for site, _ in log} == {"shard1"}


def test_resweep_and_replica_failover_stay_in_trace():
    client, log = recorded_shards(fail_shard="shard1")
    records = client.query_range("docs", (0,), (47,), encrypt=False)
    assert [r.value for r in records] == ANALYST_TRUTH
    # Sweep 0 lost shard1 on both replicas (max_attempts=1), so the
    # scatter re-swept it; every extra frame still carried the trace.
    assert client.counters.scatter_retries >= 1
    assert trace_ids(log) == {client._last_trace_id}
    shard1_frames = [site for site, _ in log if site.startswith("shard1/")]
    assert set(shard1_frames) == {"shard1/r0", "shard1/r1"}
    assert len(shard1_frames) >= 3  # two failed replicas + the re-sweep


def test_hedge_carries_the_primary_trace():
    rng = random.Random(5)
    group = simulated()
    universe = RoleUniverse(["analyst", "manager"])
    owner = DataOwner(group, universe, rng=rng)
    user = QueryUser(group, universe, owner.register_user(["analyst"]))
    provider = owner.outsource({"docs": build_docs()})
    handler = ResilientSPServer(SPServer(provider, rng=rng)).handle_frame
    clock = FakeClock()
    log: list = []
    transports = {
        name: RecordingTransport(
            LoopbackTransport(handler), name, log, clock=clock,
        )
        for name in ("a", "b")
    }
    client = ReplicatedClient(
        user, transports, clock=clock, rng=random.Random(3),
        hedge_percentile=0.5, hedge_min_samples=4,
    )
    # Powers of two keep the virtual latencies float-exact, so the warm
    # samples are all identical and never exceed their own percentile.
    for transport in transports.values():
        transport.latency = 0.03125
    for _ in range(4):  # warm the latency reservoir past min_samples
        client.query_equality("docs", (4,), encrypt=False)
    assert client.counters.hedges == 0

    for transport in transports.values():
        transport.latency = 0.5
    log.clear()
    client.query_equality("docs", (4,), encrypt=False)
    assert client.counters.hedges == 1
    assert {site for site, _ in log} == {"a", "b"}  # primary + hedge probe
    assert trace_ids(log) == {client._last_trace_id}
