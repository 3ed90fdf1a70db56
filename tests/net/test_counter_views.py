"""The client, shard and publisher families are views over the records.

``ClientStats`` (with its endpoints), ``ShardedStats`` and
``PublisherStats`` are the only store of the events the
``repro_cluster_*``, ``repro_shard_*`` and ``repro_ingest_push_total``
families report; the registry reads them when it is scraped.  One seeded
sequence drives every kind of event, then the families are checked
against the records: equal while the owners live, never falling when an
owner is collected, empty with the gate off, zeroed by a reset that
leaves the records alone.
"""

import gc
import random
import weakref
from collections import Counter

import pytest

from repro import obs
from repro.core.messages import SPServer
from repro.core.records import Dataset, Record
from repro.errors import CircuitOpenError, OverloadedError, ReproError, TransportError
from repro.index.boxes import Domain
from repro.net import (
    FakeClock,
    LoopbackTransport,
    RangeShardMap,
    ResilientClient,
    ResilientSPServer,
    RetryPolicy,
    ShardedClient,
    UpdatePublisher,
    outsource_sharded,
)
from repro.net.client import ERROR_CLASSES
from repro.obs.metrics import COUNTER, registry, render_prometheus
from repro.policy.boolexpr import parse_policy

from .conftest import run_query
from .test_cluster import DeadTransport, good, make_cluster, tamperer
from .test_ingest import StallingSP
from .test_server_admission import CuttableTransport

PREFIXES = ("repro_cluster_", "repro_shard_", "repro_ingest_push_total")


def families() -> dict:
    """Every sample of the view families, ``name -> label tuple -> value``."""
    return {
        metric.name: metric.samples()
        for metric in registry().metrics()
        if metric.name.startswith(PREFIXES)
    }


def summed(records, tally) -> dict:
    """``tally(record)`` summed over the records, zero samples dropped."""
    total = Counter()
    for record in records:
        total.update(tally(record))
    return {key: value for key, value in total.items() if value}


def expected(clients, sharded, publishers) -> dict:
    """The families as the records add them up, from public fields only."""
    stats = [c.counters for c in clients]
    stats += [s.counters for sc in sharded for s in sc.shards.values()]
    endpoints = [e for s in stats for e in s.endpoints]
    shard_stats = [sc.counters for sc in sharded]
    return {
        "repro_cluster_requests_total": summed(stats, lambda s: {
            (kind,): n for kind, n in s.requests_by_kind.items()}),
        "repro_cluster_attempts_total": summed(endpoints, lambda e: {
            (e.name,): e.attempts}),
        "repro_cluster_attempt_errors_total": summed(stats, lambda s: {
            (label,): getattr(s, name) for label, name in ERROR_CLASSES.items()}),
        "repro_cluster_outcomes_total": summed(stats, lambda s: {
            (outcome,): n for outcome, n in s.outcomes.items()}),
        "repro_cluster_evicted_total": summed(endpoints, lambda e: {
            (e.name, reason): n for reason, n in e.evictions.items()}),
        "repro_cluster_hedges_total": summed(stats, lambda s: {(): s.hedges}),
        "repro_cluster_probes_total": summed(endpoints, lambda e: {
            (e.name, status): n for status, n in e.probes.items()}),
        "repro_cluster_overload_backoffs_total": summed(endpoints, lambda e: {
            (e.name,): e.errors["overloaded"]}),
        "repro_cluster_stale_epochs_total": summed(endpoints, lambda e: {
            (e.name,): e.errors["stale-epoch"]}),
        "repro_shard_queries_total": summed(shard_stats, lambda s: {
            (kind,): n for kind, n in s.requests_by_kind.items()}),
        "repro_shard_scatter_total": summed(shard_stats, lambda s: {
            (shard,): n for shard, n in s.scatter_by_shard.items()}),
        "repro_shard_failures_total": summed(shard_stats, lambda s: {
            (shard,): n for shard, n in s.failures_by_shard.items()}),
        "repro_shard_outcomes_total": summed(shard_stats, lambda s: {
            ("verified",): s.verified, ("partial",): s.partials,
            ("failed",): s.failures}),
        "repro_shard_missing_total": summed(shard_stats, lambda s: {
            (shard,): n for shard, n in s.missing_by_shard.items()}),
        "repro_ingest_push_total": summed(publishers, lambda p: {
            (status,): n for status, n in p.stats.pushes_by_status.items()}),
    }


def quarantined(clients, sharded) -> int:
    stats = [c.counters for c in clients]
    stats += [s.counters for sc in sharded for s in sc.shards.values()]
    return sum(e.quarantined for s in stats for e in s.endpoints)


@pytest.fixture
def gate_on():
    previous = obs.set_enabled(True)
    try:
        yield
    finally:
        obs.set_enabled(previous)


def drive_cluster(env):
    """A verified read after a failover past a tamper quarantine, an
    overload, a draining liveness probe, and hedges."""
    clock = FakeClock()
    tamper = make_cluster(
        env, {"a-bad": tamperer(env, clock), "b-good": good(env, clock)}, clock,
    )
    assert run_query(tamper, "range") == env.truth["range"]
    assert tamper.counters.quarantines == tamper.counters.failovers == 1

    shedding = ResilientSPServer(
        SPServer(env.server.provider, rng=random.Random(3)),
        max_in_flight=4, retry_after=2.0,
    )
    shedding.set_background_load(10)
    overload = make_cluster(
        env,
        {"a-busy": LoopbackTransport(shedding.handle_frame, clock=clock),
         "b-calm": good(env, clock)},
        clock,
    )
    assert run_query(overload, "range") == env.truth["range"]
    assert overload.counters.overload_rejections == 1

    server = ResilientSPServer(SPServer(env.server.provider, rng=random.Random(4)))
    link = CuttableTransport(LoopbackTransport(server.handle_frame))
    drain = ResilientClient(
        env.user, link,
        policy=RetryPolicy(max_attempts=1, base_delay=0.01, jitter=0.0),
        failure_threshold=1, reset_timeout=5.0, clock=clock,
        rng=random.Random(4),
    )
    link.down = True
    with pytest.raises(TransportError):
        run_query(drain, "range")
    with pytest.raises(CircuitOpenError):
        run_query(drain, "range")
    link.down = False
    server.drain()
    clock.advance(5.0)
    with pytest.raises(OverloadedError, match="draining"):
        run_query(drain, "range")
    server.resume()
    assert run_query(drain, "equality") == env.truth["equality"]
    assert (drain.counters.probes, drain.counters.probe_deferrals) == (2, 1)

    hedge = make_cluster(
        env,
        {"a-slow": good(env, clock, latency=1.0),
         "b-fast": good(env, clock, latency=0.01)},
        clock,
        hedge_percentile=0.4, hedge_min_samples=4,
    )
    for _ in range(8):
        assert run_query(hedge, "range") == env.truth["range"]
        clock.advance(0.1)
    assert hedge.counters.hedges >= 1
    return [tamper, overload, drain, hedge]


def drive_sharded(env):
    """A partial answer: shard1 of two range shards is down."""
    docs = Dataset(Domain.of((0, 31)))
    for key, value in ((4, b"forecast"), (23, b"minutes")):
        docs.add(Record((key,), value, parse_policy("analyst")))
    rng = random.Random(7300)
    tables = outsource_sharded(env.owner, "docs", docs, RangeShardMap(2), rng=rng)
    transports = {
        "shard0": {"r0": LoopbackTransport(ResilientSPServer(
            SPServer(tables.providers["shard0"], rng=rng)).handle_frame)},
        "shard1": {"r0": DeadTransport()},
    }
    client = ShardedClient(
        env.user, tables.roster, tables.roster_token, transports,
        shard_policy=RetryPolicy(max_attempts=1, base_delay=0.01),
        clock=FakeClock(), rng=random.Random(5), allow_partial=True,
    )
    result = client.query_range("docs", (0,), (31,))
    assert result.missing_shards == ("shard1",)
    assert client.counters.partials == 1
    return [client]


def drive_publisher(env):
    """One upsert pushed to an SP that stalls on a gap."""
    docs = Dataset(Domain.of((0, 15)))
    docs.add(Record((1,), b"seed", parse_policy("analyst")))
    publisher = UpdatePublisher(
        env.owner.signer, "docs", env.owner.build_tree(docs),
        rng=random.Random(8300),
    )
    publisher.attach("stuck", StallingSP())
    publisher.upsert(Record((5,), b"v1", parse_policy("analyst")))
    assert publisher.stats.push_failures == publisher.stats.stalls == 1
    return [publisher]


def test_families_are_the_records_summed(env, gate_on):
    gc.collect()  # earlier tests' clients no longer count
    quarantined_before = registry().get("repro_cluster_quarantined").value()
    obs.reset_for_tests()
    clients = drive_cluster(env)
    sharded = drive_sharded(env)
    publishers = drive_publisher(env)

    # Each family is exactly the sum of the per-instance records.
    views = families()
    want = expected(clients, sharded, publishers)
    for name, samples in want.items():
        assert views.get(name, {}) == samples, name
    assert views["repro_cluster_quarantined"] == {
        (): quarantined_before + quarantined(clients, sharded)
    }
    assert views["repro_shard_degraded_shards"][()] >= 1
    assert views["repro_ingest_push_total"] == {("gap",): 1}

    # A collected client's counts move to the retired totals: no
    # counter falls, and its quarantined endpoint leaves the gauge.
    tamper = weakref.ref(clients.pop(0))
    gc.collect()
    assert tamper() is None
    after = families()
    for name in want:
        assert after.get(name, {}) == views.get(name, {}), name
    assert after["repro_cluster_quarantined"][()] == (
        views["repro_cluster_quarantined"][()] - 1
    )

    # With the gate off the families read empty; the records stay live,
    # and what they counted meanwhile shows once the gate is back on.
    requests = clients[-1].counters.requests
    obs.set_enabled(False)
    assert all(not samples for samples in families().values())
    text = render_prometheus()
    assert not any(prefix in text for prefix in PREFIXES)
    run_query(clients[-1], "range")
    assert clients[-1].counters.requests == requests + 1
    obs.set_enabled(True)
    assert families()["repro_cluster_requests_total"][("range",)] == (
        after["repro_cluster_requests_total"][("range",)] + 1
    )

    # A reset zeroes the counter families and leaves the records alone;
    # a gauge is the live state, so it still reads it.
    records = [c.counters.as_dict() for c in clients]
    records += [s.counters.as_dict() for s in sharded]
    obs.reset_for_tests()
    for metric in registry().metrics():
        if metric.name.startswith(PREFIXES) and metric.kind == COUNTER:
            assert metric.samples() == {}, metric.name
    assert [c.counters.as_dict() for c in clients] + [
        s.counters.as_dict() for s in sharded
    ] == records
    assert publishers[0].stats.pushes == 1
    assert registry().get("repro_cluster_quarantined").value() == (
        quarantined_before + quarantined(clients, sharded)
    )
    # Counting resumes from the baseline.
    run_query(clients[-1], "range")
    assert families()["repro_cluster_requests_total"] == {("range",): 1}


def test_views_stay_out_of_the_cross_process_counter_relay(gate_on):
    names = {m.name for m in registry().metrics() if m.name.startswith(PREFIXES)}
    snapshot = registry().counters_snapshot()
    assert names and not names & set(snapshot)
    before = families()
    registry().merge_counters({name: {("x",): 5} for name in names})
    assert families() == before
    with pytest.raises(ReproError, match="is a view"):
        registry().get("repro_cluster_hedges_total").inc()
