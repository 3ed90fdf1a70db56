"""Scatter-gather sharding: routing, merge soundness, degraded mode.

The adversary here is the *coordinator* (and any shard replica): these
tests check that a dropped, duplicated, re-routed, stale, or forged
shard contribution is a verification-class error at the merge, and that
degraded mode surrenders coverage explicitly — never silently.
"""

import random

import pytest

from repro.core.freshness import issue_shard_token
from repro.core.messages import SPServer
from repro.core.records import Dataset, Record
from repro.core.system import DataOwner, QueryUser
from repro.core.verifier import PartialResult, ShardAnswer, verify_sharded
from repro.crypto import simulated
from repro.errors import (
    CompletenessError,
    ReproError,
    TransportError,
    VerificationError,
    WorkloadError,
)
from repro.index.boxes import Box, Domain
from repro.net import (
    FakeClock,
    HashShardMap,
    LoopbackTransport,
    RangeShardMap,
    ResilientSPServer,
    RetryPolicy,
    ShardedClient,
    outsource_sharded,
    partition_dataset,
)
from repro.policy.boolexpr import parse_policy
from repro.policy.roles import RoleUniverse

DOMAIN = Domain.of((0, 47))
# key -> (value, policy); the analyst sees everything except key 11.
ROWS = {
    4: (b"forecast", "analyst or manager"),
    11: (b"salaries", "manager"),
    23: (b"minutes", "analyst"),
    40: (b"roadmap", "analyst"),
}
ANALYST_TRUTH = [b"forecast", b"minutes", b"roadmap"]


class DownTransport:
    """A transport that is simply gone (shard-wide outage)."""

    def round_trip(self, request_frame: bytes) -> bytes:
        raise TransportError("shard is down")


@pytest.fixture(scope="module")
def world():
    rng = random.Random(7200)
    group = simulated()
    universe = RoleUniverse(["analyst", "manager"])
    owner = DataOwner(group, universe, rng=rng)
    docs = Dataset(DOMAIN)
    for key, (value, policy) in ROWS.items():
        docs.add(Record((key,), value, parse_policy(policy)))
    user = QueryUser(group, universe, owner.register_user(["analyst"]))
    return rng, group, universe, owner, docs, user


def sharded(world, shard_map, **client_kw):
    rng, group, universe, owner, docs, user = world
    tables = outsource_sharded(owner, "docs", docs, shard_map, rng=rng)
    transports = {
        sid: {"r0": LoopbackTransport(
            ResilientSPServer(SPServer(provider, rng=rng)).handle_frame
        )}
        for sid, provider in tables.providers.items()
    }
    client = ShardedClient(
        user, tables.roster, tables.roster_token, transports,
        rng=random.Random(11), **client_kw,
    )
    return tables, client


# -- partitioning ------------------------------------------------------------

def test_range_map_tiles_domain_and_partition_is_total(world):
    rng, group, universe, owner, docs, user = world
    roster = RangeShardMap(3).build_roster("docs", DOMAIN, 1, 1)
    parts = partition_dataset(docs, roster)
    assert set(parts) == {"shard0", "shard1", "shard2"}
    # Every record landed in the shard whose slab covers its key.
    total = 0
    for descriptor in roster.shards:
        for record in parts[descriptor.shard_id]:
            assert descriptor.box.contains_point(record.key)
            total += 1
    assert total == len(ROWS)


def test_hash_map_partition_is_total_and_stable(world):
    rng, group, universe, owner, docs, user = world
    roster = HashShardMap(3).build_roster("docs", DOMAIN, 1, 1)
    parts = partition_dataset(docs, roster)
    assert sum(len(list(p)) for p in parts.values()) == len(ROWS)
    for record in docs:
        owner_shard = roster.shard_for_key(record.key)
        assert record.key in [r.key for r in parts[owner_shard.shard_id]]


def test_range_map_rejects_more_shards_than_extent():
    with pytest.raises(ReproError, match="cannot cut"):
        RangeShardMap(100).build_roster("t", Domain.of((0, 7)), 1, 1)


# -- happy-path scatter-gather ----------------------------------------------

@pytest.mark.parametrize("shard_map", [RangeShardMap(3), HashShardMap(3)],
                         ids=["range", "hash"])
def test_scatter_gather_equals_truth(world, shard_map):
    tables, client = sharded(world, shard_map)
    records = client.query_range("docs", (0,), (47,))
    assert [r.value for r in records] == ANALYST_TRUTH
    assert [r.value for r in client.query_equality("docs", (23,))] == [b"minutes"]
    assert client.query_equality("docs", (17,)) == []
    assert client.counters.verified == 3
    assert client.counters.failures == 0


def test_subrange_touches_only_covering_shards(world):
    tables, client = sharded(world, RangeShardMap(3))
    # Keys 0..15 live entirely in shard0's slab.
    records = client.query_range("docs", (0,), (15,))
    assert [r.value for r in records] == [b"forecast"]
    assert client.counters.scatter_attempts == 1


def test_join_is_rejected_across_shards(world):
    tables, client = sharded(world, RangeShardMap(2))
    with pytest.raises(WorkloadError, match="join"):
        client.query_join("docs", "docs", (0,), (47,))


def test_wrong_table_and_out_of_domain_are_workload_errors(world):
    tables, client = sharded(world, RangeShardMap(2))
    with pytest.raises(WorkloadError, match="serves 'docs'"):
        client.query_range("other", (0,), (47,))
    with pytest.raises(WorkloadError, match="outside the sharded domain"):
        client.query_equality("docs", (99,))


def test_transports_must_match_roster(world):
    rng, group, universe, owner, docs, user = world
    tables = outsource_sharded(owner, "docs", docs, RangeShardMap(2), rng=rng)
    with pytest.raises(ReproError, match="transports cover"):
        ShardedClient(
            user, tables.roster, tables.roster_token,
            {"shard0": {"r0": DownTransport()}},  # shard1 missing
        )


def test_roster_token_for_other_roster_is_rejected(world):
    rng, group, universe, owner, docs, user = world
    tables = outsource_sharded(owner, "docs", docs, RangeShardMap(2), rng=rng)
    other = outsource_sharded(owner, "docs", docs, RangeShardMap(3), rng=rng)
    transports = {
        sid: {"r0": DownTransport()} for sid in tables.providers
    }
    with pytest.raises(VerificationError):
        ShardedClient(user, tables.roster, other.roster_token, transports)


# -- the merged verifier against an adversarial coordinator ------------------

def _gather(world, shard_map):
    """Honest per-shard answers for the full-domain range query."""
    rng, group, universe, owner, docs, user = world
    tables, client = sharded(world, shard_map)
    query = tables.roster.domain_box
    answers = {}
    for descriptor in tables.roster.shards_for(query):
        sub = descriptor.box.intersection(query)
        answers[descriptor.shard_id] = client.shards[
            descriptor.shard_id
        ].query_range("docs", sub.lo, sub.hi)
    return tables, user, query, answers


def test_coordinator_dropping_a_shard_vo_is_completeness_error(world):
    tables, user, query, answers = _gather(world, RangeShardMap(3))
    kept = [a for sid, a in answers.items() if sid != "shard1"]
    with pytest.raises(CompletenessError, match="shard1"):
        verify_sharded(
            tables.roster, query, kept, user.authenticator,
        )


def test_coordinator_duplicating_a_shard_is_verification_error(world):
    tables, user, query, answers = _gather(world, RangeShardMap(3))
    doubled = list(answers.values()) + [answers["shard0"]]
    with pytest.raises(VerificationError, match="duplicate"):
        verify_sharded(
            tables.roster, query, doubled, user.authenticator,
        )


def test_genuinely_signed_stale_shard_token_is_rejected(world):
    rng, group, universe, owner, docs, user = world
    tables, client = sharded(world, RangeShardMap(3))
    query = tables.roster.domain_box
    answers = {}
    for descriptor in tables.roster.shards_for(query):
        sub = descriptor.box.intersection(query)
        answers[descriptor.shard_id] = client.shards[
            descriptor.shard_id
        ].query_range("docs", sub.lo, sub.hi)
    # The replay a rolled-back shard would serve: a *real* DO signature,
    # but at an epoch older than the roster pins.
    stale = issue_shard_token(
        owner.signer, tables.roster, "shard2", epoch=0, rng=rng
    )
    honest = answers["shard2"]
    answers["shard2"] = ShardAnswer(
        shard_id=honest.shard_id, box=honest.box, token=stale,
        records=honest.records,
    )
    with pytest.raises(VerificationError, match="stale or rolled-back"):
        verify_sharded(
            tables.roster, query, list(answers.values()), user.authenticator,
        )


def test_rerouted_shard_answer_is_rejected(world):
    tables, user, query, answers = _gather(world, HashShardMap(2))
    # Present shard1's (genuine) answer as shard0's: the token names the
    # wrong shard, so the re-route is caught even though boxes match.
    stolen = answers["shard1"]
    forged = ShardAnswer(
        shard_id="shard0", box=stolen.box, token=stolen.token,
        records=stolen.records,
    )
    with pytest.raises(VerificationError, match="shard token names"):
        verify_sharded(
            tables.roster, query, [forged, answers["shard1"]], user.authenticator,
        )


def test_narrowed_shard_box_is_completeness_error(world):
    tables, user, query, answers = _gather(world, RangeShardMap(3))
    honest = answers["shard0"]
    # Coordinator narrows shard0's contributed range to hide a slice.
    narrowed = ShardAnswer(
        shard_id="shard0",
        box=Box((honest.box.lo[0],), (honest.box.lo[0],)),
        token=honest.token, records=(),
    )
    rest = [a for sid, a in answers.items() if sid != "shard0"]
    with pytest.raises(CompletenessError):
        verify_sharded(
            tables.roster, query, [narrowed] + rest, user.authenticator,
        )


# -- degraded mode -----------------------------------------------------------

def dead_shard_client(world, allow_partial):
    """3 range shards, shard1's only replica permanently down."""
    rng, group, universe, owner, docs, user = world
    tables = outsource_sharded(owner, "docs", docs, RangeShardMap(3), rng=rng)
    transports = {}
    for sid, provider in tables.providers.items():
        if sid == "shard1":
            transports[sid] = {"r0": DownTransport()}
        else:
            transports[sid] = {"r0": LoopbackTransport(
                ResilientSPServer(SPServer(provider, rng=rng)).handle_frame
            )}
    clock = FakeClock()
    client = ShardedClient(
        user, tables.roster, tables.roster_token, transports,
        shard_policy=RetryPolicy(max_attempts=2, base_delay=0.01, deadline=5.0),
        clock=clock, rng=random.Random(5), allow_partial=allow_partial,
        scatter_retries=1,
    )
    return tables, client


def test_dead_shard_fails_closed_by_default(world):
    tables, client = dead_shard_client(world, allow_partial=False)
    with pytest.raises(CompletenessError, match="shard1") as excinfo:
        client.query_range("docs", (0,), (47,))
    # The transport-level cause is chained for the operator.
    assert isinstance(excinfo.value.__cause__, TransportError)
    assert client.counters.failures == 1


def test_dead_shard_partial_result_names_missing_partitions(world):
    tables, client = dead_shard_client(world, allow_partial=True)
    result = client.query_range("docs", (0,), (47,))
    assert isinstance(result, PartialResult)
    assert not result.complete
    assert result.missing_shards == ("shard1",)
    missing_box = tables.roster.shard("shard1").box
    assert result.missing_boxes == (missing_box,)
    # Covered slabs are still fully verified truth: keys 4 and 40 are
    # outside shard1's slab (16..31), key 23 inside it.
    assert [r.value for r in result.records] == [b"forecast", b"roadmap"]
    assert client.counters.partials == 1
    stats = client.stats()
    assert stats["counters"]["partials"] == 1
    # A query entirely inside live shards is still a plain complete list.
    records = client.query_range("docs", (0,), (15,))
    assert not isinstance(records, PartialResult)
    assert [r.value for r in records] == [b"forecast"]


def test_equality_on_dead_shard_has_no_partial_cover(world):
    tables, client = dead_shard_client(world, allow_partial=True)
    result = client.query_equality("docs", (23,))  # lives on shard1
    assert isinstance(result, PartialResult)
    assert result.records == ()
    assert result.missing_shards == ("shard1",)


def test_scatter_retry_recovers_a_flaky_shard(world):
    rng, group, universe, owner, docs, user = world
    tables = outsource_sharded(owner, "docs", docs, RangeShardMap(2), rng=rng)

    class FlakyOnce:
        def __init__(self, inner):
            self.inner = inner
            self.calls = 0

        def round_trip(self, request_frame):
            self.calls += 1
            if self.calls == 1:
                raise TransportError("transient")
            return self.inner.round_trip(request_frame)

    transports = {}
    for sid, provider in tables.providers.items():
        loop = LoopbackTransport(
            ResilientSPServer(SPServer(provider, rng=rng)).handle_frame
        )
        transports[sid] = {
            "r0": FlakyOnce(loop) if sid == "shard0" else loop
        }
    client = ShardedClient(
        user, tables.roster, tables.roster_token, transports,
        shard_policy=RetryPolicy(max_attempts=2, base_delay=0.0, deadline=5.0),
        clock=FakeClock(), rng=random.Random(5),
    )
    records = client.query_range("docs", (0,), (47,))
    assert [r.value for r in records] == ANALYST_TRUTH
    assert client.counters.verified == 1
