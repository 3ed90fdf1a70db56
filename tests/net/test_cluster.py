"""ReplicatedClient: failover, Byzantine quarantine, overload, hedging.

Every endpoint here wraps the *same* module-scoped SP (identical
replicas, as snapshot-restored deployments would be), so ground truth is
shared and the invariant under test is the routing layer's: a verified
result equal to truth comes back, and misbehaving replicas are evicted
with the right ``reason``.
"""

import gc
import random

import pytest

from repro.core.messages import ErrorResponse, SPServer
from repro.errors import (
    AccessDeniedError,
    CircuitOpenError,
    OverloadedError,
    ReproError,
    TransportError,
    WorkloadError,
)
from repro.net import (
    FakeClock,
    FaultyTransport,
    LoopbackTransport,
    ReplicatedClient,
    ResilientSPServer,
    RetryPolicy,
    Transport,
)
from repro import obs
from repro.net.client import is_tamper_error
from repro.obs import metrics
from repro.net.transport import frame, unframe

from .conftest import NON_UTF8_TABLE_VO, UNPARSABLE_POLICY_VO, ResealTransport, run_query


class DeadTransport(Transport):
    """A crashed/partitioned replica: every exchange fails."""

    def __init__(self):
        self.calls = 0

    def round_trip(self, request_frame):
        self.calls += 1
        raise TransportError("endpoint down")


def make_cluster(env, transports, clock, **overrides):
    options = dict(
        policy=RetryPolicy(max_attempts=4, base_delay=0.01, jitter=0.0,
                           deadline=120.0),
        clock=clock,
        rng=random.Random(42),
        quarantine_window=100.0,
        failure_threshold=2,
        reset_timeout=5.0,
        hedge_percentile=None,
    )
    options.update(overrides)
    return ReplicatedClient(env.user, transports, **options)


def good(env, clock, latency=0.0):
    return LoopbackTransport(env.hardened.handle_frame, clock=clock,
                             latency=latency)


def tamperer(env, clock, seed=9):
    return FaultyTransport(
        LoopbackTransport(env.hardened.handle_frame),
        rng=random.Random(seed), rates={"tamper": 1.0}, group=env.group,
        clock=clock,
    )


# -- happy path ---------------------------------------------------------------

@pytest.mark.parametrize("kind", ["equality", "range", "join"])
def test_all_replicas_healthy_matches_truth(env, kind):
    clock = FakeClock()
    client = make_cluster(
        env, {f"sp{i}": good(env, clock) for i in range(3)}, clock,
    )
    assert run_query(client, kind) == env.truth[kind]
    assert client.counters.verified == 1
    assert client.counters.failures == 0


def test_steady_state_round_robins_healthy_replicas(env):
    clock = FakeClock()
    client = make_cluster(
        env, {f"sp{i}": good(env, clock) for i in range(3)}, clock,
    )
    for _ in range(6):
        run_query(client, "equality")
        clock.advance(1.0)
    attempts = [ep.attempts for ep in client.endpoints.values()]
    # Least-recently-attempted tie-break spreads equally-healthy load,
    # so a Byzantine replica cannot hide by never being selected.
    assert attempts == [2, 2, 2]


# -- failover -----------------------------------------------------------------

def test_failover_past_dead_endpoint(env):
    clock = FakeClock()
    dead = DeadTransport()
    client = make_cluster(
        env, {"a-dead": dead, "b-good": good(env, clock)}, clock,
        failure_threshold=1,
    )
    assert run_query(client, "range") == env.truth["range"]
    assert dead.calls == 1
    assert client.counters.failovers == 1
    states = client.endpoints
    # The dead endpoint's breaker opened: one *transport* eviction, and
    # a transport fault never counts as tamper.
    assert states["a-dead"].evictions == {"tamper": 0, "transport": 1}
    assert states["a-dead"].breaker.state == "open"
    assert not states["a-dead"].quarantined
    # Subsequent queries skip it entirely while the breaker is open.
    run_query(client, "range")
    assert dead.calls == 1


def test_all_endpoints_down_raises_typed_error(env):
    clock = FakeClock()
    client = make_cluster(
        env, {"a": DeadTransport(), "b": DeadTransport()}, clock,
        policy=RetryPolicy(max_attempts=2, base_delay=0.01, jitter=0.0),
        failure_threshold=10,
    )
    with pytest.raises(TransportError):
        run_query(client, "range")
    assert client.counters.failures == 1
    assert client.counters.verified == 0


def test_no_eligible_endpoint_raises_circuit_open(env):
    clock = FakeClock()
    client = make_cluster(
        env, {"a": DeadTransport()}, clock,
        policy=RetryPolicy(max_attempts=1, base_delay=0.01, jitter=0.0),
        failure_threshold=1, reset_timeout=60.0,
    )
    with pytest.raises(TransportError):
        run_query(client, "range")
    # Breaker now open and the rotation is empty: fail fast, typed.
    with pytest.raises(CircuitOpenError):
        run_query(client, "range")
    assert client.counters.exhausted_rotations >= 1


def test_workload_error_is_not_an_endpoint_failure(env):
    clock = FakeClock()
    client = make_cluster(env, {"a": good(env, clock)}, clock)
    with pytest.raises(WorkloadError):
        client.query_range("no-such-table", (0,), (1,))
    # Deterministic rejection: no eviction of any kind, breaker closed.
    state = client.endpoints["a"]
    assert state.evictions == {"tamper": 0, "transport": 0}
    assert state.breaker.state == "closed"


# -- deterministic rejections need corroboration ------------------------------

class ForgedWorkloadTransport(Transport):
    """A Byzantine replica that answers every query with a forged,
    unauthenticated ``workload`` error frame instead of faking a proof."""

    def __init__(self):
        self.calls = 0

    def round_trip(self, request_frame):
        self.calls += 1
        request_id, _ = unframe(request_frame)
        return frame(
            request_id,
            ErrorResponse(ErrorResponse.WORKLOAD, "no such table").to_bytes(),
        )


def test_lone_workload_frame_fails_over_instead_of_aborting(env):
    clock = FakeClock()
    liar = ForgedWorkloadTransport()
    client = make_cluster(
        env, {"a-liar": liar, "b-good": good(env, clock)}, clock,
    )
    # The liar ranks first (name tie-break) and rejects; the client must
    # not trust the unauthenticated frame — it fails over and returns
    # the honest replica's verified answer.
    assert run_query(client, "range") == env.truth["range"]
    assert client.counters.rejection_suspects == 1
    assert client.endpoints["a-liar"].health < 1.0
    assert client.endpoints["b-good"].evictions == {"tamper": 0, "transport": 0}


def test_persistent_workload_liar_is_breaker_evicted(env):
    clock = FakeClock()
    liar = ForgedWorkloadTransport()
    client = make_cluster(
        env, {"a-liar": liar, "b-good": good(env, clock)}, clock,
        failure_threshold=1,
    )
    assert run_query(client, "range") == env.truth["range"]
    # The lone rejection counted against the liar: its breaker opened
    # and it left the rotation, availability preserved by the honest
    # replica.
    assert client.endpoints["a-liar"].evictions == {"tamper": 0, "transport": 1}
    assert client.endpoints["a-liar"].breaker.state == "open"
    run_query(client, "range")
    assert liar.calls == 1  # out of rotation while the breaker is open


def test_corroborated_workload_rejection_raises_without_evictions(env):
    clock = FakeClock()
    client = make_cluster(
        env, {"sp0": good(env, clock), "sp1": good(env, clock)}, clock,
    )
    with pytest.raises(WorkloadError):
        client.query_range("no-such-table", (0,), (1,))
    # Two independent replicas agreed: the rejection is deterministic
    # and nobody is evicted or quarantined for enforcing it.
    for state in client.endpoints.values():
        assert state.evictions == {"tamper": 0, "transport": 0}
        assert not state.quarantined
    assert client.counters.rejection_suspects == 1


class DeniedVerifier:
    """Wraps the real user but fails decryption like a role-less user."""

    def __init__(self, user):
        self.group = user.group
        self.roles = user.roles

    def verify(self, response):
        raise AccessDeniedError("attributes do not satisfy the ciphertext policy")

    verify_join = verify


def test_access_denial_never_quarantines_honest_replicas(env):
    assert not is_tamper_error(AccessDeniedError("policy unsatisfied"))
    clock = FakeClock()
    client = make_cluster(
        env, {"sp0": good(env, clock), "sp1": good(env, clock)}, clock,
    )
    client.user = DeniedVerifier(env.user)
    with pytest.raises(AccessDeniedError):
        run_query(client, "range")
    # Legitimate access-control enforcement by honest replicas: zero
    # tamper evictions, zero quarantines, corroborated then surfaced.
    for state in client.endpoints.values():
        assert state.evictions["tamper"] == 0
        assert not state.quarantined


# -- Byzantine quarantine -----------------------------------------------------

def test_tampering_endpoint_is_quarantined_not_trusted(env):
    clock = FakeClock()
    client = make_cluster(
        env, {"a-bad": tamperer(env, clock), "b-good": good(env, clock)}, clock,
    )
    # a-bad ranks first (name tie-break) and forges its response: the
    # verification failure quarantines it and the query fails over.
    assert run_query(client, "range") == env.truth["range"]
    states = client.endpoints
    assert states["a-bad"].evictions == {"tamper": 1, "transport": 0}
    assert states["a-bad"].quarantined
    assert states["a-bad"].health == 0.0
    assert states["b-good"].evictions == {"tamper": 0, "transport": 0}
    assert client.counters.quarantines == 1
    assert client.counters.verification_failures == 1


@pytest.fixture
def obs_on():
    """Force the gate on so the gauge is written."""
    previous = obs.set_enabled(True)
    try:
        yield
    finally:
        obs.set_enabled(previous)


def test_quarantine_gauge_counts_every_clients_endpoints(env, obs_on):
    """The gauge is one process-wide count: two clients that each
    quarantine one tamperer read 2, not the last writer's 1."""
    gc.collect()  # earlier tests' clients no longer count
    gauge = metrics.registry().get("repro_cluster_quarantined")
    clock = FakeClock()
    clients = [
        make_cluster(env, {"a-bad": tamperer(env, clock), "b-good": good(env, clock)}, clock)
        for _ in range(2)
    ]
    for client in clients:
        assert run_query(client, "range") == env.truth["range"]
        assert client.counters.quarantines == 1
    assert gauge.value() == 2
    # A collected client's endpoints leave the count at the next refresh.
    del clients[0]
    gc.collect()
    assert run_query(clients[0], "range") == env.truth["range"]
    assert gauge.value() == 1


def test_quarantine_gauge_falls_when_the_window_ends_without_a_query(env, obs_on):
    """The gauge is read from the endpoints' quarantine clocks, so an
    expired window reads 0 at once, with no further query to recount."""
    gc.collect()  # earlier tests' clients no longer count
    gauge = metrics.registry().get("repro_cluster_quarantined")
    clock = FakeClock()
    client = make_cluster(
        env, {"a-bad": tamperer(env, clock), "b-good": good(env, clock)}, clock,
    )
    assert run_query(client, "range") == env.truth["range"]
    assert gauge.value() == 1
    clock.advance(client.quarantine_window + 1.0)
    assert not client.endpoints["a-bad"].quarantined
    assert gauge.value() == 0


class TogglableTransport(Transport):
    """A healthy replica whose link the test can cut."""

    def __init__(self, inner):
        self.inner = inner
        self.down = False

    def round_trip(self, request_frame):
        if self.down:
            raise TransportError("link cut")
        return self.inner.round_trip(request_frame)


def test_quarantined_endpoint_leaves_rotation_then_reprobed(env):
    clock = FakeClock()
    toggle = TogglableTransport(good(env, clock))
    client = make_cluster(
        env, {"a-bad": tamperer(env, clock), "b-good": toggle}, clock,
        quarantine_window=50.0,
    )
    run_query(client, "range")  # a-bad forges once: quarantined
    attempts_after_eviction = client.endpoints["a-bad"].attempts
    for _ in range(5):
        run_query(client, "range")
        clock.advance(1.0)
    # While quarantined the tamperer receives zero traffic.
    assert client.endpoints["a-bad"].attempts == attempts_after_eviction
    # Past the window it re-enters the rotation, but with health zeroed
    # it is a last resort: healthy replicas still soak up all traffic.
    clock.advance(50.0)
    assert not client.endpoints["a-bad"].quarantined
    run_query(client, "range")
    assert client.endpoints["a-bad"].attempts == attempts_after_eviction
    # Only when the healthy replica dies is the suspect probed again —
    # and, still forging, it is immediately re-quarantined.
    toggle.down = True
    with pytest.raises(TransportError):
        run_query(client, "range")
    assert client.endpoints["a-bad"].attempts > attempts_after_eviction
    assert client.endpoints["a-bad"].evictions["tamper"] >= 2
    assert client.endpoints["a-bad"].evictions["transport"] == 0
    assert client.endpoints["a-bad"].quarantined


def test_quarantine_releases_a_claimed_half_open_probe(env):
    clock = FakeClock()
    toggle = TogglableTransport(good(env, clock))
    client = make_cluster(
        env, {"a-bad": tamperer(env, clock), "b-good": toggle}, clock,
        failure_threshold=1, reset_timeout=1.0, quarantine_window=10.0,
    )
    # Open the tamperer's breaker, then let the window lapse: the next
    # attempt against it is the breaker's single claimed half-open probe.
    client.endpoints["a-bad"].breaker.record_failure()
    clock.advance(1.0)
    toggle.down = True
    with pytest.raises(ReproError):
        run_query(client, "range")
    assert client.endpoints["a-bad"].quarantined
    probed = client.endpoints["a-bad"].attempts
    assert probed >= 1
    # Past the window the suspect must be reachable again: the probe it
    # claimed before being quarantined was released, not leaked — a
    # leaked probe would exclude the endpoint from rotation forever.
    clock.advance(10.0)
    with pytest.raises(ReproError):
        run_query(client, "range")
    assert client.endpoints["a-bad"].attempts > probed
    assert client.endpoints["a-bad"].evictions["tamper"] >= 2


def test_truncation_is_transport_not_tamper(env):
    clock = FakeClock()
    flaky = FaultyTransport(
        LoopbackTransport(env.hardened.handle_frame),
        rng=random.Random(5), rates={"truncate": 1.0}, clock=clock,
    )
    client = make_cluster(
        env, {"a-flaky": flaky, "b-good": good(env, clock)}, clock,
        failure_threshold=1,
    )
    assert run_query(client, "range") == env.truth["range"]
    # An undecodable frame is indistinguishable from line noise: the
    # endpoint is breaker-evicted, never accused of tampering.
    assert client.endpoints["a-flaky"].evictions == {"tamper": 0, "transport": 1}
    assert not client.endpoints["a-flaky"].quarantined


@pytest.mark.parametrize("payload", [NON_UTF8_TABLE_VO, UNPARSABLE_POLICY_VO],
                         ids=["non-utf8-table", "unparsable-policy"])
def test_malformed_sealed_vo_fails_over_to_honest_replica(env, payload):
    clock = FakeClock()
    byzantine = ResealTransport(good(env, clock), env, payload)
    client = make_cluster(
        env, {"a-bad": byzantine, "b-good": good(env, clock)}, clock,
    )
    assert run_query(client, "range") == env.truth["range"]
    # Malformed content inside a valid seal decodes to a typed failure:
    # counted as a decode failure, and the query fails over.
    assert client.counters.decode_failures == 1
    assert client.counters.failovers == 1
    assert not client.endpoints["a-bad"].quarantined


# -- overload absorption ------------------------------------------------------

def test_overloaded_replica_backs_off_without_eviction(env):
    clock = FakeClock()
    shedding = ResilientSPServer(
        SPServer(env.server.provider, rng=random.Random(3)),
        max_in_flight=4, retry_after=2.0,
    )
    shedding.set_background_load(10)
    client = make_cluster(
        env,
        {"a-busy": LoopbackTransport(shedding.handle_frame, clock=clock),
         "b-calm": good(env, clock)},
        clock,
    )
    assert run_query(client, "range") == env.truth["range"]
    states = client.endpoints
    # The busy replica shed with a retry-after hint: it is *resting*, not
    # evicted — no breaker penalty, no eviction counters of either kind.
    assert shedding.shed == 1
    assert client.counters.overload_rejections == 1
    assert states["a-busy"].evictions == {"tamper": 0, "transport": 0}
    assert states["a-busy"].breaker.state == "closed"
    assert states["a-busy"].backoff_until == pytest.approx(clock.now() + 2.0)
    assert not states["a-busy"].eligible(clock.now())
    # Once the hint elapses (and the burst has passed) it serves again.
    shedding.set_background_load(0)
    clock.advance(2.0)
    assert states["a-busy"].eligible(clock.now())
    run_query(client, "range")
    assert states["a-busy"].attempts == 2


def test_single_overloaded_endpoint_sleeps_the_hint(env):
    clock = FakeClock()
    shedding = ResilientSPServer(
        SPServer(env.server.provider, rng=random.Random(3)),
        max_in_flight=1, retry_after=3.0,
    )
    shedding.set_background_load(5)
    client = make_cluster(
        env, {"only": LoopbackTransport(shedding.handle_frame, clock=clock)},
        clock,
        policy=RetryPolicy(max_attempts=2, base_delay=0.01, jitter=0.0),
    )
    before = clock.now()
    with pytest.raises(OverloadedError):
        run_query(client, "range")
    # The between-pass sleep honored the 3s retry-after floor (backoff
    # alone would have been 0.01s).
    assert clock.now() - before >= 3.0


# -- hedging ------------------------------------------------------------------

def test_slow_primary_triggers_hedge_to_backup(env):
    clock = FakeClock()
    client = make_cluster(
        env,
        {"a-slow": good(env, clock, latency=1.0),
         "b-fast": good(env, clock, latency=0.01)},
        clock,
        hedge_percentile=0.4, hedge_min_samples=4,
    )
    for _ in range(8):
        assert run_query(client, "range") == env.truth["range"]
        clock.advance(0.1)
    # Round-robin mixes 1.0s and 0.01s samples into the reservoir; once
    # warm, every 1.0s primary response exceeds the p40 and hedges.
    assert client.counters.hedges >= 1
    # The hedge is a probe, not a second answer: every query returned
    # exactly one verified result and the backup's stats stayed warm.
    assert client.counters.verified == 8
    assert client.endpoints["b-fast"].latency_ewma < 0.5


def test_hedge_rejection_cannot_discard_the_verified_primary(env):
    clock = FakeClock()
    client = make_cluster(
        env,
        {"a-slow": good(env, clock, latency=1.0),
         "b-liar": ForgedWorkloadTransport()},
        clock,
        hedge_percentile=0.4, hedge_min_samples=4,
    )
    client._latencies.extend([0.01] * 8)  # warm reservoir: 1.0s is slow
    # The slow primary verifies, then the hedge probe hits the liar,
    # whose forged rejection must be recorded silently — never surfaced
    # past the already-verified result.
    assert run_query(client, "range") == env.truth["range"]
    assert client.counters.hedges == 1
    assert client.counters.verified == 1
    assert client.counters.rejection_suspects == 1
    assert client.endpoints["b-liar"].health < 1.0


def test_slow_hedge_cannot_convert_verified_result_into_deadline_error(env):
    clock = FakeClock()
    client = make_cluster(
        env,
        {"a-slow": good(env, clock, latency=1.0),
         "b-slower": good(env, clock, latency=1.0)},
        clock,
        policy=RetryPolicy(max_attempts=2, base_delay=0.01, jitter=0.0,
                           deadline=1.5),
        hedge_percentile=0.4, hedge_min_samples=4,
    )
    client._latencies.extend([0.01] * 8)
    # The primary verifies at t=1.0, inside the 1.5s deadline; the hedge
    # probe then runs the clock to 2.0.  The already-verified result
    # must still be returned: the deadline check precedes the hedge.
    assert run_query(client, "range") == env.truth["range"]
    assert client.counters.verified == 1
    assert clock.now() == pytest.approx(2.0)


def test_hedging_disabled_by_default_config_none(env):
    clock = FakeClock()
    client = make_cluster(
        env,
        {"a-slow": good(env, clock, latency=1.0),
         "b-fast": good(env, clock, latency=0.01)},
        clock,
        hedge_percentile=None,
    )
    for _ in range(8):
        run_query(client, "range")
        clock.advance(0.1)
    assert client.counters.hedges == 0


# -- forged-rejection suspicion decays ----------------------------------------

class LiarOnceTransport(Transport):
    """Forges a single workload rejection, then behaves forever after —
    the transient-liar (or config-race) case suspicion decay exists for."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def round_trip(self, request_frame):
        self.calls += 1
        if self.calls == 1:
            request_id, _ = unframe(request_frame)
            return frame(
                request_id,
                ErrorResponse(ErrorResponse.WORKLOAD, "no such table").to_bytes(),
            )
        return self.inner.round_trip(request_frame)


def test_forged_rejection_suspicion_decays_after_clean_streak(env):
    clock = FakeClock()
    toggle = TogglableTransport(good(env, clock))
    client = make_cluster(
        env,
        {"a-sus": LiarOnceTransport(good(env, clock)), "b-good": toggle},
        clock,
        suspicion_decay=3, failure_threshold=10,
    )
    # The one-time liar ranks first (name tie-break), forges a rejection,
    # and the query fails over to the clean replica.
    assert run_query(client, "range") == env.truth["range"]
    assert client.endpoints["a-sus"].rejection_suspects == 1
    # Demoted: the suspect sorts behind the clean replica regardless of
    # the least-recently-attempted tie-break that would otherwise pick it.
    clock.advance(1.0)
    assert [e.name for e in client._ranked(clock.now())] == ["b-good", "a-sus"]
    # Cut the clean replica so the suspect serves the corroboration
    # window itself: three verified successes clear its name.
    toggle.down = True
    for _ in range(3):
        clock.advance(1.0)
        assert run_query(client, "range") == env.truth["range"]
        assert client.endpoints["a-sus"].successes <= 3
    assert client.endpoints["a-sus"].rejection_suspects == 0
    # Back in the healthy rotation: ranking is health-order again, so
    # the once-suspect replica is no longer pinned to last place.
    toggle.down = False
    clock.advance(1.0)
    assert client._ranked(clock.now())[0].name == "a-sus"


def test_repeat_liar_resets_its_own_clean_streak(env):
    clock = FakeClock()
    endpoint = make_cluster(
        env, {"only": good(env, clock)}, clock, suspicion_decay=4,
    ).endpoints["only"]
    endpoint.note_suspicion()
    for _ in range(3):
        endpoint.observe_success(0.01)
    endpoint.note_suspicion()  # lies again before the window closes
    assert endpoint.rejection_suspects == 2
    for _ in range(3):
        endpoint.observe_success(0.01)
    # The streak restarted at the second lie: still suspect at 3 of 4.
    assert endpoint.rejection_suspects == 2
    endpoint.observe_success(0.01)
    assert endpoint.rejection_suspects == 0


def test_suspicion_decay_validation(env):
    with pytest.raises(ReproError, match="suspicion_decay"):
        ReplicatedClient(env.user, {"a": DeadTransport()}, suspicion_decay=0)


# -- stats --------------------------------------------------------------------

def test_stats_exposes_per_endpoint_state(env):
    clock = FakeClock()
    client = make_cluster(
        env, {"a-bad": tamperer(env, clock), "b-good": good(env, clock)}, clock,
    )
    run_query(client, "range")
    stats = client.stats()
    assert stats["counters"]["verified"] == 1
    assert stats["counters"]["quarantines"] == 1
    assert stats["endpoints"]["a-bad"]["quarantined"] is True
    assert stats["endpoints"]["a-bad"]["evictions"]["tamper"] == 1
    assert stats["endpoints"]["b-good"]["quarantined"] is False
    assert stats["counters"]["attempts"] == 2
    assert stats["counters"]["verification_failures"] == 1


def test_constructor_validation(env):
    with pytest.raises(Exception):
        ReplicatedClient(env.user, {})
    with pytest.raises(Exception):
        ReplicatedClient(env.user, {"a": DeadTransport()}, quarantine_window=0.0)
    with pytest.raises(Exception):
        ReplicatedClient(env.user, {"a": DeadTransport()}, hedge_percentile=1.5)
