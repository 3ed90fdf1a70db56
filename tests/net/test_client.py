"""Tests for the one-endpoint client: retries, deadlines, breaker, detection."""

import dataclasses
import random

import pytest

from repro.core.messages import decode_response, encode_response
from repro.core.vo import InaccessibleNodeEntry, InaccessibleRecordEntry

from repro.errors import (
    AccessDeniedError,
    CircuitOpenError,
    CompletenessError,
    CryptoError,
    DeadlineExceededError,
    DeserializationError,
    OverloadedError,
    ReproError,
    SoundnessError,
    StaleEpochError,
    TransportError,
    VerificationError,
    WorkloadError,
)
from repro.net import (
    CircuitBreaker,
    ClientStats,
    FakeClock,
    FaultyTransport,
    LoopbackTransport,
    ReplicatedClient,
    ResilientClient,
    RetryPolicy,
    Transport,
)
from repro.net.client import ERROR_CLASSES, count_wire_error
from repro.net.cluster import Endpoint
from repro.net.transport import frame, unframe

from .conftest import NON_UTF8_TABLE_VO, UNPARSABLE_POLICY_VO, ResealTransport, run_query


def make_client(env, transport, clock=None, policy=None, seed=1,
                failure_threshold=1000, **options):
    return ResilientClient(
        env.user,
        transport,
        policy=policy or RetryPolicy(max_attempts=6, base_delay=0.01),
        clock=clock or FakeClock(),
        rng=random.Random(seed),
        failure_threshold=failure_threshold,
        **options,
    )


def loopback(env):
    return LoopbackTransport(env.hardened.handle_frame)


def test_perfect_transport_all_query_kinds(env):
    client = make_client(env, loopback(env))
    for kind in ("equality", "range", "join"):
        assert run_query(client, kind) == env.truth[kind]  # sealed
    # Plaintext responses verify to the same results.
    assert [r.value for r in client.query_equality("docs", (4,), encrypt=False)] \
        == env.truth["equality"]
    assert sorted(r.value for r in client.query_range("docs", (0,), (31,), encrypt=False)) \
        == env.truth["range"]
    assert [(p.left.value, p.right.value)
            for p in client.query_join("R", "S", (0,), (15,), encrypt=False)] \
        == env.truth["join"]
    # A key the analyst may not see and a key with no record both verify
    # to an empty answer, sealed or not.
    for encrypt in (True, False):
        assert client.query_equality("docs", (11,), encrypt=encrypt) == []  # hidden
        assert client.query_equality("docs", (20,), encrypt=encrypt) == []  # absent
    assert client.counters.requests == 10
    assert client.counters.attempts == 10
    assert client.counters.verified == 10
    assert client.counters.failures == 0


class FailFirstN(Transport):
    """Fail the first ``n`` exchanges, then delegate."""

    def __init__(self, inner, n):
        self.inner = inner
        self.n = n

    def round_trip(self, request_frame):
        if self.n > 0:
            self.n -= 1
            raise TransportError("synthetic outage")
        return self.inner.round_trip(request_frame)


def test_retries_through_transient_outage(env):
    client = make_client(env, FailFirstN(loopback(env), 3))
    assert run_query(client, "range") == env.truth["range"]
    assert client.counters.attempts == 4
    assert client.counters.attempts - client.counters.requests == 3  # retries
    assert client.counters.transport_errors == 3


def test_exhausted_retries_reraise_last_typed_error(env):
    client = make_client(env, FailFirstN(loopback(env), 99))
    with pytest.raises(TransportError, match="synthetic outage"):
        run_query(client, "range")
    assert client.counters.attempts == 6
    assert client.counters.failures == 1


def test_backoff_is_bounded_and_deterministic():
    policy = RetryPolicy(max_attempts=8, base_delay=0.1, max_delay=1.0, jitter=0.5)
    a = [policy.backoff(i, random.Random(3)) for i in range(8)]
    b = [policy.backoff(i, random.Random(3)) for i in range(8)]
    assert a == b  # same seed, same schedule
    assert all(d <= 1.0 * 1.5 for d in a)  # capped at max_delay * (1 + jitter)
    assert policy.backoff(5, random.Random(0)) >= policy.backoff(0, random.Random(0))


def test_retry_policy_validation():
    with pytest.raises(ReproError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ReproError):
        RetryPolicy(base_delay=-1.0)


def test_deadline_exceeded_is_typed(env):
    clock = FakeClock()
    transport = FaultyTransport(
        loopback(env), rng=random.Random(5), rates={"delay": 1.0},
        clock=clock, delay_seconds=5.0,
    )
    client = make_client(
        env, transport, clock=clock,
        policy=RetryPolicy(max_attempts=10, base_delay=0.01, deadline=3.0),
    )
    with pytest.raises(DeadlineExceededError):
        run_query(client, "range")
    # The injected delay blew the deadline after a single attempt.
    assert client.counters.attempts == 1


def test_duplicate_responses_detected_and_rejected(env):
    clock = FakeClock()
    transport = FaultyTransport(
        loopback(env), rng=random.Random(6), rates={"duplicate": 1.0}, clock=clock,
    )
    client = make_client(env, transport, clock=clock)
    # First query: nothing to replay yet, so it succeeds and primes the cache.
    assert run_query(client, "range") == env.truth["range"]
    # Second query: every exchange replays the stale frame; ids never match.
    with pytest.raises(TransportError, match="id mismatch"):
        run_query(client, "equality")
    assert client.counters.duplicates_detected == 6


def test_workload_errors_are_not_retried(env):
    transport = loopback(env)
    client = make_client(env, transport)
    with pytest.raises(WorkloadError, match="nope"):
        client.query_range("nope", (0,), (31,))
    assert transport.requests == 1  # no retry for a deterministic rejection
    assert client.counters.error_frames == 1


def test_verification_failure_retries_then_raises(env):
    # Plaintext responses + 100% tamper: each attempt verifies a forged VO.
    clock = FakeClock()
    transport = FaultyTransport(
        loopback(env), rng=random.Random(8), rates={"tamper": 1.0},
        group=env.group, clock=clock,
    )
    client = make_client(env, transport, clock=clock)
    with pytest.raises(VerificationError):
        sorted(r.value for r in client.query_range("docs", (0,), (31,), encrypt=False))
    assert client.counters.verification_failures == 6
    assert client.counters.failures == 1


def test_sole_endpoint_tamper_is_retried_not_quarantined(env):
    """With nowhere to fail over, a forged reply from the only SP counts
    on its breaker and is retried; quarantining it would park the SP for
    the whole quarantine window."""
    clock = FakeClock()
    transport = FaultyTransport(
        loopback(env), rng=random.Random(8), rates={"tamper": 1.0},
        group=env.group, clock=clock,
    )
    client = make_client(env, transport, clock=clock,
                         policy=RetryPolicy(max_attempts=3, base_delay=0.01))
    with pytest.raises(VerificationError):
        client.query_range("docs", (0,), (31,), encrypt=False)
    assert client.counters.verification_failures == 3
    assert client.counters.quarantines == 0
    assert not client.endpoint.quarantined
    assert client.breaker.failures == 3
    # The link turns honest: the very next query is answered and verified.
    transport.rates["tamper"] = 0.0
    assert run_query(client, "range") == env.truth["range"]
    assert client.breaker.failures == 0


def test_truncated_responses_surface_as_deserialization_error(env):
    clock = FakeClock()
    transport = FaultyTransport(
        loopback(env), rng=random.Random(9), rates={"truncate": 1.0}, clock=clock,
    )
    client = make_client(env, transport, clock=clock)
    with pytest.raises(DeserializationError):
        run_query(client, "range")
    assert client.counters.decode_failures == 6


# -- circuit breaker ---------------------------------------------------------

def test_breaker_opens_after_consecutive_failures_and_recovers(env):
    """The breaker counts failed attempts; a query that finds it open waits
    out the window inside its own attempt budget instead of failing fast."""
    clock = FakeClock()
    transport = FaultyTransport(
        loopback(env), rng=random.Random(10), rates={"drop": 1.0}, clock=clock,
    )
    policy = RetryPolicy(max_attempts=2, base_delay=0.01)
    client = make_client(
        env, transport, clock=clock, policy=policy,
        failure_threshold=2, reset_timeout=30.0,
    )
    with pytest.raises(TransportError):
        run_query(client, "range")
    # One query's two failed attempts opened it.
    assert client.counters.attempts == 2
    assert client.breaker.state == "open"
    opened_at = clock.now()

    # Open circuit and a one-attempt budget: nothing to wait in, so the
    # query fails typed and the SP is not even contacted.
    client.policy = RetryPolicy(max_attempts=1)
    before = transport.inner.requests
    with pytest.raises(CircuitOpenError):
        run_query(client, "range")
    assert transport.inner.requests == before
    assert client.counters.exhausted_rotations == 1
    assert clock.now() == opened_at

    # With attempts to spare, the query sleeps to the half-open edge, and
    # the healthy trial closes the circuit.
    client.policy = policy
    transport.rates["drop"] = 0.0
    assert run_query(client, "range") == env.truth["range"]
    assert clock.now() - opened_at >= 30.0
    assert client.breaker.state == "closed"
    assert client.counters.exhausted_rotations == 2


def test_breaker_halfopen_failure_reopens(env):
    clock = FakeClock()
    breaker = CircuitBreaker(failure_threshold=1, reset_timeout=10.0, clock=clock)
    breaker.record_failure()
    assert breaker.state == "open"
    clock.advance(10.0)
    assert breaker.state == "half-open"
    breaker.record_failure()
    assert breaker.state == "open"
    breaker_clockskew = breaker  # the reopen must restart the window
    clock.advance(5.0)
    assert breaker_clockskew.state == "open"
    clock.advance(5.0)
    assert breaker_clockskew.state == "half-open"
    breaker.record_success()
    assert breaker.state == "closed"


def test_breaker_validation():
    with pytest.raises(ReproError):
        CircuitBreaker(failure_threshold=0)


# -- attempt-error classification --------------------------------------------

@pytest.mark.parametrize("exc, field, label", [
    (DeserializationError("garbled"), "decode_failures", "decode"),
    (OverloadedError("shed", retry_after=1.0), "overload_rejections", "overloaded"),
    (TransportError("dropped"), "transport_errors", "transport"),
    (StaleEpochError("old epoch"), "stale_epochs", "stale-epoch"),
    (SoundnessError("forged"), "verification_failures", "verification"),
    (CryptoError("bad envelope"), "verification_failures", "verification"),
    (AccessDeniedError("policy"), None, None),
])
def test_count_wire_error_classifies_each_error_class(exc, field, label):
    """One failed attempt is one count in its endpoint's ``errors``, under
    the class label of ``repro_cluster_attempt_errors_total``; the
    client's per-class total is read from it."""
    endpoint = Endpoint("sp", None, CircuitBreaker(), FakeClock())
    counters = ClientStats(endpoints=(endpoint,))
    count_wire_error(exc, endpoint.errors)
    assert endpoint.errors == {
        name: int(name == label) for name in ERROR_CLASSES
    }
    assert {name: getattr(counters, name) for name in ERROR_CLASSES.values()} == {
        name: int(name == field) for name in ERROR_CLASSES.values()
    }


# -- malformed content inside a valid seal -----------------------------------

@pytest.mark.parametrize("payload", [NON_UTF8_TABLE_VO, UNPARSABLE_POLICY_VO],
                         ids=["non-utf8-table", "unparsable-policy"])
def test_malformed_sealed_vo_is_a_typed_decode_failure(env, payload):
    client = make_client(env, ResealTransport(loopback(env), env, payload))
    with pytest.raises(DeserializationError, match="malformed verification object"):
        run_query(client, "range")
    assert client.counters.decode_failures == 6
    assert client.counters.failures == 1


class RaisingTransport(Transport):
    """Raises an error no branch of the retry loop expects."""

    def round_trip(self, request_frame):
        raise RuntimeError("client-side bug")


def _half_open_exit(env, clock, path):
    """(transport, policy, unknown table?, expected error) for one exit path."""
    policy = RetryPolicy(max_attempts=2, base_delay=0.01)
    if path == "verified":
        return loopback(env), policy, False, None
    if path == "verified-late":
        late = LoopbackTransport(env.hardened.handle_frame, clock=clock, latency=5.0)
        return late, RetryPolicy(max_attempts=2, deadline=3.0), False, DeadlineExceededError
    if path == "workload":
        return loopback(env), policy, True, WorkloadError
    if path == "access-denied":
        denied = ResealTransport(loopback(env), env, b"", roles=("manager",))
        return denied, policy, False, AccessDeniedError
    if path == "retries-exhausted":
        return FailFirstN(loopback(env), 99), policy, False, TransportError
    if path == "malformed-sealed-vo":
        malformed = ResealTransport(loopback(env), env, UNPARSABLE_POLICY_VO)
        return malformed, policy, False, DeserializationError
    if path == "unexpected-error":
        return RaisingTransport(), policy, False, RuntimeError
    raise AssertionError(path)


HALF_OPEN_EXITS = (
    "verified", "verified-late", "workload", "access-denied",
    "retries-exhausted", "malformed-sealed-vo", "unexpected-error",
)


@pytest.mark.parametrize(
    "path, endpoints",
    [(path, 1) for path in HALF_OPEN_EXITS] + [(path, 2) for path in HALF_OPEN_EXITS],
    ids=list(HALF_OPEN_EXITS) + [f"{path}-two-endpoints" for path in HALF_OPEN_EXITS],
)
def test_every_half_open_exit_resolves_the_probe(env, path, endpoints):
    clock = FakeClock()
    transport, policy, unknown_table, expected = _half_open_exit(env, clock, path)
    options = dict(policy=policy, clock=clock, rng=random.Random(1),
                   failure_threshold=1, reset_timeout=10.0)
    if endpoints == 1:
        client = ResilientClient(env.user, transport, **options)
    else:
        client = ReplicatedClient(env.user, {"a": transport, "b": transport}, **options)
    breakers = [endpoint.breaker for endpoint in client.endpoints.values()]
    for breaker in breakers:
        breaker.record_failure()
    clock.advance(10.0)
    assert all(breaker.state == "half-open" for breaker in breakers)
    if expected is None:
        assert run_query(client, "range") == env.truth["range"]
    else:
        with pytest.raises(expected):
            if unknown_table:
                client.query_range("nope", (0,), (31,))
            else:
                run_query(client, "range")
    # Whatever the outcome, every probe slot is free again: once any
    # re-open window has passed, each breaker admits the next probe.
    clock.advance(10.0)
    assert all(breaker.allow() for breaker in breakers)


# -- structured VO tampers, caught before the client returns -------------------

class VOTamperTransport(Transport):
    """A Byzantine SP: rewrites the entry list of every plaintext VO."""

    def __init__(self, inner, group, mutate):
        self.inner = inner
        self.group = group
        self.mutate = mutate
        self.tampered = 0

    def round_trip(self, request_frame):
        request_id, body = unframe(self.inner.round_trip(request_frame))
        response = decode_response(self.group, body)
        self.mutate(response.vo.entries)
        self.tampered += 1
        return frame(request_id, encode_response(response))


def _swap_first_two_aps(entries):
    """Cross-wire two APS signatures: each valid, each on the wrong message."""
    i, j = [
        k for k, e in enumerate(entries)
        if isinstance(e, (InaccessibleRecordEntry, InaccessibleNodeEntry))
    ][:2]
    entries[i], entries[j] = (
        dataclasses.replace(entries[i], aps=entries[j].aps),
        dataclasses.replace(entries[j], aps=entries[i].aps),
    )


@pytest.mark.parametrize("mutate, error, detail", [
    (_swap_first_two_aps, SoundnessError, "APS signature invalid for region"),
    (lambda entries: entries.pop(), CompletenessError, "tile"),
], ids=["swapped-aps", "popped-entry"])
def test_structured_vo_tamper_never_returned(env, mutate, error, detail):
    """Every response is verified before it is returned: a forged APS and
    a dropped entry are each rejected on every attempt, naming the fault."""
    transport = VOTamperTransport(loopback(env), env.group, mutate)
    client = make_client(env, transport, policy=RetryPolicy(max_attempts=2, base_delay=0.01))
    with pytest.raises(error, match=detail):
        client.query_range("docs", (0,), (31,), encrypt=False)
    assert transport.tampered == 2
    assert client.counters.verification_failures == 2
