"""Admission control on ResilientSPServer and the overloaded error frame."""

import random

import pytest

from repro import obs
from repro.core.messages import ErrorResponse, SPServer
from repro.errors import (
    CircuitOpenError,
    DeserializationError,
    OverloadedError,
    ReproError,
    TransportError,
    WorkloadError,
)
from repro.net import (
    PROBE_REQUEST,
    PROBE_RESPONSE,
    STATS_REQUEST,
    FakeClock,
    LoopbackTransport,
    ResilientClient,
    ResilientSPServer,
    RetryPolicy,
    decode_probe_response,
    decode_stats_response,
    frame,
    probe_endpoint,
    unframe,
)
from repro.obs.metrics import registry

from .conftest import run_query


@pytest.fixture
def obs_on():
    previous = obs.set_enabled(True)
    try:
        yield
    finally:
        obs.set_enabled(previous)


def make_server(env, **kw):
    return ResilientSPServer(
        SPServer(env.server.provider, rng=random.Random(3)), **kw
    )


def make_client(env, server, max_attempts=1):
    clock = FakeClock()
    return ResilientClient(
        env.user, LoopbackTransport(server.handle_frame),
        policy=RetryPolicy(max_attempts=max_attempts, base_delay=0.01, jitter=0.0),
        failure_threshold=10**6,
        clock=clock, rng=random.Random(4),
    )


# -- the overloaded error frame ----------------------------------------------

def test_error_response_overloaded_round_trips_the_hint():
    error = ErrorResponse.overloaded(0.25, "admission limit reached")
    again = ErrorResponse.from_bytes(error.to_bytes())
    assert again.code == ErrorResponse.OVERLOADED
    assert again.retry_after_hint() == pytest.approx(0.25)
    assert "admission limit reached" in again.message


def test_overloaded_constructor_rejects_negative_hint_as_usage_error():
    with pytest.raises(ReproError) as excinfo:
        ErrorResponse.overloaded(-1.0)
    # An argument-validation failure, not a query rejection: callers'
    # WorkloadError fast-fail paths must never see it.
    assert not isinstance(excinfo.value, WorkloadError)


def test_retry_after_hint_is_tolerant_of_foreign_messages():
    # A hand-built or future-version frame without the token: no hint.
    assert ErrorResponse(ErrorResponse.OVERLOADED, "busy").retry_after_hint() is None
    # A mangled token parses to None rather than raising.
    mangled = ErrorResponse(ErrorResponse.OVERLOADED, "retry-after=soon")
    assert mangled.retry_after_hint() is None


# -- shedding -----------------------------------------------------------------

def test_background_load_sheds_with_parseable_hint(env):
    server = make_server(env, max_in_flight=4, retry_after=0.75)
    server.set_background_load(10)
    client = make_client(env, server)
    with pytest.raises(OverloadedError) as excinfo:
        run_query(client, "range")
    assert excinfo.value.retry_after == pytest.approx(0.75)
    assert server.shed == 1
    assert server.served == 0
    assert client.counters.overload_rejections == 1
    assert client.counters.error_frames == 1
    # Below the limit again, but the endpoint sits out the hint across
    # queries: a query inside it is refused unsent, with what remains.
    server.set_background_load(0)
    client.clock.advance(0.25)
    with pytest.raises(OverloadedError) as excinfo:
        run_query(client, "range")
    assert excinfo.value.retry_after == pytest.approx(0.5)
    assert server.shed == 1
    # Once the hint has run out, the same server serves.
    client.clock.advance(0.5)
    assert run_query(client, "range") == env.truth["range"]
    assert server.served == 1


def test_unbounded_server_never_sheds(env):
    server = make_server(env)  # max_in_flight=None
    server.set_background_load(10_000)
    client = make_client(env, server)
    assert run_query(client, "range") == env.truth["range"]
    assert server.shed == 0


def test_shed_reasons_are_distinguished(env, obs_on):
    window = registry().window()
    server = make_server(env, max_in_flight=1)
    client = make_client(env, server)
    server.set_background_load(5)
    with pytest.raises(OverloadedError):
        run_query(client, "range")
    server.set_background_load(0)
    server.drain()
    client.clock.advance(server.retry_after)  # sit out the overload hint
    with pytest.raises(OverloadedError):
        run_query(client, "range")
    delta = window.delta()
    assert delta.get("repro_server_shed_total|overload") == 1
    assert delta.get("repro_server_shed_total|drain") == 1
    assert delta.get("repro_server_frames_total|overloaded") == 2


# -- drain mode ---------------------------------------------------------------

def test_drain_rejects_queries_but_answers_stats_scrapes(env):
    server = make_server(env, max_in_flight=8)
    client = make_client(env, server)
    run_query(client, "range")
    server.drain()
    assert server.draining
    with pytest.raises(OverloadedError):
        run_query(client, "range")
    # Operators can still watch the drain: scrapes bypass admission.
    request_id = bytes(range(16))
    response = server.handle_frame(frame(request_id, STATS_REQUEST))
    rid, payload = unframe(response)
    assert rid == request_id
    assert decode_stats_response(payload)  # valid exposition text
    # Resume: once the shed's hint has passed, the same server admits
    # queries again.
    server.resume()
    assert not server.draining
    client.clock.advance(server.retry_after)
    assert run_query(client, "range") == env.truth["range"]


def test_drain_applies_even_without_an_in_flight_limit(env):
    server = make_server(env)  # unbounded, but drain still sheds
    client = make_client(env, server)
    server.drain()
    with pytest.raises(OverloadedError):
        run_query(client, "range")


# -- liveness probes ----------------------------------------------------------

class CuttableTransport:
    """A healthy link the test can cut and restore."""

    def __init__(self, inner):
        self.inner = inner
        self.down = False

    def round_trip(self, request_frame):
        if self.down:
            raise TransportError("link cut")
        return self.inner.round_trip(request_frame)


class GarbledProbeTransport:
    """Serves real queries but answers every probe with ``reply``."""

    def __init__(self, inner, reply):
        self.inner = inner
        self.reply = reply

    def round_trip(self, request_frame):
        request_id, payload = unframe(request_frame)
        if payload == PROBE_REQUEST:
            return frame(request_id, self.reply)
        return self.inner.round_trip(request_frame)


def test_probe_frame_bypasses_admission_and_drain(env, obs_on):
    window = registry().window()
    server = make_server(env, max_in_flight=1)
    server.set_background_load(5)  # saturated...
    server.drain()                 # ...and draining: probes still answer
    request_id = bytes(range(16))
    rid, payload = unframe(server.handle_frame(frame(request_id, PROBE_REQUEST)))
    assert rid == request_id
    assert decode_probe_response(payload) == "draining"
    server.resume()
    _, payload = unframe(server.handle_frame(frame(bytes(16), PROBE_REQUEST)))
    assert decode_probe_response(payload) == "ready"
    delta = window.delta()
    assert delta.get("repro_server_probes_total|draining") == 1
    assert delta.get("repro_server_probes_total|ready") == 1
    assert delta.get("repro_server_frames_total|probe") == 2
    assert server.shed == 0  # a probe is never shed


@pytest.mark.parametrize("reply", [PROBE_RESPONSE + b"\xff", PROBE_RESPONSE + b"asleep"])
def test_probe_decoder_rejects_a_garbled_status(reply):
    with pytest.raises(DeserializationError):
        decode_probe_response(reply)


def test_probe_endpoint_helper_round_trips_status(env):
    server = make_server(env)
    transport = LoopbackTransport(server.handle_frame)
    assert probe_endpoint(transport, random.Random(1)) == "ready"
    server.drain()
    assert probe_endpoint(transport, random.Random(2)) == "draining"


def test_half_open_probe_defers_during_drain_then_readmits(env):
    clock = FakeClock()
    server = make_server(env, max_in_flight=8)
    link = CuttableTransport(LoopbackTransport(server.handle_frame))
    client = ResilientClient(
        env.user, link,
        policy=RetryPolicy(max_attempts=1, base_delay=0.01, jitter=0.0),
        failure_threshold=1, reset_timeout=5.0,
        clock=clock, rng=random.Random(4),
    )
    # The replica dies: breaker opens, then fails fast.
    link.down = True
    with pytest.raises(TransportError):
        run_query(client, "range")
    assert client.breaker.state == "open"
    with pytest.raises(CircuitOpenError):
        run_query(client, "range")
    # It comes back — but draining.  The half-open trial probes first
    # and defers as a typed overload instead of burning a real query.
    link.down = False
    server.drain()
    clock.advance(5.0)
    assert client.breaker.state == "half-open"
    with pytest.raises(OverloadedError, match="draining"):
        run_query(client, "range")
    assert client.counters.probes == 1
    assert client.counters.probe_deferrals == 1
    # Crucially the deferral did not re-open the breaker for another
    # full window: the probe slot was released without judgement, so the
    # next trial may run immediately.
    assert client.breaker.state == "half-open"
    # After resume() the very next query probes ready, spends the real
    # half-open trial, verifies, and closes the circuit.
    server.resume()
    assert run_query(client, "range") == env.truth["range"]
    assert client.breaker.state == "closed"
    assert client.counters.probes == 2
    assert client.counters.probe_deferrals == 1


def test_garbled_probe_proves_nothing_and_real_query_decides(env):
    # Bad magic, a status that is not UTF-8, and an unknown status word.
    for reply in (b"\x00garbage", PROBE_RESPONSE + b"\xff", PROBE_RESPONSE + b"asleep"):
        clock = FakeClock()
        server = make_server(env)
        client = ResilientClient(
            env.user,
            GarbledProbeTransport(LoopbackTransport(server.handle_frame), reply),
            policy=RetryPolicy(max_attempts=1, base_delay=0.01, jitter=0.0),
            failure_threshold=1, reset_timeout=5.0,
            clock=clock, rng=random.Random(4),
        )
        client.breaker.record_failure()  # open
        clock.advance(5.0)               # half-open
        # The probe comes back undecodable — that is *not* evidence the
        # server is down (old build, line noise, a tamperer garbling cheap
        # frames), so the real half-open query proceeds and succeeds.
        assert run_query(client, "range") == env.truth["range"]
        assert client.breaker.state == "closed"
        assert client.counters.probes == 0  # only decoded probes count
        assert client.counters.probe_deferrals == 0


# -- bookkeeping --------------------------------------------------------------

def test_in_flight_gauge_returns_to_zero(env):
    server = make_server(env, max_in_flight=8)
    client = make_client(env, server)
    run_query(client, "range")
    with pytest.raises(Exception):
        client.query_range("no-such-table", (0,), (1,))
    # Served and errored requests both release their admission slot.
    assert server.in_flight == 0


def test_stats_frames_are_counted_as_their_own_outcome(env, obs_on):
    window = registry().window()
    server = make_server(env)
    server.handle_frame(frame(bytes(16), STATS_REQUEST))
    delta = window.delta()
    assert delta.get("repro_server_frames_total|stats") == 1
    assert delta.get("repro_server_scrapes_total") == 1


def test_constructor_and_setter_validation(env):
    with pytest.raises(ReproError):
        make_server(env, max_in_flight=0)
    with pytest.raises(ReproError):
        make_server(env, retry_after=-1.0)
    server = make_server(env, max_in_flight=2)
    with pytest.raises(ReproError):
        server.set_background_load(-1)
