"""End-to-end observability: one query, one correlated trace, one scrape.

The acceptance scenario for the telemetry subsystem: a ResilientClient
query through the framed transport into the two-phase engine yields a
single trace correlating client retries, server handling, engine phases,
and group-operation counters — and the registry renders as lintable
Prometheus text both in-process and over a ``stats`` frame.
"""

import random
from dataclasses import dataclass

import pytest

from repro import obs
from repro.core.messages import SPServer
from repro.core.records import Dataset, Record
from repro.core.system import DataOwner, QueryUser
from repro.crypto import simulated
from repro.errors import DeserializationError, TransportError
from repro.index.boxes import Domain
from repro.net import (
    REQUEST_ID_BYTES,
    CircuitBreaker,
    FakeClock,
    FaultyTransport,
    LoopbackTransport,
    ResilientClient,
    ResilientSPServer,
    RetryPolicy,
    STATS_REQUEST,
    Transport,
    decode_stats_response,
    embed_trace_id,
    extract_trace_id,
    frame,
    unframe,
)
from repro.obs.metrics import parse_exposition, registry
from repro.obs.trace import TRACE_ID_BYTES
from repro.parallel import parallel_map, shutdown_process_pools


@dataclass
class Env:
    owner: DataOwner
    provider: object
    server: ResilientSPServer
    user: QueryUser
    clock: FakeClock


def make_env(seed=7100) -> Env:
    from repro.policy.boolexpr import parse_policy
    from repro.policy.roles import RoleUniverse

    rng = random.Random(seed)
    group = simulated()
    universe = RoleUniverse(["analyst", "manager"])
    owner = DataOwner(group, universe, rng=rng)
    docs = Dataset(Domain.of((0, 31)))
    docs.add(Record((4,), b"forecast", parse_policy("analyst or manager")))
    docs.add(Record((11,), b"salaries", parse_policy("manager")))
    docs.add(Record((23,), b"minutes", parse_policy("analyst")))
    provider = owner.outsource({"docs": docs})
    server = ResilientSPServer(SPServer(provider, rng=rng))
    user = QueryUser(group, universe, owner.register_user(["analyst"]))
    return Env(owner=owner, provider=provider, server=server, user=user,
               clock=FakeClock())


def make_client(env, transport, max_attempts=6, seed=1):
    return ResilientClient(
        env.user,
        transport,
        policy=RetryPolicy(max_attempts=max_attempts, base_delay=0.01),
        breaker=CircuitBreaker(failure_threshold=1000, clock=env.clock),
        clock=env.clock,
        rng=random.Random(seed),
    )


class RecordingTransport(Transport):
    """Remembers every request frame before delegating."""

    def __init__(self, inner):
        self.inner = inner
        self.frames = []

    def round_trip(self, request_frame):
        self.frames.append(request_frame)
        return self.inner.round_trip(request_frame)


# -- the acceptance scenario ---------------------------------------------------

def test_one_query_yields_one_correlated_trace():
    env = make_env()
    transport = RecordingTransport(LoopbackTransport(env.server.handle_frame))
    client = make_client(env, transport)
    records = client.query_range("docs", (0,), (31,))
    assert sorted(r.value for r in records) == [b"forecast", b"minutes"]

    trace = obs.tracer().last_trace()
    names = trace.span_names()
    for expected in ("client.query", "client.attempt", "server.handle_frame",
                     "sp.handle", "sp.query", "engine.traverse",
                     "engine.materialize"):
        assert expected in names, f"missing span {expected} in {names}"
    # Everything shares the root's trace id — one trace, not several.
    assert {s.trace_id for s in trace.iter_spans()} == {trace.trace_id}
    # The server span nests under the client attempt.
    attempt = trace.find("client.attempt")
    assert attempt.find("server.handle_frame") is not None
    assert trace.attributes["outcome"] == "verified"
    assert trace.find("sp.query").attributes["tasks"] > 0

    # The wire frame carried the same trace id in the request-id prefix.
    request_id, _ = unframe(transport.frames[0])
    assert extract_trace_id(request_id) == trace.trace_id

    # Group-operation counters were fed by the engine under this query.
    snap = registry().snapshot()
    group_keys = [k for k in snap if k.startswith("repro_group_ops_total|simulated|")]
    assert group_keys and all(snap[k] > 0 for k in group_keys)
    assert snap["repro_engine_relax_calls_total"] > 0
    assert snap["repro_sp_queries_total|range"] == 1


def test_retries_show_as_attempt_spans_with_fault_events():
    env = make_env()
    inner = LoopbackTransport(env.server.handle_frame)
    faulty = FaultyTransport(inner, rng=random.Random(5),
                             rates={"bitflip": 1.0}, clock=env.clock)

    class FirstTwoFaulty(Transport):
        def __init__(self):
            self.remaining = 2

        def round_trip(self, request_frame):
            if self.remaining > 0:
                self.remaining -= 1
                return faulty.round_trip(request_frame)
            return inner.round_trip(request_frame)

    client = make_client(env, FirstTwoFaulty())
    records = client.query_range("docs", (0,), (31,))
    assert sorted(r.value for r in records) == [b"forecast", b"minutes"]
    assert client.counters.retries == 2

    trace = obs.tracer().last_trace()
    attempts = [s for s in trace.iter_spans() if s.name == "client.attempt"]
    assert len(attempts) == 3
    fault_events = [e for s in trace.iter_spans() for e in s.events
                    if e["name"] == "fault_injected"]
    assert len(fault_events) == 2
    assert all(e["kind"] == "bitflip" for e in fault_events)
    assert registry().snapshot()["repro_faults_injected_total|bitflip"] == 2
    assert registry().snapshot()["repro_client_retries_total"] == 2


# -- trace-id wire round-trip --------------------------------------------------

def test_trace_id_round_trips_through_frames():
    trace_id = "a1b2c3d4e5f60718"
    request_id = embed_trace_id(bytes(range(16)), trace_id)
    assert len(request_id) == REQUEST_ID_BYTES
    rid, payload = unframe(frame(request_id, b"payload"))
    assert rid == request_id
    assert payload == b"payload"
    assert extract_trace_id(rid) == trace_id
    # No active trace: the id passes through untouched.
    assert embed_trace_id(request_id, None) == request_id


def test_trace_id_embed_extract_edge_cases():
    with pytest.raises(TransportError, match="request id"):
        embed_trace_id(b"short", "a1b2c3d4e5f60718")
    with pytest.raises(TransportError, match="trace id"):
        embed_trace_id(bytes(16), "abcd")  # 2 bytes, not 8
    assert extract_trace_id(b"\x00" * REQUEST_ID_BYTES) is None  # null id
    assert extract_trace_id(b"short") is None
    zero_prefix = b"\x00" * TRACE_ID_BYTES + b"\x01" * 8
    assert extract_trace_id(zero_prefix) is None


def test_tampered_and_truncated_frames():
    request_id = embed_trace_id(bytes(range(16)), "a1b2c3d4e5f60718")
    wire = frame(request_id, b"body")
    # Truncated inside the header: strict unframe refuses.
    with pytest.raises(DeserializationError, match="truncated frame"):
        unframe(wire[: 4 + REQUEST_ID_BYTES - 3])
    # Magic tampered: not a frame at all.
    with pytest.raises(DeserializationError, match="not a transport frame"):
        unframe(b"X" + wire[1:])
    # Id-region tampering silently yields a *different* trace id — the
    # duplicate-detection layer above catches it; extraction never raises.
    flipped = bytearray(wire)
    flipped[4] ^= 0xFF
    rid, _ = unframe(bytes(flipped))
    tampered = extract_trace_id(rid)
    assert tampered is not None and tampered != "a1b2c3d4e5f60718"


# -- the scrape path -----------------------------------------------------------

def test_stats_frame_returns_lintable_exposition():
    env = make_env()
    transport = LoopbackTransport(env.server.handle_frame)
    client = make_client(env, transport)
    client.query_range("docs", (0,), (31,))

    request_id = bytes(range(16))
    response = transport.round_trip(frame(request_id, STATS_REQUEST))
    rid, payload = unframe(response)
    assert rid == request_id
    text = decode_stats_response(payload)
    parsed = parse_exposition(text)  # raises on malformed exposition
    assert parsed["repro_server_scrapes_total"] == 1
    assert parsed['repro_server_frames_total{outcome="served"}'] == 1
    assert any(k.startswith("repro_group_ops_total{") for k in parsed)
    assert text == env.server.scrape()  # in-process convenience matches

    with pytest.raises(DeserializationError, match="not a stats response"):
        decode_stats_response(b"JUNK" + payload)


def test_client_stats_exposes_breaker_and_registry_slice():
    env = make_env()
    client = make_client(env, LoopbackTransport(env.server.handle_frame))
    client.query_range("docs", (0,), (31,))
    stats = client.stats()
    assert stats["counters"]["requests"] == 1
    assert stats["counters"]["retries"] == 0
    assert stats["breaker"]["state"] == "closed"
    assert stats["breaker"]["consecutive_failures"] == 0
    assert stats["breaker"]["failure_threshold"] == 1000
    assert stats["registry"], "registry slice must not be empty after a query"
    assert all(k.startswith("repro_client_") for k in stats["registry"])
    assert stats["registry"]["repro_client_outcomes_total|verified"] == 1


# -- parallel instrumentation parity -------------------------------------------

def _square(x):
    return x * x


def test_parallel_map_stats_match_serial_for_deterministic_work():
    reg = registry()
    items = list(range(20))
    results = {}
    deltas = {}
    try:
        for workers in (1, 4):
            window = reg.window()
            results[workers] = parallel_map(_square, items, workers=workers)
            deltas[workers] = window.delta()
    finally:
        shutdown_process_pools()
    assert results[1] == results[4] == [x * x for x in items]
    for workers in (1, 4):
        d = deltas[workers]
        assert d["repro_parallel_batches_total"] == 1
        assert d["repro_parallel_jobs_total"] == 20
        assert d["repro_parallel_workers_saturated_total"] == 20 - workers
        # Every job produced exactly one exec sample.
        assert d["repro_parallel_exec_seconds|count"] == 20


def test_engine_counters_identical_serial_vs_parallel():
    """The same query must feed identical counter deltas at any worker count."""
    counter_prefixes = (
        "repro_engine_tasks_total",
        "repro_engine_relax_calls_total",
        "repro_engine_aps_cache_total",
        "repro_group_ops_total",
    )
    deltas = {}
    raw_deltas = {}
    for workers in (1, 4):
        env = make_env(seed=4242)  # fresh, identical system per mode
        window = registry().window()
        response = env.provider.range_query(
            "docs", (0,), (31,), env.user.roles,
            rng=random.Random(99), workers=workers,
        )
        assert sorted(r.value for r in env.user.verify(response)) == [
            b"forecast", b"minutes",
        ]
        raw_deltas[workers] = window.delta()
        deltas[workers] = {
            k: v for k, v in raw_deltas[workers].items()
            if k.split("|", 1)[0] in counter_prefixes
        }
    assert deltas[1] == deltas[4]
    assert deltas[1]["repro_engine_relax_calls_total"] > 0
    # workers=1 takes the byte-identical serial path (no parallel_map);
    # workers>1 dispatches each relax derivation as one job.
    assert "repro_parallel_jobs_total" not in raw_deltas[1]
    assert (raw_deltas[4]["repro_parallel_jobs_total"]
            == deltas[4]["repro_engine_relax_calls_total"])
