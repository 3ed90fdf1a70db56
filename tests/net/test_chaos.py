"""Chaos DSL, scriptable endpoints, and the controller's event clock."""

import random

import pytest

from repro.core.messages import SPServer
from repro.core.system import ServiceProvider
from repro.errors import CryptoError, ReproError, TransportError, VerificationError
from repro.net import (
    ChaosController,
    ChaosEndpoint,
    ChaosEvent,
    FakeClock,
    ReplicatedClient,
    ResilientClient,
    RetryPolicy,
    parse_schedule,
)

from .conftest import run_query


@pytest.fixture(scope="module")
def snap_factory(env):
    """A server factory cold-starting from the shared SP's snapshots."""
    snapshots = env.server.provider.snapshot_tables()

    def factory():
        restored = ServiceProvider.from_snapshots(
            env.group, env.owner.universe, env.owner.mvk,
            env.owner.cpabe_public, snapshots,
        )
        return SPServer(restored, rng=random.Random(99))

    return factory


def make_endpoint(env, snap_factory, clock, name="sp0", **kw):
    return ChaosEndpoint(
        name, snap_factory, env.group, rng=random.Random(11), clock=clock, **kw
    )


def single_client(env, endpoint, clock, max_attempts=1):
    return ResilientClient(
        env.user, endpoint,
        policy=RetryPolicy(max_attempts=max_attempts, base_delay=0.01, jitter=0.0),
        failure_threshold=10**6,
        clock=clock, rng=random.Random(4),
    )


# -- schedule DSL -------------------------------------------------------------

def test_parse_schedule_full_dsl():
    schedule = parse_schedule("""
        # comment-only line, then blank line

        @10  crash    sp0
        @0   tamper   sp2   rate=0.5   # trailing comment
        @45  overload *     load=64
    """)
    assert len(schedule) == 3
    # Sorted by time; params parsed as floats; '*' is a valid target.
    assert [e.at for e in schedule] == [0.0, 10.0, 45.0]
    assert schedule.events[0].params == {"rate": 0.5}
    assert schedule.events[2].target == "*"
    assert schedule.targets() == {"sp0", "sp2"}


def test_parse_schedule_simultaneous_events_keep_declaration_order():
    schedule = parse_schedule("@5 drain sp0\n@5 resume sp0\n")
    assert [e.action for e in schedule] == ["drain", "resume"]


@pytest.mark.parametrize("line,fragment", [
    ("crash sp0", "expected '@<t>"),
    ("@x crash sp0", "bad time"),
    ("@5 explode sp0", "unknown chaos action"),
    ("@5 tamper sp0 rate", "bad param"),
    ("@5 tamper sp0 rate=lots", "non-numeric param"),
])
def test_parse_schedule_rejects_bad_lines(line, fragment):
    with pytest.raises(ReproError, match=fragment):
        parse_schedule(line)


def test_chaos_event_validation():
    with pytest.raises(ReproError):
        ChaosEvent(-1.0, "crash", "sp0")
    with pytest.raises(ReproError):
        ChaosEvent(0.0, "nuke", "sp0")
    with pytest.raises(ReproError):
        ChaosEvent(0.0, "crash", "")


# -- scriptable endpoints -----------------------------------------------------

def test_endpoint_serves_verified_results_from_snapshots(env, snap_factory):
    clock = FakeClock()
    endpoint = make_endpoint(env, snap_factory, clock)
    client = single_client(env, endpoint, clock)
    assert run_query(client, "range") == env.truth["range"]
    assert run_query(client, "join") == env.truth["join"]


def test_crash_then_restart_cold_starts_a_fresh_server(env, snap_factory):
    clock = FakeClock()
    endpoint = make_endpoint(env, snap_factory, clock)
    client = single_client(env, endpoint, clock)
    run_query(client, "range")
    first_server = endpoint.server
    endpoint.crash()
    with pytest.raises(TransportError):
        run_query(client, "range")
    endpoint.restart()
    assert endpoint.restarts == 1
    assert endpoint.server is not first_server  # genuinely rebuilt
    # The restarted replica — restored from snapshot blobs — still proves.
    assert run_query(client, "range") == env.truth["range"]


def test_tamper_toggle_forges_then_heals(env, snap_factory):
    clock = FakeClock()
    endpoint = make_endpoint(env, snap_factory, clock)
    client = single_client(env, endpoint, clock)
    endpoint.set_tamper(1.0)
    with pytest.raises((VerificationError, CryptoError)):
        run_query(client, "range")
    assert endpoint.tampered_responses == 1
    assert endpoint.tamper_rate == 1.0
    endpoint.set_tamper(0.0)
    assert run_query(client, "range") == env.truth["range"]


def test_tamper_survives_a_restart(env, snap_factory):
    """The fault layer wraps whatever server a restart swaps in."""
    clock = FakeClock()
    endpoint = make_endpoint(env, snap_factory, clock)
    client = single_client(env, endpoint, clock)
    endpoint.set_tamper(1.0)
    endpoint.crash()
    endpoint.restart()
    with pytest.raises((VerificationError, CryptoError)):
        run_query(client, "range")
    assert endpoint.tampered_responses == 1


# -- the controller -----------------------------------------------------------

def test_controller_applies_events_at_their_virtual_times(env, snap_factory):
    clock = FakeClock()
    endpoint = make_endpoint(env, snap_factory, clock)
    controller = ChaosController(
        parse_schedule("@5 crash sp0\n@10 restart sp0\n"),
        {"sp0": endpoint}, clock=clock,
    )
    assert controller.tick() == []          # t=0: nothing due
    assert controller.pending == 2
    clock.advance(5.0)
    fired = controller.tick()
    assert [e.action for e in fired] == ["crash"]
    assert endpoint.crashed
    clock.advance(5.0)
    assert [e.action for e in controller.tick()] == ["restart"]
    assert not endpoint.crashed
    assert endpoint.restarts == 1
    assert controller.pending == 0
    assert len(controller.applied) == 2


def test_controller_star_targets_every_endpoint(env, snap_factory):
    clock = FakeClock()
    endpoints = {
        name: make_endpoint(env, snap_factory, clock, name=name,
                            max_in_flight=4)
        for name in ("sp0", "sp1")
    }
    controller = ChaosController(
        parse_schedule("@0 overload * load=9\n"), endpoints, clock=clock,
    )
    controller.tick()
    assert all(ep.server.background_load == 9 for ep in endpoints.values())


def test_controller_rejects_unknown_targets(env, snap_factory):
    clock = FakeClock()
    endpoint = make_endpoint(env, snap_factory, clock)
    with pytest.raises(ReproError, match="unknown endpoints"):
        ChaosController(
            parse_schedule("@0 crash sp9\n"), {"sp0": endpoint}, clock=clock,
        )


def test_events_apply_mid_exchange_not_just_at_query_boundaries(
        env, snap_factory):
    """round_trip self-ticks: a client retrying through an event's time
    sees it applied without the drill runner's help."""
    clock = FakeClock()
    endpoint = make_endpoint(env, snap_factory, clock)
    ChaosController(
        parse_schedule("@0 crash sp0\n"), {"sp0": endpoint}, clock=clock,
    )
    client = single_client(env, endpoint, clock)
    # No explicit controller.tick(): the exchange itself applies the crash.
    with pytest.raises(TransportError):
        run_query(client, "range")
    assert endpoint.crashed


# -- determinism --------------------------------------------------------------

def _mini_drill(env, snap_factory, seed):
    clock = FakeClock()
    endpoints = {
        name: ChaosEndpoint(
            name, snap_factory, env.group,
            rng=random.Random(seed + i), clock=clock,
        )
        for i, name in enumerate(("sp0", "sp1"))
    }
    client = ReplicatedClient(
        env.user, dict(endpoints),
        policy=RetryPolicy(max_attempts=4, base_delay=0.01, jitter=0.0),
        clock=clock, rng=random.Random(seed + 50),
        quarantine_window=1000.0, failure_threshold=2, reset_timeout=3.0,
        hedge_percentile=None,
    )
    controller = ChaosController(
        parse_schedule("@0 tamper sp1 rate=1.0\n@3 crash sp0\n@5 restart sp0\n"),
        endpoints, clock=clock,
    )
    verified = 0
    for _ in range(10):
        controller.tick()
        if run_query(client, "range") == env.truth["range"]:
            verified += 1
        clock.advance(1.0)
    return {
        "verified": verified,
        "evictions": {n: dict(s.evictions) for n, s in client.endpoints.items()},
        "tampered": {n: ep.tampered_responses for n, ep in endpoints.items()},
        "restarts": endpoints["sp0"].restarts,
        "counters": client.counters.as_dict(),
    }


def test_same_seed_replays_the_same_drill(env, snap_factory):
    first = _mini_drill(env, snap_factory, seed=1234)
    second = _mini_drill(env, snap_factory, seed=1234)
    assert first == second
    # And the drill did something: the Byzantine replica was caught.
    assert first["evictions"]["sp1"]["tamper"] >= 1
    assert first["restarts"] == 1
    assert first["verified"] == 10
