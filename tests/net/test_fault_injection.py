"""Adversarial fault sweep: the robustness invariant of the whole stack.

For every fault kind x query kind (equality / range / join), at both a
moderate and a saturating injection rate, the client must either

* return a verified result that equals the known ground truth, or
* raise a typed :class:`~repro.errors.ReproError` subclass.

There is **zero** tolerance for a third outcome: accepting a tampered,
truncated, or replayed response as verified would break the paper's
soundness/completeness guarantees under infrastructure failure.  All
randomness is seeded; the sweep is deterministic.
"""

import random

import pytest

from repro.errors import (
    CryptoError,
    ReproError,
    TransportError,
    VerificationError,
)
from repro.net import (
    FAULT_KINDS,
    FakeClock,
    FaultyTransport,
    LoopbackTransport,
    ResilientClient,
    RetryPolicy,
)

from .conftest import run_query

QUERY_KINDS = ("equality", "range", "join")


def make_faulty_client(env, fault, rate, seed, max_attempts=8):
    clock = FakeClock()
    transport = FaultyTransport(
        LoopbackTransport(env.hardened.handle_frame),
        rng=random.Random(seed),
        rates={fault: rate},
        group=env.group,
        clock=clock,
        delay_seconds=5.0,
    )
    client = ResilientClient(
        env.user,
        transport,
        policy=RetryPolicy(max_attempts=max_attempts, base_delay=0.01, deadline=120.0),
        failure_threshold=10**6,
        clock=clock,
        rng=random.Random(seed + 1),
    )
    return client, transport


@pytest.mark.parametrize("fault", FAULT_KINDS)
@pytest.mark.parametrize("qkind", QUERY_KINDS)
def test_invariant_under_every_fault_and_query_kind(env, fault, qkind):
    outcomes = {"verified": 0, "typed_error": 0}
    for rate, seed in ((0.35, 1300), (1.0, 1400)):
        client, transport = make_faulty_client(env, fault, rate, seed)
        for repeat in range(3):
            try:
                result = run_query(client, qkind)
            except ReproError:
                outcomes["typed_error"] += 1
            except BaseException as exc:  # noqa: B036 - the invariant itself
                pytest.fail(
                    f"fault={fault} query={qkind}: non-typed escape {exc!r}"
                )
            else:
                assert result == env.truth[qkind], (
                    f"fault={fault} query={qkind}: accepted a wrong result"
                )
                outcomes["verified"] += 1
    # Every exchange resolved one way or the other, and the sweep actually
    # exercised both outcome classes across its rates.
    assert outcomes["verified"] + outcomes["typed_error"] == 6
    if fault in ("drop", "truncate", "bitflip", "tamper"):
        assert outcomes["typed_error"] >= 1, f"{fault} never produced an error"
    assert outcomes["verified"] >= 1, f"{fault} never converged at moderate rate"


@pytest.mark.parametrize("qkind", QUERY_KINDS)
def test_saturated_drop_is_a_transport_error(env, qkind):
    client, _ = make_faulty_client(env, "drop", 1.0, 2000)
    with pytest.raises(TransportError):
        run_query(client, qkind)
    assert client.counters.transport_errors == 8


@pytest.mark.parametrize("qkind", QUERY_KINDS)
def test_saturated_tamper_is_caught_by_crypto(env, qkind):
    """A 100%-tampering SP/MITM: every response is well-formed but forged.

    Sealed responses die on the envelope MAC (CryptoError); plaintext VOs
    die in the verifier (VerificationError).  Either way the result never
    reaches the caller.
    """
    client, transport = make_faulty_client(env, "tamper", 1.0, 2100)
    with pytest.raises((VerificationError, CryptoError)):
        run_query(client, qkind)
    assert transport.injected["tamper"] == 8
    assert client.counters.verification_failures == 8


def test_faulty_transport_validates_configuration(env):
    loop = LoopbackTransport(env.hardened.handle_frame)
    with pytest.raises(ReproError):
        FaultyTransport(loop, random.Random(1), rates={"gremlins": 0.5})
    with pytest.raises(ReproError):
        FaultyTransport(loop, random.Random(1), rates={"drop": 1.5})
    with pytest.raises(ReproError):
        FaultyTransport(loop, random.Random(1), rates={"tamper": 0.5})  # no group


def test_fault_injection_is_deterministic(env):
    seq = []
    for _ in range(2):
        client, transport = make_faulty_client(env, "bitflip", 0.5, 3000)
        try:
            run_query(client, "range")
            seq.append(("ok", client.counters.attempts, dict(transport.injected)))
        except ReproError as exc:
            seq.append((type(exc).__name__, client.counters.attempts, dict(transport.injected)))
    assert seq[0] == seq[1]
