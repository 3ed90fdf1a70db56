"""Tests for small-exponents batch verification of APS signatures (OR predicates)."""

import random

import pytest

from repro.abs.batch import (
    BatchItem,
    batch_verify,
    batch_verify_unmerged,
    find_invalid,
    verify_or_find_invalid,
)
from repro.abs.relax import relax
from repro.abs.scheme import AbsScheme, AbsSignature
from repro.crypto import bn254, simulated
from repro.policy.boolexpr import or_of_attrs, parse_policy

ROLES = ["R0", "R1", "R2", "R3"]


def _item(message, attrs, signature):
    """An APS-shaped batch item: ``signature`` under ``OR(attrs)``."""
    return BatchItem(message=message, policy=or_of_attrs(attrs), signature=signature)


@pytest.fixture(scope="module")
def env():
    rng = random.Random(1414)
    scheme = AbsScheme(simulated())
    keys = scheme.setup(rng)
    sk = scheme.keygen(keys, ROLES, rng)
    missing = ("R2", "R3")  # super policy for a user holding R0, R1
    items = []
    for i in range(6):
        message = b"record-%d" % i
        policy = parse_policy("R2 and R3")
        sig = scheme.sign(keys.mvk, sk, message, policy, rng)
        aps, _ = relax(scheme, keys.mvk, sig, message, policy, list(missing), rng)
        items.append(_item(message, missing, aps))
    return rng, scheme, keys, items, missing


def test_valid_batch_accepts(env):
    rng, scheme, keys, items, missing = env
    assert batch_verify(scheme, keys.mvk, items)


def test_empty_batch_accepts(env):
    rng, scheme, keys, items, missing = env
    assert batch_verify(scheme, keys.mvk, [])


def test_single_tampered_message_rejects(env):
    rng, scheme, keys, items, missing = env
    bad = list(items)
    bad[3] = _item(b"FORGED", missing, items[3].signature)
    assert not batch_verify(scheme, keys.mvk, bad)
    assert find_invalid(scheme, keys.mvk, bad) == [3]


def test_single_tampered_component_rejects(env):
    rng, scheme, keys, items, missing = env
    sig = items[0].signature
    forged = AbsSignature(
        tau=sig.tau, y=sig.y, w=sig.w * scheme.group.g1, s=sig.s, p=sig.p
    )
    bad = [_item(items[0].message, missing, forged)] + list(items[1:])
    assert not batch_verify(scheme, keys.mvk, bad)
    assert find_invalid(scheme, keys.mvk, bad) == [0]


def test_wrong_predicate_rejects(env):
    rng, scheme, keys, items, missing = env
    bad = [_item(items[0].message, ("R1", "R3"), items[0].signature)]
    assert not batch_verify(scheme, keys.mvk, bad)


def test_shape_mismatch_rejects(env):
    rng, scheme, keys, items, missing = env
    bad = [_item(items[0].message, ("R2",), items[0].signature)]
    assert not batch_verify(scheme, keys.mvk, bad)


def test_identity_y_rejects(env):
    rng, scheme, keys, items, missing = env
    sig = items[0].signature
    forged = AbsSignature(
        tau=sig.tau,
        y=scheme.group.identity("G1"),
        w=scheme.group.identity("G1"),
        s=sig.s,
        p=sig.p,
    )
    assert not batch_verify(
        scheme, keys.mvk,
        [_item(items[0].message, missing, forged)],
    )


def test_verify_or_find_invalid_localizes_failures(env):
    rng, scheme, keys, items, missing = env
    assert verify_or_find_invalid(scheme, keys.mvk, items) == []
    assert verify_or_find_invalid(scheme, keys.mvk, []) == []
    bad = list(items)
    bad[1] = _item(b"FORGED-1", missing, items[1].signature)
    bad[4] = _item(b"FORGED-4", missing, items[4].signature)
    assert verify_or_find_invalid(scheme, keys.mvk, bad) == [1, 4]


def test_verify_or_find_invalid_fails_closed(env, monkeypatch):
    """A failed batch never reads as valid, even if re-checks all pass."""
    import repro.abs.batch as batch_mod

    rng, scheme, keys, items, missing = env
    monkeypatch.setattr(batch_mod, "batch_verify", lambda *a, **k: False)
    monkeypatch.setattr(batch_mod, "find_invalid", lambda *a, **k: [])
    assert verify_or_find_invalid(scheme, keys.mvk, items) == [0]


def test_merged_agrees_with_unmerged_oracle(env):
    """The pairing-merged batch and the one-pairing-per-term reference
    accept/reject identically (same randomized equation)."""
    rng, scheme, keys, items, missing = env
    assert batch_verify(scheme, keys.mvk, items)
    assert batch_verify_unmerged(scheme, keys.mvk, items)
    bad = list(items)
    bad[2] = _item(b"FORGED", missing, items[2].signature)
    assert not batch_verify(scheme, keys.mvk, bad)
    assert not batch_verify_unmerged(scheme, keys.mvk, bad)


def test_merged_agrees_with_unmerged_on_real_pairing(rng):
    scheme = AbsScheme(bn254())
    keys = scheme.setup(rng)
    sk = scheme.keygen(keys, ["A", "B"], rng)
    policy = parse_policy("A and B")
    items = []
    for i in range(2):
        message = b"m%d" % i
        sig = scheme.sign(keys.mvk, sk, message, policy, rng)
        aps, _ = relax(scheme, keys.mvk, sig, message, policy, ["A"], rng)
        items.append(_item(message, ("A",), aps))
    assert batch_verify(scheme, keys.mvk, items)
    assert batch_verify_unmerged(scheme, keys.mvk, items)
    bad = [items[0], _item(b"x", ("A",), items[1].signature)]
    assert not batch_verify(scheme, keys.mvk, bad)
    assert not batch_verify_unmerged(scheme, keys.mvk, bad)


def test_batch_on_real_pairing(rng):
    scheme = AbsScheme(bn254())
    keys = scheme.setup(rng)
    sk = scheme.keygen(keys, ["A", "B"], rng)
    policy = parse_policy("A and B")
    items = []
    for i in range(2):
        message = b"m%d" % i
        sig = scheme.sign(keys.mvk, sk, message, policy, rng)
        aps, _ = relax(scheme, keys.mvk, sig, message, policy, ["A"], rng)
        items.append(_item(message, ("A",), aps))
    assert batch_verify(scheme, keys.mvk, items)
    items[1] = _item(b"x", ("A",), items[1].signature)
    assert not batch_verify(scheme, keys.mvk, items)
