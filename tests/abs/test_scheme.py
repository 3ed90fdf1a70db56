"""Tests for ABS Setup/KeyGen/Sign/Verify on both backends."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.abs.keys import attribute_scalar
from repro.abs.scheme import AbsScheme, AbsSignature
from repro.crypto import simulated
from repro.errors import DeserializationError, PolicyError
from repro.policy.boolexpr import And, Attr, Or, parse_policy

ROLES = [f"R{i}" for i in range(5)]


@pytest.fixture(scope="module")
def sim_setup():
    rng = random.Random(3)
    scheme = AbsScheme(simulated())
    keys = scheme.setup(rng)
    sk = scheme.keygen(keys, ROLES, rng)
    return scheme, keys, sk, rng


def test_sign_verify_roundtrip(any_group, rng):
    scheme = AbsScheme(any_group)
    keys = scheme.setup(rng)
    sk = scheme.keygen(keys, ["A", "B"], rng)
    policy = parse_policy("A and B")
    sig = scheme.sign(keys.mvk, sk, b"msg", policy, rng)
    assert scheme.verify(keys.mvk, b"msg", policy, sig)


def test_verify_rejects_wrong_message(any_group, rng):
    scheme = AbsScheme(any_group)
    keys = scheme.setup(rng)
    sk = scheme.keygen(keys, ["A"], rng)
    policy = Attr("A")
    sig = scheme.sign(keys.mvk, sk, b"msg", policy, rng)
    assert not scheme.verify(keys.mvk, b"other", policy, sig)


def test_verify_rejects_wrong_policy(sim_setup):
    scheme, keys, sk, rng = sim_setup
    sig = scheme.sign(keys.mvk, sk, b"m", parse_policy("R0 and R1"), rng)
    assert not scheme.verify(keys.mvk, b"m", parse_policy("R0 or R1"), sig)
    assert not scheme.verify(keys.mvk, b"m", parse_policy("R0 and R2"), sig)


def test_verify_rejects_wrong_mvk(sim_setup, rng):
    scheme, keys, sk, _ = sim_setup
    sig = scheme.sign(keys.mvk, sk, b"m", Attr("R0"), rng)
    other_keys = scheme.setup(rng)
    assert not scheme.verify(other_keys.mvk, b"m", Attr("R0"), sig)


def test_sign_requires_satisfying_attributes(sim_setup, rng):
    scheme, keys, _, _ = sim_setup
    sk_small = scheme.keygen(keys, ["R0"], rng)
    with pytest.raises(PolicyError):
        scheme.sign(keys.mvk, sk_small, b"m", parse_policy("R0 and R1"), rng)


def test_signature_shape_matches_msp(sim_setup, rng):
    scheme, keys, sk, _ = sim_setup
    policy = parse_policy("(R0 and R1) or R2")
    sig = scheme.sign(keys.mvk, sk, b"m", policy, rng)
    from repro.policy.compiler import Msp

    msp = Msp(policy, scheme.group.order)
    assert len(sig.s) == msp.n_rows
    assert len(sig.p) == msp.n_cols


def test_verify_rejects_shape_mismatch(sim_setup, rng):
    scheme, keys, sk, _ = sim_setup
    sig = scheme.sign(keys.mvk, sk, b"m", Attr("R0"), rng)
    truncated = AbsSignature(tau=sig.tau, y=sig.y, w=sig.w, s=(), p=sig.p)
    assert not scheme.verify(keys.mvk, b"m", Attr("R0"), truncated)


def test_verify_rejects_identity_y(sim_setup, rng):
    scheme, keys, sk, _ = sim_setup
    sig = scheme.sign(keys.mvk, sk, b"m", Attr("R0"), rng)
    forged = AbsSignature(
        tau=sig.tau,
        y=scheme.group.identity("G1"),
        w=scheme.group.identity("G1"),
        s=sig.s,
        p=sig.p,
    )
    assert not scheme.verify(keys.mvk, b"m", Attr("R0"), forged)


def test_tampered_component_fails(sim_setup, rng):
    scheme, keys, sk, _ = sim_setup
    policy = parse_policy("R0 or (R1 and R2)")
    sig = scheme.sign(keys.mvk, sk, b"m", policy, rng)
    bad_s = AbsSignature(
        tau=sig.tau, y=sig.y, w=sig.w,
        s=tuple(si * scheme.group.g1 for si in sig.s), p=sig.p,
    )
    assert not scheme.verify(keys.mvk, b"m", policy, bad_s)
    bad_w = AbsSignature(tau=sig.tau, y=sig.y, w=sig.w * scheme.group.g1, s=sig.s, p=sig.p)
    assert not scheme.verify(keys.mvk, b"m", policy, bad_w)


def test_signing_key_holds_only_requested_attrs(sim_setup, rng):
    scheme, keys, _, _ = sim_setup
    sk = scheme.keygen(keys, ["R0", "R1"], rng)
    assert set(sk.k) == {"R0", "R1"}
    assert sk.attrs == frozenset({"R0", "R1"})


def test_keygen_key_components_consistent(sim_setup, rng):
    # e(K_u, A * B^u) must equal e(K_base, h) — the identity Sign relies on.
    scheme, keys, sk, _ = sim_setup
    grp = scheme.group
    for name in ("R0", "R3"):
        base = keys.mvk.attribute_base(name)
        assert grp.pair(sk.k[name], base) == grp.pair(sk.k_base, keys.mvk.h)
    assert grp.pair(sk.k0, keys.mvk.a0_pub) == grp.pair(sk.k_base, keys.mvk.h0)


def test_attribute_scalar_deterministic(sim_setup):
    scheme, *_ = sim_setup
    assert attribute_scalar(scheme.group, "x") == attribute_scalar(scheme.group, "x")
    assert attribute_scalar(scheme.group, "x") != attribute_scalar(scheme.group, "y")


def test_signature_serialization_roundtrip(sim_setup, rng):
    scheme, keys, sk, _ = sim_setup
    policy = parse_policy("(R0 and R1) or R2")
    sig = scheme.sign(keys.mvk, sk, b"m", policy, rng)
    data = sig.to_bytes()
    assert len(data) == sig.byte_size() + 6  # 3 length prefixes of 2 bytes
    restored = AbsSignature.from_bytes(scheme.group, data)
    assert restored == sig
    assert scheme.verify(keys.mvk, b"m", policy, restored)


def test_signature_deserialization_rejects_garbage(sim_setup):
    scheme, *_ = sim_setup
    with pytest.raises(DeserializationError):
        AbsSignature.from_bytes(scheme.group, b"\x00\x01")


def test_different_signatures_each_time(sim_setup):
    scheme, keys, sk, _ = sim_setup
    rng = random.Random(9)
    policy = Attr("R0")
    sig1 = scheme.sign(keys.mvk, sk, b"m", policy, rng)
    sig2 = scheme.sign(keys.mvk, sk, b"m", policy, rng)
    assert sig1 != sig2  # probabilistic signatures
    assert scheme.verify(keys.mvk, b"m", policy, sig1)
    assert scheme.verify(keys.mvk, b"m", policy, sig2)


policy_st = st.recursive(
    st.sampled_from(ROLES).map(Attr),
    lambda ch: st.one_of(
        st.lists(ch, min_size=1, max_size=3).map(lambda cs: And.of(*cs)),
        st.lists(ch, min_size=1, max_size=3).map(lambda cs: Or.of(*cs)),
    ),
    max_leaves=8,
)


@given(policy_st, st.binary(min_size=0, max_size=40))
@settings(max_examples=40, deadline=None)
def test_sign_verify_random_policies(policy, message):
    rng = random.Random(11)
    scheme = AbsScheme(simulated())
    keys = scheme.setup(rng)
    sk = scheme.keygen(keys, ROLES, rng)
    sig = scheme.sign(keys.mvk, sk, message, policy, rng)
    assert scheme.verify(keys.mvk, message, policy, sig)
    assert not scheme.verify(keys.mvk, message + b"x", policy, sig)
