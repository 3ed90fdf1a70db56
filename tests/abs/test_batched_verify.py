"""One-signature batches under general span-program predicates.

:func:`repro.abs.batch.batch_verify` merges every equation of every item
into one pairing product; AND gates give span programs with -1 entries,
whose rows enter the product through ``S_i^-1``.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.abs.batch import BatchItem, batch_verify
from repro.abs.relax import relax
from repro.abs.scheme import AbsScheme, AbsSignature
from repro.crypto import simulated
from repro.policy.boolexpr import And, Attr, Or, parse_policy

ROLES = [f"R{i}" for i in range(5)]


def _batched(scheme, keys, message, policy, sig):
    return batch_verify(scheme, keys.mvk, [BatchItem(message, policy, sig)])


@pytest.fixture(scope="module")
def env():
    rng = random.Random(71)
    scheme = AbsScheme(simulated())
    keys = scheme.setup(rng)
    sk = scheme.keygen(keys, ROLES, rng)
    return scheme, keys, sk, rng


policy_st = st.recursive(
    st.sampled_from(ROLES).map(Attr),
    lambda ch: st.one_of(
        st.lists(ch, min_size=1, max_size=3).map(lambda cs: And.of(*cs)),
        st.lists(ch, min_size=1, max_size=3).map(lambda cs: Or.of(*cs)),
    ),
    max_leaves=8,
)


@given(policy_st, st.binary(max_size=20))
@settings(max_examples=40, deadline=None)
def test_batched_agrees_with_naive_on_valid(policy, message):
    rng = random.Random(72)
    scheme = AbsScheme(simulated())
    keys = scheme.setup(rng)
    sk = scheme.keygen(keys, ROLES, rng)
    sig = scheme.sign(keys.mvk, sk, message, policy, rng)
    assert scheme.verify(keys.mvk, message, policy, sig)
    assert _batched(scheme, keys, message, policy, sig)


def test_batched_rejects_wrong_message(env):
    scheme, keys, sk, rng = env
    policy = parse_policy("R0 and R1")
    sig = scheme.sign(keys.mvk, sk, b"m", policy, rng)
    assert not _batched(scheme, keys, b"x", policy, sig)


def test_batched_rejects_wrong_policy(env):
    scheme, keys, sk, rng = env
    sig = scheme.sign(keys.mvk, sk, b"m", parse_policy("R0 and R1"), rng)
    assert not _batched(scheme, keys, b"m", parse_policy("R0 or R1"), sig)


def test_batched_rejects_identity_y(env):
    scheme, keys, sk, rng = env
    sig = scheme.sign(keys.mvk, sk, b"m", Attr("R0"), rng)
    forged = AbsSignature(
        tau=sig.tau,
        y=scheme.group.identity("G1"),
        w=scheme.group.identity("G1"),
        s=sig.s,
        p=sig.p,
    )
    assert not _batched(scheme, keys, b"m", Attr("R0"), forged)


def test_batched_rejects_tampered_component(env):
    scheme, keys, sk, rng = env
    policy = parse_policy("(R0 and R1) or R2")
    sig = scheme.sign(keys.mvk, sk, b"m", policy, rng)
    bad = AbsSignature(
        tau=sig.tau, y=sig.y, w=sig.w,
        s=tuple(si * scheme.group.g1 for si in sig.s), p=sig.p,
    )
    assert not _batched(scheme, keys, b"m", policy, bad)


def test_batched_accepts_relaxed_signature(env):
    scheme, keys, sk, rng = env
    policy = parse_policy("R0 and R1")
    sig = scheme.sign(keys.mvk, sk, b"m", policy, rng)
    relaxed, super_policy = relax(
        scheme, keys.mvk, sig, b"m", policy, ["R0", "R3"], rng
    )
    assert _batched(scheme, keys, b"m", super_policy, relaxed)


def test_batched_real_pairing(real_group, rng):
    scheme = AbsScheme(real_group)
    keys = scheme.setup(rng)
    sk = scheme.keygen(keys, ["A", "B"], rng)
    policy = parse_policy("A or B")
    sig = scheme.sign(keys.mvk, sk, b"m", policy, rng)
    assert _batched(scheme, keys, b"m", policy, sig)
    assert not _batched(scheme, keys, b"x", policy, sig)
