"""Byte-identity goldens for seeded BN254 scalar multiplications.

ABS ``setup``/``keygen``/``sign``, ``relax`` and CP-ABE ``encrypt`` each
turn a seeded rng into group elements through every scalar-multiplication
path: fixed-base combs, single-point ``__mul__`` on G1 and G2, and the
multi-exponentiation.  The digests below were recorded from the 254-bit
width-6 comb with generic (``FieldOps``-dispatched) point arithmetic;
however the kernels, combs or dispatch change, the encoded elements must
not move a bit.  Each signing case runs three ways: on a cold group (no
comb tables yet), on a group whose fixed bases already have combs (as a
warmed ``AppAuthenticator`` does), and with ``fast_paths`` off.
"""

import hashlib
import random

import pytest

from repro.abe.cpabe import CpAbeScheme
from repro.abs.relax import relax
from repro.abs.scheme import AbsScheme
from repro.crypto.group import BN254Group
from repro.policy.boolexpr import parse_policy

ROLES = ("R0", "R1", "R2", "R3", "R4", "R5")

POLICIES = {
    "and": "R0 and R1",
    "or": "R0 or R2",
    "mixed": "(R0 and R1) or (R2 and R3) or R4",
}


def _digest(*parts: bytes) -> str:
    return hashlib.sha256(b"".join(parts)).hexdigest()[:32]


GOLDEN_SETUP = "947b44bcf06b223e5559db06f3cdf6a8"
GOLDEN_KEYGEN = {1: "879b93383b29208d0c1aad8a217cd4b7", 6: "2cef90f142d7c9fb652ae464250e5ef8"}
GOLDEN_SIGN = {
    "and": "1277a76b041946bb86c4ac2bf3d34dc2",
    "or": "2a0ec5589d1cb254db5390feed29c0af",
    "mixed": "79235461f7478dc9ede9c41d71058e31",
}
GOLDEN_RELAX = {
    "purge_only": "b2d7e2d8fb5e6185b924b6e38ffd632c",
    "appended": "4041650fa7e0edc0e3e938f54430c02d",
}
GOLDEN_CPABE = {
    "and": "42dc26b916e314ea81ff9f427fb45a7f",
    "mixed": "3d4e9cebb8ea77ab0f3b2c114471b9bd",
}


def _abs_world(grp, n_roles=len(ROLES)):
    scheme = AbsScheme(grp)
    rng = random.Random(20)
    keys = scheme.setup(rng)
    sk = scheme.keygen(keys, ROLES[:n_roles], rng)
    return scheme, keys, sk, rng


def _warm(grp, keys, sk):
    """Prebuild the combs a warmed authenticator holds for its fixed bases."""
    for base in (keys.mvk.g, keys.mvk.c, sk.k_base, sk.k0, *sk.k.values()):
        grp.pow_fixed(base, 1)


def _group(mode):
    grp = BN254Group()
    grp.fast_paths = mode != "naive"
    return grp


def _key_bytes(sk):
    return b"".join(
        [sk.k_base.to_bytes(), sk.k0.to_bytes()] + [sk.k[name].to_bytes() for name in sorted(sk.k)]
    )


def test_abs_setup_matches_golden():
    _scheme, keys, _sk, _rng = _abs_world(BN254Group())
    assert _digest(keys.mvk.to_bytes()) == GOLDEN_SETUP


@pytest.mark.parametrize("n_roles", sorted(GOLDEN_KEYGEN))
def test_abs_keygen_matches_golden(n_roles):
    # One attribute exponentiates with ``**``; two or more build a comb.
    _scheme, _keys, sk, _rng = _abs_world(BN254Group(), n_roles)
    assert _digest(_key_bytes(sk)) == GOLDEN_KEYGEN[n_roles]


@pytest.mark.parametrize("mode", ["cold", "warm", "naive"])
@pytest.mark.parametrize("name", sorted(GOLDEN_SIGN))
def test_abs_sign_matches_golden(name, mode):
    grp = _group(mode)
    scheme, keys, sk, rng = _abs_world(grp)
    if mode == "warm":
        _warm(grp, keys, sk)
    sig = scheme.sign(keys.mvk, sk, b"golden-message", parse_policy(POLICIES[name]), rng)
    assert scheme.verify(keys.mvk, b"golden-message", parse_policy(POLICIES[name]), sig)
    assert _digest(sig.to_bytes()) == GOLDEN_SIGN[name]


RELAX_KEPT = {"purge_only": ("R0", "R2", "R4"), "appended": ("R1", "R3", "R4", "R5")}


@pytest.mark.parametrize("mode", ["cold", "warm", "naive"])
@pytest.mark.parametrize("case", sorted(GOLDEN_RELAX))
def test_relax_matches_golden(case, mode):
    grp = _group(mode)
    scheme, keys, sk, rng = _abs_world(grp)
    if mode == "warm":
        _warm(grp, keys, sk)
    policy = parse_policy(POLICIES["mixed"])
    sig = scheme.sign(keys.mvk, sk, b"golden-message", policy, rng)
    relaxed, super_policy = relax(
        scheme, keys.mvk, sig, b"golden-message", policy, RELAX_KEPT[case], rng
    )
    assert scheme.verify(keys.mvk, b"golden-message", super_policy, relaxed)
    assert _digest(relaxed.to_bytes()) == GOLDEN_RELAX[case]


CPABE_POLICIES = {"and": "R0 and R1", "mixed": "(R0 and R1) or R2"}


@pytest.mark.parametrize("mode", ["cold", "naive"])
@pytest.mark.parametrize("name", sorted(GOLDEN_CPABE))
def test_cpabe_encrypt_matches_golden(name, mode):
    grp = _group(mode)
    scheme = CpAbeScheme(grp)
    rng = random.Random(21)
    keys = scheme.setup(rng)
    sk = scheme.keygen(keys, ("R0", "R1"), rng)
    message = grp.gt ** grp.random_scalar(rng)
    ct = scheme.encrypt(keys.public, message, parse_policy(CPABE_POLICIES[name]), rng)
    assert scheme.decrypt(sk, ct) == message
    parts = [keys.public.g1_a.to_bytes(), sk.k.to_bytes(), sk.l.to_bytes()]
    parts += [sk.k_attr[a].to_bytes() for a in sorted(sk.k_attr)]
    parts += [ct.c_tilde.to_bytes(), ct.c_prime.to_bytes()]
    parts += [c.to_bytes() for c in ct.c_rows] + [d.to_bytes() for d in ct.d_rows]
    assert _digest(*parts) == GOLDEN_CPABE[name]
