"""Tests for the hybrid CP-ABE + AES envelope."""

import dataclasses
import hashlib
import itertools
import random

import pytest

from repro.abe.cpabe import CpAbeScheme
from repro.abe.hybrid import (
    HybridEnvelope,
    decrypt_envelope,
    encrypt_for_policy,
    encrypt_for_roles,
)
from repro.crypto import BN254Group, simulated, tower
from repro.crypto.curve import TWIST_B, PointG2
from repro.crypto.group import G2, GroupElement
from repro.errors import AccessDeniedError, CryptoError
from repro.policy.boolexpr import parse_policy


@pytest.fixture(scope="module")
def env():
    rng = random.Random(19)
    scheme = CpAbeScheme(simulated())
    keys = scheme.setup(rng)
    return scheme, keys, rng


def test_roundtrip(env):
    scheme, keys, rng = env
    policy = parse_policy("a and b")
    envp = encrypt_for_policy(scheme, keys.public, policy, b"secret payload", rng)
    sk = scheme.keygen(keys, ["a", "b"], rng)
    assert decrypt_envelope(scheme, sk, envp) == b"secret payload"


def test_denied_without_attributes(env):
    scheme, keys, rng = env
    envp = encrypt_for_policy(scheme, keys.public, parse_policy("a and b"), b"x", rng)
    sk = scheme.keygen(keys, ["a"], rng)
    with pytest.raises(AccessDeniedError):
        decrypt_envelope(scheme, sk, envp)


def test_encrypt_for_roles_conjunction(env):
    """The VO wrapping requires *all* claimed roles (impersonation guard)."""
    scheme, keys, rng = env
    envp = encrypt_for_roles(scheme, keys.public, ["r1", "r2"], b"vo bytes", rng)
    full = scheme.keygen(keys, ["r1", "r2"], rng)
    partial = scheme.keygen(keys, ["r1"], rng)
    assert decrypt_envelope(scheme, full, envp) == b"vo bytes"
    with pytest.raises(AccessDeniedError):
        decrypt_envelope(scheme, partial, envp)


def test_tampered_body_detected(env):
    scheme, keys, rng = env
    envp = encrypt_for_policy(scheme, keys.public, parse_policy("a"), b"payload", rng)
    sk = scheme.keygen(keys, ["a"], rng)
    tampered = HybridEnvelope(
        header=envp.header,
        body=envp.body[:-1] + bytes([envp.body[-1] ^ 1]),
    )
    with pytest.raises(CryptoError):
        decrypt_envelope(scheme, sk, tampered)


def test_swapped_header_detected(env):
    scheme, keys, rng = env
    env1 = encrypt_for_policy(scheme, keys.public, parse_policy("a"), b"one", rng)
    env2 = encrypt_for_policy(scheme, keys.public, parse_policy("a"), b"two", rng)
    sk = scheme.keygen(keys, ["a"], rng)
    mixed = HybridEnvelope(header=env1.header, body=env2.body)
    with pytest.raises(CryptoError):
        decrypt_envelope(scheme, sk, mixed)


def test_byte_size_accounts_header_and_body(env):
    scheme, keys, rng = env
    envp = encrypt_for_policy(scheme, keys.public, parse_policy("a"), b"p" * 100, rng)
    assert envp.byte_size() == envp.header.byte_size() + len(envp.body)
    assert len(envp.body) == 12 + 100 + 32  # nonce + ciphertext + tag


def test_empty_payload(env):
    scheme, keys, rng = env
    envp = encrypt_for_policy(scheme, keys.public, parse_policy("a"), b"", rng)
    sk = scheme.keygen(keys, ["a"], rng)
    assert decrypt_envelope(scheme, sk, envp) == b""


# SHA-256 over header (C', C_i, D_i) and body bytes of three successive
# encrypt_for_roles envelopes (1, 2, 3 roles) from one seeded rng, recorded
# from the reference CP-ABE and AES code: faster kernels must not move a byte.
GOLDEN_ENVELOPES = {
    "simulated": [
        "b8d5bd7598b9d694ada2d6a95bb78416060f125919ab20b3f9b843f27125c358",
        "cda7d9cb6e9958c6b8aaa25318181c188e0c6a3da210659937023cd62d6a69b3",
        "b88859f01413dfe97888762b90c3aec99d04df1805d003fb7e4633486406b18d",
    ],
    "bn254": [
        "36b94dcb67bdc55fc4d498d02dcfd017433d3a19d0313c258a8043b67eea2526",
        "7bdeb50972d1aa3e8cf45073a601114d130b4b329afca5eeef297248a032c9b2",
        "c5bdbb0a010a3f727ab2c05b794f5e26579cd2b1a52fa5a394eaa8db6c954a65",
    ],
}


def _envelope_digest(envp: HybridEnvelope) -> str:
    h = envp.header
    parts = [h.c_prime.to_bytes()]
    parts += [row.to_bytes() for row in h.c_rows]
    parts += [row.to_bytes() for row in h.d_rows]
    return hashlib.sha256(b"".join(parts) + envp.body).hexdigest()


def test_envelopes_match_golden_bytes(any_group):
    rng = random.Random(2024)
    scheme = CpAbeScheme(any_group)
    keys = scheme.setup(rng)
    payload = bytes(range(256)) * 3
    for k, expected in enumerate(GOLDEN_ENVELOPES[any_group.name], start=1):
        roles = [f"R{i}" for i in range(k)]
        envp = encrypt_for_roles(scheme, keys.public, roles, payload, rng)
        assert _envelope_digest(envp) == expected
        sk = scheme.keygen(keys, roles, random.Random(k))
        assert decrypt_envelope(scheme, sk, envp) == payload


def _twist_point_outside_g2() -> PointG2:
    """A point of the twist E'(Fp2) that is not in the order-r subgroup."""
    for k in itertools.count(1):
        x = (k, 1)
        y = tower.fp2_sqrt(tower.fp2_add(tower.fp2_mul(tower.fp2_sq(x), x), TWIST_B))
        if y is not None:
            point = PointG2((x, y))
            if not point.in_subgroup():
                return point


def test_bn254_header_row_outside_g2_never_opens():
    grp = BN254Group()
    rng = random.Random(31)
    scheme = CpAbeScheme(grp)
    keys = scheme.setup(rng)
    roles = ["R0", "R1"]
    envp = encrypt_for_roles(scheme, keys.public, roles, b"sealed answer", rng)
    sk = scheme.keygen(keys, roles, rng)
    assert decrypt_envelope(scheme, sk, envp) == b"sealed answer"
    rogue = GroupElement(grp, G2, _twist_point_outside_g2())
    for i in range(len(envp.header.d_rows)):
        rows = list(envp.header.d_rows)
        rows[i] = rogue
        header = dataclasses.replace(envp.header, d_rows=tuple(rows))
        with pytest.raises(CryptoError):
            decrypt_envelope(scheme, sk, HybridEnvelope(header=header, body=envp.body))
