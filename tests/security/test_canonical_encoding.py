"""The byte-keyed warm-read memos rest on canonical wire encodings.

A client's verified-entry memo keys a signature by its exact wire bytes,
and its KEM memo keys a CP-ABE header the same way; the points behind
either are decoded only on a miss.  A hit is sound because decoding is a
function of the bytes.  These properties check the rest, on both
backends: every encoding the library emits decodes and re-encodes to
itself, and an encoding with a flipped bit is either rejected or read as
a *different* memo key, never as the original's.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.abe.cpabe import CpAbeCiphertext, CpAbeScheme
from repro.abe.hybrid import HybridEnvelope
from repro.abs.scheme import AbsSignature
from repro.core.app_signature import verify_memo_key
from repro.core.system import DataOwner
from repro.crypto import bn254, simulated
from repro.crypto.group import G1, G2
from repro.errors import DeserializationError
from repro.policy.boolexpr import parse_policy
from repro.policy.roles import RoleUniverse

POLICIES = ("R0", "R1 or R2", "(R0 and R1) or R2")
MESSAGE = b"canonical"


@pytest.fixture(scope="module", params=["simulated", "bn254"])
def encodings(request):
    group = simulated() if request.param == "simulated" else bn254()
    rng = random.Random(2718)
    owner = DataOwner(group, RoleUniverse(["R0", "R1", "R2"]), rng=rng)
    scheme = owner.signer.scheme
    g1w, g2w = group.element_bytes(G1), group.element_bytes(G2)
    signatures = []
    for text in POLICIES:
        sig = scheme.sign(owner.mvk, owner.signer.signing_key, MESSAGE, parse_policy(text), rng)
        base = 2 + len(sig.tau) + 4
        g2_base = base + g1w * (2 + len(sig.s))
        starts = [base + g1w * i for i in range(2 + len(sig.s))]
        starts += [g2_base + g2w * j for j in range(len(sig.p))]
        signatures.append((sig.to_bytes(), starts))
    cpabe = CpAbeScheme(group)
    public = cpabe.setup(rng).public
    headers = []
    for text in POLICIES:
        header = cpabe.encapsulate(public, parse_policy(text), rng)[1]
        base = 4 + len(text) + 1
        rows = len(header.c_rows)
        starts = [base] + [base + g1w + 2 + g1w * i for i in range(rows)]
        starts += [base + g1w * (1 + rows) + 2 + g2w * i for i in range(rows)]
        headers.append((header.to_bytes(), starts))
    return group, signatures, headers


def _from_points(sig: AbsSignature) -> AbsSignature:
    """The same signature rebuilt from its decoded points."""
    return AbsSignature(sig.tau, sig.y, sig.w, sig.s, sig.p)


def _flip(encoding: tuple, position: int, bit: int, at_element: bool) -> bytes:
    """``encoding``'s bytes with one bit flipped: anywhere, or in the
    first byte of an element (where the point flags live)."""
    data, starts = encoding
    at = starts[position % len(starts)] if at_element else position % len(data)
    out = bytearray(data)
    out[at] ^= 1 << bit
    return bytes(out)


def _after_policy(header: bytes) -> bytes:
    return header[4 + int.from_bytes(header[:4], "big"):]


_PROPERTY = settings(
    max_examples=80, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def test_emitted_encodings_round_trip(encodings):
    group, signatures, headers = encodings
    for data, _starts in signatures:
        assert _from_points(AbsSignature.from_bytes(group, data)).to_bytes() == data
    for data, _starts in headers:
        assert CpAbeCiphertext.from_bytes(group, data).to_bytes() == data


_FLIPS = dict(
    index=st.integers(0, len(POLICIES) - 1), position=st.integers(0, 10**6),
    bit=st.integers(0, 7), at_element=st.booleans(),
)


@_PROPERTY
@given(**_FLIPS)
def test_a_flipped_signature_is_rejected_or_another_key(
    encodings, index, position, bit, at_element
):
    group, signatures, _headers = encodings
    policy = parse_policy(POLICIES[index])
    original = signatures[index][0]
    flipped = _flip(signatures[index], position, bit, at_element)
    try:
        sig = AbsSignature.from_bytes(group, flipped)
        rebuilt = _from_points(sig)
    except DeserializationError:
        return
    # Accepted: the points re-encode to exactly these bytes, so no other
    # encoding names the same signature, and the memo key moves with them.
    assert rebuilt.to_bytes() == flipped
    assert verify_memo_key(MESSAGE, policy, sig) != verify_memo_key(
        MESSAGE, policy, AbsSignature.from_bytes(group, original)
    )


@_PROPERTY
@given(**_FLIPS)
def test_a_flipped_header_is_rejected_or_another_key(
    encodings, index, position, bit, at_element
):
    group, _signatures, headers = encodings
    original = headers[index][0]
    flipped = _flip(headers[index], position, bit, at_element)
    envelope = HybridEnvelope.from_header_bytes(group, flipped, b"")
    try:
        header = envelope.header
    except DeserializationError:
        return
    # Accepted: every point re-encodes exactly; only the policy text may
    # be spelled differently (parsing ignores case and spacing), and the
    # memo key is the exact bytes, so it differs from the original's.
    again = header.to_bytes()
    assert _after_policy(again) == _after_policy(flipped)
    assert envelope.header_bytes == flipped != original
