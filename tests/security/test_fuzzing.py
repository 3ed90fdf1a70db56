"""Failure-injection tests: corrupted wire data must never verify.

Random bit flips across serialized VOs and envelopes either fail to
deserialize or fail verification — they can never produce a *different*
accepted result set.  This complements the targeted attacks in
``test_attacks.py`` with broad, unstructured corruption.
"""

import random

import pytest

from repro.abe.cpabe import CpAbeScheme
from repro.abe.hybrid import HybridEnvelope, decrypt_envelope, encrypt_for_roles
from repro.core.app_signature import AppAuthenticator
from repro.core.range_query import clip_query, range_vo
from repro.core.records import Dataset, Record
from repro.core.system import DataOwner
from repro.core.verifier import verify_vo
from repro.core.vo import VerificationObject
from repro.crypto import simulated
from repro.errors import ReproError
from repro.index.boxes import Domain
from repro.policy.boolexpr import parse_policy
from repro.policy.roles import RoleUniverse


@pytest.fixture(scope="module")
def env():
    rng = random.Random(600)
    universe = RoleUniverse(["RoleA", "RoleB"])
    owner = DataOwner(simulated(), universe, rng=rng)
    ds = Dataset(Domain.of((0, 15)))
    ds.add(Record((3,), b"alpha", parse_policy("RoleA")))
    ds.add(Record((8,), b"beta", parse_policy("RoleB")))
    ds.add(Record((12,), b"gamma", parse_policy("RoleA")))
    tree = owner.build_tree(ds)
    auth = AppAuthenticator(simulated(), universe, owner.mvk)
    return rng, owner, tree, auth


def test_bitflips_in_vo_never_change_accepted_results(env):
    rng, owner, tree, auth = env
    roles = frozenset({"RoleA"})
    query = clip_query(tree, (0,), (15,))
    vo = range_vo(tree, auth, query, roles, rng)
    data = bytearray(vo.to_bytes())
    baseline = sorted(
        r.value for r in verify_vo(VerificationObject.from_bytes(auth.group, bytes(data)),
                                   auth, query, roles)
    )
    assert baseline == [b"alpha", b"gamma"]
    flips = random.Random(42)
    accepted_differently = 0
    for _ in range(120):
        corrupted = bytearray(data)
        pos = flips.randrange(len(corrupted))
        corrupted[pos] ^= 1 << flips.randrange(8)
        try:
            restored = VerificationObject.from_bytes(auth.group, bytes(corrupted))
            records = verify_vo(restored, auth, query, roles)
        except (ReproError, UnicodeDecodeError):
            continue  # rejected: fine
        # Accepting is only fine if the result set is exactly the truth.
        if sorted(r.value for r in records) != baseline:
            accepted_differently += 1
    assert accepted_differently == 0


def test_bitflips_in_envelope_never_decrypt(env):
    rng, owner, tree, auth = env
    scheme = CpAbeScheme(simulated())
    keys = scheme.setup(rng)
    sk = scheme.keygen(keys, ["RoleA"], rng)
    envp = encrypt_for_roles(scheme, keys.public, ["RoleA"], b"the vo", rng)
    flips = random.Random(43)
    for _ in range(60):
        body = bytearray(envp.body)
        pos = flips.randrange(len(body))
        body[pos] ^= 1 << flips.randrange(8)
        tampered = HybridEnvelope(header=envp.header, body=bytes(body))
        with pytest.raises(ReproError):
            decrypt_envelope(scheme, sk, tampered)


def test_truncated_vo_rejected(env):
    rng, owner, tree, auth = env
    roles = frozenset({"RoleA"})
    query = clip_query(tree, (0,), (15,))
    vo = range_vo(tree, auth, query, roles, rng)
    data = vo.to_bytes()
    for cut in (1, len(data) // 2, len(data) - 1):
        with pytest.raises(ReproError):
            restored = VerificationObject.from_bytes(auth.group, data[:cut])
            verify_vo(restored, auth, query, roles)


def _wire_env():
    """A tiny SP + user for request/response frame fuzzing."""
    from repro.core.messages import QueryRequest, SPServer
    from repro.core.system import QueryUser

    rng = random.Random(777)
    universe = RoleUniverse(["RoleA", "RoleB"])
    owner = DataOwner(simulated(), universe, rng=rng)
    ds = Dataset(Domain.of((0, 15)))
    ds.add(Record((3,), b"alpha", parse_policy("RoleA")))
    ds.add(Record((8,), b"beta", parse_policy("RoleB")))
    server = SPServer(owner.outsource({"t": ds}), rng=rng)
    user = QueryUser(simulated(), universe, owner.register_user(["RoleA"]))
    request = QueryRequest(kind="range", table="t", lo=(0,), hi=(15,),
                           roles=user.roles, encrypt=False)
    return server, user, request


def test_request_truncated_at_every_offset_rejected():
    from repro.core.messages import QueryRequest
    from repro.errors import DeserializationError

    _, _, request = _wire_env()
    data = request.to_bytes()
    for cut in range(len(data)):
        with pytest.raises(DeserializationError):
            QueryRequest.from_bytes(data[:cut])
    assert QueryRequest.from_bytes(data) == request  # pristine still parses


def test_response_truncated_at_every_offset_rejected():
    from repro.core.messages import decode_response
    from repro.errors import DeserializationError

    server, _, request = _wire_env()
    data = server.handle(request.to_bytes())
    for cut in range(len(data)):
        with pytest.raises(DeserializationError):
            decode_response(simulated(), data[:cut])
    decode_response(simulated(), data)  # pristine still parses


def test_request_single_bitflip_sweep_never_leaks_odd_errors():
    """Flipping any single bit either still parses or raises exactly
    DeserializationError — never a bare IndexError/ValueError/UnicodeError."""
    from repro.core.messages import QueryRequest
    from repro.errors import DeserializationError

    _, _, request = _wire_env()
    data = bytearray(request.to_bytes())
    flips = random.Random(51)
    for pos in range(len(data)):
        corrupted = bytearray(data)
        corrupted[pos] ^= 1 << flips.randrange(8)
        try:
            QueryRequest.from_bytes(bytes(corrupted))
        except DeserializationError:
            pass  # the only acceptable exception type


def test_response_single_bitflip_sweep_never_leaks_odd_errors():
    from repro.core.messages import decode_response
    from repro.errors import DeserializationError

    server, _, request = _wire_env()
    data = bytearray(server.handle(request.to_bytes()))
    flips = random.Random(52)
    for pos in range(len(data)):
        corrupted = bytearray(data)
        corrupted[pos] ^= 1 << flips.randrange(8)
        try:
            decode_response(simulated(), bytes(corrupted))
        except DeserializationError:
            pass  # the only acceptable exception type


def test_bitflipped_response_never_changes_verified_records():
    """End-to-end: decode + verify a bit-flipped plaintext response; any
    accepted outcome must equal the pristine result set."""
    from repro.core.messages import decode_response

    server, user, request = _wire_env()
    data = bytes(server.handle(request.to_bytes()))
    pristine = sorted(r.value for r in user.verify(decode_response(simulated(), data)))
    assert pristine == [b"alpha"]
    flips = random.Random(53)
    for _ in range(150):
        corrupted = bytearray(data)
        pos = flips.randrange(len(corrupted))
        corrupted[pos] ^= 1 << flips.randrange(8)
        try:
            records = user.verify(decode_response(simulated(), bytes(corrupted)))
        except ReproError:
            continue  # typed rejection — normalization holds end to end
        assert sorted(r.value for r in records) == pristine


def test_shuffled_entries_still_verify(env):
    """Entry order is not load-bearing: a permuted VO verifies the same
    (the proof is a set, not a sequence)."""
    rng, owner, tree, auth = env
    roles = frozenset({"RoleA"})
    query = clip_query(tree, (0,), (15,))
    vo = range_vo(tree, auth, query, roles, rng)
    shuffled = list(vo.entries)
    random.Random(9).shuffle(shuffled)
    records = verify_vo(VerificationObject(entries=shuffled), auth, query, roles)
    assert sorted(r.value for r in records) == [b"alpha", b"gamma"]


# ---------------------------------------------------------------------------
# The decode contract, decoder by decoder
# ---------------------------------------------------------------------------

DECODERS = (
    "query_request", "update_frame", "rotate_frame", "ingest_ack",
    "ingest_envelope", "query_response", "error_response",
    "verification_object", "cpabe_header", "freshness_token", "mvk",
    "tree", "ingest_state_meta", "cpabe_key", "credentials",
    "duplicate_bundle", "probe_response", "stats_response",
)


@pytest.fixture(scope="module")
def decoders():
    """``name -> (decode, valid encoding)`` for every decoder that reads
    through :func:`repro.codec.decode_frame`, from one seeded world."""
    from repro.abe.cpabe import CpAbeCiphertext
    from repro.abs.keys import AbsVerificationKey
    from repro.codec import encode_bytes
    from repro.core import persistence
    from repro.core.freshness import FreshnessToken, issue_token
    from repro.core.messages import (
        ErrorResponse, IngestAck, IngestEnvelope, QueryRequest, RotateFrame,
        SPServer, UpdateFrame, decode_response,
    )
    from repro.index.duplicates import decode_bundle, encode_bundle
    from repro.net.server import (
        PROBE_READY, PROBE_RESPONSE, STATS_RESPONSE, decode_probe_response,
        decode_stats_response,
    )

    group = simulated()
    rng = random.Random(3030)
    universe = RoleUniverse(["RoleA", "RoleB"])
    owner = DataOwner(group, universe, rng=rng)
    ds = Dataset(Domain.of((0, 1)))
    ds.add(Record((0,), b"alpha", parse_policy("RoleA and RoleB")))
    ds.add(Record((1,), b"beta", parse_policy("RoleA")))
    provider = owner.outsource({"t": ds})
    tree = provider.trees["t"]
    token = issue_token(owner.signer, "t", 7, rng)
    provider.set_freshness_token("t", token)
    credentials = owner.register_user(["RoleA"])
    request = QueryRequest(kind="range", table="t", lo=(0,), hi=(1,),
                           roles=credentials.roles)
    response = SPServer(provider, rng=rng).handle(request.to_bytes())
    leaf = next(n for n in tree.iter_nodes() if n.record is not None)
    update = UpdateFrame(
        table="t", seq=4, kind="delete", epoch=7,
        replacements=tuple(persistence.replacement_from_node(n) for n in (tree.root, leaf)),
    )
    rotate = RotateFrame(table="t", seq=5, epoch=8, token_bytes=token.to_bytes())
    meta = (
        encode_bytes(b"t") + (5).to_bytes(8, "big")
        + (8).to_bytes(8, "big") + encode_bytes(token.to_bytes())
    )
    tree_blob = persistence.serialize_tree(tree)
    scheme = CpAbeScheme(group)
    keys = scheme.setup(rng)
    header = scheme.encrypt(keys.public, keys.public.e_gg_alpha, parse_policy("RoleA or RoleB"), rng)
    return {
        "query_request": (QueryRequest.from_bytes, request.to_bytes()),
        "update_frame": (lambda d: UpdateFrame.from_bytes(group, d), update.to_bytes()),
        "rotate_frame": (RotateFrame.from_bytes, rotate.to_bytes()),
        "ingest_ack": (IngestAck.from_bytes,
                       IngestAck("t", "gap", 5, 8, "replay").to_bytes()),
        "ingest_envelope": (
            IngestEnvelope.from_bytes,
            IngestEnvelope(rotate.to_bytes(), token.signature.to_bytes()).to_bytes(),
        ),
        "query_response": (lambda d: decode_response(group, d), response),
        "error_response": (ErrorResponse.from_bytes,
                           ErrorResponse.overloaded(0.25, "busy").to_bytes()),
        "verification_object": (
            lambda d: VerificationObject.from_bytes(group, d),
            range_vo(tree, provider.authenticator, clip_query(tree, (0,), (1,)),
                     credentials.roles, rng).to_bytes(),
        ),
        "cpabe_header": (lambda d: CpAbeCiphertext.from_bytes(group, d), header.to_bytes()),
        "freshness_token": (lambda d: FreshnessToken.from_bytes(group, d), token.to_bytes()),
        "mvk": (lambda d: AbsVerificationKey.from_bytes(group, d), owner.mvk.to_bytes()),
        "tree": (lambda d: persistence.deserialize_tree(group, d), tree_blob),
        "ingest_state_meta": (
            lambda d: persistence.restore_ingest_state(group, persistence._build_file(
                persistence._STATE_MAGIC, persistence.INGEST_STATE_VERSION, d, tree_blob,
            )),
            meta,
        ),
        "cpabe_key": (lambda d: persistence.deserialize_cpabe_key(group, d),
                      persistence.serialize_cpabe_key(credentials.cpabe_key)),
        "credentials": (lambda d: persistence.deserialize_credentials(group, d),
                        persistence.serialize_credentials(credentials)),
        "duplicate_bundle": (decode_bundle, encode_bundle(
            [(b"v1", parse_policy("RoleA")), (b"v2", parse_policy("RoleA or RoleB"))]
        )),
        "probe_response": (decode_probe_response, PROBE_RESPONSE + PROBE_READY.encode()),
        "stats_response": (
            decode_stats_response,
            STATS_RESPONSE + b"# TYPE repro_up counter\nrepro_up 1\n",
        ),
    }


@pytest.mark.parametrize("name", DECODERS)
def test_decoder_raises_only_deserialization_error(decoders, name):
    """Every cut and every single-bit flip of a valid encoding either
    decodes or raises DeserializationError — never another exception."""
    from collections import Counter

    from repro.errors import DeserializationError

    decode, data = decoders[name]
    decode(data)  # the pristine encoding decodes
    cases = [data[:cut] for cut in range(len(data))]
    cases += [
        data[:pos] + bytes([data[pos] ^ (1 << bit)]) + data[pos + 1:]
        for pos in range(len(data)) for bit in range(8)
    ]
    odd = Counter()
    for case in cases:
        try:
            decode(case)
        except DeserializationError:
            pass
        except Exception as exc:  # noqa: BLE001 - the contract under test
            odd[type(exc).__name__] += 1
    assert not odd, f"{name}: {dict(odd)} of {len(cases)} cases"
