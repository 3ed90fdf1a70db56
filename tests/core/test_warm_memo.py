"""What the warm-read memos must and must not do.

A client remembers the VO entries it has accepted (keyed by message,
predicate text and the signature's exact wire bytes) and each decapsulated
envelope key (keyed by the CP-ABE header's exact wire bytes); signature
points and headers are decoded only when a memo misses.  The memos may
only save work: a warm read returns the same records and decodes no
point, anything that differs by one byte is checked afresh and fails
exactly as a cold check does, a rejection is never remembered, and one
user's memo serves nobody else.
"""

import dataclasses
import random
import sys
import threading

import pytest

from repro.abs.scheme import AbsSignature
from repro.core.app_signature import VERIFY_MEMO_SIZE, AppAuthenticator
from repro.core.messages import decode_response, encode_response
from repro.core.records import Dataset, Record
from repro.core.system import DataOwner, QueryResponse, QueryUser
from repro.core.verifier import verify_vo
from repro.core.vo import (
    AccessibleRecordEntry,
    InaccessibleNodeEntry,
    InaccessibleRecordEntry,
    VerificationObject,
)
from repro.crypto import aes, bn254, simulated
from repro.crypto.curve import G1_GENERATOR, PointG1
from repro.crypto.field import FIELD_MODULUS
from repro.crypto.group import G1, G2, BN254Group
from repro.errors import CryptoError, DeserializationError, ReproError, SoundnessError
from repro.index.boxes import Box, Domain
from repro.memo import BoundedMemo
from repro.policy.boolexpr import parse_policy
from repro.policy.roles import RoleUniverse

TABLE = "docs"
ROLES = ["R0", "R1", "R2", "R3"]
RECORDS = [
    ((2,), b"two", "R0"),
    ((5,), b"five", "R1 or R2"),
    ((6,), b"six", "R3"),
    ((11,), b"eleven", "R2 and R3"),
]
ALICE = ["R0", "R1"]
BOB = ["R2"]


def _build_world(group):
    rng = random.Random(1717)
    universe = RoleUniverse(ROLES)
    ds = Dataset(Domain.of((0, 15)))
    for key, value, policy in RECORDS:
        ds.add(Record(key, value, parse_policy(policy)))
    owner = DataOwner(group, universe, rng=rng)
    provider = owner.outsource({TABLE: ds})
    return group, universe, owner, provider, rng


@pytest.fixture(scope="module", params=["simulated", "bn254"])
def world(request):
    return _build_world(simulated() if request.param == "simulated" else bn254())


def _user(world, roles=ALICE):
    group, universe, owner, _provider, _rng = world
    return QueryUser(group, universe, owner.register_user(roles))


def _wire_response(world, user, encrypt):
    """A range answer for ``user`` as the client sees it: decoded off the wire."""
    group, _universe, _owner, provider, rng = world
    response = provider.range_query(TABLE, (0,), (15,), user.roles, encrypt=encrypt, rng=rng)
    return decode_response(group, encode_response(response))


def _values(records):
    return sorted((r.key, r.value) for r in records)


def _counting_verify(authenticator):
    """Record the key of each entry an authenticator checks afresh (memo misses).

    Every entry :func:`~repro.core.verifier.settle` does not find in the
    memo goes into its pairing product.
    """
    calls = []
    original = authenticator.known

    def known(key):
        hit = original(key)
        if not hit:
            calls.append(key)
        return hit

    authenticator.known = known
    return calls


def _outcome(check):
    try:
        check()
    except ReproError as exc:
        return type(exc)
    return None


def _memo(user):
    return user.authenticator._verify_memo


# -- a hit is the cold answer without the work -------------------------------

def test_warm_read_returns_the_same_records_without_pairings(world):
    group = world[0]
    user = _user(world)
    cold = user.verify(_wire_response(world, user, encrypt=True))
    assert cold and len(_memo(user)) > 0
    before = group.stats.snapshot()
    warm = user.verify(_wire_response(world, user, encrypt=True))
    ops = group.stats.delta(before)
    assert _values(warm) == _values(cold)
    assert ops["pairings"] == 0
    assert ops["pair_cache_hits"] == 0


def test_unsealed_wire_reads_hit_too(world):
    user = _user(world)
    calls = _counting_verify(user.authenticator)
    first = user.verify(_wire_response(world, user, encrypt=False))
    entries = len(calls)
    assert entries > 0
    assert _values(user.verify(_wire_response(world, user, encrypt=False))) == _values(first)
    assert len(calls) == entries


def test_an_in_memory_answer_and_its_decoded_twin_share_entries(world):
    """The key holds the signature's canonical encoding, so signatures built
    in memory and the same signatures decoded off the wire hit each other."""
    _group, _universe, _owner, provider, rng = world
    user = _user(world)
    calls = _counting_verify(user.authenticator)
    first = user.verify(
        provider.range_query(TABLE, (0,), (15,), user.roles, encrypt=False, rng=rng)
    )
    entries = len(calls)
    assert entries > 0 and len(_memo(user)) == entries
    assert _values(user.verify(_wire_response(world, user, encrypt=False))) == _values(first)
    assert len(calls) == entries


# -- one byte off is a cold check --------------------------------------------

def _signature(entry):
    return entry.signature if isinstance(entry, AccessibleRecordEntry) else entry.aps


def _flips(vo_bytes, vo, group):
    """One-byte flips inside each kind of entry's signature: tau, Y, last point."""
    g1w = group.element_bytes(G1)
    seen = set()
    for entry in vo:
        kind = type(entry)
        if kind in seen:
            continue
        seen.add(kind)
        sig_bytes = _signature(entry).to_bytes()
        start = vo_bytes.find(sig_bytes)
        assert start >= 0
        tau_len = int.from_bytes(sig_bytes[:2], "big")
        y_last = 2 + tau_len + 4 + g1w - 1  # tau length, tau, |S|, |P|, Y
        for offset in (2, y_last, len(sig_bytes) - 1):
            mutated = bytearray(vo_bytes)
            mutated[start + offset] ^= 0x01
            yield kind, bytes(mutated)
    assert seen == {AccessibleRecordEntry, InaccessibleRecordEntry, InaccessibleNodeEntry}


def test_one_byte_flip_in_a_verified_signature_fails_as_cold(world):
    group, universe, owner, _provider, _rng = world
    user = _user(world)
    response = _wire_response(world, user, encrypt=False)
    user.verify(response)
    vo_bytes = response.vo.to_bytes()
    flipped = 0
    for kind, mutated in _flips(vo_bytes, response.vo, group):
        cold = _outcome(lambda: verify_vo(
            VerificationObject.from_bytes(group, mutated),
            AppAuthenticator(group, universe, owner.mvk), response.query, user.roles,
        ))
        warm = _outcome(lambda: user.verify(QueryResponse(
            "range", response.query, vo=VerificationObject.from_bytes(group, mutated),
        )))
        assert cold in (SoundnessError, DeserializationError), kind
        assert warm is cold, kind
        flipped += 1
    assert flipped == 9


def test_a_warm_read_decodes_no_points(world):
    """Signature points and the CP-ABE header are decoded only on a memo
    miss, so a warm sealed read decodes none."""
    group, _universe, _owner, provider, rng = world
    user = _user(world)
    decoded = []
    for _ in range(2):
        sealed = provider.range_query(TABLE, (0,), (15,), user.roles, encrypt=True, rng=rng)
        wire = encode_response(sealed)
        before = group.stats.snapshot()
        user.verify(decode_response(group, wire))
        decoded.append(group.stats.delta(before)["points_decoded"])
    cold, warm = decoded
    assert cold > 0 and warm == 0


def test_a_memo_held_entry_with_one_changed_point_byte_is_rechecked_and_rejected(world):
    group = world[0]
    user = _user(world)
    response = _wire_response(world, user, encrypt=False)
    user.verify(response)
    size = len(_memo(user))
    vo_bytes = response.vo.to_bytes()
    sig_bytes = _signature(response.vo.entries[0]).to_bytes()
    start = vo_bytes.find(sig_bytes)
    mutated = bytearray(vo_bytes)
    mutated[start + len(sig_bytes) - 1] ^= 0x01  # the last point's last byte
    calls = _counting_verify(user.authenticator)
    tampered = QueryResponse(
        "range", response.query, vo=VerificationObject.from_bytes(group, bytes(mutated))
    )
    with pytest.raises((SoundnessError, DeserializationError)):
        user.verify(tampered)
    assert len(calls) == 1  # only the changed entry, checked afresh
    assert len(_memo(user)) == size


def _bad_point(group):
    """A G1 encoding of the right width that no backend decodes."""
    if group.name == "bn254":
        return FIELD_MODULUS.to_bytes(32, "big")  # x out of range
    return b"\xff" * group.element_bytes(G1)  # exponent out of range


def test_a_malformed_point_in_a_resealed_cold_entry_is_a_decode_failure(world):
    """The SP can seal any bytes for the user: a VO whose entry carries an
    undecodable point opens (the MAC passes) and fails as a
    DeserializationError, not as tampering."""
    from repro.abe.cpabe import CpAbeScheme
    from repro.abe.hybrid import encrypt_for_roles
    from repro.net.client import is_tamper_error

    group, _universe, _owner, provider, rng = world
    user = _user(world)  # a fresh memo: every entry is cold
    plain = provider.range_query(TABLE, (0,), (15,), user.roles, encrypt=False, rng=rng)
    vo_bytes = plain.vo.to_bytes()
    sig_bytes = _signature(plain.vo.entries[0]).to_bytes()
    y_at = vo_bytes.find(sig_bytes) + 2 + int.from_bytes(sig_bytes[:2], "big") + 4
    mutated = bytearray(vo_bytes)
    mutated[y_at : y_at + group.element_bytes(G1)] = _bad_point(group)
    envelope = encrypt_for_roles(
        CpAbeScheme(group), provider.cpabe_public, user.roles, bytes(mutated), rng
    )
    resealed = decode_response(
        group, encode_response(QueryResponse("range", plain.query, envelope=envelope))
    )
    with pytest.raises(DeserializationError) as caught:
        user.verify(resealed)
    assert not is_tamper_error(caught.value)
    assert len(_memo(user)) == 0


def test_a_changed_header_byte_misses_the_kem_memo_and_fails(world, monkeypatch):
    group = world[0]
    user = _user(world)
    response = _wire_response(world, user, encrypt=True)
    user.verify(response)
    seen = []
    monkeypatch.setattr(user._kem_memo, "_observe", seen.append)
    header = response.envelope.header_bytes
    wire = bytearray(encode_response(response))
    c_prime_last = (wire.find(header) + 4 + int.from_bytes(header[:4], "big") + 1
                    + group.element_bytes(G1) - 1)  # policy text | flag | C'
    wire[c_prime_last] ^= 0x01
    with pytest.raises(CryptoError):  # DeserializationError included
        user.verify(decode_response(group, bytes(wire)))
    assert seen == ["miss"]
    assert user.verify(response)  # the memoized key still opens the original
    assert seen == ["miss", "hit"]


def test_a_warm_sealed_read_builds_no_lane_keys(world, monkeypatch):
    """A warm repeat seals and opens under the key and block count of the
    cold read, so both find their lane-filled AES round keys in the
    process-wide cache: one hit each, no entry built."""
    user = _user(world)
    assert user.verify(_wire_response(world, user, encrypt=True))
    seen = []
    monkeypatch.setattr(aes._LANE_KEYS, "_observe", seen.append)
    response = _wire_response(world, user, encrypt=True)
    sealed, seen[:] = list(seen), []
    assert user.verify(response)
    assert sealed == ["hit"]
    assert seen == ["hit"]


def test_a_rejected_entry_is_rejected_every_time(world):
    group = world[0]
    user = _user(world)
    response = _wire_response(world, user, encrypt=False)
    user.verify(response)
    size = len(_memo(user))
    vo_bytes = response.vo.to_bytes()
    _kind, mutated = next(_flips(vo_bytes, response.vo, group))  # tau of the first entry kind
    calls = _counting_verify(user.authenticator)
    for _ in range(2):
        tampered = QueryResponse(
            "range", response.query, vo=VerificationObject.from_bytes(group, mutated)
        )
        with pytest.raises(SoundnessError):
            user.verify(tampered)
    assert len(calls) == 2  # the tampered entry, checked afresh both times
    assert calls[0] == calls[1]
    assert len(_memo(user)) == size


# -- a verified signature proves nothing about anything else ------------------

def test_a_verified_aps_does_not_transfer_to_another_box_key_or_predicate(world):
    user = _user(world)
    bob = _user(world, BOB)
    vo = _wire_response(world, user, encrypt=False).vo
    user.verify(QueryResponse("range", Box((0,), (15,)), vo=vo))
    auth = user.authenticator
    node = next(e for e in vo if isinstance(e, InaccessibleNodeEntry))
    cell = next(e for e in vo if isinstance(e, InaccessibleRecordEntry))
    record = next(e for e in vo if isinstance(e, AccessibleRecordEntry))

    assert auth.verify_inaccessible_node(node.box, user.roles, node.aps)
    other_box = Box(node.box.lo, (node.box.hi[0] + 1,)) if node.box.hi[0] < 15 \
        else Box((node.box.lo[0] - 1,), node.box.hi)
    assert not auth.verify_inaccessible_node(other_box, user.roles, node.aps)
    assert not auth.verify_inaccessible_node(node.box, user.roles, node.aps, ["R0"])
    assert not bob.authenticator.verify_inaccessible_node(node.box, bob.roles, node.aps)

    assert auth.verify_inaccessible_record(cell.key, cell.value_hash, user.roles, cell.aps)
    other_key = ((cell.key[0] + 1) % 16,)
    assert not auth.verify_inaccessible_record(other_key, cell.value_hash, user.roles, cell.aps)
    assert not auth.verify_inaccessible_record(
        cell.key, bytes(len(cell.value_hash)), user.roles, cell.aps
    )
    assert not bob.authenticator.verify_inaccessible_record(
        cell.key, cell.value_hash, bob.roles, cell.aps
    )

    assert auth.verify_record(record.record(), record.signature)
    moved = Record(((record.key[0] + 1) % 16,), record.value, record.policy)
    assert not auth.verify_record(moved, record.signature)
    assert not auth.verify_record(
        Record(record.key, record.value + b"!", record.policy), record.signature
    )
    assert not auth.verify_record(
        Record(record.key, record.value, parse_policy("R0 or R3")), record.signature
    )


def test_trees_that_share_a_predicate_text_share_a_span_program():
    """The memo keys on predicate text; verification reads the predicate
    only through its span program.  Distinct trees with one text (chains
    of single-child gates) must compile to the same program."""
    from repro.crypto.field import CURVE_ORDER
    from repro.policy.boolexpr import And, Attr, Or
    from repro.policy.compiler.msp import get_msp

    a, b = Attr("a"), Attr("b")
    groups = [
        [a, Or([a]), And([a])],
        [Or([And([a, b])]), And([And([a, b])])],
        [Or([Or([a, b])]), And([Or([a, b])])],
    ]
    for trees in groups:
        assert len({t.to_string() for t in trees}) == 1
        programs = {
            (tuple(m.labels), tuple(map(tuple, m.matrix)))
            for m in (get_msp(t, CURVE_ORDER) for t in trees)
        }
        assert len(programs) == 1


def test_one_users_memo_serves_nobody_else(world):
    alice = _user(world)
    twin = _user(world)  # same roles, own memo
    response = _wire_response(world, alice, encrypt=False)
    alice.verify(response)
    size = len(_memo(alice))
    calls = _counting_verify(twin.authenticator)
    twin.verify(response)
    assert len(calls) == size
    assert len(_memo(alice)) == size
    assert _memo(alice) is not _memo(twin)


# -- malformed points ----------------------------------------------------------

def _malformed(group):
    g1, g2 = group.element_bytes(G1), group.element_bytes(G2)
    out = [(G1, b"\x00" * (g1 - 1)), (G2, b"\x00" * (g2 + 1))]
    if group.name == "bn254":
        off_curve = next(x for x in range(1, 64) if not _on_g1(x))
        out += [
            (G1, FIELD_MODULUS.to_bytes(32, "big")),             # x out of range
            (G1, off_curve.to_bytes(32, "big")),                 # not on the curve
            (G1, ((1 << 255) | 1).to_bytes(32, "big")),          # identity, stray bits
            (G2, (1 << 255).to_bytes(32, "big") + b"\x00" * 31 + b"\x01"),
        ]
    else:
        out.append((G1, b"\xff" * g1))  # exponent out of range
    return out


def _on_g1(x):
    try:
        PointG1.from_bytes(x.to_bytes(32, "big"))
    except Exception:  # noqa: BLE001 - any rejection means "not a point"
        return False
    return True


def test_malformed_point_bytes_raise_on_every_decode(world):
    group = world[0]
    for kind, data in _malformed(group):
        for _ in range(2):
            with pytest.raises(DeserializationError):
                group.deserialize(kind, data)


# -- the verified-entry memo's bound -----------------------------------------

def test_verified_entry_memo_stays_bounded():
    group = simulated()
    universe = RoleUniverse(ROLES)
    owner = DataOwner(group, universe, rng=random.Random(3))
    auth = AppAuthenticator(group, universe, owner.mvk)
    outcomes = []
    auth.enable_verify_memo(outcomes.append)
    policy = parse_policy("R0 or R1")
    rng = random.Random(4)
    for key in range(VERIFY_MEMO_SIZE + 2):
        record = Record((key,), b"v%d" % key, policy)
        signed = owner.signer.sign_record(record, rng)
        assert auth.verify_record(record, signed)
    assert len(auth._verify_memo) == VERIFY_MEMO_SIZE
    assert outcomes.count("miss") == VERIFY_MEMO_SIZE + 2
    assert outcomes.count("evicted") == 2


def test_memo_get_and_put_follow_the_get_or_make_rules():
    outcomes = []
    memo = BoundedMemo(2, observe=outcomes.append)
    generation = memo.generation
    assert memo.get("a") is None
    memo.put("a", 1, generation)
    memo.put("f", False, generation)
    memo.put("n", None, generation)
    assert memo.get("a") == 1 and memo.get("f") is None and memo.get("n") is None
    memo.clear()
    memo.put("stale", 2, generation)  # read before the clear: dropped
    assert memo.get("stale") is None and len(memo) == 0
    generation = memo.generation
    for key in "xyz":
        memo.put(key, key, generation)
    assert len(memo) == 2 and memo.get("x") is None
    assert outcomes.count("evicted") == 1
    assert outcomes.count("hit") == 1


def _tampered_last_aps(response, group):
    """The response with its last APS replaced by another entry's APS."""
    entries = list(response.vo.entries)
    last = max(i for i, e in enumerate(entries) if not isinstance(e, AccessibleRecordEntry))
    donor = next(e for e in entries if not isinstance(e, AccessibleRecordEntry))
    entries[last] = dataclasses.replace(entries[last], aps=donor.aps)
    return QueryResponse("range", response.query, vo=VerificationObject(entries=entries))


def test_a_rejected_batch_remembers_nothing(world):
    group = world[0]
    user = _user(world)
    response = _wire_response(world, user, encrypt=False)
    with pytest.raises(SoundnessError):
        user.verify(_tampered_last_aps(response, group))
    assert len(_memo(user)) == 0  # not even the entries that were valid
    calls = _counting_verify(user.authenticator)
    user.verify(response)
    assert len(calls) == len(response.vo.entries) == len(_memo(user))


def test_a_clear_racing_a_settle_stores_nothing_from_before_it(world, monkeypatch):
    import repro.core.app_signature as app_signature_mod

    user = _user(world)
    response = _wire_response(world, user, encrypt=False)
    original = app_signature_mod.verify_or_find_invalid

    def clear_midway(*args):
        _memo(user).clear()
        return original(*args)

    monkeypatch.setattr(app_signature_mod, "verify_or_find_invalid", clear_midway)
    assert user.verify(response)
    assert len(_memo(user)) == 0
    monkeypatch.setattr(app_signature_mod, "verify_or_find_invalid", original)
    user.verify(response)
    assert len(_memo(user)) == len(response.vo.entries)


# -- what the ledger shows ----------------------------------------------------

def test_a_warm_sealed_read_shows_its_memo_hits_and_codec_time(world):
    from repro.core.messages import SPServer
    from repro.net import LoopbackTransport, ResilientClient, ResilientSPServer
    from repro.obs import ledger as ledger_mod

    _group, _universe, _owner, provider, rng = world
    server = ResilientSPServer(SPServer(provider, rng=rng))
    client = ResilientClient(
        _user(world), LoopbackTransport(server.handle_frame), rng=random.Random(8)
    )
    entries = []
    for _ in range(2):
        assert client.query_range(TABLE, (0,), (15,), encrypt=True)
        entries.append(ledger_mod.ledger().get(client._last_trace_id))
    cold, warm = (entry.counters for entry in entries)
    assert cold["verify_memo_misses"] > 0 and "verify_memo_hits" not in cold
    assert warm["verify_memo_hits"] == cold["verify_memo_misses"]
    assert "verify_memo_misses" not in warm
    assert warm["kem_memo_hits"] == 1 and "kem_memo_misses" not in warm
    for entry in entries:
        assert "codec" in entry.stages
        assert entry.stage_total() <= entry.wall_seconds


# -- under concurrency ----------------------------------------------------------

def test_memos_hold_under_concurrent_readers():
    """More threads than cores share one user's verified-entry memo and
    lazily decoded BN254 signatures at a shortened switch interval: every
    read returns the cold answer, every first decode races others to the
    right point, and no bound is exceeded."""
    world = _build_world(simulated())
    user = _user(world)
    expected = _values(user.verify(_wire_response(world, user, encrypt=False)))
    responses = [_wire_response(world, user, encrypt=False) for _ in range(4)]
    group = BN254Group()
    point, points = PointG1(G1_GENERATOR.xy), []
    for _ in range(12):
        points.append(point)
        point = point + PointG1(G1_GENERATOR.xy)
    elements = [group.deserialize(G1, p.to_bytes()) for p in points]
    encodings = [
        AbsSignature(b"t%d" % i, elements[i], elements[i - 1], (elements[i - 2],), ()).to_bytes()
        for i in range(len(elements))
    ]
    shared = [AbsSignature.from_bytes(group, data) for data in encodings]
    small = BoundedMemo(4)
    errors = []

    def read(worker):
        try:
            for i in range(40):
                assert _values(user.verify(responses[(worker + i) % 4])) == expected
                k = (worker + i) % len(shared)
                assert shared[k].s[0].value.xy == points[k - 2].xy
                key = (worker * 7 + i) % 9
                assert small.get_or_make(key, lambda: key * key) == key * key
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(w,)) for w in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(previous)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(_memo(user)) <= VERIFY_MEMO_SIZE
    assert [sig.to_bytes() for sig in shared] == encodings
    assert len(small) == 4
