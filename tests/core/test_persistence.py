"""Tests for signed-tree and key serialization (SP cold start)."""

import hashlib
import random

import pytest

from repro.abs.keys import AbsVerificationKey
from repro.core.app_signature import AppAuthenticator
from repro.core.persistence import (
    deserialize_tree,
    serialize_tree,
)
from repro.core.range_query import clip_query, range_vo
from repro.core.records import Dataset, Record
from repro.core.system import DataOwner
from repro.core.verifier import verify_vo
from repro.crypto import bn254, simulated
from repro.errors import DeserializationError
from repro.index.boxes import Domain
from repro.index.kdtree import APKDTree
from repro.policy.boolexpr import parse_policy
from repro.policy.roles import RoleUniverse


@pytest.fixture(scope="module")
def env():
    rng = random.Random(404)
    universe = RoleUniverse(["RoleA", "RoleB"])
    owner = DataOwner(simulated(), universe, rng=rng)
    ds = Dataset(Domain.of((0, 15), (0, 3)))
    ds.add(Record((2, 1), b"x", parse_policy("RoleA")))
    ds.add(Record((9, 3), b"y", parse_policy("RoleB")))
    tree = owner.build_tree(ds)
    auth = AppAuthenticator(simulated(), universe, owner.mvk)
    return rng, owner, ds, tree, auth


def test_tree_roundtrip_structure(env):
    rng, owner, ds, tree, auth = env
    blob = serialize_tree(tree)
    restored = deserialize_tree(simulated(), blob)
    assert restored.domain == tree.domain
    assert restored.stats.num_nodes == tree.stats.num_nodes
    assert restored.stats.num_leaves == tree.stats.num_leaves
    assert restored.stats.num_real_records == 2
    original = {(n.box, n.policy.to_string()) for n in tree.iter_nodes()}
    round_tripped = {(n.box, n.policy.to_string()) for n in restored.iter_nodes()}
    assert original == round_tripped


@pytest.mark.parametrize("flag", ["record", "pseudo-record"])
def test_tree_flag_bytes_other_than_00_and_01_are_rejected(env, flag):
    """A node's has-record and is-pseudo flags are canonical: 02 is a
    decode error, not False."""
    from repro.core.persistence import _write_content

    rng, owner, ds, tree, auth = env
    blob = serialize_tree(tree)
    leaf = next(n for n in tree.iter_nodes() if n.record is not None)
    content, bare = bytearray(), bytearray()
    _write_content(content, leaf.box, leaf.policy, leaf.signature, leaf.record)
    _write_content(bare, leaf.box, leaf.policy, leaf.signature, None)
    # The has-record flag ends the record-less content; is-pseudo ends
    # the full content.
    offset = blob.index(bytes(content)) + (
        len(bare) - 1 if flag == "record" else len(content) - 1
    )
    assert blob[offset] in (0, 1)
    mutated = blob[:offset] + b"\x02" + blob[offset + 1:]
    with pytest.raises(DeserializationError, match=f"unknown {flag} flag tag 2"):
        deserialize_tree(simulated(), mutated)


def test_restored_tree_answers_verifiable_queries(env):
    rng, owner, ds, tree, auth = env
    restored = deserialize_tree(simulated(), serialize_tree(tree))
    roles = frozenset({"RoleA"})
    query = clip_query(restored, (0, 0), (15, 3))
    vo = range_vo(restored, auth, query, roles, rng)
    records = verify_vo(vo, auth, query, roles)
    assert [r.value for r in records] == [b"x"]


def test_kd_tree_roundtrip(env):
    rng, owner, ds, tree, auth = env
    kd = APKDTree.build(ds, owner.signer, rng)
    restored = deserialize_tree(simulated(), serialize_tree(kd))
    assert restored.stats.num_nodes == kd.stats.num_nodes
    roles = frozenset({"RoleB"})
    query = clip_query(restored, (0, 0), (15, 3))
    vo = range_vo(restored, auth, query, roles, rng)
    assert [r.value for r in verify_vo(vo, auth, query, roles)] == [b"y"]


# sha256 of serialize_tree for the AP2G and AP2kd trees of _golden_trees.
# The tree blob is the payload of snapshots and ingest checkpoints: a
# change to these hashes is an on-disk format change.
TREE_GOLDENS = {
    "simulated": (
        "da36742e1d512f05503b2344abea71c4ab7fd0849b781fec95384cee98a72a7b",
        "7b175fc9e3014327bc73c40a828e3d3e3622d0bb55b535a0446b0ba9a7e9b2cf",
    ),
    "bn254": (
        "b4e84c795f29c401a93a575d314394880761cafd48ef975ea978b265ccaa561c",
        "b8b366ec3778d5a193c0d4bb64ef213d35131eed1a08dd7a9cc4ed6c76b13aec",
    ),
}


def _golden_trees(group):
    rng = random.Random(2024)
    owner = DataOwner(group, RoleUniverse(["RoleA", "RoleB"]), rng=rng)
    ds = Dataset(Domain.of((0, 3), (0, 1)))
    ds.add(Record((2, 1), b"x", parse_policy("RoleA")))
    ds.add(Record((1, 0), b"y", parse_policy("RoleA or RoleB")))
    return owner.build_tree(ds), APKDTree.build(ds, owner.signer, rng)


@pytest.mark.parametrize("backend", ["simulated", "bn254"])
def test_serialize_tree_matches_goldens(backend):
    group = {"simulated": simulated, "bn254": bn254}[backend]()
    hashes = tuple(
        hashlib.sha256(serialize_tree(tree)).hexdigest()
        for tree in _golden_trees(group)
    )
    assert hashes == TREE_GOLDENS[backend]


def test_garbage_rejected(env):
    with pytest.raises(DeserializationError):
        deserialize_tree(simulated(), b"not a tree")
    rng, owner, ds, tree, auth = env
    blob = serialize_tree(tree)
    with pytest.raises(DeserializationError):
        deserialize_tree(simulated(), blob + b"\x00")


def test_mvk_roundtrip(env):
    rng, owner, ds, tree, auth = env
    data = owner.mvk.to_bytes()
    restored = AbsVerificationKey.from_bytes(simulated(), data)
    assert restored.g == owner.mvk.g
    assert restored.c == owner.mvk.c
    assert restored.a0_pub == owner.mvk.a0_pub
    # A verifier built on the restored key accepts the DO's signatures.
    auth2 = AppAuthenticator(simulated(), owner.universe, restored)
    leaf = tree.leaf_at((2, 1))
    assert auth2.verify_record(leaf.record, leaf.signature)


def test_mvk_rejects_bad_length(env):
    with pytest.raises(DeserializationError):
        AbsVerificationKey.from_bytes(simulated(), b"\x00" * 10)


def test_cpabe_key_roundtrip(env):
    from repro.abe.cpabe import CpAbeScheme
    from repro.core.persistence import deserialize_cpabe_key, serialize_cpabe_key
    from repro.policy.boolexpr import parse_policy

    rng, owner, ds, tree, auth = env
    scheme = CpAbeScheme(simulated())
    keys = scheme.setup(rng)
    sk = scheme.keygen(keys, ["RoleA", "RoleB"], rng)
    restored = deserialize_cpabe_key(simulated(), serialize_cpabe_key(sk))
    assert restored.attrs == sk.attrs
    ct = scheme.encrypt(keys.public, scheme.group.gt ** 5, parse_policy("RoleA"), rng)
    assert scheme.decrypt(restored, ct) == scheme.group.gt ** 5


def test_credentials_roundtrip(env):
    from repro.core.persistence import deserialize_credentials, serialize_credentials
    from repro.core.system import QueryUser

    rng, owner, ds, tree, auth = env
    creds = owner.register_user(["RoleA"])
    blob = serialize_credentials(creds)
    restored = deserialize_credentials(simulated(), blob)
    assert restored.roles == creds.roles
    # A user rebuilt from the blob can open and verify responses.
    sp = owner.outsource({"T": ds})
    user = QueryUser(simulated(), owner.universe, restored)
    resp = sp.range_query("T", (0, 0), (15, 3), user.roles, encrypt=True, rng=rng)
    assert [r.value for r in user.verify(resp)] == [b"x"]


def test_credentials_reject_garbage(env):
    from repro.core.persistence import deserialize_credentials, deserialize_cpabe_key

    with pytest.raises(DeserializationError):
        deserialize_credentials(simulated(), b"nope")
    with pytest.raises(DeserializationError):
        deserialize_cpabe_key(simulated(), b"zilch")


# ---------------------------------------------------------------------------
# Checksummed snapshots: crash-safe cold start
# ---------------------------------------------------------------------------

def _snapshot(env):
    from repro.core.persistence import snapshot_tree

    rng, owner, ds, tree, auth = env
    return snapshot_tree(tree)


def test_snapshot_roundtrip(env):
    from repro.core.persistence import restore_snapshot

    rng, owner, ds, tree, auth = env
    restored = restore_snapshot(simulated(), _snapshot(env))
    assert restored.stats.num_nodes == tree.stats.num_nodes
    assert restored.domain == tree.domain


def test_snapshot_file_write_is_atomic(env, tmp_path):
    from repro.core.persistence import read_snapshot, write_snapshot

    rng, owner, ds, tree, auth = env
    path = tmp_path / "sp.snap"
    written = write_snapshot(tree, path)
    assert path.stat().st_size == written
    assert not (tmp_path / "sp.snap.tmp").exists()  # temp file was renamed away
    restored = read_snapshot(simulated(), path)
    assert restored.stats.num_nodes == tree.stats.num_nodes


def test_snapshot_rejects_bad_magic(env):
    from repro.core.persistence import restore_snapshot

    blob = bytearray(_snapshot(env))
    blob[0:4] = b"JUNK"
    with pytest.raises(DeserializationError, match="magic at offset 0"):
        restore_snapshot(simulated(), bytes(blob))


def test_snapshot_rejects_version_skew(env):
    from repro.core.persistence import restore_snapshot

    blob = bytearray(_snapshot(env))
    blob[4] = 99
    with pytest.raises(DeserializationError, match="version 99 at offset 4"):
        restore_snapshot(simulated(), bytes(blob))


def test_snapshot_rejects_midfile_truncation_with_offsets(env):
    from repro.core.persistence import restore_snapshot

    blob = _snapshot(env)
    for cut in (0, 4, 5, 10, 11, len(blob) // 2, len(blob) - 5, len(blob) - 1):
        with pytest.raises(DeserializationError, match="torn snapshot"):
            restore_snapshot(simulated(), blob[:cut])


def test_snapshot_rejects_trailing_garbage(env):
    from repro.core.persistence import restore_snapshot

    with pytest.raises(DeserializationError, match="trailing bytes"):
        restore_snapshot(simulated(), _snapshot(env) + b"\x00")


def test_snapshot_rejects_flipped_payload_bytes(env):
    """Any corrupt payload byte — including signature bytes — trips the CRC
    with a diagnostic naming the checksummed span, never a crash or a
    silently restored tree."""
    from repro.core.persistence import restore_snapshot

    blob = _snapshot(env)
    flips = random.Random(31337)
    for _ in range(25):
        corrupted = bytearray(blob)
        pos = 11 + flips.randrange(len(blob) - 15)  # inside the payload
        corrupted[pos] ^= 1 << flips.randrange(8)
        with pytest.raises(DeserializationError, match="checksum mismatch"):
            restore_snapshot(simulated(), bytes(corrupted))


def test_kill_and_restore_sp_proofs_verify_bit_identically(env):
    """Cold-start an SP from snapshot_tables blobs; a seeded query produces
    byte-identical proofs before the crash and after the restore."""
    from repro.core.system import ServiceProvider

    rng, owner, ds, tree, auth = env
    sp = owner.outsource({"T": ds})
    roles = frozenset({"RoleA"})
    before = sp.range_query("T", (0, 0), (15, 3), roles, rng=random.Random(99))
    snapshots = sp.snapshot_tables()  # ... the SP process dies here ...
    restored_sp = ServiceProvider.from_snapshots(
        simulated(), owner.universe, owner.mvk, owner.cpabe_public, snapshots
    )
    after = restored_sp.range_query("T", (0, 0), (15, 3), roles, rng=random.Random(99))
    assert before.vo.to_bytes() == after.vo.to_bytes()
    # And the restored proofs still verify for a real user.
    from repro.core.verifier import verify_vo

    records = verify_vo(after.vo, auth, after.query, roles)
    assert [r.value for r in records] == [b"x"]


def test_corrupted_snapshot_blocks_cold_start(env):
    from repro.core.system import ServiceProvider

    rng, owner, ds, tree, auth = env
    sp = owner.outsource({"T": ds})
    snapshots = sp.snapshot_tables()
    snapshots["T"] = snapshots["T"][: len(snapshots["T"]) // 2]
    with pytest.raises(DeserializationError, match="torn snapshot"):
        ServiceProvider.from_snapshots(
            simulated(), owner.universe, owner.mvk, owner.cpabe_public, snapshots
        )
