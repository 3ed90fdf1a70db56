"""Tests for duplicate-record handling (Appendix E)."""

import random

import pytest

from repro.errors import DeserializationError, WorkloadError
from repro.index.boxes import Domain
from repro.index.duplicates import (
    DuplicateRecord,
    accessible_duplicates,
    decode_bundle,
    embedded_dataset,
    encode_bundle,
    merge_super_records,
    zero_knowledge_dataset,
)
from repro.policy.boolexpr import parse_policy
from repro.policy.compiler import dnf_equal

PA = parse_policy("RoleA")
PB = parse_policy("RoleB")


def _dups():
    return [
        DuplicateRecord((3,), b"v1", PA),
        DuplicateRecord((3,), b"v2", PA),  # same key + policy -> merges
        DuplicateRecord((3,), b"v3", PB),
        DuplicateRecord((7,), b"w1", PB),
    ]


def test_merge_super_records():
    merged = merge_super_records(_dups())
    assert set(merged) == {(3,), (7,)}
    assert len(merged[(3,)]) == 2  # two policy groups
    assert len(merged[(7,)]) == 1
    # The PA group blob contains both values.
    pa_group = [blob for pol, blob in merged[(3,)] if dnf_equal(pol, PA)][0]
    assert b"v1" in pa_group and b"v2" in pa_group


def test_zero_knowledge_transform():
    domain = Domain.of((0, 15))
    dataset, virtual = zero_knowledge_dataset(domain, _dups(), rng=random.Random(3))
    assert dataset.domain.dims == 2
    assert virtual.size == 2  # max policy groups per key
    assert len(dataset) == 3  # 2 groups at key 3 + 1 at key 7
    # Every record key extends the original with x in [1, size].
    for record in dataset:
        assert 1 <= record.key[-1] <= virtual.size
        assert virtual.strip_key(record.key) in {(3,), (7,)}
    # Same key -> distinct virtual coordinates.
    xs = sorted(r.key[-1] for r in dataset if r.key[0] == 3)
    assert len(set(xs)) == 2


def test_zero_knowledge_query_transform():
    domain = Domain.of((0, 15))
    _, virtual = zero_knowledge_dataset(domain, _dups(), rng=random.Random(3))
    lo, hi = virtual.extend_range((2,), (9,))
    assert lo == (2, 1)
    assert hi == (9, virtual.size)


def test_virtual_dimension_size_override():
    domain = Domain.of((0, 15))
    dataset, virtual = zero_knowledge_dataset(
        domain, _dups(), virtual_size=5, rng=random.Random(3)
    )
    assert virtual.size == 5
    with pytest.raises(WorkloadError):
        zero_knowledge_dataset(domain, _dups(), virtual_size=1, rng=random.Random(3))


def test_bundle_roundtrip():
    dups = [(b"v1", PA), (b"v2", PB)]
    blob = encode_bundle(dups)
    decoded = decode_bundle(blob)
    assert [(i, v) for i, v, _ in decoded] == [(0, b"v1"), (1, b"v2")]
    assert dnf_equal(decoded[0][2], PA)
    assert dnf_equal(decoded[1][2], PB)


def test_bundle_rejects_garbage():
    with pytest.raises(DeserializationError):
        decode_bundle(b"nope")
    blob = encode_bundle([(b"v", PA)])
    with pytest.raises(DeserializationError):
        decode_bundle(blob + b"trailing")


def test_accessible_duplicates_filters_by_policy():
    blob = encode_bundle([(b"v1", PA), (b"v2", PB), (b"v3", PA)])
    assert accessible_duplicates(blob, {"RoleA"}) == [(0, b"v1"), (2, b"v3")]
    assert accessible_duplicates(blob, {"RoleB"}) == [(1, b"v2")]
    assert accessible_duplicates(blob, set()) == []


def test_embedded_dataset():
    domain = Domain.of((0, 15))
    dataset = embedded_dataset(domain, _dups())
    assert len(dataset) == 2  # one bundle per key
    bundle = dataset.get((3,))
    assert bundle is not None
    # Bundle policy = OR of duplicate policies.
    assert bundle.policy.evaluate({"RoleA"})
    assert bundle.policy.evaluate({"RoleB"})
    assert not bundle.policy.evaluate({"RoleC"})
    decoded = decode_bundle(bundle.value)
    assert len(decoded) == 3  # dup_num is embedded and verifiable


def test_end_to_end_zero_knowledge_duplicates(sim_owner):
    """Full protocol over the virtual-dimension dataset."""
    from repro.core.app_signature import AppAuthenticator
    from repro.core.range_query import clip_query, range_vo
    from repro.core.verifier import verify_vo
    from repro.core.system import DataOwner
    from repro.crypto import simulated
    from repro.policy.roles import RoleUniverse

    rng = random.Random(8)
    owner = DataOwner(simulated(), RoleUniverse(["RoleA", "RoleB"]), rng=rng)
    domain = Domain.of((0, 7))
    dataset, virtual = zero_knowledge_dataset(domain, _dups(), rng=rng)
    tree = owner.build_tree(dataset)
    auth = AppAuthenticator(owner.group, owner.universe, owner.mvk)
    lo, hi = virtual.extend_range((0,), (7,))
    query = clip_query(tree, lo, hi)
    vo = range_vo(tree, auth, query, {"RoleA"}, rng)
    records = verify_vo(vo, auth, query, {"RoleA"})
    # RoleA sees the merged v1||v2 super-record only.
    assert len(records) == 1
    assert virtual.strip_key(records[0].key) == (3,)
    assert b"v1" in records[0].value and b"v2" in records[0].value
    assert b"v3" not in records[0].value
