"""Tests for the grid-tree ablation variants (binary split, raw policies)."""

import random

import pytest

from repro.core.app_signature import AppAuthenticator
from repro.core.range_query import clip_query, range_vo
from repro.core.records import Dataset, Record
from repro.core.system import DataOwner
from repro.core.verifier import verify_vo
from repro.crypto import simulated
from repro.index.boxes import Domain
from repro.index.gridtree import APGTree
from repro.policy.boolexpr import parse_policy
from repro.policy.compiler import dnf_equal
from repro.policy.roles import RoleUniverse


@pytest.fixture(scope="module")
def env():
    rng = random.Random(808)
    universe = RoleUniverse(["RoleA", "RoleB"])
    owner = DataOwner(simulated(), universe, rng=rng)
    ds = Dataset(Domain.of((0, 7), (0, 3)))
    ds.add(Record((1, 1), b"a", parse_policy("RoleA")))
    ds.add(Record((6, 2), b"b", parse_policy("RoleB")))
    auth = AppAuthenticator(simulated(), universe, owner.mvk)
    return rng, owner, ds, auth


def test_binary_split_tree_structure(env):
    rng, owner, ds, auth = env
    tree = APGTree.build(ds, owner.signer, rng, binary_split=True)
    # Binary splits: every internal node has exactly 2 children.
    for node in tree.iter_nodes():
        if not node.is_leaf:
            assert len(node.children) == 2
    assert tree.stats.num_leaves == 32
    # A full binary tree over 32 leaves has 63 nodes.
    assert tree.stats.num_nodes == 63


def test_binary_split_queries_agree_with_default(env):
    rng, owner, ds, auth = env
    default = APGTree.build(ds, owner.signer, rng)
    binary = APGTree.build(ds, owner.signer, rng, binary_split=True)
    for roles in (frozenset({"RoleA"}), frozenset()):
        query = clip_query(default, (0, 0), (7, 3))
        for tree in (default, binary):
            vo = range_vo(tree, auth, query, roles, rng)
            records = verify_vo(vo, auth, query, roles)
            expected = sorted(
                r.value for r in ds if r.policy.evaluate(roles)
            )
            assert sorted(r.value for r in records) == expected


def test_unsimplified_policies_semantically_equal(env):
    rng, owner, ds, auth = env
    simplified = APGTree.build(ds, owner.signer, rng)
    raw = APGTree.build(ds, owner.signer, rng, simplify_policies=False)
    assert dnf_equal(simplified.root.policy, raw.root.policy)
    # Raw policies are at least as long, typically much longer.
    assert raw.root.policy.num_leaves() >= simplified.root.policy.num_leaves()
    # And the raw tree still answers verifiable queries.
    roles = frozenset({"RoleB"})
    query = clip_query(raw, (0, 0), (7, 3))
    vo = range_vo(raw, auth, query, roles, rng)
    assert [r.value for r in verify_vo(vo, auth, query, roles)] == [b"b"]


def test_binary_split_unit_dimension(env):
    rng, owner, _, _ = env
    ds = Dataset(Domain.of((0, 3), (0, 0)))  # second dimension is unit
    ds.add(Record((2, 0), b"x", parse_policy("RoleA")))
    tree = APGTree.build(ds, owner.signer, rng, binary_split=True)
    assert tree.stats.num_leaves == 4
    assert tree.leaf_at((2, 0)).record.value == b"x"
