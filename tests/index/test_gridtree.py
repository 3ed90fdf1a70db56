"""Tests for the AP2G-tree structure and construction."""

import random
import time

import pytest

from repro.core.records import Dataset, Record
from repro.errors import WorkloadError
from repro.index.boxes import Box, Domain
from repro.index.gridtree import APGTree, simplify_policy_union
from repro.policy.boolexpr import parse_policy
from repro.policy.compiler import dnf_equal
from repro.policy.roles import PSEUDO_ROLE


@pytest.fixture(scope="module")
def tree_env(sim_owner, universe_abc):
    rng = random.Random(5)
    domain = Domain.of((0, 7), (0, 7))
    ds = Dataset(domain)
    ds.add(Record((0, 0), b"a", parse_policy("RoleA")))
    ds.add(Record((3, 5), b"b", parse_policy("RoleB and RoleC")))
    ds.add(Record((7, 7), b"c", parse_policy("RoleC")))
    tree = APGTree.build(ds, sim_owner.signer, rng)
    return ds, tree


def test_tree_is_full_over_domain(tree_env):
    ds, tree = tree_env
    assert tree.stats.num_leaves == 64
    leaves = [n for n in tree.iter_nodes() if n.is_leaf]
    assert len(leaves) == 64
    assert sum(1 for n in leaves if not n.record.is_pseudo) == 3
    # Leaf boxes tile the domain.
    assert sum(n.box.volume() for n in leaves) == 64


def test_pseudo_leaves_have_pseudo_policy(tree_env):
    _, tree = tree_env
    for node in tree.iter_nodes():
        if node.is_leaf and node.record.is_pseudo:
            assert node.policy.attributes() == {PSEUDO_ROLE}


def test_node_count(tree_env):
    _, tree = tree_env
    # 8x8 grid with 4-way splits: 64 + 16 + 4 + 1 = 85 nodes.
    assert tree.stats.num_nodes == 85


def test_node_policy_is_union_of_children(tree_env):
    _, tree = tree_env
    for node in tree.iter_nodes():
        if node.is_leaf:
            continue
        from repro.policy.boolexpr import Or

        union = Or.of(*[c.policy for c in node.children])
        assert dnf_equal(node.policy, union)


def test_children_tile_parent(tree_env):
    _, tree = tree_env
    for node in tree.iter_nodes():
        if node.is_leaf:
            continue
        assert sum(c.box.volume() for c in node.children) == node.box.volume()
        for c in node.children:
            assert node.box.contains_box(c.box)


def test_leaf_at(tree_env):
    ds, tree = tree_env
    leaf = tree.leaf_at((3, 5))
    assert leaf.record.value == b"b"
    leaf = tree.leaf_at((1, 1))
    assert leaf.record.is_pseudo
    with pytest.raises(WorkloadError):
        tree.leaf_at((9, 9))


def test_smallest_node_covering(tree_env):
    _, tree = tree_env
    node = tree.smallest_node_covering(Box((0, 0), (0, 0)))
    assert node.is_leaf and node.box == Box((0, 0), (0, 0))
    node = tree.smallest_node_covering(Box((0, 0), (3, 3)))
    assert node.box == Box((0, 0), (3, 3))
    node = tree.smallest_node_covering(Box((2, 2), (5, 5)))  # straddles quads
    assert node.box == tree.root.box
    with pytest.raises(WorkloadError):
        tree.smallest_node_covering(Box((0, 0), (8, 8)))


def test_root_signature_verifies(tree_env, sim_owner):
    _, tree = tree_env
    root = tree.root
    assert sim_owner.signer.scheme.verify(
        sim_owner.mvk, root.box.to_bytes(), root.policy, root.signature
    )


def test_stats_accounting(tree_env):
    _, tree = tree_env
    stats = tree.stats
    assert stats.num_real_records == 3
    assert stats.signature_bytes > 0
    assert stats.structure_bytes > 0
    assert stats.index_bytes == stats.signature_bytes + stats.structure_bytes
    assert stats.sign_seconds > 0


@pytest.mark.parametrize("binary_split", [False, True])
def test_build_times_count_each_node_once(sim_owner, binary_split):
    """Signing and structure time are each node's own work, so together
    they fit inside the build's wall time (an ancestor must not count its
    descendants again)."""
    domain = Domain.of((0, 15), (0, 15))
    ds = Dataset(domain)
    ds.add(Record((2, 9), b"a", parse_policy("RoleA")))
    ds.add(Record((11, 4), b"b", parse_policy("RoleB or RoleC")))
    t0 = time.perf_counter()
    tree = APGTree.build(ds, sim_owner.signer, random.Random(6), binary_split=binary_split)
    wall = time.perf_counter() - t0
    assert tree.stats.structure_seconds > 0
    assert tree.stats.sign_seconds + tree.stats.structure_seconds <= wall


def test_simplify_policy_union():
    a = parse_policy("RoleA")
    b = parse_policy("RoleA and RoleB")
    merged = simplify_policy_union([a, b])
    assert dnf_equal(merged, a)  # absorption


def test_build_deterministic_with_seed(sim_owner):
    domain = Domain.of((0, 3))
    ds = Dataset(domain)
    ds.add(Record((1,), b"x", parse_policy("RoleA")))
    t1 = APGTree.build(ds, sim_owner.signer, random.Random(4))
    t2 = APGTree.build(ds, sim_owner.signer, random.Random(4))
    assert [n.box for n in t1.iter_nodes()] == [n.box for n in t2.iter_nodes()]


def test_non_square_domain():
    import random as _r

    from repro.core.system import DataOwner
    from repro.crypto import simulated
    from repro.policy.roles import RoleUniverse

    owner = DataOwner(simulated(), RoleUniverse(["X"]), rng=_r.Random(2))
    domain = Domain.of((0, 4), (0, 1), (0, 0))  # odd size, unit dimension
    ds = Dataset(domain)
    ds.add(Record((2, 1, 0), b"v", parse_policy("X")))
    tree = APGTree.build(ds, owner.signer, _r.Random(2))
    assert tree.stats.num_leaves == 10
    assert tree.leaf_at((2, 1, 0)).record.value == b"v"
