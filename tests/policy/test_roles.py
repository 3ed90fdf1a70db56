"""Tests for the role universe, pseudo role, and hierarchies."""

import pytest

from repro.errors import PolicyError
from repro.policy.boolexpr import parse_policy
from repro.policy.compiler import dnf_equal
from repro.policy.roles import PSEUDO_ROLE, RoleHierarchy, RoleUniverse


def test_universe_always_contains_pseudo_role():
    u = RoleUniverse(["A", "B"])
    assert PSEUDO_ROLE in u
    assert list(u)[0] == PSEUDO_ROLE
    assert len(u) == 3


def test_universe_deduplicates_preserving_order():
    u = RoleUniverse(["B", "A", "B"])
    assert list(u) == [PSEUDO_ROLE, "B", "A"]


def test_validate_user_roles():
    u = RoleUniverse(["A", "B"])
    assert u.validate_user_roles(["A"]) == frozenset({"A"})
    with pytest.raises(PolicyError):
        u.validate_user_roles([PSEUDO_ROLE])
    with pytest.raises(PolicyError):
        u.validate_user_roles(["Z"])


def test_missing_roles_order_and_pseudo():
    u = RoleUniverse(["A", "B", "C"])
    assert u.missing_roles({"B"}) == [PSEUDO_ROLE, "A", "C"]
    assert u.missing_roles(set()) == [PSEUDO_ROLE, "A", "B", "C"]


def test_super_policy():
    u = RoleUniverse(["A", "B"])
    sp = u.super_policy({"A"})
    assert sp.evaluate({"B"})
    assert sp.evaluate({PSEUDO_ROLE})
    assert not sp.evaluate({"A"})


def test_validate_policy():
    u = RoleUniverse(["A", "B"])
    u.validate_policy(parse_policy("A and B"))
    with pytest.raises(PolicyError):
        u.validate_policy(parse_policy("A and Z"))


# -- hierarchy ---------------------------------------------------------------

def test_hierarchy_ancestors_and_closure():
    h = RoleHierarchy({"A.S": "A", "A.P": "A", "B.S": "B"})
    assert h.ancestors("A.S") == ["A"]
    assert h.ancestors("A") == []
    assert h.close_user_roles({"A.S"}) == frozenset({"A.S", "A"})


def test_hierarchy_multi_level():
    h = RoleHierarchy({"c": "b", "b": "a"})
    assert h.ancestors("c") == ["b", "a"]
    assert h.close_user_roles({"c"}) == frozenset({"a", "b", "c"})


def test_hierarchy_rejects_cycles():
    with pytest.raises(PolicyError):
        RoleHierarchy({"a": "b", "b": "a"})
    with pytest.raises(PolicyError):
        RoleHierarchy({"a": "a"})


def test_close_policy_adds_ancestors():
    h = RoleHierarchy({"A.P": "A"})
    closed = h.close_policy(parse_policy("A.P or B"))
    assert dnf_equal(closed, parse_policy("(A.P and A) or B"))


def test_maximal_missing_prunes_descendants():
    h = RoleHierarchy({"A.S": "A", "A.P": "A", "B.S": "B", "B.P": "B"})
    u = RoleUniverse(["A", "A.S", "A.P", "B", "B.S", "B.P"])
    # User: a student of university B (holding B and B.S).
    missing = h.maximal_missing(u, {"B", "B.S"})
    # A is missing, so A.S/A.P are implied-missing and pruned.
    assert missing == [PSEUDO_ROLE, "A", "B.P"]
    # Paper's example: predicate shrinks from |A\A|=5 to 3.
    assert len(u.missing_roles({"B", "B.S"})) == 5


def test_maximal_missing_matches_full_on_flat_hierarchy():
    h = RoleHierarchy({})
    u = RoleUniverse(["A", "B"])
    assert h.maximal_missing(u, {"A"}) == u.missing_roles({"A"})


def test_reduced_super_policy_is_equivalent_for_closed_policies():
    """The Section 8.1 soundness argument, checked by brute force."""
    h = RoleHierarchy({"A.S": "A", "A.P": "A", "B.S": "B", "B.P": "B"})
    u = RoleUniverse(["A", "A.S", "A.P", "B", "B.S", "B.P"])
    policy = h.close_policy(parse_policy("A.P or (B.S and B.P)"))
    user = h.close_user_roles({"B.S"})
    assert not policy.evaluate(user)
    reduced = h.maximal_missing(u, user)
    # Relaxation feasibility must hold for the reduced predicate too:
    remaining = set(u.roles) - set(reduced)
    assert not policy.evaluate(remaining)
