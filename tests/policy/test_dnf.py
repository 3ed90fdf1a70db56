"""Tests for DNF conversion and minimality."""

from hypothesis import given, strategies as st

import pytest

from repro.errors import PolicyError
from repro.policy.boolexpr import And, Attr, Or, parse_policy
from repro.policy.compiler import dnf_equal, from_dnf, policy_length, to_dnf

ROLES = [f"R{i}" for i in range(5)]

attr = st.sampled_from(ROLES).map(Attr)
expr_st = st.recursive(
    attr,
    lambda ch: st.one_of(
        st.lists(ch, min_size=1, max_size=3).map(lambda cs: And.of(*cs)),
        st.lists(ch, min_size=1, max_size=3).map(lambda cs: Or.of(*cs)),
    ),
    max_leaves=7,
)


def test_to_dnf_simple():
    expr = parse_policy("A and (B or C)")
    assert set(to_dnf(expr)) == {frozenset({"A", "B"}), frozenset({"A", "C"})}


def test_absorption():
    # A or (A and B) == A
    expr = parse_policy("A or (A and B)")
    assert to_dnf(expr) == [frozenset({"A"})]


def test_duplicate_clauses_removed():
    expr = parse_policy("(A and B) or (B and A)")
    assert to_dnf(expr) == [frozenset({"A", "B"})]


@given(expr_st, st.sets(st.sampled_from(ROLES)))
def test_dnf_preserves_semantics(expr, attrs):
    clauses = to_dnf(expr)
    dnf_value = any(clause <= attrs for clause in clauses)
    assert dnf_value == expr.evaluate(attrs)


@given(expr_st)
def test_from_dnf_roundtrip_semantics(expr):
    rebuilt = from_dnf(to_dnf(expr))
    assert dnf_equal(expr, rebuilt)


@given(expr_st)
def test_dnf_clauses_are_minimal(expr):
    clauses = to_dnf(expr)
    for i, a in enumerate(clauses):
        for j, b in enumerate(clauses):
            if i != j:
                assert not a <= b  # no clause absorbs another


def test_dnf_equal_semantic():
    assert dnf_equal(parse_policy("A and B"), parse_policy("B and A"))
    assert dnf_equal(parse_policy("A or (A and B)"), parse_policy("A"))
    assert not dnf_equal(parse_policy("A"), parse_policy("B"))


def test_policy_length():
    assert policy_length(parse_policy("A")) == 1
    assert policy_length(parse_policy("(A and B) or C")) == 3


def test_from_dnf_empty_rejected():
    with pytest.raises(PolicyError):
        from_dnf([])
    with pytest.raises(PolicyError):
        from_dnf([frozenset()])
