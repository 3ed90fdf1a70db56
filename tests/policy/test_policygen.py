"""Tests for the random policy workload generator."""

import pytest

from repro.errors import WorkloadError
from repro.policy.compiler import to_dnf
from repro.policy.policygen import (
    PolicyGenerator,
    role_names,
    user_roles_for_coverage,
)
from repro.policy.roles import PSEUDO_ROLE


def test_role_names():
    assert role_names(3) == ["Role0", "Role1", "Role2"]


def test_default_workload_shape():
    gen = PolicyGenerator()
    wl = gen.generate()
    assert len(wl.policies) == 10
    assert len(wl.universe) == 11  # 10 roles + pseudo
    for policy in wl.policies:
        clauses = to_dnf(policy)
        assert 1 <= len(clauses) <= 3
        assert all(1 <= len(c) <= 2 for c in clauses)
        assert PSEUDO_ROLE not in policy.attributes()


def test_policies_are_distinct():
    wl = PolicyGenerator(num_policies=20).generate()
    texts = {p.to_string() for p in wl.policies}
    assert len(texts) == 20


def test_generation_deterministic_by_seed():
    a = PolicyGenerator(seed=5).generate()
    b = PolicyGenerator(seed=5).generate()
    assert [p.to_string() for p in a.policies] == [p.to_string() for p in b.policies]
    c = PolicyGenerator(seed=6).generate()
    assert [p.to_string() for p in a.policies] != [p.to_string() for p in c.policies]


def test_max_policy_length():
    gen = PolicyGenerator(max_or_fanin=3, max_and_fanin=2)
    assert gen.max_policy_length == 6


def test_invalid_parameters_rejected():
    with pytest.raises(WorkloadError):
        PolicyGenerator(num_roles=0)
    with pytest.raises(WorkloadError):
        PolicyGenerator(max_or_fanin=0)


def test_impossible_distinctness_detected():
    # 1 role, AND/OR fan-in 1 -> only one possible policy.
    with pytest.raises(WorkloadError):
        PolicyGenerator(num_roles=1, num_policies=5, max_or_fanin=1, max_and_fanin=1).generate()


def test_policy_for_is_deterministic():
    wl = PolicyGenerator().generate()
    assert wl.policy_for(12345) is wl.policy_for(12345)


def test_hierarchical_workload():
    wl = PolicyGenerator(seed=3).generate_hierarchical()
    assert wl.hierarchy is not None
    globals_ = {r for r in wl.universe.roles if r.startswith("Global")}
    assert len(globals_) == 2
    # Every AND clause mentioning a role also requires its parent.
    for policy in wl.policies:
        for clause in to_dnf(policy):
            for role in clause:
                for anc in wl.hierarchy.ancestors(role):
                    assert anc in clause


def test_user_roles_for_coverage_hits_target():
    wl = PolicyGenerator(seed=8).generate()
    roles = user_roles_for_coverage(wl, 0.2, seed=8)
    covered = sum(1 for p in wl.policies if p.evaluate(roles)) / len(wl.policies)
    assert 0.0 <= covered <= 0.5  # near the 20% target
    assert PSEUDO_ROLE not in roles


def test_user_roles_for_coverage_full_access():
    wl = PolicyGenerator(seed=8).generate()
    roles = user_roles_for_coverage(wl, 1.0, seed=8)
    covered = sum(1 for p in wl.policies if p.evaluate(roles)) / len(wl.policies)
    assert covered >= 0.8
