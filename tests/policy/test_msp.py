"""Property tests for monotone span programs and the purge step.

These are the correctness core of the whole system: the MSP must agree
with boolean evaluation (Definition 5.3), and purge must produce the
``M . 1_C = 1_R`` column/row selection ABS.Relax relies on (Algorithm 6).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.field import CURVE_ORDER
from repro.errors import RelaxationError
from repro.policy.boolexpr import And, Attr, Or, parse_policy
from repro.policy.compiler import Msp, solve_linear_mod

ROLES = [f"R{i}" for i in range(7)]
ORDER = CURVE_ORDER

attr = st.sampled_from(ROLES).map(Attr)
expr_st = st.recursive(
    attr,
    lambda ch: st.one_of(
        st.lists(ch, min_size=1, max_size=3).map(lambda cs: And.of(*cs)),
        st.lists(ch, min_size=1, max_size=3).map(lambda cs: Or.of(*cs)),
    ),
    max_leaves=10,
)
role_set = st.sets(st.sampled_from(ROLES))


def test_single_attribute_msp():
    msp = Msp(Attr("R0"), ORDER)
    assert msp.matrix == [[1]]
    assert msp.labels == ["R0"]
    assert msp.is_satisfied({"R0"})
    assert not msp.is_satisfied({"R1"})


def test_and_gate_msp_requires_all():
    msp = Msp(parse_policy("R0 and R1 and R2"), ORDER)
    assert msp.n_rows == 3
    assert msp.is_satisfied({"R0", "R1", "R2"})
    for missing in range(3):
        attrs = {f"R{i}" for i in range(3) if i != missing}
        assert not msp.is_satisfied(attrs)


def test_or_gate_msp_any_suffices():
    msp = Msp(parse_policy("R0 or R1 or R2"), ORDER)
    assert msp.n_cols == 1
    for i in range(3):
        assert msp.is_satisfied({f"R{i}"})
    assert not msp.is_satisfied({"R5"})


def test_matrix_entries_are_zero_or_unit():
    msp = Msp(parse_policy("(R0 and R1) or (R2 and (R3 or R4) and R5)"), ORDER)
    allowed = {0, 1, ORDER - 1}
    for row in msp.matrix:
        assert set(row) <= allowed


@given(expr_st, role_set)
@settings(max_examples=150)
def test_span_satisfaction_matches_evaluation(expr, attrs):
    msp = Msp(expr, ORDER)
    assert msp.is_satisfied(attrs) == expr.evaluate(attrs)


@given(expr_st, role_set)
@settings(max_examples=150)
def test_satisfying_vector_correct(expr, attrs):
    msp = Msp(expr, ORDER)
    v = msp.satisfying_vector(attrs)
    if v is None:
        assert not expr.evaluate(attrs)
        return
    # v M = e1 and zero outside satisfied rows.
    attrs = set(attrs)
    for i, label in enumerate(msp.labels):
        if label not in attrs:
            assert v[i] == 0
    for j in range(msp.n_cols):
        total = sum(v[i] * msp.matrix[i][j] for i in range(msp.n_rows)) % ORDER
        assert total == (1 if j == 0 else 0)


@given(expr_st, role_set)
@settings(max_examples=150)
def test_purge_invariant(expr, kept):
    msp = Msp(expr, ORDER)
    universe = set(ROLES)
    should_succeed = not expr.evaluate(universe - kept)
    try:
        rows, cols = msp.purge(kept)
    except RelaxationError:
        assert not should_succeed
        return
    assert should_succeed
    assert 0 in cols
    assert all(msp.labels[i] in kept for i in rows)
    assert msp.check_purge_invariant(rows, cols)


def test_purge_rejects_when_policy_still_satisfiable():
    msp = Msp(parse_policy("R0 or R1"), ORDER)
    with pytest.raises(RelaxationError):
        msp.purge({"R0"})  # R1 alone still satisfies


def test_purge_and_node_keeps_one_child():
    msp = Msp(parse_policy("R0 and R1"), ORDER)
    rows, cols = msp.purge({"R0", "R5"})
    assert [msp.labels[i] for i in rows] == ["R0"]
    assert msp.check_purge_invariant(rows, cols)


def test_purge_or_node_keeps_all_children():
    msp = Msp(parse_policy("R0 or R1"), ORDER)
    rows, cols = msp.purge({"R0", "R1"})
    assert sorted(msp.labels[i] for i in rows) == ["R0", "R1"]
    assert msp.check_purge_invariant(rows, cols)


def test_duplicate_attribute_rows():
    # The same attribute on multiple leaves yields multiple labeled rows.
    msp = Msp(parse_policy("(R0 and R1) or (R0 and R2)"), ORDER)
    assert msp.labels.count("R0") == 2
    rows, cols = msp.purge({"R0"})
    assert all(msp.labels[i] == "R0" for i in rows)
    assert msp.check_purge_invariant(rows, cols)


# -- linear solver ----------------------------------------------------------

def test_solve_linear_identity():
    a = [[1, 0], [0, 1]]
    assert solve_linear_mod(a, [3, 4], 7) == [3, 4]


def test_solve_linear_underdetermined():
    # One equation, two unknowns: free variable set to zero.
    x = solve_linear_mod([[1, 1]], [5], 11)
    assert x is not None
    assert (x[0] + x[1]) % 11 == 5


def test_solve_linear_inconsistent():
    assert solve_linear_mod([[1, 1], [2, 2]], [1, 3], 11) is None


def test_solve_linear_needs_pivot_swap():
    x = solve_linear_mod([[0, 1], [1, 0]], [2, 3], 11)
    assert x == [3, 2]


@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.data(),
)
def test_solve_linear_random(n_rows, n_cols, data):
    p = 101
    a = [
        [data.draw(st.integers(min_value=0, max_value=p - 1)) for _ in range(n_cols)]
        for _ in range(n_rows)
    ]
    x_true = [data.draw(st.integers(min_value=0, max_value=p - 1)) for _ in range(n_cols)]
    b = [sum(a[i][j] * x_true[j] for j in range(n_cols)) % p for i in range(n_rows)]
    x = solve_linear_mod(a, b, p)
    assert x is not None  # constructed to be consistent
    for i in range(n_rows):
        assert sum(a[i][j] * x[j] for j in range(n_cols)) % p == b[i]
