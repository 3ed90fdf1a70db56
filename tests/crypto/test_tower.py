"""Field-axiom tests for the Fp2/Fp6/Fp12 tower."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import tower
from repro.crypto.field import FIELD_MODULUS as P
from repro.errors import CryptoError

fp_el = st.integers(min_value=0, max_value=P - 1)
fp2_el = st.tuples(fp_el, fp_el)


def fp6_el():
    return st.tuples(fp2_el, fp2_el, fp2_el)


def fp12_el():
    return st.tuples(fp6_el(), fp6_el())


@given(fp2_el, fp2_el, fp2_el)
def test_fp2_ring_axioms(a, b, c):
    mul, add = tower.fp2_mul, tower.fp2_add
    assert mul(a, b) == mul(b, a)
    assert mul(a, mul(b, c)) == mul(mul(a, b), c)
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert mul(a, tower.FP2_ONE) == tuple(x % P for x in a)


@given(fp2_el)
def test_fp2_inverse_and_square(a):
    if a == (0, 0):
        with pytest.raises(CryptoError):
            tower.fp2_inv(a)
        return
    assert tower.fp2_mul(a, tower.fp2_inv(a)) == tower.FP2_ONE
    assert tower.fp2_sq(a) == tower.fp2_mul(a, a)


@given(fp2_el)
def test_fp2_conjugation_is_frobenius(a):
    # conj(a) = a^p in Fp2.
    assert tower.fp2_conj(a) == tower.fp2_pow(a, P)


@given(fp2_el)
def test_fp2_sqrt_of_square(a):
    square = tower.fp2_sq(a)
    root = tower.fp2_sqrt(square)
    assert root is not None
    assert tower.fp2_sq(root) == square


def test_fp2_mul_xi_matches_mul():
    a = (123456789, 987654321)
    assert tower.fp2_mul_xi(a) == tower.fp2_mul(a, tower.XI)


@settings(max_examples=25)
@given(fp6_el(), fp6_el(), fp6_el())
def test_fp6_ring_axioms(a, b, c):
    mul, add = tower.fp6_mul, tower.fp6_add
    assert mul(a, b) == mul(b, a)
    assert mul(a, mul(b, c)) == mul(mul(a, b), c)
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


@settings(max_examples=25)
@given(fp6_el())
def test_fp6_inverse(a):
    if a == tower.FP6_ZERO:
        return
    assert tower.fp6_mul(a, tower.fp6_inv(a)) == tower.FP6_ONE


@settings(max_examples=25)
@given(fp6_el())
def test_fp6_mul_v(a):
    v = (tower.FP2_ZERO, tower.FP2_ONE, tower.FP2_ZERO)
    assert tower.fp6_mul_v(a) == tower.fp6_mul(a, v)


@settings(max_examples=15)
@given(fp12_el(), fp12_el(), fp12_el())
def test_fp12_ring_axioms(a, b, c):
    mul = tower.fp12_mul
    assert mul(a, b) == mul(b, a)
    assert mul(a, mul(b, c)) == mul(mul(a, b), c)


@settings(max_examples=15)
@given(fp12_el())
def test_fp12_inverse_and_square(a):
    if a == tower.FP12_ZERO:
        return
    assert tower.fp12_mul(a, tower.fp12_inv(a)) == tower.FP12_ONE
    assert tower.fp12_sq(a) == tower.fp12_mul(a, a)


@settings(max_examples=10)
@given(fp12_el())
def test_fp12_frobenius_is_p_power(a):
    assert tower.fp12_frobenius(a) == tower.fp12_pow(a, P)


@settings(max_examples=10)
@given(fp12_el())
def test_fp12_conj_is_p6_power(a):
    assert tower.fp12_conj(a) == tower.fp12_frobenius_n(a, 6)


def test_fp12_frobenius_order_twelve():
    a = ((((3, 1), (4, 1), (5, 9)), ((2, 6), (5, 3), (5, 8))),
         (((9, 7), (9, 3), (2, 3)), ((8, 4), (6, 2), (6, 4))))
    assert tower.fp12_frobenius_n(a, 12) == a


@settings(max_examples=10)
@given(fp12_el(), st.integers(min_value=0, max_value=1 << 64))
def test_fp12_pow_matches_repeated_mul(a, small):
    e = small % 16
    expected = tower.FP12_ONE
    for _ in range(e):
        expected = tower.fp12_mul(expected, a)
    assert tower.fp12_pow(a, e) == expected


@settings(max_examples=15)
@given(fp12_el(), fp_el, fp2_el, fp2_el)
def test_fp12_mul_line_matches_dense(f, a, b, c):
    # The sparse line multiplier must agree with a dense multiplication by
    # the element a + b*w + c*(v*w).
    line = (
        ((a % P, 0), tower.FP2_ZERO, tower.FP2_ZERO),
        (b, c, tower.FP2_ZERO),
    )
    assert tower.fp12_mul_line(f, a, b, c) == tower.fp12_mul(f, line)


def test_cyclotomic_square_matches_generic_on_subgroup():
    from repro.crypto.curve import G1_GENERATOR as g1, G2_GENERATOR as g2
    from repro.crypto.pairing import pairing

    e = pairing(g1 * 3, g2 * 5)
    assert tower.fp12_cyclotomic_sq(e) == tower.fp12_sq(e)
    # Iterated squarings stay in agreement.
    a, b = e, e
    for _ in range(5):
        a = tower.fp12_cyclotomic_sq(a)
        b = tower.fp12_sq(b)
        assert a == b


def test_cyclotomic_pow_matches_generic_on_subgroup():
    from repro.crypto.curve import G1_GENERATOR as g1, G2_GENERATOR as g2
    from repro.crypto.pairing import pairing

    e = pairing(g1, g2 * 9)
    for exp in (0, 1, 2, 31337, -5):
        assert tower.fp12_cyclotomic_pow(e, exp) == tower.fp12_pow(e, exp)


# -- flat kernels against a schoolbook oracle ---------------------------------
# Fp12 as degree-6 polynomials over Fp2 modulo w^6 = XI (and Fp6 as degree-3
# polynomials modulo v^3 = XI, v = w^2), multiplied term by term with Fp2
# arithmetic written out here rather than taken from the tower.

fp_edge = st.one_of(st.sampled_from([0, 1, P - 1]), fp_el)
fp2_edge = st.tuples(fp_edge, fp_edge)
fp6_edge = st.tuples(fp2_edge, fp2_edge, fp2_edge)
fp12_edge = st.tuples(fp6_edge, fp6_edge)


def _mul2(a, b):
    return ((a[0] * b[0] - a[1] * b[1]) % P, (a[0] * b[1] + a[1] * b[0]) % P)


def _add2(a, b):
    return ((a[0] + b[0]) % P, (a[1] + b[1]) % P)


def _poly_mulmod(a, b):
    """Product of two degree-<n polynomials over Fp2 modulo x^n = XI."""
    n = len(a)
    out = [(0, 0)] * (2 * n - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = _add2(out[i + j], _mul2(ai, bj))
    for k in range(2 * n - 2, n - 1, -1):
        out[k - n] = _add2(out[k - n], _mul2(out[k], tower.XI))
    return out[:n]


def _to_poly12(a):
    # d0 + d1 w with d_i = c_i0 + c_i1 v + c_i2 v^2 and v = w^2.
    (c00, c01, c02), (c10, c11, c12) = a
    return [c00, c10, c01, c11, c02, c12]


def _from_poly12(coeffs):
    return tuple(coeffs[0::2]), tuple(coeffs[1::2])


def _canon(a):
    return tuple(x % P for x in a)


def _school12(a, b):
    lhs = [_canon(c) for c in _to_poly12(a)]
    return _from_poly12(_poly_mulmod(lhs, [_canon(c) for c in _to_poly12(b)]))


@settings(max_examples=40)
@given(fp6_edge, fp6_edge)
def test_fp6_mul_matches_schoolbook(a, b):
    assert tower.fp6_mul(a, b) == tuple(_poly_mulmod(list(a), list(b)))


@settings(max_examples=40)
@given(fp12_edge, fp12_edge)
def test_fp12_mul_and_sq_match_schoolbook(a, b):
    assert tower.fp12_mul(a, b) == _school12(a, b)
    assert tower.fp12_sq(a) == _school12(a, a)


@settings(max_examples=40)
@given(fp12_edge, fp_edge, fp2_edge, fp2_edge)
def test_fp12_mul_line_matches_schoolbook(f, a, b, c):
    # The line a + b*w + c*(v*w) = a + b*w + c*w^3.
    line = [(a, 0), b, (0, 0), c, (0, 0), (0, 0)]
    assert tower.fp12_mul_line(f, a, b, c) == _school12(f, _from_poly12(line))


def test_kernels_at_all_p_minus_one():
    m = (P - 1, P - 1)
    a = ((m, m, m), (m, m, m))
    assert tower.fp12_mul(a, a) == _school12(a, a)
    assert tower.fp12_sq(a) == _school12(a, a)
    assert tower.fp12_mul_line(a, P - 1, m, m) == _school12(
        a, _from_poly12([(P - 1, 0), m, (0, 0), m, (0, 0), (0, 0)])
    )
    zero = tower.FP12_ZERO
    assert tower.fp12_mul(a, zero) == zero and tower.fp12_sq(zero) == zero


def _easy_part(f):
    """f^((p^6 - 1)(p^2 + 1)): lands in the cyclotomic subgroup."""
    f1 = tower.fp12_mul(tower.fp12_conj(f), tower.fp12_inv(f))
    return tower.fp12_mul(tower.fp12_frobenius_n(f1, 2), f1)


@settings(max_examples=15, deadline=None)
@given(fp12_edge)
def test_cyclotomic_square_matches_generic_after_easy_part(f):
    if f == tower.FP12_ZERO:
        return
    g = _easy_part(f)
    assert tower.fp12_cyclotomic_sq(g) == tower.fp12_sq(g)
