"""Tests for the GLV decomposition and the GLV-split ``__mul__`` on G1 and G2."""

import random

from hypothesis import given, settings, strategies as st

import repro.crypto.curve as curve
from repro.crypto import glv
from repro.crypto.curve import G1_GENERATOR as g1, G2_GENERATOR as g2, PointG1
from repro.crypto.field import CURVE_ORDER as R, FIELD_MODULUS as P
from repro.crypto.glv import BETA, GLV_HALF_BITS, HALF_BOUND, LAM, decompose
from tests.crypto.textbook import textbook_mul

scalar_st = st.integers(min_value=0, max_value=R - 1)


def test_constants_are_cube_roots():
    assert (BETA * BETA % P * BETA) % P == 1 and BETA != 1
    assert pow(LAM, 3, R) == 1 and LAM != 1
    assert (BETA * BETA + BETA + 1) % P == 0
    assert (LAM * LAM + LAM + 1) % R == 0


def test_endomorphism_is_lambda_multiplication():
    for k in (1, 7, 991):
        point = textbook_mul(g1, k)
        x, y = point.xy
        phi = PointG1((x * BETA % P, y))
        assert phi == textbook_mul(point, LAM)


@given(scalar_st)
@settings(max_examples=100)
def test_decomposition_reconstructs(k):
    k1, k2 = decompose(k)
    assert (k1 + k2 * LAM - k) % R == 0


@given(scalar_st)
@settings(max_examples=100)
def test_decomposition_halves_are_short(k):
    k1, k2 = decompose(k)
    assert abs(k1) <= HALF_BOUND and abs(k2) <= HALF_BOUND


def test_half_bound_is_proven_from_the_basis():
    """The import-time bound follows from the basis, not from samples.

    Premises of ``glv._half_bound``: both basis vectors lie in the GLV
    lattice, their determinant is r (so the rounding targets are
    ``b2 k / r`` and ``-b1 k / r``), and every coordinate is below r.
    Scalars that put both rounding errors near 1/2 land inside the bound.
    """
    (a1, b1), (a2, b2) = glv._V1, glv._V2
    for a, b in glv._V1, glv._V2:
        assert (a + b * LAM) % R == 0
        assert abs(a) < R and abs(b) < R
    assert a1 * b2 - a2 * b1 == R
    assert HALF_BOUND == max(abs(a1) + abs(a2), abs(b1) + abs(b2)) // 2 + 1
    assert HALF_BOUND < 1 << GLV_HALF_BITS
    assert GLV_HALF_BITS <= curve.COMB_WIDTH * -(-GLV_HALF_BITS // curve.COMB_WIDTH)
    worst = 0
    for m in range(1, 400, 2):
        # k with b2 k / r just below m / 2 (a rounding error near 1/2).
        for k in ((m * R) // (2 * b2), (m * R) // (2 * -b1)):
            k1, k2 = decompose(k % R)
            worst = max(worst, abs(k1), abs(k2))
    assert worst <= HALF_BOUND
    # The bound is not slack by more than a few bits.
    assert worst.bit_length() >= GLV_HALF_BITS - 2


@given(scalar_st)
@settings(max_examples=25, deadline=None)
def test_glv_matches_generic(k):
    assert g1 * k == textbook_mul(g1, k)


def test_glv_edge_cases():
    assert (g1 * 0).is_identity
    assert (g1 * R).is_identity
    assert g1 * 1 == g1
    assert g1 * (R - 1) == -g1
    assert (PointG1.identity() * 12345).is_identity


def test_glv_negative_scalar_reduces():
    assert g1 * -3 == textbook_mul(g1, R - 3)


def test_glv_applies_to_g2():
    rng = random.Random(4)
    for k in (1, 2, R - 1, rng.randrange(R), rng.randrange(R)):
        assert g2 * k == textbook_mul(g2, k)
    assert (g2 * R).is_identity


def test_pointg1_mul_routes_through_glv(monkeypatch):
    # Both curves' operator path is the GLV split feeding Straus.
    calls = []
    split = curve._glv_split

    def spy(points, scalars, ops):
        calls.append(ops)
        return split(points, scalars, ops)

    monkeypatch.setattr(curve, "_glv_split", spy)
    rng = random.Random(3)
    for _ in range(3):
        k = rng.randrange(1 << 200, R)
        assert g1 * k == textbook_mul(g1, k)
        assert g2 * k == textbook_mul(g2, k)
    assert calls == [curve._FP_OPS, curve._FP2_OPS] * 3
