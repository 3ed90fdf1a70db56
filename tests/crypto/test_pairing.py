"""Tests for the optimal-ate pairing on BN254."""

import hashlib
import random

import pytest

from repro.crypto.curve import G1_GENERATOR as g1, G2_GENERATOR as g2, PointG1, PointG2
from repro.crypto.field import CURVE_ORDER
from repro.crypto.pairing import (
    _multi_miller,
    _step,
    final_exponentiation,
    final_exponentiation_slow,
    miller_loop,
    multi_pairing,
    pairing,
)
from repro.crypto.tower import FP12_ONE, fp2_neg, fp12_mul, fp12_pow
from repro.errors import CryptoError


@pytest.fixture(scope="module")
def e_g1_g2():
    return pairing(g1, g2)


def test_non_degenerate(e_g1_g2):
    assert e_g1_g2 != FP12_ONE


def test_pairing_output_has_order_r(e_g1_g2):
    assert fp12_pow(e_g1_g2, CURVE_ORDER) == FP12_ONE


def test_bilinearity_left(e_g1_g2):
    assert pairing(g1 * 5, g2) == fp12_pow(e_g1_g2, 5)


def test_bilinearity_right(e_g1_g2):
    assert pairing(g1, g2 * 5) == fp12_pow(e_g1_g2, 5)


def test_bilinearity_both_sides(e_g1_g2):
    a, b = 31337, 271828
    assert pairing(g1 * a, g2 * b) == fp12_pow(e_g1_g2, a * b)


def test_pairing_with_identity():
    assert pairing(PointG1.identity(), g2) == FP12_ONE
    assert pairing(g1, PointG2.identity()) == FP12_ONE


def test_pairing_inverse(e_g1_g2):
    lhs = pairing(-g1, g2)
    assert fp12_mul(lhs, e_g1_g2) == FP12_ONE


def test_fast_final_exponentiation_matches_slow():
    m = miller_loop(g1 * 7, g2 * 11)
    assert final_exponentiation(m) == final_exponentiation_slow(m)


def test_multi_pairing_is_product(e_g1_g2):
    # e(2P, Q) * e(P, 3Q) = e(P, Q)^5
    out = multi_pairing([(g1 * 2, g2), (g1, g2 * 3)])
    assert out == fp12_pow(e_g1_g2, 5)


def test_multi_pairing_empty():
    assert multi_pairing([]) == FP12_ONE
    assert multi_pairing([(PointG1.identity(), g2)]) == FP12_ONE


def test_pairing_cancellation(e_g1_g2):
    # e(aP, Q) * e(-aP, Q) = 1
    out = multi_pairing([(g1 * 9, g2), (-(g1 * 9), g2)])
    assert out == FP12_ONE


# -- golden values and the lockstep oracle ------------------------------------

def _digest(f) -> str:
    coeffs = (c for c6 in f for c2 in c6 for c in c2)
    return hashlib.sha256(b"".join(c.to_bytes(32, "big") for c in coeffs)).hexdigest()[:32]


def _seeded_pairs(seed: int, n: int):
    rng = random.Random(seed)
    return [(g1 * rng.randrange(1, 1 << 64), g2 * rng.randrange(1, 1 << 64)) for _ in range(n)]


# Recorded from the reference tower (nested Fp2 helpers, one reduction per
# helper) and one Miller loop per pair with a per-step Fp2 inversion: the
# flat kernels and the lockstep loop must not move a bit.
GOLDEN_MILLER_7_11 = "bc783a69e4be8621087a6527072ff5bc"
GOLDEN_PAIRINGS = [  # _seeded_pairs(1, 3), one pairing each
    "1b5bb82ab52220915fe95095b5002bf2",
    "03906cc24e28bc675ccc7ce1e0171b45",
    "1c08614bb83c6ac5de247ea51d5cd3fb",
]
GOLDEN_MULTI = {  # multi_pairing(_seeded_pairs(100 + n, n))
    1: "e2a830f49612725c80914a092f512537",
    2: "861cbd5a53c3dbc509076a5cacbed944",
    3: "86a6059fa6ee6e09e14973d334904ec0",
    4: "c69ea3d7cd23239945e9a3e494c41c3a",
    5: "ebc77e9e188c03c35bbdb9864149db6f",
}


def test_raw_miller_loop_matches_golden():
    assert _digest(miller_loop(g1 * 7, g2 * 11)) == GOLDEN_MILLER_7_11


def test_pairings_match_golden():
    assert [_digest(pairing(p, q)) for p, q in _seeded_pairs(1, 3)] == GOLDEN_PAIRINGS


@pytest.mark.parametrize("n", sorted(GOLDEN_MULTI))
def test_multi_pairing_matches_golden(n):
    assert _digest(multi_pairing(_seeded_pairs(100 + n, n))) == GOLDEN_MULTI[n]


@pytest.mark.parametrize("n", range(6))
def test_lockstep_miller_is_product_of_single_loops(n):
    """Before the final exponentiation, so a batch-inversion slip shows."""
    pairs = _seeded_pairs(200 + n, n)
    mixed = [(PointG1.identity(), g2)]
    for p, q in pairs:
        mixed += [(p, q), (p, PointG2.identity())]
    expected = FP12_ONE
    for p, q in pairs:
        expected = fp12_mul(expected, miller_loop(p, q))
    assert _multi_miller(mixed) == expected
    assert _multi_miller(pairs) == expected


def test_step_through_t_equal_q_is_a_doubling():
    p, t = g1.xy, (g2 * 5).xy
    other = (g2 * 3).xy
    doubled = _step(FP12_ONE, [p, p], [other, t], None)
    assert _step(FP12_ONE, [p, p], [other, t], [other, t]) == doubled


def test_vertical_line_raises():
    p, t = g1.xy, (g2 * 5).xy
    neg_t = (t[0], fp2_neg(t[1]))
    with pytest.raises(CryptoError, match="vertical"):
        _step(FP12_ONE, [p, p], [t, t], [g2.xy, neg_t])


@pytest.mark.parametrize("where", range(3))
def test_zero_denominator_anywhere_raises(where):
    # A doubling through y = 0 has a zero slope denominator; one such pair
    # in a batch fails the shared inversion rather than returning a value.
    p, t = g1.xy, g2.xy
    ts = [t, t, t]
    ts[where] = (t[0], (0, 0))
    with pytest.raises(CryptoError, match="inverse of zero"):
        _step(FP12_ONE, [p] * 3, ts, None)
