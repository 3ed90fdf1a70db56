"""Tests for BN254 field constants and Fp helpers."""

import pytest
from hypothesis import given, strategies as st

from repro.crypto import tower
from repro.crypto.curve import _FP2_OPS, _FP_OPS
from repro.crypto.field import (
    ATE_LOOP_COUNT,
    BN_U,
    CURVE_ORDER,
    FIELD_MODULUS,
    G2_COFACTOR,
    TRACE,
    fp_inv,
    fp_sqrt,
    mod_inv,
    scalar_inv,
)
from repro.errors import CryptoError


def test_bn_parameterization():
    u = BN_U
    assert FIELD_MODULUS == 36 * u**4 + 36 * u**3 + 24 * u**2 + 6 * u + 1
    assert CURVE_ORDER == 36 * u**4 + 36 * u**3 + 18 * u**2 + 6 * u + 1
    assert ATE_LOOP_COUNT == 6 * u + 2
    assert TRACE == FIELD_MODULUS + 1 - CURVE_ORDER
    assert G2_COFACTOR == FIELD_MODULUS - 1 + TRACE


def test_moduli_are_prime():
    # Miller-Rabin via sympy-free check: use pow-based Fermat + known values.
    # These are standardized primes; spot-check Fermat witnesses.
    for p in (FIELD_MODULUS, CURVE_ORDER):
        for a in (2, 3, 5, 7, 11):
            assert pow(a, p - 1, p) == 1


def test_field_bit_lengths():
    assert FIELD_MODULUS.bit_length() == 254
    assert CURVE_ORDER.bit_length() == 254


@given(st.integers(min_value=1, max_value=FIELD_MODULUS - 1))
def test_fp_inv(a):
    assert a * fp_inv(a) % FIELD_MODULUS == 1


def test_fp_inv_zero_raises():
    with pytest.raises(CryptoError):
        fp_inv(0)
    with pytest.raises(CryptoError):
        fp_inv(FIELD_MODULUS)


@given(st.integers(min_value=0, max_value=FIELD_MODULUS - 1))
def test_fp_sqrt_roundtrip(a):
    square = a * a % FIELD_MODULUS
    root = fp_sqrt(square)
    assert root is not None
    assert root * root % FIELD_MODULUS == square


def test_fp_sqrt_nonresidue():
    # -1 is a non-residue when p = 3 mod 4.
    assert FIELD_MODULUS % 4 == 3
    assert fp_sqrt(FIELD_MODULUS - 1) is None


@given(st.integers(min_value=1, max_value=CURVE_ORDER - 1))
def test_scalar_inv(a):
    assert a * scalar_inv(a) % CURVE_ORDER == 1


def test_scalar_inv_zero_raises():
    with pytest.raises(CryptoError):
        scalar_inv(CURVE_ORDER)


@pytest.mark.parametrize(
    "invert",
    [
        lambda: fp_inv(0),
        lambda: scalar_inv(0),
        lambda: tower.fp2_inv(tower.FP2_ZERO),
        lambda: tower.fp2_inv((FIELD_MODULUS, 2 * FIELD_MODULUS)),
        lambda: _FP_OPS.inv(0),
        lambda: _FP2_OPS.inv(tower.FP2_ZERO),
        lambda: mod_inv(0, 7, "F7"),
    ],
    ids=["fp", "scalar", "fp2", "fp2-unreduced", "g1-ops", "g2-ops", "mod_inv"],
)
def test_inverting_zero_is_a_crypto_error_on_every_path(invert):
    # Fermat's a^(m-2) returns 0 for 0 and pow(0, -1, m) raises a bare
    # ValueError; every inversion must go through the checked helper.
    with pytest.raises(CryptoError, match="inverse of zero"):
        invert()

