"""BN254 (alt_bn128) curve constants and prime-field helpers.

The paper's cryptographic setting is an asymmetric bilinear pairing
``e: G x H -> G_T`` over groups of prime order.  We instantiate it with the
254-bit Barreto-Naehrig curve BN254 (the ``alt_bn128`` parameterisation used
by Ethereum and by the PBC library's type-F curves the paper's C++
implementation relied on).

All arithmetic here is over plain Python integers; extension towers live in
:mod:`repro.crypto.tower`.
"""

from __future__ import annotations

from repro.errors import CryptoError

# BN parameter u such that p = 36u^4 + 36u^3 + 24u^2 + 6u + 1.
BN_U = 4965661367192848881

#: Base field prime (the field the curve is defined over).
FIELD_MODULUS = 36 * BN_U**4 + 36 * BN_U**3 + 24 * BN_U**2 + 6 * BN_U + 1

#: Prime order of G1, G2 and GT (the scalar field / exponent group).
CURVE_ORDER = 36 * BN_U**4 + 36 * BN_U**3 + 18 * BN_U**2 + 6 * BN_U + 1

#: Trace of Frobenius: t = p + 1 - r.
TRACE = FIELD_MODULUS + 1 - CURVE_ORDER

#: Cofactor of the G2 twist group: #E'(Fp2) = c2 * r with c2 = p - 1 + t.
G2_COFACTOR = FIELD_MODULUS - 1 + TRACE

#: Short Weierstrass coefficient of E: y^2 = x^3 + 3 over Fp.
CURVE_B = 3

#: Optimal-ate Miller loop count: 6u + 2.
ATE_LOOP_COUNT = 6 * BN_U + 2

assert FIELD_MODULUS % 4 == 3, "sqrt shortcut below assumes p = 3 mod 4"


def mod_inv(a: int, modulus: int, field: str) -> int:
    """Multiplicative inverse of ``a`` modulo a prime; raises on zero.

    The one inversion helper for every field in the library.  It uses
    extended Euclid (``pow(a, -1, m)``), several times cheaper than the
    Fermat power ``a^(m-2)`` in CPython, which matters because the affine
    Miller loop and affine point additions invert once per step.  Zero is
    a :class:`CryptoError` (Fermat silently returns 0 for it, and
    ``pow(0, -1, m)`` raises a bare ``ValueError``).
    """
    a %= modulus
    if a == 0:
        raise CryptoError(f"inverse of zero in {field}")
    return pow(a, -1, modulus)


def fp_inv(a: int) -> int:
    """Multiplicative inverse in Fp; raises on zero."""
    return mod_inv(a, FIELD_MODULUS, "Fp")


def fp_sqrt(a: int) -> int | None:
    """Square root in Fp, or ``None`` if ``a`` is a non-residue.

    Uses the ``p = 3 mod 4`` shortcut ``a^((p+1)/4)``.
    """
    a %= FIELD_MODULUS
    root = pow(a, (FIELD_MODULUS + 1) // 4, FIELD_MODULUS)
    if root * root % FIELD_MODULUS != a:
        return None
    return root


def scalar_inv(a: int) -> int:
    """Multiplicative inverse modulo the curve (scalar) order; raises on zero."""
    return mod_inv(a, CURVE_ORDER, "the scalar field")
