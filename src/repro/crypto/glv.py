"""GLV scalar decomposition for BN254 (Gallant-Lambert-Vanstone).

BN curves have j-invariant 0, so E(Fp) carries the efficient
endomorphism ``phi(x, y) = (beta * x, y)`` where ``beta`` is a primitive
cube root of unity in Fp; on the order-r subgroup, ``phi`` acts as
multiplication by ``lam`` with ``lam^2 + lam + 1 = 0 (mod r)``.  The
twist carries the same endomorphism over Fp2 (resolved per field by
``repro.crypto.curve._msm_endo``).

A scalar ``k`` decomposes as ``k = k1 + k2 * lam (mod r)`` with
``|k1|, |k2| < 2^GLV_HALF_BITS`` (lattice basis from the extended
Euclidean algorithm, per the original GLV paper; the bound is derived
from the basis and checked at import).  Every BN254 exponentiation scans
the two halves together — a fixed-base comb over ``(P, phi(P))`` or
Straus over the same pair — halving its doubling count.

The (beta, lam) pairing is validated numerically at import: out of the
two cube roots on each side, the pair satisfying ``phi(G) = lam * G`` is
selected, so the module cannot load in a miscompiled state.
"""

from __future__ import annotations

import math

from repro.crypto.field import CURVE_ORDER as R, FIELD_MODULUS as P, mod_inv
from repro.errors import CryptoError


def _cube_roots_of_unity(modulus: int) -> list[int]:
    """The two primitive cube roots of unity mod a prime = 1 mod 3."""
    # x^2 + x + 1 = 0  =>  x = (-1 +- sqrt(-3)) / 2.
    s = pow(-3 % modulus, (modulus + 1) // 4, modulus)
    if s * s % modulus != -3 % modulus:
        # modulus = 1 mod 4: use Tonelli-Shanks via pow on a QR check.
        s = _sqrt_mod(-3 % modulus, modulus)
    inv2 = mod_inv(2, modulus, "the GLV modulus")
    roots = [((-1 + s) * inv2) % modulus, ((-1 - s) * inv2) % modulus]
    for root in roots:
        if (root * root + root + 1) % modulus != 0:
            raise CryptoError("cube-root computation failed")
    return roots


def _sqrt_mod(a: int, p: int) -> int:
    """Tonelli-Shanks square root (p odd prime, a a QR)."""
    if pow(a, (p - 1) // 2, p) != 1:
        raise CryptoError("not a quadratic residue")
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r_ = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t = t * c % p
        r_ = r_ * b % p
    return r_


def _select_constants() -> tuple[int, int]:
    """Pick (beta mod p, lam mod r) with phi(G) = lam*G on the generator."""
    from repro.crypto.curve import _FP_OPS, G1_GENERATOR, _jac_scalar_mul, _jac_to_affine

    betas = _cube_roots_of_unity(P)
    lams = _cube_roots_of_unity(R)
    gx, gy = G1_GENERATOR.xy
    for beta in betas:
        for lam in lams:
            # Plain wNAF: PointG1.__mul__ GLV-splits through this module,
            # which is still initializing here.
            lam_g = _jac_to_affine(_jac_scalar_mul((gx, gy), lam, _FP_OPS), _FP_OPS)
            if lam_g == (gx * beta % P, gy):
                return beta, lam
    raise CryptoError("no (beta, lam) pairing found — curve constants broken")


BETA, LAM = _select_constants()


def _lattice_basis() -> tuple[tuple[int, int], tuple[int, int]]:
    """Short basis of the GLV lattice {(a, b) : a + b*lam = 0 mod r}.

    Extended Euclid on (r, lam); stop at the first remainder below
    sqrt(r) (the classic GLV construction).  ``v1`` comes from that
    remainder; ``v2`` is the shorter of its two neighbours.
    """
    limit = math.isqrt(R)
    seq = [(R, 0), (LAM, 1)]  # (r_i, t_i) with r_i = t_i * lam (mod r)
    while seq[-1][0] >= limit:
        q = seq[-2][0] // seq[-1][0]
        seq.append((seq[-2][0] - q * seq[-1][0], seq[-2][1] - q * seq[-1][1]))
    (rl, tl), (rl1, tl1) = seq[-1], seq[-2]
    q = rl1 // rl
    before, after = (rl1, -tl1), (rl1 - q * rl, -(tl1 - q * tl))

    def norm(v):
        return v[0] * v[0] + v[1] * v[1]

    return (rl, -tl), (before if norm(before) <= norm(after) else after)


_V1, _V2 = _lattice_basis()


def _half_bound(v1: tuple[int, int], v2: tuple[int, int]) -> int:
    """Largest ``|k1|`` or ``|k2|`` that :func:`decompose` can return.

    With ``det(v1, v2) = r``, the exact solution of
    ``(k, 0) = x1 * v1 + x2 * v2`` is ``x1 = b2 k / r``, ``x2 = -b1 k / r``,
    so ``(k1, k2) = -(c1 - x1) v1 - (c2 - x2) v2`` for the rounded
    ``c1, c2``.  Rounding by ``floor(x + (r - 1) / 2r)`` errs by less than
    ``1/2 + 1/2r``, hence ``|k1| < (|a1| + |a2|) / 2 + 1`` and likewise
    ``|k2|`` with ``b1, b2`` (``|a_i|, |b_i| < r``).
    """
    (a1, b1), (a2, b2) = v1, v2
    if a1 * b2 - a2 * b1 != R:
        raise CryptoError("GLV basis determinant is not r — decompose() would not reduce")
    return max(abs(a1) + abs(a2), abs(b1) + abs(b2)) // 2 + 1


#: Bits per half that the fixed-base comb tables cover.
GLV_HALF_BITS = 126

#: Proven bound: ``|k1|, |k2| <= HALF_BOUND`` for every scalar.
HALF_BOUND = _half_bound(_V1, _V2)
if HALF_BOUND >> GLV_HALF_BITS:
    raise CryptoError(f"GLV halves need {HALF_BOUND.bit_length()} bits, combs cover {GLV_HALF_BITS}")


def decompose(k: int) -> tuple[int, int]:
    """Split ``k mod r`` into (k1, k2) with ``k1 + k2*lam = k (mod r)``
    and ``|k1|, |k2| <= HALF_BOUND`` (either may be negative or zero)."""
    k %= R
    (a1, b1), (a2, b2) = _V1, _V2
    # Round k*(b2, -b1)/r to the nearest lattice vector.
    c1 = (b2 * k + R // 2) // R
    c2 = (-b1 * k + R // 2) // R
    k1 = k - c1 * a1 - c2 * a2
    k2 = -c1 * b1 - c2 * b2
    return k1, k2
