"""GLV scalar multiplication for G1 (Gallant-Lambert-Vanstone).

BN curves have j-invariant 0, so E(Fp) carries the efficient
endomorphism ``phi(x, y) = (beta * x, y)`` where ``beta`` is a primitive
cube root of unity in Fp; on the order-r subgroup, ``phi`` acts as
multiplication by ``lam`` with ``lam^2 + lam + 1 = 0 (mod r)``.

A scalar ``k`` decomposes as ``k = k1 + k2 * lam (mod r)`` with
``|k1|, |k2| ~ sqrt(r)`` (lattice basis from the extended Euclidean
algorithm, per the original GLV paper), halving the doubling count of a
scalar multiplication via a simultaneous double-and-add on
``(P, phi(P))``.

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
    from repro.crypto.curve import G1_GENERATOR, PointG1, _Point

    betas = _cube_roots_of_unity(P)
    lams = _cube_roots_of_unity(R)
    gx, gy = G1_GENERATOR.xy
    for beta in betas:
        phi_g = PointG1((gx * beta % P, gy))
        for lam in lams:
            # Use the generic wNAF path directly: PointG1.__mul__ routes
            # through this module, which is still initializing here.
            if _Point.__mul__(G1_GENERATOR, lam) == phi_g:
                return beta, lam
    raise CryptoError("no (beta, lam) pairing found — curve constants broken")


BETA, LAM = _select_constants()


def _lattice_basis() -> tuple[tuple[int, int], tuple[int, int]]:
    """Short basis of the GLV lattice {(a, b) : a + b*lam = 0 mod r}.

    Extended Euclid on (r, lam); stop at the first remainder below
    sqrt(r) (the classic GLV construction).
    """
    limit = math.isqrt(R)
    r0, r1 = R, LAM
    t0, t1 = 0, 1
    seq = [(r0, t0), (r1, t1)]
    while seq[-1][0] >= limit:
        q = seq[-2][0] // seq[-1][0]
        seq.append((seq[-2][0] - q * seq[-1][0], seq[-2][1] - q * seq[-1][1]))
    rl, tl = seq[-1]
    rl1, tl1 = seq[-2]
    v1 = (rl, -tl)
    # Choose the shorter of the two neighbours for v2.
    rl2, tl2 = seq[-3] if len(seq) >= 3 else seq[-2]
    cand_a = (rl1, -tl1)
    cand_b = (seq[-1][0] - 0, 0)  # placeholder, replaced below
    # Standard choice: v2 = (r_{l+1}, -t_{l+1}) from one more step.
    q = rl1 // rl
    r_next, t_next = rl1 - q * rl, tl1 - q * tl
    cand_b = (r_next, -t_next)
    def norm(v):
        return v[0] * v[0] + v[1] * v[1]
    v2 = cand_a if norm(cand_a) <= norm(cand_b) else cand_b
    return v1, v2


_V1, _V2 = _lattice_basis()


def decompose(k: int) -> tuple[int, int]:
    """Split ``k mod r`` into (k1, k2) with ``k1 + k2*lam = k (mod r)``
    and both halves of roughly sqrt(r) magnitude (possibly negative)."""
    k %= R
    (a1, b1), (a2, b2) = _V1, _V2
    # Round k*(b2, -b1)/r to the nearest lattice vector.
    c1 = (b2 * k + R // 2) // R
    c2 = (-b1 * k + R // 2) // R
    k1 = k - c1 * a1 - c2 * a2
    k2 = -c1 * b1 - c2 * b2
    return k1, k2


def glv_mul(point, k: int):
    """GLV multiplication on G1: ``k * point`` via the endomorphism.

    Runs a simultaneous (Strauss-Shamir) double-and-add over the two
    half-length scalars in Jacobian coordinates.
    """
    from repro.crypto.curve import _FP_OPS, _jac_add, _jac_double, _jac_to_affine, PointG1

    if not isinstance(point, PointG1):
        raise CryptoError("GLV multiplication applies to G1 points only")
    k %= R
    if k == 0 or point.xy is None:
        return PointG1(None)
    k1, k2 = decompose(k)
    x, y = point.xy
    ops = _FP_OPS
    p1 = (x, y if k1 >= 0 else -y % P, 1)
    p2 = (x * BETA % P, y if k2 >= 0 else -y % P, 1)
    e1, e2 = abs(k1), abs(k2)
    both = _jac_add(p1, p2, ops)
    acc = (ops.one, ops.one, ops.zero)
    for i in range(max(e1.bit_length(), e2.bit_length()) - 1, -1, -1):
        acc = _jac_double(acc, ops)
        b1 = (e1 >> i) & 1
        b2 = (e2 >> i) & 1
        if b1 and b2:
            acc = _jac_add(acc, both, ops)
        elif b1:
            acc = _jac_add(acc, p1, ops)
        elif b2:
            acc = _jac_add(acc, p2, ops)
    return PointG1(_jac_to_affine(acc, ops))
