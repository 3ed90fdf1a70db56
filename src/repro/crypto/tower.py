"""Extension-field tower Fp2 -> Fp6 -> Fp12 for the BN254 pairing.

Representation (chosen for speed — plain tuples of ints, module-level
functions, no classes in the hot path):

* ``Fp2``  element: ``(a0, a1)`` meaning ``a0 + a1*i`` with ``i^2 = -1``.
* ``Fp6``  element: ``(c0, c1, c2)`` of Fp2, meaning ``c0 + c1*v + c2*v^2``
  with ``v^3 = XI`` where ``XI = 9 + i``.
* ``Fp12`` element: ``(d0, d1)`` of Fp6, meaning ``d0 + d1*w`` with
  ``w^2 = v``.

The sextic twist ``E': y^2 = x^3 + 3/XI`` over Fp2 untwists into E(Fp12)
via ``(x, y) -> (x*w^2, y*w^3)``.
"""

from __future__ import annotations

from repro.crypto.field import FIELD_MODULUS as P, fp_inv, mod_inv

Fp2 = tuple  # (int, int)
Fp6 = tuple  # (Fp2, Fp2, Fp2)
Fp12 = tuple  # (Fp6, Fp6)

FP2_ZERO: Fp2 = (0, 0)
FP2_ONE: Fp2 = (1, 0)

#: The non-residue XI = 9 + i used for the Fp6 extension and the twist.
XI: Fp2 = (9, 1)

FP6_ZERO: Fp6 = (FP2_ZERO, FP2_ZERO, FP2_ZERO)
FP6_ONE: Fp6 = (FP2_ONE, FP2_ZERO, FP2_ZERO)

FP12_ZERO: Fp12 = (FP6_ZERO, FP6_ZERO)
FP12_ONE: Fp12 = (FP6_ONE, FP6_ZERO)

#: 1/2 in Fp.
_INV2 = fp_inv(2)


# ---------------------------------------------------------------------------
# Fp2 arithmetic
# ---------------------------------------------------------------------------

def fp2_add(a: Fp2, b: Fp2) -> Fp2:
    return ((a[0] + b[0]) % P, (a[1] + b[1]) % P)


def fp2_sub(a: Fp2, b: Fp2) -> Fp2:
    return ((a[0] - b[0]) % P, (a[1] - b[1]) % P)


def fp2_neg(a: Fp2) -> Fp2:
    return (-a[0] % P, -a[1] % P)


def fp2_mul(a: Fp2, b: Fp2) -> Fp2:
    # Karatsuba over i^2 = -1.
    a0, a1 = a
    b0, b1 = b
    t0 = a0 * b0
    t1 = a1 * b1
    t2 = (a0 + a1) * (b0 + b1)
    return ((t0 - t1) % P, (t2 - t0 - t1) % P)


def fp2_mul_scalar(a: Fp2, k: int) -> Fp2:
    return (a[0] * k % P, a[1] * k % P)


def fp2_sq(a: Fp2) -> Fp2:
    a0, a1 = a
    # (a0 + a1 i)^2 = (a0-a1)(a0+a1) + 2 a0 a1 i
    return ((a0 - a1) * (a0 + a1) % P, 2 * a0 * a1 % P)


def fp2_inv(a: Fp2) -> Fp2:
    a0, a1 = a
    # The norm a0^2 + a1^2 is zero only for a = 0 (-1 is a non-residue).
    inv = mod_inv(a0 * a0 + a1 * a1, P, "Fp2")
    return (a0 * inv % P, -a1 * inv % P)


def fp2_conj(a: Fp2) -> Fp2:
    return (a[0], -a[1] % P)


def fp2_mul_xi(a: Fp2) -> Fp2:
    """Multiply by XI = 9 + i."""
    a0, a1 = a
    return ((9 * a0 - a1) % P, (a0 + 9 * a1) % P)


def fp2_pow(a: Fp2, e: int) -> Fp2:
    result = FP2_ONE
    base = a
    while e:
        if e & 1:
            result = fp2_mul(result, base)
        base = fp2_sq(base)
        e >>= 1
    return result


def fp2_sqrt(a: Fp2) -> Fp2 | None:
    """Square root in Fp2 (complex method); ``None`` for non-residues."""
    if a == FP2_ZERO:
        return FP2_ZERO
    a0, a1 = a
    if a1 == 0:
        # sqrt of an Fp element inside Fp2: either sqrt(a0) in Fp, or
        # sqrt(-a0)*i since i^2 = -1.
        r = pow(a0, (P + 1) // 4, P)
        if r * r % P == a0 % P:
            return (r, 0)
        r = pow(-a0 % P, (P + 1) // 4, P)
        if r * r % P == -a0 % P:
            return (0, r)
        return None
    # norm = a0^2 + a1^2 must be a residue in Fp.
    norm = (a0 * a0 + a1 * a1) % P
    n = pow(norm, (P + 1) // 4, P)
    if n * n % P != norm:
        return None
    for sign in (n, -n % P):
        x2 = (a0 + sign) * _INV2 % P
        x = pow(x2, (P + 1) // 4, P)
        if x * x % P != x2:
            continue
        if x == 0:
            continue
        y = a1 * fp_inv(2 * x) % P
        cand = (x, y)
        if fp2_sq(cand) == (a0 % P, a1 % P):
            return cand
    return None


# ---------------------------------------------------------------------------
# Fp6 arithmetic (c0 + c1 v + c2 v^2, v^3 = XI)
# ---------------------------------------------------------------------------

def fp6_add(a: Fp6, b: Fp6) -> Fp6:
    return (fp2_add(a[0], b[0]), fp2_add(a[1], b[1]), fp2_add(a[2], b[2]))


def fp6_sub(a: Fp6, b: Fp6) -> Fp6:
    return (fp2_sub(a[0], b[0]), fp2_sub(a[1], b[1]), fp2_sub(a[2], b[2]))


def fp6_neg(a: Fp6) -> Fp6:
    return (fp2_neg(a[0]), fp2_neg(a[1]), fp2_neg(a[2]))


def fp6_mul(a: Fp6, b: Fp6) -> Fp6:
    a0, a1, a2 = a
    b0, b1, b2 = b
    t0 = fp2_mul(a0, b0)
    t1 = fp2_mul(a1, b1)
    t2 = fp2_mul(a2, b2)
    # Karatsuba-style interpolation.
    c0 = fp2_add(t0, fp2_mul_xi(fp2_sub(fp2_mul(fp2_add(a1, a2), fp2_add(b1, b2)), fp2_add(t1, t2))))
    c1 = fp2_add(
        fp2_sub(fp2_mul(fp2_add(a0, a1), fp2_add(b0, b1)), fp2_add(t0, t1)),
        fp2_mul_xi(t2),
    )
    c2 = fp2_add(fp2_sub(fp2_mul(fp2_add(a0, a2), fp2_add(b0, b2)), fp2_add(t0, t2)), t1)
    return (c0, c1, c2)


def fp6_sq(a: Fp6) -> Fp6:
    return fp6_mul(a, a)


def fp6_mul_fp2(a: Fp6, k: Fp2) -> Fp6:
    return (fp2_mul(a[0], k), fp2_mul(a[1], k), fp2_mul(a[2], k))


def fp6_mul_v(a: Fp6) -> Fp6:
    """Multiply by v: (c0, c1, c2) -> (XI*c2, c0, c1)."""
    return (fp2_mul_xi(a[2]), a[0], a[1])


def fp6_inv(a: Fp6) -> Fp6:
    a0, a1, a2 = a
    t0 = fp2_sq(a0)
    t1 = fp2_sq(a1)
    t2 = fp2_sq(a2)
    t3 = fp2_mul(a0, a1)
    t4 = fp2_mul(a0, a2)
    t5 = fp2_mul(a1, a2)
    c0 = fp2_sub(t0, fp2_mul_xi(t5))
    c1 = fp2_sub(fp2_mul_xi(t2), t3)
    c2 = fp2_sub(t1, t4)
    # norm = a0*c0 + XI*(a2*c1 + a1*c2)
    norm = fp2_add(
        fp2_mul(a0, c0),
        fp2_mul_xi(fp2_add(fp2_mul(a2, c1), fp2_mul(a1, c2))),
    )
    ninv = fp2_inv(norm)
    return (fp2_mul(c0, ninv), fp2_mul(c1, ninv), fp2_mul(c2, ninv))


# ---------------------------------------------------------------------------
# Fp12 arithmetic (d0 + d1 w, w^2 = v)
# ---------------------------------------------------------------------------

def fp12_add(a: Fp12, b: Fp12) -> Fp12:
    return (fp6_add(a[0], b[0]), fp6_add(a[1], b[1]))


def fp12_mul(a: Fp12, b: Fp12) -> Fp12:
    a0, a1 = a
    b0, b1 = b
    t0 = fp6_mul(a0, b0)
    t1 = fp6_mul(a1, b1)
    c1 = fp6_sub(fp6_mul(fp6_add(a0, a1), fp6_add(b0, b1)), fp6_add(t0, t1))
    c0 = fp6_add(t0, fp6_mul_v(t1))
    return (c0, c1)


def fp12_sq(a: Fp12) -> Fp12:
    a0, a1 = a
    # complex squaring: c0 = (a0+a1)(a0+v a1) - t - v t ; c1 = 2t, t = a0 a1
    t = fp6_mul(a0, a1)
    c0 = fp6_sub(
        fp6_mul(fp6_add(a0, a1), fp6_add(a0, fp6_mul_v(a1))),
        fp6_add(t, fp6_mul_v(t)),
    )
    return (c0, fp6_add(t, t))


def fp12_inv(a: Fp12) -> Fp12:
    a0, a1 = a
    norm = fp6_sub(fp6_sq(a0), fp6_mul_v(fp6_sq(a1)))
    ninv = fp6_inv(norm)
    return (fp6_mul(a0, ninv), fp6_neg(fp6_mul(a1, ninv)))


def fp12_conj(a: Fp12) -> Fp12:
    """Conjugation (the p^6 Frobenius): negates the w part.

    For elements of the cyclotomic subgroup this equals inversion.
    """
    return (a[0], fp6_neg(a[1]))


def fp12_pow(a: Fp12, e: int) -> Fp12:
    if e < 0:
        a = fp12_inv(a)
        e = -e
    result = FP12_ONE
    base = a
    while e:
        if e & 1:
            result = fp12_mul(result, base)
        base = fp12_sq(base)
        e >>= 1
    return result


def fp12_mul_line(f: Fp12, a: int, b: Fp2, c: Fp2) -> Fp12:
    """Sparse multiplication of ``f`` by the line ``a + b*w + c*(v*w)``.

    ``a`` is an Fp scalar (the y-coordinate of the G1 point), ``b`` and
    ``c`` are Fp2.  Derivation in :mod:`repro.crypto.pairing`.
    """
    f0, f1 = f
    # L = (A, B) with A = (a, 0, 0), B = (b, c, 0) in Fp6 coordinates.
    # f*L = (f0*A + f1*B*v, f0*B + f1*A)
    u0, u1, u2 = f1
    # f1 * B  (sparse Fp6 mult by (b, c, 0))
    f1b = (
        fp2_add(fp2_mul(u0, b), fp2_mul_xi(fp2_mul(u2, c))),
        fp2_add(fp2_mul(u0, c), fp2_mul(u1, b)),
        fp2_add(fp2_mul(u1, c), fp2_mul(u2, b)),
    )
    g0, g1, g2 = f0
    # f0 * B
    f0b = (
        fp2_add(fp2_mul(g0, b), fp2_mul_xi(fp2_mul(g2, c))),
        fp2_add(fp2_mul(g0, c), fp2_mul(g1, b)),
        fp2_add(fp2_mul(g1, c), fp2_mul(g2, b)),
    )
    f0a = (fp2_mul_scalar(g0, a), fp2_mul_scalar(g1, a), fp2_mul_scalar(g2, a))
    f1a = (fp2_mul_scalar(u0, a), fp2_mul_scalar(u1, a), fp2_mul_scalar(u2, a))
    c0 = fp6_add(f0a, fp6_mul_v(f1b))
    c1 = fp6_add(f0b, f1a)
    return (c0, c1)


def _fp4_sq(a: Fp2, b: Fp2) -> tuple[Fp2, Fp2]:
    """Squaring in Fp4 = Fp2[t]/(t^2 - XI): (a + b*t)^2."""
    t0 = fp2_sq(a)
    t1 = fp2_sq(b)
    c0 = fp2_add(fp2_mul_xi(t1), t0)
    c1 = fp2_sub(fp2_sub(fp2_sq(fp2_add(a, b)), t0), t1)
    return c0, c1


def fp12_cyclotomic_sq(f: Fp12) -> Fp12:
    """Granger-Scott squaring, valid only in the cyclotomic subgroup.

    Elements that survive the easy part of the final exponentiation
    (f^((p^6-1)(p^2+1))) live in the cyclotomic subgroup, where squaring
    admits this cheaper compressed form (9 Fp2 squarings instead of a
    full Fp12 squaring).  Using it outside the subgroup gives wrong
    results — callers must guarantee membership.
    """
    (c00, c01, c02), (c10, c11, c12) = f
    t0, t1 = _fp4_sq(c00, c11)
    t2, t3 = _fp4_sq(c10, c02)
    t4, t5 = _fp4_sq(c01, c12)
    t6 = fp2_mul_xi(t5)
    r00 = fp2_add(fp2_add(fp2_sub(t0, c00), fp2_sub(t0, c00)), t0)
    r01 = fp2_add(fp2_add(fp2_sub(t2, c01), fp2_sub(t2, c01)), t2)
    r02 = fp2_add(fp2_add(fp2_sub(t4, c02), fp2_sub(t4, c02)), t4)
    r10 = fp2_add(fp2_add(fp2_add(t6, c10), fp2_add(t6, c10)), t6)
    r11 = fp2_add(fp2_add(fp2_add(t1, c11), fp2_add(t1, c11)), t1)
    r12 = fp2_add(fp2_add(fp2_add(t3, c12), fp2_add(t3, c12)), t3)
    return ((r00, r01, r02), (r10, r11, r12))


def fp12_cyclotomic_pow(f: Fp12, e: int) -> Fp12:
    """Exponentiation using cyclotomic squaring (subgroup members only).

    Negative exponents use conjugation (= inversion in the subgroup).
    """
    if e < 0:
        f = fp12_conj(f)
        e = -e
    result = FP12_ONE
    base = f
    while e:
        if e & 1:
            result = fp12_mul(result, base)
        base = fp12_cyclotomic_sq(base)
        e >>= 1
    return result


# ---------------------------------------------------------------------------
# Frobenius endomorphism
# ---------------------------------------------------------------------------

def _compute_gammas() -> list[Fp2]:
    """gamma_i = XI^((p-1)*i/6) for i in 1..5 (Fp2 constants)."""
    base = fp2_pow(XI, (P - 1) // 6)
    gammas = [base]
    for _ in range(4):
        gammas.append(fp2_mul(gammas[-1], base))
    return gammas


#: gamma[i-1] = XI^((p-1)i/6); used in Frobenius maps.
GAMMA: list[Fp2] = _compute_gammas()


def fp6_frobenius(a: Fp6) -> Fp6:
    """p-power Frobenius on Fp6: conjugate coefficients, twist v powers."""
    return (
        fp2_conj(a[0]),
        fp2_mul(fp2_conj(a[1]), GAMMA[1]),  # v^p = gamma_2 * v
        fp2_mul(fp2_conj(a[2]), GAMMA[3]),  # v^2p = gamma_4 * v^2
    )


def fp12_frobenius(a: Fp12) -> Fp12:
    """p-power Frobenius on Fp12."""
    a0, a1 = a
    b0 = fp6_frobenius(a0)
    t = fp6_frobenius(a1)
    # w^p = gamma_1 * w
    b1 = fp6_mul_fp2(t, GAMMA[0])
    return (b0, b1)


def fp12_frobenius_n(a: Fp12, n: int) -> Fp12:
    for _ in range(n % 12):
        a = fp12_frobenius(a)
    return a
