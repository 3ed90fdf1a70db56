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

The pairing's hot kernels — :func:`fp6_mul`, :func:`fp12_mul`,
:func:`fp12_sq`, :func:`fp12_mul_line` and :func:`fp12_cyclotomic_sq` —
are straight-line integer code with lazy reduction: they unpack to plain
ints, keep Karatsuba at every level, and reduce once per output
coefficient rather than after every Fp2 operation.  The three Fp12
routines share one unreduced Fp6 product, :func:`_fp6_mul_raw`.  Every
function returns fully reduced coefficients, so results are bit-identical
to a helper-by-helper evaluation.
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


def _fp6_mul_raw(a0, a1, a2, a3, a4, a5, b0, b1, b2, b3, b4, b5):
    """Unreduced Fp6 product over 12 ints (six Fp2 Karatsuba products).

    ``a = A0 + A1 v + A2 v^2`` with ``A0 = a0 + a1 i``, ``A1 = a2 + a3 i``,
    ``A2 = a4 + a5 i``, and likewise ``b``; ``t_k = A_k B_k``.  Inputs may
    be any integers (unreduced, negative); the six outputs are congruent
    to the product's coefficients but unreduced — callers reduce once per
    output coefficient.
    """
    m = a0 * b0
    n = a1 * b1
    t0r = m - n
    t0i = (a0 + a1) * (b0 + b1) - m - n
    m = a2 * b2
    n = a3 * b3
    t1r = m - n
    t1i = (a2 + a3) * (b2 + b3) - m - n
    m = a4 * b4
    n = a5 * b5
    t2r = m - n
    t2i = (a4 + a5) * (b4 + b5) - m - n
    # c0 = t0 + XI * ((A1 + A2)(B1 + B2) - t1 - t2)
    x0 = a2 + a4
    x1 = a3 + a5
    y0 = b2 + b4
    y1 = b3 + b5
    m = x0 * y0
    n = x1 * y1
    sr = m - n - t1r - t2r
    si = (x0 + x1) * (y0 + y1) - m - n - t1i - t2i
    # c1 = (A0 + A1)(B0 + B1) - t0 - t1 + XI * t2
    x0 = a0 + a2
    x1 = a1 + a3
    y0 = b0 + b2
    y1 = b1 + b3
    m = x0 * y0
    n = x1 * y1
    c1r = m - n - t0r - t1r + 9 * t2r - t2i
    c1i = (x0 + x1) * (y0 + y1) - m - n - t0i - t1i + t2r + 9 * t2i
    # c2 = (A0 + A2)(B0 + B2) - t0 - t2 + t1
    x0 = a0 + a4
    x1 = a1 + a5
    y0 = b0 + b4
    y1 = b1 + b5
    m = x0 * y0
    n = x1 * y1
    c2r = m - n - t0r - t2r + t1r
    c2i = (x0 + x1) * (y0 + y1) - m - n - t0i - t2i + t1i
    return t0r + 9 * sr - si, t0i + sr + 9 * si, c1r, c1i, c2r, c2i


def fp6_mul(a: Fp6, b: Fp6) -> Fp6:
    (a0, a1), (a2, a3), (a4, a5) = a
    (b0, b1), (b2, b3), (b4, b5) = b
    c0, c1, c2, c3, c4, c5 = _fp6_mul_raw(a0, a1, a2, a3, a4, a5, b0, b1, b2, b3, b4, b5)
    return ((c0 % P, c1 % P), (c2 % P, c3 % P), (c4 % P, c5 % P))


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

def fp12_mul(a: Fp12, b: Fp12) -> Fp12:
    # Karatsuba over w^2 = v on the Fp6 halves a = A0 + A1 w, b = B0 + B1 w:
    # c0 = t + v u, c1 = (A0 + A1)(B0 + B1) - t - u with t = A0 B0, u = A1 B1.
    ((a0, a1), (a2, a3), (a4, a5)), ((a6, a7), (a8, a9), (a10, a11)) = a
    ((b0, b1), (b2, b3), (b4, b5)), ((b6, b7), (b8, b9), (b10, b11)) = b
    t0, t1, t2, t3, t4, t5 = _fp6_mul_raw(a0, a1, a2, a3, a4, a5, b0, b1, b2, b3, b4, b5)
    u0, u1, u2, u3, u4, u5 = _fp6_mul_raw(a6, a7, a8, a9, a10, a11, b6, b7, b8, b9, b10, b11)
    s0, s1, s2, s3, s4, s5 = _fp6_mul_raw(
        a0 + a6, a1 + a7, a2 + a8, a3 + a9, a4 + a10, a5 + a11,
        b0 + b6, b1 + b7, b2 + b8, b3 + b9, b4 + b10, b5 + b11,
    )
    # v u = XI U2 + U0 v + U1 v^2 with U0 = (u0, u1), U1 = (u2, u3), U2 = (u4, u5).
    return (
        (((t0 + 9 * u4 - u5) % P, (t1 + u4 + 9 * u5) % P),
         ((t2 + u0) % P, (t3 + u1) % P),
         ((t4 + u2) % P, (t5 + u3) % P)),
        (((s0 - t0 - u0) % P, (s1 - t1 - u1) % P),
         ((s2 - t2 - u2) % P, (s3 - t3 - u3) % P),
         ((s4 - t4 - u4) % P, (s5 - t5 - u5) % P)),
    )


def fp12_sq(a: Fp12) -> Fp12:
    # Complex squaring of a = A0 + A1 w: with t = A0 A1,
    # c0 = (A0 + A1)(A0 + v A1) - t - v t and c1 = 2t.
    ((a0, a1), (a2, a3), (a4, a5)), ((a6, a7), (a8, a9), (a10, a11)) = a
    t0, t1, t2, t3, t4, t5 = _fp6_mul_raw(a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11)
    s0, s1, s2, s3, s4, s5 = _fp6_mul_raw(
        a0 + a6, a1 + a7, a2 + a8, a3 + a9, a4 + a10, a5 + a11,
        a0 + 9 * a10 - a11, a1 + a10 + 9 * a11, a2 + a6, a3 + a7, a4 + a8, a5 + a9,
    )
    return (
        (((s0 - t0 - 9 * t4 + t5) % P, (s1 - t1 - t4 - 9 * t5) % P),
         ((s2 - t2 - t0) % P, (s3 - t3 - t1) % P),
         ((s4 - t4 - t2) % P, (s5 - t5 - t3) % P)),
        ((2 * t0 % P, 2 * t1 % P), (2 * t2 % P, 2 * t3 % P), (2 * t4 % P, 2 * t5 % P)),
    )


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
    # L = (A, B) with A = a (an Fp scalar) and B = b + c v; Karatsuba:
    # f L = (f0 A + v f1 B, (f0 + f1)(A + B) - f0 A - f1 B).
    ((f0, f1), (f2, f3), (f4, f5)), ((f6, f7), (f8, f9), (f10, f11)) = f
    b0, b1 = b
    c0, c1 = c
    u0, u1, u2, u3, u4, u5 = _fp6_mul_raw(f6, f7, f8, f9, f10, f11, b0, b1, c0, c1, 0, 0)
    s0, s1, s2, s3, s4, s5 = _fp6_mul_raw(
        f0 + f6, f1 + f7, f2 + f8, f3 + f9, f4 + f10, f5 + f11, a + b0, b1, c0, c1, 0, 0
    )
    t0, t1, t2, t3, t4, t5 = a * f0, a * f1, a * f2, a * f3, a * f4, a * f5
    return (
        (((t0 + 9 * u4 - u5) % P, (t1 + u4 + 9 * u5) % P),
         ((t2 + u0) % P, (t3 + u1) % P),
         ((t4 + u2) % P, (t5 + u3) % P)),
        (((s0 - t0 - u0) % P, (s1 - t1 - u1) % P),
         ((s2 - t2 - u2) % P, (s3 - t3 - u3) % P),
         ((s4 - t4 - u4) % P, (s5 - t5 - u5) % P)),
    )


def fp12_cyclotomic_sq(f: Fp12) -> Fp12:
    """Granger-Scott squaring, valid only in the cyclotomic subgroup.

    Elements that survive the easy part of the final exponentiation
    (f^((p^6-1)(p^2+1))) live in the cyclotomic subgroup, where squaring
    admits this cheaper compressed form (three Fp4 squarings, nine Fp2
    squarings, instead of a full Fp12 squaring).  Using it outside the
    subgroup gives wrong results — callers must guarantee membership.
    """
    ((c0, c1), (c2, c3), (c4, c5)), ((c6, c7), (c8, c9), (c10, c11)) = f
    # f = ((C00, C01, C02), (C10, C11, C12)) over Fp2.  Three Fp4 squarings
    # (x + y t)^2 = (x^2 + XI y^2) + ((x + y)^2 - x^2 - y^2) t over
    # Fp4 = Fp2[t]/(t^2 - XI), on the pairs (C00, C11), (C10, C02), (C01, C12).
    x0r, x0i = (c0 - c1) * (c0 + c1), 2 * c0 * c1
    y0r, y0i = (c8 - c9) * (c8 + c9), 2 * c8 * c9
    s0, d0 = c0 + c8, c1 + c9
    x1r, x1i = (c6 - c7) * (c6 + c7), 2 * c6 * c7
    y1r, y1i = (c4 - c5) * (c4 + c5), 2 * c4 * c5
    s1, d1 = c6 + c4, c7 + c5
    x2r, x2i = (c2 - c3) * (c2 + c3), 2 * c2 * c3
    y2r, y2i = (c10 - c11) * (c10 + c11), 2 * c10 * c11
    s2, d2 = c2 + c10, c3 + c11
    t0r, t0i = x0r + 9 * y0r - y0i, x0i + y0r + 9 * y0i
    t1r, t1i = (s0 - d0) * (s0 + d0) - x0r - y0r, 2 * s0 * d0 - x0i - y0i
    t2r, t2i = x1r + 9 * y1r - y1i, x1i + y1r + 9 * y1i
    t3r, t3i = (s1 - d1) * (s1 + d1) - x1r - y1r, 2 * s1 * d1 - x1i - y1i
    t4r, t4i = x2r + 9 * y2r - y2i, x2i + y2r + 9 * y2i
    t5r, t5i = (s2 - d2) * (s2 + d2) - x2r - y2r, 2 * s2 * d2 - x2i - y2i
    # R0j = 3 T - 2 C0j and R1j = 3 T + 2 C1j, with XI T5 feeding R10.
    return (
        ((3 * t0r - 2 * c0) % P, (3 * t0i - 2 * c1) % P),
        ((3 * t2r - 2 * c2) % P, (3 * t2i - 2 * c3) % P),
        ((3 * t4r - 2 * c4) % P, (3 * t4i - 2 * c5) % P),
    ), (
        ((3 * (9 * t5r - t5i) + 2 * c6) % P, (3 * (t5r + 9 * t5i) + 2 * c7) % P),
        ((3 * t1r + 2 * c8) % P, (3 * t1i + 2 * c9) % P),
        ((3 * t3r + 2 * c10) % P, (3 * t3i + 2 * c11) % P),
    )


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
