"""Optimal-ate pairing on BN254.

``pairing(P, Q)`` maps ``(P in G1, Q in G2) -> GT`` (an Fp12 element of the
order-r cyclotomic subgroup).  The Miller loop runs over the twist E'(Fp2)
with affine line functions; each line evaluates at the G1 argument into a
sparse Fp12 element multiplied in with
:func:`repro.crypto.tower.fp12_mul_line`.

There is one Miller loop, :func:`_multi_miller`, and it runs any number of
pairs in lockstep (Enge-Milan's product of pairings): one Fp12 accumulator
takes one squaring per loop bit for all pairs, and each line step inverts
every pair's slope denominator with a single field inversion (Montgomery's
trick over the Fp2 norms).  In CPython one ``pow(x, -1, p)`` costs about
20 us, against well under 1 us for a 254-bit modular multiplication.
Lines stay affine, so the raw Miller value of a product equals the
product of the single-pair values bit for bit.  :func:`miller_loop`,
:func:`pairing` and :func:`multi_pairing` all run it.

Line derivation (D-twist, untwist ``(x', y') -> (x' w^2, y' w^3)``): a line
through untwisted points with slope ``lam*w`` evaluated at ``P = (xP, yP)``
is ``yP - lam*xP*w + (lam*xT - yT)*w^3`` and ``w^3 = v*w``, i.e. the sparse
element ``a + b*w + c*(v*w)`` with ``a = yP``, ``b = -lam*xP``,
``c = lam*xT - yT``.

Final exponentiation uses the easy part plus the Devegili et al. hard-part
addition chain; a direct-exponentiation fallback
(:func:`final_exponentiation_slow`) is kept for cross-validation in tests.
"""

from __future__ import annotations

from repro.crypto.curve import _FP_OPS, PointG1, PointG2, batch_inv, g2_psi
from repro.crypto.field import ATE_LOOP_COUNT, BN_U, CURVE_ORDER, FIELD_MODULUS as P
from repro.crypto.tower import (
    FP12_ONE,
    fp12_cyclotomic_pow,
    fp12_cyclotomic_sq,
    Fp12,
    fp2_mul,
    fp2_mul_scalar,
    fp2_neg,
    fp2_sq,
    fp2_sub,
    fp2_add,
    fp12_conj,
    fp12_frobenius,
    fp12_frobenius_n,
    fp12_inv,
    fp12_mul,
    fp12_mul_line,
    fp12_pow,
    fp12_sq,
)
from repro.errors import CryptoError


def _step(f: Fp12, ps, ts, qs) -> tuple[Fp12, list]:
    """One Miller-loop line step for every pair; returns (f * lines, new T's).

    ``ps`` are affine G1 points, ``ts`` the running affine twist points,
    ``qs`` the points to add to each T — or ``None`` to double every T.
    A step through ``T == Q`` is a doubling; a vertical line raises.  All
    slope denominators share one inversion of their Fp2 norms.
    """
    slopes = []
    for i, t in enumerate(ts):
        (xt, yt) = t
        q = t if qs is None else qs[i]
        if q == t:
            # Tangent: lam = 3 xT^2 / 2 yT.
            num = fp2_mul_scalar(fp2_sq(xt), 3)
            den = fp2_add(yt, yt)
        elif xt == q[0]:
            # A vertical through T and -T never occurs in the optimal-ate
            # loop for subgroup points; refuse it rather than guess.
            raise CryptoError("degenerate vertical line in Miller loop")
        else:
            num = fp2_sub(q[1], yt)
            den = fp2_sub(q[0], xt)
        slopes.append((num, den, q[0]))
    # 1/(d0 + d1 i) = (d0 - d1 i) / (d0^2 + d1^2); the norm is zero only for d = 0.
    norm_invs = batch_inv([(d0 * d0 + d1 * d1) % P for _, (d0, d1), _ in slopes], _FP_OPS)
    out = []
    for (xp, yp), (xt, yt), (num, (d0, d1), xq), ninv in zip(ps, ts, slopes, norm_invs):
        lam = fp2_mul(num, (d0 * ninv % P, -d1 * ninv % P))
        x3 = fp2_sub(fp2_sub(fp2_sq(lam), xt), xq)
        out.append((x3, fp2_sub(fp2_mul(lam, fp2_sub(xt, x3)), yt)))
        # Line a + b w + c (v w) with a = yP, b = -lam xP, c = lam xT - yT.
        f = fp12_mul_line(f, yp, fp2_neg(fp2_mul_scalar(lam, xp)), fp2_sub(fp2_mul(lam, xt), yt))
    return f, out


def _multi_miller(pairs) -> Fp12:
    """Product of the raw Miller values of ``pairs``, all loops in lockstep.

    One accumulator takes one squaring per loop bit for every pair; each
    pair's line steps then multiply into it.  Identity pairs contribute 1
    and are skipped.  Equal, as an Fp12 element, to the product of the
    single-pair loops.
    """
    live = [(p.xy, q.xy) for p, q in pairs if not (p.is_identity or q.is_identity)]
    f = FP12_ONE
    if not live:
        return f
    ps = [p for p, _ in live]
    qs = [q for _, q in live]
    ts = qs
    for bit in bin(ATE_LOOP_COUNT)[3:]:  # skip MSB
        f, ts = _step(fp12_sq(f), ps, ts, None)
        if bit == "1":
            f, ts = _step(f, ps, ts, qs)
    # Two final Frobenius-twisted additions: Q1 = pi(Q), Q2 = -pi^2(Q).
    q1s = [g2_psi(q) for q in qs]
    q2s = [(x, fp2_neg(y)) for x, y in map(g2_psi, q1s)]
    f, ts = _step(f, ps, ts, q1s)
    f, _ = _step(f, ps, ts, q2s)
    return f


def miller_loop(p: PointG1, q: PointG2) -> Fp12:
    """Raw Miller loop (no final exponentiation)."""
    return _multi_miller([(p, q)])


def final_exponentiation_slow(f: Fp12) -> Fp12:
    """Direct ``f^((p^12-1)/r)``; reference implementation for tests."""
    return fp12_pow(f, (P**12 - 1) // CURVE_ORDER)


def final_exponentiation(f: Fp12) -> Fp12:
    """Fast final exponentiation (easy part + Devegili hard part)."""
    # Easy part: f^((p^6-1)(p^2+1)).
    f1 = fp12_mul(fp12_conj(f), fp12_inv(f))  # f^(p^6-1)
    f2 = fp12_mul(fp12_frobenius_n(f1, 2), f1)  # ^(p^2+1)
    # Hard part: f2^((p^4-p^2+1)/r), addition chain in the cyclotomic
    # subgroup (where inversion = conjugation).
    x = BN_U
    fp1 = fp12_frobenius(f2)
    fp2_ = fp12_frobenius_n(f2, 2)
    fp3 = fp12_frobenius_n(f2, 3)
    # f2 is in the cyclotomic subgroup: use compressed squaring.
    fu = fp12_cyclotomic_pow(f2, x)
    fu2 = fp12_cyclotomic_pow(fu, x)
    fu3 = fp12_cyclotomic_pow(fu2, x)
    y0 = fp12_mul(fp12_mul(fp1, fp2_), fp3)
    y1 = fp12_conj(f2)
    y2 = fp12_frobenius_n(fu2, 2)
    y3 = fp12_conj(fp12_frobenius(fu))
    y4 = fp12_conj(fp12_mul(fu, fp12_frobenius(fu2)))
    y5 = fp12_conj(fu2)
    y6 = fp12_conj(fp12_mul(fu3, fp12_frobenius(fu3)))
    t0 = fp12_mul(fp12_mul(fp12_cyclotomic_sq(y6), y4), y5)
    t1 = fp12_mul(fp12_mul(y3, y5), t0)
    t0 = fp12_mul(t0, y2)
    t1 = fp12_mul(fp12_cyclotomic_sq(t1), t0)
    t1 = fp12_cyclotomic_sq(t1)
    t0 = fp12_mul(t1, y1)
    t1 = fp12_mul(t1, y0)
    t0 = fp12_cyclotomic_sq(t0)
    return fp12_mul(t0, t1)


def pairing(p: PointG1, q: PointG2) -> Fp12:
    """Optimal-ate pairing e(P, Q) with fast final exponentiation."""
    return multi_pairing([(p, q)])


def multi_pairing(pairs) -> Fp12:
    """Product of pairings sharing one Miller loop and one final exponentiation.

    ``pairs`` is an iterable of ``(PointG1, PointG2)``.  Computing
    ``prod e(P_i, Q_i)`` this way shares the loop's Fp12 squarings and
    costs one final exponentiation total, the dominant costs of ABS
    verification and CP-ABE decryption.
    """
    f = _multi_miller(pairs)
    # With no non-identity pair f is 1, and so is its final exponentiation.
    return f if f == FP12_ONE else final_exponentiation(f)
