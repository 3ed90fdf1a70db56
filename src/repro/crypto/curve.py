"""Elliptic-curve groups G1 and G2 for BN254.

* G1 = E(Fp) with E: y^2 = x^3 + 3, prime order r (cofactor 1).
* G2 = r-torsion subgroup of the sextic D-twist E'(Fp2):
  y^2 = x^3 + 3/XI, whose full group order is r * c2.

Points are stored in affine coordinates; scalar multiplication runs in
Jacobian coordinates on straight-line kernels specialized per curve: G1 on
plain ints, G2 on unpacked Fp2 pairs, both with lazy reduction and fully
reduced outputs.  Every exponent takes one of two paths, both GLV-split
(:mod:`repro.crypto.glv`): a fixed-base comb (:class:`FixedBaseComb`) or
Straus/Pippenger (:func:`multi_scalar_mul`, which ``__mul__`` uses too).
The generic field-operation tables (:class:`FieldOps`) remain only off the
hot path: inversion, ``is_on_curve`` and the affine oracle in
``_Point.__add__``/``double``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

from repro.crypto import tower
from repro.crypto.field import BN_U, CURVE_ORDER, FIELD_MODULUS as P, G2_COFACTOR, fp_inv
from repro.errors import CryptoError


@dataclass(frozen=True)
class FieldOps:
    """Field-operation table used by the generic point arithmetic."""

    add: Callable[[Any, Any], Any]
    sub: Callable[[Any, Any], Any]
    mul: Callable[[Any, Any], Any]
    sq: Callable[[Any], Any]
    inv: Callable[[Any], Any]
    neg: Callable[[Any], Any]
    zero: Any
    one: Any


_FP_OPS = FieldOps(
    add=lambda a, b: (a + b) % P,
    sub=lambda a, b: (a - b) % P,
    mul=lambda a, b: a * b % P,
    sq=lambda a: a * a % P,
    inv=fp_inv,
    neg=lambda a: -a % P,
    zero=0,
    one=1,
)

_FP2_OPS = FieldOps(
    add=tower.fp2_add,
    sub=tower.fp2_sub,
    mul=tower.fp2_mul,
    sq=tower.fp2_sq,
    inv=tower.fp2_inv,
    neg=tower.fp2_neg,
    zero=tower.FP2_ZERO,
    one=tower.FP2_ONE,
)

#: b coefficient of the twist: 3 / XI in Fp2.
TWIST_B = tower.fp2_mul(tower.fp2_mul_scalar(tower.FP2_ONE, 3), tower.fp2_inv(tower.XI))

#: Jacobian identities: any point with ``z = 0`` is the point at infinity.
_G1_INF = (1, 1, 0)
_G2_INF = (tower.FP2_ONE, tower.FP2_ONE, tower.FP2_ZERO)


# -- G1 kernels: Jacobian (x, y, z) over plain ints -----------------------
# a = 0 doubling (dbl-2009-l) and additions (add-2007-bl, madd-2007-bl).
# Sums and small multiples stay unreduced; every product that is compared
# or returned is reduced, so outputs are canonical in [0, p).


def _g1_double(pt):
    x, y, z = pt
    a = x * x % P
    b = y * y % P
    d = 4 * x * b % P  # 2((x + b)^2 - a - c) with c = b^2
    e = 3 * a
    x3 = (e * e - 2 * d) % P
    # y = 0 (never on a prime-order curve) or z = 0 gives z3 = 0: infinity.
    return (x3, (e * (d - x3) - 8 * b * b) % P, 2 * y * z % P)


def _g1_add(p1, p2):
    x1, y1, z1 = p1
    x2, y2, z2 = p2
    if not z1:
        return p2
    if not z2:
        return p1
    z1z1 = z1 * z1 % P
    z2z2 = z2 * z2 % P
    u1 = x1 * z2z2 % P
    u2 = x2 * z1z1 % P
    s1 = y1 * z2 * z2z2 % P
    s2 = y2 * z1 * z1z1 % P
    if u1 == u2:
        return _g1_double(p1) if s1 == s2 else _G1_INF
    h = u2 - u1
    i = 4 * h * h % P  # (2h)^2
    j = h * i % P
    r = 2 * (s2 - s1)
    v = u1 * i % P
    x3 = (r * r - j - 2 * v) % P
    return (x3, (r * (v - x3) - 2 * s1 * j) % P, 2 * z1 * z2 * h % P)


def _g1_add_affine(pt, aff):
    """Mixed addition: Jacobian ``pt`` plus affine ``aff`` (z2 = 1)."""
    x1, y1, z1 = pt
    x2, y2 = aff
    if not z1:
        return (x2, y2, 1)
    z1z1 = z1 * z1 % P
    u2 = x2 * z1z1 % P
    s2 = y2 * z1 * z1z1 % P
    if u2 == x1:
        return _g1_double(pt) if s2 == y1 else _G1_INF
    h = u2 - x1
    hh = h * h % P
    i = 4 * hh
    j = h * i % P
    r = 2 * (s2 - y1)
    v = x1 * i % P
    x3 = (r * r - j - 2 * v) % P
    return (x3, (r * (v - x3) - 2 * y1 * j) % P, 2 * z1 * h % P)  # 2 z1 h = (z1+h)^2-z1z1-hh


# -- G2 kernels: the same formulas on unpacked Fp2 = Fp[i]/(i^2 + 1) -------
# Products are Karatsuba (three int multiplications); each Fp2 output
# coefficient is reduced once, after any sums folded into it.


def _g2_double(pt):
    (x0, x1), (y0, y1), (z0, z1) = pt
    a0 = (x0 + x1) * (x0 - x1) % P  # a = x^2
    a1 = 2 * x0 * x1 % P
    b0 = (y0 + y1) * (y0 - y1) % P  # b = y^2
    b1 = 2 * y0 * y1 % P
    c0 = (b0 + b1) * (b0 - b1) % P  # c = b^2
    c1 = 2 * b0 * b1 % P
    t0 = x0 * b0  # d = 4 x b
    t1 = x1 * b1
    d0 = 4 * (t0 - t1) % P
    d1 = 4 * ((x0 + x1) * (b0 + b1) - t0 - t1) % P
    e0 = 3 * a0  # e = 3a
    e1 = 3 * a1
    x30 = ((e0 + e1) * (e0 - e1) - 2 * d0) % P  # x3 = e^2 - 2d
    x31 = (2 * e0 * e1 - 2 * d1) % P
    u0 = d0 - x30  # y3 = e (d - x3) - 8c
    u1 = d1 - x31
    t0 = e0 * u0
    t1 = e1 * u1
    y30 = (t0 - t1 - 8 * c0) % P
    y31 = ((e0 + e1) * (u0 + u1) - t0 - t1 - 8 * c1) % P
    t0 = y0 * z0  # z3 = 2 y z
    t1 = y1 * z1
    return (
        (x30, x31),
        (y30, y31),
        (2 * (t0 - t1) % P, 2 * ((y0 + y1) * (z0 + z1) - t0 - t1) % P),
    )


def _g2_add(p1, p2):
    (x10, x11), (y10, y11), (z10, z11) = p1
    (x20, x21), (y20, y21), (z20, z21) = p2
    if not (z10 or z11):
        return p2
    if not (z20 or z21):
        return p1
    a0 = (z10 + z11) * (z10 - z11) % P  # z1z1
    a1 = 2 * z10 * z11 % P
    b0 = (z20 + z21) * (z20 - z21) % P  # z2z2
    b1 = 2 * z20 * z21 % P
    t0 = x10 * b0  # u1 = x1 z2z2
    t1 = x11 * b1
    u10 = (t0 - t1) % P
    u11 = ((x10 + x11) * (b0 + b1) - t0 - t1) % P
    t0 = x20 * a0  # u2 = x2 z1z1
    t1 = x21 * a1
    u20 = (t0 - t1) % P
    u21 = ((x20 + x21) * (a0 + a1) - t0 - t1) % P
    t0 = z20 * b0  # w2 = z2 z2z2
    t1 = z21 * b1
    w0 = (t0 - t1) % P
    w1 = ((z20 + z21) * (b0 + b1) - t0 - t1) % P
    t0 = y10 * w0  # s1 = y1 z2 z2z2
    t1 = y11 * w1
    s10 = (t0 - t1) % P
    s11 = ((y10 + y11) * (w0 + w1) - t0 - t1) % P
    t0 = z10 * a0  # w1 = z1 z1z1
    t1 = z11 * a1
    w0 = (t0 - t1) % P
    w1 = ((z10 + z11) * (a0 + a1) - t0 - t1) % P
    t0 = y20 * w0  # s2 = y2 z1 z1z1
    t1 = y21 * w1
    s20 = (t0 - t1) % P
    s21 = ((y20 + y21) * (w0 + w1) - t0 - t1) % P
    if u10 == u20 and u11 == u21:
        return _g2_double(p1) if s10 == s20 and s11 == s21 else _G2_INF
    t0 = z10 * z20  # z3 = (2 z1 z2) h
    t1 = z11 * z21
    w0 = 2 * (t0 - t1) % P
    w1 = 2 * ((z10 + z11) * (z20 + z21) - t0 - t1) % P
    return _g2_add_tail(
        u10, u11, u20 - u10, u21 - u11, s10, s11, 2 * (s20 - s10), 2 * (s21 - s11), w0, w1
    )


def _g2_add_tail(x0, x1, h0, h1, y0, y1, r0, r1, z0, z1):
    """Shared end of the G2 additions from ``h = u2 - x1`` and ``r = 2(s2 - y1)``.

    ``(x, y)`` are ``(u1, s1)`` of the first operand and ``(z0, z1)`` the
    factor multiplied by ``h`` for z3.
    """
    s = h0 + h1  # i = 4 h^2
    i0 = 4 * s * (h0 - h1) % P
    i1 = 8 * h0 * h1 % P
    t0 = h0 * i0  # j = h i
    t1 = h1 * i1
    j0 = (t0 - t1) % P
    j1 = (s * (i0 + i1) - t0 - t1) % P
    t0 = x0 * i0  # v = x i
    t1 = x1 * i1
    v0 = (t0 - t1) % P
    v1 = ((x0 + x1) * (i0 + i1) - t0 - t1) % P
    x30 = ((r0 + r1) * (r0 - r1) - j0 - 2 * v0) % P  # x3 = r^2 - j - 2v
    x31 = (2 * r0 * r1 - j1 - 2 * v1) % P
    a0 = v0 - x30  # y3 = r (v - x3) - 2 y j
    a1 = v1 - x31
    t0 = r0 * a0
    t1 = r1 * a1
    t2 = y0 * j0
    t3 = y1 * j1
    y30 = (t0 - t1 - 2 * (t2 - t3)) % P
    y31 = ((r0 + r1) * (a0 + a1) - t0 - t1 - 2 * ((y0 + y1) * (j0 + j1) - t2 - t3)) % P
    t0 = z0 * h0  # z3 = z h
    t1 = z1 * h1
    return ((x30, x31), (y30, y31), ((t0 - t1) % P, ((z0 + z1) * s - t0 - t1) % P))


def _g2_add_affine(pt, aff):
    """Mixed addition: Jacobian ``pt`` plus affine ``aff`` (z2 = 1)."""
    (x0, x1), (y0, y1), (z0, z1) = pt
    if not (z0 or z1):
        return (aff[0], aff[1], tower.FP2_ONE)
    (ax0, ax1), (ay0, ay1) = aff
    a0 = (z0 + z1) * (z0 - z1) % P  # z1z1
    a1 = 2 * z0 * z1 % P
    t0 = ax0 * a0  # u2 = x2 z1z1
    t1 = ax1 * a1
    u0 = (t0 - t1) % P
    u1 = ((ax0 + ax1) * (a0 + a1) - t0 - t1) % P
    t0 = z0 * a0  # w = z1 z1z1
    t1 = z1 * a1
    w0 = (t0 - t1) % P
    w1 = ((z0 + z1) * (a0 + a1) - t0 - t1) % P
    t0 = ay0 * w0  # s2 = y2 w
    t1 = ay1 * w1
    s0 = (t0 - t1) % P
    s1 = ((ay0 + ay1) * (w0 + w1) - t0 - t1) % P
    if u0 == x0 and u1 == x1:
        return _g2_double(pt) if s0 == y0 and s1 == y1 else _G2_INF
    return _g2_add_tail(
        x0, x1, u0 - x0, u1 - x1, y0, y1, 2 * (s0 - y0), 2 * (s1 - y1), 2 * z0, 2 * z1
    )


class Kernels(NamedTuple):
    """One curve's straight-line Jacobian kernels and its point at infinity."""

    double: Callable
    add: Callable
    add_affine: Callable
    infinity: tuple
    one: Any


G1_KERNELS = Kernels(_g1_double, _g1_add, _g1_add_affine, _G1_INF, 1)
G2_KERNELS = Kernels(_g2_double, _g2_add, _g2_add_affine, _G2_INF, tower.FP2_ONE)

#: Field-operation table -> that field's curve kernels.
_KERNELS = {id(_FP_OPS): G1_KERNELS, id(_FP2_OPS): G2_KERNELS}


def wnaf_digits(k: int, width: int = 4) -> list[int]:
    """Non-adjacent form of ``k`` with window ``width`` (LSB first).

    Digits are zero or odd in ``(-2^(width-1), 2^(width-1))``; at most
    one in ``width`` consecutive digits is nonzero, cutting the number
    of point additions in scalar multiplication by ~2x vs binary.
    """
    if k < 0:
        raise CryptoError("wNAF expects a non-negative scalar")
    digits: list[int] = []
    power = 1 << width
    half = power >> 1
    while k > 0:
        if k & 1:
            d = k % power
            if d >= half:
                d -= power
            k -= d
        else:
            d = 0
        digits.append(d)
        k >>= 1
    return digits


def _jac_scalar_mul(xy, k: int, ops: FieldOps):
    """wNAF multiplication by any non-negative ``k``, not reduced mod r.

    The path for scalars that are not exponents: the order checks ``[r]Q``,
    ``[u]Q`` and the G2 cofactor.  Exponents go through
    :func:`multi_scalar_mul`, which GLV-splits them.
    """
    return _jac_straus([xy], [k], ops)


def _jac_to_affine(pt, ops: FieldOps):
    x, y, z = pt
    if z == ops.zero:
        return None
    zi = ops.inv(z)
    zi2 = ops.sq(zi)
    return (ops.mul(x, zi2), ops.mul(y, ops.mul(zi, zi2)))


def batch_inv(values: list, ops: FieldOps) -> list:
    """Inverses of field elements sharing one field inversion.

    Montgomery's trick: invert the product of all values once and unroll
    the partial products.  A zero anywhere makes the product zero, so the
    one inversion raises :class:`CryptoError` and no partial result escapes.
    """
    if not values:
        return []
    prefix = []
    acc = ops.one
    for v in values:
        prefix.append(acc)
        acc = ops.mul(acc, v)
    inv = ops.inv(acc)
    out: list = [None] * len(values)
    for idx in range(len(values) - 1, -1, -1):
        # acc_idx = prefix[idx] * v  =>  1/v = inv * prefix[idx]; then strip
        # v from the running inverse for the next (earlier) value.
        out[idx] = ops.mul(inv, prefix[idx])
        inv = ops.mul(inv, values[idx])
    return out


def _batch_to_affine(pts, ops: FieldOps):
    """Convert Jacobian points to affine xy sharing one field inversion.

    Points at infinity map to ``None``.
    """
    live = [idx for idx, pt in enumerate(pts) if pt[2] != ops.zero]
    out: list = [None] * len(pts)
    for idx, zi in zip(live, batch_inv([pts[idx][2] for idx in live], ops)):
        x, y, _ = pts[idx]
        zi2 = ops.sq(zi)
        out[idx] = (ops.mul(x, zi2), ops.mul(y, ops.mul(zi, zi2)))
    return out


#: Comb teeth.  An evaluation costs ceil(126 / width) doublings and up to
#: twice as many mixed additions; each extra tooth doubles the table, which
#: at width 7 is 2 x 127 affine points (the base's and its endomorphism
#: image's).
COMB_WIDTH = 7


class FixedBaseComb:
    """Lim-Lee fixed-base comb over the GLV halves of the scalar.

    ``k`` splits as ``k1 + k2 * lam`` with ``|k1|, |k2| < 2^GLV_HALF_BITS``
    (:mod:`repro.crypto.glv`); each half is read as ``width`` interleaved
    rows of ``cols = ceil(GLV_HALF_BITS / width)`` bits.  ``table`` holds
    every nonzero row combination ``sum_i b_i * base^(2^(i*cols))`` in
    affine form, and ``phi_table`` the same points under the endomorphism
    ``(x, y) -> (beta x, y)`` — the table of ``lam * base`` at the cost of
    one multiplication per entry.  An evaluation is one scan of ``cols``
    doublings with up to two mixed additions per column.
    """

    __slots__ = ("ops", "width", "cols", "table", "phi_table")

    def __init__(self, xy, ops: FieldOps, width: int = COMB_WIDTH):
        from repro.crypto.glv import GLV_HALF_BITS

        if xy is None:
            raise CryptoError("cannot build a comb table for the identity")
        kern = _KERNELS[id(ops)]
        self.ops = ops
        self.width = width
        self.cols = -(-GLV_HALF_BITS // width)
        double, add = kern.double, kern.add
        spine = [(xy[0], xy[1], kern.one)]
        for _ in range(1, width):
            pt = spine[-1]
            for _ in range(self.cols):
                pt = double(pt)
            spine.append(pt)
        # Subset sums: jac[j] = sum of spine[i] over the set bits of j.
        # All are nonzero: the subset exponents are distinct sums of powers
        # 2^(i*cols) below 2^(width*cols) < r, never 0 mod r.
        jac: list = [None] * (1 << width)
        for i in range(width):
            jac[1 << i] = spine[i]
        for j in range(3, 1 << width):
            low = j & -j
            if jac[j] is None:
                jac[j] = add(jac[j ^ low], jac[low])
        # Index 0 stands for the zero digit and is never read.
        self.table = [None] + _batch_to_affine(jac[1:], ops)
        beta = _msm_endo(ops)[0]
        mul = ops.mul
        self.phi_table = [None] + [(mul(x, beta), y) for x, y in self.table[1:]]

    def mul(self, k: int):
        """``k * base`` as affine xy (``None`` for the identity)."""
        return comb_mul([self], [k])


#: width -> the 512 nine-bit values with bit j moved to bit width * j.
_SPREAD: dict = {}


def _comb_digits(k: int, width: int, cols: int) -> list[int]:
    """Column digits of a non-negative ``k < 2^(width*cols)``, top column first.

    Bit ``t * cols + c`` of ``k`` is bit ``t`` of column ``c``'s digit.  Each
    row is spread nine bits at a time so that its bit ``c`` lands on bit
    ``width * c + t``; the digits are then the ``width``-bit chunks.
    """
    spread = _SPREAD.get(width)
    if spread is None:
        spread = _SPREAD[width] = tuple(
            sum(((b >> j) & 1) << (width * j) for j in range(9)) for b in range(512)
        )
    row_mask = (1 << cols) - 1
    stride = 9 * width
    spread_rows = 0
    for tooth in range(width):
        row = (k >> (tooth * cols)) & row_mask
        shift = tooth
        while row:
            spread_rows |= spread[row & 511] << shift
            row >>= 9
            shift += stride
    mask = (1 << width) - 1
    return [(spread_rows >> s) & mask for s in range(width * (cols - 1), -1, -width)]


def comb_mul(combs, scalars):
    """``sum_i scalars[i] * base_i`` over same-shape combs, as affine xy.

    Every scalar is reduced mod r and GLV-split; all halves share one scan
    of ``cols`` doublings.  A negative half reads its table with ``y``
    negated.
    """
    from repro.crypto.glv import decompose

    first = combs[0]
    ops, width, cols = first.ops, first.width, first.cols
    kern = _KERNELS[id(ops)]
    lanes = []
    for comb, k in zip(combs, scalars):
        if k < 0:
            raise CryptoError("comb evaluation expects a non-negative scalar")
        if comb.ops is not ops or comb.cols != cols or comb.width != width:
            raise CryptoError("a joint comb scan needs combs of one shape")
        for table, half in zip((comb.table, comb.phi_table), decompose(k % CURVE_ORDER)):
            if half:
                lanes.append((table, _comb_digits(abs(half), width, cols), half < 0))
    double, add_affine, neg = kern.double, kern.add_affine, ops.neg
    acc = kern.infinity
    for col in range(cols):
        acc = double(acc)
        for table, digits, negative in lanes:
            digit = digits[col]
            if digit:
                entry = table[digit]
                acc = add_affine(acc, (entry[0], neg(entry[1])) if negative else entry)
    return _jac_to_affine(acc, ops)


#: Scalars longer than this are GLV-split before a multi-exponentiation.
GLV_MSM_BITS = 130

#: Per-field endomorphism constants for the MSM split, resolved lazily:
#: id(ops) -> (beta, LAM) with (beta * x, y) acting as LAM on the subgroup.
_MSM_ENDO: dict = {}


def _msm_endo(ops: FieldOps):
    """The (beta, lam) pair for GLV-splitting scalars on this field.

    BN curves have j-invariant 0 over Fp *and* Fp2, so both G1 and the
    twist carry the endomorphism ``(x, y) -> (beta * x, y)``.  On the
    order-r subgroup it acts as one of the two cube roots of unity mod
    r; which one depends on the field, so it is resolved once against
    the group's generator (the action is a fixed scalar on the whole
    subgroup).
    """
    cached = _MSM_ENDO.get(id(ops))
    if cached is not None:
        return cached
    from repro.crypto.glv import BETA, LAM

    betas = (BETA, BETA * BETA % P)
    sample_xy = G1_GENERATOR.xy
    if ops is not _FP_OPS:
        betas = tuple(tower.fp2_mul_scalar(tower.FP2_ONE, b) for b in betas)
        sample_xy = G2_GENERATOR.xy
    lam_pt = _jac_to_affine(_jac_scalar_mul(sample_xy, LAM, ops), ops)
    for beta in betas:
        if (ops.mul(sample_xy[0], beta), sample_xy[1]) == lam_pt:
            _MSM_ENDO[id(ops)] = (beta, LAM)
            return beta, LAM
    raise CryptoError("no endomorphism acts as LAM on this subgroup")


def _glv_split(points, scalars, ops: FieldOps):
    """Expand (P_i, k_i) into half-length (point, |k|) pairs via GLV."""
    from repro.crypto.glv import decompose

    beta, _lam = _msm_endo(ops)
    new_points = []
    new_scalars = []
    for xy, k in zip(points, scalars):
        k1, k2 = decompose(k % CURVE_ORDER)
        phi_x = ops.mul(xy[0], beta)
        for half, pt in ((k1, xy), (k2, (phi_x, xy[1]))):
            if half == 0:
                continue
            if half < 0:
                pt = (pt[0], ops.neg(pt[1]))
                half = -half
            new_points.append(pt)
            new_scalars.append(half)
    return new_points, new_scalars


def _pippenger_window(n: int, bits: int) -> tuple[int, float]:
    """Best bucket width and its estimated addition count for Pippenger."""
    best = (1, float("inf"))
    for c in range(1, 15):
        windows = -(-max(1, bits) // c)
        cost = bits + windows * (n + (1 << (c + 1)))
        if cost < best[1]:
            best = (c, cost)
    return best


def multi_scalar_mul(points, scalars, ops: FieldOps):
    """``sum_i scalars[i] * points[i]`` as affine xy (``None`` = identity).

    ``points`` are affine xy tuples (no identities), ``scalars`` positive
    ints.  Full-width scalars are GLV-split first, so a single point
    becomes a two-point product of half-length scalars.  The two classic
    multi-exponentiation strategies are dispatched by estimated addition
    count: Straus joint-wNAF interleaving (shared doublings, per-point
    odd-multiple tables) wins for small batches; Pippenger bucketing wins
    once its per-window bucket-sum overhead amortizes over many points —
    large batches of short scalars, the small-exponents batch-verification
    shape.
    """
    if len(points) != len(scalars):
        raise CryptoError("multi_scalar_mul arguments must align")
    if not points:
        return None
    bits = max(k.bit_length() for k in scalars)
    if bits > GLV_MSM_BITS:
        # Full-width scalars: halve the shared doubling count by GLV-
        # splitting every term (twice the points, half the bit length).
        points, scalars = _glv_split(points, scalars, ops)
        if not points:
            return None
        bits = max(k.bit_length() for k in scalars)
    n = len(points)
    straus_cost = bits + n * (3 + bits / 5)
    c, pippenger_cost = _pippenger_window(n, bits)
    if pippenger_cost < straus_cost:
        acc = _jac_pippenger(points, scalars, ops, c)
    else:
        acc = _jac_straus(points, scalars, ops)
    return _jac_to_affine(acc, ops)


def _jac_straus(points, scalars, ops: FieldOps, width: int = 4):
    """Straus (Shamir) interleaving: shared doublings, per-point wNAF.

    The per-point odd-multiple tables are normalized to affine with one
    shared batch inversion, so every scan addition is a mixed addition.
    Each table lists ``P, 3P, ...`` then their negations in reverse, so a
    digit ``d`` reads entry ``d >> 1`` (negative indices for ``d < 0``).
    """
    kern = _KERNELS[id(ops)]
    double, add, add_affine, neg = kern.double, kern.add, kern.add_affine, ops.neg
    digit_lists = [wnaf_digits(k, width) for k in scalars]
    table_size = (1 << (width - 1)) // 2
    jac_entries = []
    for xy in points:
        base = (xy[0], xy[1], kern.one)
        double_base = double(base)
        jac_entries.append(base)
        for _ in range(table_size - 1):
            jac_entries.append(add(jac_entries[-1], double_base))
    # P, 3P, 5P, 7P are never the identity: neither E(Fp) (order r) nor
    # the twist (order r * c2) has a point of order 2 to 7, so no Nones.
    affine = _batch_to_affine(jac_entries, ops)
    tables = []
    for i in range(len(points)):
        odd = affine[i * table_size : (i + 1) * table_size]
        tables.append(odd + [(x, neg(y)) for x, y in reversed(odd)])
    lanes = list(zip(tables, digit_lists))
    acc = kern.infinity
    for i in range(max(map(len, digit_lists)) - 1, -1, -1):
        acc = double(acc)
        for table, digits in lanes:
            if i < len(digits):
                d = digits[i]
                if d:
                    acc = add_affine(acc, table[d >> 1])
    return acc


def _jac_pippenger(points, scalars, ops: FieldOps, c: int | None = None):
    """Pippenger bucket method over unsigned radix-2^c windows."""
    kern = _KERNELS[id(ops)]
    double, add, add_affine, one = kern.double, kern.add, kern.add_affine, kern.one
    bits = max(k.bit_length() for k in scalars)
    if c is None:
        c = _pippenger_window(len(points), bits)[0]
    mask = (1 << c) - 1
    nwin = -(-max(1, bits) // c)
    acc = kern.infinity
    for w in range(nwin - 1, -1, -1):
        for _ in range(c):
            acc = double(acc)
        shift = w * c
        buckets: list = [None] * (1 << c)
        for xy, k in zip(points, scalars):
            digit = (k >> shift) & mask
            if not digit:
                continue
            cur = buckets[digit]
            buckets[digit] = (xy[0], xy[1], one) if cur is None else add_affine(cur, xy)
        running = None
        window_sum = None
        for digit in range(mask, 0, -1):
            if buckets[digit] is not None:
                running = buckets[digit] if running is None else add(running, buckets[digit])
            if running is not None:
                window_sum = running if window_sum is None else add(window_sum, running)
        if window_sum is not None:
            acc = add(acc, window_sum)
    return acc


class _Point:
    """Affine curve point; ``xy is None`` encodes the identity."""

    __slots__ = ("xy",)
    _ops: FieldOps = _FP_OPS
    _b: Any = 3

    def __init__(self, xy):
        self.xy = xy

    # -- group structure ----------------------------------------------------
    @classmethod
    def identity(cls):
        return cls(None)

    @property
    def is_identity(self) -> bool:
        return self.xy is None

    def __add__(self, other):
        cls, ops = type(self), self._ops
        if self.xy is None:
            return other
        if other.xy is None:
            return self
        x1, y1 = self.xy
        x2, y2 = other.xy
        if x1 == x2:
            if y1 != y2:
                return cls(None)
            return self.double()
        lam = ops.mul(ops.sub(y2, y1), ops.inv(ops.sub(x2, x1)))
        x3 = ops.sub(ops.sub(ops.sq(lam), x1), x2)
        y3 = ops.sub(ops.mul(lam, ops.sub(x1, x3)), y1)
        return cls((x3, y3))

    def double(self):
        cls, ops = type(self), self._ops
        if self.xy is None:
            return self
        x, y = self.xy
        if y == ops.zero:
            return cls(None)
        three_x2 = ops.mul(ops.add(ops.add(ops.one, ops.one), ops.one), ops.sq(x))
        lam = ops.mul(three_x2, ops.inv(ops.add(y, y)))
        x3 = ops.sub(ops.sq(lam), ops.add(x, x))
        y3 = ops.sub(ops.mul(lam, ops.sub(x, x3)), y)
        return cls((x3, y3))

    def __neg__(self):
        cls, ops = type(self), self._ops
        if self.xy is None:
            return self
        x, y = self.xy
        return cls((x, ops.neg(y)))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, k: int):
        """``k * self`` through the GLV split and Straus (:func:`multi_scalar_mul`)."""
        cls = type(self)
        k %= CURVE_ORDER
        if k == 0 or self.xy is None:
            return cls(None)
        return cls(multi_scalar_mul([self.xy], [k], self._ops))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self.xy == other.xy

    def __hash__(self):
        return hash((type(self).__name__, self.xy))

    def is_on_curve(self) -> bool:
        if self.xy is None:
            return True
        ops = self._ops
        x, y = self.xy
        return ops.sq(y) == ops.add(ops.mul(ops.sq(x), x), self._b)

    def in_subgroup(self) -> bool:
        # ``self * CURVE_ORDER`` would reduce the scalar mod r to 0 and
        # accept every point; multiply by r itself.
        if self.xy is None:
            return True
        return _jac_scalar_mul(self.xy, CURVE_ORDER, self._ops)[2] == self._ops.zero


class PointG1(_Point):
    """Point of G1 = E(Fp)."""

    _ops = _FP_OPS
    _b = 3

    def to_bytes(self) -> bytes:
        """Compressed encoding: 32 bytes, top bits = flags.

        Bit 255: infinity flag.  Bit 254: y-parity flag.
        """
        if self.xy is None:
            return (1 << 255).to_bytes(32, "big")
        x, y = self.xy
        flag = (y & 1) << 254
        return (x | flag).to_bytes(32, "big")

    @classmethod
    def from_bytes(cls, data: bytes) -> "PointG1":
        from repro.crypto.field import fp_sqrt

        if len(data) != 32:
            raise CryptoError("G1 encoding must be 32 bytes")
        val = int.from_bytes(data, "big")
        if val >> 255:
            if val != 1 << 255:
                raise CryptoError("G1 identity encoding has stray bits set")
            return cls(None)
        parity = (val >> 254) & 1
        x = val & ((1 << 254) - 1)
        if x >= P:
            raise CryptoError("G1 x-coordinate out of range")
        y = fp_sqrt((x * x % P * x + 3) % P)
        if y is None:
            raise CryptoError("G1 encoding is not on the curve")
        if y & 1 != parity:
            y = P - y
        return cls((x, y))


class PointG2(_Point):
    """Point of G2 (the r-torsion of the twist E'(Fp2))."""

    _ops = _FP2_OPS
    _b = TWIST_B

    def to_bytes(self) -> bytes:
        """Compressed encoding: 64 bytes, ``x1`` with flags then ``x0``.

        Bit 255: infinity flag.  Bit 254: sign of y (:func:`_fp2_parity`).
        """
        if self.xy is None:
            out = bytearray(64)
            out[0] = 0x80
            return bytes(out)
        (x0, x1), y = self.xy
        flag = _fp2_parity(y) << 254
        return (x1 | flag).to_bytes(32, "big") + x0.to_bytes(32, "big")

    @classmethod
    def from_bytes(cls, data: bytes) -> "PointG2":
        if len(data) != 64:
            raise CryptoError("G2 encoding must be 64 bytes")
        hi = int.from_bytes(data[:32], "big")
        x0 = int.from_bytes(data[32:], "big")
        if hi >> 255:
            if hi != 1 << 255 or x0:
                raise CryptoError("G2 identity encoding has stray bits set")
            return cls(None)
        parity = (hi >> 254) & 1
        x1 = hi & ((1 << 254) - 1)
        if x0 >= P or x1 >= P:
            raise CryptoError("G2 x-coordinate out of range")
        x = (x0, x1)
        rhs = tower.fp2_add(tower.fp2_mul(tower.fp2_sq(x), x), TWIST_B)
        y = tower.fp2_sqrt(rhs)
        if y is None:
            raise CryptoError("G2 encoding is not on the twist")
        if _fp2_parity(y) != parity:
            y = tower.fp2_neg(y)
        return cls((x, y))

    def in_subgroup(self) -> bool:
        """G2 membership by the endomorphism test for BN curves.

        ``Q`` lies in G2 iff ``[u+1]Q + psi([u]Q) + psi^2([u]Q) = psi^3([2u]Q)``
        (Scott, 2021; El Housni-Guillevic-Piellard, 2022): one 63-bit
        scalar multiplication by the BN parameter ``u`` instead of the
        254-bit ``[r]Q``.
        """
        if self.xy is None:
            return True
        ops = self._ops
        uq_jac = _jac_scalar_mul(self.xy, BN_U, ops)
        uq = _jac_to_affine(uq_jac, ops)
        if uq is None:
            return False
        psi1 = g2_psi(uq)
        psi2 = g2_psi(psi1)
        lhs = _g2_add_affine(uq_jac, self.xy)  # [u+1]Q
        lhs = _g2_add_affine(_g2_add_affine(lhs, psi1), psi2)
        x3, y3 = g2_psi(psi2)
        rhs = _g2_double((x3, y3, tower.FP2_ONE))
        return _jac_to_affine(lhs, ops) == _jac_to_affine(rhs, ops)

    def clear_cofactor(self) -> "PointG2":
        """Map a twist point into the order-r subgroup."""
        return _g2_cofactor_mul(self)


def g2_psi(xy):
    """The endomorphism ``psi`` (untwist, p-power Frobenius, twist) on an
    affine E'(Fp2) point; it acts on G2 as multiplication by ``p``."""
    x, y = xy
    return (
        tower.fp2_mul(tower.fp2_conj(x), tower.GAMMA[1]),  # XI^((p-1)/3)
        tower.fp2_mul(tower.fp2_conj(y), tower.GAMMA[2]),  # XI^((p-1)/2)
    )


def _fp2_parity(y) -> int:
    """Sign bit of a nonzero Fp2 ``y``: parity of ``y0``, or of ``y1`` when ``y0 = 0``.

    ``y`` and ``-y`` always differ in it, so the compressed G2 encoding
    is injective (parity of ``y0`` alone cannot tell ``(0, y1)`` from
    ``(0, -y1)``).
    """
    return (y[0] if y[0] else y[1]) & 1


def _g2_cofactor_mul(pt: PointG2) -> PointG2:
    """Multiply by the G2 cofactor (a full-width scalar, not mod r)."""
    if pt.xy is None:
        return pt
    return PointG2(_jac_to_affine(_jac_scalar_mul(pt.xy, G2_COFACTOR, _FP2_OPS), _FP2_OPS))


#: Standard generator of G1.
G1_GENERATOR = PointG1((1, 2))

#: Standard generator of G2 (the EIP-197 point).
G2_GENERATOR = PointG2(
    (
        (
            10857046999023057135944570762232829481370756359578518086990519993285655852781,
            11559732032986387107991004021392285783925812861821192530917403151452391805634,
        ),
        (
            8495653923123431417604973247489272438418190587263600148770280649306958101930,
            4082367875863433681332203403145435568316851327593401208105741076214120093531,
        ),
    )
)
