"""Reference arm: the 254-bit, width-6 fixed-base comb on generic point arithmetic.

This is the comb ``repro.crypto.curve`` used before its GLV-split rewrite,
kept here only as the old arm of ``bench_crypto_ops.py``'s ``fixed_base``
and ``do_sign`` scenarios.  The whole 254-bit scalar is read as 6
interleaved rows of 43 bits, so an evaluation is 43 doublings and up to
43 mixed additions; every field operation of the Jacobian formulas goes
through the ``FieldOps`` table (one Python call per operation).
``WideCombGroup`` is a BN254 backend whose ``pow_fixed`` tables are these
combs and whose warm products of up to three bases add the per-base comb
results affinely, as the library did before.  Both arms return the same
points, so the benchmark asserts their outputs equal before timing.
"""

from __future__ import annotations

from repro.crypto.curve import (
    FieldOps,
    PointG1,
    PointG2,
    _batch_to_affine,
    _jac_to_affine,
    multi_scalar_mul,
)
from repro.crypto.field import CURVE_ORDER
from repro.crypto.group import G1, GT, BN254Group, GroupElement
from repro.errors import CryptoError


def _jac_double(pt, ops: FieldOps):
    x, y, z = pt
    if y == ops.zero:
        return (ops.one, ops.one, ops.zero)
    a = ops.sq(x)
    b = ops.sq(y)
    c = ops.sq(b)
    t = ops.sub(ops.sq(ops.add(x, b)), ops.add(a, c))
    d = ops.add(t, t)  # 2*((x+b)^2 - a - c)
    e = ops.add(ops.add(a, a), a)  # 3a (curve a-coeff is 0)
    x3 = ops.sub(ops.sq(e), ops.add(d, d))
    c8 = ops.add(ops.add(ops.add(c, c), ops.add(c, c)), ops.add(ops.add(c, c), ops.add(c, c)))
    y3 = ops.sub(ops.mul(e, ops.sub(d, x3)), c8)
    return (x3, y3, ops.mul(ops.add(y, y), z))


def _jac_add(p1, p2, ops: FieldOps):
    x1, y1, z1 = p1
    x2, y2, z2 = p2
    if z1 == ops.zero:
        return p2
    if z2 == ops.zero:
        return p1
    z1z1 = ops.sq(z1)
    z2z2 = ops.sq(z2)
    u1 = ops.mul(x1, z2z2)
    u2 = ops.mul(x2, z1z1)
    s1 = ops.mul(ops.mul(y1, z2), z2z2)
    s2 = ops.mul(ops.mul(y2, z1), z1z1)
    if u1 == u2:
        if s1 != s2:
            return (ops.one, ops.one, ops.zero)
        return _jac_double(p1, ops)
    h = ops.sub(u2, u1)
    i = ops.sq(ops.add(h, h))
    j = ops.mul(h, i)
    r = ops.add(ops.sub(s2, s1), ops.sub(s2, s1))
    v = ops.mul(u1, i)
    x3 = ops.sub(ops.sub(ops.sq(r), j), ops.add(v, v))
    s1j = ops.mul(s1, j)
    y3 = ops.sub(ops.mul(r, ops.sub(v, x3)), ops.add(s1j, s1j))
    return (x3, y3, ops.mul(ops.mul(z1, z2), ops.add(h, h)))


def _jac_add_affine(p1, aff, ops: FieldOps):
    x1, y1, z1 = p1
    if z1 == ops.zero:
        return (aff[0], aff[1], ops.one)
    x2, y2 = aff
    z1z1 = ops.sq(z1)
    u2 = ops.mul(x2, z1z1)
    s2 = ops.mul(ops.mul(y2, z1), z1z1)
    if u2 == x1:
        if s2 != y1:
            return (ops.one, ops.one, ops.zero)
        return _jac_double(p1, ops)
    h = ops.sub(u2, x1)
    hh = ops.sq(h)
    i = ops.add(ops.add(hh, hh), ops.add(hh, hh))
    j = ops.mul(h, i)
    r = ops.add(ops.sub(s2, y1), ops.sub(s2, y1))
    v = ops.mul(x1, i)
    x3 = ops.sub(ops.sub(ops.sq(r), j), ops.add(v, v))
    y1j = ops.mul(y1, j)
    y3 = ops.sub(ops.mul(r, ops.sub(v, x3)), ops.add(y1j, y1j))
    z3 = ops.sub(ops.sub(ops.sq(ops.add(z1, h)), z1z1), hh)
    return (x3, y3, z3)


class WideComb:
    """Lim-Lee comb over the full scalar: ``width`` rows of ``ceil(254 / width)`` bits."""

    __slots__ = ("ops", "width", "cols", "table")

    def __init__(self, xy, ops: FieldOps, width: int = 6, bits: int = CURVE_ORDER.bit_length()):
        if xy is None:
            raise CryptoError("cannot build a comb table for the identity")
        self.ops = ops
        self.width = width
        self.cols = -(-bits // width)
        spine = [(xy[0], xy[1], ops.one)]
        for _ in range(1, width):
            pt = spine[-1]
            for _ in range(self.cols):
                pt = _jac_double(pt, ops)
            spine.append(pt)
        jac: list = [None] * (1 << width)
        for i in range(width):
            jac[1 << i] = spine[i]
        for j in range(3, 1 << width):
            low = j & -j
            if jac[j] is None:
                jac[j] = _jac_add(jac[j ^ low], jac[low], ops)
        self.table = _batch_to_affine(jac[1:], ops)

    def mul(self, k: int):
        """``k * base`` as affine xy (``None`` for the identity), ``0 <= k < 2^254``."""
        if k < 0:
            raise CryptoError("comb evaluation expects a non-negative scalar")
        ops, cols = self.ops, self.cols
        acc = None
        for col in range(cols - 1, -1, -1):
            if acc is not None:
                acc = _jac_double(acc, ops)
            digit = 0
            for tooth in range(self.width):
                digit |= ((k >> (tooth * cols + col)) & 1) << tooth
            if digit:
                aff = self.table[digit - 1]
                acc = (aff[0], aff[1], ops.one) if acc is None else _jac_add_affine(acc, aff, ops)
        return None if acc is None else _jac_to_affine(acc, ops)


class WideCombGroup(BN254Group):
    """BN254 with ``WideComb`` tables behind ``pow_fixed`` and warm products."""

    def _make_comb(self, base: GroupElement):
        if base.kind == GT or base.value.is_identity:
            return super()._make_comb(base)
        point_cls = PointG1 if base.kind == G1 else PointG2
        comb = WideComb(base.value.xy, base.value._ops)
        return lambda e: GroupElement(self, base.kind, point_cls(comb.mul(e)))

    def _multi_pow(self, kind, bases, exponents):
        if kind == GT or not self.fast_paths:
            return super()._multi_pow(kind, bases, exponents)
        kept = [(b, e % CURVE_ORDER) for b, e in zip(bases, exponents)]
        kept = [(b, e) for b, e in kept if e and not b.value.is_identity]
        if not kept:
            return self.identity(kind)
        if len(kept) <= 3:
            combs = [self._combs.get((kind, self._serialize(b))) for b, _ in kept]
            if all(combs):
                acc = combs[0](kept[0][1])
                for comb, (_, e) in zip(combs[1:], kept[1:]):
                    acc = self._op(acc, comb(e))
                return acc
        point_cls = PointG1 if kind == G1 else PointG2
        xy = multi_scalar_mul([b.value.xy for b, _ in kept], [e for _, e in kept], kept[0][0].value._ops)
        return GroupElement(self, kind, point_cls(xy))
