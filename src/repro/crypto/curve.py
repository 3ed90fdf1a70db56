"""Elliptic-curve groups G1 and G2 for BN254.

* G1 = E(Fp) with E: y^2 = x^3 + 3, prime order r (cofactor 1).
* G2 = r-torsion subgroup of the sextic D-twist E'(Fp2):
  y^2 = x^3 + 3/XI, whose full group order is r * c2.

Points are stored in affine coordinates; scalar multiplication runs in
Jacobian coordinates internally.  The arithmetic is written generically over
a small field-operation table so G1 (ints) and G2 (Fp2 tuples) share one
implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

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

#: Lazily-bound GLV multiplier for G1 (set on first PointG1 scalar mult).
_glv_mul = None


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
    f = ops.sq(e)
    x3 = ops.sub(f, ops.add(d, d))
    c8 = ops.add(ops.add(ops.add(c, c), ops.add(c, c)), ops.add(ops.add(c, c), ops.add(c, c)))
    y3 = ops.sub(ops.mul(e, ops.sub(d, x3)), c8)
    z3 = ops.mul(ops.add(y, y), z)
    return (x3, y3, z3)


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
    z3 = ops.mul(ops.mul(z1, z2), ops.add(h, h))
    # z3 = 2*z1*z2*h; adjust: above computes (z1*z2)*2h which equals 2*z1*z2*h
    return (x3, y3, z3)


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
    """wNAF scalar multiplication in Jacobian coordinates."""
    digits = wnaf_digits(k)
    base = (xy[0], xy[1], ops.one)
    # Precompute odd multiples 1P, 3P, 5P, 7P.
    double_base = _jac_double(base, ops)
    table = [base]
    for _ in range(3):
        table.append(_jac_add(table[-1], double_base, ops))
    acc = (ops.one, ops.one, ops.zero)
    for d in reversed(digits):
        acc = _jac_double(acc, ops)
        if d > 0:
            acc = _jac_add(acc, table[d >> 1], ops)
        elif d < 0:
            x, y, z = table[(-d) >> 1]
            acc = _jac_add(acc, (x, ops.neg(y), z), ops)
    return acc


def _jac_to_affine(pt, ops: FieldOps):
    x, y, z = pt
    if z == ops.zero:
        return None
    zi = ops.inv(z)
    zi2 = ops.sq(zi)
    return (ops.mul(x, zi2), ops.mul(y, ops.mul(zi, zi2)))


def _jac_add_affine(p1, aff, ops: FieldOps):
    """Mixed addition: Jacobian ``p1`` plus affine ``aff`` (z2 = 1)."""
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


#: Comb parameters: teeth count and scalar width covered by the table.
COMB_WIDTH = 6
SCALAR_BITS = CURVE_ORDER.bit_length()


class FixedBaseComb:
    """Lim-Lee fixed-base comb over one affine point.

    The 254-bit exponent is read as ``width`` interleaved rows of
    ``cols = ceil(bits / width)`` bits; the table holds every nonzero
    row-combination ``sum_i b_i * base^(2^(i*cols))`` in *affine* form,
    so evaluation is ``cols`` doublings plus at most ``cols`` mixed
    additions — ~2-3x cheaper than a one-off wNAF/GLV multiplication
    once the table is amortized over a handful of exponentiations.
    """

    __slots__ = ("ops", "width", "cols", "table")

    def __init__(self, xy, ops: FieldOps, width: int = COMB_WIDTH, bits: int = SCALAR_BITS):
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
        # Subset sums: table[j] = sum of spine[i] over the set bits of j+1.
        # All entries are nonzero: the subset exponents are distinct powers
        # 2^(i*cols) summing to < 2^(bits) < 2*order, never 0 mod order.
        jac: list = [None] * (1 << width)
        for i in range(width):
            jac[1 << i] = spine[i]
        for j in range(3, 1 << width):
            low = j & -j
            if jac[j] is None:
                jac[j] = _jac_add(jac[j ^ low], jac[low], ops)
        self.table = _batch_to_affine(jac[1:], ops)

    def mul(self, k: int):
        """``k * base`` as affine xy (``None`` for the identity)."""
        if k < 0:
            raise CryptoError("comb evaluation expects a non-negative scalar")
        ops = self.ops
        cols = self.cols
        acc = None
        for col in range(cols - 1, -1, -1):
            if acc is not None:
                acc = _jac_double(acc, ops)
            digit = 0
            for tooth in range(self.width):
                digit |= ((k >> (tooth * cols + col)) & 1) << tooth
            if digit:
                aff = self.table[digit - 1]
                if acc is None:
                    acc = (aff[0], aff[1], ops.one)
                else:
                    acc = _jac_add_affine(acc, aff, ops)
        if acc is None:
            return None
        return _jac_to_affine(acc, ops)


#: Scalars longer than this are GLV-split before a multi-exponentiation.
GLV_MSM_BITS = 130

#: Per-field endomorphism constants for the MSM split, resolved lazily:
#: id(ops) -> (beta, LAM) with (beta * x, y) acting as LAM on the subgroup.
_MSM_ENDO: dict = {}


def _msm_endo(ops: FieldOps, sample_xy):
    """The (beta, lam) pair for GLV-splitting scalars on this field.

    BN curves have j-invariant 0 over Fp *and* Fp2, so both G1 and the
    twist carry the endomorphism ``(x, y) -> (beta * x, y)``.  On the
    order-r subgroup it acts as one of the two cube roots of unity mod
    r; which one depends on the field, so it is resolved once against a
    sample subgroup point (the action is a fixed scalar on the whole
    subgroup).
    """
    cached = _MSM_ENDO.get(id(ops))
    if cached is not None:
        return cached
    from repro.crypto.glv import BETA, LAM

    betas = (BETA, BETA * BETA % P)
    if ops is not _FP_OPS:
        betas = tuple(tower.fp2_mul_scalar(tower.FP2_ONE, b) for b in betas)
    lam_pt = _jac_to_affine(_jac_scalar_mul(sample_xy, LAM, ops), ops)
    for beta in betas:
        if (ops.mul(sample_xy[0], beta), sample_xy[1]) == lam_pt:
            _MSM_ENDO[id(ops)] = (beta, LAM)
            return beta, LAM
    raise CryptoError("no endomorphism acts as LAM on this subgroup")


def _glv_split(points, scalars, ops: FieldOps):
    """Expand (P_i, k_i) into half-length (point, |k|) pairs via GLV."""
    from repro.crypto.glv import decompose

    beta, _lam = _msm_endo(ops, points[0])
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
    ints.  The two classic multi-exponentiation strategies are dispatched
    by estimated addition count: Straus joint-wNAF interleaving (shared
    doublings, per-point odd-multiple tables) wins for small batches;
    Pippenger bucketing wins once its per-window bucket-sum overhead
    amortizes over many points — large batches of short scalars, the
    small-exponents batch-verification shape.
    """
    if len(points) != len(scalars):
        raise CryptoError("multi_scalar_mul arguments must align")
    if not points:
        return None
    if len(points) == 1:
        return _jac_to_affine(_jac_scalar_mul(points[0], scalars[0], ops), ops)
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
    """
    digit_lists = [wnaf_digits(k, width) for k in scalars]
    table_size = (1 << (width - 1)) // 2
    jac_entries = []
    for xy in points:
        base = (xy[0], xy[1], ops.one)
        double_base = _jac_double(base, ops)
        jac_entries.append(base)
        for _ in range(table_size - 1):
            jac_entries.append(_jac_add(jac_entries[-1], double_base, ops))
    # Odd multiples of a non-identity subgroup point are never the
    # identity (the subgroup order is an odd prime), so no Nones here.
    affine = _batch_to_affine(jac_entries, ops)
    tables = [affine[i * table_size : (i + 1) * table_size] for i in range(len(points))]
    acc = (ops.one, ops.one, ops.zero)
    for i in range(max(map(len, digit_lists)) - 1, -1, -1):
        acc = _jac_double(acc, ops)
        for table, digits in zip(tables, digit_lists):
            if i >= len(digits):
                continue
            d = digits[i]
            if d > 0:
                acc = _jac_add_affine(acc, table[d >> 1], ops)
            elif d < 0:
                x, y = table[(-d) >> 1]
                acc = _jac_add_affine(acc, (x, ops.neg(y)), ops)
    return acc


def _jac_pippenger(points, scalars, ops: FieldOps, c: int | None = None):
    """Pippenger bucket method over unsigned radix-2^c windows."""
    bits = max(k.bit_length() for k in scalars)
    if c is None:
        c = _pippenger_window(len(points), bits)[0]
    mask = (1 << c) - 1
    nwin = -(-max(1, bits) // c)
    identity = (ops.one, ops.one, ops.zero)
    acc = identity
    for w in range(nwin - 1, -1, -1):
        if acc[2] != ops.zero:
            for _ in range(c):
                acc = _jac_double(acc, ops)
        shift = w * c
        buckets: list = [None] * (1 << c)
        for xy, k in zip(points, scalars):
            digit = (k >> shift) & mask
            if not digit:
                continue
            cur = buckets[digit]
            buckets[digit] = (
                (xy[0], xy[1], ops.one) if cur is None else _jac_add_affine(cur, xy, ops)
            )
        running = None
        window_sum = None
        for digit in range(mask, 0, -1):
            if buckets[digit] is not None:
                running = (
                    buckets[digit] if running is None else _jac_add(running, buckets[digit], ops)
                )
            if running is not None:
                window_sum = running if window_sum is None else _jac_add(window_sum, running, ops)
        if window_sum is not None:
            acc = _jac_add(acc, window_sum, ops)
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
        cls, ops = type(self), self._ops
        k %= CURVE_ORDER
        if k == 0 or self.xy is None:
            return cls(None)
        aff = _jac_to_affine(_jac_scalar_mul(self.xy, k, ops), ops)
        return cls(aff)

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

    def __mul__(self, k: int):
        # G1 uses GLV decomposition (j = 0 endomorphism) — ~1.5x faster
        # than generic wNAF.  Lazy import: repro.crypto.glv imports this
        # module to validate its constants.
        global _glv_mul
        if _glv_mul is None:
            from repro.crypto.glv import glv_mul as _imported

            _glv_mul = _imported
        return _glv_mul(self, k)

    __rmul__ = __mul__

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
        lhs = _jac_add_affine(uq_jac, self.xy, ops)  # [u+1]Q
        lhs = _jac_add_affine(_jac_add_affine(lhs, psi1, ops), psi2, ops)
        x3, y3 = g2_psi(psi2)
        rhs = _jac_double((x3, y3, ops.one), ops)
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
    ops = _FP2_OPS
    if pt.xy is None:
        return pt
    jac = (pt.xy[0], pt.xy[1], ops.one)
    acc = (ops.one, ops.one, ops.zero)
    for bit in bin(G2_COFACTOR)[2:]:
        acc = _jac_double(acc, ops)
        if bit == "1":
            acc = _jac_add(acc, jac, ops)
    return PointG2(_jac_to_affine(acc, ops))


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
