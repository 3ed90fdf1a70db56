"""Tests for the BN254 G1/G2 point groups."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import bn254, curve, tower
from repro.crypto.curve import (
    G1_GENERATOR,
    G2_GENERATOR,
    PointG1,
    PointG2,
    TWIST_B,
)
from repro.crypto.field import CURVE_ORDER, FIELD_MODULUS
from repro.errors import CryptoError, DeserializationError
from tests.crypto.textbook import textbook_mul

rng = random.Random(101)


def test_generators_on_curve_and_in_subgroup():
    assert G1_GENERATOR.is_on_curve()
    assert G1_GENERATOR.in_subgroup()
    assert G2_GENERATOR.is_on_curve()
    assert G2_GENERATOR.in_subgroup()


def test_g1_group_order():
    assert (G1_GENERATOR * CURVE_ORDER).is_identity
    assert not (G1_GENERATOR * (CURVE_ORDER - 1)).is_identity


def test_identity_laws():
    inf = PointG1.identity()
    p = G1_GENERATOR * 7
    assert p + inf == p
    assert inf + p == p
    assert (p - p).is_identity
    assert (inf * 5).is_identity


def test_addition_matches_scalar_mult():
    p = G1_GENERATOR
    acc = PointG1.identity()
    for k in range(1, 20):
        acc = acc + p
        assert acc == p * k


def test_doubling_consistency():
    p = G1_GENERATOR * 12345
    assert p.double() == p + p == p * 2


def test_negation():
    p = G1_GENERATOR * 99
    assert (p + (-p)).is_identity
    assert -(-p) == p


def test_scalar_mult_distributes():
    a, b = rng.randrange(CURVE_ORDER), rng.randrange(CURVE_ORDER)
    p = G1_GENERATOR
    assert p * a + p * b == p * ((a + b) % CURVE_ORDER)


def test_g2_arithmetic():
    q = G2_GENERATOR
    a, b = 1234, 5678
    assert q * a + q * b == q * (a + b)
    assert (q * a - q * a).is_identity
    assert (q * CURVE_ORDER).is_identity


def test_g2_cofactor_clears_into_subgroup():
    # Pick a twist point NOT in the r-torsion: find one by hashing x until
    # on-curve, then cofactor-clear it.
    from repro.crypto import tower

    x = (5, 7)
    while True:
        rhs = tower.fp2_add(tower.fp2_mul(tower.fp2_sq(x), x), TWIST_B)
        y = tower.fp2_sqrt(rhs)
        if y is not None:
            break
        x = (x[0] + 1, x[1])
    pt = PointG2((x, y))
    assert pt.is_on_curve()
    assert not pt.in_subgroup()
    cleared = pt.clear_cofactor()
    assert cleared.is_on_curve()
    assert cleared.in_subgroup()


def _twist_point(x0):
    x = (x0, 3)
    while True:
        y = tower.fp2_sqrt(tower.fp2_add(tower.fp2_mul(tower.fp2_sq(x), x), TWIST_B))
        if y is not None:
            return PointG2((x, y))
        x = (x[0] + 1, x[1])


def test_fast_g2_membership_agrees_with_the_order_check():
    """The endomorphism test accepts exactly the points [r]Q sends to O:
    G2 points, random twist points, pure cofactor-part points [r]T and
    their sums with G2 points."""
    from repro.crypto.curve import _FP2_OPS, _jac_scalar_mul, _jac_to_affine

    def by_order(pt):
        return _jac_scalar_mul(pt.xy, CURVE_ORDER, _FP2_OPS)[2] == _FP2_OPS.zero

    twists = [_twist_point(x0) for x0 in (5, 11, 2**200 + 9)]
    cofactor_parts = [
        PointG2(_jac_to_affine(_jac_scalar_mul(t.xy, CURVE_ORDER, _FP2_OPS), _FP2_OPS))
        for t in twists
    ]
    members = [G2_GENERATOR * k for k in (1, 2, 12345, CURVE_ORDER - 1)]
    mixed = [c + m for c, m in zip(cofactor_parts, members)]
    for pt in twists + cofactor_parts + members + mixed:
        assert pt.in_subgroup() == by_order(pt)
    assert all(m.in_subgroup() for m in members)
    assert not any(pt.in_subgroup() for pt in twists + cofactor_parts + mixed)
    assert PointG2(None).in_subgroup()


def test_a_subgroup_checked_g2_decode_rejects_a_twist_point():
    group = bn254()
    data = _twist_point(5).to_bytes()
    assert group.deserialize("G2", data).value == _twist_point(5)
    with pytest.raises(DeserializationError, match="subgroup"):
        group.deserialize("G2", data, check_subgroup=True)
    assert group.deserialize("G2", G2_GENERATOR.to_bytes(), check_subgroup=True)


def test_g1_serialization_roundtrip():
    for k in (1, 2, 7, 123456, CURVE_ORDER - 1):
        p = G1_GENERATOR * k
        data = p.to_bytes()
        assert len(data) == 32
        assert PointG1.from_bytes(data) == p


def test_g1_identity_serialization():
    data = PointG1.identity().to_bytes()
    assert PointG1.from_bytes(data).is_identity


def test_g2_serialization_roundtrip():
    for k in (1, 3, 999, 424242):
        q = G2_GENERATOR * k
        data = q.to_bytes()
        assert len(data) == 64
        assert PointG2.from_bytes(data) == q


def test_g2_identity_serialization():
    data = PointG2.identity().to_bytes()
    assert PointG2.from_bytes(data).is_identity


def test_g1_deserialize_rejects_garbage():
    with pytest.raises(CryptoError):
        PointG1.from_bytes(b"\x00" * 31)
    # x = p is out of range.
    with pytest.raises(CryptoError):
        PointG1.from_bytes(FIELD_MODULUS.to_bytes(32, "big"))


def test_point_equality_and_hash():
    p1 = G1_GENERATOR * 5
    p2 = G1_GENERATOR * 5
    assert p1 == p2
    assert hash(p1) == hash(p2)
    assert p1 != G2_GENERATOR * 5  # different groups never equal


def test_serialization_recovers_y_sign():
    p = G1_GENERATOR * 31337
    neg = -p
    assert PointG1.from_bytes(p.to_bytes()) == p
    assert PointG1.from_bytes(neg.to_bytes()) == neg
    assert p.to_bytes() != neg.to_bytes()


# -- canonical decoding: every accepted encoding is the one to_bytes emits --

def test_g2_rejects_unreduced_x0():
    data = G2_GENERATOR.to_bytes()
    x0 = int.from_bytes(data[32:], "big")
    bumped = data[:32] + (x0 + FIELD_MODULUS).to_bytes(32, "big")
    with pytest.raises(CryptoError, match="out of range"):
        PointG2.from_bytes(bumped)
    with pytest.raises(DeserializationError):
        bn254().deserialize("G2", bumped)


def test_g2_rejects_unreduced_x1():
    # x1 + p must still fit below the two flag bits.
    q = next(
        q
        for q in (G2_GENERATOR * k for k in itertools.count(1))
        if q.xy[0][1] + FIELD_MODULUS < 1 << 254
    )
    data = q.to_bytes()
    bumped = (int.from_bytes(data[:32], "big") + FIELD_MODULUS).to_bytes(32, "big") + data[32:]
    with pytest.raises(CryptoError, match="out of range"):
        PointG2.from_bytes(bumped)
    with pytest.raises(DeserializationError):
        bn254().deserialize("G2", bumped)


@pytest.mark.parametrize("junk", [1, 1 << 100, 1 << 254])
def test_identity_encodings_reject_stray_bits(junk):
    flagged = ((1 << 255) | junk).to_bytes(32, "big")
    with pytest.raises(CryptoError, match="stray bits"):
        PointG1.from_bytes(flagged)
    with pytest.raises(CryptoError, match="stray bits"):
        PointG2.from_bytes(flagged + bytes(32))
    with pytest.raises(CryptoError, match="stray bits"):
        PointG2.from_bytes((1 << 255).to_bytes(32, "big") + junk.to_bytes(32, "big"))
    with pytest.raises(DeserializationError):
        bn254().deserialize("G1", flagged)


def _twist_point_with_zero_y0() -> PointG2:
    """A twist point ``(x, (0, y1))``, whose y-sign lives in ``y1`` alone.

    ``p^2 - 1 = 9t`` with ``3 !| t``, so ``rhs^(1/3 mod t)`` is a cube root
    of ``rhs`` for some of the candidates ``rhs = -y1^2 - b'``.
    """
    t = (FIELD_MODULUS**2 - 1) // 9
    u = pow(3, -1, t)
    for y1 in itertools.count(1):
        rhs = tower.fp2_sub((-y1 * y1 % FIELD_MODULUS, 0), TWIST_B)
        x = tower.fp2_pow(rhs, u)
        if tower.fp2_mul(tower.fp2_sq(x), x) == rhs:
            return PointG2((x, (0, y1)))


def test_g2_encoding_separates_y_with_zero_real_part():
    q = _twist_point_with_zero_y0()
    assert q.is_on_curve()
    assert q.to_bytes() != (-q).to_bytes()
    assert PointG2.from_bytes(q.to_bytes()) == q
    assert PointG2.from_bytes((-q).to_bytes()) == -q


@settings(max_examples=150, deadline=None)
@given(st.binary(min_size=32, max_size=32))
def test_accepted_g1_encodings_reencode_to_themselves(data):
    try:
        point = PointG1.from_bytes(data)
    except CryptoError:
        return
    assert point.to_bytes() == data


@settings(max_examples=150, deadline=None)
@given(st.binary(min_size=64, max_size=64))
def test_accepted_g2_encodings_reencode_to_themselves(data):
    try:
        point = PointG2.from_bytes(data)
    except CryptoError:
        return
    assert point.to_bytes() == data


# -- straight-line Jacobian kernels against the affine oracle ----------------

KERNEL_CURVES = {
    "G1": (G1_GENERATOR, curve._FP_OPS, curve.G1_KERNELS),
    "G2": (G2_GENERATOR, curve._FP2_OPS, curve.G2_KERNELS),
}


def _to_jacobian(point, z, ops):
    """``point`` as ``(x z^2, y z^3, z)``; the identity as the kernels' infinity."""
    if point.is_identity:
        return KERNEL_CURVES["G1" if ops is curve._FP_OPS else "G2"][2].infinity
    z2 = ops.sq(z)
    return (ops.mul(point.xy[0], z2), ops.mul(point.xy[1], ops.mul(z2, z)), z)


def _from_jacobian(pt, cls, ops):
    coords = [c for v in pt for c in ((v,) if isinstance(v, int) else v)]
    assert all(0 <= c < FIELD_MODULUS for c in coords), "kernel output not fully reduced"
    return cls(curve._jac_to_affine(pt, ops))


def _check_kernels(p, q, zp, zq, ops, kern):
    cls = type(p)
    jp, jq = _to_jacobian(p, zp, ops), _to_jacobian(q, zq, ops)
    assert _from_jacobian(kern.double(jp), cls, ops) == p.double()
    assert _from_jacobian(kern.add(jp, jq), cls, ops) == p + q
    if not q.is_identity:
        assert _from_jacobian(kern.add_affine(jp, q.xy), cls, ops) == p + q


OPERANDS = ["random", "same", "negated", "left_identity", "right_identity"]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(KERNEL_CURVES)),
    st.sampled_from(OPERANDS),
    st.integers(min_value=1, max_value=CURVE_ORDER - 1),
    st.integers(min_value=1, max_value=CURVE_ORDER - 1),
    st.lists(st.integers(min_value=1, max_value=FIELD_MODULUS - 1), min_size=4, max_size=4),
)
def test_kernels_match_affine_oracle(name, operands, a, b, zs):
    gen, ops, kern = KERNEL_CURVES[name]
    p, q = gen * a, gen * b
    if operands == "same":
        q = p
    elif operands == "negated":
        q = -p
    elif operands == "left_identity":
        p = type(p).identity()
    elif operands == "right_identity":
        q = type(q).identity()
    if name == "G1":
        zp, zq = zs[0], zs[1]
    else:
        zp, zq = (zs[0], zs[1]), (zs[2], zs[3])
    _check_kernels(p, q, zp, zq, ops, kern)


def test_g2_kernels_on_twist_points_with_a_zero_coordinate():
    """Twist points off G2 (one with ``y0 = 0``) take the same formulas."""
    ops, kern = curve._FP2_OPS, curve.G2_KERNELS
    odd = _twist_point_with_zero_y0()
    for p, q in ((odd, _twist_point(5)), (odd, odd), (odd, -odd), (_twist_point(11), odd)):
        _check_kernels(p, q, (3, 0), (0, 7), ops, kern)


@pytest.mark.parametrize("name", sorted(KERNEL_CURVES))
def test_scalar_mul_matches_double_and_add(name):
    gen, _ops, _kern = KERNEL_CURVES[name]
    r = CURVE_ORDER
    for k in (0, 1, 2, r - 1, r, r + 5, -7, 0xDECAF, (1 << 253) + 12345):
        assert gen * k == textbook_mul(gen, k % r)
