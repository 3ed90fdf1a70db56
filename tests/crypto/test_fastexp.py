"""Tests for the fast-path exponentiation layer.

Cross-checks every precomputed path — fixed-base combs, Straus and
Pippenger multi-exponentiation, the GLV-split MSM, the pairing and
hash-to-curve caches — against textbook affine double-and-add
(``tests.crypto.textbook``) and per-element implementations, including
the edge scalars 0, 1, order-1 and order and scalars whose GLV halves
are negative or zero.
"""

import random
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

import repro.crypto.fastgroup as fastgroup_mod
import repro.crypto.group as group_mod
from repro.crypto.curve import (
    _FP2_OPS,
    _FP_OPS,
    FixedBaseComb,
    G1_GENERATOR,
    G2_GENERATOR,
    PointG1,
    PointG2,
    _jac_pippenger,
    _jac_straus,
    _jac_to_affine,
    _msm_endo,
    comb_mul,
    multi_scalar_mul,
)
from repro.crypto.field import CURVE_ORDER as R
from repro.crypto.glv import LAM, decompose
from repro.crypto.group import BN254Group, G1, G2, GT
from repro.errors import CryptoError, GroupMismatchError
from tests.crypto.textbook import textbook_mul

EDGE_SCALARS = (0, 1, R - 1, R)

# (k1, k2) GLV halves -> the scalar k1 + k2 * lam: zero, negative and
# mixed-sign halves, down to the one-bit halves.
HALF_PATTERNS = [(5, 0), (-5, 0), (0, 5), (0, -5), (3, -5), (-3, 5), (-3, -5), (1, -1),
                 (-(1 << 120) - 7, 1 << 119), ((1 << 125) + 3, -(1 << 124))]
SIGNED_HALF_SCALARS = tuple((k1 + k2 * LAM) % R for k1, k2 in HALF_PATTERNS)

G1_CASE = (G1_GENERATOR, PointG1, _FP_OPS)
G2_CASE = (G2_GENERATOR, PointG2, _FP2_OPS)


def _naive_sum(points, scalars, cls):
    acc = cls(None)
    for p, k in zip(points, scalars):
        acc = acc + textbook_mul(p, k)
    return acc


# -- curve-level cross-checks -------------------------------------------
def test_signed_half_scalars_hit_their_patterns():
    assert [decompose(k) for k in SIGNED_HALF_SCALARS] == HALF_PATTERNS


@pytest.mark.parametrize("gen,cls,ops", [G1_CASE, G2_CASE], ids=["G1", "G2"])
def test_comb_matches_double_and_add(gen, cls, ops):
    base = textbook_mul(gen, 0xDECAF)
    comb = FixedBaseComb(base.xy, ops)
    rng = random.Random(5)
    scalars = EDGE_SCALARS + SIGNED_HALF_SCALARS + tuple(rng.randrange(R) for _ in range(6))
    for k in scalars:
        want = textbook_mul(base, k)
        assert cls(comb.mul(k)) == want
        assert base * k == want


@pytest.mark.parametrize("gen,cls,ops", [G1_CASE, G2_CASE], ids=["G1", "G2"])
def test_joint_comb_scan_matches_double_and_add(gen, cls, ops):
    rng = random.Random(11)
    bases = [textbook_mul(gen, rng.randrange(1, R)) for _ in range(3)]
    combs = [FixedBaseComb(b.xy, ops) for b in bases]
    for scalars in ([0, 0, 0], [R - 1, 1, R], list(SIGNED_HALF_SCALARS[:3]),
                    [rng.randrange(R) for _ in range(3)]):
        assert cls(comb_mul(combs, scalars)) == _naive_sum(bases, scalars, cls)
    assert cls(comb_mul(combs[:1], [R - 1])) == -bases[0]
    # Tables of different shapes cannot share a scan.
    with pytest.raises(CryptoError):
        comb_mul([combs[0], FixedBaseComb(bases[1].xy, ops, width=6)], [1, 2])


def test_comb_rejects_identity_base_and_negative_scalar():
    with pytest.raises(CryptoError):
        FixedBaseComb(None, _FP_OPS)
    comb = FixedBaseComb(G1_GENERATOR.xy, _FP_OPS)
    with pytest.raises(CryptoError):
        comb.mul(-1)


@pytest.mark.parametrize("gen,cls,ops", [G1_CASE, G2_CASE], ids=["G1", "G2"])
def test_straus_and_pippenger_agree_with_naive(gen, cls, ops):
    rng = random.Random(6)
    points = [textbook_mul(gen, rng.randrange(1, R)) for _ in range(5)]
    scalars = [rng.getrandbits(64) | 1 for _ in range(5)]
    want = _naive_sum(points, scalars, cls)
    xys = [p.xy for p in points]
    straus = cls(_jac_to_affine(_jac_straus(xys, scalars, ops), ops))
    pippenger = cls(_jac_to_affine(_jac_pippenger(xys, scalars, ops), ops))
    assert straus == want
    assert pippenger == want


@pytest.mark.parametrize("gen,cls,ops", [G1_CASE, G2_CASE], ids=["G1", "G2"])
def test_msm_glv_split_full_width(gen, cls, ops):
    """Full-width scalars route through the GLV split; edges included."""
    rng = random.Random(7)
    points = [textbook_mul(gen, rng.randrange(1, R)) for _ in range(4)]
    for scalars in ([1, R - 1, R, rng.randrange(R)], [R, R, R, R], list(SIGNED_HALF_SCALARS[6:])):
        want = _naive_sum(points, scalars, cls)
        got = cls(multi_scalar_mul([p.xy for p in points], scalars, ops))
        assert got == want


def test_endomorphism_acts_as_lambda_on_g2():
    beta, lam = _msm_endo(_FP2_OPS)
    point = textbook_mul(G2_GENERATOR, 1234)
    phi = PointG2((_FP2_OPS.mul(point.xy[0], beta), point.xy[1]))
    assert phi == textbook_mul(point, lam)


@given(st.lists(st.integers(min_value=1, max_value=R - 1), min_size=2, max_size=4))
@settings(max_examples=8, deadline=None)
def test_msm_matches_naive_property(scalars):
    points = [textbook_mul(G1_GENERATOR, 2 * i + 3) for i in range(len(scalars))]
    want = _naive_sum(points, scalars, PointG1)
    assert PointG1(multi_scalar_mul([p.xy for p in points], scalars, _FP_OPS)) == want


# -- group-level contracts (both backends) ------------------------------
def test_pow_fixed_matches_pow(any_group):
    grp = any_group
    rng = random.Random(8)
    for base in (grp.g1 ** 777, grp.g2 ** 31, grp.gt ** 5):
        for k in EDGE_SCALARS + (grp.random_scalar(rng),):
            assert grp.pow_fixed(base, k) == base**k
    # Identity bases are handled too.
    assert grp.pow_fixed(grp.identity(G1), 42) == grp.identity(G1)


def test_multi_pow_matches_naive_product(any_group):
    grp = any_group
    rng = random.Random(9)
    for g, kind in ((grp.g1, G1), (grp.g2, G2)):
        bases = [g ** grp.random_scalar(rng) for _ in range(4)]
        for exps in (
            [1, R - 1, R, grp.random_scalar(rng)],
            [rng.getrandbits(64) | 1 for _ in range(4)],
        ):
            want = grp.identity(kind)
            for b, e in zip(bases, exps):
                want = want * b**e
            assert grp.multi_pow(bases, exps) == want


def test_multi_pow_validates_arguments(any_group):
    grp = any_group
    with pytest.raises(CryptoError):
        grp.multi_pow([], [])
    with pytest.raises(CryptoError):
        grp.multi_pow([grp.g1], [1, 2])
    with pytest.raises(GroupMismatchError):
        grp.multi_pow([grp.g1, grp.g2], [1, 2])


def test_multi_pow_uses_warm_combs(any_group):
    """The all-bases-warm comb path agrees with the naive product."""
    grp = any_group
    bases = [grp.g2 ** e for e in (3, 5, 7)]
    for b in bases:
        grp.pow_fixed(b, 1)  # build combs
    exps = [R - 1, 1, random.Random(10).randrange(R)]
    want = grp.identity(G2)
    for b, e in zip(bases, exps):
        want = want * b**e
    assert grp.multi_pow(bases, exps) == want


def test_fast_paths_off_agrees(any_group):
    grp = any_group
    base = grp.g1 ** 1001
    exps = [5, R - 1]
    want_pow = base ** exps[0]
    want_mp = base ** exps[0] * grp.g1 ** exps[1]
    try:
        grp.fast_paths = False
        assert grp.pow_fixed(base, exps[0]) == want_pow
        assert grp.multi_pow([base, grp.g1], exps) == want_mp
    finally:
        grp.fast_paths = True


# -- BN254 caches -------------------------------------------------------
def test_pair_cache_returns_bit_identical():
    grp = BN254Group()
    a, b = grp.g1 ** 3, grp.g2 ** 5
    before = grp.stats.snapshot()
    first = grp.pair(a, b)
    second = grp.pair(a, b)
    delta = grp.stats.delta(before)
    assert delta["pairings"] == 1
    assert delta["pair_cache_hits"] == 1
    assert first.to_bytes() == second.to_bytes()
    grp.fast_paths = False
    assert grp.pair(a, b) == first  # cache bypassed, same value


def test_hash_to_g1_memo():
    grp = BN254Group()
    before = grp.stats.snapshot()
    first = grp.hash_to_g1(b"role", b"A")
    second = grp.hash_to_g1(b"role", b"A")
    delta = grp.stats.delta(before)
    assert first == second
    assert delta["h2g1_misses"] == 1
    assert delta["h2g1_hits"] == 1
    grp.fast_paths = False
    assert grp.hash_to_g1(b"role", b"A") == first


def test_gt_deserialize_subgroup_check():
    grp = BN254Group()
    gt = grp.gt ** 9
    ok = grp.deserialize(GT, gt.to_bytes(), check_subgroup=True)
    assert ok == gt
    # An Fp12 encoding of the constant 2: valid field element, not in
    # the order-r subgroup.
    junk = (2).to_bytes(32, "big") + bytes(352)
    assert grp.deserialize(GT, junk) is not None  # fast default: accepted
    with pytest.raises(CryptoError):
        grp.deserialize(GT, junk, check_subgroup=True)


def test_simulated_deserialize_accepts_subgroup_flag():
    grp = fastgroup_mod.SimulatedGroup()
    gt = grp.gt ** 7
    assert grp.deserialize(GT, gt.to_bytes(), check_subgroup=True) == gt


# -- op counters --------------------------------------------------------
def test_stats_count_fast_and_naive_paths():
    grp = fastgroup_mod.SimulatedGroup()
    base = grp.g1 ** 12
    before = grp.stats.snapshot()
    grp.pow_fixed(base, 5)
    grp.multi_pow([base, grp.g1], [1, 2])
    _ = base * base
    delta = grp.stats.delta(before)
    assert delta["pows_fixed"] == 1
    assert delta["multi_pows"] == 1
    assert delta["ops"] >= 1
    grp.fast_paths = False
    before = grp.stats.snapshot()
    grp.pow_fixed(base, 5)
    assert grp.stats.delta(before)["pows"] == 1


# -- singleton thread safety --------------------------------------------
@pytest.mark.parametrize(
    "mod,attr,factory",
    [
        (group_mod, "_DEFAULT_BN254", group_mod.bn254),
        (fastgroup_mod, "_DEFAULT", fastgroup_mod.simulated),
    ],
    ids=["bn254", "simulated"],
)
def test_singleton_survives_thread_hammer(mod, attr, factory):
    saved = getattr(mod, attr)
    setattr(mod, attr, None)
    try:
        barrier = threading.Barrier(32)
        seen = []

        def worker():
            barrier.wait()
            seen.append(factory())

        threads = [threading.Thread(target=worker) for _ in range(32)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(seen) == 32
        assert len({id(g) for g in seen}) == 1
    finally:
        setattr(mod, attr, saved)


# -- comb-table memory bound --------------------------------------------
#: Stated per-table bound (docs/PERFORMANCE.md, "Caches"): a G2 table,
#: the larger, is 2 x 127 affine Fp2 points.
G2_TABLE_BYTES_MAX = 84_000


def _deep_size(obj, seen) -> int:
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    size = sys.getsizeof(obj)
    if isinstance(obj, (list, tuple)):
        size += sum(_deep_size(item, seen) for item in obj)
    return size


def test_comb_tables_fit_the_stated_memory_bound():
    sizes = {}
    for name, gen, ops in (("G1", G1_GENERATOR, _FP_OPS), ("G2", G2_GENERATOR, _FP2_OPS)):
        comb = FixedBaseComb(textbook_mul(gen, 0xC0FFEE).xy, ops)
        assert len(comb.table) - 1 == len(comb.phi_table) - 1 == 127
        seen = set()
        sizes[name] = _deep_size(comb.table, seen) + _deep_size(comb.phi_table, seen)
    assert sizes["G1"] < sizes["G2"] <= G2_TABLE_BYTES_MAX
    assert BN254Group.COMB_CACHE_MAX * G2_TABLE_BYTES_MAX <= 5_400_000


def test_comb_cache_evicts_least_recent_at_the_bound():
    grp = BN254Group()
    bound = grp.COMB_CACHE_MAX
    bases = [grp.g1 ** (i + 2) for i in range(bound + 1)]
    for base in bases[:bound]:
        grp.pow_fixed(base, 1)
    grp.pow_fixed(bases[0], 3)  # refresh the oldest: bases[1] is now least recent
    assert grp.stats.combs_built == bound
    grp.pow_fixed(bases[bound], 1)
    assert len(grp._combs) == bound
    keys = set(grp._combs)
    assert (G1, bases[1].to_bytes()) not in keys
    assert (G1, bases[0].to_bytes()) in keys and (G1, bases[bound].to_bytes()) in keys
    before = grp.stats.combs_built
    assert grp.pow_fixed(bases[1], 5) == bases[1] ** 5  # rebuilt on demand
    assert grp.stats.combs_built == before + 1
    assert len(grp._combs) == bound
