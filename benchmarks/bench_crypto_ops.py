"""Microbenchmarks for the fast-path exponentiation layer (old vs new).

Times the BN254 backend's precomputed paths against the generic ones on
fixed seeds and writes ``BENCH_crypto.json`` at the repo root:

* ``pow_fixed_*``   — fixed-base comb vs GLV/wNAF ``**`` on G1/G2/GT;
* ``multi_pow``     — Straus/Pippenger multi-exponentiation vs the naive
  per-term product (64-bit batching exponents, the batch-verify shape);
* ``aps_table_setup`` — DataOwner key generation + AP2G-tree signing,
  the APS signing-heavy setup phase (target >= 2x);
* ``batched_vo_verify`` — merged shared-base pairing batch vs the
  unmerged small-exponents reference (target >= 3x);
* ``cold_vo_settle`` — one cold BN254 VO mixing APP entries under AND/OR
  policies with APS entries: :func:`repro.core.verifier.settle` (one
  merged product) against per-entry ABS.Verify, with wall times plus
  exact Miller loops and final exponentiations per arm;
* ``multi_pair`` — one lockstep multi-pairing (shared Miller-loop
  squarings, batched line inversions, one final exponentiation) vs the
  product of n single ``pair()`` calls, at n = 1, 2, 4, 6 pairs;
* ``envelope`` — the hybrid CP-ABE + AES-CTR response envelope
  (:mod:`repro.abe.hybrid`) at 1, 2 and 3 roles and 1 KB / 4 KB
  payloads: seal and open wall times plus the exact pairings per open,
  for a cache ``miss`` (the paper's fresh per-response seal) and a
  ``hit`` (the KEM reused from a warm sealer cache and client memo).
  It has no old arm (a miss is the only uncached path); its times are
  reported with the host's ``cpu_count`` and are not comparable across
  hosts.
* ``warm_read`` — one sealed BN254 response opened and verified by a
  ``QueryUser`` cold, then a second response to the same query warm:
  wall times plus exact pairings, points decoded and verified-entry /
  KEM memo counts.  A warm read runs no pairing and decodes no point:
  the client's memos recognise every entry and the CP-ABE header by
  their wire bytes.  The same warm read is also timed with
  observability on and off, alternating in-process.
* ``dem`` — the AES-128-CTR + HMAC-SHA256 envelope alone (no KEM) at
  16 B to 64 KiB: seal and open with the old one-block-at-a-time T-table
  kernel (``ttable_aes.py``, kept here as the reference arm) against the
  library's byte-sliced kernel, warm (its lane-key cache holds the
  payload's entry, as on a repeated read) and cold (the cache emptied
  before every call, so the arm shows the kernel apart from the cache).
  Both arms' envelopes are asserted byte-identical before timing.
* ``fixed_base`` — one G1 and one G2 base: comb table build and per-
  exponent evaluation with the old 254-bit width-6 comb on generic point
  arithmetic (``wide_comb.py``, the reference arm) against the library's
  GLV-split width-7 comb on straight-line kernels; outputs asserted equal.
* ``do_sign`` — a warmed DO signer's ABS.Sign over one small table (8
  records under AND, OR and mixed policies), on a ``WideCombGroup``
  (reference combs behind ``pow_fixed``) and on the library's backend:
  wall time per table plus exact op counts; signatures asserted
  byte-identical.

Every arm runs on a *fresh* group instance (comb tables and memos are
per-instance).  The old arms of ``pow_fixed_*``, ``multi_pow``,
``aps_table_setup``, ``batched_vo_verify`` and ``multi_pair`` run on
``generic_group.GenericGroup``, whose ``pow_fixed``/``multi_pow`` are the
generic ``**`` paths (``generic_group.py``).  Both arms consume the same
rng stream, so their outputs are asserted bit-identical before any timing
is trusted.

Fast ``test_smoke_*`` functions run in CI (``-m "not slow"``); the full
comparison runs as ``@pytest.mark.slow`` (asserting the targets) or as
``python benchmarks/bench_crypto_ops.py``, the one writer of
``BENCH_crypto.json``.
"""

from __future__ import annotations

import json
import os
import pathlib
import random
import statistics
import time

import generic_group
import pytest
import ttable_aes
import wide_comb

from repro import obs
from repro.abe.cpabe import CpAbeScheme
from repro.abe.hybrid import decrypt_envelope, encrypt_for_roles
from repro.abs.batch import BatchItem, batch_verify, batch_verify_unmerged, find_invalid
from repro.abs.scheme import AbsScheme
from repro.core.app_signature import AppAuthenticator
from repro.core.messages import decode_response, encode_response
from repro.core.records import Dataset, Record
from repro.core.system import DataOwner, QueryUser
from repro.core.verifier import collect_vo, settle
from repro.crypto import aes, pairing
from repro.crypto.curve import _FP2_OPS, _FP_OPS, G1_GENERATOR, G2_GENERATOR, FixedBaseComb
from repro.crypto.group import BN254Group
from repro.index.boxes import Box, Domain
from repro.memo import BoundedMemo
from repro.obs import ledger as obs_ledger
from repro.policy.boolexpr import or_of_attrs, parse_policy
from repro.policy.roles import RoleUniverse
from repro.policy.policygen import PolicyGenerator
from repro.workload.tpch import TpchConfig, TpchGenerator

SEED = 2018
JSON_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_crypto.json"


def _time_best(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _timed_ops(grp: BN254Group, fn, repeats: int = 3) -> tuple[float, dict]:
    """Best-of wall time plus the op-count delta of one run."""
    seconds = _time_best(fn, repeats)
    before = grp.stats.snapshot()
    fn()
    ops = {k: v for k, v in grp.stats.delta(before).items() if v}
    return seconds, ops


def _entry(old_s: float, new_s: float, ops_old: dict, ops_new: dict, **extra) -> dict:
    return {
        "old_s": round(old_s, 6),
        "new_s": round(new_s, 6),
        "speedup": round(old_s / new_s, 3) if new_s else float("inf"),
        "ops_old": ops_old,
        "ops_new": ops_new,
        **extra,
    }


# ----------------------------------------------------------------------
def scenario_pow_fixed(kind: str, n_exps: int = 8) -> dict:
    """Repeated exponentiations of one fixed base: comb vs generic ``**``."""

    def world(grp):
        rng = random.Random(SEED)
        if kind == "G1":
            base = grp.g1 ** grp.random_scalar(rng)
        elif kind == "G2":
            base = grp.g2 ** grp.random_scalar(rng)
        else:
            base = grp.pair(grp.g1, grp.g2) ** grp.random_scalar(rng)
        return base, [grp.random_scalar(rng) for _ in range(n_exps)]

    grp_old, grp = generic_group.GenericGroup(), BN254Group()
    (base_old, exps), (base, _) = world(grp_old), world(grp)
    old_out = [grp_old.pow_fixed(base_old, e).to_bytes() for e in exps]
    old_s, ops_old = _timed_ops(grp_old, lambda: [grp_old.pow_fixed(base_old, e) for e in exps])
    grp.pow_fixed(base, 1)  # build the comb outside the timed region
    new_out = [grp.pow_fixed(base, e).to_bytes() for e in exps]
    new_s, ops_new = _timed_ops(grp, lambda: [grp.pow_fixed(base, e) for e in exps])

    assert old_out == new_out
    return _entry(old_s, new_s, ops_old, ops_new, kind=kind, n_exps=n_exps)


def scenario_multi_pow(n: int = 24, bits: int = 64) -> dict:
    """One n-term multi-exponentiation vs the naive per-term product."""

    def world(grp):
        rng = random.Random(SEED + 1)
        bases = [grp.g1 ** grp.random_scalar(rng) for _ in range(n)]
        return bases, [rng.getrandbits(bits) | 1 for _ in range(n)]

    grp_old, grp = generic_group.GenericGroup(), BN254Group()
    (bases_old, exps), (bases, _) = world(grp_old), world(grp)

    def naive():
        out = bases_old[0] ** exps[0]
        for b, e in zip(bases_old[1:], exps[1:]):
            out = out * b**e
        return out

    old_s, ops_old = _timed_ops(grp_old, naive)
    new_s, ops_new = _timed_ops(grp, lambda: grp.multi_pow(bases, exps))
    assert naive().to_bytes() == grp.multi_pow(bases, exps).to_bytes()
    return _entry(old_s, new_s, ops_old, ops_new, n=n, bits=bits)


def _build_table(grp: BN254Group, workload, dataset, scheme_cls=None):
    owner = DataOwner(grp, workload.universe, rng=random.Random(SEED + 2))
    if scheme_cls is not None:
        owner.signer.scheme = scheme_cls(grp)
    tree = owner.build_tree(dataset)
    return owner, tree


def scenario_aps_setup(shape: tuple[int, ...] = (8, 2, 2), repeats: int = 2) -> dict:
    """End-to-end table setup: keygen + APP-signing one AP2G-tree."""
    gen = PolicyGenerator(num_roles=6, num_policies=6, seed=SEED)
    workload = gen.generate()
    dataset = TpchGenerator(TpchConfig(scale=0.3, shape=shape, seed=SEED)).lineitem(workload)

    grp_old, generic = generic_group.GenericGroup(), generic_group.GenericAbsScheme
    old_s, ops_old = _timed_ops(
        grp_old, lambda: _build_table(grp_old, workload, dataset, generic), repeats
    )
    grp_new = BN254Group()
    new_s, ops_new = _timed_ops(
        grp_new, lambda: _build_table(grp_new, workload, dataset), repeats
    )

    # Same seeds + same rng consumption: the signed trees must agree bit
    # for bit on either group.
    _, tree_old = _build_table(grp_old, workload, dataset, generic)
    _, tree_new = _build_table(grp_new, workload, dataset)
    sig_old = tree_old.root.signature.to_bytes()
    sig_new = tree_new.root.signature.to_bytes()
    assert sig_old == sig_new
    return _entry(old_s, new_s, ops_old, ops_new, shape=list(shape))


def scenario_batched_vo(n_items: int = 10, n_attrs: int = 3) -> dict:
    """Batched APS verification: merged pairings vs unmerged reference."""

    def world(grp):
        scheme = AbsScheme(grp)
        rng = random.Random(SEED + 3)
        keys = scheme.setup(rng)
        roles = [f"R{i}" for i in range(n_attrs + 2)]
        sk = scheme.keygen(keys, roles, rng)
        policy = or_of_attrs(tuple(roles[:n_attrs]))
        items = []
        for k in range(n_items):
            message = f"record-{k}".encode()
            sig = scheme.sign(keys.mvk, sk, message, policy, rng)
            items.append(BatchItem(message=message, policy=policy, signature=sig))
        return scheme, keys, items

    grp_old, grp = generic_group.GenericGroup(), BN254Group()
    (scheme_old, keys_old, items_old), (scheme, keys, items) = world(grp_old), world(grp)
    assert [i.signature.to_bytes() for i in items_old] == [i.signature.to_bytes() for i in items]
    assert batch_verify_unmerged(scheme_old, keys_old.mvk, items_old)
    old_s, ops_old = _timed_ops(
        grp_old, lambda: batch_verify_unmerged(scheme_old, keys_old.mvk, items_old)
    )
    assert batch_verify(scheme, keys.mvk, items)
    new_s, ops_new = _timed_ops(grp, lambda: batch_verify(scheme, keys.mvk, items))
    return _entry(old_s, new_s, ops_old, ops_new, n_items=n_items, n_attrs=n_attrs)


def _pairing_steps(fn) -> dict:
    """Miller loops and final exponentiations one run of ``fn`` computes."""
    counts = {"miller_loops": 0, "final_exps": 0}
    multi_miller, final_exp = pairing._multi_miller, pairing.final_exponentiation

    def counted_miller(pairs):
        pairs = list(pairs)
        counts["miller_loops"] += sum(
            1 for p, q in pairs if not (p.is_identity or q.is_identity)
        )
        return multi_miller(pairs)

    def counted_final_exp(f):
        counts["final_exps"] += 1
        return final_exp(f)

    pairing._multi_miller, pairing.final_exponentiation = counted_miller, counted_final_exp
    try:
        fn()
    finally:
        pairing._multi_miller, pairing.final_exponentiation = multi_miller, final_exp
    return counts


COLD_VO_RECORDS = (
    (1, "R0 and R1"), (3, "R2 and R3"), (5, "R0 or R2"), (6, "(R0 and R1) or R3"),
    (9, "R3"), (10, "R1 and R2"), (12, "R1 or R3"), (14, "R2"),
)


def scenario_cold_vo_settle(repeats: int = 3) -> dict:
    """One cold VO's signatures: merged ``settle`` vs per-entry ABS.Verify.

    A user holding ``R0, R1`` reads the whole domain of an 8-record table
    whose policies mix AND and OR, so the VO carries APP entries under
    AND/OR policies (AND gates give -1 span-program entries) and APS
    entries.  The user's pairing-free checks run once, outside the timing.
    Both arms start cold: the settle arm's authenticator has no memo, and
    no backend caches pairings.
    """
    grp = BN254Group()
    universe = RoleUniverse(["R0", "R1", "R2", "R3"])
    dataset = Dataset(Domain.of((0, 15)))
    for key, policy in COLD_VO_RECORDS:
        dataset.add(Record((key,), b"row-%d" % key, parse_policy(policy)))
    owner = DataOwner(grp, universe, rng=random.Random(SEED + 8))
    provider = owner.outsource({"t": dataset})
    roles = frozenset({"R0", "R1"})
    query = Box((0,), (15,))
    vo = provider.range_query("t", (0,), (15,), roles, encrypt=False,
                              rng=random.Random(SEED + 9)).vo
    auth = AppAuthenticator(grp, universe, owner.mvk)
    records, obligations = collect_vo(vo, auth, query, roles)

    def per_entry():
        assert find_invalid(auth.scheme, auth.mvk, obligations) == []

    def merged():
        settle(obligations, auth)

    arms = {}
    for name, fn in (("per_entry", per_entry), ("settle", merged)):
        fn()  # builds the attribute-base combs both arms share
        arms[name] = {"s": round(_time_best(fn, repeats), 6), **_pairing_steps(fn)}
    return {
        "host": {"cpu_count": os.cpu_count()},
        "repeats": repeats,
        "entries": len(obligations),
        "app_entries": sum(ob.kind == "APP" for ob in obligations),
        "aps_entries": sum(ob.kind == "APS" for ob in obligations),
        "columns": sum(len(ob.signature.p) for ob in obligations),
        "records": len(records),
        **arms,
        "speedup": round(arms["per_entry"]["s"] / arms["settle"]["s"], 3),
    }


def scenario_multi_pair(counts: tuple[int, ...] = (1, 2, 4, 6), repeats: int = 3) -> dict:
    """``multi_pair`` over n pairs vs the product of n ``pair()`` calls."""
    rng = random.Random(SEED + 5)
    scalars = [(rng.randrange(1, 1 << 64), rng.randrange(1, 1 << 64)) for _ in range(max(counts))]
    arms = {}
    for n in counts:
        # Every repeat of the old arm runs all n pairings, one final
        # exponentiation each.
        grp_old, grp_new = generic_group.GenericGroup(), BN254Group()
        old_pairs = [(grp_old.g1**a, grp_old.g2**b) for a, b in scalars[:n]]
        new_pairs = [(grp_new.g1**a, grp_new.g2**b) for a, b in scalars[:n]]

        def product():
            out = grp_old.pair(*old_pairs[0])
            for a, b in old_pairs[1:]:
                out = out * grp_old.pair(a, b)
            return out

        assert product().to_bytes() == grp_new.multi_pair(new_pairs).to_bytes()
        old_s, ops_old = _timed_ops(grp_old, product, repeats)
        new_s, ops_new = _timed_ops(grp_new, lambda: grp_new.multi_pair(new_pairs), repeats)
        arms[f"n{n}"] = _entry(old_s, new_s, ops_old, ops_new, n=n)
    return {"host": {"cpu_count": os.cpu_count()}, "repeats": repeats, "arms": arms}


def scenario_envelope(
    role_counts: tuple[int, ...] = (1, 2, 3),
    sizes: tuple[int, ...] = (1024, 4096),
    repeats: int = 3,
) -> dict:
    """BN254 hybrid seal and open of one payload under an AND of roles.

    ``miss`` is the paper's per-response seal: a fresh encapsulation per
    envelope, opened without a memo.  ``hit`` seals through a sealer's
    KEM cache and opens through a client memo that already hold this role
    set's encapsulation, as a warm service provider and client do.
    """
    grp = BN254Group()
    rng = random.Random(SEED + 4)
    scheme = CpAbeScheme(grp)
    keys = scheme.setup(rng)
    arms = {}
    for n_roles in role_counts:
        roles = [f"R{i}" for i in range(n_roles)]
        sk = scheme.keygen(keys, roles, rng)
        for size in sizes:
            payload = rng.randbytes(size)
            # Every miss-arm response carries a fresh envelope, so each
            # timed open gets its own.  The first seal builds the
            # fixed-base combs; the hit arm's first seal and open fill its
            # cache and memo.
            cache, memo = BoundedMemo(1), BoundedMemo(1)
            decrypt_envelope(
                scheme, sk, encrypt_for_roles(scheme, keys.public, roles, payload, rng, cache),
                cache=memo,
            )
            arm = {"roles": n_roles, "payload_bytes": size}
            for name, seal_cache, open_cache in (("miss", None, None), ("hit", cache, memo)):
                seal_times, open_times = [], []
                for _ in range(repeats):
                    t0 = time.perf_counter()
                    envp = encrypt_for_roles(scheme, keys.public, roles, payload, rng, seal_cache)
                    seal_times.append(time.perf_counter() - t0)
                    before = grp.stats.snapshot()
                    t0 = time.perf_counter()
                    opened = decrypt_envelope(scheme, sk, envp, cache=open_cache)
                    open_times.append(time.perf_counter() - t0)
                    open_ops = grp.stats.delta(before)
                    assert opened == payload
                arm["sealed_bytes"] = envp.byte_size()
                arm[f"seal_{name}_s"] = round(min(seal_times), 6)
                arm[f"open_{name}_s"] = round(min(open_times), 6)
                arm[f"pairings_per_open_{name}"] = open_ops["pairings"]
                arm[f"pair_cache_hits_per_open_{name}"] = open_ops["pair_cache_hits"]
            arms[f"roles{n_roles}_{size // 1024}kb"] = arm
    return {"host": {"cpu_count": os.cpu_count()}, "repeats": repeats, "arms": arms}


def scenario_warm_read(repeats: int = 3, obs_pairs: int = 20) -> dict:
    """A ``QueryUser`` decodes, opens and verifies a sealed BN254 range answer, cold then warm.

    The service provider's APS and KEM caches are warm after the first
    answer, so every later answer to the same query carries the same
    signatures and header under a fresh body nonce.  ``points`` counts
    the G1/G2 points the answer carries (``C'`` and each ``(C_i, D_i)``
    of the header, then ``(Y, W, S_1..S_l, P_1..P_t)`` of each VO entry's
    signature); ``points_decoded`` is the exact number the read decoded.
    Memo counts come from this thread's ledger tally (observability must
    be on).  ``obs`` times the same warm read ``obs_pairs`` times with
    observability on and off, alternating, and reports each side's median.
    """
    grp = BN254Group()
    rng = random.Random(SEED + 6)
    universe = RoleUniverse(["R0", "R1", "R2"])
    dataset = Dataset(Domain.of((0, 15)))
    for key, value, policy in (((3,), b"three", "R0"), ((9,), b"nine", "R1 or R2"),
                               ((12,), b"twelve", "R2")):
        dataset.add(Record(key, value, parse_policy(policy)))
    owner = DataOwner(grp, universe, rng=rng)
    provider = owner.outsource({"t": dataset})
    user = QueryUser(grp, universe, owner.register_user(["R0", "R1"]))

    def sealed_wire():
        sealed = provider.range_query("t", (0,), (15,), user.roles, encrypt=True, rng=rng)
        return encode_response(sealed)

    def timed_read(wire):
        t0 = time.perf_counter()
        records = user.verify(decode_response(grp, wire))
        return time.perf_counter() - t0, records

    def read():
        wire = sealed_wire()
        before, tallied = grp.stats.snapshot(), obs_ledger.tally_snapshot()
        seconds, records = timed_read(wire)
        ops = grp.stats.delta(before)
        counters = obs_ledger.tally_since(tallied)
        response = decode_response(grp, wire)
        points = 1 + 2 * len(response.envelope.header.c_rows) + sum(
            2 + len(sig.s) + len(sig.p)
            for sig in (getattr(e, "signature", None) or e.aps for e in user._open(response))
        )
        arm = {
            "s": seconds,
            "records": len(records),
            "points": points,
            "points_decoded": ops["points_decoded"],
            "pairings": ops["pairings"],
            "pair_cache_hits": ops["pair_cache_hits"],
        }
        for name in ("verify_memo", "kem_memo"):
            for outcome in ("hits", "misses"):
                arm[f"{name}_{outcome}"] = counters.get(f"{name}_{outcome}", 0)
        return arm

    cold = read()
    warm = [read() for _ in range(repeats)]
    for arm in (cold, *warm):
        arm["s"] = round(arm["s"], 6)
    best = min(warm, key=lambda arm: arm["s"])
    sides = {True: [], False: []}
    was = obs.set_enabled(True)
    try:
        for _ in range(obs_pairs):
            for enabled in (True, False):
                wire = sealed_wire()
                obs.set_enabled(enabled)
                sides[enabled].append(timed_read(wire)[0])
                obs.set_enabled(True)
    finally:
        obs.set_enabled(was)
    on, off = (statistics.median(sides[flag]) for flag in (True, False))
    return {
        "host": {"cpu_count": os.cpu_count()},
        "repeats": repeats,
        "cold": cold,
        "warm": best,
        "speedup": round(cold["s"] / best["s"], 3),
        "obs": {
            "pairs": obs_pairs,
            "warm_on_s": round(on, 6),
            "warm_off_s": round(off, 6),
            "overhead": round((on - off) / on, 3),
        },
    }


def scenario_dem(
    sizes: tuple[int, ...] = (16, 256, 1024, 4096, 65536), repeats: int = 5
) -> dict:
    """AES+HMAC seal and open alone: T-table reference arm vs byte-sliced kernel.

    The byte-sliced kernel is timed warm (``new``) and with its lane-key
    cache emptied before every call (``cold``).  Each timing runs
    ``max(1, 16384 // size)`` calls so that small payloads are not timed
    one call at a time; the reported times are per call.
    """
    rng = random.Random(SEED + 7)
    key_material, nonce = rng.randbytes(32), rng.randbytes(12)

    def cold(fn):
        def run(*args, **kwargs):
            aes._LANE_KEYS.clear()
            return fn(*args, **kwargs)
        return run

    sides = (
        ("old", ttable_aes.seal, ttable_aes.open_sealed),
        ("new", aes.seal, aes.open_sealed),
        ("cold", cold(aes.seal), cold(aes.open_sealed)),
    )
    arms = {}
    for size in sizes:
        payload = rng.randbytes(size)
        envelope = aes.seal(key_material, payload, nonce=nonce)
        assert ttable_aes.seal(key_material, payload, nonce=nonce) == envelope
        assert ttable_aes.open_sealed(key_material, envelope) == payload
        assert aes.open_sealed(key_material, envelope) == payload
        calls = max(1, 16384 // size)
        arm = {"payload_bytes": size, "calls_per_timing": calls}
        for side, seal, open_sealed in sides:
            seal_s = _time_best(
                lambda: [seal(key_material, payload, nonce=nonce) for _ in range(calls)],
                repeats,
            )
            open_s = _time_best(
                lambda: [open_sealed(key_material, envelope) for _ in range(calls)],
                repeats,
            )
            arm[f"seal_{side}_s"] = round(seal_s / calls, 7)
            arm[f"open_{side}_s"] = round(open_s / calls, 7)
        for side, suffix in (("new", ""), ("cold", "_cold")):
            for op in ("seal", "open"):
                arm[f"{op}_speedup{suffix}"] = round(arm[f"{op}_old_s"] / arm[f"{op}_{side}_s"], 3)
        arms[f"{size}b"] = arm
    return {"host": {"cpu_count": os.cpu_count()}, "repeats": repeats,
            "lane_key_cache_bytes": aes.LANE_KEY_CACHE_BYTES, "arms": arms}


def scenario_fixed_base(n_exps: int = 8, repeats: int = 3) -> dict:
    """One fixed base per group: table build and per-exponent evaluation, old vs new comb."""
    rng = random.Random(SEED + 12)
    order = BN254Group().order
    arms = {}
    for kind, gen, ops in (("G1", G1_GENERATOR, _FP_OPS), ("G2", G2_GENERATOR, _FP2_OPS)):
        base = gen * rng.randrange(1, order)
        exps = [rng.randrange(order) for _ in range(n_exps)]
        arm = {"n_exps": n_exps}
        outputs = {}
        for side, make in (
            ("old", lambda: wide_comb.WideComb(base.xy, ops)),
            ("new", lambda: FixedBaseComb(base.xy, ops)),
        ):
            comb = make()
            outputs[side] = [comb.mul(e) for e in exps]
            arm[f"build_{side}_s"] = round(_time_best(make, repeats), 6)
            evals = _time_best(lambda: [comb.mul(e) for e in exps], repeats)
            arm[f"eval_{side}_s"] = round(evals / n_exps, 7)
            tables = (comb.table,) if side == "old" else (comb.table[1:], comb.phi_table[1:])
            arm[f"table_points_{side}"] = sum(len(t) for t in tables)
        assert outputs["old"] == outputs["new"]
        arm["build_speedup"] = round(arm["build_old_s"] / arm["build_new_s"], 3)
        arm["eval_speedup"] = round(arm["eval_old_s"] / arm["eval_new_s"], 3)
        arms[kind] = arm
    return {"host": {"cpu_count": os.cpu_count()}, "repeats": repeats, "arms": arms}


def scenario_do_sign(repeats: int = 3) -> dict:
    """A warmed DO signer's ABS.Sign over one small table, reference combs vs GLV combs.

    Each arm signs the ``COLD_VO_RECORDS`` table (AND, OR and mixed
    policies over 4 roles) with per-record seeded rngs, after
    ``warm_caches`` has built every fixed-base comb, so the timed region
    is signing alone.
    """
    universe = RoleUniverse(["R0", "R1", "R2", "R3"])
    records = [Record((key,), b"row-%d" % key, parse_policy(policy))
               for key, policy in COLD_VO_RECORDS]
    arms, signatures = {}, {}
    for name, grp in (("wide_comb", wide_comb.WideCombGroup()), ("glv_comb", BN254Group())):
        signer = DataOwner(grp, universe, rng=random.Random(SEED + 10)).signer
        signer.warm_caches()

        def sign_table():
            return [signer.sign_record(rec, random.Random(SEED + 11 + i))
                    for i, rec in enumerate(records)]

        signatures[name] = [sig.to_bytes() for sig in sign_table()]
        seconds, ops = _timed_ops(grp, sign_table, repeats)
        arms[name] = {"s": round(seconds, 6),
                      "per_signature_ms": round(seconds / len(records) * 1e3, 3), "ops": ops}
    assert signatures["wide_comb"] == signatures["glv_comb"]
    return {
        "host": {"cpu_count": os.cpu_count()},
        "repeats": repeats,
        "signatures": len(records),
        **arms,
        "speedup": round(arms["wide_comb"]["s"] / arms["glv_comb"]["s"], 3),
    }


# ----------------------------------------------------------------------
def run_benchmarks() -> dict:
    results = {
        "seed": SEED,
        "targets": {"aps_table_setup": 2.0, "batched_vo_verify": 3.0},
        "scenarios": {
            "pow_fixed_g1": scenario_pow_fixed("G1", n_exps=12),
            "pow_fixed_g2": scenario_pow_fixed("G2", n_exps=8),
            "pow_fixed_gt": scenario_pow_fixed("GT", n_exps=6),
            "multi_pow": scenario_multi_pow(n=24, bits=64),
            "aps_table_setup": scenario_aps_setup(shape=(8, 2, 2)),
            "batched_vo_verify": scenario_batched_vo(n_items=10, n_attrs=3),
        },
        "cold_vo_settle": scenario_cold_vo_settle(),
        "multi_pair": scenario_multi_pair(),
        "envelope": scenario_envelope(),
        "warm_read": scenario_warm_read(),
        "dem": scenario_dem(),
        "fixed_base": scenario_fixed_base(),
        "do_sign": scenario_do_sign(),
    }
    return results


def main() -> None:
    results = run_benchmarks()
    JSON_PATH.write_text(json.dumps(results, indent=2) + "\n")
    for name, entry in results["scenarios"].items():
        print(f"{name:18s} old {entry['old_s']*1e3:9.1f} ms   "
              f"new {entry['new_s']*1e3:9.1f} ms   x{entry['speedup']}")
    cold = results["cold_vo_settle"]
    for side in ("per_entry", "settle"):
        arm = cold[side]
        print(f"cold_vo_settle {side:9s} {arm['s']*1e3:9.1f} ms   "
              f"{arm['miller_loops']} Miller loops   {arm['final_exps']} final exps")
    for name, arm in results["multi_pair"]["arms"].items():
        print(f"multi_pair {name:10s} old {arm['old_s']*1e3:9.1f} ms   "
              f"new {arm['new_s']*1e3:9.1f} ms   x{arm['speedup']}")
    for name, arm in results["envelope"]["arms"].items():
        for side in ("miss", "hit"):
            print(f"envelope {name:12s} {side:4s} seal {arm[f'seal_{side}_s']*1e3:7.2f} ms   "
                  f"open {arm[f'open_{side}_s']*1e3:7.2f} ms   "
                  f"{arm[f'pairings_per_open_{side}']} pairings")
    for side in ("cold", "warm"):
        arm = results["warm_read"][side]
        print(f"warm_read {side:4s} open+verify {arm['s']*1e3:7.2f} ms   "
              f"{arm['pairings']} pairings   {arm['points_decoded']}/{arm['points']} "
              f"points decoded")
    telemetry = results["warm_read"]["obs"]
    print(f"warm_read obs on {telemetry['warm_on_s']*1e3:7.3f} ms   off "
          f"{telemetry['warm_off_s']*1e3:7.3f} ms   overhead {telemetry['overhead']:.1%}")
    for name, arm in results["dem"]["arms"].items():
        print(f"dem {name:8s} seal old {arm['seal_old_s']*1e3:8.3f} ms new "
              f"{arm['seal_new_s']*1e3:8.3f} ms x{arm['seal_speedup']} cold "
              f"{arm['seal_cold_s']*1e3:8.3f} ms x{arm['seal_speedup_cold']}   open old "
              f"{arm['open_old_s']*1e3:8.3f} ms new {arm['open_new_s']*1e3:8.3f} ms "
              f"x{arm['open_speedup']} cold {arm['open_cold_s']*1e3:8.3f} ms "
              f"x{arm['open_speedup_cold']}")
    for kind, arm in results["fixed_base"]["arms"].items():
        print(f"fixed_base {kind} build old {arm['build_old_s']*1e3:7.2f} ms new "
              f"{arm['build_new_s']*1e3:7.2f} ms   eval old {arm['eval_old_s']*1e3:6.3f} ms "
              f"new {arm['eval_new_s']*1e3:6.3f} ms x{arm['eval_speedup']}")
    sign = results["do_sign"]
    print(f"do_sign {sign['signatures']} signatures   wide_comb {sign['wide_comb']['s']*1e3:8.1f} ms"
          f"   glv_comb {sign['glv_comb']['s']*1e3:8.1f} ms   x{sign['speedup']}")
    print(f"wrote {JSON_PATH}")


# -- pytest entry points ------------------------------------------------
def test_smoke_pow_fixed_and_multi_pow():
    """CI smoke: each fast path runs and agrees with the generic path."""
    entry = scenario_pow_fixed("G1", n_exps=2)
    assert entry["new_s"] > 0
    entry = scenario_multi_pow(n=4, bits=32)
    assert entry["ops_new"].get("multi_pows") == 1


def test_smoke_batched_vo():
    """CI smoke: merged batch equals the unmerged oracle on a tiny batch."""
    entry = scenario_batched_vo(n_items=2, n_attrs=2)
    # Merged: 3 fixed bases + l attrs + n tails; unmerged: n * (l + 4).
    assert entry["ops_new"]["pairings"] < entry["ops_old"]["pairings"]
    # The naive arm has no memo: every item is checked in full.
    assert entry["ops_old"]["pairings"] == 2 * (2 + 4)


def test_smoke_cold_vo_settle():
    """CI smoke: a cold VO settles with one final exponentiation and fewer
    Miller loops than per-entry verification, which pays one final
    exponentiation per pairing."""
    result = scenario_cold_vo_settle(repeats=1)
    per_entry, merged = result["per_entry"], result["settle"]
    assert result["app_entries"] > 0 and result["aps_entries"] > 0
    assert merged["final_exps"] == 1
    assert per_entry["final_exps"] == per_entry["miller_loops"]
    assert merged["miller_loops"] < per_entry["miller_loops"]


def test_smoke_multi_pair():
    """CI smoke: a 2-pair multi_pair equals the pair() product, with 2 pairings each."""
    arm = scenario_multi_pair(counts=(2,), repeats=1)["arms"]["n2"]
    assert arm["ops_old"]["pairings"] == arm["ops_new"]["pairings"] == 2


def test_smoke_envelope():
    """CI smoke: a 2-role envelope round-trips; a fresh open runs k+2
    pairings and an open through a warm memo runs none."""
    arm = scenario_envelope(role_counts=(2,), sizes=(1024,), repeats=1)["arms"]["roles2_1kb"]
    assert arm["pairings_per_open_miss"] == 2 + 2
    assert arm["pair_cache_hits_per_open_miss"] == 0
    assert arm["pairings_per_open_hit"] == 0
    assert arm["pair_cache_hits_per_open_hit"] == 0
    assert arm["sealed_bytes"] > arm["payload_bytes"]


def test_smoke_warm_read():
    """CI smoke: the cold read decodes every point of the VO and header and
    runs pairings; a warm sealed read decodes no point and runs no pairing,
    because every entry and the header come from the client's memos."""
    result = scenario_warm_read(repeats=1, obs_pairs=1)
    cold, warm = result["cold"], result["warm"]
    assert cold["records"] == warm["records"] == 2
    assert cold["pairings"] > 0
    assert cold["points_decoded"] == cold["points"] == warm["points"]
    assert cold["verify_memo_hits"] == 0 and cold["verify_memo_misses"] > 0
    assert warm["points_decoded"] == 0
    assert warm["pairings"] == 0 and warm["pair_cache_hits"] == 0
    assert warm["verify_memo_hits"] == cold["verify_memo_misses"]
    assert warm["verify_memo_misses"] == 0
    assert warm["kem_memo_hits"] == 1


def test_smoke_dem():
    """CI smoke: the T-table reference arm and the byte-sliced kernel seal
    and open identical envelopes, one block and past the counter's low byte;
    the kernel is timed warm and with its lane-key cache emptied."""
    result = scenario_dem(sizes=(16, 4112), repeats=1)
    arms = result["arms"]
    assert set(arms) == {"16b", "4112b"}
    assert result["lane_key_cache_bytes"] == aes.LANE_KEY_CACHE_BYTES
    for arm in arms.values():
        for op in ("seal", "open"):
            assert {f"{op}_old_s", f"{op}_new_s", f"{op}_cold_s"} <= set(arm)
            assert arm[f"{op}_speedup_cold"] > 0


def test_smoke_fixed_base():
    """CI smoke: the reference and GLV combs agree on G1 and G2; the GLV
    table holds 2 x 127 points against the reference's 63."""
    arms = scenario_fixed_base(n_exps=2, repeats=1)["arms"]
    assert set(arms) == {"G1", "G2"}
    for arm in arms.values():
        assert arm["table_points_old"] == 63 and arm["table_points_new"] == 254


def test_smoke_do_sign():
    """CI smoke: both arms sign the table byte-identically from warm combs,
    building none while signing; the message base costs one multi_pow a row."""
    result = scenario_do_sign(repeats=1)
    for name in ("wide_comb", "glv_comb"):
        assert "combs_built" not in result[name]["ops"]
    assert result["glv_comb"]["ops"]["multi_pows"] >= result["signatures"]


@pytest.mark.slow
def test_full_bench_meets_targets():
    """Full comparison; checks the speedup targets (``main()`` writes the JSON)."""
    results = run_benchmarks()
    scen = results["scenarios"]
    assert scen["aps_table_setup"]["speedup"] >= results["targets"]["aps_table_setup"]
    assert scen["batched_vo_verify"]["speedup"] >= results["targets"]["batched_vo_verify"]


if __name__ == "__main__":
    main()
