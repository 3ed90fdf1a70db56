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
  wall times plus exact pairings, pair-cache hits and point-decode /
  verified-entry memo counts.  A warm read runs no pairing and decodes
  every point of the VO and the CP-ABE header from the memo.

Every arm runs on a *fresh* ``BN254Group`` instance (comb/pairing/hash
caches are per-instance); the old arm additionally sets
``fast_paths = False`` so ``pow_fixed``/``pair`` take the generic path.
Both arms consume the same rng stream, so their outputs are asserted
bit-identical before any timing is trusted.

Fast ``test_smoke_*`` functions run in CI (``-m "not slow"``); the full
comparison behind ``BENCH_crypto.json`` is ``@pytest.mark.slow`` or
``python benchmarks/bench_crypto_ops.py``.
"""

from __future__ import annotations

import json
import os
import pathlib
import random
import time

import pytest

from repro.abe.cpabe import CpAbeScheme
from repro.abe.hybrid import decrypt_envelope, encrypt_for_roles
from repro.abs.batch import BatchItem, batch_verify, batch_verify_unmerged
from repro.abs.scheme import AbsScheme
from repro.core.messages import decode_response, encode_response
from repro.core.records import Dataset, Record
from repro.core.system import DataOwner, QueryUser
from repro.crypto.group import BN254Group
from repro.index.boxes import Domain
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
    grp = BN254Group()
    rng = random.Random(SEED)
    if kind == "G1":
        base = grp.g1 ** grp.random_scalar(rng)
    elif kind == "G2":
        base = grp.g2 ** grp.random_scalar(rng)
    else:
        base = grp.pair(grp.g1, grp.g2) ** grp.random_scalar(rng)
    exps = [grp.random_scalar(rng) for _ in range(n_exps)]

    grp.fast_paths = False
    old_out = [grp.pow_fixed(base, e) for e in exps]
    old_s, ops_old = _timed_ops(grp, lambda: [grp.pow_fixed(base, e) for e in exps])

    grp.fast_paths = True
    grp.pow_fixed(base, 1)  # build the comb outside the timed region
    new_out = [grp.pow_fixed(base, e) for e in exps]
    new_s, ops_new = _timed_ops(grp, lambda: [grp.pow_fixed(base, e) for e in exps])

    assert old_out == new_out
    return _entry(old_s, new_s, ops_old, ops_new, kind=kind, n_exps=n_exps)


def scenario_multi_pow(n: int = 24, bits: int = 64) -> dict:
    """One n-term multi-exponentiation vs the naive per-term product."""
    grp = BN254Group()
    rng = random.Random(SEED + 1)
    bases = [grp.g1 ** grp.random_scalar(rng) for _ in range(n)]
    exps = [rng.getrandbits(bits) | 1 for _ in range(n)]

    def naive():
        out = bases[0] ** exps[0]
        for b, e in zip(bases[1:], exps[1:]):
            out = out * b**e
        return out

    grp.fast_paths = False
    old_s, ops_old = _timed_ops(grp, naive)
    grp.fast_paths = True
    new_s, ops_new = _timed_ops(grp, lambda: grp.multi_pow(bases, exps))
    assert naive() == grp.multi_pow(bases, exps)
    return _entry(old_s, new_s, ops_old, ops_new, n=n, bits=bits)


def _build_table(grp: BN254Group, workload, dataset):
    owner = DataOwner(grp, workload.universe, rng=random.Random(SEED + 2))
    tree = owner.build_tree(dataset)
    return owner, tree


def scenario_aps_setup(shape: tuple[int, ...] = (8, 2, 2), repeats: int = 2) -> dict:
    """End-to-end table setup: keygen + APP-signing one AP2G-tree."""
    gen = PolicyGenerator(num_roles=6, num_policies=6, seed=SEED)
    workload = gen.generate()
    dataset = TpchGenerator(TpchConfig(scale=0.3, shape=shape, seed=SEED)).lineitem(workload)

    grp_old = BN254Group()
    grp_old.fast_paths = False
    old_s, ops_old = _timed_ops(
        grp_old, lambda: _build_table(grp_old, workload, dataset), repeats
    )
    grp_new = BN254Group()
    new_s, ops_new = _timed_ops(
        grp_new, lambda: _build_table(grp_new, workload, dataset), repeats
    )

    # Same seeds + same rng consumption: the signed trees must agree bit
    # for bit, fast paths on or off.
    _, tree_old = _build_table(grp_old, workload, dataset)
    _, tree_new = _build_table(grp_new, workload, dataset)
    sig_old = tree_old.root.signature.to_bytes()
    sig_new = tree_new.root.signature.to_bytes()
    assert sig_old == sig_new
    return _entry(old_s, new_s, ops_old, ops_new, shape=list(shape))


def scenario_batched_vo(n_items: int = 10, n_attrs: int = 3) -> dict:
    """Batched APS verification: merged pairings vs unmerged reference."""
    grp = BN254Group()
    scheme = AbsScheme(grp)
    rng = random.Random(SEED + 3)
    keys = scheme.setup(rng)
    roles = [f"R{i}" for i in range(n_attrs + 2)]
    sk = scheme.keygen(keys, roles, rng)
    missing = tuple(roles[:n_attrs])
    policy = or_of_attrs(missing)
    items = []
    for k in range(n_items):
        message = f"record-{k}".encode()
        sig = scheme.sign(keys.mvk, sk, message, policy, rng)
        items.append(BatchItem(message=message, attrs=missing, signature=sig))

    grp.fast_paths = False
    assert batch_verify_unmerged(scheme, keys.mvk, items, random.Random(7))
    old_s, ops_old = _timed_ops(
        grp, lambda: batch_verify_unmerged(scheme, keys.mvk, items, random.Random(7))
    )
    grp.fast_paths = True
    assert batch_verify(scheme, keys.mvk, items, random.Random(7))
    new_s, ops_new = _timed_ops(
        grp, lambda: batch_verify(scheme, keys.mvk, items, random.Random(7))
    )
    return _entry(old_s, new_s, ops_old, ops_new, n_items=n_items, n_attrs=n_attrs)


def scenario_multi_pair(counts: tuple[int, ...] = (1, 2, 4, 6), repeats: int = 3) -> dict:
    """``multi_pair`` over n pairs vs the product of n uncached ``pair()`` calls."""
    rng = random.Random(SEED + 5)
    scalars = [(rng.randrange(1, 1 << 64), rng.randrange(1, 1 << 64)) for _ in range(max(counts))]
    arms = {}
    for n in counts:
        # The old arm has fast_paths off, so pair() skips its cache and
        # every repeat runs all n pairings.
        grp_old, grp_new = BN254Group(), BN254Group()
        grp_old.fast_paths = False
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
            # timed open gets its own (a re-opened one would hit the pairing
            # cache).  The first seal builds the fixed-base combs; the hit
            # arm's first seal and open fill its cache and memo.
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


def scenario_warm_read(repeats: int = 3) -> dict:
    """A ``QueryUser`` decodes, opens and verifies a sealed BN254 range answer, cold then warm.

    The service provider's APS and KEM caches are warm after the first
    answer, so every later answer to the same query carries the same
    signatures and header under a fresh body nonce.  Memo counts come
    from this thread's ledger tally (observability must be on).
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

    def read():
        sealed = provider.range_query("t", (0,), (15,), user.roles, encrypt=True, rng=rng)
        wire = encode_response(sealed)
        before, tallied = grp.stats.snapshot(), obs_ledger.tally_snapshot()
        t0 = time.perf_counter()
        response = decode_response(grp, wire)
        records = user.verify(response)
        seconds = time.perf_counter() - t0
        ops = grp.stats.delta(before)
        counters = obs_ledger.tally_since(tallied)
        # G1/G2 points decoded: C' and each (C_i, D_i) of the header, then
        # (Y, W, S_1..S_l, P_1..P_t) of each VO entry's signature.
        points = 1 + 2 * len(response.envelope.header.c_rows) + sum(
            2 + len(sig.s) + len(sig.p)
            for sig in (getattr(e, "signature", None) or e.aps for e in user._open(response))
        )
        arm = {
            "s": seconds,
            "records": len(records),
            "points": points,
            "pairings": ops["pairings"],
            "pair_cache_hits": ops["pair_cache_hits"],
        }
        for name in ("decode_memo", "verify_memo", "kem_memo"):
            for outcome in ("hits", "misses"):
                arm[f"{name}_{outcome}"] = counters.get(f"{name}_{outcome}", 0)
        return arm

    cold = read()
    warm = [read() for _ in range(repeats)]
    for arm in (cold, *warm):
        arm["s"] = round(arm["s"], 6)
    best = min(warm, key=lambda arm: arm["s"])
    return {
        "host": {"cpu_count": os.cpu_count()},
        "repeats": repeats,
        "cold": cold,
        "warm": best,
        "speedup": round(cold["s"] / best["s"], 3),
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
        "multi_pair": scenario_multi_pair(),
        "envelope": scenario_envelope(),
        "warm_read": scenario_warm_read(),
    }
    return results


def main() -> None:
    results = run_benchmarks()
    JSON_PATH.write_text(json.dumps(results, indent=2) + "\n")
    for name, entry in results["scenarios"].items():
        print(f"{name:18s} old {entry['old_s']*1e3:9.1f} ms   "
              f"new {entry['new_s']*1e3:9.1f} ms   x{entry['speedup']}")
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
              f"{arm['pairings']} pairings   {arm['decode_memo_hits']}/{arm['points']} "
              f"points from the decode memo")
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
    """CI smoke: a warm sealed read runs no pairing, serves every point of
    the VO and header from the decode memo, and every entry from the
    verified-entry memo; the cold read runs pairings and memoizes."""
    result = scenario_warm_read(repeats=1)
    cold, warm = result["cold"], result["warm"]
    assert cold["records"] == warm["records"] == 2
    assert cold["pairings"] > 0
    assert cold["decode_memo_hits"] + cold["decode_memo_misses"] == cold["points"]
    assert cold["verify_memo_hits"] == 0 and cold["verify_memo_misses"] > 0
    assert warm["pairings"] == 0 and warm["pair_cache_hits"] == 0
    assert warm["decode_memo_hits"] == warm["points"] == cold["points"]
    assert warm["decode_memo_misses"] == 0
    assert warm["verify_memo_hits"] == cold["verify_memo_misses"]
    assert warm["verify_memo_misses"] == 0
    assert warm["kem_memo_hits"] == 1


@pytest.mark.slow
def test_full_bench_meets_targets():
    """Full comparison; regenerates BENCH_crypto.json and checks targets."""
    results = run_benchmarks()
    JSON_PATH.write_text(json.dumps(results, indent=2) + "\n")
    scen = results["scenarios"]
    assert scen["aps_table_setup"]["speedup"] >= results["targets"]["aps_table_setup"]
    assert scen["batched_vo_verify"]["speedup"] >= results["targets"]["batched_vo_verify"]


if __name__ == "__main__":
    main()
