"""GroupOpStats semantics and backend counter parity.

The metrics registry's per-backend series are only meaningful if both
backends count the same events the same way: every pairing counts, a
memo hit must bump the hit counter *instead of* the work counter, and
per-thread deltas must merge back losslessly.  These tests pin that
contract.
"""

import random

import pytest

from repro.abs.batch import BatchItem
from repro.core.app_signature import AppAuthenticator
from repro.core.system import DataOwner
from repro.crypto.fastgroup import SimulatedGroup
from repro.crypto.group import BN254Group, GroupOpStats
from repro.errors import CryptoError
from repro.parallel import parallel_map
from repro.policy.boolexpr import or_of_attrs
from repro.policy.roles import RoleUniverse


# -- reset / snapshot / merge --------------------------------------------------

def test_stats_reset_and_snapshot():
    stats = GroupOpStats()
    stats.ops = 3
    stats.pairings = 2
    snap = stats.snapshot()
    assert snap["ops"] == 3 and snap["pairings"] == 2
    assert set(snap) == set(GroupOpStats.__slots__)
    stats.reset()
    assert all(v == 0 for v in stats.snapshot().values())


def test_stats_delta_against_snapshot():
    stats = GroupOpStats()
    stats.ops = 5
    before = stats.snapshot()
    stats.ops += 2
    stats.pows += 1
    delta = stats.delta(before)
    assert delta["ops"] == 2 and delta["pows"] == 1
    assert delta["pairings"] == 0


def test_merge_accepts_instance_and_snapshot_dict():
    a = GroupOpStats()
    a.ops = 1
    b = GroupOpStats()
    b.ops = 2
    b.h2g1_hits = 4
    a.merge(b)
    assert a.ops == 3 and a.h2g1_hits == 4
    a.merge({"pairings": 5})  # sparse dicts default missing slots to 0
    assert a.pairings == 5 and a.ops == 3


def test_merge_rejects_negative_counts():
    a = GroupOpStats()
    with pytest.raises(CryptoError, match="negative stat"):
        a.merge({"ops": -1})


def test_per_thread_deltas_merge_to_serial_totals():
    """The dispatcher's fold: parallel per-job deltas == one serial run."""
    def workload(group):
        g = group.g1
        for i in range(1, 6):
            group.pair(g ** i, group.g2)
            group.hash_to_g1(b"attr", i % 3)
        return group.stats.snapshot()

    serial = workload(SimulatedGroup())

    group = SimulatedGroup()
    baseline = group.stats.snapshot()

    # Each "thread" measures its own delta window on the shared stats.
    merged = GroupOpStats()
    merged.merge(group.stats.delta(baseline))
    before = group.stats.snapshot()
    parallel_map(lambda i: group.pair(group.g1 ** i, group.g2) and None,
                 range(1, 6), workers=1)
    for i in range(1, 6):
        group.hash_to_g1(b"attr", i % 3)
    merged.merge(group.stats.delta(before))
    # ``pows`` from ``g ** i`` count identically in both runs.
    assert merged.snapshot() == serial


# -- counter parity between backends -------------------------------------------

@pytest.mark.parametrize("backend_cls", [SimulatedGroup, BN254Group])
def test_pair_cache_hit_counts_hit_not_pairing(backend_cls):
    """A re-checked signature is served by the verified-entry memo.

    The memo is the only cache in front of the pairings: the second
    settle of the same signature runs no pairing, and no backend counts
    a pairing-level hit.
    """
    group = backend_cls()
    universe = RoleUniverse(["R0", "R1"])
    owner = DataOwner(group, universe, rng=random.Random(31))
    signer = owner.signer
    policy = or_of_attrs(universe.roles)
    signature = signer.scheme.sign(signer.mvk, signer.signing_key, b"msg", policy,
                                   random.Random(32))
    auth = AppAuthenticator(group, universe, owner.mvk)
    auth.enable_verify_memo()
    items = [BatchItem(b"msg", policy, signature)]
    group.stats.reset()
    assert auth.settle_failures(items) == []
    assert group.stats.pairings > 0
    cold = group.stats.pairings
    assert auth.settle_failures(items) == []
    assert group.stats.pairings == cold, "a memo hit must not run a pairing"
    assert group.stats.pair_cache_hits == 0


@pytest.mark.parametrize("backend_cls", [SimulatedGroup, BN254Group])
def test_pair_without_fast_paths_always_counts_pairings(backend_cls):
    """No backend caches pairings: a repeat runs again and counts again."""
    group = backend_cls()
    a, b = group.g1 ** 7, group.g2 ** 9
    group.stats.reset()
    first = group.pair(a, b)
    assert group.pair(a, b) == first
    assert group.multi_pair([(a, b), (a, b)]) == first * first
    assert group.stats.pairings == 4
    assert group.stats.pair_cache_hits == 0


@pytest.mark.parametrize("backend_cls", [SimulatedGroup, BN254Group])
def test_h2g1_memo_hit_miss_counters(backend_cls):
    group = backend_cls()
    group.stats.reset()
    first = group.hash_to_g1(b"role", 1)
    assert group.stats.h2g1_misses == 1
    assert group.stats.h2g1_hits == 0
    again = group.hash_to_g1(b"role", 1)
    assert group.stats.h2g1_misses == 1
    assert group.stats.h2g1_hits == 1
    assert first == again
    group.hash_to_g1(b"role", 2)
    assert group.stats.h2g1_misses == 2


@pytest.mark.parametrize("backend_cls", [SimulatedGroup, BN254Group])
def test_h2g1_memo_is_bounded(backend_cls, monkeypatch):
    monkeypatch.setattr(backend_cls, "H2G1_CACHE_MAX", 4)
    group = backend_cls()
    first = group.hash_to_g1(b"role", 0)
    for i in range(1, 5):
        group.hash_to_g1(b"role", i)
    assert len(group._h2g1_cache) == 4
    group.stats.reset()
    assert group.hash_to_g1(b"role", 0) == first  # evicted: recomputed, a miss
    assert (group.stats.h2g1_hits, group.stats.h2g1_misses) == (0, 1)
    group.hash_to_g1(b"role", 4)  # still held: a hit
    assert (group.stats.h2g1_hits, group.stats.h2g1_misses) == (1, 1)


def test_cache_bounds_match_between_backends():
    assert SimulatedGroup.H2G1_CACHE_MAX == BN254Group.H2G1_CACHE_MAX
    assert SimulatedGroup.COMB_CACHE_MAX == BN254Group.COMB_CACHE_MAX


def test_simulated_backend_workload_counter_trace_matches_bn254():
    """One mixed workload must leave identical counters on both backends.

    Sole allowed divergence: ``combs_built`` — exponent tracking makes
    ``pow_fixed`` O(1), so the simulated backend never builds comb
    tables while BN254 builds one per fixed base.
    """
    def run(group):
        rng = random.Random(11)
        group.stats.reset()
        a = group.g1 ** rng.randrange(1, 100)
        b = group.g2 ** rng.randrange(1, 100)
        group.pair(a, b)
        group.pair(a, b)
        group.pow_fixed(group.g1, 12)
        group.pow_fixed(group.g1, 13)
        group.multi_pow([group.g1, a], [2, 3])
        group.hash_to_g1(b"x")
        group.hash_to_g1(b"x")
        _ = a * a
        return group.stats.snapshot()

    sim, real = run(SimulatedGroup()), run(BN254Group())
    assert sim.pop("combs_built") == 0
    assert real.pop("combs_built") == 1
    assert sim == real
