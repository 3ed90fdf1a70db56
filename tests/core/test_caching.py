"""Tests for the MSP memoization and SP-side APS cache."""

import random
import sys
import threading

import pytest

from repro.core.app_signature import AppAuthenticator
from repro.core.records import Record
from repro.core.system import DataOwner
from repro.crypto import simulated
from repro.policy.boolexpr import parse_policy
from repro.policy.compiler import Msp, get_msp, msp_cache_info
from repro.policy.roles import RoleUniverse


def test_get_msp_returns_shared_instance():
    order = 101
    a = get_msp(parse_policy("X and (Y or Z)"), order)
    b = get_msp(parse_policy("X and (Y or Z)"), order)
    assert a is b
    c = get_msp(parse_policy("X and (Y or W)"), order)
    assert c is not a


def test_get_msp_distinguishes_order():
    expr = parse_policy("P or Q")
    assert get_msp(expr, 101) is not get_msp(expr, 103)


def test_cached_msp_matches_fresh():
    expr = parse_policy("(A and B) or C")
    cached = get_msp(expr, 101)
    fresh = Msp(expr, 101)
    assert cached.matrix == fresh.matrix
    assert cached.labels == fresh.labels


def test_msp_cache_info_reports():
    info = msp_cache_info()
    assert info.maxsize == 4096
    assert info.hits >= 0


@pytest.fixture()
def aps_env():
    rng = random.Random(111)
    universe = RoleUniverse(["RoleA", "RoleB"])
    owner = DataOwner(simulated(), universe, rng=rng)
    auth = AppAuthenticator(simulated(), universe, owner.mvk)
    record = Record((1,), b"v", parse_policy("RoleA"))
    sig = owner.signer.sign_record(record, rng)
    return rng, universe, auth, record, sig


def test_aps_cache_hit_returns_identical_signature(aps_env):
    rng, universe, auth, record, sig = aps_env
    auth.enable_aps_cache()
    roles = {"RoleB"}
    first = auth.derive_record_aps(record, sig, roles, rng)
    second = auth.derive_record_aps(record, sig, roles, rng)
    assert first == second  # served from cache
    assert auth.aps_cache_hits == 1
    assert auth.aps_cache_misses == 1
    assert auth.verify_inaccessible_record(record.key, record.value_hash(), roles, second)


def test_aps_cache_distinguishes_role_sets(aps_env):
    rng, universe, auth, record, sig = aps_env
    auth.enable_aps_cache()
    a = auth.derive_record_aps(record, sig, frozenset({"RoleB"}), rng)
    # A user with no roles has a different missing set -> cache miss.
    b = auth.derive_record_aps(record, sig, frozenset(), rng)
    assert auth.aps_cache_misses == 2
    assert len(a.s) != len(b.s)  # different super-policy lengths


def test_aps_cache_disabled_gives_fresh_signatures(aps_env):
    rng, universe, auth, record, sig = aps_env
    roles = {"RoleB"}
    first = auth.derive_record_aps(record, sig, roles, rng)
    second = auth.derive_record_aps(record, sig, roles, rng)
    assert first != second  # re-randomized every time


def test_aps_cache_eviction(aps_env):
    rng, universe, auth, record, sig = aps_env
    auth.enable_aps_cache(maxsize=1)
    auth.derive_record_aps(record, sig, frozenset({"RoleB"}), rng)
    auth.derive_record_aps(record, sig, frozenset(), rng)  # evicts the first
    auth.derive_record_aps(record, sig, frozenset({"RoleB"}), rng)
    assert auth.aps_cache_hits == 0
    assert auth.aps_cache_misses == 3


def test_aps_cache_survives_thread_hammer(aps_env):
    """Eight threads thrash a two-slot APS cache over six keys.

    Evictions race look-ups on every call: a look-up must never fail on a
    key evicted under it, a hit must return what was stored for its key,
    and every look-up is counted exactly once (a hit at look-up, a miss
    at insert).
    """
    rng, universe, auth, record, sig = aps_env
    auth.enable_aps_cache(maxsize=2)
    keys = [auth.aps_cache_key(sig, b"hammer-%d" % i, ["RoleB"]) for i in range(6)]
    values = [object() for _ in keys]
    rounds = 2000
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    barrier = threading.Barrier(8)
    errors = []

    def worker(seed):
        pick = random.Random(seed)
        barrier.wait()
        try:
            for _ in range(rounds):
                i = pick.randrange(len(keys))
                got = auth.aps_cache_get(keys[i])
                if got is None:
                    auth.aps_cache_put(keys[i], values[i])
                else:
                    assert got is values[i]
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(8)]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(previous)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert auth.aps_cache_hits + auth.aps_cache_misses == 8 * rounds
    assert len(auth._aps_cache) <= 2


def test_verify_vo_matches_per_entry_oracle():
    """The merged-product VO verifier accepts/extracts exactly like
    per-entry ABS.Verify and names the tampered entry's region."""
    import random

    from repro.abs.batch import find_invalid
    from repro.core.range_query import clip_query, range_vo
    from repro.core.records import Dataset, Record
    from repro.core.verifier import collect_vo, verify_vo
    from repro.core.vo import InaccessibleRecordEntry, VerificationObject
    from repro.errors import SoundnessError
    from repro.index.boxes import Domain

    rng = random.Random(1717)
    universe = RoleUniverse(["RoleA", "RoleB"])
    owner = DataOwner(simulated(), universe, rng=rng)
    ds = Dataset(Domain.of((0, 15)))
    for key in range(0, 16, 2):
        ds.add(Record((key,), b"r%d" % key,
                      parse_policy("RoleA" if key % 4 == 0 else "RoleB")))
    tree = owner.build_tree(ds)
    auth = AppAuthenticator(simulated(), universe, owner.mvk)
    roles = frozenset({"RoleA"})
    query = clip_query(tree, (0,), (15,))
    vo = range_vo(tree, auth, query, roles, rng)
    records, obligations = collect_vo(vo, auth, query, roles)
    assert find_invalid(auth.scheme, auth.mvk, obligations) == []
    naive = sorted(r.value for r in records)
    merged = sorted(r.value for r in verify_vo(vo, auth, query, roles))
    assert naive == merged
    # Tamper with one APS payload: the product fails and the entry is named.
    entries = []
    tampered = None
    for e in vo:
        if isinstance(e, InaccessibleRecordEntry) and tampered is None:
            e = InaccessibleRecordEntry(key=e.key, value_hash=b"\x00" * 32, aps=e.aps)
            tampered = e.region
        entries.append(e)
    import re

    import pytest as _pytest

    expected = re.escape(f"APS signature invalid for region {tampered}")
    with _pytest.raises(SoundnessError, match=expected):
        verify_vo(VerificationObject(entries=entries), auth, query, roles)
