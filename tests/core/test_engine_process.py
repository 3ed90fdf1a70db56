"""Process-pool relax materialization and cross-query single-flight dedup.

With ``workers > 1`` seeds are pre-drawn in task order and every group
element crosses the process boundary as canonical bytes, so the VO is
a pure function of the seed — scheduling, worker count, and pickling
must not leak into the proof.  It is pinned to the digest an in-process
thread pool produced for the same seed before the pool became the only
multi-worker path.  The dedup tests pin the single-flight contract on
the authenticator: concurrent queries needing the same APS derivation
perform it once.
"""

import hashlib

import random
import threading

import pytest

import repro.core.app_signature as app_signature_mod
from repro import obs
from repro.core.app_signature import AppAuthenticator
from repro.core.engine import (
    EngineStats,
    _relax_worker_job,
    execute,
    materialize,
    traverse_range,
)
from repro.core.range_query import clip_query
from repro.core.records import Dataset, Record
from repro.core.system import DataOwner, QueryUser, ServiceProvider
from repro.core.verifier import verify_vo
from repro.crypto import simulated
from repro.errors import ReproError
from repro.index.boxes import Domain
from repro.parallel import shutdown_process_pools
from repro.policy.boolexpr import parse_policy
from repro.policy.roles import RoleUniverse

POLICIES = ["RoleA", "RoleB", "RoleA and RoleB", "RoleB or RoleC"]

#: SHA-256 of the seed-99 two-worker range VO below, as the in-process
#: thread pool produced it (3674 bytes).
THREAD_VO_DIGEST = "d79de985c2dda3714e7099e9e963acb85998c4f668c856ec791dd65096bb57dc"


@pytest.fixture(scope="module", autouse=True)
def _pool_cleanup():
    yield
    shutdown_process_pools()


@pytest.fixture(scope="module")
def env():
    rng = random.Random(4040)
    universe = RoleUniverse(["RoleA", "RoleB", "RoleC"])
    owner = DataOwner(simulated(), universe, rng=rng)
    ds = Dataset(Domain.of((0, 31)))
    for i in range(10):
        ds.add(Record((3 * i,), b"v-%02d" % i, parse_policy(POLICIES[i % len(POLICIES)])))
    tree = owner.build_tree(ds)
    auth = AppAuthenticator(owner.group, universe, owner.mvk)
    return universe, owner, tree, auth


def _materialize(env, workers, seed=99, stats=None):
    universe, owner, tree, auth = env
    query = clip_query(tree, (0,), (31,))
    tasks = traverse_range(tree, query, frozenset({"RoleA"}))
    vo = materialize(
        tasks, auth, frozenset({"RoleA"}), random.Random(seed),
        workers=workers, stats=stats,
    )
    return vo, query, auth


def test_process_vo_byte_identical_to_thread(env):
    process_vo, query, auth = _materialize(env, workers=2)
    assert hashlib.sha256(process_vo.to_bytes()).hexdigest() == THREAD_VO_DIGEST
    verify_vo(process_vo, auth, query, frozenset({"RoleA"}))


def test_process_backend_deterministic(env):
    one, _, _ = _materialize(env, workers=2, seed=7)
    two, _, _ = _materialize(env, workers=2, seed=7)
    assert one.to_bytes() == two.to_bytes()


def test_process_group_op_counters_match_thread(env):
    """Worker-side op deltas merge back into the parent's counters.

    The reference is the in-process (inline) path, which is what the
    deleted thread pool ran per job.
    """
    inline_stats = EngineStats()
    process_stats = EngineStats()
    _materialize(env, workers=1, stats=inline_stats)
    _materialize(env, workers=2, stats=process_stats)
    assert process_stats.relax_calls == inline_stats.relax_calls > 0
    assert process_stats.group_ops == inline_stats.group_ops


def test_execute_records_backend(env):
    """``EngineStats.workers`` records where relax ran: 2 is the pool."""
    universe, owner, tree, auth = env
    query = clip_query(tree, (0,), (31,))
    roles = frozenset({"RoleA"})
    vo, stats = execute(
        "range", lambda: traverse_range(tree, query, roles),
        auth, roles, random.Random(5), workers=2,
    )
    assert stats.workers == 2
    assert stats.relax_calls > 0
    verify_vo(vo, auth, query, roles)


def test_unknown_backend_rejected(env):
    """The executor switch is gone: a caller still passing it fails loudly."""
    universe, owner, tree, auth = env
    tasks = traverse_range(tree, clip_query(tree, (0,), (31,)), frozenset({"RoleA"}))
    with pytest.raises(TypeError, match="backend"):
        materialize(tasks, auth, frozenset({"RoleA"}), workers=2, backend="process")


def test_worker_job_requires_initializer():
    """A job landing in an un-initialized worker fails loudly."""
    with pytest.raises(ReproError, match="initial"):
        _relax_worker_job((b"", b"m", parse_policy("RoleA"), ["RoleA"], 1))


# ----------------------------------------------------------------------
# ServiceProvider integration
# ----------------------------------------------------------------------
def test_sp_process_backend_serves_and_pools(env):
    universe, owner, tree, auth = env
    sp = ServiceProvider(
        group=owner.group, universe=universe, mvk=owner.mvk,
        cpabe_public=owner.cpabe_public, trees={"T": tree}, workers=2,
    )
    rng = random.Random(11)
    roles = frozenset({"RoleA"})
    first = sp.range_query("T", (0,), (31,), roles, rng=rng)
    assert first.stats.workers == 2
    assert first.stats.relax_calls > 0
    second = sp.range_query("T", (0,), (31,), roles, rng=rng)
    assert second.stats.relax_calls == 0
    assert second.stats.aps_cache_hits == first.stats.relax_calls
    user = QueryUser(owner.group, universe, owner.register_user(roles))
    assert [r.key for r in user.verify(first)] == [r.key for r in user.verify(second)]


def test_sp_rejects_unknown_relax_backend(env):
    """``ServiceProvider(relax_backend=)`` is gone: passing it fails loudly."""
    universe, owner, tree, auth = env
    with pytest.raises(TypeError, match="relax_backend"):
        ServiceProvider(
            group=owner.group, universe=universe, mvk=owner.mvk,
            cpabe_public=owner.cpabe_public, trees={"T": tree},
            relax_backend="process",
        )


# ----------------------------------------------------------------------
# Cross-query single-flight dedup
# ----------------------------------------------------------------------
def test_concurrent_derivations_deduplicate(env, monkeypatch):
    """Two threads wanting the same APS perform exactly one relax."""
    universe, owner, tree, auth = env
    authenticator = AppAuthenticator(owner.group, universe, owner.mvk)
    authenticator.enable_aps_cache()
    leaf = tree.leaf_at((6,))  # "RoleA and RoleB" — inaccessible to RoleB
    roles = frozenset({"RoleB"})

    release = threading.Event()
    calls = []
    real_relax = app_signature_mod.relax

    def slow_relax(*args, **kwargs):
        calls.append(threading.get_ident())
        if not release.wait(timeout=30):
            raise AssertionError("dedup waiter never arrived")
        return real_relax(*args, **kwargs)

    monkeypatch.setattr(app_signature_mod, "relax", slow_relax)
    previous = obs.set_enabled(True)
    counter = app_signature_mod._M_INFLIGHT
    hits_before = counter.value(outcome="dedup_hit")
    results = {}

    def derive(tag):
        results[tag] = authenticator.derive_record_aps(
            leaf.record, leaf.signature, roles, random.Random(8)
        )

    try:
        first = threading.Thread(target=derive, args=("a",))
        first.start()
        wake = threading.Event()
        for _ in range(3000):  # owner is inside relax, holding the flight
            if calls:
                break
            wake.wait(0.01)
        second = threading.Thread(target=derive, args=("b",))
        second.start()
        # Release once the second caller has joined the flight as a waiter.
        for _ in range(3000):
            if counter.value(outcome="dedup_hit") != hits_before:
                break
            wake.wait(0.01)
        release.set()
        first.join(timeout=30)
        second.join(timeout=30)
    finally:
        release.set()
        obs.set_enabled(previous)

    assert len(calls) == 1, "the waiter must reuse the owner's derivation"
    assert results["a"].to_bytes() == results["b"].to_bytes()
    assert counter.value(outcome="dedup_hit") == hits_before + 1


def test_owner_failure_wakes_waiters(env):
    """A publish(error) flight does not deadlock the waiter."""
    universe, owner, tree, auth = env
    authenticator = AppAuthenticator(owner.group, universe, owner.mvk)
    authenticator.enable_aps_cache()
    leaf = tree.leaf_at((6,))
    roles = frozenset({"RoleB"})
    key = authenticator.aps_cache_key(
        leaf.signature, leaf.record.message(), authenticator.missing_roles_for(roles)
    )
    slot, is_owner = authenticator.relax_begin(key)
    assert is_owner
    waiter_slot, waiter_owns = authenticator.relax_begin(key)
    assert not waiter_owns
    authenticator.relax_publish(key, slot, error=RuntimeError("owner died"))
    with pytest.raises(RuntimeError, match="owner died"):
        authenticator.relax_wait(waiter_slot, timeout=1.0)
    # The failed flight is retired: the next claimant owns a fresh slot.
    slot2, owns2 = authenticator.relax_begin(key)
    assert owns2
    authenticator.relax_publish(key, slot2, value=None)
