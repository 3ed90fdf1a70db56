"""Two-phase engine tests.

* **Golden byte-identity** — the pre-refactor single-phase builders are
  frozen below (verbatim copies); for every query kind the engine-backed
  adapters must produce byte-identical VOs when run with the same seed.
* **Plan/execute agreement** — ``plan_*_query`` counts and ``vo_bytes``
  must match the materialized VO byte-for-byte, on both backends.
* **Parallel materialization** — multi-worker VOs (on the process pool)
  verify, match the inline VO's shape/size, and are deterministic for a
  given seed.
* **SP authenticator pool** — the APS LRU cache survives across
  consecutive same-role queries.
"""

import random
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.app_signature import AppAuthenticator
from repro.core.engine import (
    ACCESSIBLE_RECORD,
    INACCESSIBLE_NODE,
    INACCESSIBLE_RECORD,
    EngineStats,
    execute,
    materialize,
    traverse_range,
)
from repro.core.equality import equality_vo
from repro.core.join_query import join_vo
from repro.core.multiway_join import multiway_join_vo, verify_multiway_join_vo
from repro.core.planner import (
    plan_equality_query,
    plan_join_query,
    plan_multiway_join_query,
    plan_range_query,
)
from repro.core.range_query import clip_query, range_vo, range_vo_basic
from repro.core.records import Dataset, Record
from repro.core.system import DataOwner, QueryUser
from repro.core.verifier import verify_join_vo, verify_vo
from repro.core.vo import (
    AccessibleRecordEntry,
    InaccessibleNodeEntry,
    InaccessibleRecordEntry,
    VerificationObject,
)
from repro.crypto import bn254, simulated
from repro.errors import ReproError
from repro.index.boxes import Box, Domain
from repro.index.kdtree import APKDTree
from repro.parallel import shutdown_process_pools
from repro.policy.boolexpr import parse_policy
from repro.policy.roles import RoleUniverse


@pytest.fixture(scope="module", autouse=True)
def _pool_cleanup():
    yield
    shutdown_process_pools()


# ----------------------------------------------------------------------
# Frozen pre-refactor builders (golden references).  These are verbatim
# copies of the single-phase implementations the engine replaced; do not
# "fix" or modernize them — byte-identity against them is the contract.
# ----------------------------------------------------------------------
def _legacy_equality_vo(tree, authenticator, key, user_roles, rng=None, table=""):
    user_roles = authenticator.universe.validate_user_roles(user_roles)
    leaf = tree.leaf_at(key)
    record = leaf.record
    vo = VerificationObject()
    if record.policy.evaluate(user_roles):
        vo.add(
            AccessibleRecordEntry(
                key=record.key,
                value=record.value,
                policy=record.policy,
                signature=leaf.signature,
                table=table,
            )
        )
    else:
        aps = authenticator.derive_record_aps(record, leaf.signature, user_roles, rng)
        vo.add(
            InaccessibleRecordEntry(
                key=record.key,
                value_hash=record.value_hash(),
                aps=aps,
                table=table,
            )
        )
    return vo


def _legacy_range_vo(tree, authenticator, query, user_roles, rng=None, table=""):
    user_roles = authenticator.universe.validate_user_roles(user_roles)
    vo = VerificationObject()
    queue = deque([tree.root])
    while queue:
        node = queue.popleft()
        if not node.box.intersects(query):
            continue
        if not query.contains_box(node.box):
            if node.is_leaf:
                aps = authenticator.derive_node_aps(
                    node.box, node.policy, node.signature, user_roles, rng
                )
                vo.add(InaccessibleNodeEntry(box=node.box, aps=aps, table=table))
            else:
                queue.extend(node.children)
            continue
        if node.accessible_to(user_roles):
            if node.is_leaf:
                record = node.record
                vo.add(
                    AccessibleRecordEntry(
                        key=record.key,
                        value=record.value,
                        policy=record.policy,
                        signature=node.signature,
                        table=table,
                    )
                )
            else:
                queue.extend(node.children)
        elif node.is_leaf and node.record is not None:
            record = node.record
            aps = authenticator.derive_record_aps(record, node.signature, user_roles, rng)
            vo.add(
                InaccessibleRecordEntry(
                    key=record.key,
                    value_hash=record.value_hash(),
                    aps=aps,
                    table=table,
                )
            )
        else:
            aps = authenticator.derive_node_aps(
                node.box, node.policy, node.signature, user_roles, rng
            )
            vo.add(InaccessibleNodeEntry(box=node.box, aps=aps, table=table))
    return vo


def _legacy_range_vo_basic(tree, authenticator, query, user_roles, rng=None, table=""):
    vo = VerificationObject()
    for point in query.points():
        vo.extend(
            _legacy_equality_vo(tree, authenticator, point, user_roles, rng, table).entries
        )
    return vo


def _legacy_join_vo(tree_r, tree_s, authenticator, query, user_roles, rng=None):
    user_roles = authenticator.universe.validate_user_roles(user_roles)
    vo = VerificationObject()
    queue = deque([(tree_r.root, tree_s.root)])
    while queue:
        node_r, node_s = queue.popleft()
        if not node_r.box.intersects(query):
            continue
        if not query.contains_box(node_r.box):
            for child in node_r.children:
                queue.append((child, node_s))
            continue
        if not node_r.accessible_to(user_roles):
            if node_r.is_leaf:
                record = node_r.record
                aps = authenticator.derive_record_aps(
                    record, node_r.signature, user_roles, rng
                )
                vo.add(
                    InaccessibleRecordEntry(
                        key=record.key,
                        value_hash=record.value_hash(),
                        aps=aps,
                        table="R",
                    )
                )
            else:
                aps = authenticator.derive_node_aps(
                    node_r.box, node_r.policy, node_r.signature, user_roles, rng
                )
                vo.add(InaccessibleNodeEntry(box=node_r.box, aps=aps, table="R"))
            continue
        cover_s = node_s
        descended = True
        while descended and not cover_s.is_leaf:
            descended = False
            for child in cover_s.children:
                if child.box.contains_box(node_r.box):
                    cover_s = child
                    descended = True
                    break
        if not cover_s.accessible_to(user_roles):
            if cover_s.is_leaf:
                record = cover_s.record
                aps = authenticator.derive_record_aps(
                    record, cover_s.signature, user_roles, rng
                )
                vo.add(
                    InaccessibleRecordEntry(
                        key=record.key,
                        value_hash=record.value_hash(),
                        aps=aps,
                        table="S",
                    )
                )
            else:
                aps = authenticator.derive_node_aps(
                    cover_s.box, cover_s.policy, cover_s.signature, user_roles, rng
                )
                vo.add(InaccessibleNodeEntry(box=cover_s.box, aps=aps, table="S"))
            continue
        if node_r.is_leaf:
            rec_r, rec_s = node_r.record, cover_s.record
            vo.add(
                AccessibleRecordEntry(
                    key=rec_r.key, value=rec_r.value, policy=rec_r.policy,
                    signature=node_r.signature, table="R",
                )
            )
            vo.add(
                AccessibleRecordEntry(
                    key=rec_s.key, value=rec_s.value, policy=rec_s.policy,
                    signature=cover_s.signature, table="S",
                )
            )
        else:
            for child in node_r.children:
                queue.append((child, cover_s))
    return vo


def _legacy_add_inaccessible(vo, authenticator, node, user_roles, rng, table):
    if node.is_leaf and node.record is not None:
        record = node.record
        aps = authenticator.derive_record_aps(record, node.signature, user_roles, rng)
        vo.add(
            InaccessibleRecordEntry(
                key=record.key, value_hash=record.value_hash(), aps=aps, table=table
            )
        )
    else:
        aps = authenticator.derive_node_aps(
            node.box, node.policy, node.signature, user_roles, rng
        )
        vo.add(InaccessibleNodeEntry(box=node.box, aps=aps, table=table))


def _legacy_multiway_join_vo(trees, authenticator, query, user_roles, rng=None):
    user_roles = authenticator.universe.validate_user_roles(user_roles)
    vo = VerificationObject()
    driver_name, driver = trees[0]
    others = trees[1:]
    queue = deque([(driver.root, [tree.root for _, tree in others])])
    while queue:
        node, covers = queue.popleft()
        if not node.box.intersects(query):
            continue
        if not query.contains_box(node.box):
            for child in node.children:
                queue.append((child, covers))
            continue
        if not node.accessible_to(user_roles):
            _legacy_add_inaccessible(vo, authenticator, node, user_roles, rng, driver_name)
            continue
        new_covers = []
        blocked = False
        for (other_name, _), cover in zip(others, covers):
            descended = True
            while descended and not cover.is_leaf:
                descended = False
                for child in cover.children:
                    if child.box.contains_box(node.box):
                        cover = child
                        descended = True
                        break
            if not cover.accessible_to(user_roles):
                _legacy_add_inaccessible(
                    vo, authenticator, cover, user_roles, rng, other_name
                )
                blocked = True
                break
            new_covers.append(cover)
        if blocked:
            continue
        if node.is_leaf:
            vo.add(
                AccessibleRecordEntry(
                    key=node.record.key, value=node.record.value,
                    policy=node.record.policy, signature=node.signature,
                    table=driver_name,
                )
            )
            for (other_name, _), cover in zip(others, new_covers):
                vo.add(
                    AccessibleRecordEntry(
                        key=cover.record.key, value=cover.record.value,
                        policy=cover.record.policy, signature=cover.signature,
                        table=other_name,
                    )
                )
        else:
            for child in node.children:
                queue.append((child, new_covers))
    return vo


# ----------------------------------------------------------------------
# Fixtures
# ----------------------------------------------------------------------
POLICIES = ["RoleA", "RoleB", "RoleC", "RoleA and RoleB", "RoleB or RoleC"]
ROLE_SETS = [frozenset({"RoleA"}), frozenset(), frozenset({"RoleA", "RoleB", "RoleC"})]
QUERIES = [((0, 0), (15, 7)), ((2, 1), (9, 6)), ((5, 5), (5, 5)), ((12, 0), (15, 7))]


def _dataset(domain: Domain, seed: int, count: int) -> Dataset:
    rng = random.Random(seed)
    ds = Dataset(domain)
    keys: set[tuple[int, ...]] = set()
    while len(keys) < count:
        keys.add(tuple(rng.randint(lo, hi) for lo, hi in domain.bounds))
    for i, key in enumerate(sorted(keys)):
        ds.add(Record(key, b"val-%03d" % i, parse_policy(POLICIES[i % len(POLICIES)])))
    return ds


@pytest.fixture(scope="module")
def env():
    """Simulated-backend environment: grid trees R/S/T plus a kd-tree."""
    rng = random.Random(2024)
    universe = RoleUniverse(["RoleA", "RoleB", "RoleC"])
    owner = DataOwner(simulated(), universe, rng=rng)
    domain = Domain.of((0, 15), (0, 7))
    trees = {
        name: owner.build_tree(_dataset(domain, seed, 18))
        for name, seed in (("R", 11), ("S", 22), ("T", 33))
    }
    kd_tree = APKDTree.build(_dataset(domain, 44, 6), owner.signer, rng)
    auth = AppAuthenticator(owner.group, universe, owner.mvk)
    return universe, owner, trees, kd_tree, auth


@pytest.fixture(scope="module")
def bn_env():
    """A tiny real-backend (BN254) environment for cross-backend checks."""
    rng = random.Random(7)
    group = bn254()
    universe = RoleUniverse(["RoleA", "RoleB", "RoleC"])
    owner = DataOwner(group, universe, rng=rng)
    domain = Domain.of((0, 7))
    ds = Dataset(domain)
    for i, key in enumerate([(0,), (2,), (3,), (6,)]):
        ds.add(Record(key, b"bn-%d" % i, parse_policy(POLICIES[i % len(POLICIES)])))
    tree = owner.build_tree(ds)
    auth = AppAuthenticator(group, universe, owner.mvk)
    return universe, owner, tree, auth


# ----------------------------------------------------------------------
# Golden byte-identity: engine adapters vs. frozen legacy builders
# ----------------------------------------------------------------------
@pytest.mark.parametrize("roles", ROLE_SETS, ids=["A", "none", "ABC"])
@pytest.mark.parametrize("q", QUERIES)
def test_range_vo_byte_identical_to_legacy(env, q, roles):
    universe, owner, trees, kd_tree, auth = env
    query = clip_query(trees["R"], *q)
    legacy = _legacy_range_vo(trees["R"], auth, query, roles, random.Random(5))
    new = range_vo(trees["R"], auth, query, roles, random.Random(5))
    assert new.to_bytes() == legacy.to_bytes()


@pytest.mark.parametrize("roles", ROLE_SETS, ids=["A", "none", "ABC"])
def test_range_vo_basic_byte_identical_to_legacy(env, roles):
    universe, owner, trees, kd_tree, auth = env
    query = clip_query(trees["R"], (2, 1), (6, 4))
    legacy = _legacy_range_vo_basic(trees["R"], auth, query, roles, random.Random(6))
    new = range_vo_basic(trees["R"], auth, query, roles, random.Random(6))
    assert new.to_bytes() == legacy.to_bytes()


@pytest.mark.parametrize("key", [(0, 0), (5, 5), (15, 7), (9, 3)])
def test_equality_vo_byte_identical_to_legacy(env, key):
    universe, owner, trees, kd_tree, auth = env
    for roles in ROLE_SETS:
        legacy = _legacy_equality_vo(trees["R"], auth, key, roles, random.Random(8))
        new = equality_vo(trees["R"], auth, key, roles, random.Random(8))
        assert new.to_bytes() == legacy.to_bytes()


@pytest.mark.parametrize("roles", ROLE_SETS, ids=["A", "none", "ABC"])
@pytest.mark.parametrize("q", QUERIES)
def test_join_vo_byte_identical_to_legacy(env, q, roles):
    universe, owner, trees, kd_tree, auth = env
    query = clip_query(trees["R"], *q)
    legacy = _legacy_join_vo(trees["R"], trees["S"], auth, query, roles, random.Random(9))
    new = join_vo(trees["R"], trees["S"], auth, query, roles, random.Random(9))
    assert new.to_bytes() == legacy.to_bytes()


@pytest.mark.parametrize("roles", ROLE_SETS, ids=["A", "none", "ABC"])
def test_multiway_join_vo_byte_identical_to_legacy(env, roles):
    universe, owner, trees, kd_tree, auth = env
    query = clip_query(trees["R"], (0, 0), (15, 7))
    ordered = [("R", trees["R"]), ("S", trees["S"]), ("T", trees["T"])]
    legacy = _legacy_multiway_join_vo(ordered, auth, query, roles, random.Random(10))
    new = multiway_join_vo(ordered, auth, query, roles, random.Random(10))
    assert new.to_bytes() == legacy.to_bytes()


@pytest.mark.parametrize("roles", ROLE_SETS, ids=["A", "none", "ABC"])
def test_kdtree_range_vo_byte_identical_to_legacy(env, roles):
    """The AP2kd-tree path exercises partially-overlapping pseudo leaves."""
    universe, owner, trees, kd_tree, auth = env
    query = clip_query(kd_tree, (1, 1), (13, 6))
    legacy = _legacy_range_vo(kd_tree, auth, query, roles, random.Random(12))
    new = range_vo(kd_tree, auth, query, roles, random.Random(12))
    assert new.to_bytes() == legacy.to_bytes()


# ----------------------------------------------------------------------
# Plan/execute agreement: the plan is the phase-1 task list
# ----------------------------------------------------------------------
def _assert_plan_matches(plan, vo):
    assert plan.accessible_records == sum(
        isinstance(e, AccessibleRecordEntry) for e in vo
    )
    assert plan.inaccessible_record_aps == sum(
        isinstance(e, InaccessibleRecordEntry) for e in vo
    )
    assert plan.inaccessible_node_aps == sum(
        isinstance(e, InaccessibleNodeEntry) for e in vo
    )
    assert plan.vo_bytes == vo.byte_size()  # byte-exact


@settings(max_examples=20, deadline=None)
@given(
    lo0=st.integers(0, 15), w0=st.integers(0, 15),
    lo1=st.integers(0, 7), w1=st.integers(0, 7),
    roles=st.sets(st.sampled_from(["RoleA", "RoleB", "RoleC"])),
)
def test_plan_execute_agreement_property(env, lo0, w0, lo1, w1, roles):
    """Random boxes and role sets: every plan prices its VO byte-exactly."""
    universe, owner, trees, kd_tree, auth = env
    roles = frozenset(roles)
    query = clip_query(trees["R"], (lo0, lo1), (min(15, lo0 + w0), min(7, lo1 + w1)))
    rng = random.Random(lo0 * 1000 + lo1)
    plan = plan_range_query(trees["R"], universe, query, roles)
    _assert_plan_matches(plan, range_vo(trees["R"], auth, query, roles, rng))
    plan_j = plan_join_query(trees["R"], trees["S"], universe, query, roles)
    _assert_plan_matches(plan_j, join_vo(trees["R"], trees["S"], auth, query, roles, rng))
    key = (lo0, lo1)
    plan_e = plan_equality_query(trees["R"], universe, key, roles)
    _assert_plan_matches(plan_e, equality_vo(trees["R"], auth, key, roles, rng))


@pytest.mark.parametrize("roles", ROLE_SETS, ids=["A", "none", "ABC"])
def test_plan_execute_agreement_basic_and_multiway(env, roles):
    universe, owner, trees, kd_tree, auth = env
    query = clip_query(trees["R"], (1, 1), (5, 4))
    rng = random.Random(77)
    plan_b = plan_range_query(trees["R"], universe, query, roles, method="basic")
    _assert_plan_matches(plan_b, range_vo_basic(trees["R"], auth, query, roles, rng))
    ordered = [("R", trees["R"]), ("S", trees["S"]), ("T", trees["T"])]
    plan_m = plan_multiway_join_query(ordered, universe, query, roles)
    _assert_plan_matches(plan_m, multiway_join_vo(ordered, auth, query, roles, rng))


@pytest.mark.parametrize("roles", [frozenset({"RoleA"}), frozenset()], ids=["A", "none"])
def test_plan_execute_agreement_bn254(bn_env, roles):
    """The real backend prices APS signatures identically."""
    universe, owner, tree, auth = bn_env
    rng = random.Random(13)
    query = clip_query(tree, (0,), (7,))
    for method in ("tree", "basic"):
        plan = plan_range_query(tree, universe, query, roles, method=method)
        builder = range_vo if method == "tree" else range_vo_basic
        vo = builder(tree, auth, query, roles, rng)
        _assert_plan_matches(plan, vo)
        assert verify_vo(vo, auth, query, roles) is not None
    plan_e = plan_equality_query(tree, universe, (2,), roles)
    _assert_plan_matches(plan_e, equality_vo(tree, auth, (2,), roles, rng))
    plan_j = plan_join_query(tree, tree, universe, query, roles)
    _assert_plan_matches(plan_j, join_vo(tree, tree, auth, query, roles, rng))


# ----------------------------------------------------------------------
# Parallel materialization
# ----------------------------------------------------------------------
@pytest.mark.parametrize("roles", ROLE_SETS, ids=["A", "none", "ABC"])
def test_parallel_materialization_verifies(env, roles):
    universe, owner, trees, kd_tree, auth = env
    query = clip_query(trees["R"], (0, 0), (15, 7))
    serial = range_vo(trees["R"], auth, query, roles, random.Random(3), workers=1)
    parallel = range_vo(trees["R"], auth, query, roles, random.Random(3), workers=4)
    # Same shape and size; APS bytes differ (independent per-job seeds)
    # but every proof still verifies.
    assert [type(e) for e in parallel] == [type(e) for e in serial]
    assert parallel.byte_size() == serial.byte_size()
    verify_vo(parallel, auth, query, roles)


def test_parallel_materialization_deterministic(env):
    """Seeds are pre-drawn in task order: scheduling cannot change bytes."""
    universe, owner, trees, kd_tree, auth = env
    query = clip_query(trees["R"], (0, 0), (15, 7))
    roles = frozenset({"RoleA"})
    one = range_vo(trees["R"], auth, query, roles, random.Random(42), workers=4)
    two = range_vo(trees["R"], auth, query, roles, random.Random(42), workers=4)
    assert one.to_bytes() == two.to_bytes()


def test_engine_stats_per_phase(env):
    universe, owner, trees, kd_tree, auth = env
    query = clip_query(trees["R"], (0, 0), (15, 7))
    roles = frozenset({"RoleA"})
    vo, stats = execute(
        "range",
        lambda: traverse_range(trees["R"], query, roles),
        auth, roles, random.Random(1), workers=2,
    )
    assert stats.kind == "range"
    assert stats.workers == 2
    assert stats.total_tasks == len(vo)
    assert stats.tasks[INACCESSIBLE_RECORD] + stats.tasks[INACCESSIBLE_NODE] == (
        stats.relax_calls
    )
    assert stats.tasks[ACCESSIBLE_RECORD] == len(vo.accessible())
    assert stats.traversal_ms >= 0.0 and stats.relax_ms >= 0.0
    assert stats.as_dict()["tasks"][ACCESSIBLE_RECORD] == stats.tasks[ACCESSIBLE_RECORD]


def test_materialize_honours_enabled_cache(env):
    universe, owner, trees, kd_tree, auth = env
    query = clip_query(trees["R"], (0, 0), (15, 7))
    roles = frozenset({"RoleA"})
    cached_auth = AppAuthenticator(owner.group, universe, owner.mvk)
    cached_auth.enable_aps_cache()
    stats = EngineStats()
    tasks = traverse_range(trees["R"], query, roles)
    materialize(tasks, cached_auth, roles, random.Random(2), workers=4, stats=stats)
    assert stats.aps_cache_misses == stats.relax_calls > 0
    again = EngineStats()
    vo = materialize(tasks, cached_auth, roles, random.Random(2), workers=4, stats=again)
    assert again.relax_calls == 0
    assert again.aps_cache_hits == stats.relax_calls
    verify_vo(vo, auth, query, roles)


# ----------------------------------------------------------------------
# ServiceProvider: authenticator pool, workers knob, response stats
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def sp_system():
    rng = random.Random(88)
    universe = RoleUniverse(["doctor", "nurse", "researcher"])
    ds = Dataset(Domain.of((0, 15)))
    for i, (key, policy) in enumerate(
        [((2,), "doctor"), ((5,), "doctor or nurse"), ((9,), "nurse"),
         ((12,), "doctor and researcher"), ((14,), "researcher")]
    ):
        ds.add(Record(key, b"rec-%d" % i, parse_policy(policy)))
    owner = DataOwner(simulated(), universe, rng=rng)
    sp = owner.outsource({"T": ds})
    return rng, universe, owner, sp


def test_sp_pool_scores_cache_hits_across_queries(sp_system):
    """Consecutive same-role queries reuse pooled APS derivations."""
    rng, universe, owner, sp = sp_system
    roles = frozenset({"nurse"})
    first = sp.range_query("T", (0,), (15,), roles, rng=rng)
    assert first.stats is not None
    assert first.stats.relax_calls > 0
    assert first.stats.aps_cache_hits == 0
    second = sp.range_query("T", (0,), (15,), roles, rng=rng)
    assert second.stats.relax_calls == 0
    assert second.stats.aps_cache_hits == first.stats.relax_calls
    # Same pooled authenticator served both queries.
    assert sp.authenticator_for(roles) is sp.authenticator_for(roles)
    user = QueryUser(owner.group, universe, owner.register_user(roles))
    assert [r.key for r in user.verify(first)] == [r.key for r in user.verify(second)]


def test_sp_pool_separates_missing_role_sets(sp_system):
    rng, universe, owner, sp = sp_system
    auth_nurse = sp.authenticator_for(frozenset({"nurse"}))
    auth_doctor = sp.authenticator_for(frozenset({"doctor"}))
    assert auth_nurse is not auth_doctor
    assert auth_nurse.missing_override != auth_doctor.missing_override


def test_sp_pool_eviction_bounds_memory(sp_system):
    rng, universe, owner, sp = sp_system
    sp._auth_pool.clear()
    old_size = sp._auth_pool_size
    sp._auth_pool_size = 2
    try:
        a = sp.authenticator_for(frozenset({"nurse"}))
        sp.authenticator_for(frozenset({"doctor"}))
        sp.authenticator_for(frozenset({"researcher"}))  # evicts nurse
        assert len(sp._auth_pool) == 2
        assert sp.authenticator_for(frozenset({"nurse"})) is not a
    finally:
        sp._auth_pool_size = old_size


def test_sp_workers_knob_and_override(sp_system):
    rng, universe, owner, sp = sp_system
    roles = frozenset({"doctor"})
    resp = sp.range_query("T", (0,), (15,), roles, rng=rng, workers=3)
    assert resp.stats.workers == 3
    sp.workers = 2
    try:
        resp = sp.join_query("T", "T", (0,), (15,), roles, rng=rng)
        assert resp.stats.workers == 2
    finally:
        sp.workers = 1
    user = QueryUser(owner.group, universe, owner.register_user(roles))
    assert user.verify_join(resp) is not None


def test_query_response_byte_size_without_payload_raises(sp_system):
    from repro.core.system import QueryResponse

    response = QueryResponse(kind="range", query=Box((0,), (1,)))
    with pytest.raises(ReproError):
        response.byte_size()


def test_join_verify_collect_ops(sp_system):
    rng, universe, owner, sp = sp_system
    roles = frozenset({"nurse"})
    resp = sp.join_query("T", "T", (0,), (15,), roles, rng=rng)
    user = QueryUser(owner.group, universe, owner.register_user(roles))
    ops: dict = {}
    pairs = verify_join_vo(
        resp.vo, user.authenticator, resp.query, roles, collect_ops=ops
    )
    assert pairs is not None
    assert ops  # group-operation counts were recorded


def test_multiway_adapter_still_verifies(env):
    universe, owner, trees, kd_tree, auth = env
    roles = frozenset({"RoleA", "RoleB"})
    query = clip_query(trees["R"], (0, 0), (15, 7))
    vo = multiway_join_vo(
        [("R", trees["R"]), ("S", trees["S"]), ("T", trees["T"])],
        auth, query, roles, random.Random(3), workers=2,
    )
    results = verify_multiway_join_vo(vo, auth, query, roles, ["R", "S", "T"])
    for result in results:
        assert len(result.records) == 3
