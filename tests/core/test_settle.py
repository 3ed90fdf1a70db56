"""The one verification path: collect every VO entry's obligation, settle
them with one merged pairing product.

* Differential: on random VOs, some with forged obligations, ``settle``
  accepts exactly when per-entry ABS.Verify accepts every obligation,
  and a rejection names the first invalid entry's region.
* Byzantine mutators: each structured tamper raises
  :class:`SoundnessError` naming the mutated entry's region, on both
  backends.
* Cost: a cold BN254 ``verify_vo`` runs one ``multi_pair`` and no
  ``pair``.
* The batching exponents come from the OS CSPRNG: seeding ``random`` or
  a client's rng does not change them.
"""

import dataclasses
import functools
import random
import re

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.abs.batch as batch_mod
from repro.abs.batch import find_invalid
from repro.core.app_signature import AppAuthenticator
from repro.core.range_query import range_vo
from repro.core.records import Dataset, Record
from repro.core.system import DataOwner, QueryUser
from repro.core.verifier import collect_vo, settle, verify_vo
from repro.core.vo import (
    AccessibleRecordEntry,
    InaccessibleNodeEntry,
    InaccessibleRecordEntry,
    VerificationObject,
)
from repro.crypto import bn254, simulated
from repro.errors import SoundnessError
from repro.index.boxes import Box, Domain
from repro.policy.boolexpr import And, Attr, Or, parse_policy
from repro.policy.roles import RoleUniverse

ROLES = ["R0", "R1", "R2", "R3"]

policy_st = st.recursive(
    st.sampled_from(ROLES).map(Attr),
    lambda ch: st.one_of(
        st.lists(ch, min_size=2, max_size=3).map(lambda cs: And.of(*cs)),
        st.lists(ch, min_size=2, max_size=3).map(lambda cs: Or.of(*cs)),
    ),
    max_leaves=5,
)


def _world(group, records, seed=5):
    universe = RoleUniverse(ROLES)
    owner = DataOwner(group, universe, rng=random.Random(seed))
    ds = Dataset(Domain.of((0, 15)))
    for key, value, policy in records:
        ds.add(Record((key,), value, policy))
    return owner, owner.build_tree(ds), universe


def _oracle(auth, obligations):
    """Indexes per-entry ABS.Verify rejects."""
    return find_invalid(auth.scheme, auth.mvk, obligations)


def _raises_naming(region, check):
    with pytest.raises(SoundnessError, match=re.escape(f"for region {region}")):
        check()


# -- differential: settle accepts iff every per-entry check does -------------

@st.composite
def scenario(draw):
    policies = draw(st.dictionaries(st.integers(0, 15), policy_st, min_size=1, max_size=6))
    roles = draw(st.lists(st.sampled_from(ROLES), min_size=2, max_size=3, unique=True))
    lo = draw(st.integers(0, 15))
    hi = draw(st.integers(lo, 15))
    # One record the user can read under an AND gate (span-program
    # entries of -1), sometimes under an OR around it.
    gate = And.of(Attr(roles[0]), Attr(roles[1]))
    if draw(st.booleans()):
        gate = Or.of(gate, Attr(draw(st.sampled_from(ROLES))))
    policies[draw(st.integers(lo, hi))] = gate
    # Forgeries: (victim, donor) obligation pairs whose signatures are swapped.
    swaps = draw(st.lists(st.tuples(st.integers(0, 63), st.integers(0, 63)), max_size=2))
    return policies, frozenset(roles), Box((lo,), (hi,)), swaps


@given(scenario())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_settle_accepts_iff_every_entry_verifies(params):
    policies, roles, query, swaps = params
    records = [(k, b"v%d" % k, p) for k, p in policies.items()]
    owner, tree, universe = _world(simulated(), records)
    auth = AppAuthenticator(simulated(), universe, owner.mvk)
    vo = range_vo(tree, auth, query, roles, random.Random(6))
    _records, obligations = collect_vo(vo, auth, query, roles)
    for victim, donor in swaps:
        victim %= len(obligations)
        donor %= len(obligations)
        obligations[victim] = dataclasses.replace(
            obligations[victim], signature=obligations[donor].signature
        )
    bad = _oracle(auth, obligations)
    if not bad:
        settle(obligations, auth)
    else:
        _raises_naming(obligations[bad[0]].region, lambda: settle(obligations, auth))


def test_settle_matches_per_entry_on_bn254():
    """A fixed small BN254 VO with AND policies (-1 span-program entries)."""
    group = bn254()
    records = [(2, b"two", parse_policy("R0 and R1")), (5, b"five", parse_policy("R2 or R3")),
               (9, b"nine", parse_policy("(R0 and R2) or R3"))]
    owner, tree, universe = _world(group, records)
    auth = AppAuthenticator(group, universe, owner.mvk)
    roles = frozenset({"R0", "R1"})
    query = Box((0,), (15,))
    vo = range_vo(tree, auth, query, roles, random.Random(6))
    got, obligations = collect_vo(vo, auth, query, roles)
    assert [r.value for r in got] == [b"two"]
    assert _oracle(auth, obligations) == []
    settle(obligations, auth)
    last = len(obligations) - 1
    forged = list(obligations)
    forged[last] = dataclasses.replace(forged[last], signature=obligations[0].signature)
    assert _oracle(auth, forged) == [last]
    _raises_naming(forged[last].region, lambda: settle(forged, auth))


# -- Byzantine mutators, both backends -----------------------------------------

MUTATOR_RECORDS = [
    (1, b"one", "R0 and R1"),
    (4, b"four", "R2 and R3"),
    (7, b"seven", "R0 or R2"),
    (12, b"twelve", "R3"),
]


@functools.lru_cache(maxsize=None)
def _mutator_world(backend):
    group = simulated() if backend == "simulated" else bn254()
    records = [(k, v, parse_policy(p)) for k, v, p in MUTATOR_RECORDS]
    owner, tree, universe = _world(group, records, seed=11)
    roles = frozenset({"R0", "R1"})
    query = Box((0,), (15,))
    auth = AppAuthenticator(group, universe, owner.mvk)
    vo = range_vo(tree, auth, query, roles, random.Random(12))
    return group, auth, vo, roles, query


@pytest.fixture(params=["simulated", "bn254"])
def mutator_world(request):
    return _mutator_world(request.param)


def _verify_mutated(world, index, entry):
    group, auth, vo, roles, query = world
    entries = list(vo.entries)
    entries[index] = entry
    fresh = AppAuthenticator(group, auth.universe, auth.mvk)
    _raises_naming(
        entry.region,
        lambda: verify_vo(VerificationObject(entries=entries), fresh, query, roles),
    )


def _index(vo, kind, pick=lambda e: True):
    return next(i for i, e in enumerate(vo.entries) if isinstance(e, kind) and pick(e))


def test_honest_mutator_vo_verifies(mutator_world):
    group, auth, vo, roles, query = mutator_world
    fresh = AppAuthenticator(group, auth.universe, auth.mvk)
    assert sorted(r.value for r in verify_vo(vo, fresh, query, roles)) == [b"one", b"seven"]


def test_swapping_two_rows_s_i_is_caught(mutator_world):
    vo = mutator_world[2]
    i = _index(vo, AccessibleRecordEntry, lambda e: len(e.signature.s) >= 2)
    entry = vo.entries[i]
    s = list(entry.signature.s)
    s[0], s[1] = s[1], s[0]
    forged = dataclasses.replace(entry.signature, s=tuple(s))
    _verify_mutated(mutator_world, i, dataclasses.replace(entry, signature=forged))


def test_replacing_an_app_p_j_is_caught(mutator_world):
    vo = mutator_world[2]
    i = _index(vo, AccessibleRecordEntry)
    other = vo.entries[_index(vo, AccessibleRecordEntry, lambda e: e is not vo.entries[i])]
    entry = vo.entries[i]
    p = (other.signature.p[0],) + entry.signature.p[1:]
    forged = dataclasses.replace(entry.signature, p=p)
    _verify_mutated(mutator_world, i, dataclasses.replace(entry, signature=forged))


def test_grafting_an_aps_from_another_node_is_caught(mutator_world):
    vo = mutator_world[2]
    inaccessible = (InaccessibleNodeEntry, InaccessibleRecordEntry)
    targets = [i for i, e in enumerate(vo.entries) if isinstance(e, inaccessible)]
    assert len(targets) >= 2
    victim, donor = vo.entries[targets[0]], vo.entries[targets[1]]
    _verify_mutated(mutator_world, targets[0], dataclasses.replace(victim, aps=donor.aps))


def test_relabelling_an_accessible_record_as_inaccessible_is_caught(mutator_world):
    vo = mutator_world[2]
    i = _index(vo, AccessibleRecordEntry)
    entry = vo.entries[i]
    hidden = InaccessibleRecordEntry(
        key=entry.key, value_hash=entry.record().value_hash(), aps=entry.signature
    )
    _verify_mutated(mutator_world, i, hidden)


def test_a_p_j_outside_g2_is_rejected(monkeypatch):
    """The merged product is sound only for P_j in G2 (docs/SECURITY.md);
    a twist point off the subgroup is rejected before any pairing runs."""
    from repro.crypto import tower
    from repro.crypto.curve import TWIST_B, PointG2
    from repro.crypto.group import GroupElement

    world = _mutator_world("bn254")
    group, vo = world[0], world[2]
    for x0 in range(5, 64):
        x = (x0, 3)
        y = tower.fp2_sqrt(tower.fp2_add(tower.fp2_mul(tower.fp2_sq(x), x), TWIST_B))
        if y is not None:
            break
    outside = GroupElement(group, "G2", PointG2((x, y)))
    assert not group.in_subgroup(outside)
    i = _index(vo, AccessibleRecordEntry)
    entry = vo.entries[i]
    forged = dataclasses.replace(entry.signature, p=(outside,) + entry.signature.p[1:])
    products = []
    monkeypatch.setattr(group, "multi_pair", lambda pairs: products.append(pairs))
    _verify_mutated(world, i, dataclasses.replace(entry, signature=forged))
    assert products == []


# -- cost on BN254 --------------------------------------------------------------

def test_cold_bn254_verify_runs_one_multi_pair_and_no_pair(monkeypatch):
    group, auth, vo, roles, query = _mutator_world("bn254")
    calls = {"pair": 0, "multi_pair": 0}
    for name in calls:
        original = getattr(group, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(group, name, counted)
    fresh = AppAuthenticator(group, auth.universe, auth.mvk)
    assert verify_vo(vo, fresh, query, roles)
    assert calls == {"pair": 0, "multi_pair": 1}


# -- unpredictable batching exponents -------------------------------------------

def _drawn_exponents(monkeypatch, verify):
    drawn = []
    original = batch_mod.draw_rho

    def recording():
        value = original()
        drawn.append(value)
        return value

    monkeypatch.setattr(batch_mod, "draw_rho", recording)
    verify()
    monkeypatch.setattr(batch_mod, "draw_rho", original)
    return drawn


def test_seeding_random_or_the_client_rng_does_not_fix_the_exponents(monkeypatch):
    from repro.core.messages import SPServer
    from repro.net import LoopbackTransport, ResilientClient, ResilientSPServer

    records = [(k, v, parse_policy(p)) for k, v, p in MUTATOR_RECORDS]
    universe = RoleUniverse(ROLES)
    owner = DataOwner(simulated(), universe, rng=random.Random(3))
    ds = Dataset(Domain.of((0, 15)))
    for key, value, policy in records:
        ds.add(Record((key,), value, policy))
    provider = owner.outsource({"t": ds})
    server = ResilientSPServer(SPServer(provider, rng=random.Random(4)))
    runs = []
    for _ in range(2):
        random.seed(2018)
        user = QueryUser(simulated(), universe, owner.register_user(["R0"]))
        client = ResilientClient(
            user, LoopbackTransport(server.handle_frame), rng=random.Random(2018)
        )
        runs.append(_drawn_exponents(
            monkeypatch, lambda: client.query_range("t", (0,), (15,), encrypt=False)
        ))
    first, second = runs
    assert first and len(first) == len(second)
    assert set(first).isdisjoint(second)
    seeded = random.Random(2018)
    assert set(first).isdisjoint({seeded.getrandbits(64) | 1 for _ in range(len(first))})
    assert all(0 < rho < 1 << batch_mod.RHO_BITS for rho in first)
