"""What reusing the CP-ABE key encapsulation must and must not do.

The service provider keeps one encapsulation per claimed role set and
epoch; a client memoizes decapsulated key material by the header's exact
bytes.  Reuse may only save pairings: every response still carries a
fresh nonce, every body is still MAC-checked, a header spliced onto
another body never yields plaintext, and nobody opens a header their own
key cannot decapsulate.
"""

import itertools
import random
import sys
import threading

import pytest

from repro.abe.cpabe import CpAbeCiphertext, CpAbeScheme
from repro.abe.hybrid import HybridEnvelope, decrypt_envelope, encrypt_for_roles
from repro.core.freshness import issue_token, verify_token
from repro.core.records import Dataset, Record
from repro.core.system import KEM_CACHE_SIZE, DataOwner, QueryUser, ServiceProvider
from repro.crypto import bn254, simulated
from repro.errors import AccessDeniedError, CryptoError, DeserializationError
from repro.index.boxes import Domain
from repro.memo import BoundedMemo
from repro.policy.boolexpr import parse_policy
from repro.policy.roles import RoleUniverse


class Outcomes(list):
    """A KEM cache observer that records every outcome in order."""

    def __call__(self, outcome):
        self.append(outcome)


@pytest.fixture
def kem(any_group):
    rng = random.Random(4242)
    scheme = CpAbeScheme(any_group)
    keys = scheme.setup(rng)
    return any_group, scheme, keys, rng


def _seal(kem, roles, payload, cache):
    _grp, scheme, keys, rng = kem
    return encrypt_for_roles(scheme, keys.public, roles, payload, rng, cache=cache)


# -- sealer side ------------------------------------------------------------

def test_one_role_set_shares_header_with_distinct_nonces(kem):
    _grp, scheme, keys, rng = kem
    seen = Outcomes()
    cache = BoundedMemo(4, observe=seen)
    first = _seal(kem, ["b", "a"], b"one", cache)
    second = _seal(kem, ["a", "b", "a"], b"two", cache)
    assert seen == ["miss", "hit"]
    assert first.header_bytes == second.header_bytes
    assert first.body[:12] != second.body[:12]
    sk = scheme.keygen(keys, ["a", "b"], rng)
    assert decrypt_envelope(scheme, sk, first) == b"one"
    assert decrypt_envelope(scheme, sk, second) == b"two"


def test_another_role_set_never_hits(kem):
    seen = Outcomes()
    cache = BoundedMemo(4, observe=seen)
    env_a = _seal(kem, ["a"], b"x", cache)
    env_ab = _seal(kem, ["a", "b"], b"x", cache)
    env_b = _seal(kem, ["b"], b"x", cache)
    assert seen == ["miss", "miss", "miss"]
    keys = {e.header_bytes for e in (env_a, env_ab, env_b)}
    assert len(keys) == 3


def test_clear_starts_a_new_encapsulation(kem):
    cache = BoundedMemo(4)
    before = _seal(kem, ["a"], b"x", cache)
    cache.clear()
    after = _seal(kem, ["a"], b"x", cache)
    assert before.header_bytes != after.header_bytes


def test_key_drawn_across_a_rotation_is_not_cached():
    """A rotation that lands while a miss is being computed wins: the
    encapsulation reaches its own caller but never enters the cache."""
    seen = Outcomes()
    cache = BoundedMemo(4, observe=seen)

    def encapsulate_while_rotating():
        cache.clear()
        return "drawn before the rotation"

    assert cache.get_or_make("k", encapsulate_while_rotating) == "drawn before the rotation"
    assert len(cache) == 0
    assert cache.get_or_make("k", lambda: "fresh") == "fresh"
    assert seen == ["miss", "miss"]


def test_tampered_body_still_fails_the_mac(kem):
    _grp, scheme, keys, rng = kem
    sk = scheme.keygen(keys, ["a"], rng)
    memo = BoundedMemo(4)
    envp = _seal(kem, ["a"], b"payload", BoundedMemo(4))
    assert decrypt_envelope(scheme, sk, envp, cache=memo) == b"payload"
    for i in (0, 12, len(envp.body) - 1):
        body = bytearray(envp.body)
        body[i] ^= 1
        with pytest.raises(CryptoError):
            decrypt_envelope(
                scheme, sk, HybridEnvelope(envp.header, bytes(body)), cache=memo
            )


def test_cached_header_spliced_onto_another_role_sets_body_never_opens(kem):
    """Splice a cached header of one role set onto another set's body; a
    user holding both sets passes the policy and must fail at the MAC."""
    _grp, scheme, keys, rng = kem
    cache = BoundedMemo(4)
    memo = BoundedMemo(4)
    sk = scheme.keygen(keys, ["a", "b"], rng)
    env_a = _seal(kem, ["a"], b"answer for a", cache)
    env_b = _seal(kem, ["b"], b"answer for b", cache)
    # Warm both the sealer's cache and the opener's memo with header a.
    assert _seal(kem, ["a"], b"again", cache).header is env_a.header
    assert decrypt_envelope(scheme, sk, env_a, cache=memo) == b"answer for a"
    for header, body in ((env_a.header, env_b.body), (env_b.header, env_a.body)):
        with pytest.raises(CryptoError):
            decrypt_envelope(scheme, sk, HybridEnvelope(header, body), cache=memo)


# -- opener side ------------------------------------------------------------

def test_open_hit_computes_no_pairings(kem):
    grp, scheme, keys, rng = kem
    sk = scheme.keygen(keys, ["a", "b"], rng)
    cache, memo = BoundedMemo(4), BoundedMemo(4)
    first = _seal(kem, ["a", "b"], b"first", cache)
    second = _seal(kem, ["a", "b"], b"second", cache)
    before = grp.stats.snapshot()
    assert decrypt_envelope(scheme, sk, first, cache=memo) == b"first"
    miss = grp.stats.delta(before)
    before = grp.stats.snapshot()
    assert decrypt_envelope(scheme, sk, second, cache=memo) == b"second"
    hit = grp.stats.delta(before)
    assert miss["pairings"] == 2 + 2
    assert hit["pairings"] == 0


def test_access_denied_is_never_memoized(kem):
    _grp, scheme, keys, rng = kem
    partial = scheme.keygen(keys, ["a"], rng)
    seen = Outcomes()
    memo = BoundedMemo(4, observe=seen)
    envp = _seal(kem, ["a", "b"], b"x", BoundedMemo(4))
    for _ in range(2):
        with pytest.raises(AccessDeniedError):
            decrypt_envelope(scheme, partial, envp, cache=memo)
    assert seen == ["miss", "miss"]
    assert len(memo) == 0


def test_one_byte_header_mutation_misses_the_memo_and_fails(kem):
    grp, scheme, keys, rng = kem
    sk = scheme.keygen(keys, ["a"], rng)
    seen = Outcomes()
    memo = BoundedMemo(8, observe=seen)
    envp = _seal(kem, ["a"], b"x", BoundedMemo(4))
    assert decrypt_envelope(scheme, sk, envp, cache=memo) == b"x"
    encoded = envp.header_bytes
    g1w, g2w = grp.element_bytes("G1"), grp.element_bytes("G2")
    c_prime_end = len(encoded) - (2 + g1w + g2w)  # C' | count | C_1 | D_1
    opened_mutants = 0
    # Flip the last byte of C' and the last byte of D_1.
    for offset in (c_prime_end - 1, len(encoded) - 1):
        mutated = bytearray(encoded)
        mutated[offset] ^= 0x01
        mutant = HybridEnvelope.from_header_bytes(grp, bytes(mutated), envp.body)
        del seen[:]
        with pytest.raises(CryptoError):  # DeserializationError included
            decrypt_envelope(scheme, sk, mutant, cache=memo)
        assert seen == ["miss"]
        try:
            CpAbeCiphertext.from_bytes(grp, bytes(mutated))
        except DeserializationError:
            continue  # rejected at decode, as before
        opened_mutants += 1
    if grp.name == "simulated":
        assert opened_mutants == 2  # every byte string decodes there


# -- the service provider and the query user --------------------------------

TABLE = "docs"
ROLES = [f"R{i}" for i in range(7)]
RECORDS = [((3,), b"three", "R0"), ((9,), b"nine", "R1 or R2")]


def _visible(roles):
    return sorted(value for _key, value, policy in RECORDS
                  if parse_policy(policy).evaluate(roles))


def _build_world(group):
    rng = random.Random(616)
    universe = RoleUniverse(ROLES)
    ds = Dataset(Domain.of((0, 15)))
    for key, value, policy in RECORDS:
        ds.add(Record(key, value, parse_policy(policy)))
    owner = DataOwner(group, universe, rng=rng)
    provider = owner.outsource({TABLE: ds})
    return group, universe, owner, provider, rng


@pytest.fixture(scope="module", params=["simulated", "bn254"])
def world(request):
    return _build_world(simulated() if request.param == "simulated" else bn254())


@pytest.fixture(scope="module")
def sim_world():
    """The simulated world, for tests that run many queries."""
    return _build_world(simulated())


def _fresh_provider(world, **kwargs):
    group, universe, owner, provider, _rng = world
    return ServiceProvider(
        group=group, universe=universe, mvk=owner.mvk,
        cpabe_public=owner.cpabe_public, trees=dict(provider.trees), **kwargs,
    )


def _header(sp, roles, rng):
    resp = sp.range_query(TABLE, (0,), (15,), roles, encrypt=True, rng=rng)
    return resp.envelope.header_bytes


def test_rotation_and_token_push_change_the_header(world):
    _group, _universe, owner, _provider, rng = world
    sp = _fresh_provider(world)
    first = _header(sp, {"R0"}, rng)
    assert _header(sp, {"R0"}, rng) == first
    token = issue_token(owner.signer, TABLE, epoch=2, rng=rng)
    sp.install_table(TABLE, sp.tree(TABLE), token)
    rotated = _header(sp, {"R0"}, rng)
    assert rotated != first
    sp.set_freshness_token(TABLE, issue_token(owner.signer, TABLE, epoch=3, rng=rng))
    assert _header(sp, {"R0"}, rng) not in (first, rotated)


def test_bound_plus_one_role_sets_evict_the_oldest(sim_world):
    rng = sim_world[4]
    sp = _fresh_provider(sim_world)
    role_sets = [
        set(c) for n in (1, 2, 3, 4) for c in itertools.combinations(ROLES, n)
    ][: KEM_CACHE_SIZE + 1]
    assert len(role_sets) == KEM_CACHE_SIZE + 1
    headers = [_header(sp, roles, rng) for roles in role_sets]
    assert len(set(headers)) == len(headers)
    assert _header(sp, role_sets[-1], rng) == headers[-1]  # still cached
    assert _header(sp, role_sets[0], rng) != headers[0]  # evicted: fresh KEM


def test_other_users_memo_never_opens_for_an_impostor(world):
    group, universe, owner, provider, rng = world
    holder = QueryUser(group, universe, owner.register_user(["R1", "R2"]))
    impostor = QueryUser(group, universe, owner.register_user(["R1"]))
    resp = provider.range_query(TABLE, (0,), (15,), {"R1", "R2"}, encrypt=True, rng=rng)
    assert [r.value for r in holder.verify(resp)] == _visible(holder.roles)
    with pytest.raises(AccessDeniedError):
        impostor.verify(resp)


def test_authenticator_pool_survives_concurrent_eviction(sim_world):
    """A hit on one thread must not race another thread's eviction: the
    pool's read, insert, evict and move-to-end all run under one lock."""
    sp = _fresh_provider(sim_world, auth_pool_size=2)
    role_sets = [{"R0"}, {"R1"}, {"R2"}, {"R0", "R1"}, {"R1", "R2"}, {"R0", "R2"}]
    errors = []

    def hammer(worker):
        try:
            for i in range(5000):
                sp.authenticator_for(role_sets[(worker + i) % len(role_sets)])
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer, args=(w,)) for w in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(previous)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(sp._auth_pool) == 2


def test_concurrent_queries_and_rotations_all_verify(sim_world):
    """More role sets than authenticator slots, 8 querying threads, and a
    rotating thread: no query fails, and every answer verifies under the
    epoch its token names."""
    group, universe, owner, _provider, _rng = sim_world
    sp = _fresh_provider(sim_world, auth_pool_size=2)
    sp.set_freshness_token(TABLE, issue_token(owner.signer, TABLE, epoch=1, rng=random.Random(1)))
    role_sets = [{"R0"}, {"R1"}, {"R2"}, {"R0", "R1"}, {"R1", "R2"}, {"R0", "R2"}]
    users = [QueryUser(group, universe, owner.register_user(r)) for r in role_sets]
    errors, served_epochs = [], set()
    stop = threading.Event()

    def query(worker):
        rng = random.Random(worker)
        try:
            for i in range(12):
                user = users[(worker + i) % len(users)]
                resp = sp.range_query(TABLE, (0,), (15,), user.roles, encrypt=True, rng=rng)
                assert sorted(r.value for r in user.verify(resp)) == _visible(user.roles)
                token = resp.freshness
                verify_token(user.authenticator, token, now_epoch=token.epoch,
                             max_age=0, expected_tree_id=TABLE)
                served_epochs.add(token.epoch)
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    def rotate():
        rng = random.Random(99)
        epoch = 1
        while not stop.is_set():
            epoch += 1
            token = issue_token(owner.signer, TABLE, epoch=epoch, rng=rng)
            sp.install_table(TABLE, sp.tree(TABLE), token)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        rotator = threading.Thread(target=rotate)
        rotator.start()
        workers = [threading.Thread(target=query, args=(w,)) for w in range(8)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=120)
        stop.set()
        rotator.join(timeout=120)
    finally:
        stop.set()
        sys.setswitchinterval(previous)
    assert not any(t.is_alive() for t in workers + [rotator])
    assert errors == []
    assert len(served_epochs) > 1
