"""Tokens and ingest frames are settled like VO entries, and rejected like them.

Freshness tokens, shard tokens, roster tokens and DO->SP ingest frames
are all accepted through ``AppAuthenticator.settle_failures``.  On both
backends each tampered signature is rejected with
:class:`VerificationError`: an altered ``S_i``, a ``P_j`` swapped in from
another signature, and, on BN254, a twist point outside G2 (rejected
before any pairing runs).  A genuine old token is still
:class:`StaleEpochError`, an ingest rejection still counts
``auth_failed``, and a user re-checking a token it accepted runs no
pairing.
"""

import dataclasses
import functools
import random

import pytest

from repro.abs.scheme import AbsSignature
from repro.core.app_signature import AppAuthenticator
from repro.core.freshness import (
    FreshnessToken,
    ShardDescriptor,
    ShardRoster,
    check_shard_token,
    issue_roster_token,
    issue_shard_token,
    issue_token,
    sign_ingest_payload,
    verify_ingest_payload,
    verify_roster_token,
    verify_token,
)
from repro.core.messages import IngestEnvelope, RotateFrame
from repro.core.records import Dataset, Record
from repro.core.system import DataOwner, QueryUser
from repro.crypto import bn254, simulated
from repro.errors import StaleEpochError, VerificationError
from repro.index.boxes import Box, Domain
from repro.net import ServerIngest
from repro.obs import gate, metrics
from repro.policy.boolexpr import parse_policy
from repro.policy.roles import RoleUniverse

ROLES = ["R0", "R1", "R2"]
EPOCH = 5
PAYLOAD = b"an ingest frame's payload bytes"


@functools.lru_cache(maxsize=None)
def _world(backend):
    group = simulated() if backend == "simulated" else bn254()
    universe = RoleUniverse(ROLES)
    owner = DataOwner(group, universe, rng=random.Random(2100))
    rng = random.Random(2101)
    roster = ShardRoster(
        table="t", version=3, kind="range",
        shards=(ShardDescriptor("s0", Box((0,), (7,)), EPOCH),
                ShardDescriptor("s1", Box((8,), (15,)), EPOCH)),
    )
    signatures = {
        "freshness": issue_token(owner.signer, "t", EPOCH, rng).signature,
        "shard": issue_shard_token(owner.signer, roster, "s0", rng=rng).signature,
        "roster": issue_roster_token(owner.signer, roster, rng).signature,
        "ingest": AbsSignature.from_bytes(group, sign_ingest_payload(owner.signer, PAYLOAD, rng)),
    }
    donor = issue_token(owner.signer, "donor", EPOCH, rng).signature
    return group, universe, owner, roster, signatures, donor


def _check(kind, auth, roster, signature):
    """Run ``kind``'s acceptance check on ``signature``."""
    if kind == "freshness":
        verify_token(auth, FreshnessToken("t", EPOCH, signature), now_epoch=EPOCH,
                     max_age=0, expected_tree_id="t")
    elif kind == "shard":
        token = FreshnessToken(roster.shard_tree_id("s0"), EPOCH, signature)
        check_shard_token(auth, roster, "s0", token)
    elif kind == "roster":
        verify_roster_token(auth, roster, FreshnessToken(roster.binding_id(), roster.version,
                                                         signature))
    else:
        verify_ingest_payload(auth, PAYLOAD, signature.to_bytes())


def _off_subgroup_g2(group):
    """A point on the BN254 twist that is not in G2."""
    from repro.crypto import tower
    from repro.crypto.curve import TWIST_B, PointG2
    from repro.crypto.group import GroupElement

    for x0 in range(5, 64):
        x = (x0, 3)
        y = tower.fp2_sqrt(tower.fp2_add(tower.fp2_mul(tower.fp2_sq(x), x), TWIST_B))
        if y is not None:
            point = GroupElement(group, "G2", PointG2((x, y)))
            assert not group.in_subgroup(point)
            return point
    raise AssertionError("no off-subgroup twist point found")


def _tamper(mutation, group, signature, donor):
    if mutation == "altered_s":
        return dataclasses.replace(signature, s=(signature.s[0] * group.g1,) + signature.s[1:])
    if mutation == "swapped_p":
        return dataclasses.replace(signature, p=donor.p)
    return dataclasses.replace(signature, p=(_off_subgroup_g2(group),) + signature.p[1:])


KINDS = ["freshness", "shard", "roster", "ingest"]
CASES = [
    (backend, mutation)
    for backend in ("simulated", "bn254")
    for mutation in ("altered_s", "swapped_p", "p_outside_g2")
    if backend == "bn254" or mutation != "p_outside_g2"
]


def _user_authenticator(group, universe, owner):
    auth = AppAuthenticator(group, universe, owner.mvk)
    auth.enable_verify_memo()
    return auth


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("backend,mutation", CASES, ids=[f"{b}-{m}" for b, m in CASES])
def test_tampered_signature_is_rejected(backend, mutation, kind, monkeypatch):
    group, universe, owner, roster, signatures, donor = _world(backend)
    auth = _user_authenticator(group, universe, owner)
    genuine = signatures[kind]
    _check(kind, auth, roster, genuine)  # accepted, and now in the memo
    forged = _tamper(mutation, group, genuine, donor)
    products = []
    if mutation == "p_outside_g2":
        monkeypatch.setattr(group, "multi_pair", lambda pairs: products.append(pairs))
    with pytest.raises(VerificationError) as exc:
        _check(kind, auth, roster, forged)
    assert not isinstance(exc.value, StaleEpochError)
    assert products == []


@pytest.mark.parametrize("backend", ["simulated", "bn254"])
def test_genuine_old_token_is_stale(backend):
    group, universe, owner, roster, signatures, _donor = _world(backend)
    token = FreshnessToken("t", EPOCH, signatures["freshness"])
    with pytest.raises(StaleEpochError, match="epochs old"):
        verify_token(_user_authenticator(group, universe, owner), token,
                     now_epoch=EPOCH + 2, max_age=1)


@pytest.mark.parametrize("backend", ["simulated", "bn254"])
def test_a_user_rechecking_an_accepted_token_runs_no_pairing(backend):
    group, universe, owner, _roster, signatures, _donor = _world(backend)
    user = QueryUser(group, universe, owner.register_user(["R0"]))
    token = FreshnessToken("t", EPOCH, signatures["freshness"])
    before = group.stats.snapshot()
    verify_token(user.authenticator, token, now_epoch=EPOCH, max_age=0)
    assert group.stats.delta(before)["pairings"] > 0
    before = group.stats.snapshot()
    verify_token(user.authenticator, token, now_epoch=EPOCH, max_age=0)
    assert group.stats.delta(before)["pairings"] == 0


@pytest.fixture
def obs_on():
    previous = gate.set_enabled(True)
    yield
    gate.set_enabled(previous)


@pytest.mark.parametrize("backend,mutation", CASES, ids=[f"{b}-{m}" for b, m in CASES])
def test_ingest_rejection_counts_auth_failed(backend, mutation, tmp_path, obs_on):
    group, universe, owner, _roster, _signatures, donor = _world(backend)
    dataset = Dataset(Domain.of((0, 15)))
    dataset.add(Record((1,), b"one", parse_policy("R0")))
    provider = owner.outsource({"docs": dataset})
    ingest = ServerIngest(provider, tmp_path)
    payload = RotateFrame(table="docs", seq=1, epoch=2, token_bytes=b"").to_bytes()
    genuine = AbsSignature.from_bytes(
        group, sign_ingest_payload(owner.signer, payload, random.Random(7))
    )
    forged = _tamper(mutation, group, genuine, donor)
    counter = metrics.registry().get("repro_ingest_frames_total")
    failed = counter.value(outcome="auth_failed")
    appended = ingest.journal.appended
    with pytest.raises(VerificationError, match="does not verify"):
        ingest.handle(IngestEnvelope(payload=payload, signature_bytes=forged.to_bytes())
                      .to_bytes())
    assert counter.value(outcome="auth_failed") == failed + 1
    assert ingest.journal.appended == appended
    assert ingest.states["docs"].applied_seq == 0
    ingest.close()
