"""Freshness-token rotation interleaved with dynamic tree updates.

The DO's update flow is: apply the upsert/delete to the outsourced tree,
bump the epoch, push a new token.  These tests pin the contract a lagging
or replaying SP runs into: at every rotation point the *current* token
verifies and every prior epoch's token — genuinely signed, merely old —
is rejected, on both crypto backends.
"""

import random

import pytest

from repro.core.freshness import issue_token, verify_token
from repro.core.records import Dataset, Record
from repro.core.system import DataOwner, QueryUser
from repro.errors import VerificationError
from repro.index.boxes import Domain
from repro.index.updates import delete, upsert
from repro.policy.boolexpr import parse_policy
from repro.policy.roles import RoleUniverse

TABLE = "docs"


def build(any_group):
    rng = random.Random(7300)
    universe = RoleUniverse(["RoleA", "RoleB"])
    owner = DataOwner(any_group, universe, rng=rng)
    ds = Dataset(Domain.of((0, 7)))
    ds.add(Record((2,), b"two", parse_policy("RoleA")))
    ds.add(Record((5,), b"five", parse_policy("RoleA")))
    provider = owner.outsource({TABLE: ds})
    user = QueryUser(any_group, universe, owner.register_user(["RoleA"]))
    return rng, universe, owner, provider, user


def rotate(owner, provider, epoch, rng):
    """The DO's epoch bump: sign and push the new current token."""
    token = issue_token(owner.signer, TABLE, epoch=epoch, rng=rng)
    provider.set_freshness_token(TABLE, token)
    return token


def fetch(provider, user, rng):
    """One full-range query; returns (verified values, attached token)."""
    response = provider.range_query(TABLE, (0,), (7,), user.roles, rng=rng)
    values = sorted(r.value for r in user.verify(response))
    return values, response.freshness


def check(user, token, now_epoch):
    verify_token(
        user.authenticator, token, now_epoch=now_epoch, max_age=0, expected_tree_id=TABLE
    )


def test_rotation_interleaved_with_upsert_and_delete(any_group):
    rng, universe, owner, provider, user = build(any_group)
    tree = provider.tree(TABLE)

    # Epoch 1: the initial outsourcing.
    token1 = rotate(owner, provider, 1, rng)
    values, served = fetch(provider, user, rng)
    assert values == [b"five", b"two"]
    check(user, served, now_epoch=1)

    # Epoch 2: upsert a record, then rotate.  The served token moves
    # with the data, and the new record is in the verified answer.
    upsert(tree, owner.signer, Record((6,), b"six", parse_policy("RoleA")), rng)
    token2 = rotate(owner, provider, 2, rng)
    values, served = fetch(provider, user, rng)
    assert values == [b"five", b"six", b"two"]
    check(user, served, now_epoch=2)
    # The epoch-1 token is now exactly the replay a lagging SP would
    # serve: genuinely signed, one update behind — always rejected.
    with pytest.raises(VerificationError, match="epochs old"):
        check(user, token1, now_epoch=2)

    # Epoch 3: delete a record, rotate again.  The deletion is live in
    # the verified answer and only the newest token passes.
    delete(tree, owner.signer, (5,), rng)
    token3 = rotate(owner, provider, 3, rng)
    values, served = fetch(provider, user, rng)
    assert values == [b"six", b"two"]
    check(user, served, now_epoch=3)
    for stale in (token1, token2):
        with pytest.raises(VerificationError, match="epochs old"):
            check(user, stale, now_epoch=3)
    # And the rotation never weakened binding: the current token still
    # fails for any other tree id.
    with pytest.raises(VerificationError, match="expected"):
        verify_token(
            user.authenticator, token3, now_epoch=3, max_age=0, expected_tree_id="other"
        )


def test_replica_that_skipped_an_update_serves_a_rejected_token(any_group):
    rng, universe, owner, provider, user = build(any_group)
    rotate(owner, provider, 1, rng)
    # Snapshot the replica *before* the update: this is the lagging
    # replica that crashed and restored old state.
    lagging = type(provider).from_snapshots(
        any_group, universe, owner.mvk, owner.cpabe_public,
        provider.snapshot_tables(),
    )
    lagging.set_freshness_token(TABLE, provider.freshness_token(TABLE))

    upsert(
        provider.tree(TABLE), owner.signer,
        Record((6,), b"six", parse_policy("RoleA")), rng,
    )
    rotate(owner, provider, 2, rng)

    # The lagging replica's answer verifies as *data* (its tree is a
    # valid signed ADS) but its token pins it to the stale epoch.
    values, served = fetch(lagging, user, rng)
    assert values == [b"five", b"two"]  # the upsert is missing
    with pytest.raises(VerificationError, match="epochs old"):
        check(user, served, now_epoch=2)
    # The caught-up replica passes with the same check.
    values, served = fetch(provider, user, rng)
    assert values == [b"five", b"six", b"two"]
    check(user, served, now_epoch=2)
