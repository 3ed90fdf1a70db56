"""Tests for freshness tokens (stale-ADS replay prevention)."""

import random

import pytest

from repro.core.app_signature import AppAuthenticator
from repro.core.freshness import FreshnessToken, issue_token, verify_token
from repro.core.system import DataOwner
from repro.crypto import simulated
from repro.errors import VerificationError
from repro.policy.roles import RoleUniverse


@pytest.fixture(scope="module")
def env():
    rng = random.Random(1212)
    universe = RoleUniverse(["RoleA", "RoleB"])
    owner = DataOwner(simulated(), universe, rng=rng)
    return rng, universe, owner, AppAuthenticator(simulated(), universe, owner.mvk)


def test_token_roundtrip(env):
    rng, universe, owner, auth = env
    token = issue_token(owner.signer, "patients", epoch=100, rng=rng)
    verify_token(auth, token, now_epoch=101, max_age=5)


def test_token_verifiable_by_any_user(env):
    """The OR(universe) predicate makes the token universally checkable —
    even a user with zero roles can validate freshness."""
    rng, universe, owner, auth = env
    token = issue_token(owner.signer, "t", epoch=7, rng=rng)
    # Verification needs only mvk + the public universe; no roles involved.
    verify_token(auth, token, now_epoch=7, max_age=0)


def test_stale_token_rejected(env):
    rng, universe, owner, auth = env
    token = issue_token(owner.signer, "t", epoch=100, rng=rng)
    with pytest.raises(VerificationError, match="epochs old"):
        verify_token(auth, token, now_epoch=110, max_age=5)


def test_future_token_rejected(env):
    rng, universe, owner, auth = env
    token = issue_token(owner.signer, "t", epoch=100, rng=rng)
    with pytest.raises(VerificationError, match="future"):
        verify_token(auth, token, now_epoch=80, max_age=5)


def test_cross_table_replay_rejected(env):
    rng, universe, owner, auth = env
    token = issue_token(owner.signer, "orders", epoch=100, rng=rng)
    with pytest.raises(VerificationError, match="expected"):
        verify_token(auth, token, now_epoch=100, max_age=5, expected_tree_id="lineitem")


def test_forged_epoch_rejected(env):
    """Re-stamping an old token with a newer epoch breaks the signature."""
    rng, universe, owner, auth = env
    token = issue_token(owner.signer, "t", epoch=100, rng=rng)
    forged = FreshnessToken(tree_id="t", epoch=200, signature=token.signature)
    with pytest.raises(VerificationError, match="signature invalid"):
        verify_token(auth, forged, now_epoch=200, max_age=5)


def test_foreign_owner_token_rejected(env):
    rng, universe, owner, auth = env
    other = DataOwner(simulated(), universe, rng=rng)
    token = issue_token(other.signer, "t", epoch=100, rng=rng)
    with pytest.raises(VerificationError, match="signature invalid"):
        verify_token(auth, token, now_epoch=100, max_age=5)


def test_token_byte_size(env):
    rng, universe, owner, auth = env
    token = issue_token(owner.signer, "t", epoch=1, rng=rng)
    assert token.byte_size() > 0
    assert token.byte_size() == len(b"t") + 8 + token.signature.byte_size()
