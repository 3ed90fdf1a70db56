"""Cross-query windowed VO verification: deferral, flush, attribution.

A :class:`~repro.net.window.VerificationWindow` trades per-response APS
latency for one bilinearity-merged batch check per window.  The safety
contract under test: structural failures still surface eagerly, a forged
APS is *always* caught at the next settle, and the raised error blames
exactly the responses (and regions) carrying invalid signatures — not
their innocent window-mates.
"""

import dataclasses
import random

import pytest

from repro.core.vo import InaccessibleNodeEntry, InaccessibleRecordEntry
from repro.errors import ReproError, SoundnessError
from repro.net import LoopbackTransport, ResilientClient
from repro.net.window import VerificationWindow


USER_ROLES = frozenset({"analyst"})


def windowed_client(env, size):
    return ResilientClient(
        env.user,
        LoopbackTransport(env.hardened.handle_frame),
        rng=random.Random(31),
        verification_window=size,
    )


def _swap_aps(vo, i, j):
    """Cross-wire two entries' APS signatures: valid sigs, wrong messages."""
    a, b = vo.entries[i], vo.entries[j]
    vo.entries[i] = dataclasses.replace(a, aps=b.aps)
    vo.entries[j] = dataclasses.replace(b, aps=a.aps)


def _inaccessible_indexes(vo):
    return [
        i for i, e in enumerate(vo.entries)
        if isinstance(e, (InaccessibleRecordEntry, InaccessibleNodeEntry))
    ]


def test_window_rejects_bad_size(env):
    with pytest.raises(ReproError, match="size"):
        VerificationWindow(env.user, size=0)


def test_window_auto_flushes_at_size(env):
    client = windowed_client(env, size=3)
    r1 = client.query_range("docs", (0,), (15,), encrypt=False)
    r2 = client.query_equality("docs", (4,), encrypt=False)
    assert client.window.pending == 2
    assert client.window.settled == 0
    r3 = client.query_range("docs", (16,), (31,), encrypt=False)
    assert client.window.pending == 0
    assert client.window.settled == 3
    assert sorted(r.value for r in r1 + r3) == env.truth["range"]
    assert [r.value for r in r2] == env.truth["equality"]


def test_explicit_flush_settles_and_empty_flush_is_noop(env):
    client = windowed_client(env, size=8)
    client.query_range("docs", (0,), (31,), encrypt=False)
    assert client.window.pending == 1
    assert client.flush_window() == 1
    assert client.window.pending == 0
    assert client.flush_window() == 0  # nothing deferred


def test_unwindowed_client_has_no_window(env):
    client = ResilientClient(
        env.user, LoopbackTransport(env.hardened.handle_frame),
        rng=random.Random(3),
    )
    assert client.window is None
    assert client.flush_window() == 0


def test_joins_bypass_the_window(env):
    client = windowed_client(env, size=4)
    pairs = sorted(
        (p.left.value, p.right.value)
        for p in client.query_join("R", "S", (0,), (15,))
    )
    assert pairs == env.truth["join"]
    assert client.window.pending == 0  # joins verify per response


def test_tampered_aps_caught_and_attributed(env):
    """Flush blames the forged response; its window-mates stay unnamed."""
    provider = env.server.provider
    window = VerificationWindow(env.user, size=10)
    clean = provider.range_query("docs", (0,), (15,), USER_ROLES,
                                 rng=random.Random(21))
    window.verify(clean)
    tampered = provider.range_query("docs", (16,), (31,), USER_ROLES,
                                    rng=random.Random(22))
    idxs = _inaccessible_indexes(tampered.vo)
    assert len(idxs) >= 2, "fixture must yield >=2 deferred APS checks"
    _swap_aps(tampered.vo, idxs[0], idxs[1])
    window.verify(tampered)  # structural checks still pass
    with pytest.raises(SoundnessError) as excinfo:
        window.flush()
    message = str(excinfo.value)
    assert "response #2" in message
    assert "response #1" not in message
    assert "region" in message
    assert window.failures == 1
    assert window.pending == 0  # the failed window is drained, not stuck


def test_tamper_caught_on_auto_flush_too(env):
    provider = env.server.provider
    window = VerificationWindow(env.user, size=2)
    tampered = provider.range_query("docs", (0,), (15,), USER_ROLES,
                                    rng=random.Random(23))
    idxs = _inaccessible_indexes(tampered.vo)
    _swap_aps(tampered.vo, idxs[0], idxs[1])
    window.verify(tampered)  # provisional: forged but structurally sound
    clean = provider.range_query("docs", (16,), (31,), USER_ROLES,
                                 rng=random.Random(24))
    with pytest.raises(SoundnessError, match="response #1"):
        window.verify(clean)  # second arrival fills the window


def test_structural_tamper_still_fails_eagerly(env):
    """Completeness violations are not deferrable."""
    provider = env.server.provider
    window = VerificationWindow(env.user, size=5)
    resp = provider.range_query("docs", (0,), (31,), USER_ROLES,
                                rng=random.Random(25))
    resp.vo.entries.pop()  # break the tiling
    with pytest.raises(ReproError):
        window.verify(resp)
    assert window.pending == 0  # a rejected response leaves no obligations
