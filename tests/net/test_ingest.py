"""Crash-consistent live ingest: replication, journal recovery, rotation.

Covers the DO→SP update stream end to end: idempotence under duplicated
and reordered delivery, atomic epoch visibility, crash-mid-apply replay,
torn-tail repair, checkpoint restarts, catch-up after gaps, and the
client-side freshness bound (stale = degraded, never Byzantine).
"""

import random

import pytest

from repro import obs
from repro.core.freshness import sign_ingest_payload
from repro.core.messages import (
    INGEST_ACK_MAGIC,
    IngestAck,
    IngestEnvelope,
    RotateFrame,
    SPServer,
    UpdateFrame,
)
from repro.core.persistence import serialize_tree, snapshot_tree
from repro.core.range_query import clip_query, range_vo
from repro.core.records import Dataset, Record
from repro.core.system import DataOwner, QueryUser, ServiceProvider
from repro.core.verifier import verify_vo
from repro.crypto import simulated
from repro.errors import (
    DeserializationError,
    StaleEpochError,
    TransportError,
    VerificationError,
)
from repro.index.boxes import Domain
from repro.net import (
    FreshnessGuard,
    LoopbackTransport,
    ResilientSPServer,
    ServerIngest,
    SimulatedCrashError,
    UpdatePublisher,
    apply_replacements,
    frame,
    is_tamper_error,
    unframe,
)
from repro.obs.metrics import registry
from repro.policy.boolexpr import parse_policy
from repro.policy.roles import RoleUniverse

POLICY = "analyst or manager"


def build_env(tmp_path, group=None, journal_limit=1 << 20, fsync=False,
              publisher_state=None):
    """One DO publisher replicating to one journal-backed SP."""
    rng = random.Random(8200)
    group = group if group is not None else simulated()
    universe = RoleUniverse(["analyst", "manager"])
    owner = DataOwner(group, universe, rng=rng)
    dataset = Dataset(Domain.of((0, 15)))
    contents = {}
    for key in (1, 4, 9):
        value = f"seed-{key}".encode()
        dataset.add(Record((key,), value, parse_policy(POLICY)))
        contents[(key,)] = value
    tree = owner.build_tree(dataset)
    snapshot = snapshot_tree(tree)

    publisher = UpdatePublisher(
        owner.signer, "docs", tree, epoch=1, rng=random.Random(8201),
        state_path=publisher_state,
    )
    token = publisher.issue_current_token()

    def make_server():
        provider = ServiceProvider.from_snapshots(
            group, universe, owner.mvk, owner.cpabe_public, {"docs": snapshot}
        )
        provider.set_freshness_token("docs", token)
        return ResilientSPServer(SPServer(provider, rng=random.Random(8202)))

    server = make_server()
    server.ingest = ServerIngest(
        server.server.provider, tmp_path, journal_limit=journal_limit,
        fsync=fsync,
    )
    publisher.attach("sp0", LoopbackTransport(server.handle_frame))

    user = QueryUser(group, universe, owner.register_user(["analyst"]))
    guard = FreshnessGuard(
        user, "docs", lambda: publisher.epoch, max_age=1
    )
    return {
        "rng": rng,
        "group": group,
        "owner": owner,
        "publisher": publisher,
        "server": server,
        "make_server": make_server,
        "user": user,
        "guard": guard,
        "contents": contents,
    }


def signed_envelope(env, frame_obj) -> bytes:
    """Wrap a hand-built UPD/ROT frame the way the publisher would."""
    payload = frame_obj.to_bytes()
    return IngestEnvelope(
        payload=payload,
        signature_bytes=sign_ingest_payload(env["owner"].signer, payload),
    ).to_bytes()


def logged_update(env, entry: bytes) -> UpdateFrame:
    """Decode the UPD frame inside one of the publisher's log envelopes."""
    return UpdateFrame.from_bytes(
        env["group"], IngestEnvelope.from_bytes(entry).payload
    )


def served_records(env, server=None):
    server = server if server is not None else env["server"]
    provider = server.server.provider
    response = provider.range_query(
        "docs", (0,), (15,), env["user"].roles,
        rng=random.Random(8203), encrypt=False,
    )
    return response, sorted(
        (tuple(r.key), r.value) for r in env["user"].verify(response)
    )


def reattach(env, server):
    """Point the publisher's transport at a (possibly rebuilt) server."""
    env["server"] = server
    env["publisher"].endpoints["sp0"] = LoopbackTransport(server.handle_frame)


# ---------------------------------------------------------------------------
# Replication + atomic rotation
# ---------------------------------------------------------------------------

def test_updates_invisible_until_rotation_then_all_visible(tmp_path):
    env = build_env(tmp_path)
    pub = env["publisher"]
    pub.upsert(Record((2,), b"new", parse_policy(POLICY)))
    pub.delete((9,))
    assert pub.lag("sp0") == 0  # replicated synchronously

    # Pre-rotation: the SP serves the old epoch, byte-for-byte.
    _, records = served_records(env)
    assert records == sorted((k, v) for k, v in env["contents"].items())

    pub.rotate()
    _, records = served_records(env)
    expected = dict(env["contents"])
    expected[(2,)] = b"new"
    del expected[(9,)]
    assert records == sorted(expected.items())

    # The served epoch advanced with the tree — one atomic swap.
    response, _ = served_records(env)
    assert response.freshness.epoch == pub.epoch == 2
    assert env["guard"].verify(response)


def test_rotation_swaps_tree_and_token_together(tmp_path):
    env = build_env(tmp_path)
    pub = env["publisher"]
    pub.upsert(Record((7,), b"draft", parse_policy(POLICY)))
    # Mid-epoch the SP must not serve the new tree under the old token,
    # nor a new token over the old tree: both stay at epoch 1.
    response, records = served_records(env)
    assert response.freshness.epoch == 1
    assert ((7,), b"draft") not in records
    pub.rotate()
    response, records = served_records(env)
    assert response.freshness.epoch == 2
    assert ((7,), b"draft") in records


def test_served_tree_bytes_match_publisher_tree_after_rotation(tmp_path):
    env = build_env(tmp_path)
    pub = env["publisher"]
    pub.upsert(Record((3,), b"a", parse_policy(POLICY)))
    pub.upsert(Record((3,), b"b", parse_policy("manager")))
    pub.delete((1,))
    pub.rotate()
    sp_tree = env["server"].server.provider.tree("docs")
    assert serialize_tree(sp_tree) == serialize_tree(pub.tree)


# ---------------------------------------------------------------------------
# Sequence discipline: duplicates, reordering, gaps
# ---------------------------------------------------------------------------

def test_duplicate_and_reordered_delivery_is_idempotent(tmp_path):
    env = build_env(tmp_path)
    pub = env["publisher"]
    ingest = env["server"].ingest
    pub.upsert(Record((5,), b"v1", parse_policy(POLICY)))
    pub.upsert(Record((6,), b"v2", parse_policy(POLICY)))
    pub.rotate()

    # Redeliver the whole log, twice, in reverse order: every frame acks
    # duplicate, nothing is journaled twice, the tree is unchanged.
    before = env["server"].server.provider.tree("docs")
    appended = ingest.journal.appended
    for payload in list(reversed(pub.log)) * 2:
        ack = IngestAck.from_bytes(ingest.handle(payload))
        assert ack.status == "duplicate"
        assert ack.applied_seq == pub.seq
    assert ingest.journal.appended == appended
    assert ingest.duplicates == 2 * len(pub.log)
    assert env["server"].server.provider.tree("docs") is before


def test_out_of_order_future_frame_acks_gap_without_journaling(tmp_path):
    env = build_env(tmp_path)
    pub = env["publisher"]
    ingest = env["server"].ingest
    pub.upsert(Record((5,), b"v1", parse_policy(POLICY)))
    staged = logged_update(env, pub.log[-1])
    future = UpdateFrame(
        table="docs", seq=40, kind="upsert", epoch=1,
        replacements=staged.replacements,
    )
    appended = ingest.journal.appended
    ack = IngestAck.from_bytes(ingest.handle(signed_envelope(env, future)))
    assert ack.status == "gap"
    assert ack.applied_seq == 1
    assert "expected seq 2" in ack.message
    assert ingest.journal.appended == appended
    assert ingest.gaps == 1


def test_gap_ack_rewinds_publisher_cursor_for_catchup(tmp_path):
    env = build_env(tmp_path)
    pub = env["publisher"]
    pub.upsert(Record((2,), b"x", parse_policy(POLICY)))
    pub.rotate()
    # A cold SP replacement (fresh state dir) knows nothing: the
    # publisher's cursor says "fully acked", the SP's watermark says 0.
    fresh_dir = tmp_path / "replacement"
    replacement = env["make_server"]()
    replacement.ingest = ServerIngest(
        replacement.server.provider, fresh_dir, fsync=False
    )
    reattach(env, replacement)
    pub.upsert(Record((8,), b"y", parse_policy(POLICY)))
    pub.rotate()
    assert pub.lag("sp0") == 0
    assert pub.stats.rewinds >= 1
    _, records = served_records(env)
    assert ((2,), b"x") in records and ((8,), b"y") in records


class StallingSP:
    """A fake SP that acks every push ``gap`` at watermark 0: no progress."""

    def round_trip(self, request_frame: bytes) -> bytes:
        request_id, _ = unframe(request_frame)
        ack = IngestAck(table="docs", status="gap", applied_seq=0, epoch=1)
        return frame(request_id, ack.to_bytes())


class UnreachableSP:
    def round_trip(self, request_frame: bytes) -> bytes:
        raise TransportError("link down")


def test_push_accounting_counts_each_exchange_once_by_status(tmp_path):
    """Every push exchange has one status in ``repro_ingest_push_total``;
    the statuses sum to ``pushes``, and ``push_failures`` is the errors
    plus the gap acks that made no progress (stalls)."""
    previous = obs.set_enabled(True)
    try:
        obs.reset_for_tests()
        env = build_env(tmp_path)
        pub = env["publisher"]
        pub.attach("stuck", StallingSP())
        pub.attach("down", UnreachableSP())
        pub.upsert(Record((5,), b"v1", parse_policy(POLICY)))
        pub.rotate()
        family = registry().get("repro_ingest_push_total")
        statuses = {
            status: family.value(status=status)
            for status in ("applied", "duplicate", "gap", "error", "probe")
        }
        # Each staged entry is one applied push to sp0, one stalled gap
        # from the stuck SP and one error from the unreachable one.
        stalls = 2
        assert statuses == {
            "applied": 2, "duplicate": 0, "gap": stalls, "error": 2, "probe": 0,
        }
        assert sum(statuses.values()) == pub.stats.pushes == 6
        assert pub.stats.push_failures == statuses["error"] + stalls
        assert pub.lag("sp0") == 0 and pub.lag("stuck") == pub.lag("down") == 2
    finally:
        obs.set_enabled(previous)


# ---------------------------------------------------------------------------
# Crash, journal replay, torn tails, checkpoints
# ---------------------------------------------------------------------------

def test_crash_after_journal_append_recovers_by_replay(tmp_path):
    env = build_env(tmp_path)
    pub = env["publisher"]
    pub.upsert(Record((2,), b"ok", parse_policy(POLICY)))
    env["server"].ingest.arm_failpoint("after_journal_append")
    with pytest.raises(SimulatedCrashError):
        pub.upsert(Record((3,), b"lost?", parse_policy(POLICY)))

    # Cold start: same state dir, fresh provider from the original
    # snapshot.  The journaled-but-unapplied frame replays.
    env["server"].ingest.close()
    rebuilt = env["make_server"]()
    rebuilt.ingest = ServerIngest(
        rebuilt.server.provider, tmp_path, fsync=False
    )
    report = rebuilt.ingest.recover()
    assert report["replayed"] == 2
    assert report["repaired_offset"] is None
    reattach(env, rebuilt)

    pub.rotate()
    assert pub.lag("sp0") == 0
    _, records = served_records(env)
    assert ((3,), b"lost?") in records


def test_torn_tail_strict_raises_repair_recovers(tmp_path):
    import os

    env = build_env(tmp_path)
    pub = env["publisher"]
    pub.upsert(Record((2,), b"keep", parse_policy(POLICY)))
    pub.upsert(Record((3,), b"torn", parse_policy(POLICY)))
    env["server"].ingest.close()
    journal_path = tmp_path / "updates.journal"
    os.truncate(journal_path, journal_path.stat().st_size - 5)

    strict = env["make_server"]()
    strict.ingest = ServerIngest(strict.server.provider, tmp_path, fsync=False)
    with pytest.raises(DeserializationError, match="torn journal tail at offset"):
        strict.ingest.recover()
    strict.ingest.close()

    repaired = env["make_server"]()
    repaired.ingest = ServerIngest(
        repaired.server.provider, tmp_path, fsync=False
    )
    report = repaired.ingest.recover(repair_torn_tail=True)
    assert report["replayed"] == 1
    assert report["repaired_offset"] is not None
    reattach(env, repaired)

    # The repaired-away update is re-replicated via the gap/rewind path.
    pub.rotate()
    assert pub.lag("sp0") == 0
    _, records = served_records(env)
    assert ((2,), b"keep") in records and ((3,), b"torn") in records


def test_checkpoint_truncates_journal_and_restart_restores(tmp_path):
    env = build_env(tmp_path, journal_limit=1)  # checkpoint every rotation
    pub = env["publisher"]
    ingest = env["server"].ingest
    pub.upsert(Record((2,), b"v1", parse_policy(POLICY)))
    pub.rotate()
    assert ingest.checkpoints == 1
    assert ingest.journal.size == 5  # header only: entries truncated away
    pub.delete((4,))
    pub.rotate()
    assert ingest.checkpoints == 2

    # Cold start from the checkpoint alone (journal is empty): the tree,
    # watermark, and token all come back; no replay is needed.
    ingest.close()
    rebuilt = env["make_server"]()
    rebuilt.ingest = ServerIngest(
        rebuilt.server.provider, tmp_path, fsync=False
    )
    report = rebuilt.ingest.recover()
    assert report["tables"] == ["docs"]
    assert report["replayed"] == 0
    reattach(env, rebuilt)
    assert pub.push("sp0")  # duplicate-free: watermark survived the restart
    response, records = served_records(env)
    assert response.freshness.epoch == 3
    assert ((2,), b"v1") in records and ((4,), b"seed-4") not in records


def test_checkpoint_deferred_while_another_table_is_mid_epoch(tmp_path):
    env = build_env(tmp_path, journal_limit=1)
    pub = env["publisher"]
    ingest = env["server"].ingest
    # Hand-feed a second table an uncommitted update so a staging tree is
    # live when the first table rotates.
    provider = env["server"].server.provider
    provider.install_table("docs2", provider.tree("docs"), None)
    pub.upsert(Record((2,), b"v", parse_policy(POLICY)))
    # docs2 holds the same tree content, so the path grafts
    replacements = logged_update(env, pub.log[-1]).replacements
    ingest.handle(signed_envelope(env, UpdateFrame(
        table="docs2", seq=1, kind="upsert", epoch=1,
        replacements=replacements,
    )))
    assert ingest.states["docs2"].staging is not None
    pub.rotate()
    assert ingest.checkpoints == 0
    assert ingest.deferred_checkpoints >= 1
    # A *direct* checkpoint call hits the same guard, loudly: truncating
    # the shared journal now would orphan docs2's staged entries.
    from repro.errors import WorkloadError

    with pytest.raises(WorkloadError, match="mid-epoch"):
        ingest.checkpoint()
    # Committing the second table clears the deferral at its own rotation.
    ingest.handle(signed_envelope(env, RotateFrame(
        table="docs2", seq=2, epoch=2, token_bytes=b"",
    )))
    assert ingest.checkpoints == 1
    assert ingest.journal.size == 5  # truncated back to the bare header


# ---------------------------------------------------------------------------
# Freshness bound: stale is degraded, not Byzantine
# ---------------------------------------------------------------------------

def test_stale_epoch_raises_stale_not_tamper(tmp_path):
    env = build_env(tmp_path)
    pub = env["publisher"]
    guard = env["guard"]
    response, _ = served_records(env)
    assert guard.verify(response)

    # The DO rotates twice; the SP (detached here) misses both.
    pub.endpoints.clear()
    pub.rotate()
    pub.rotate()
    response, _ = served_records(env)
    with pytest.raises(StaleEpochError) as excinfo:
        guard.verify(response)
    assert "2 epochs old" in str(excinfo.value)
    assert not is_tamper_error(excinfo.value)
    # Plain verification errors (forgery-class) still classify as tamper.
    assert is_tamper_error(VerificationError("boom"))


def test_missing_freshness_token_fails_closed(tmp_path):
    env = build_env(tmp_path)
    env["server"].server.provider.set_freshness_token("docs", None)
    response, _ = served_records(env)
    with pytest.raises(VerificationError, match="no freshness token"):
        env["guard"].verify(response)


def test_guard_within_tolerance_accepts_and_records_epoch(tmp_path):
    env = build_env(tmp_path)
    pub = env["publisher"]
    pub.endpoints.clear()
    pub.rotate()  # SP now one epoch behind: within max_age=1
    response, _ = served_records(env)
    env["guard"].verify(response)
    assert env["guard"].last_epoch == 1
    assert env["guard"].checked == 1


# ---------------------------------------------------------------------------
# Graft validation: malformed replacement sets are rejected
# ---------------------------------------------------------------------------

def test_apply_replacements_rejects_malformed_sets(tmp_path):
    env = build_env(tmp_path)
    pub = env["publisher"]
    receipt = pub.upsert(Record((2,), b"v", parse_policy(POLICY)))
    good = logged_update(env, pub.log[-1]).replacements
    tree = env["server"].server.provider.tree("docs")

    with pytest.raises(DeserializationError, match="empty replacement"):
        apply_replacements(tree, ())
    with pytest.raises(DeserializationError, match="unit-cell leaf"):
        apply_replacements(tree, good[:-1])  # path without its leaf
    # A root-only path never reaches the leaf for the updated key.
    with pytest.raises(DeserializationError):
        apply_replacements(tree, (good[0],))
    assert len(receipt.resigned_path) == len(good)


# ---------------------------------------------------------------------------
# Control-plane authentication: only the DO's key admits UPD/ROT frames
# ---------------------------------------------------------------------------

def test_bare_unauthenticated_frame_rejected_without_state_change(tmp_path):
    env = build_env(tmp_path)
    ingest = env["server"].ingest
    provider = env["server"].server.provider
    env["publisher"].upsert(Record((2,), b"v", parse_policy(POLICY)))
    # A next-in-sequence ROT straight off the wire (no envelope): one
    # packet like this used to clear the serving token.
    naked = RotateFrame(table="docs", seq=2, epoch=9, token_bytes=b"")
    appended = ingest.journal.appended
    with pytest.raises(VerificationError, match="bare ingest frame"):
        ingest.handle(naked.to_bytes())
    assert ingest.journal.appended == appended
    assert ingest.states["docs"].applied_seq == 1
    assert provider.freshness_token("docs").epoch == 1
    # Through the server loop it degrades to a typed error frame.
    reply = env["server"].handle_frame(frame(b"\x07" * 16, naked.to_bytes()))
    _, body = unframe(reply)
    assert body[:4] != INGEST_ACK_MAGIC


def test_forged_envelope_signature_rejected_before_journal(tmp_path):
    env = build_env(tmp_path)
    ingest = env["server"].ingest
    provider = env["server"].server.provider
    env["publisher"].upsert(Record((2,), b"v", parse_policy(POLICY)))
    evil = RotateFrame(table="docs", seq=2, epoch=9, token_bytes=b"")
    # Genuine DO signature — but over different bytes: must not verify.
    stolen = sign_ingest_payload(env["owner"].signer, b"some other payload")
    appended = ingest.journal.appended
    with pytest.raises(VerificationError, match="does not verify"):
        ingest.handle(IngestEnvelope(
            payload=evil.to_bytes(), signature_bytes=stolen,
        ).to_bytes())
    assert ingest.journal.appended == appended
    assert ingest.states["docs"].applied_seq == 1
    assert provider.freshness_token("docs").epoch == 1


# ---------------------------------------------------------------------------
# Journal-poison prevention: validate before the write-ahead append
# ---------------------------------------------------------------------------

def test_unappliable_frame_never_poisons_journal(tmp_path):
    env = build_env(tmp_path)
    pub = env["publisher"]
    ingest = env["server"].ingest
    pub.upsert(Record((2,), b"v", parse_policy(POLICY)))
    good = logged_update(env, pub.log[-1]).replacements

    # Signed, decodable, next-in-sequence — but a root-only path can
    # never graft.  It must be rejected *before* the journal append, or
    # a CRC-valid-but-unappliable entry wedges every future recover().
    poison = UpdateFrame(
        table="docs", seq=2, kind="upsert", epoch=1, replacements=(good[0],),
    )
    appended = ingest.journal.appended
    with pytest.raises(DeserializationError):
        ingest.handle(signed_envelope(env, poison))
    assert ingest.journal.appended == appended
    assert ingest.states["docs"].applied_seq == 1

    # A ROT whose token bytes cannot parse is likewise rejected pre-journal.
    with pytest.raises(DeserializationError):
        ingest.handle(signed_envelope(env, RotateFrame(
            table="docs", seq=2, epoch=2, token_bytes=b"\xff" * 9,
        )))
    assert ingest.journal.appended == appended

    # The journal stayed clean: cold start replays it fine, and the
    # stream resumes (the SP never acked the poison, so nothing is lost).
    ingest.close()
    rebuilt = env["make_server"]()
    rebuilt.ingest = ServerIngest(rebuilt.server.provider, tmp_path, fsync=False)
    report = rebuilt.ingest.recover()
    assert report["replayed"] == 1
    reattach(env, rebuilt)
    pub.rotate()
    assert pub.lag("sp0") == 0
    _, records = served_records(env)
    assert ((2,), b"v") in records


# ---------------------------------------------------------------------------
# Publisher durability: cursor survives restarts, log compaction is loud
# ---------------------------------------------------------------------------

def test_publisher_cursor_durable_across_restart(tmp_path):
    state = tmp_path / "publisher.state"
    env = build_env(tmp_path, publisher_state=state)
    pub = env["publisher"]
    pub.upsert(Record((2,), b"v1", parse_policy(POLICY)))
    pub.rotate()
    assert (pub.seq, pub.epoch) == (2, 2)

    # "Restart" the DO: a fresh publisher over the same durable tree and
    # state path resumes the sequence and epoch instead of resetting —
    # a reset would make every new update ack "duplicate" and silently
    # stall replication on the old epoch.
    reborn = UpdatePublisher(
        env["owner"].signer, "docs", pub.tree, epoch=1,
        rng=random.Random(8207), state_path=state,
    )
    assert (reborn.seq, reborn.epoch) == (2, 2)
    assert reborn.log_base == 2  # pre-restart payloads are gone with the process
    reborn.current_token = pub.current_token
    reborn.attach("sp0", pub.endpoints["sp0"])

    # acked resets to 0 in memory; the watermark probe (not a blind
    # replay) discovers the SP is already at seq 2, then new updates
    # apply as genuinely new.
    reborn.upsert(Record((6,), b"after-restart", parse_policy(POLICY)))
    reborn.rotate()
    assert reborn.lag("sp0") == 0
    env["publisher"] = reborn
    response, records = served_records(env)
    assert ((6,), b"after-restart") in records
    assert response.freshness.epoch == 3


def test_amnesiac_publisher_refuses_to_publish_colliding_seqs(tmp_path):
    from repro.errors import ReproError

    env = build_env(tmp_path)
    pub = env["publisher"]
    pub.upsert(Record((2,), b"v1", parse_policy(POLICY)))
    pub.rotate()  # SP watermark now 2

    # A publisher restarted WITHOUT its durable cursor restarts at seq 0
    # and would re-issue seq 1 — the SP must not silently absorb it as a
    # duplicate; the publisher refuses the moment the watermark exceeds
    # its own seq.
    amnesiac = UpdatePublisher(
        env["owner"].signer, "docs", pub.tree, epoch=1,
        rng=random.Random(8208),
    )
    amnesiac.attach("sp0", pub.endpoints["sp0"])
    with pytest.raises(ReproError, match="watermark"):
        amnesiac.upsert(Record((3,), b"clash", parse_policy(POLICY)))


def test_compaction_bounds_log_and_bootstrap_heals_below_floor(tmp_path):
    from repro.core.persistence import restore_snapshot
    from repro.errors import ReproError

    env = build_env(tmp_path)
    pub = env["publisher"]
    pub.upsert(Record((2,), b"v1", parse_policy(POLICY)))
    pub.rotate()
    assert len(pub.log) == 2
    assert pub.compact() == 2  # sp0 acked everything
    assert pub.log == [] and pub.log_base == 2

    # Replication continues seamlessly above the floor.
    pub.upsert(Record((6,), b"v2", parse_policy(POLICY)))
    pub.rotate()
    assert pub.lag("sp0") == 0
    assert pub.compact() == 2

    # A cold replacement (empty state dir) now needs compacted-away
    # entries: push must raise the re-bootstrap error — a loud operator
    # signal, never a silent stall.
    fresh_dir = tmp_path / "replacement"
    replacement = env["make_server"]()
    replacement.ingest = ServerIngest(
        replacement.server.provider, fresh_dir, fsync=False
    )
    reattach(env, replacement)
    with pytest.raises(ReproError, match="re-seed"):
        pub.upsert(Record((8,), b"v3", parse_policy(POLICY)))

    # The prescribed repair: snapshot-transfer the DO's current tree +
    # token + watermark, then incremental replication resumes.
    replacement.ingest.bootstrap(
        "docs",
        restore_snapshot(env["group"], snapshot_tree(pub.tree)),
        pub.seq, pub.epoch, pub.current_token,
    )
    assert pub.push("sp0")
    pub.rotate()
    assert pub.lag("sp0") == 0
    _, records = served_records(env)
    assert ((6,), b"v2") in records and ((8,), b"v3") in records
    assert pub.stats.compactions == 2


def test_server_without_ingest_rejects_ingest_frames(tmp_path):
    env = build_env(tmp_path)
    pub = env["publisher"]
    bare = env["make_server"]()  # no .ingest wired
    reattach(env, bare)
    pub.upsert(Record((2,), b"v", parse_policy(POLICY)))
    assert pub.lag("sp0") == 1
    assert pub.stats.push_failures >= 1


def test_ingest_ack_roundtrip_and_error_paths(tmp_path):
    ack = IngestAck("docs", "gap", 7, 3, message="expected seq 8")
    decoded = IngestAck.from_bytes(ack.to_bytes())
    assert decoded == ack
    assert ack.to_bytes()[:4] == INGEST_ACK_MAGIC
    env = build_env(tmp_path)
    reply = env["server"].handle_frame(
        frame(b"\x00" * 16, b"UPD\x01garbage")
    )
    _, body = unframe(reply)
    assert body[:4] != INGEST_ACK_MAGIC  # typed error frame, not an ack


# ---------------------------------------------------------------------------
# Update → snapshot round trip: byte-identical VOs on both backends
# ---------------------------------------------------------------------------

def test_update_snapshot_roundtrip_vo_byte_identical(tmp_path, any_group):
    env = build_env(tmp_path, group=any_group)
    pub = env["publisher"]
    pub.upsert(Record((12,), b"fresh", parse_policy(POLICY)))
    pub.delete((4,))
    pub.rotate()

    # Replicated tree -> snapshot -> cold start: the restored tree's
    # serialization and its VOs are byte-identical to the publisher's.
    sp_tree = env["server"].server.provider.tree("docs")
    restored = ServiceProvider.from_snapshots(
        any_group, env["owner"].universe, env["owner"].mvk,
        env["owner"].cpabe_public, {"docs": snapshot_tree(sp_tree)},
    ).tree("docs")
    assert serialize_tree(restored) == serialize_tree(pub.tree)

    from repro.core.app_signature import AppAuthenticator

    roles = frozenset({"analyst"})
    query = clip_query(pub.tree, (0,), (15,))
    auth = AppAuthenticator(
        any_group, env["owner"].universe, env["owner"].mvk
    )
    vo_a = range_vo(pub.tree, auth, query, roles, random.Random(99))
    vo_b = range_vo(restored, auth, query, roles, random.Random(99))
    assert vo_a.to_bytes() == vo_b.to_bytes()
    records = verify_vo(vo_b, auth, clip_query(restored, (0,), (15,)), roles)
    values = sorted(r.value for r in records if not r.is_pseudo)
    assert b"fresh" in values and b"seed-4" not in values
