"""Crash-consistent live ingest: DO→SP update replication + epoch rotation.

The paper's protocol signs a static database; :mod:`repro.index.updates`
made the DO's copy dynamic.  This module replicates those updates to the
serving SPs without ever letting a crash, a duplicated delivery, or a
half-applied batch corrupt what a verifying client can observe:

* :class:`UpdatePublisher` — DO side.  Each ``upsert``/``delete``
  re-signs one root-to-leaf path; the publisher captures the re-signed
  nodes from the :class:`~repro.index.updates.UpdateReceipt` as
  :class:`~repro.core.persistence.NodeReplacement` frames and streams
  them to every attached SP under a monotonic per-table sequence number.
  ``rotate()`` closes the epoch: it signs a fresh freshness token and
  ships it as the commit record.  Per-endpoint acked cursors give exact
  catch-up replay after partitions — no endpoint is ever "too far
  behind" to resync.

* :class:`ServerIngest` — SP side.  Every frame travels in a DO-signed
  :class:`~repro.core.messages.IngestEnvelope`; the SP authenticates it
  against the DO's verification key, *validates it end to end* (the
  replacement path grafts, the token parses), then appends the frame to
  a CRC-framed fsync'd :class:`~repro.core.persistence.UpdateJournal`
  and only then mutates memory.  Validate → journal → apply means the
  journal can never hold a decodable-but-unappliable entry that would
  wedge every future recovery, while the visible state change still
  happens strictly after the write-ahead point.  Updates land on a
  *staging* tree built by path-copying (the serving tree is never
  mutated) and become visible only at the ROT commit record, which
  swaps ``(tree, token)`` through
  :meth:`ServiceProvider.install_table` — one atomic point, so queries
  can never observe a half-applied epoch or a token/tree mismatch.
  Cold start = restore the last checkpoint, replay the journal;
  sequence numbers make replay idempotent.

* :class:`FreshnessGuard` — client side.  Wraps a
  :class:`~repro.core.system.QueryUser` so every verified answer also
  proves its epoch is within ``max_age`` of the DO's current epoch; a
  genuinely-signed-but-old token raises
  :class:`~repro.errors.StaleEpochError`, which the cluster layer treats
  as a lagging replica (degraded, catch-up) — not Byzantine tampering.

Failure injection for the chaos drills rides on :func:`arm_failpoint`
hooks that raise :class:`SimulatedCrashError` at the worst possible
instants (after journal append, before apply; mid-checkpoint), which
:class:`~repro.net.chaos.ChaosEndpoint` converts into a crash+restart.
"""

from __future__ import annotations

import hashlib
import os
import random
import threading
from collections import Counter
from dataclasses import dataclass, field, replace as dc_replace
from typing import Dict, Optional

from repro.core.freshness import (
    FreshnessToken,
    issue_token,
    sign_ingest_payload,
    verify_ingest_payload,
    verify_token,
)
from repro.core.messages import (
    ErrorResponse,
    IngestAck,
    IngestEnvelope,
    ROTATE_MAGIC,
    RotateFrame,
    UPDATE_MAGIC,
    UpdateFrame,
    is_error_frame,
)
from repro.core.persistence import (
    NodeReplacement,
    UpdateJournal,
    read_ingest_state,
    read_publisher_state,
    replacement_from_node,
    write_ingest_state,
    write_publisher_state,
)
from repro.core.records import Record
from repro.errors import (
    DeserializationError,
    ReproError,
    TransportError,
    VerificationError,
    WorkloadError,
)
from repro.index import updates as _updates
from repro.index.boxes import Point
from repro.index.gridtree import APGTree, IndexNode
from repro.net.client import _control_exchange, _request_id
from repro.obs import logging as _obslog
from repro.obs import metrics as _metrics

_LOG = _obslog.get_logger("ingest")
_REG = _metrics.registry()
_M_INGEST = _REG.counter(
    "repro_ingest_frames_total",
    "DO->SP ingest frames processed by outcome.",
    labelnames=("outcome",),
)
_M_ROTATIONS = _REG.counter(
    "repro_ingest_rotations_total", "Epoch rotations committed on the SP.",
)
_M_CHECKPOINTS = _REG.counter(
    "repro_ingest_checkpoints_total",
    "Ingest checkpoints (snapshot + journal truncation) taken.",
)
_M_REPLAYED = _REG.counter(
    "repro_ingest_replayed_total", "Journal entries replayed at cold start.",
)
_M_REPAIRS = _REG.counter(
    "repro_ingest_torn_tails_repaired_total",
    "Cleanly torn journal tails truncated during recovery (explicit opt-in).",
)
_M_JOURNAL_BYTES = _REG.gauge(
    "repro_ingest_journal_bytes", "Current size of the SP update journal.",
)
# A view over the live publishers' stats records (and the records of
# collected publishers), read when scraped.
_PUBLISHERS = _metrics.Census((
    _metrics.COUNTER, "repro_ingest_push_total",
    "DO-side replication pushes by ack status.", ("status",),
    lambda stats: stats.pushes_by_status,
))


class SimulatedCrashError(Exception):
    """A chaos failpoint fired: the process 'loses power' here.

    Deliberately *not* a :class:`~repro.errors.ReproError`: the server's
    error containment must not convert it into a polite error frame —
    it propagates out of the frame loop like a real crash would, and
    :class:`~repro.net.chaos.ChaosEndpoint` turns it into a crash.
    """


# ---------------------------------------------------------------------------
# Functional graft: apply a signed replacement path without mutating the tree
# ---------------------------------------------------------------------------

def apply_replacements(
    tree: APGTree, replacements: tuple[NodeReplacement, ...]
) -> APGTree:
    """A new tree with the replacement path grafted in (path-copy).

    ``replacements`` are ordered root→leaf; the last one must be the
    unit-cell leaf (point box, record attached).  Nodes *off* the path
    are shared with the input tree, so the swap in
    :meth:`ServiceProvider.install_table` is O(depth) memory and the old
    tree keeps serving in-flight queries unchanged.  A replacement whose
    box is not on the root-to-leaf path of the updated key is rejected —
    that is a malformed (or forged) frame, not a tree problem.
    """
    if not replacements:
        raise DeserializationError("empty replacement set")
    leaf_rep = replacements[-1]
    if not leaf_rep.box.is_point or leaf_rep.record is None:
        raise DeserializationError(
            "last replacement must be a unit-cell leaf carrying a record"
        )
    by_box = {rep.box: rep for rep in replacements}
    if len(by_box) != len(replacements):
        raise DeserializationError("duplicate boxes in replacement set")
    key = leaf_rep.box.lo
    applied: set = set()
    sig_delta = 0
    real_delta = 0

    def graft(node: IndexNode) -> IndexNode:
        nonlocal sig_delta, real_delta
        rep = by_box.get(node.box)
        if node.is_leaf:
            if rep is None:
                raise DeserializationError(
                    f"replacement path does not reach the leaf for key {key}"
                )
            applied.add(node.box)
            sig_delta += rep.signature.byte_size() - node.signature.byte_size()
            old_real = node.record is not None and not node.record.is_pseudo
            new_real = rep.record is not None and not rep.record.is_pseudo
            real_delta += int(new_real) - int(old_real)
            return IndexNode(
                box=node.box, policy=rep.policy, signature=rep.signature,
                children=(), record=rep.record,
            )
        children = tuple(
            graft(child) if child.box.contains_point(key) else child
            for child in node.children
        )
        if rep is not None:
            applied.add(node.box)
            sig_delta += rep.signature.byte_size() - node.signature.byte_size()
            return IndexNode(
                box=node.box, policy=rep.policy, signature=rep.signature,
                children=children, record=node.record,
            )
        return IndexNode(
            box=node.box, policy=node.policy, signature=node.signature,
            children=children, record=node.record,
        )

    new_root = graft(tree.root)
    if len(applied) != len(by_box):
        missing = sorted(str(b) for b in by_box.keys() - applied)
        raise DeserializationError(
            f"replacement box(es) not on the update path: {', '.join(missing)}"
        )
    stats = dc_replace(
        tree.stats,
        num_real_records=tree.stats.num_real_records + real_delta,
        signature_bytes=tree.stats.signature_bytes + sig_delta,
    )
    return APGTree(root=new_root, domain=tree.domain, stats=stats)


# ---------------------------------------------------------------------------
# SP side: journal-backed apply + atomic rotation
# ---------------------------------------------------------------------------

def _decode_frame(group, payload: bytes):
    """Decode an ingest payload: an UPD frame, else a ROT frame (or raise)."""
    if payload[:4] == UPDATE_MAGIC:
        return UpdateFrame.from_bytes(group, payload)
    return RotateFrame.from_bytes(payload)


@dataclass
class TableIngestState:
    """Replication watermark for one table on one SP.

    ``applied_seq`` — highest contiguously applied sequence number
    (updates *and* rotations share the sequence).  ``committed_seq`` —
    the sequence of the last ROT commit; everything in
    ``(committed_seq, applied_seq]`` lives on the staging tree and is
    invisible to queries.  ``staging`` — the path-copied tree
    accumulating the next epoch, or ``None`` right after a rotation.
    """

    applied_seq: int = 0
    committed_seq: int = 0
    epoch: int = 0
    staging: Optional[APGTree] = None


class ServerIngest:
    """The SP's write-ahead ingest engine (journal → staging → commit).

    Wired into :class:`~repro.net.server.ResilientSPServer` so UPD/ROT
    payloads bypass query admission control (replication must land even
    on an overloaded server).  The discipline per frame:

    1. sequence check — ``seq <= applied`` acks ``duplicate``,
       ``seq > applied + 1`` acks ``gap`` (carrying the replay cursor),
       both answered from the watermark alone (no journal write, no
       state change), so duplicated or reordered delivery is idempotent
       by construction;
    2. authenticate — the envelope's DO signature over the frame bytes
       must verify, or the frame is dropped before it can touch journal
       or state (any reachable peer can *send* frames; only the DO's
       key admits them);
    3. validate — the replacement path must graft / the token must
       parse.  This runs *before* the journal append on a throwaway
       path-copy, so a frame that cannot be applied can never become a
       CRC-valid journal entry that wedges every future :meth:`recover`;
    4. journal append (fsync) — the write-ahead point;
    5. commit — UPD publishes the pre-built staging tree into the
       table's ingest state; ROT installs ``(staging tree, new token)``
       through the provider's one commit point and possibly checkpoints.

    A crash between 4 and 5 is exactly what :meth:`recover` repairs:
    restore the last checkpoint, replay the journal, skip duplicates.
    A crash between 3 and 4 loses only unacknowledged work the
    publisher re-pushes.
    """

    def __init__(
        self,
        provider,
        state_dir,
        journal_limit: int = 1 << 20,
        fsync: bool = True,
    ):
        self.provider = provider
        self.group = provider.group
        self.state_dir = os.fspath(state_dir)
        os.makedirs(self.state_dir, exist_ok=True)
        self.journal_limit = int(journal_limit)
        self.fsync = fsync
        self.states: Dict[str, TableIngestState] = {}
        self.checkpoints = 0
        self.deferred_checkpoints = 0
        self.replayed = 0
        self.duplicates = 0
        self.gaps = 0
        self.last_recovery: Optional[dict] = None
        self._failpoints: Dict[str, int] = {}
        self._lock = threading.Lock()
        self.journal = UpdateJournal(self.journal_path, fsync=fsync)
        _M_JOURNAL_BYTES.set(self.journal.size)

    @property
    def journal_path(self) -> str:
        return os.path.join(self.state_dir, "updates.journal")

    def state_path(self, table: str) -> str:
        # The filename is a *locator*, never an identity: the real table
        # name travels inside the state file's CRC-protected meta, and
        # the digest tag keeps distinct tables ("a/b" vs "a_b") from
        # colliding on one sanitized filename.
        safe = "".join(c if c.isalnum() or c in "._-@" else "_" for c in table)
        tag = hashlib.sha256(table.encode()).hexdigest()[:8]
        return os.path.join(self.state_dir, f"{safe}.{tag}.state")

    # -- failpoints ----------------------------------------------------------
    def arm_failpoint(self, name: str, count: int = 1) -> None:
        """Crash (raise :class:`SimulatedCrashError`) on the count-th hit."""
        self._failpoints[name] = int(count)

    def _hit_failpoint(self, name: str) -> None:
        remaining = self._failpoints.get(name)
        if remaining is None:
            return
        if remaining > 1:
            self._failpoints[name] = remaining - 1
            return
        del self._failpoints[name]
        raise SimulatedCrashError(f"failpoint {name!r} fired")

    # -- frame entry point ---------------------------------------------------
    def handle(self, payload: bytes) -> bytes:
        """Process one signed ingest envelope; returns the serialized ack."""
        with self._lock:
            if payload[:4] in (UPDATE_MAGIC, ROTATE_MAGIC):
                _M_INGEST.inc(outcome="unauthenticated")
                raise VerificationError(
                    "bare ingest frame rejected: UPD/ROT must arrive in a "
                    "DO-signed ingest envelope"
                )
            envelope = IngestEnvelope.from_bytes(payload)
            inner = envelope.payload
            decoded = _decode_frame(self.group, inner)
            ack = self._ingest(
                decoded.table, decoded.seq, decoded, inner,
                signature_bytes=envelope.signature_bytes,
            )
            return ack.to_bytes()

    def _state(self, table: str) -> TableIngestState:
        state = self.states.get(table)
        if state is None:
            view = self.provider.table_view(table)  # raises for unknown table
            epoch = view.freshness.epoch if view.freshness is not None else 0
            state = self.states[table] = TableIngestState(epoch=epoch)
        return state

    def _ingest(
        self, table, seq, decoded, payload,
        signature_bytes: bytes = b"", replay: bool = False,
    ) -> IngestAck:
        state = self._state(table)
        if seq <= state.applied_seq:
            # Answered from the watermark alone — no journal write, no
            # state change — so no signature check is needed here: a
            # spoofed duplicate learns only the watermark.
            if not replay:
                self.duplicates += 1
                _M_INGEST.inc(outcome="duplicate")
            return IngestAck(table, "duplicate", state.applied_seq, state.epoch)
        if seq > state.applied_seq + 1:
            if replay:
                raise DeserializationError(
                    f"journal gap for table {table!r}: entry seq {seq} after "
                    f"applied seq {state.applied_seq}"
                )
            self.gaps += 1
            _M_INGEST.inc(outcome="gap")
            return IngestAck(
                table, "gap", state.applied_seq, state.epoch,
                message=f"expected seq {state.applied_seq + 1}",
            )
        if not replay:
            # Authenticate before the frame can touch journal or state.
            # Journal entries were verified at append time, so replay
            # does not (and, key-less, could not re-)sign-check them.
            try:
                verify_ingest_payload(self.provider.authenticator, payload, signature_bytes)
            except VerificationError:
                _M_INGEST.inc(outcome="auth_failed")
                raise
        # Validate end to end on a throwaway path-copy *before* the
        # write-ahead append: a frame that decodes but cannot be applied
        # (replacements off the update path, garbage token bytes) must
        # be rejected here, not become a CRC-valid journal entry that
        # makes every future recover() fail.
        try:
            staged = self._prepare(state, decoded)
        except DeserializationError:
            if not replay:
                _M_INGEST.inc(outcome="rejected")
            raise
        if not replay:
            self._hit_failpoint("before_journal_append")
            self.journal.append(payload)
            _M_JOURNAL_BYTES.set(self.journal.size)
            self._hit_failpoint("after_journal_append")
        self._commit(state, decoded, staged, replay)
        if not replay:
            _M_INGEST.inc(outcome="applied")
        return IngestAck(table, "applied", state.applied_seq, state.epoch)

    def _prepare(self, state: TableIngestState, decoded):
        """Validate a frame and build its post-state, mutating nothing."""
        if isinstance(decoded, UpdateFrame):
            base = (
                state.staging if state.staging is not None
                else self.provider.tree(decoded.table)
            )
            return apply_replacements(base, decoded.replacements)
        # RotateFrame: parse the token now so garbage token bytes are
        # rejected pre-journal; the tree is whatever the epoch staged.
        token = (
            FreshnessToken.from_bytes(self.group, decoded.token_bytes)
            if decoded.token_bytes else None
        )
        tree = (
            state.staging if state.staging is not None
            else self.provider.tree(decoded.table)
        )
        return tree, token

    def _commit(self, state: TableIngestState, decoded, staged, replay: bool) -> None:
        if isinstance(decoded, UpdateFrame):
            state.staging = staged
            state.applied_seq = decoded.seq
            return
        # RotateFrame: the single commit point — tree and token together.
        tree, token = staged
        self.provider.install_table(decoded.table, tree, token)
        state.staging = None
        state.applied_seq = decoded.seq
        state.committed_seq = decoded.seq
        state.epoch = decoded.epoch
        _M_ROTATIONS.inc()
        _LOG.info(
            "epoch_rotated", table=decoded.table, epoch=decoded.epoch,
            seq=decoded.seq, replay=replay,
        )
        if not replay:
            self._maybe_checkpoint()

    # -- checkpoint ----------------------------------------------------------
    def _maybe_checkpoint(self) -> None:
        if self.journal.size < self.journal_limit:
            return
        if any(s.staging is not None for s in self.states.values()):
            # Another table is mid-epoch; truncating now would orphan its
            # staged-but-uncommitted journal entries.  Retry next rotation.
            self.deferred_checkpoints += 1
            return
        self.checkpoint()

    def checkpoint(self) -> None:
        """Snapshot every table's ingest state, then truncate the journal.

        Refuses (loudly) while any table is mid-epoch: the journal is
        shared, and truncating it would orphan that table's
        staged-but-uncommitted entries in ``(committed_seq,
        applied_seq]`` — a subsequent crash could then only heal through
        the publisher's log.  :meth:`_maybe_checkpoint` defers instead
        of raising; a direct caller gets the same guard.

        Write order matters: all state files land (atomic rename + dir
        fsync each) *before* the journal is truncated.  A crash between
        the two leaves already-checkpointed entries in the journal; the
        sequence check skips them as duplicates on replay.
        """
        staged = sorted(
            table for table, state in self.states.items()
            if state.staging is not None
        )
        if staged:
            raise WorkloadError(
                f"cannot checkpoint while table(s) "
                f"{', '.join(repr(t) for t in staged)} are mid-epoch: "
                f"truncating the journal would orphan their uncommitted entries"
            )
        for table, state in self.states.items():
            view = self.provider.table_view(table)
            token_bytes = (
                view.freshness.to_bytes() if view.freshness is not None else b""
            )
            write_ingest_state(
                self.state_path(table), table, view.tree,
                state.committed_seq, state.epoch, token_bytes,
            )
        self._hit_failpoint("before_journal_truncate")
        self.journal.truncate()
        _M_JOURNAL_BYTES.set(self.journal.size)
        self.checkpoints += 1
        _M_CHECKPOINTS.inc()
        _LOG.info("ingest_checkpoint", tables=len(self.states))

    # -- cold start ----------------------------------------------------------
    def recover(self, repair_torn_tail: bool = False) -> dict:
        """Restore checkpoints, then replay the journal atop them.

        Returns a report dict (tables restored, entries replayed, torn
        offset repaired).  A torn journal tail raises the journal's
        offset-precise error unless ``repair_torn_tail=True`` — repair
        is an explicit operator decision, never a silent default.
        """
        with self._lock:
            restored = []
            for fname in sorted(os.listdir(self.state_dir)):
                if not fname.endswith(".state"):
                    continue
                # The table name comes from the file's CRC-protected
                # meta, never from the (sanitized, lossy) filename.
                table, tree, applied_seq, epoch, token_bytes = read_ingest_state(
                    self.group, os.path.join(self.state_dir, fname)
                )
                token = (
                    FreshnessToken.from_bytes(self.group, token_bytes)
                    if token_bytes else None
                )
                self.provider.install_table(table, tree, token)
                self.states[table] = TableIngestState(
                    applied_seq=applied_seq, committed_seq=applied_seq,
                    epoch=epoch,
                )
                restored.append(table)
            entries, torn = self.journal.recover_entries(repair_torn_tail)
            if torn is not None:
                _M_REPAIRS.inc()
                _LOG.warning("journal_tail_repaired", offset=torn)
            replayed = 0
            for payload in entries:
                decoded = _decode_frame(self.group, payload)
                ack = self._ingest(
                    decoded.table, decoded.seq, decoded, payload, replay=True
                )
                if ack.status == "applied":
                    replayed += 1
            self.replayed += replayed
            if replayed:
                _M_REPLAYED.inc(replayed)
            _M_JOURNAL_BYTES.set(self.journal.size)
            _LOG.info(
                "ingest_recovered", tables=restored, replayed=replayed,
                repaired_offset=torn,
            )
            self.last_recovery = {
                "tables": restored,
                "replayed": replayed,
                "repaired_offset": torn,
            }
            return self.last_recovery

    # -- out-of-band re-seed -------------------------------------------------
    def bootstrap(
        self,
        table: str,
        tree: APGTree,
        seq: int,
        epoch: int,
        token: Optional[FreshnessToken],
    ) -> None:
        """Re-seed one table from a snapshot transfer, watermark included.

        The operator's answer to "this replica needs entries the
        publisher has compacted away": install the DO's current tree and
        token, set the replication watermark to the seq the snapshot
        embodies, and persist the checkpoint so the watermark survives a
        restart.  Incremental replication resumes from ``seq + 1``.
        """
        with self._lock:
            self.provider.install_table(table, tree, token)
            self.states[table] = TableIngestState(
                applied_seq=int(seq), committed_seq=int(seq), epoch=int(epoch),
            )
            token_bytes = token.to_bytes() if token is not None else b""
            write_ingest_state(
                self.state_path(table), table, tree, int(seq), int(epoch),
                token_bytes,
            )
            _LOG.info("ingest_bootstrapped", table=table, seq=seq, epoch=epoch)

    def close(self) -> None:
        self.journal.close()


# ---------------------------------------------------------------------------
# DO side: replication publisher with per-endpoint catch-up replay
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class PublisherStats:
    """One publisher's lifetime counts.

    Each push exchange is counted once, by its ack status
    (``applied`` / ``duplicate`` / ``gap``), ``error`` for a transport
    failure, or ``probe`` for a watermark probe.  ``stalls`` counts gap
    acks that made no progress.  ``pushes`` (every status) and
    ``push_failures`` (errors plus stalls) are read-only sums.
    """

    pushes_by_status: Counter = field(default_factory=Counter)
    stalls: int = 0
    rewinds: int = 0
    rotations: int = 0
    compactions: int = 0

    pushes = property(lambda self: sum(self.pushes_by_status.values()))
    push_failures = property(
        lambda self: self.pushes_by_status["error"] + self.stalls
    )


class UpdatePublisher:
    """DO-side update stream for one table, fanned out to many SPs.

    Local applies go through :mod:`repro.index.updates` (the DO's
    authoritative signed tree); the re-signed path from each receipt is
    encoded root→leaf as an :class:`~repro.core.messages.UpdateFrame`,
    wrapped in a DO-signed :class:`~repro.core.messages.IngestEnvelope`
    (the SP authenticates the control plane against ``mvk``), and
    appended to an in-memory payload log.  ``push`` walks each
    endpoint's acked cursor forward through that log, so an endpoint
    that was partitioned through any number of updates *and rotations*
    catches up by replay the moment it is reachable — the ``gap`` ack
    rewinds the cursor to the SP's actual watermark (e.g. after the SP
    restarted from an older checkpoint).

    ``state_path`` makes the sequence cursor durable: ``(seq, epoch)``
    is persisted (atomic rename + dir fsync) before any SP can ack a
    new entry, and restored on construction — a publisher restarted
    without it would re-issue already-applied sequence numbers, every
    new update would ack ``duplicate``, and replication would silently
    stall (the SPs stuck on the old epoch).  :meth:`push` additionally
    refuses, loudly, to serve an endpoint whose watermark exceeds the
    local ``seq``.

    The payload log is the catch-up store, so it is retained in full by
    default ("no endpoint is ever too far behind to resync"); call
    :meth:`compact` to trade healing depth for bounded memory once
    every endpoint has acked.
    """

    def __init__(
        self,
        signer,
        table: str,
        tree: APGTree,
        epoch: int = 1,
        rng: Optional[random.Random] = None,
        state_path=None,
    ):
        self.signer = signer
        self.table = table
        self.tree = tree
        self.epoch = int(epoch)
        self.rng = rng if rng is not None else random.Random()
        self.state_path = os.fspath(state_path) if state_path is not None else None
        self.seq = 0
        #: Sequence number of the entry *before* ``log[0]``: ``log[i]``
        #: carries seq ``log_base + i + 1``.  Non-zero after
        #: :meth:`compact` or a restart from ``state_path`` (the
        #: pre-restart payloads are not replayable from this process).
        self.log_base = 0
        self.log: list[bytes] = []
        self.endpoints: Dict[str, object] = {}
        self.acked: Dict[str, int] = {}
        self.stats = PublisherStats()
        _PUBLISHERS.enroll(self, self.stats)
        self.current_token: Optional[FreshnessToken] = None
        if self.state_path is not None and os.path.exists(self.state_path):
            self.seq, self.epoch = read_publisher_state(self.state_path)
            self.log_base = self.seq

    def issue_current_token(self) -> FreshnessToken:
        """Sign (and remember) a token for the current epoch."""
        self.current_token = issue_token(
            self.signer, self.table, self.epoch, self.rng
        )
        return self.current_token

    def attach(self, name: str, transport) -> None:
        """Register an SP endpoint; its cursor starts at 0 (full replay)."""
        self.endpoints[name] = transport
        self.acked.setdefault(name, 0)

    # -- local apply + stage -------------------------------------------------
    def upsert(self, record: Record) -> _updates.UpdateReceipt:
        receipt = _updates.upsert(
            self.tree, self.signer, record, self.rng, epoch=self.epoch
        )
        self._stage(UpdateFrame(
            table=self.table, seq=self._next_seq(), kind=receipt.kind,
            epoch=self.epoch, replacements=self._replacements(receipt),
        ).to_bytes())
        return receipt

    def delete(self, key: Point) -> _updates.UpdateReceipt:
        receipt = _updates.delete(
            self.tree, self.signer, key, self.rng, epoch=self.epoch
        )
        self._stage(UpdateFrame(
            table=self.table, seq=self._next_seq(), kind=receipt.kind,
            epoch=self.epoch, replacements=self._replacements(receipt),
        ).to_bytes())
        return receipt

    def rotate(self) -> FreshnessToken:
        """Close the epoch: sign the next token and ship the commit record."""
        self.epoch += 1
        token = self.issue_current_token()
        self._stage(RotateFrame(
            table=self.table, seq=self._next_seq(), epoch=self.epoch,
            token_bytes=token.to_bytes(),
        ).to_bytes())
        self.stats.rotations += 1
        return token

    @staticmethod
    def _replacements(receipt) -> tuple[NodeReplacement, ...]:
        # Receipts list re-signed nodes leaf-first; the wire order is
        # root→leaf (the graft order).
        return tuple(
            replacement_from_node(node)
            for node in reversed(receipt.resigned_path)
        )

    def _next_seq(self) -> int:
        self.seq += 1
        return self.seq

    def _stage(self, payload: bytes) -> None:
        envelope = IngestEnvelope(
            payload=payload,
            signature_bytes=sign_ingest_payload(self.signer, payload, self.rng),
        )
        self.log.append(envelope.to_bytes())
        # Durable cursor *before* any SP can ack the new seq: after a
        # crash the restarted publisher must never believe an SP's
        # watermark is "from the future".
        if self.state_path is not None:
            write_publisher_state(self.state_path, self.seq, self.epoch)
        self.push_all()

    # -- replication ---------------------------------------------------------
    def lag(self, name: str) -> int:
        return self.seq - self.acked.get(name, 0)

    def push_all(self) -> Dict[str, bool]:
        return {name: self.push(name) for name in self.endpoints}

    def compact(self) -> int:
        """Drop log entries every attached endpoint has acked; returns count.

        Explicit rather than automatic: the retained log doubles as the
        catch-up store for endpoints that later rewind *below* their own
        ack (a torn journal tail, a cold replacement with an empty state
        dir), so the operator chooses when bounded memory wins over
        healing depth.  An endpoint that needs a compacted-away entry
        gets a loud re-bootstrap error from :meth:`push` — never a
        silent stall — and recovers via
        :meth:`ServerIngest.bootstrap`.
        """
        if not self.endpoints:
            return 0
        floor = min(self.acked.get(name, 0) for name in self.endpoints)
        drop = floor - self.log_base
        if drop <= 0:
            return 0
        del self.log[:drop]
        self.log_base = floor
        self.stats.compactions += 1
        return drop

    def push(self, name: str) -> bool:
        """Drain one endpoint's backlog; True when it is fully caught up.

        Raises :class:`~repro.errors.ReproError` in two unrecoverable
        states that must never degrade into a silent stall: the endpoint
        acks a watermark *beyond* this publisher's ``seq`` (our cursor
        state was lost — publishing would mint colliding sequence
        numbers), or the endpoint needs an entry below the compacted log
        (re-bootstrap it via :meth:`ServerIngest.bootstrap`).
        """
        transport = self.endpoints[name]
        cursor = self.acked.get(name, 0)
        # Bounded walk: each applied/duplicate strictly advances and gaps
        # only rewind once each, so a well-behaved SP terminates well
        # inside this budget; a Byzantine one cannot trap us in a loop.
        budget = 2 * (self.seq - cursor) + 4
        while cursor < self.seq and budget > 0:
            budget -= 1
            # A cursor below the retained log (publisher restart reset
            # acked to 0, or the log was compacted) first probes the SP's
            # true watermark before concluding it actually needs
            # compacted-away entries.
            probing = cursor < self.log_base
            try:
                ack = self._exchange(transport, self._watermark_probe() if probing
                                     else self.log[cursor - self.log_base])
            except (TransportError, DeserializationError) as exc:
                self.stats.pushes_by_status["error"] += 1
                _LOG.warning("push_failed", endpoint=name, error=str(exc))
                break
            self.stats.pushes_by_status["probe" if probing else ack.status] += 1
            if ack.applied_seq > self.seq:
                self.acked[name] = cursor
                raise ReproError(
                    f"endpoint {name!r} acked watermark {ack.applied_seq} beyond "
                    f"this publisher's seq {self.seq}: the publisher's cursor "
                    f"state was lost (restarted without its state_path?); "
                    f"refusing to publish colliding sequence numbers"
                )
            if probing:
                if ack.applied_seq < self.log_base:
                    self.acked[name] = ack.applied_seq
                    raise ReproError(
                        f"endpoint {name!r} is at seq {ack.applied_seq} but the "
                        f"publisher log starts at seq {self.log_base + 1} "
                        f"(compacted or publisher restarted): re-seed the "
                        f"replica from a current snapshot "
                        f"(ServerIngest.bootstrap) and re-attach it"
                    )
                cursor = ack.applied_seq
            elif ack.status in ("applied", "duplicate"):
                if ack.applied_seq <= cursor:
                    break  # no progress; don't spin
                cursor = ack.applied_seq
            else:  # gap: rewind to the SP's watermark and replay forward
                if ack.applied_seq >= cursor:
                    self.stats.stalls += 1
                    break
                self.stats.rewinds += 1
                cursor = ack.applied_seq
        self.acked[name] = cursor
        return cursor >= self.seq

    def _watermark_probe(self) -> bytes:
        """An intentionally out-of-sequence ROT whose gap ack reveals the
        SP's watermark without touching its journal or state.

        ``seq + 2`` can never be next-in-sequence for an honest SP (its
        watermark is at most our ``seq``), so the frame is answered from
        the sequence check alone — which is also why it needs no
        signature.  An SP *beyond* ``seq + 1`` acks ``duplicate``; either
        way ``applied_seq`` carries the watermark.
        """
        probe = RotateFrame(
            table=self.table, seq=self.seq + 2, epoch=self.epoch,
            token_bytes=b"",
        )
        return IngestEnvelope(
            payload=probe.to_bytes(), signature_bytes=b""
        ).to_bytes()

    def _exchange(self, transport, payload: bytes) -> IngestAck:
        body = _control_exchange(
            transport, _request_id(self.rng), payload, "ingest ack"
        )
        if is_error_frame(body):
            error = ErrorResponse.from_bytes(body)
            raise TransportError(
                f"SP rejected ingest [{error.code}]: {error.message}"
            )
        return IngestAck.from_bytes(body)


# ---------------------------------------------------------------------------
# Client side: bound the age of every verified answer
# ---------------------------------------------------------------------------

class FreshnessGuard:
    """Verify wrapper: every accepted answer proves a recent-enough epoch.

    ``now_epoch`` is a callable returning the DO's current epoch (in the
    drills, the publisher's counter; in production, an out-of-band feed).
    The token check runs *before* the proof check so staleness is
    classified first — :class:`~repro.errors.StaleEpochError` (a lagging
    replica, degraded) instead of a generic verification failure.
    """

    def __init__(self, user, table: str, now_epoch, max_age: int = 1):
        self.user = user
        self.table = table
        self.now_epoch = now_epoch
        self.max_age = int(max_age)
        self.last_epoch: Optional[int] = None
        self.checked = 0

    @property
    def group(self):
        return self.user.group

    @property
    def roles(self):
        return self.user.roles

    def verify(self, response) -> list[Record]:
        token = getattr(response, "freshness", None)
        if token is None:
            raise VerificationError(
                f"response for table {self.table!r} carries no freshness token"
            )
        verify_token(
            self.user.authenticator, token, now_epoch=int(self.now_epoch()),
            max_age=self.max_age, expected_tree_id=self.table,
        )
        records = self.user.verify(response)
        self.last_epoch = token.epoch
        self.checked += 1
        return records
