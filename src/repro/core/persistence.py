"""Serialization of outsourced state: signed trees, durable files, keys.

The DO signs the ADS once and ships it to the SP; in a deployment that
shipment is bytes on a wire or a file.  This module provides a compact,
self-contained binary format for a whole signed tree (AP2G or AP2kd —
the node structure is identical) plus the master verification key, so an
SP can be cold-started from a snapshot:

    blob = serialize_tree(tree)
    tree = deserialize_tree(group, blob)

Round-tripping preserves every signature bit, so queries and proofs over
a restored tree verify identically.

Every durable file — a snapshot, an ingest checkpoint, the publisher
cursor and the update journal — has one layout: a ``MAGIC(4)
VERSION(1)`` header followed by CRC-framed records::

    <magic:4> <version:1>                             file header
    ( JE <len:4> <payload:len> <crc32(payload):4> )*  records

One scanner reads them all and rejects damage with an offset-precise
:class:`~repro.errors.DeserializationError` (bad magic at offset 0,
unsupported version at offset 4, a torn record at its offset, stored vs
computed CRC over the exact payload span, trailing bytes).  The journal
alone may end in a cleanly torn record (:func:`scan_journal`); the other
files hold a fixed number of records and are written atomically (write
temp → fsync → rename → fsync directory).
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass
from typing import Optional, Union

from repro.abs.scheme import AbsSignature
from repro.codec import Reader, decode_frame, encode_bytes, encode_point
from repro.core.records import Record
from repro.crypto.group import BilinearGroup
from repro.errors import DeserializationError
from repro.index.boxes import Box, Domain
from repro.index.gridtree import APGTree, IndexNode, TreeStats
from repro.policy.boolexpr import parse_policy

_MAGIC = b"APPT\x01"


# ---------------------------------------------------------------------------
# Signed node content: one codec for tree nodes and node replacements
# ---------------------------------------------------------------------------

def _write_content(out: bytearray, box: Box, policy, signature: AbsSignature, record) -> None:
    out += encode_point(box.lo)
    out += encode_point(box.hi)
    out += encode_bytes(policy.to_string().encode())
    out += encode_bytes(signature.to_bytes())
    if record is not None:
        out += b"\x01"
        out += encode_point(record.key)
        out += encode_bytes(record.value)
        out += encode_bytes(record.policy.to_string().encode())
        out += b"\x01" if record.is_pseudo else b"\x00"
    else:
        out += b"\x00"


def _read_content(reader: Reader, group: BilinearGroup) -> tuple:
    """Inverse of :func:`_write_content`: ``(box, policy, signature, record)``."""
    lo = reader.take_point()
    hi = reader.take_point()
    policy = parse_policy(reader.take_str())
    signature = AbsSignature.from_bytes(group, reader.take_bytes())
    record = None
    if reader.take(1) == b"\x01":
        key = reader.take_point()
        value = reader.take_bytes()
        rec_policy = parse_policy(reader.take_str())
        is_pseudo = reader.take(1) == b"\x01"
        record = Record(key=key, value=value, policy=rec_policy, is_pseudo=is_pseudo)
    return Box(lo, hi), policy, signature, record


def _write_node(out: bytearray, node: IndexNode) -> None:
    _write_content(out, node.box, node.policy, node.signature, node.record)
    out += len(node.children).to_bytes(2, "big")
    for child in node.children:
        _write_node(out, child)


def _decode_node(reader: Reader, group: BilinearGroup) -> IndexNode:
    box, policy, signature, record = _read_content(reader, group)
    n_children = reader.take_int(2)
    children = tuple(_decode_node(reader, group) for _ in range(n_children))
    return IndexNode(
        box=box, policy=policy, signature=signature, children=children,
        record=record,
    )


def serialize_tree(tree: APGTree) -> bytes:
    """Encode a signed tree (structure + all signatures) to bytes."""
    out = bytearray(_MAGIC)
    out += bytes([tree.domain.dims])
    for lo, hi in tree.domain.bounds:
        out += lo.to_bytes(8, "big", signed=True)
        out += hi.to_bytes(8, "big", signed=True)
    _write_node(out, tree.root)
    return bytes(out)


def deserialize_tree(group: BilinearGroup, data: bytes) -> APGTree:
    """Restore a signed tree; statistics are recomputed from the content."""
    with decode_frame(data, "serialized tree", _MAGIC) as reader:
        dims = reader.take(1)[0]
        bounds = []
        for _ in range(dims):
            lo = reader.take_int(8, signed=True)
            hi = reader.take_int(8, signed=True)
            bounds.append((lo, hi))
        domain = Domain(tuple(bounds))
        root = _decode_node(reader, group)
    stats = TreeStats()
    stack = [root]
    while stack:
        node = stack.pop()
        stats.num_nodes += 1
        stats.signature_bytes += node.signature.byte_size()
        stats.structure_bytes += node.structure_bytes()
        if node.is_leaf:
            stats.num_leaves += 1
            if node.record is not None and not node.record.is_pseudo:
                stats.num_real_records += 1
        stack.extend(node.children)
    return APGTree(root=root, domain=domain, stats=stats)


# ---------------------------------------------------------------------------
# Durable files: MAGIC(4) VERSION(1) + CRC-framed records, one scanner
# ---------------------------------------------------------------------------

_FILE_HEADER_BYTES = 4 + 1  # magic, version
_RECORD_MAGIC = b"JE"
_RECORD_HEADER_BYTES = len(_RECORD_MAGIC) + 4  # magic + payload length
_RECORD_FOOTER_BYTES = 4  # CRC32 of the payload


def _frame(payload: bytes) -> bytes:
    """One CRC-framed record."""
    return (
        _RECORD_MAGIC
        + len(payload).to_bytes(4, "big")
        + payload
        + zlib.crc32(payload).to_bytes(4, "big")
    )


def _build_file(magic: bytes, version: int, *payloads: bytes) -> bytes:
    return magic + bytes([version]) + b"".join(_frame(p) for p in payloads)


def _read_record(data: bytes, offset: int, what: str) -> Optional[tuple[bytes, int]]:
    """Read the record at ``offset``; returns ``(payload, end offset)``.

    Returns ``None`` when the data ends inside the record and the bytes
    present are a clean prefix of one (a torn write).  A record magic
    mismatch (a write that landed mid-file, or a flipped byte) and a CRC
    mismatch raise: those are corruption, not a tear.
    """
    magic = data[offset : offset + len(_RECORD_MAGIC)]
    if magic != _RECORD_MAGIC[: len(magic)]:
        raise DeserializationError(
            f"bad {what} record magic at offset {offset}: "
            f"{magic!r} != {_RECORD_MAGIC!r}"
        )
    start = offset + _RECORD_HEADER_BYTES
    if start > len(data):
        return None
    end = start + int.from_bytes(data[offset + len(_RECORD_MAGIC) : start], "big")
    if end + _RECORD_FOOTER_BYTES > len(data):
        return None
    payload = data[start:end]
    stored_crc = int.from_bytes(data[end : end + _RECORD_FOOTER_BYTES], "big")
    computed_crc = zlib.crc32(payload)
    if stored_crc != computed_crc:
        raise DeserializationError(
            f"{what} checksum mismatch over payload bytes {start}..{end}: "
            f"stored CRC32 0x{stored_crc:08x}, computed 0x{computed_crc:08x}"
        )
    return payload, end + _RECORD_FOOTER_BYTES


def _scan_file(
    data: bytes, magic: bytes, version: int, what: str, count: Optional[int] = None
) -> tuple[list[bytes], Optional[int], int]:
    """Read the header and up to ``count`` records (all, if ``None``).

    Returns ``(payloads, torn_offset, end_offset)``: ``torn_offset`` is
    the offset of a cleanly torn final record (0 for a torn header), or
    ``None`` when the data ends on a record boundary or ``count`` records
    were read, and ``end_offset`` is where reading stopped.
    """
    present = data[: len(magic)]
    if present != magic[: len(present)]:
        raise DeserializationError(
            f"bad {what} magic at offset 0: {present!r} != {magic!r}"
        )
    if len(data) < _FILE_HEADER_BYTES:
        return [], 0, 0
    if data[len(magic)] != version:
        raise DeserializationError(
            f"unsupported {what} version {data[len(magic)]} at offset "
            f"{len(magic)} (this build reads version {version})"
        )
    payloads: list[bytes] = []
    offset = _FILE_HEADER_BYTES
    while offset < len(data) and (count is None or len(payloads) < count):
        record = _read_record(data, offset, what)
        if record is None:
            return payloads, offset, offset
        payload, offset = record
        payloads.append(payload)
    return payloads, None, offset


def _read_file(
    data: bytes, magic: bytes, version: int, what: str, count: Optional[int] = None
) -> list[bytes]:
    """Strictly read a durable file: exactly ``count`` records (any number
    if ``None``), no torn record and nothing after the last one."""
    payloads, torn, end = _scan_file(data, magic, version, what, count)
    if torn is not None:
        raise DeserializationError(
            f"torn {what} tail at offset {torn}: the file ends inside the "
            f"header or record that starts there ({len(data) - torn} byte(s) "
            f"present)"
        )
    if count is not None and len(payloads) < count:
        raise DeserializationError(
            f"torn {what} tail at offset {end}: {len(payloads)} of {count} "
            f"record(s) present"
        )
    if end < len(data):
        raise DeserializationError(
            f"trailing bytes after the last {what} record at offset {end}"
        )
    return payloads


def _fsync_directory(path: str) -> None:
    """fsync the directory holding ``path`` so a rename survives power loss.

    POSIX only promises the renamed entry is durable once the *directory*
    is synced; fsyncing the file alone leaves the rename in the page
    cache.  Best-effort on platforms whose directories cannot be opened
    for reading.
    """
    directory = os.path.dirname(path) or "."
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - non-POSIX directory semantics
        return
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def _atomic_write(path: str, blob: bytes) -> None:
    """tmp → flush → fsync file → rename → fsync directory."""
    tmp_path = path + ".tmp"
    with open(tmp_path, "wb") as fp:
        fp.write(blob)
        fp.flush()
        os.fsync(fp.fileno())
    os.replace(tmp_path, path)
    _fsync_directory(path)


def _read_bytes(path: Union[str, "os.PathLike[str]"]) -> bytes:
    with open(os.fspath(path), "rb") as fp:
        return fp.read()


# ---------------------------------------------------------------------------
# Crash-safe snapshots: APSS + one record (the serialized tree)
# ---------------------------------------------------------------------------

_SNAP_MAGIC = b"APSS"
SNAPSHOT_VERSION = 2


def snapshot_tree(tree: APGTree) -> bytes:
    """Wrap a serialized tree in the checksummed snapshot container."""
    return _build_file(_SNAP_MAGIC, SNAPSHOT_VERSION, serialize_tree(tree))


def restore_snapshot(group: BilinearGroup, data: bytes) -> APGTree:
    """Validate and open a snapshot; diagnoses corruption by offset."""
    (payload,) = _read_file(data, _SNAP_MAGIC, SNAPSHOT_VERSION, "snapshot", 1)
    return deserialize_tree(group, payload)


def write_snapshot(tree: APGTree, path: Union[str, "os.PathLike[str]"]) -> int:
    """Atomically persist a snapshot; returns the byte count written.

    The blob goes to ``<path>.tmp`` first, is flushed and fsynced, and is
    then renamed over ``path`` — a crash mid-write leaves either the old
    snapshot or a stray temp file, never a torn ``path``.  The parent
    directory is fsynced after the rename so the *rename itself* is
    durable, not just the temp file's contents.
    """
    blob = snapshot_tree(tree)
    _atomic_write(os.fspath(path), blob)
    return len(blob)


def read_snapshot(group: BilinearGroup, path: Union[str, "os.PathLike[str]"]) -> APGTree:
    """Cold-start path: read and validate a snapshot file."""
    return restore_snapshot(group, _read_bytes(path))


# ---------------------------------------------------------------------------
# Signed node replacements (the unit of DO→SP update replication)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NodeReplacement:
    """One node's new signed content, identified by its (immutable) box.

    An update to a full-grid AP2G-tree never restructures the tree — it
    replaces the content of the touched leaf plus the ancestors whose
    aggregated policy changed.  A replacement therefore carries only the
    node's *identity* (its box, unique within a tree) and its new signed
    content; the receiving SP grafts it onto its copy of the tree.
    """

    box: Box
    policy: object  # BoolExpr
    signature: AbsSignature
    record: Optional[Record] = None  # leaves only

    def to_bytes(self) -> bytes:
        out = bytearray()
        _write_content(out, self.box, self.policy, self.signature, self.record)
        return bytes(out)

    @classmethod
    def read_from(cls, reader: Reader, group: BilinearGroup) -> "NodeReplacement":
        return cls(*_read_content(reader, group))


def replacement_from_node(node: IndexNode) -> NodeReplacement:
    """Capture a (just re-signed) tree node as a shippable replacement."""
    return NodeReplacement(
        box=node.box, policy=node.policy, signature=node.signature,
        record=node.record,
    )


# ---------------------------------------------------------------------------
# Write-ahead update journal (SP-side crash consistency for live ingest)
# ---------------------------------------------------------------------------

_JOURNAL_MAGIC = b"APUJ"
JOURNAL_VERSION = 1
_JOURNAL_HEADER = _build_file(_JOURNAL_MAGIC, JOURNAL_VERSION)


def journal_entries(data: bytes) -> list[bytes]:
    """Strictly parse a journal image into its entry payloads.

    Any damage raises an offset-precise
    :class:`~repro.errors.DeserializationError`, a torn tail included:
    recovery that wants to drop a torn tail must opt in via
    :func:`scan_journal`.
    """
    return _read_file(data, _JOURNAL_MAGIC, JOURNAL_VERSION, "journal")


def scan_journal(data: bytes) -> tuple[list[bytes], Optional[int]]:
    """Parse a journal image, tolerating (only) a cleanly torn tail.

    Returns ``(entries, torn_offset)`` where ``torn_offset`` is ``None``
    for a clean journal, or the byte offset of an incomplete final entry
    (the crash-mid-append artifact: the file simply ends inside an entry;
    0 when it ends inside the file header).  Everything else — bad magic,
    bad version, a mid-file CRC mismatch, garbage where an entry header
    should be — still raises :class:`~repro.errors.DeserializationError`:
    those are corruption, not a torn append, and must never be
    "repaired" into a silently shortened replay.
    """
    entries, torn, _ = _scan_file(data, _JOURNAL_MAGIC, JOURNAL_VERSION, "journal")
    return entries, torn


class UpdateJournal:
    """A CRC-framed, fsync'd append-only journal of opaque update payloads.

    The SP's write-ahead log for live ingest: every update frame is
    appended (and fsynced) *before* it is applied to the in-memory tree,
    so a crash at any instant loses at most work that was never
    acknowledged.  On cold start the journal is replayed atop the last
    checkpoint; sequence numbers inside the payloads make the replay
    idempotent.  The layout is the module's durable-file layout with
    magic ``APUJ`` and one record per entry.

    ``fsync=False`` exists for tests and drills that run thousands of
    appends on a virtual clock; production paths keep the default.
    """

    def __init__(self, path: Union[str, "os.PathLike[str]"], fsync: bool = True):
        self.path = os.fspath(path)
        self.fsync = fsync
        self.appended = 0
        fresh = not os.path.exists(self.path)
        self._fp = open(self.path, "ab")
        if fresh or os.path.getsize(self.path) == 0:
            self._fp.write(_JOURNAL_HEADER)
            self._flush()
            _fsync_directory(self.path)

    def _flush(self) -> None:
        self._fp.flush()
        if self.fsync:
            os.fsync(self._fp.fileno())

    @property
    def size(self) -> int:
        """Current journal size in bytes (header included)."""
        self._fp.flush()
        return os.path.getsize(self.path)

    def append(self, payload: bytes) -> int:
        """Durably append one entry; returns its byte offset in the file."""
        offset = self.size
        self._fp.write(_frame(payload))
        self._flush()
        self.appended += 1
        return offset

    def _image(self) -> bytes:
        self._fp.flush()
        return _read_bytes(self.path)

    def entries(self) -> list[bytes]:
        """Strictly read back every entry (no torn-tail tolerance)."""
        return journal_entries(self._image())

    def recover_entries(self, repair_torn_tail: bool = False) -> tuple[list[bytes], Optional[int]]:
        """Read entries for replay; optionally truncate a cleanly torn tail.

        With ``repair_torn_tail=False`` this is :meth:`entries` (any torn
        tail raises).  With ``True``, a cleanly torn final entry — the
        expected artifact of a crash mid-append — is truncated away and
        its offset returned so the caller can log/count the repair.
        Mid-file corruption still raises either way.
        """
        data = self._image()
        if not repair_torn_tail:
            return journal_entries(data), None
        entries, torn = scan_journal(data)
        if torn is None:
            return entries, None
        self._fp.truncate(torn)
        if torn < _FILE_HEADER_BYTES:
            # The tear reached into the file header (crash during journal
            # creation or checkpoint truncation): rewrite it so the next
            # append lands in a well-formed journal.
            self._fp.truncate(0)
            self._fp.write(_JOURNAL_HEADER)
        self._flush()
        return entries, torn

    def truncate(self) -> None:
        """Checkpoint step: drop every entry (header is rewritten)."""
        self._fp.truncate(0)
        self._fp.write(_JOURNAL_HEADER)
        self._flush()

    def close(self) -> None:
        self._fp.close()


# ---------------------------------------------------------------------------
# Ingest checkpoints: APIS + two records (watermark meta, serialized tree)
# ---------------------------------------------------------------------------

_STATE_MAGIC = b"APIS"
INGEST_STATE_VERSION = 3


def snapshot_ingest_state(
    table: str, tree: APGTree, applied_seq: int, epoch: int, token_bytes: bytes
) -> bytes:
    """A table's full ingest checkpoint: tree + replication watermark.

    The watermark (``applied_seq``, ``epoch``, current freshness token)
    is the first record and the serialized tree the second, so a
    restored SP knows exactly which journal entries are already folded
    in and which token it may legitimately serve.  The *real* table name
    is embedded in the meta too — recovery must never reconstruct it
    from a (sanitized, possibly colliding) filename.
    """
    meta = (
        encode_bytes(table.encode())
        + int(applied_seq).to_bytes(8, "big")
        + int(epoch).to_bytes(8, "big")
        + encode_bytes(token_bytes)
    )
    return _build_file(_STATE_MAGIC, INGEST_STATE_VERSION, meta, serialize_tree(tree))


def restore_ingest_state(
    group: BilinearGroup, data: bytes
) -> tuple[str, APGTree, int, int, bytes]:
    """Open an ingest checkpoint; returns (table, tree, applied_seq, epoch, token)."""
    meta, blob = _read_file(data, _STATE_MAGIC, INGEST_STATE_VERSION, "ingest state", 2)
    with decode_frame(meta, "ingest state meta") as reader:
        table = reader.take_str()
        applied_seq = reader.take_int(8)
        epoch = reader.take_int(8)
        token_bytes = reader.take_bytes()
    return table, deserialize_tree(group, blob), applied_seq, epoch, token_bytes


def write_ingest_state(
    path: Union[str, "os.PathLike[str]"],
    table: str,
    tree: APGTree,
    applied_seq: int,
    epoch: int,
    token_bytes: bytes,
) -> int:
    """Atomically persist a table's ingest checkpoint (rename + dir fsync)."""
    blob = snapshot_ingest_state(table, tree, applied_seq, epoch, token_bytes)
    _atomic_write(os.fspath(path), blob)
    return len(blob)


def read_ingest_state(
    group: BilinearGroup, path: Union[str, "os.PathLike[str]"]
) -> tuple[str, APGTree, int, int, bytes]:
    """Cold-start path: read and validate an ingest checkpoint file."""
    return restore_ingest_state(group, _read_bytes(path))


# ---------------------------------------------------------------------------
# Publisher state: the DO-side replication cursor, APPS + one record
# ---------------------------------------------------------------------------

_PUBLISHER_MAGIC = b"APPS"
PUBLISHER_STATE_VERSION = 2


def write_publisher_state(
    path: Union[str, "os.PathLike[str]"], seq: int, epoch: int
) -> None:
    """Atomically persist an :class:`~repro.net.ingest.UpdatePublisher` cursor.

    Tiny but load-bearing: a publisher that restarts with ``seq`` reset
    to zero re-issues sequence numbers its replicas have already applied
    — every genuinely new update then acks ``duplicate`` and replication
    silently stalls.  Durable ``(seq, epoch)`` makes the sequence truly
    monotonic across DO restarts.
    """
    cursor = int(seq).to_bytes(8, "big") + int(epoch).to_bytes(8, "big")
    _atomic_write(
        os.fspath(path),
        _build_file(_PUBLISHER_MAGIC, PUBLISHER_STATE_VERSION, cursor),
    )


def read_publisher_state(path: Union[str, "os.PathLike[str]"]) -> tuple[int, int]:
    """Read a publisher cursor back; returns ``(seq, epoch)``."""
    (cursor,) = _read_file(
        _read_bytes(path), _PUBLISHER_MAGIC, PUBLISHER_STATE_VERSION,
        "publisher state", 1,
    )
    if len(cursor) != 16:
        raise DeserializationError(
            f"publisher state record is {len(cursor)} bytes, expected 16"
        )
    return int.from_bytes(cursor[:8], "big"), int.from_bytes(cursor[8:], "big")


# ---------------------------------------------------------------------------
# Key material serialization
# ---------------------------------------------------------------------------

def _encode_str(text: str) -> bytes:
    return encode_bytes(text.encode())


def serialize_cpabe_key(key) -> bytes:
    """Encode a :class:`~repro.abe.cpabe.CpAbeSecretKey`."""
    out = bytearray(b"CPSK\x01")
    attrs = sorted(key.attrs)
    out += len(attrs).to_bytes(2, "big")
    out += key.k.to_bytes() + key.l.to_bytes()
    for name in attrs:
        out += _encode_str(name)
        out += key.k_attr[name].to_bytes()
    return bytes(out)


def deserialize_cpabe_key(group: BilinearGroup, data: bytes):
    """Decode a CP-ABE secret key."""
    from repro.abe.cpabe import CpAbeSecretKey
    from repro.crypto.group import G1, G2

    with decode_frame(data, "CP-ABE key", b"CPSK\x01") as reader:
        count = reader.take_int(2)
        k = reader.take_element(group, G2)
        l = reader.take_element(group, G2)
        k_attr = {}
        for _ in range(count):
            name = reader.take_str()
            k_attr[name] = reader.take_element(group, G1)
    return CpAbeSecretKey(attrs=frozenset(k_attr), k=k, l=l, k_attr=k_attr)


def serialize_credentials(credentials) -> bytes:
    """Encode :class:`~repro.core.system.UserCredentials` (roles + keys).

    The output contains the user's private CP-ABE key — store it like a
    private key.
    """
    out = bytearray(b"CRED\x01")
    roles = sorted(credentials.roles)
    out += len(roles).to_bytes(2, "big")
    for role in roles:
        out += _encode_str(role)
    out += encode_bytes(credentials.mvk.to_bytes())
    out += encode_bytes(serialize_cpabe_key(credentials.cpabe_key))
    return bytes(out)


def deserialize_credentials(group: BilinearGroup, data: bytes):
    """Decode user credentials."""
    from repro.abs.keys import AbsVerificationKey
    from repro.core.system import UserCredentials

    with decode_frame(data, "credentials", b"CRED\x01") as reader:
        count = reader.take_int(2)
        roles = frozenset(reader.take_str() for _ in range(count))
        mvk = AbsVerificationKey.from_bytes(group, reader.take_bytes())
        cpabe_key = deserialize_cpabe_key(group, reader.take_bytes())
    return UserCredentials(roles=roles, cpabe_key=cpabe_key, mvk=mvk)
