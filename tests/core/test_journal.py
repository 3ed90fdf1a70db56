"""Update journal + ingest checkpoint durability contracts.

The write-ahead journal is the one artifact that must survive arbitrary
power cuts, so the tests here are adversarial about the file image:
a full truncation sweep (every prefix length) and a bitflip sweep over
every byte must either parse to an exact entry prefix or raise an
offset-precise :class:`~repro.errors.DeserializationError` — never a
silently shortened or corrupted replay.  The snapshot, ingest
checkpoint and publisher cursor share the journal's file layout and go
through the same sweeps; being fixed-size, they must raise on every cut
and every flip.
"""

import hashlib
import os
import random
import stat
import zlib

import pytest

from repro.core.persistence import (
    UpdateJournal,
    journal_entries,
    read_ingest_state,
    read_publisher_state,
    restore_ingest_state,
    restore_snapshot,
    scan_journal,
    snapshot_tree,
    write_ingest_state,
    write_publisher_state,
    write_snapshot,
)
from repro.core.records import Dataset, Record
from repro.core.system import DataOwner
from repro.crypto import simulated
from repro.errors import DeserializationError
from repro.index.boxes import Domain
from repro.policy.boolexpr import parse_policy
from repro.policy.roles import RoleUniverse

PAYLOADS = [b"alpha", b"", b"b" * 300, b"\x00\xff" * 17, b"last-entry"]
HEADER = 5  # APUJ + version
ENTRY_HEADER = 6  # JE + 4-byte length
ENTRY_FOOTER = 4  # crc32


@pytest.fixture()
def journal_image(tmp_path):
    journal = UpdateJournal(tmp_path / "j", fsync=False)
    offsets = [journal.append(p) for p in PAYLOADS]
    journal.close()
    return (tmp_path / "j").read_bytes(), offsets


@pytest.fixture(scope="module")
def signed_tree():
    rng = random.Random(515)
    owner = DataOwner(
        simulated(), RoleUniverse(["analyst"]), rng=rng
    )
    ds = Dataset(Domain.of((0, 7)))
    ds.add(Record((3,), b"v", parse_policy("analyst")))
    return owner, owner.build_tree(ds)


# ---------------------------------------------------------------------------
# Append/readback + the strict/repair split
# ---------------------------------------------------------------------------

def test_journal_roundtrip_and_entry_offsets(journal_image):
    data, offsets = journal_image
    assert journal_entries(data) == PAYLOADS
    assert offsets[0] == HEADER
    for payload, offset in zip(PAYLOADS, offsets):
        assert data[offset:offset + len("JE")] == b"JE"
        start = offset + ENTRY_HEADER
        assert data[start:start + len(payload)] == payload


def test_reopen_appends_after_existing_entries(tmp_path):
    journal = UpdateJournal(tmp_path / "j", fsync=False)
    journal.append(b"one")
    journal.close()
    journal = UpdateJournal(tmp_path / "j", fsync=False)
    journal.append(b"two")
    assert journal.entries() == [b"one", b"two"]
    journal.truncate()
    assert journal.entries() == []
    assert journal.size == HEADER
    journal.close()


def test_recover_entries_repairs_only_with_explicit_opt_in(tmp_path):
    journal = UpdateJournal(tmp_path / "j", fsync=False)
    journal.append(b"keep")
    journal.append(b"gone")
    journal.close()
    os.truncate(tmp_path / "j", (tmp_path / "j").stat().st_size - 3)

    strict = UpdateJournal(tmp_path / "j", fsync=False)
    with pytest.raises(DeserializationError, match="torn journal tail at offset"):
        strict.recover_entries()
    entries, torn = strict.recover_entries(repair_torn_tail=True)
    assert entries == [b"keep"]
    assert torn == HEADER + ENTRY_HEADER + len(b"keep") + ENTRY_FOOTER
    # The tail is gone from disk: the next append lands cleanly.
    strict.append(b"after")
    assert strict.entries() == [b"keep", b"after"]
    strict.close()


def test_torn_header_repairs_to_an_empty_journal(tmp_path):
    journal = UpdateJournal(tmp_path / "j", fsync=False)
    journal.close()
    os.truncate(tmp_path / "j", 2)  # crash during creation/truncate
    reopened = UpdateJournal.__new__(UpdateJournal)
    reopened.path = os.fspath(tmp_path / "j")
    reopened.fsync = False
    reopened.appended = 0
    reopened._fp = open(reopened.path, "ab")
    entries, torn = reopened.recover_entries(repair_torn_tail=True)
    assert (entries, torn) == ([], 0)
    reopened.append(b"fresh")
    assert reopened.entries() == [b"fresh"]
    reopened.close()


# ---------------------------------------------------------------------------
# Satellite sweep: truncation + bitflips can never shorten replay silently
# ---------------------------------------------------------------------------

def entry_boundaries(data):
    """Byte offsets at which a prefix is a whole number of entries."""
    boundaries = {HEADER}
    offset = HEADER
    while offset < len(data):
        length = int.from_bytes(
            data[offset + len(b"JE"):offset + ENTRY_HEADER], "big"
        )
        offset += ENTRY_HEADER + length + ENTRY_FOOTER
        boundaries.add(offset)
    return boundaries


# Every durable file shares the journal's layout; the three fixed-size
# files are read strictly, so any damage at all must raise.
def _snapshot_image(tmp_path, tree):
    write_snapshot(tree, tmp_path / "snap")
    return (tmp_path / "snap").read_bytes()


def _ingest_state_image(tmp_path, tree):
    write_ingest_state(tmp_path / "state", "docs", tree, 17, 4, b"tokenbytes")
    return (tmp_path / "state").read_bytes()


def _publisher_state_image(tmp_path, tree):
    write_publisher_state(tmp_path / "cursor", 42, 7)
    return (tmp_path / "cursor").read_bytes()


def _read_publisher_image(tmp_path, data):
    (tmp_path / "probe").write_bytes(data)
    return read_publisher_state(tmp_path / "probe")


STRICT_FORMATS = {
    "snapshot": (_snapshot_image, lambda tmp, data: restore_snapshot(simulated(), data)),
    "ingest_state": (
        _ingest_state_image, lambda tmp, data: restore_ingest_state(simulated(), data)
    ),
    "publisher_state": (_publisher_state_image, _read_publisher_image),
}
FORMATS = ["journal", *STRICT_FORMATS]


@pytest.fixture()
def durable_image(request, tmp_path, journal_image, signed_tree):
    """``(image, parse, is_journal)`` for one durable format; parse raises
    on damage."""
    if request.param == "journal":
        return journal_image[0], journal_entries, True
    make, parse = STRICT_FORMATS[request.param]
    return make(tmp_path, signed_tree[1]), lambda data: parse(tmp_path, data), False


@pytest.mark.parametrize("durable_image", FORMATS, indirect=True)
def test_truncation_sweep_every_cut_raises_or_is_exact_prefix(durable_image):
    data, parse, journal = durable_image
    boundaries = entry_boundaries(data) if journal else set()
    for cut in range(len(data)):
        truncated = data[:cut]
        if cut in boundaries:
            # A cut between entries is indistinguishable from a shorter
            # journal; the replay-level sequence discipline covers it.
            assert parse(truncated) == parse(data)[: len(parse(truncated))]
            continue
        with pytest.raises(DeserializationError):
            parse(truncated)
        # Repair-mode recovery agrees byte-for-byte on where the tear is
        # and never yields a partial entry.
        if not journal or cut < HEADER:
            continue  # header tears are exercised separately above
        entries, torn = scan_journal(truncated)
        assert torn is not None and torn <= cut
        assert all(e in PAYLOADS for e in entries)


@pytest.mark.parametrize("durable_image", FORMATS, indirect=True)
def test_bitflip_sweep_every_flip_raises(durable_image):
    data, parse, _ = durable_image
    for pos in range(len(data)):
        flipped = bytearray(data)
        flipped[pos] ^= 0x40
        with pytest.raises(DeserializationError):
            parse(bytes(flipped))


def test_journal_image_matches_golden(journal_image):
    # Journal images are an on-disk format: a change to this hash breaks
    # replay of journals written by earlier builds at JOURNAL_VERSION 1.
    data, _ = journal_image
    assert hashlib.sha256(data).hexdigest() == (
        "8652992641c07f4726c64356e5bffe89578d103e30ddf76ff1e47aba8c86c5b5"
    )


def test_bitflip_in_tail_never_repairs_silently(journal_image):
    data, _ = journal_image
    # Chop mid-CRC of the final entry, then flip a byte of the remaining
    # torn fragment: that is corruption, not a clean tear, so even
    # repair-mode scanning must refuse (entry magic / CRC catches it).
    torn = data[:-2]
    fragment_start = max(entry_boundaries(data) - {len(data)})
    flipped = bytearray(torn)
    flipped[fragment_start] ^= 0x01  # entry magic byte of the torn entry
    with pytest.raises(DeserializationError):
        scan_journal(bytes(flipped))


def test_crc_is_over_exact_payload_span(journal_image):
    data, offsets = journal_image
    start = offsets[-1] + ENTRY_HEADER
    payload = data[start:start + len(PAYLOADS[-1])]
    stored = int.from_bytes(data[start + len(payload):], "big")
    assert stored == zlib.crc32(payload)


# ---------------------------------------------------------------------------
# Snapshot durability: file AND directory fsync (satellite a)
# ---------------------------------------------------------------------------

def test_write_snapshot_fsyncs_file_and_directory(tmp_path, monkeypatch, signed_tree):
    _, tree = signed_tree
    synced = []
    real_fsync = os.fsync

    def spy(fd):
        synced.append(stat.S_ISDIR(os.fstat(fd).st_mode))
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", spy)
    write_snapshot(tree, tmp_path / "snap.bin")
    # Exactly one file fsync (the temp file, pre-rename) and one
    # directory fsync (making the rename itself durable).
    assert synced == [False, True]


def test_ingest_state_checkpoint_roundtrip(tmp_path, signed_tree):
    owner, tree = signed_tree
    path = tmp_path / "docs.state"
    write_ingest_state(path, "docs", tree, 17, 4, b"tokenbytes")
    table, restored, seq, epoch, token = read_ingest_state(simulated(), path)
    assert (table, seq, epoch, token) == ("docs", 17, 4, b"tokenbytes")
    assert snapshot_tree(restored) == snapshot_tree(tree)


def test_ingest_state_embeds_real_table_name(tmp_path, signed_tree):
    # The filename is just a locator: a table name no filesystem would
    # accept verbatim must still round-trip exactly through the meta.
    _, tree = signed_tree
    path = tmp_path / "sanitized.state"
    write_ingest_state(path, "a/b", tree, 3, 2, b"")
    table, _, seq, epoch, _ = read_ingest_state(simulated(), path)
    assert (table, seq, epoch) == ("a/b", 3, 2)


def test_ingest_state_rejects_corruption(tmp_path, signed_tree):
    _, tree = signed_tree
    path = tmp_path / "docs.state"
    write_ingest_state(path, "docs", tree, 1, 1, b"")
    blob = path.read_bytes()
    for mutation in [
        b"XXXX" + blob[4:],                              # bad magic
        blob[:14],                                       # torn mid-meta
        blob[:12] + bytes([blob[12] ^ 1]) + blob[13:],   # flipped meta byte
    ]:
        path.write_bytes(mutation)
        with pytest.raises(DeserializationError):
            read_ingest_state(simulated(), path)


def test_publisher_state_roundtrip_and_corruption(tmp_path):
    path = tmp_path / "publisher.state"
    write_publisher_state(path, 42, 7)
    assert read_publisher_state(path) == (42, 7)
    write_publisher_state(path, 43, 7)  # atomic overwrite
    assert read_publisher_state(path) == (43, 7)

    blob = path.read_bytes()
    for mutation in [
        b"XXXX" + blob[4:],                              # bad magic
        blob[:4] + bytes([9]) + blob[5:],                # bad version
        blob[:-1],                                       # torn tail
        blob[:12] + bytes([blob[12] ^ 1]) + blob[13:],   # flipped seq byte
        blob + b"\x00",                                  # trailing garbage
    ]:
        path.write_bytes(mutation)
        with pytest.raises(DeserializationError):
            read_publisher_state(path)
