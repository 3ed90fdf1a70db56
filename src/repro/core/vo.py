"""Verification objects (VOs) and their wire format.

A VO is the list of proof entries the SP returns with a query result
(paper Section 3).  Three entry kinds exist:

* :class:`AccessibleRecordEntry` — a result record in full (key, value,
  policy) with its APP signature;
* :class:`InaccessibleRecordEntry` — a unit cell the user may not access:
  the record's key, ``hash(v)``, and an APS signature under the user's
  super policy (never the true policy);
* :class:`InaccessibleNodeEntry` — a whole grid box summarized by one APS
  signature on ``hash(gb)``.

Entries carry a ``table`` tag so join VOs can mix entries from both
relations.  The binary codec is length-prefixed and self-describing
enough to round-trip through the hybrid CP-ABE/AES envelope; VO sizes
reported by benchmarks are real serialized byte counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Union

from repro.abs.scheme import AbsSignature
from repro.codec import Reader, decode_frame, encode_bytes, encode_point
from repro.core.records import Record
from repro.crypto.group import BilinearGroup
from repro.index.boxes import Box, Point
from repro.policy.boolexpr import BoolExpr, parse_policy


@dataclass(frozen=True)
class AccessibleRecordEntry:
    """A full result record with its APP signature."""

    key: Point
    value: bytes
    policy: BoolExpr
    signature: AbsSignature
    table: str = ""

    TAG = 1

    @property
    def region(self) -> Box:
        return Box(self.key, self.key)

    def record(self) -> Record:
        return Record(key=self.key, value=self.value, policy=self.policy)

    def byte_size(self) -> int:
        return len(self.to_bytes())

    def to_bytes(self) -> bytes:
        return (
            bytes([self.TAG])
            + encode_bytes(self.table.encode())
            + encode_point(self.key)
            + encode_bytes(self.value)
            + encode_bytes(self.policy.to_string().encode())
            + encode_bytes(self.signature.to_bytes())
        )

    @classmethod
    def _read(cls, reader: Reader, group: BilinearGroup) -> "AccessibleRecordEntry":
        table = reader.take_str()
        key = reader.take_point()
        value = reader.take_bytes()
        policy = parse_policy(reader.take_str())
        sig = AbsSignature.from_bytes(group, reader.take_bytes())
        return cls(key=key, value=value, policy=policy, signature=sig, table=table)


@dataclass(frozen=True)
class InaccessibleRecordEntry:
    """A unit cell proven inaccessible: key + hash(v) + APS signature."""

    key: Point
    value_hash: bytes
    aps: AbsSignature
    table: str = ""

    TAG = 2

    @property
    def region(self) -> Box:
        return Box(self.key, self.key)

    def byte_size(self) -> int:
        return len(self.to_bytes())

    def to_bytes(self) -> bytes:
        return (
            bytes([self.TAG])
            + encode_bytes(self.table.encode())
            + encode_point(self.key)
            + encode_bytes(self.value_hash)
            + encode_bytes(self.aps.to_bytes())
        )

    @classmethod
    def _read(cls, reader: Reader, group: BilinearGroup) -> "InaccessibleRecordEntry":
        table = reader.take_str()
        key = reader.take_point()
        value_hash = reader.take_bytes()
        aps = AbsSignature.from_bytes(group, reader.take_bytes())
        return cls(key=key, value_hash=value_hash, aps=aps, table=table)


@dataclass(frozen=True)
class InaccessibleNodeEntry:
    """A grid box proven entirely inaccessible by one APS signature."""

    box: Box
    aps: AbsSignature
    table: str = ""

    TAG = 3

    @property
    def region(self) -> Box:
        return self.box

    def byte_size(self) -> int:
        return len(self.to_bytes())

    def to_bytes(self) -> bytes:
        return (
            bytes([self.TAG])
            + encode_bytes(self.table.encode())
            + encode_point(self.box.lo)
            + encode_point(self.box.hi)
            + encode_bytes(self.aps.to_bytes())
        )

    @classmethod
    def _read(cls, reader: Reader, group: BilinearGroup) -> "InaccessibleNodeEntry":
        table = reader.take_str()
        lo = reader.take_point()
        hi = reader.take_point()
        aps = AbsSignature.from_bytes(group, reader.take_bytes())
        return cls(box=Box(lo, hi), aps=aps, table=table)


VOEntry = Union[AccessibleRecordEntry, InaccessibleRecordEntry, InaccessibleNodeEntry]

_ENTRY_TYPES = {
    AccessibleRecordEntry.TAG: AccessibleRecordEntry,
    InaccessibleRecordEntry.TAG: InaccessibleRecordEntry,
    InaccessibleNodeEntry.TAG: InaccessibleNodeEntry,
}


@dataclass
class VerificationObject:
    """The proof returned alongside a query result."""

    entries: list[VOEntry] = field(default_factory=list)

    def add(self, entry: VOEntry) -> None:
        self.entries.append(entry)

    def extend(self, entries: Iterable[VOEntry]) -> None:
        self.entries.extend(entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def accessible(self, table: str | None = None) -> list[AccessibleRecordEntry]:
        return [
            e
            for e in self.entries
            if isinstance(e, AccessibleRecordEntry) and (table is None or e.table == table)
        ]

    def for_table(self, table: str) -> list[VOEntry]:
        return [e for e in self.entries if e.table == table]

    def byte_size(self) -> int:
        return len(self.to_bytes())

    def to_bytes(self) -> bytes:
        out = bytearray(len(self.entries).to_bytes(4, "big"))
        for entry in self.entries:
            out += entry.to_bytes()
        return bytes(out)

    @classmethod
    def from_bytes(cls, group: BilinearGroup, data: bytes) -> "VerificationObject":
        # A sealed VO is opened from bytes the SP chose (it seals with the
        # public CP-ABE key), so the codec owns its failure contract.
        with decode_frame(data, "verification object") as reader:
            count = reader.take_int(4)
            entries: list[VOEntry] = []
            for _ in range(count):
                entry_type = reader.take_tag(_ENTRY_TYPES, "VO entry")
                entries.append(entry_type._read(reader, group))
            return cls(entries=entries)
