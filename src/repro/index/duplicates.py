"""Duplicate-record handling (paper Appendix E).

The core protocols assume distinct query keys.  For source data with
duplicate keys two transforms are provided:

* **Zero-knowledge** (:func:`zero_knowledge_dataset`): records sharing a
  key *and* a policy merge into a super-record; a *virtual dimension*
  ``x in [1, U_x]`` is appended to the key, and each merged record gets a
  random distinct ``x``.  Queries extend their range to cover the whole
  virtual axis.  Pseudo records fill the rest of the virtual axis, so
  nothing about duplicate counts leaks.

* **Embedded / non-zero-knowledge** (:func:`embedded_dataset`): all
  duplicates of a key are bundled into one record whose value encodes
  ``dup_num`` plus every ``(dup_id, value, policy)``; the APP signature
  binds the bundle, so the verifier learns the exact duplicate count and
  can check that all duplicates are present.  This reveals the duplicate
  distribution (and, to users who can open the bundle, the sibling
  duplicates' policies — acceptable under the relaxed access-policy
  confidentiality model; in a deployment each duplicate's payload stays
  individually CP-ABE-encrypted).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.codec import decode_frame
from repro.core.records import Dataset, Record
from repro.errors import WorkloadError
from repro.index.boxes import Domain, Point
from repro.policy.boolexpr import BoolExpr, parse_policy
from repro.policy.compiler.dnf import from_dnf, to_dnf


@dataclass(frozen=True)
class DuplicateRecord:
    """Source tuple that may share its key with other tuples."""

    key: Point
    value: bytes
    policy: BoolExpr


def merge_super_records(
    records: Iterable[DuplicateRecord],
) -> dict[Point, list[tuple[BoolExpr, bytes]]]:
    """Group by key; concatenate values sharing (key, policy).

    "Data records that share the same query key and the same access
    policy can be aggregated into a super-record" — this bounds the
    virtual dimension by the number of distinct policies per key.
    """
    grouped: dict[Point, dict[str, tuple[BoolExpr, list[bytes]]]] = {}
    for rec in records:
        by_policy = grouped.setdefault(tuple(rec.key), {})
        text = rec.policy.to_string()
        if text in by_policy:
            by_policy[text][1].append(rec.value)
        else:
            by_policy[text] = (rec.policy, [rec.value])
    out: dict[Point, list[tuple[BoolExpr, bytes]]] = {}
    for key, by_policy in grouped.items():
        merged = []
        for text in sorted(by_policy):
            policy, values = by_policy[text]
            blob = len(values).to_bytes(4, "big") + b"".join(
                len(v).to_bytes(4, "big") + v for v in values
            )
            merged.append((policy, blob))
        out[key] = merged
    return out


def zero_knowledge_dataset(
    domain: Domain,
    records: Iterable[DuplicateRecord],
    virtual_size: int | None = None,
    rng: random.Random | None = None,
) -> tuple[Dataset, "VirtualDimension"]:
    """Appendix E zero-knowledge transform: merge + virtual dimension."""
    rng = rng or random.Random()
    merged = merge_super_records(records)
    max_groups = max((len(v) for v in merged.values()), default=1)
    if virtual_size is None:
        virtual_size = max_groups
    if virtual_size < max_groups:
        raise WorkloadError(
            f"virtual dimension size {virtual_size} < max duplicate groups {max_groups}"
        )
    new_domain = Domain(domain.bounds + ((1, virtual_size),))
    dataset = Dataset(new_domain)
    for key, groups in merged.items():
        slots = rng.sample(range(1, virtual_size + 1), len(groups))
        for (policy, blob), x in zip(groups, slots):
            dataset.add(Record(key=key + (x,), value=blob, policy=policy))
    return dataset, VirtualDimension(base_domain=domain, size=virtual_size)


@dataclass(frozen=True)
class VirtualDimension:
    """Query transform for the virtual-dimension layout."""

    base_domain: Domain
    size: int

    def extend_range(self, lo: Point, hi: Point) -> tuple[Point, Point]:
        """``[alpha, beta] -> [(alpha, 1), (beta, U_x)]``."""
        return tuple(lo) + (1,), tuple(hi) + (self.size,)

    def strip_key(self, key: Point) -> Point:
        return tuple(key[:-1])


# ---------------------------------------------------------------------------
# Embedded (non-zero-knowledge) bundles
# ---------------------------------------------------------------------------

_BUNDLE_MAGIC = b"DUPB"


def encode_bundle(duplicates: Sequence[tuple[bytes, BoolExpr]]) -> bytes:
    """Encode ``dup_num`` + every ``(dup_id, value, policy)`` into one value."""
    out = bytearray(_BUNDLE_MAGIC)
    out += len(duplicates).to_bytes(4, "big")
    for dup_id, (value, policy) in enumerate(duplicates):
        text = policy.to_string().encode()
        out += dup_id.to_bytes(4, "big")
        out += len(value).to_bytes(4, "big") + value
        out += len(text).to_bytes(4, "big") + text
    return bytes(out)


def decode_bundle(blob: bytes) -> list[tuple[int, bytes, BoolExpr]]:
    """Decode a bundle into ``(dup_id, value, policy)`` tuples.

    A bundle is a record value, bytes the SP returns, so a malformed one
    raises :class:`~repro.errors.DeserializationError`.
    """
    with decode_frame(blob, "duplicate bundle", _BUNDLE_MAGIC) as reader:
        count = reader.take_int(4)
        out = []
        for _ in range(count):
            dup_id = reader.take_int(4)
            value = reader.take_bytes()
            policy = parse_policy(reader.take_str())
            out.append((dup_id, value, policy))
        return out


def accessible_duplicates(blob: bytes, user_roles) -> list[tuple[int, bytes]]:
    """User-side: the duplicates within a bundle the roles may access."""
    return [
        (dup_id, value)
        for dup_id, value, policy in decode_bundle(blob)
        if policy.evaluate(user_roles)
    ]


def embedded_dataset(domain: Domain, records: Iterable[DuplicateRecord]) -> Dataset:
    """Appendix E non-ZK transform: one bundle record per duplicated key.

    The bundle's access policy is the OR of the duplicates' policies (the
    record is *returned* iff the user can access at least one duplicate);
    ``dup_num``/``dup_id`` integrity comes from the APP signature binding
    the whole encoded bundle.
    """
    grouped: dict[Point, list[tuple[bytes, BoolExpr]]] = {}
    for rec in records:
        grouped.setdefault(tuple(rec.key), []).append((rec.value, rec.policy))
    dataset = Dataset(domain)
    for key, dups in grouped.items():
        policy = from_dnf(to_dnf_union(p for _, p in dups))
        dataset.add(Record(key=key, value=encode_bundle(dups), policy=policy))
    return dataset


def to_dnf_union(policies: Iterable[BoolExpr]):
    clauses = []
    for policy in policies:
        clauses.extend(to_dnf(policy))
    # Re-absorb across policies.
    from repro.policy.compiler.dnf import _absorb

    return _absorb(clauses)
