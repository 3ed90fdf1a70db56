"""Continuous query attributes via pseudo regions (paper Section 9.2).

Under the relaxed (access-policy-confidentiality) model, the DO may
disclose *where* records are — just not what they contain or who can see
them.  Instead of discretizing the axis and signing a pseudo record for
every possible value, the DO signs one APP signature per maximal empty
*region* between consecutive record keys, with the pseudo-role policy.

This module implements the 1-D continuous scheme directly:

* :class:`ContinuousIndex` (DO side) — region + record signatures;
* :func:`continuous_equality_vo` / :func:`continuous_range_vo`
  (SP side) — records where accessible, APS on records/regions elsewhere;
* :func:`verify_continuous_vo` (user side) — soundness plus gap-free
  coverage of the query interval.

Continuous coordinates are modelled as integers on a fine grid (e.g.
cents, microseconds); the point is that the *index cost scales with the
record count, not the domain size*, unlike the zero-knowledge grid tree.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.app_signature import AppAuthenticator, AppSigner
from repro.core.records import Record
from repro.core.vo import (
    AccessibleRecordEntry,
    InaccessibleNodeEntry,
    InaccessibleRecordEntry,
    VerificationObject,
)
from repro.errors import CompletenessError, WorkloadError
from repro.index.boxes import Box
from repro.policy.boolexpr import Attr
from repro.policy.roles import PSEUDO_ROLE


@dataclass
class _SignedRegion:
    box: Box  # 1-D interval
    signature: object


@dataclass
class _SignedRecord:
    record: Record
    signature: object


class ContinuousIndex:
    """DO-built ADS for a 1-D continuous attribute (relaxed model)."""

    def __init__(
        self,
        signer: AppSigner,
        lo: int,
        hi: int,
        records: Sequence[Record],
        rng: Optional[random.Random] = None,
    ):
        if lo > hi:
            raise WorkloadError("empty continuous domain")
        self.lo = lo
        self.hi = hi
        keys = [r.key for r in records]
        if len(set(keys)) != len(keys):
            raise WorkloadError("duplicate keys in continuous index")
        for record in records:
            if len(record.key) != 1 or not (lo <= record.key[0] <= hi):
                raise WorkloadError(f"record key {record.key} outside [{lo}, {hi}]")
        ordered = sorted(records, key=lambda r: r.key[0])
        self.records: list[_SignedRecord] = [
            _SignedRecord(record=r, signature=signer.sign_record(r, rng)) for r in ordered
        ]
        pseudo = Attr(PSEUDO_ROLE)
        self.regions: list[_SignedRegion] = []
        cursor = lo
        for signed in self.records:
            key = signed.record.key[0]
            if key > cursor:
                box = Box((cursor,), (key - 1,))
                self.regions.append(
                    _SignedRegion(box=box, signature=signer.sign_node(box, pseudo, rng))
                )
            cursor = key + 1
        if cursor <= hi:
            box = Box((cursor,), (hi,))
            self.regions.append(
                _SignedRegion(box=box, signature=signer.sign_node(box, pseudo, rng))
            )

    def segments(self):
        """All records and regions in key order."""
        items: list = [("record", s) for s in self.records]
        items += [("region", s) for s in self.regions]
        items.sort(key=lambda kv: kv[1].record.key[0] if kv[0] == "record" else kv[1].box.lo[0])
        return items

    @property
    def num_signatures(self) -> int:
        return len(self.records) + len(self.regions)


def continuous_range_vo(
    index: ContinuousIndex,
    authenticator: AppAuthenticator,
    query: Box,
    user_roles,
    rng: Optional[random.Random] = None,
) -> VerificationObject:
    """SP side: records where accessible; APS on records/regions otherwise."""
    user_roles = authenticator.universe.validate_user_roles(user_roles)
    vo = VerificationObject()
    pseudo = Attr(PSEUDO_ROLE)
    for kind, signed in index.segments():
        if kind == "record":
            record = signed.record
            if not query.contains_point(record.key):
                continue
            if record.policy.evaluate(user_roles):
                vo.add(
                    AccessibleRecordEntry(
                        key=record.key,
                        value=record.value,
                        policy=record.policy,
                        signature=signed.signature,
                    )
                )
            else:
                aps = authenticator.derive_record_aps(record, signed.signature, user_roles, rng)
                vo.add(
                    InaccessibleRecordEntry(
                        key=record.key, value_hash=record.value_hash(), aps=aps
                    )
                )
        else:
            if not signed.box.intersects(query):
                continue
            aps = authenticator.derive_node_aps(
                signed.box, pseudo, signed.signature, user_roles, rng
            )
            vo.add(InaccessibleNodeEntry(box=signed.box, aps=aps))
    return vo


def continuous_equality_vo(
    index: ContinuousIndex,
    authenticator: AppAuthenticator,
    key: int,
    user_roles,
    rng: Optional[random.Random] = None,
) -> VerificationObject:
    """SP side, equality: one record entry or one covering-region APS."""
    return continuous_range_vo(index, authenticator, Box((key,), (key,)), user_roles, rng)


def verify_continuous_vo(
    vo: VerificationObject,
    authenticator: AppAuthenticator,
    query: Box,
    user_roles,
) -> list[Record]:
    """User side: soundness + gap-free interval coverage.

    Unlike the zero-knowledge verifier, region entries may extend past the
    query bounds (they are data-dependent intervals), so coverage is
    checked on the clipped union.
    """
    from repro.core.verifier import collect_entries, settle

    user_roles = authenticator.universe.validate_user_roles(user_roles)
    clipped = []
    for entry in vo:
        part = entry.region.intersection(query)
        if part is None:
            raise CompletenessError(f"VO entry {entry.region} outside the query interval")
        clipped.append(part)
    clipped.sort(key=lambda b: b.lo[0])
    cursor = query.lo[0]
    for part in clipped:
        if part.lo[0] != cursor:
            raise CompletenessError(f"coverage gap or overlap at {cursor}")
        cursor = part.hi[0] + 1
    if cursor != query.hi[0] + 1:
        raise CompletenessError("VO does not cover the full query interval")
    accessible, obligations = collect_entries(vo, authenticator, query, user_roles)
    settle(obligations, authenticator)
    return [record for _entry, record in accessible]
