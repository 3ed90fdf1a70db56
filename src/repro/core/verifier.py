"""User-side result verification (paper Algorithms 1, 3, 4 — bottom halves).

Soundness: every VO entry's signature verifies — APP signatures under the
record's disclosed policy (which the user's roles must satisfy), APS
signatures under the super policy the verifier rebuilds from its *own*
role set.  Completeness: entry regions tile the query range exactly (one
and only one proof per unit of indexing space).

Every verifier here runs the same two steps.  The **collector**
(:func:`collect_entries`; :func:`collect_vo` adds the tiling) makes every
check that needs no pairing — query containment, policy evaluation,
tiling, join pairing-up — and turns each entry into an
:class:`Obligation`: message, claim predicate, signature and the region
it vouches for.  :func:`settle` then checks all of a VO's obligations
through :meth:`AppAuthenticator.settle_failures
<repro.core.app_signature.AppAuthenticator.settle_failures>`: one merged
pairing product, skipping those the user's verified-entry memo already
holds.

Raises :class:`SoundnessError` / :class:`CompletenessError`; returns the
verified accessible records.

The bottom half of this module is the **merged shard verifier**
(:func:`verify_sharded`): given per-shard answers that each passed the
single-SP checks above, it verifies the *composition* — every shard the
signed roster says must contribute did, at the pinned epoch, and the
contributed ranges tile the query.  This is what makes a scatter-gather
answer exactly as trustworthy as a single-SP answer: a coordinator that
drops, duplicates, re-routes, or rolls back a shard is caught
cryptographically, not by trust.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.abs.batch import BatchItem
from repro.core.app_signature import AppAuthenticator
from repro.core.freshness import (
    FreshnessToken,
    ShardRoster,
    check_shard_token,
)
from repro.core.records import Record
from repro.core.vo import (
    AccessibleRecordEntry,
    InaccessibleNodeEntry,
    InaccessibleRecordEntry,
    VerificationObject,
)
from repro.errors import CompletenessError, SoundnessError, VerificationError
from repro.index.boxes import Box, boxes_cover_clipped


@dataclass(frozen=True)
class Obligation(BatchItem):
    """One signature a VO entry asks the user to check.

    ``kind`` is ``"APP"`` for an accessible record's signature and
    ``"APS"`` for an inaccessibility proof; ``region`` is what it vouches
    for, and names the entry when the check fails.
    """

    region: Box
    kind: str

    def failure(self) -> str:
        return f"{self.kind} signature invalid for region {self.region}"


def collect_entries(
    vo: VerificationObject,
    authenticator: AppAuthenticator,
    query: Box,
    user_roles,
    missing_roles: Optional[Sequence[str]] = None,
) -> tuple[list[tuple[AccessibleRecordEntry, Record]], list[Obligation]]:
    """The pairing-free checks of every entry, and the signatures they leave.

    ``user_roles`` must already be validated.  Checks each accessible
    entry's query containment and policy; returns ``(entry, record)`` for
    the accessible entries and every entry's obligation, in VO order.
    """
    super_policy = authenticator.super_policy(user_roles, missing_roles)
    accessible: list[tuple[AccessibleRecordEntry, Record]] = []
    obligations: list[Obligation] = []
    for entry in vo:
        if isinstance(entry, AccessibleRecordEntry):
            if not query.contains_point(entry.key):
                raise SoundnessError(f"result key {entry.key} outside the query range")
            if not entry.policy.evaluate(user_roles):
                raise SoundnessError(
                    f"result record {entry.key} is not accessible under the user roles"
                )
            record = entry.record()
            accessible.append((entry, record))
            obligation = Obligation(
                record.message(), entry.policy, entry.signature, entry.region, "APP"
            )
        elif isinstance(entry, InaccessibleRecordEntry):
            message = Record.message_from_hash(entry.key, entry.value_hash)
            obligation = Obligation(message, super_policy, entry.aps, entry.region, "APS")
        elif isinstance(entry, InaccessibleNodeEntry):
            obligation = Obligation(
                entry.box.to_bytes(), super_policy, entry.aps, entry.region, "APS"
            )
        else:
            raise SoundnessError(f"unknown VO entry type {type(entry).__name__}")
        obligations.append(obligation)
    return accessible, obligations


def collect_vo(
    vo: VerificationObject,
    authenticator: AppAuthenticator,
    query: Box,
    user_roles,
    missing_roles: Optional[Sequence[str]] = None,
) -> tuple[list[Record], list[Obligation]]:
    """Everything :func:`verify_vo` checks except the signatures.

    :func:`collect_entries` after the tiling check; returns the
    accessible records and every entry's obligation.
    """
    if not boxes_cover_clipped([entry.region for entry in vo], query):
        raise CompletenessError("VO entries do not tile the query range exactly")
    accessible, obligations = collect_entries(
        vo, authenticator, query, user_roles, missing_roles
    )
    return [record for _entry, record in accessible], obligations


def settle(obligations: Sequence[Obligation], authenticator: AppAuthenticator) -> None:
    """Check every obligation; raise :class:`SoundnessError` naming the first
    failing entry's region."""
    bad = authenticator.settle_failures(obligations)
    if bad:
        raise SoundnessError(obligations[bad[0]].failure())


def verify_vo(
    vo: VerificationObject,
    authenticator: AppAuthenticator,
    query: Box,
    user_roles,
    missing_roles: Optional[Sequence[str]] = None,
) -> list[Record]:
    """Verify an equality/range VO; returns the accessible records.

    ``query`` must already be clipped to the indexed domain.
    ``missing_roles`` overrides the default super-policy attribute list
    ``A \\ A`` (used by the hierarchical-role optimization).
    """
    user_roles = authenticator.universe.validate_user_roles(user_roles)
    records, obligations = collect_vo(vo, authenticator, query, user_roles, missing_roles)
    settle(obligations, authenticator)
    return records


@dataclass(frozen=True)
class JoinPair:
    """A verified join result: matching accessible records from R and S."""

    left: Record
    right: Record


def verify_join_vo(
    vo: VerificationObject,
    authenticator: AppAuthenticator,
    query: Box,
    user_roles,
    missing_roles: Optional[Sequence[str]] = None,
    left_table: str = "R",
    right_table: str = "S",
) -> list[JoinPair]:
    """Verify a join VO; returns the verified result pairs.

    Completeness uses the R-side tiling: accessible R results plus every
    inaccessible region (from either table) must tile the query range.
    Soundness additionally requires each R result to have exactly one
    matching S result on the same key.
    """
    user_roles = authenticator.universe.validate_user_roles(user_roles)
    left_access: dict = {}
    right_access: dict = {}
    coverage: list[Box] = []
    for entry in vo:
        if isinstance(entry, AccessibleRecordEntry):
            bucket = left_access if entry.table == left_table else right_access
            if entry.table not in (left_table, right_table):
                raise SoundnessError(f"unexpected table tag {entry.table!r}")
            if entry.key in bucket:
                raise SoundnessError(f"duplicate result for key {entry.key} in {entry.table}")
            bucket[entry.key] = entry
            if entry.table == left_table:
                coverage.append(entry.region)
        else:
            coverage.append(entry.region)
    if set(left_access) != set(right_access):
        raise SoundnessError("join results do not pair up on the join key")
    if not boxes_cover_clipped(coverage, query):
        raise CompletenessError("join VO does not tile the query range exactly")
    accessible, obligations = collect_entries(
        vo, authenticator, query, user_roles, missing_roles
    )
    settle(obligations, authenticator)
    records = {(entry.table, entry.key): record for entry, record in accessible}
    return [
        JoinPair(left=records[(left_table, key)], right=records[(right_table, key)])
        for key in sorted(left_access)
    ]


# ---------------------------------------------------------------------------
# Merged shard verification (scatter-gather answers)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShardAnswer:
    """One shard's contribution to a scatter-gather query.

    ``records`` must already have passed the per-VO checks
    (:func:`verify_vo` against ``box``, the shard's clipped query box) —
    the merged verifier re-checks the *composition*, not each proof.
    ``token`` is the shard's attached freshness token, re-checked here
    against the roster even when the transport layer checked it already
    (the merged verifier is the trust boundary an untrusted coordinator
    hands answers across, so it assumes nothing about who gathered them).
    """

    shard_id: str
    box: Box
    token: Optional[FreshnessToken]
    records: tuple = ()


@dataclass(frozen=True)
class PartialResult:
    """A degraded-mode read: verified for what it covers, explicit about
    what it does not.

    Returned only when the caller opted in (``allow_partial=True``) and
    one or more shards were unavailable.  Every record in ``records``
    went through full per-shard verification and the covering shards'
    roster checks; ``missing_shards`` / ``missing_boxes`` name exactly
    the partitions the answer says nothing about.  A PartialResult is
    deliberately a distinct type — code written for complete answers
    cannot mistake one for a full result.
    """

    records: tuple
    missing_shards: tuple[str, ...]
    missing_boxes: tuple[Box, ...] = ()
    covered_boxes: tuple[Box, ...] = field(default=(), repr=False)

    @property
    def complete(self) -> bool:
        return not self.missing_shards


def verify_sharded(
    roster: ShardRoster,
    query: Box,
    answers: Sequence[ShardAnswer],
    authenticator: AppAuthenticator,
    allow_partial: bool = False,
    key=None,
):
    """Merge per-shard answers into one verifiable result.

    Checks, in order:

    1. every answer names a roster shard, exactly once (no duplicated or
       re-routed contributions);
    2. each answer's freshness token binds that shard at the roster's
       pinned epoch (:func:`~repro.core.freshness.check_shard_token`) —
       a stale, future, or cross-shard token is a
       :class:`VerificationError`;
    3. each answer's box is exactly ``query ∩ shard bounds`` — a shard
       (or coordinator) that quietly narrowed its sub-query is a
       :class:`CompletenessError`;
    4. every shard the roster obliges to answer did: a missing shard is
       a :class:`CompletenessError` (fail closed), unless
       ``allow_partial`` — then a :class:`PartialResult` names the
       uncovered partitions and carries only fully-verified records;
    5. under hash partitioning, record keys may not collide across
       shards (:class:`SoundnessError` if they do — two shards both
       claiming a key proves misassignment).

    ``key`` routes equality queries: under hash partitioning only the
    key's owner shard is obliged to answer (range partitioning derives
    the same from box intersection).

    Returns the merged, key-ordered record list when complete, else a
    :class:`PartialResult`.
    """
    if roster.kind == "hash" and key is not None:
        expected = (roster.shard_for_key(key),)
    else:
        expected = roster.shards_for(query)
    if not expected:
        raise CompletenessError(
            f"roster for {roster.table!r} has no shard covering {query}"
        )
    expected_ids = [descriptor.shard_id for descriptor in expected]

    by_shard: dict[str, ShardAnswer] = {}
    for answer in answers:
        descriptor = roster.shard(answer.shard_id)  # raises on unknown shard
        if answer.shard_id in by_shard:
            raise VerificationError(
                f"duplicate contribution from shard {answer.shard_id!r}"
            )
        if answer.shard_id not in expected_ids:
            raise VerificationError(
                f"shard {answer.shard_id!r} contributed but its partition "
                f"{descriptor.box} is outside the query {query}"
            )
        by_shard[answer.shard_id] = answer

    covered_boxes: list[Box] = []
    missing: list[str] = []
    missing_boxes: list[Box] = []
    merged: dict = {}
    for descriptor in expected:
        answer = by_shard.get(descriptor.shard_id)
        expected_box = descriptor.box.intersection(query)
        if answer is None:
            missing.append(descriptor.shard_id)
            if expected_box is not None:
                missing_boxes.append(expected_box)
            continue
        check_shard_token(authenticator, roster, descriptor.shard_id, answer.token)
        if answer.box != expected_box:
            raise CompletenessError(
                f"shard {descriptor.shard_id!r} answered for {answer.box}, "
                f"roster obliges {expected_box}"
            )
        covered_boxes.append(answer.box)
        for record in answer.records:
            record_key = tuple(record.key)
            previous = merged.get(record_key)
            if previous is not None:
                if roster.kind == "range":
                    raise SoundnessError(
                        f"shards {descriptor.shard_id!r} and another both "
                        f"returned key {record_key} across disjoint partitions"
                    )
                if previous.value != record.value:
                    raise SoundnessError(
                        f"conflicting shard results for key {record_key}"
                    )
                continue
            merged[record_key] = record

    if missing and not allow_partial:
        raise CompletenessError(
            f"missing shard contribution(s) {missing} for partitions "
            f"{[str(b) for b in missing_boxes]}: refusing to merge an "
            f"incomplete answer (fail-closed; pass allow_partial for a "
            f"degraded read)"
        )
    if roster.kind == "range" and not missing:
        # Belt and braces: the per-shard boxes, together, must tile the
        # query exactly.  The roster's construction-time invariants make
        # this unreachable for a well-formed roster; the verifier checks
        # anyway because it is the trust boundary.
        if not boxes_cover_clipped(covered_boxes, query):
            raise CompletenessError(
                "shard contributions do not tile the query range exactly"
            )
    records = tuple(merged[record_key] for record_key in sorted(merged))
    if missing:
        return PartialResult(
            records=records,
            missing_shards=tuple(missing),
            missing_boxes=tuple(missing_boxes),
            covered_boxes=tuple(covered_boxes),
        )
    return list(records)
