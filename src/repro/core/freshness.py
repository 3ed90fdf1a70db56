"""Freshness tokens: preventing stale-ADS replay (extension beyond the paper).

The paper's SP proves soundness and completeness *relative to the signed
ADS it holds* — nothing stops a malicious SP from answering from an old
snapshot after the DO updated records (a replay/rollback attack, the
classic gap in signature-based ADS designs).

The standard countermeasure is a *freshness token*: the DO periodically
signs ``(tree_id, epoch)``; the SP must attach a recent token to every
response, and the user rejects responses whose token is older than its
staleness tolerance.  We reuse the ABS machinery so no extra key setup
is needed: the token is an ABS signature over the epoch message under
the predicate ``OR(universe)`` — satisfiable by every user's role set
plus the pseudo role, hence verifiable by anyone holding ``mvk``.

Epochs are integers supplied by the caller (e.g. minutes since the data
owner's reference clock); the library takes no position on clock sync
beyond the tolerance window.

**Shard rosters.**  When a table is partitioned across N SP shards,
freshness alone is not enough: a coordinator (or a Byzantine shard)
could silently *drop* a shard's contribution from a merged answer, or
serve one shard from an older epoch than the rest.  The countermeasure
is the same signing trick one level up: the DO signs the **shard
roster** — shard count, per-shard partition bounds, and the epoch each
shard is expected to serve — as a :class:`FreshnessToken` over the
roster's digest.  A client holding the verified roster can then check,
per response, that every expected shard contributed, that each shard's
attached token names *that shard* (``table@shard``) at *exactly* the
roster's epoch, and that the contributed ranges tile the query.  See
:func:`repro.core.verifier.verify_sharded` for the merged check and
:mod:`repro.net.sharding` for the serving topology.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.abs.batch import BatchItem
from repro.abs.scheme import AbsSignature
from repro.core.app_signature import AppAuthenticator, AppSigner
from repro.crypto.hashing import hash_bytes
from repro.errors import (
    DeserializationError,
    ReproError,
    StaleEpochError,
    VerificationError,
)
from repro.index.boxes import Box, Point, boxes_cover_exactly
from repro.policy.boolexpr import or_of_attrs


@dataclass(frozen=True)
class FreshnessToken:
    """A DO-signed statement: "tree ``tree_id`` is current at ``epoch``"."""

    tree_id: str
    epoch: int
    signature: AbsSignature

    def byte_size(self) -> int:
        return len(self.tree_id.encode()) + 8 + self.signature.byte_size()

    def to_bytes(self) -> bytes:
        tree = self.tree_id.encode()
        sig = self.signature.to_bytes()
        return (
            len(tree).to_bytes(4, "big") + tree
            + int(self.epoch).to_bytes(8, "big")
            + len(sig).to_bytes(4, "big") + sig
        )

    @classmethod
    def from_bytes(cls, group, data: bytes) -> "FreshnessToken":
        from repro.core.vo import _Reader

        reader = _Reader(data)
        tree_id = reader.take_bytes().decode()
        epoch = int.from_bytes(reader.take(8), "big")
        signature = AbsSignature.from_bytes(group, reader.take_bytes())
        if not reader.exhausted:
            raise DeserializationError("trailing bytes in freshness token")
        return cls(tree_id=tree_id, epoch=epoch, signature=signature)


def _epoch_message(tree_id: str, epoch: int) -> bytes:
    return hash_bytes(b"freshness", tree_id, epoch)


def _signed_by_owner(
    authenticator: AppAuthenticator, message: bytes, signature: AbsSignature
) -> bool:
    """Whether ``signature`` signs ``message`` under ``OR(universe)``.

    Settled like a VO entry (:meth:`AppAuthenticator.settle_failures`):
    a signature the caller's verified-entry memo holds costs no pairing.
    """
    policy = or_of_attrs(authenticator.universe.roles)
    return not authenticator.settle_failures([BatchItem(message, policy, signature)])


def issue_token(
    signer: AppSigner,
    tree_id: str,
    epoch: int,
    rng: Optional[random.Random] = None,
) -> FreshnessToken:
    """DO side: sign a freshness token for the current epoch."""
    policy = or_of_attrs(signer.universe.roles)
    signature = signer.scheme.sign(
        signer.mvk, signer.signing_key, _epoch_message(tree_id, epoch), policy, rng
    )
    return FreshnessToken(tree_id=tree_id, epoch=epoch, signature=signature)


def verify_token(
    authenticator: AppAuthenticator,
    token: FreshnessToken,
    now_epoch: int,
    max_age: int,
    expected_tree_id: Optional[str] = None,
) -> None:
    """User side: check a token's signature, binding, and age.

    ``authenticator`` is the caller's own (a user's, so a token it
    already accepted hits its verified-entry memo).  Raises
    :class:`VerificationError` on any failure:

    * the ABS signature is invalid (token forged);
    * the token names a different tree (cross-table replay);
    * ``now_epoch - token.epoch > max_age`` (stale snapshot) — raised as
      the :class:`~repro.errors.StaleEpochError` subclass, since a
      too-old-but-genuine token is lagging-replica evidence, not forgery;
    * the token is from the future beyond tolerance (clock abuse).
    """
    if expected_tree_id is not None and token.tree_id != expected_tree_id:
        raise VerificationError(
            f"freshness token for tree {token.tree_id!r}, expected {expected_tree_id!r}"
        )
    age = now_epoch - token.epoch
    if age > max_age:
        raise StaleEpochError(
            f"freshness token is {age} epochs old (tolerance {max_age})"
        )
    if age < -max_age:
        raise VerificationError("freshness token is from the future")
    if not _signed_by_owner(
        authenticator, _epoch_message(token.tree_id, token.epoch), token.signature
    ):
        raise VerificationError("freshness token signature invalid")


# ---------------------------------------------------------------------------
# Ingest-frame authentication (DO→SP control plane; see repro.net.ingest)
# ---------------------------------------------------------------------------

def _ingest_message(payload: bytes) -> bytes:
    return hash_bytes(b"ingest-frame", payload)


def sign_ingest_payload(
    signer: AppSigner, payload: bytes, rng: Optional[random.Random] = None
) -> bytes:
    """DO side: sign a serialized UPD/ROT frame for replication.

    The signature is over the payload bytes verbatim — table, sequence
    number, node replacements / token all included — under the same
    anyone-can-verify policy as freshness tokens, so every SP holding
    ``mvk`` can authenticate the control plane without extra key setup.
    """
    policy = or_of_attrs(signer.universe.roles)
    signature = signer.scheme.sign(
        signer.mvk, signer.signing_key, _ingest_message(payload), policy, rng
    )
    return signature.to_bytes()


def verify_ingest_payload(
    authenticator: AppAuthenticator,
    payload: bytes,
    signature_bytes: bytes,
) -> None:
    """SP side: authenticate an ingest frame before journaling/applying it.

    Raises :class:`VerificationError` when the signature does not verify
    under the DO's key — the frame came from some other reachable peer
    and must be dropped without touching the journal or the serving
    state.  Malformed signature bytes raise
    :class:`~repro.errors.DeserializationError`.
    """
    signature = AbsSignature.from_bytes(authenticator.group, signature_bytes)
    if not _signed_by_owner(authenticator, _ingest_message(payload), signature):
        raise VerificationError(
            "ingest frame signature does not verify under the DO's key"
        )


# ---------------------------------------------------------------------------
# Shard rosters (sharded serving; see repro.net.sharding)
# ---------------------------------------------------------------------------

#: Partitioning disciplines a roster can describe.
ROSTER_KINDS = ("range", "hash")


@dataclass(frozen=True)
class ShardDescriptor:
    """One shard's public identity: name, partition bounds, current epoch.

    ``box`` is the sub-range of the indexed domain the shard owns.  Under
    hash partitioning every shard's box is the full domain (records are
    scattered by key hash, so every shard must answer every range query);
    under range partitioning the boxes are disjoint and tile the domain.
    """

    shard_id: str
    box: Box
    epoch: int

    def __post_init__(self):
        if not self.shard_id:
            raise ReproError("shard_id must be non-empty")
        if self.epoch < 0:
            raise ReproError("shard epoch must be non-negative")

    def to_bytes(self) -> bytes:
        name = self.shard_id.encode()
        return (
            len(name).to_bytes(2, "big") + name
            + self.box.to_bytes()
            + int(self.epoch).to_bytes(8, "big")
        )


@dataclass(frozen=True)
class ShardRoster:
    """The DO's statement of how ``table`` is partitioned right now.

    The roster is what makes a multi-shard answer verifiable as a whole:
    it pins the shard count, each shard's partition bounds, and the
    epoch each shard must serve at.  It travels alongside a
    :class:`FreshnessToken` signed over :meth:`digest` (see
    :func:`issue_roster_token`), so a coordinator cannot drop, duplicate,
    or roll back a shard without the client noticing.
    """

    table: str
    version: int
    kind: str  # "range" | "hash"
    shards: tuple[ShardDescriptor, ...]

    def __post_init__(self):
        if self.kind not in ROSTER_KINDS:
            raise ReproError(f"unknown roster kind {self.kind!r}; know {ROSTER_KINDS}")
        if not self.shards:
            raise ReproError("a roster needs at least one shard")
        if self.version < 0:
            raise ReproError("roster version must be non-negative")
        ids = [shard.shard_id for shard in self.shards]
        if len(set(ids)) != len(ids):
            raise ReproError(f"duplicate shard ids in roster: {sorted(ids)}")
        if self.kind == "range":
            boxes = [shard.box for shard in self.shards]
            if not boxes_cover_exactly(boxes, self.domain_box):
                raise ReproError(
                    "range roster shards must be disjoint and tile the domain"
                )
        else:
            first = self.shards[0].box
            if any(shard.box != first for shard in self.shards[1:]):
                raise ReproError(
                    "hash roster shards must all declare the same (full) domain"
                )

    @property
    def domain_box(self) -> Box:
        """The full indexed domain the roster covers (bounding box)."""
        lo = tuple(
            min(s.box.lo[d] for s in self.shards)
            for d in range(self.shards[0].box.dims)
        )
        hi = tuple(
            max(s.box.hi[d] for s in self.shards)
            for d in range(self.shards[0].box.dims)
        )
        return Box(lo, hi)

    def shard(self, shard_id: str) -> ShardDescriptor:
        for descriptor in self.shards:
            if descriptor.shard_id == shard_id:
                return descriptor
        raise ReproError(f"unknown shard {shard_id!r} in roster for {self.table!r}")

    def shard_tree_id(self, shard_id: str) -> str:
        """The freshness ``tree_id`` binding a shard's tokens to *it*.

        Namespacing by both table and shard means one shard's (genuine)
        token can never stand in for another's — a duplicated or
        re-routed shard response is a :class:`VerificationError`, not a
        silent overlap.
        """
        self.shard(shard_id)  # validates membership
        return f"{self.table}@{shard_id}"

    def shards_for(self, query: Box) -> tuple[ShardDescriptor, ...]:
        """Every shard that must contribute to a range query over ``query``."""
        return tuple(s for s in self.shards if s.box.intersects(query))

    def shard_for_key(self, key: Point) -> ShardDescriptor:
        """The single shard owning ``key`` (equality-query routing)."""
        key = tuple(int(x) for x in key)
        if self.kind == "hash":
            digest = hash_bytes(b"shard-assign", self.table, *key)
            index = int.from_bytes(digest[:8], "big") % len(self.shards)
            return self.shards[index]
        for descriptor in self.shards:
            if descriptor.box.contains_point(key):
                return descriptor
        raise ReproError(f"no shard in roster covers key {key}")

    def to_bytes(self) -> bytes:
        out = bytearray()
        table = self.table.encode()
        out += len(table).to_bytes(2, "big") + table
        out += int(self.version).to_bytes(8, "big")
        out += bytes([ROSTER_KINDS.index(self.kind)])
        out += len(self.shards).to_bytes(2, "big")
        for shard in self.shards:
            out += shard.to_bytes()
        return bytes(out)

    def digest(self) -> bytes:
        return hash_bytes(b"shard-roster", self.to_bytes())

    def binding_id(self) -> str:
        """The tree-id a roster token signs: table + content digest.

        Folding the digest into the signed identity means *any* change to
        the roster — a dropped shard, widened bounds, a rolled-back
        per-shard epoch — invalidates the token.
        """
        return f"roster:{self.table}:{self.digest().hex()}"


def issue_roster_token(
    signer: AppSigner,
    roster: ShardRoster,
    rng: Optional[random.Random] = None,
) -> FreshnessToken:
    """DO side: sign the roster (its digest) at its version."""
    return issue_token(signer, roster.binding_id(), roster.version, rng)


def verify_roster_token(
    authenticator: AppAuthenticator,
    roster: ShardRoster,
    token: FreshnessToken,
    now_version: Optional[int] = None,
    max_age: int = 0,
) -> None:
    """Client side: check the roster token binds *this* roster content.

    ``now_version`` (when the client knows the current roster version
    out of band) bounds rollback the same way ``now_epoch`` does for
    plain freshness tokens; with the default ``None`` the check is
    content + signature only.
    """
    if token.epoch != roster.version:
        raise VerificationError(
            f"roster token is for version {token.epoch}, roster says "
            f"{roster.version}"
        )
    verify_token(
        authenticator, token,
        now_epoch=roster.version if now_version is None else now_version,
        max_age=max_age,
        expected_tree_id=roster.binding_id(),
    )


def issue_shard_token(
    signer: AppSigner,
    roster: ShardRoster,
    shard_id: str,
    epoch: Optional[int] = None,
    rng: Optional[random.Random] = None,
) -> FreshnessToken:
    """DO side: a shard's per-response token at its roster epoch.

    ``epoch`` defaults to the roster's; passing another value exists so
    drills can mint *genuinely signed but stale* tokens (the replay a
    rotated shard would serve) without forging signatures.
    """
    descriptor = roster.shard(shard_id)
    return issue_token(
        signer, roster.shard_tree_id(shard_id),
        descriptor.epoch if epoch is None else epoch, rng,
    )


def check_shard_token(
    authenticator: AppAuthenticator,
    roster: ShardRoster,
    shard_id: str,
    token: Optional[FreshnessToken],
) -> None:
    """Check one shard response's token against the roster.

    Raises :class:`VerificationError` when the token is missing, names a
    different shard (re-routed/duplicated contribution), is at the wrong
    epoch (stale or future shard), or fails signature verification.
    Exact-epoch matching is deliberate: the roster *pins* each shard's
    epoch, so there is no staleness tolerance to socially engineer.
    """
    descriptor = roster.shard(shard_id)
    if token is None:
        raise VerificationError(
            f"shard {shard_id!r} response carries no freshness token"
        )
    expected_tree = roster.shard_tree_id(shard_id)
    if token.tree_id != expected_tree:
        raise VerificationError(
            f"shard token names {token.tree_id!r}, expected {expected_tree!r}"
        )
    if token.epoch != descriptor.epoch:
        raise VerificationError(
            f"shard {shard_id!r} serves epoch {token.epoch}, roster pins "
            f"{descriptor.epoch} (stale or rolled-back shard)"
        )
    verify_token(
        authenticator, token,
        now_epoch=descriptor.epoch, max_age=0, expected_tree_id=expected_tree,
    )


__all__ = [
    "FreshnessToken",
    "ROSTER_KINDS",
    "ShardDescriptor",
    "ShardRoster",
    "check_shard_token",
    "issue_roster_token",
    "issue_shard_token",
    "issue_token",
    "verify_roster_token",
    "verify_token",
]
