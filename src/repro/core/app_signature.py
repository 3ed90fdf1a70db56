"""APP and APS signatures (paper Definitions 5.1 and 5.2).

* The **access-policy-preserving (APP)** signature of a record
  ``<o, v, Y>`` is ``ABS.Sign(sk_DO, hash(o)|hash(v), Y)``; for an index
  node it signs the grid box instead: ``ABS.Sign(sk_DO, hash(gb), p)``.
* The **access-policy-stripped (APS)** signature is derived *by the SP,
  without the signing key*, via ABS.Relax: it re-signs the same message
  under the user's super policy ``OR(A \\ A)`` — the weakest predicate the
  user still fails — proving inaccessibility without revealing why.

:class:`AppSigner` is the DO-side facade (holds the master keys);
:class:`AppAuthenticator` is key-less and shared by SP (relax) and user
(verify).
"""

from __future__ import annotations

import functools
import hashlib
import random
import threading
from typing import Callable, Iterable, Optional, Sequence

from repro.abs.batch import BatchItem, verify_or_find_invalid
from repro.abs.keys import AbsKeyPair, AbsSigningKey, AbsVerificationKey
from repro.abs.relax import relax
from repro.abs.scheme import AbsScheme, AbsSignature
from repro.core.records import Record
from repro.crypto.group import BilinearGroup
from repro.index.boxes import Box, Point
from repro.memo import BoundedMemo
from repro.obs import metrics as _metrics
from repro.parallel import InFlightTable
from repro.policy.boolexpr import BoolExpr, or_of_attrs
from repro.policy.roles import RoleUniverse

_REG = _metrics.registry()
_M_INFLIGHT = _REG.counter(
    "repro_relax_inflight_total",
    "In-flight relax-derivation flights by outcome: 'owner' began a new "
    "flight, 'dedup_hit' joined one already being derived for a "
    "concurrent query.",
    labelnames=("outcome",),
)
_M_INFLIGHT_FALLBACK = _REG.counter(
    "repro_relax_inflight_fallback_total",
    "Foreign in-flight relax waits that fell back to local derivation "
    "(owner errored or never published).",
)

#: One relax derivation: the APP signature, the message it covers, and
#: the predicate it was signed under.
RelaxRequest = tuple[AbsSignature, bytes, BoolExpr]

#: Accepted verifications a client's verified-entry memo keeps.  The
#: ``bn254_hot`` benchmark's three users see 23 distinct signatures; a
#: client whose entries never recur (fresh APS on every read) holds at
#: most this many 32-byte keys.
VERIFY_MEMO_SIZE = 32


def verify_memo_key(message: bytes, policy: BoolExpr, signature: AbsSignature) -> bytes:
    """SHA-256 of an injective encoding of ``(message, predicate text, signature bytes)``.

    ABS.Verify reads the predicate only through its span program, and the
    text fixes the span program (the only trees sharing a text are
    single-child gates around the same subtree, which compile to the same
    program).  Two triples share a key only if SHA-256 collides.
    """
    text = policy.to_string().encode()
    return hashlib.sha256(
        len(message).to_bytes(4, "big") + message
        + len(text).to_bytes(4, "big") + text
        + signature.to_bytes()
    ).digest()


@functools.lru_cache(maxsize=64)
def _super_policy(missing_roles: tuple[str, ...]) -> BoolExpr:
    """``OR(missing_roles)``, built once per attribute list.

    Building it validates every attribute name, which cost more per APS
    check than the verified-entry memo's key; the result is immutable.
    """
    return or_of_attrs(missing_roles)


class AppAuthenticator:
    """Key-less APP/APS operations: relaxation (SP) and verification (user)."""

    #: How long a query waits on a relax derivation owned by a concurrent
    #: query before giving up and deriving locally.  Generous: a single
    #: relax is tens of milliseconds; only a wedged owner hits this.
    INFLIGHT_WAIT_TIMEOUT = 60.0

    def __init__(
        self,
        group: BilinearGroup,
        universe: RoleUniverse,
        mvk: AbsVerificationKey,
        missing_override: Optional[Sequence[str]] = None,
    ):
        self.group = group
        self.universe = universe
        self.mvk = mvk
        self.scheme = AbsScheme(group)
        #: When set, APS derivations use this attribute list as the super
        #: predicate instead of the full ``A \ A`` — the hierarchical-role
        #: optimization (Section 8.1) plugs in its maximal-missing set here.
        self.missing_override = list(missing_override) if missing_override else None
        self._aps_cache: Optional[BoundedMemo] = None
        #: Guards the two counters below, which concurrent queries share.
        self._aps_count_lock = threading.Lock()
        self.aps_cache_hits = 0
        self.aps_cache_misses = 0
        #: Single-flight table for cross-query relax dedup: concurrent
        #: queries needing the same (signature, message, missing-role)
        #: derivation wait on one materialization instead of recomputing.
        self._relax_flights = InFlightTable()
        self._verify_memo: Optional[BoundedMemo] = None

    def enable_aps_cache(self, maxsize: int = 4096) -> None:
        """Cache derived APS signatures (SP-side optimization).

        An APS depends only on the original signature (keyed by its
        unique ``tau``), the message, and the super-policy attribute
        list, so the same (node, user-role-set) pair can reuse a prior
        derivation.  Re-serving an identical proof to an identical
        repeated request reveals nothing new (the requester already
        holds that exact proof); derivations for *different* role sets
        never share cache entries.
        """
        self._aps_cache = BoundedMemo(maxsize)
        with self._aps_count_lock:
            self.aps_cache_hits = 0
            self.aps_cache_misses = 0

    def enable_verify_memo(self, observe: Optional[Callable[[str], None]] = None) -> None:
        """Remember accepted verifications of decoded signatures (client side).

        ABS.Verify is a deterministic function of the mvk (fixed for this
        authenticator), the message, the claim predicate and the
        signature, so an entry keyed by :func:`verify_memo_key` that
        verified once verifies again.  Only acceptances are kept; a
        rejection is recomputed every time.  ``observe`` is told each
        memo ``"hit"``, ``"miss"`` and ``"evicted"``.
        """
        self._verify_memo = BoundedMemo(VERIFY_MEMO_SIZE, observe=observe)

    def warm_caches(self) -> None:
        """Precompute the per-mvk static material the hot paths reuse.

        Builds the G2 attribute base (and its comb table) for every role
        in the universe plus the comb for the message base ``g`` — the
        exponentiations every sign/relax/verify performs.  Idempotent;
        costs a few dozen milliseconds once on the real backend.
        """
        for role in self.universe.roles:
            # The attribute base is exponentiated in every span-program
            # column touching the role; pow_fixed(-, 1) builds its comb.
            self.group.pow_fixed(self.mvk.attribute_base(role), 1)
        self.group.pow_fixed(self.mvk.g, 1)
        self.group.pow_fixed(self.mvk.c, 1)

    # -- SP side ------------------------------------------------------------
    def aps_cache_key(
        self, signature: AbsSignature, message: bytes, missing_roles: Sequence[str]
    ) -> Optional[tuple]:
        """The APS cache key for a derivation, or ``None`` if uncached.

        An APS depends only on the original signature (keyed by its
        unique ``tau``), the message, and the super-policy attribute
        list, so these three identify a derivation exactly.
        """
        if self._aps_cache is None:
            return None
        return (signature.tau, message, tuple(missing_roles))

    def aps_cache_get(self, key: Optional[tuple]) -> Optional[AbsSignature]:
        """Cache lookup; counts a hit when found (miss counted at put)."""
        cache = self._aps_cache
        if cache is None or key is None:
            return None
        cached = cache.get(key)
        if cached is not None:
            self._count_aps(hits=1)
        return cached

    def aps_cache_put(self, key: Optional[tuple], aps: AbsSignature) -> None:
        """Record a fresh derivation (counts the miss; evicts LRU)."""
        cache = self._aps_cache
        if cache is None or key is None:
            return
        self._count_aps(misses=1)
        cache.put(key, aps, cache.generation)

    def _count_aps(self, hits: int = 0, misses: int = 0) -> None:
        with self._aps_count_lock:
            self.aps_cache_hits += hits
            self.aps_cache_misses += misses

    # -- cross-query single-flight dedup -------------------------------------
    def relax_begin(self, key: Optional[tuple]):
        """Claim (or join) the in-flight derivation for ``key``.

        Returns ``(slot, owner)``.  The owner must eventually
        :meth:`relax_publish` a value or error on the slot; non-owners
        :meth:`relax_wait` for it.  ``key=None`` (cache disabled) always
        owns: dedup is meaningless without a stable identity.
        """
        if key is None:
            return None, True
        slot, owner = self._relax_flights.begin(key)
        _M_INFLIGHT.inc(outcome="owner" if owner else "dedup_hit")
        return slot, owner

    def relax_publish(self, key: Optional[tuple], slot, value=None, error=None) -> None:
        if key is None or slot is None:
            return
        self._relax_flights.publish(key, slot, value=value, error=error)

    def relax_wait(self, slot, timeout: Optional[float] = None) -> AbsSignature:
        if timeout is None:
            timeout = self.INFLIGHT_WAIT_TIMEOUT
        return self._relax_flights.wait(slot, timeout)

    def derive_batch(
        self,
        requests: Sequence[RelaxRequest],
        missing_roles: Sequence[str],
        rng: Optional[random.Random] = None,
        run: Optional[Callable[[list], list]] = None,
    ) -> tuple[list[AbsSignature], int]:
        """The APS signature of every request, and the ABS.Relax calls run.

        Every relax derivation of the library goes through here:

        1. a cached APS is reused, and a request repeated within the
           batch shares its first occurrence's derivation; both count as
           cache hits;
        2. every other request claims its in-flight slot: the owner
           derives it, and a request a concurrent query owns waits for
           that query's result;
        3. the owned derivations run: inline in request order on ``rng``
           when ``run`` is ``None``, else ``run(jobs)`` is handed
           ``(request, seed)`` pairs, with seeds drawn from ``rng`` in
           request order, and returns their APS signatures in order;
        4. owned results are cached and published before any foreign
           flight is awaited, so two batches never wait on each other.
           A flight whose owner failed or timed out is derived locally.
        """
        out: list = [None] * len(requests)
        sharing: dict[tuple, list[int]] = {}
        owned: list = []
        foreign: list = []
        for index, (signature, message, _policy) in enumerate(requests):
            key = self.aps_cache_key(signature, message, missing_roles)
            if key is not None:
                cached = self.aps_cache_get(key)
                if cached is not None:
                    out[index] = cached
                    continue
                if key in sharing:
                    sharing[key].append(index)
                    self._count_aps(hits=1)
                    continue
                sharing[key] = [index]
            seed = rng.getrandbits(64) if run is not None and rng is not None else None
            slot, owner = self.relax_begin(key)
            (owned if owner else foreign).append((key, slot, index, seed))
        try:
            if run is None:
                results = [self._relax(requests[index], missing_roles, rng)
                           for _key, _slot, index, _seed in owned]
            else:
                results = run([(requests[index], seed) for _key, _slot, index, seed in owned])
        except BaseException as exc:
            for key, slot, _index, _seed in owned:
                self.relax_publish(key, slot, error=exc)
            raise
        for (key, slot, index, _seed), aps in zip(owned, results):
            self.aps_cache_put(key, aps)
            self.relax_publish(key, slot, value=aps)
            for position in sharing.get(key, (index,)):
                out[position] = aps
        relaxed = len(owned)
        for key, slot, index, seed in foreign:
            try:
                aps = self.relax_wait(slot)
            except Exception:
                # The owning query errored or never published: derive here
                # rather than fail a query that did nothing wrong.
                _M_INFLIGHT_FALLBACK.inc()
                job_rng = random.Random(seed) if seed is not None else rng
                aps = self._relax(requests[index], missing_roles, job_rng)
                relaxed += 1
                self.aps_cache_put(key, aps)
            for position in sharing[key]:
                out[position] = aps
        return out, relaxed

    def _relax(self, request: RelaxRequest, missing_roles: Sequence[str],
               rng: Optional[random.Random]) -> AbsSignature:
        signature, message, policy = request
        aps, _ = relax(self.scheme, self.mvk, signature, message, policy, missing_roles, rng)
        # The SP only ever serves an APS, so it keeps the wire encoding
        # alone (a fraction of the decoded points' memory), as the pool
        # path does.
        return AbsSignature.from_bytes(self.group, aps.to_bytes())

    def derive_aps(
        self,
        signature: AbsSignature,
        message: bytes,
        policy: BoolExpr,
        missing_roles: Sequence[str],
        rng: Optional[random.Random] = None,
    ) -> AbsSignature:
        """ABS.Relax an APP signature to the super policy ``OR(missing_roles)``."""
        return self.derive_batch([(signature, message, policy)], missing_roles, rng)[0][0]

    def missing_roles_for(self, user_roles) -> list[str]:
        """The super-predicate attribute list used for APS derivation."""
        if self.missing_override is not None:
            return list(self.missing_override)
        return self.universe.missing_roles(user_roles)

    def derive_record_aps(
        self,
        record: Record,
        signature: AbsSignature,
        user_roles,
        rng: Optional[random.Random] = None,
    ) -> AbsSignature:
        return self.derive_aps(
            signature,
            record.message(),
            record.policy,
            self.missing_roles_for(user_roles),
            rng,
        )

    def derive_node_aps(
        self,
        box: Box,
        node_policy: BoolExpr,
        signature: AbsSignature,
        user_roles,
        rng: Optional[random.Random] = None,
    ) -> AbsSignature:
        return self.derive_aps(
            signature,
            box.to_bytes(),
            node_policy,
            self.missing_roles_for(user_roles),
            rng,
        )

    # -- user side ----------------------------------------------------------
    def memo_generation(self) -> Optional[int]:
        """The verified-entry memo's generation, or ``None`` without a memo.

        Read it before :meth:`known` and pass it to :meth:`remember`, so
        that a memo cleared in between keeps nothing checked before.
        """
        memo = self._verify_memo
        return memo.generation if memo is not None else None

    def known(self, key: bytes) -> bool:
        """Whether the memo holds an accepted :func:`verify_memo_key`."""
        memo = self._verify_memo
        return memo is not None and memo.get(key) is not None

    def remember(self, keys: Iterable[bytes], generation: int) -> None:
        """Remember accepted entries' keys (see :meth:`memo_generation`)."""
        memo = self._verify_memo
        if memo is not None:
            for key in keys:
                memo.put(key, True, generation)

    def settle_failures(self, items: Sequence[BatchItem]) -> list[int]:
        """Indexes of the ``items`` whose signatures fail; ``[]`` when all hold.

        The one rule by which the library accepts a signature, in order:

        1. items the verified-entry memo already holds are skipped;
        2. every cold ``P_j`` must lie in G2, because the merged
           product's soundness depends on it (``docs/SECURITY.md``);
        3. the cold items are checked with one merged pairing product;
        4. only when it fails does per-signature ABS.Verify name the
           culprits (:func:`~repro.abs.batch.verify_or_find_invalid`).

        On success every checked key is remembered, unless the memo was
        cleared meanwhile.
        """
        generation = self.memo_generation()
        keys = None if generation is None else [
            verify_memo_key(item.message, item.policy, item.signature) for item in items
        ]
        cold = [i for i in range(len(items)) if keys is None or not self.known(keys[i])]
        if not cold:
            return []
        in_subgroup = self.group.in_subgroup
        outside = [i for i in cold if not all(in_subgroup(p) for p in items[i].signature.p)]
        if outside:
            return outside
        bad = verify_or_find_invalid(self.scheme, self.mvk, [items[i] for i in cold])
        if bad:
            return [cold[i] for i in bad]
        if keys is not None:
            self.remember((keys[i] for i in cold), generation)
        return []

    def _verify(self, message: bytes, policy: BoolExpr, signature: AbsSignature) -> bool:
        """Whether one signature settles (:meth:`settle_failures`)."""
        return not self.settle_failures([BatchItem(message, policy, signature)])

    def super_policy(self, user_roles, missing_roles: Sequence[str] | None = None) -> BoolExpr:
        """The predicate a user's APS signatures verify under: ``OR(A \\ A)``.

        The verifier rebuilds it from its *own* role set (it never sees a
        record's true policy).  ``missing_roles`` may be supplied for the
        hierarchical optimization (Section 8.1).
        """
        if missing_roles is None:
            missing_roles = self.universe.missing_roles(user_roles)
        return _super_policy(tuple(missing_roles))

    def verify_record(self, record: Record, signature: AbsSignature) -> bool:
        """Verify an accessible record's APP signature under its policy."""
        return self._verify(record.message(), record.policy, signature)

    def verify_inaccessible_record(
        self,
        key: Point,
        value_hash: bytes,
        user_roles,
        aps: AbsSignature,
        missing_roles: Sequence[str] | None = None,
    ) -> bool:
        """Verify an APS signature proving record inaccessibility."""
        message = Record.message_from_hash(key, value_hash)
        return self._verify(message, self.super_policy(user_roles, missing_roles), aps)

    def verify_inaccessible_node(
        self,
        box: Box,
        user_roles,
        aps: AbsSignature,
        missing_roles: Sequence[str] | None = None,
    ) -> bool:
        """Verify an APS signature proving a whole grid box is inaccessible."""
        return self._verify(box.to_bytes(), self.super_policy(user_roles, missing_roles), aps)


class AppSigner(AppAuthenticator):
    """DO-side APP signing: authenticator plus the master/signing keys."""

    def __init__(
        self,
        group: BilinearGroup,
        universe: RoleUniverse,
        keys: AbsKeyPair,
        rng: Optional[random.Random] = None,
    ):
        super().__init__(group, universe, keys.mvk)
        self.keys = keys
        # The DO signs with a key for the full role universe (pseudo role
        # included) so it satisfies every record policy.
        self.signing_key: AbsSigningKey = self.scheme.keygen(keys, universe.roles, rng)

    def warm_caches(self) -> None:
        """Additionally prebuild combs for the fixed signing-key bases."""
        super().warm_caches()
        grp = self.group
        grp.pow_fixed(self.signing_key.k_base, 1)
        grp.pow_fixed(self.signing_key.k0, 1)
        for component in self.signing_key.k.values():
            grp.pow_fixed(component, 1)

    def sign_record(self, record: Record, rng: Optional[random.Random] = None) -> AbsSignature:
        """APP signature of a record (Definition 5.1)."""
        self.universe.validate_policy(record.policy)
        return self.scheme.sign(self.mvk, self.signing_key, record.message(), record.policy, rng)

    def sign_node(
        self,
        box: Box,
        node_policy: BoolExpr,
        rng: Optional[random.Random] = None,
    ) -> AbsSignature:
        """APP signature of an index node over its grid box (Definition 6.1)."""
        self.universe.validate_policy(node_policy)
        return self.scheme.sign(self.mvk, self.signing_key, box.to_bytes(), node_policy, rng)
