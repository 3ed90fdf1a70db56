"""Three-party system orchestration: data owner, service provider, user.

This is the top-level public API (paper Figure 2):

* :class:`DataOwner` — generates all key material, signs the ADS
  (AP2G-trees of APP signatures), and issues user credentials;
* :class:`ServiceProvider` — key-less; answers equality/range/join
  queries by constructing VOs (deriving APS signatures with ABS.Relax)
  and sealing responses under the user's claimed roles;
* :class:`QueryUser` — decrypts, verifies soundness + completeness, and
  extracts the accessible records.

See ``examples/quickstart.py`` for an end-to-end walk-through.
"""

from __future__ import annotations

import random
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterable, Optional

from repro.abe.cpabe import CpAbeKeyPair, CpAbePublicKey, CpAbeScheme, CpAbeSecretKey
from repro.abe.hybrid import HybridEnvelope, decrypt_envelope, encrypt_for_roles
from repro.abs.keys import AbsVerificationKey
from repro.core.app_signature import AppAuthenticator, AppSigner
from repro.core.engine import (
    execute,
    traverse_equality,
    traverse_join,
    traverse_range,
    traverse_range_basic,
)
from repro.core.freshness import FreshnessToken
from repro.core.range_query import clip_query
from repro.core.records import Dataset, Record
from repro.core.verifier import JoinPair, verify_join_vo, verify_vo
from repro.core.vo import VerificationObject
from repro.crypto.group import BilinearGroup
from repro.errors import ReproError, WorkloadError
from repro.index.boxes import Box, Point
from repro.index.gridtree import APGTree
from repro.memo import BoundedMemo
from repro.obs import ledger as _ledger
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.policy.authoring.registry import PolicyRegistry
from repro.policy.roles import RoleHierarchy, RoleUniverse

_REG = _metrics.registry()
_M_AUTH_POOL = _REG.counter(
    "repro_sp_auth_pool_total",
    "Authenticator pool lookups by outcome (hit / miss / evicted).",
    labelnames=("outcome",),
)
_M_AUTH_POOL_SIZE = _REG.gauge(
    "repro_sp_auth_pool_size", "Authenticators currently pooled.",
)
_M_KEM_CACHE = _REG.counter(
    "repro_sp_kem_cache_total",
    "CP-ABE encapsulation cache lookups by outcome (hit / miss / evicted).",
    labelnames=("outcome",),
)
_M_QUERIES = _REG.counter(
    "repro_sp_queries_total", "Queries executed by the SP engine.",
    labelnames=("kind",),
)

#: Bound of each KEM cache: the role sets whose CP-ABE encapsulation an
#: SP reuses (also emptied on every epoch rotation, so one key serves at
#: most one epoch), and the response headers whose decapsulated key a
#: QueryUser keeps.  Each entry holds its key's envelope channel
#: (:class:`repro.crypto.aes.Channel`), so the channels are bounded too.
KEM_CACHE_SIZE = 64
_SEAL_COUNTERS = {"hit": "kem_hits", "miss": "kem_misses"}
_KEM_CACHE = {o: _M_KEM_CACHE.labels(outcome=o) for o in ("hit", "miss", "evicted")}
_AUTH_POOL = {o: _M_AUTH_POOL.labels(outcome=o) for o in ("hit", "miss", "evicted")}
_AUTH_POOL_SIZE = _M_AUTH_POOL_SIZE.labels()
_QUERIES = {kind: _M_QUERIES.labels(kind=kind) for kind in ("equality", "range", "join")}
_OPEN_COUNTERS = {"hit": "kem_memo_hits", "miss": "kem_memo_misses"}
_VERIFY_COUNTERS = {"hit": "verify_memo_hits", "miss": "verify_memo_misses"}


def _observe_seal(outcome: str) -> None:
    """SP-side KEM cache outcome: a metric, tallied for the query's seal record."""
    _KEM_CACHE[outcome].inc()
    if outcome != "evicted":
        _ledger.tally(_SEAL_COUNTERS[outcome])


def _observe_open(outcome: str) -> None:
    """Client-side header memo outcome, tallied for the exchange's ledger record."""
    if outcome != "evicted":
        _ledger.tally(_OPEN_COUNTERS[outcome])


def _observe_verify(outcome: str) -> None:
    """Client-side verified-entry memo outcome, tallied for the exchange's ledger record."""
    if outcome != "evicted":
        _ledger.tally(_VERIFY_COUNTERS[outcome])


@dataclass
class UserCredentials:
    """What the DO hands a registered user."""

    roles: frozenset[str]
    cpabe_key: CpAbeSecretKey
    mvk: AbsVerificationKey


@dataclass(frozen=True)
class TableView:
    """One consistent (tree, freshness token) pair, captured atomically.

    Live ingest rotates a table's tree and its freshness token at a
    single commit point (:meth:`ServiceProvider.install_table`); a query
    must capture *both* in one step so it can never pair epoch-N data
    with an epoch-N+1 token (or vice versa) while a rotation lands
    mid-query.
    """

    tree: APGTree
    freshness: Optional["FreshnessToken"] = None


@dataclass
class QueryResponse:
    """SP response: a (possibly sealed) VO for a clipped query box.

    ``freshness``, when present, is the DO-signed epoch token the SP
    attaches so clients can reject stale-snapshot replays; in sharded
    deployments it additionally binds the response to one shard at the
    roster's pinned epoch (see :mod:`repro.core.freshness`).
    """

    kind: str  # "equality" | "range" | "join"
    query: Box
    vo: Optional[VerificationObject] = None
    envelope: Optional[HybridEnvelope] = None
    freshness: Optional["FreshnessToken"] = None

    def byte_size(self) -> int:
        if self.envelope is not None:
            return self.envelope.byte_size()
        if self.vo is None:
            raise ReproError("response carries neither VO nor envelope")
        return self.vo.byte_size()


class DataOwner:
    """The data owner: key generation, ADS signing, credential issuance."""

    def __init__(
        self,
        group: BilinearGroup,
        universe: RoleUniverse,
        hierarchy: Optional[RoleHierarchy] = None,
        rng: Optional[random.Random] = None,
    ):
        from repro.abs.scheme import AbsScheme

        self.group = group
        self.universe = universe
        self.hierarchy = hierarchy
        self._rng = rng
        abs_scheme = AbsScheme(group)
        self._abs_keys = abs_scheme.setup(rng)
        self.signer = AppSigner(group, universe, self._abs_keys, rng)
        self._cpabe = CpAbeScheme(group)
        self._cpabe_keys: CpAbeKeyPair = self._cpabe.setup(rng)

    @property
    def mvk(self) -> AbsVerificationKey:
        return self._abs_keys.mvk

    @property
    def cpabe_public(self) -> CpAbePublicKey:
        return self._cpabe_keys.public

    def build_tree(self, dataset: Dataset) -> APGTree:
        """Sign an AP2G-tree over a dataset (the outsourced ADS).

        Records still missing a policy are signed under the pseudo-role
        deny-by-default policy.  Signing a tree exponentiates the same
        signing-key and attribute bases thousands of times, so the comb
        tables are prebuilt before the per-node work starts.
        """
        self.signer.warm_caches()
        return APGTree.build(dataset.resolve_policies(), self.signer, self._rng)

    def outsource(
        self,
        tables: Dict[str, Dataset],
        registry: Optional["PolicyRegistry"] = None,
    ) -> "ServiceProvider":
        """Build + sign every table's ADS and hand them to a fresh SP.

        With a ``registry`` (see :mod:`repro.policy.authoring`), each
        table's records are first assigned their declarative policies:
        records that already carry an explicit policy keep it, the rest
        get the registry's most-specific matching rule, and anything
        unmatched is denied by default.
        """
        if registry is not None:
            tables = {name: registry.apply(name, ds) for name, ds in tables.items()}
        trees = {name: self.build_tree(ds) for name, ds in tables.items()}
        return ServiceProvider(
            group=self.group,
            universe=self.universe,
            mvk=self.mvk,
            cpabe_public=self.cpabe_public,
            trees=trees,
            hierarchy=self.hierarchy,
        )

    def register_user(self, roles: Iterable[str]) -> UserCredentials:
        """Issue credentials: CP-ABE decryption key + ABS verification key.

        With a role hierarchy, the granted set is closed upward (holding a
        role implies holding its ancestors).
        """
        roles = frozenset(roles)
        if self.hierarchy is not None:
            roles = self.hierarchy.close_user_roles(roles)
        roles = self.universe.validate_user_roles(roles)
        key = self._cpabe.keygen(self._cpabe_keys, roles, self._rng)
        return UserCredentials(roles=roles, cpabe_key=key, mvk=self.mvk)


class ServiceProvider:
    """The (untrusted) service provider: answers authenticated queries.

    Queries run through the two-phase engine: a crypto-free traversal
    followed by proof materialization that runs ``ABS.Relax`` work inline
    or across ``workers`` process-pool workers.  APS derivations route
    through a pool of per-missing-role-set authenticators whose LRU
    caches persist across queries, so a repeated (node, role-set) proof
    is served from cache instead of re-derived.

    Sealed responses reuse one CP-ABE encapsulation per claimed role set
    (a bounded LRU, emptied on every epoch rotation); each response body
    still gets a fresh nonce.  The authenticator pool and that cache share
    one lock, so concurrent queries never see either half-updated.
    """

    def __init__(
        self,
        group: BilinearGroup,
        universe: RoleUniverse,
        mvk: AbsVerificationKey,
        cpabe_public: CpAbePublicKey,
        trees: Dict[str, APGTree],
        hierarchy: Optional[RoleHierarchy] = None,
        workers: Optional[int] = 1,
        aps_cache_size: int = 4096,
        auth_pool_size: int = 16,
    ):
        self.group = group
        self.universe = universe
        self.authenticator = AppAuthenticator(group, universe, mvk)
        self.cpabe_public = cpabe_public
        self._cpabe = CpAbeScheme(group)
        self.trees = dict(trees)
        self.hierarchy = hierarchy
        #: Where the materializer runs ``ABS.Relax`` batches: inline for
        #: 1, else on that many process-pool workers (``None`` auto-sizes
        #: from the host's CPU count).
        self.workers = workers
        self._aps_cache_size = aps_cache_size
        self._auth_pool_size = max(1, auth_pool_size)
        self._auth_pool: "OrderedDict[tuple, AppAuthenticator]" = OrderedDict()
        #: Guards the authenticator pool and the KEM cache.
        self._cache_lock = threading.Lock()
        self._kem_cache = BoundedMemo(KEM_CACHE_SIZE, self._cache_lock, _observe_seal)
        #: Current DO-issued freshness token per table, attached to every
        #: response for that table.  The SP cannot mint these (no signing
        #: key); the DO pushes a new one on each epoch rotation.
        self._freshness_tokens: Dict[str, FreshnessToken] = {}
        #: Guards the (tree, token) pair per table: rotation swaps both
        #: under this lock and queries capture both under it, so no query
        #: ever observes a half-applied rotation.
        self._table_lock = threading.Lock()

    # -- freshness -----------------------------------------------------------
    def set_freshness_token(self, table: str, token: Optional[FreshnessToken]) -> None:
        """Install (or clear, with ``None``) the table's current token."""
        with self._table_lock:
            if token is None:
                self._freshness_tokens.pop(table, None)
            else:
                self._freshness_tokens[table] = token
            self._kem_cache.clear()

    def freshness_token(self, table: str) -> Optional[FreshnessToken]:
        return self._freshness_tokens.get(table)

    def tree(self, table: str) -> APGTree:
        try:
            return self.trees[table]
        except KeyError:
            raise WorkloadError(f"unknown table {table!r}") from None

    def table_view(self, table: str) -> TableView:
        """Atomically capture the table's current (tree, token) pair."""
        with self._table_lock:
            try:
                tree = self.trees[table]
            except KeyError:
                raise WorkloadError(f"unknown table {table!r}") from None
            return TableView(tree=tree, freshness=self._freshness_tokens.get(table))

    def install_table(
        self, table: str, tree: APGTree, token: Optional[FreshnessToken]
    ) -> None:
        """The epoch-rotation commit point: swap tree *and* token at once.

        Queries already in flight finish against the :class:`TableView`
        they captured (the old consistent pair); queries that start
        after this call see only the new pair.  There is no intermediate
        state in which new data pairs with an old token.  It also empties
        the KEM cache, so no CP-ABE encapsulation outlives its epoch.
        """
        with self._table_lock:
            self.trees[table] = tree
            if token is None:
                self._freshness_tokens.pop(table, None)
            else:
                self._freshness_tokens[table] = token
            self._kem_cache.clear()

    # -- crash safety --------------------------------------------------------
    def snapshot_tables(self) -> Dict[str, bytes]:
        """Checkpoint every table as a checksummed snapshot blob.

        The blobs round-trip through :meth:`from_snapshots`; signatures
        are preserved bit-for-bit, so proofs generated after a restore
        verify identically to proofs generated before the crash.
        """
        from repro.core.persistence import snapshot_tree

        return {name: snapshot_tree(tree) for name, tree in self.trees.items()}

    @classmethod
    def from_snapshots(
        cls,
        group: BilinearGroup,
        universe: RoleUniverse,
        mvk: AbsVerificationKey,
        cpabe_public: CpAbePublicKey,
        snapshots: Dict[str, bytes],
        hierarchy: Optional[RoleHierarchy] = None,
    ) -> "ServiceProvider":
        """Cold-start an SP from checksummed snapshot blobs.

        Torn or corrupted snapshots are rejected with an offset-precise
        :class:`~repro.errors.DeserializationError` before the SP serves
        a single query (see ``docs/OPERATIONS.md``).
        """
        from repro.core.persistence import restore_snapshot

        trees = {name: restore_snapshot(group, blob) for name, blob in snapshots.items()}
        return cls(
            group=group,
            universe=universe,
            mvk=mvk,
            cpabe_public=cpabe_public,
            trees=trees,
            hierarchy=hierarchy,
        )

    def _missing_roles(self, roles) -> list[str]:
        if self.hierarchy is not None:
            return self.hierarchy.maximal_missing(self.universe, roles)
        return self.universe.missing_roles(roles)

    def authenticator_for(self, roles) -> AppAuthenticator:
        """The pooled authenticator for the user's missing-role set.

        Authenticators are keyed by the super-predicate attribute list
        (under a role hierarchy, the reduced maximal-missing set —
        Section 8.1), so their APS LRU caches survive across queries:
        consecutive requests from users with the same role coverage hit
        cached derivations instead of re-running ``ABS.Relax``.
        """
        missing = tuple(self._missing_roles(roles))
        pool = self._auth_pool
        with self._cache_lock:
            authenticator = pool.get(missing)
            if authenticator is None:
                _AUTH_POOL["miss"].inc()
                authenticator = AppAuthenticator(
                    self.group, self.universe, self.authenticator.mvk,
                    missing_override=list(missing),
                )
                if self._aps_cache_size > 0:
                    authenticator.enable_aps_cache(self._aps_cache_size)
                pool[missing] = authenticator
                if len(pool) > self._auth_pool_size:
                    pool.popitem(last=False)
                    _AUTH_POOL["evicted"].inc()
            else:
                _AUTH_POOL["hit"].inc()
                pool.move_to_end(missing)
            _AUTH_POOL_SIZE.set(len(pool))
        return authenticator

    def _respond(
        self,
        kind: str,
        query: Box,
        vo: VerificationObject,
        roles,
        encrypt: bool,
        rng: Optional[random.Random],
        freshness: Optional[FreshnessToken] = None,
    ) -> QueryResponse:
        if not encrypt:
            return QueryResponse(kind=kind, query=query, vo=vo, freshness=freshness)
        payload = vo.to_bytes()
        # One ledger record for the seal and its KEM cache outcome.  The
        # outcome is tallied on this thread and folded here; a client
        # exchange on the same thread (a loopback) starts its own tally
        # window after the round trip, so it never counts it again.
        tallied = _ledger.tally_snapshot()
        t0 = time.perf_counter()
        envelope = encrypt_for_roles(
            self._cpabe, self.cpabe_public, roles, payload, rng, cache=self._kem_cache
        )
        _ledger.ledger().record(
            _trace.current_trace_id(), {"seal": time.perf_counter() - t0},
            **_ledger.tally_since(tallied),
        )
        return QueryResponse(
            kind=kind, query=query, envelope=envelope, freshness=freshness,
        )

    def _execute(self, kind, traversal, roles, rng, workers) -> VerificationObject:
        """Validate roles, pick the pooled authenticator, run both phases."""
        effective_workers = self.workers if workers is None else workers
        with _trace.span("sp.query", kind=kind, workers=effective_workers or 0):
            _QUERIES[kind].inc()
            authenticator = self.authenticator_for(roles)
            user_roles = self.universe.validate_user_roles(roles)
            return execute(
                kind,
                traversal(user_roles),
                authenticator,
                user_roles,
                rng,
                effective_workers,
            )

    # -- queries -------------------------------------------------------------
    def equality_query(
        self,
        table: str,
        key: Point,
        roles,
        encrypt: bool = False,
        rng: Optional[random.Random] = None,
        workers: Optional[int] = None,
    ) -> QueryResponse:
        view = self.table_view(table)
        tree = view.tree
        key = tree.domain.validate_point(key)
        vo = self._execute(
            "equality",
            lambda user_roles: lambda: traverse_equality(tree, key, user_roles, table),
            roles, rng, workers,
        )
        return self._respond("equality", Box(key, key), vo, roles, encrypt, rng, view.freshness)

    def range_query(
        self,
        table: str,
        lo: Point,
        hi: Point,
        roles,
        method: str = "tree",
        encrypt: bool = False,
        rng: Optional[random.Random] = None,
        workers: Optional[int] = None,
    ) -> QueryResponse:
        view = self.table_view(table)
        tree = view.tree
        query = clip_query(tree, lo, hi)
        traverse = {"tree": traverse_range, "basic": traverse_range_basic}.get(method)
        if traverse is None:
            raise WorkloadError(f"unknown range method {method!r}")
        vo = self._execute(
            "range",
            lambda user_roles: lambda: traverse(tree, query, user_roles, table),
            roles, rng, workers,
        )
        return self._respond("range", query, vo, roles, encrypt, rng, view.freshness)

    def join_query(
        self,
        left_table: str,
        right_table: str,
        lo: Point,
        hi: Point,
        roles,
        encrypt: bool = False,
        rng: Optional[random.Random] = None,
        workers: Optional[int] = None,
    ) -> QueryResponse:
        left_view = self.table_view(left_table)
        tree_r = left_view.tree
        tree_s = self.table_view(right_table).tree
        query = clip_query(tree_r, lo, hi)
        vo = self._execute(
            "join",
            lambda user_roles: lambda: traverse_join(tree_r, tree_s, query, user_roles),
            roles, rng, workers,
        )
        return self._respond("join", query, vo, roles, encrypt, rng, left_view.freshness)


class QueryUser:
    """A registered user: opens responses and verifies them.

    Its authenticator remembers the VO entries it has accepted (see
    :meth:`AppAuthenticator.enable_verify_memo`), so a warm read re-checks
    only what it has not verified before; query-box containment, policy
    evaluation and tiling still run on every read.
    """

    def __init__(
        self,
        group: BilinearGroup,
        universe: RoleUniverse,
        credentials: UserCredentials,
        hierarchy: Optional[RoleHierarchy] = None,
    ):
        self.group = group
        self.universe = universe
        self.credentials = credentials
        self.hierarchy = hierarchy
        self.authenticator = AppAuthenticator(group, universe, credentials.mvk)
        self.authenticator.enable_verify_memo(_observe_verify)
        self._cpabe = CpAbeScheme(group)
        #: Each decapsulated key's envelope channel, by the header's exact
        #: wire bytes; per user, since it is only valid for this user's
        #: secret key.
        self._kem_memo = BoundedMemo(KEM_CACHE_SIZE, observe=_observe_open)

    @property
    def roles(self) -> frozenset[str]:
        return self.credentials.roles

    def _missing_roles(self) -> Optional[list[str]]:
        if self.hierarchy is not None:
            return self.hierarchy.maximal_missing(self.universe, self.roles)
        return None  # default A \ A inside the verifier

    def _open(self, response: QueryResponse) -> VerificationObject:
        if response.vo is not None:
            return response.vo
        if response.envelope is None:
            raise ReproError("response carries neither VO nor envelope")
        # One ledger record for the CP-ABE open and the VO decode, made
        # also when either fails.
        stages, stage, t0 = {}, "open", time.perf_counter()
        try:
            data = decrypt_envelope(
                self._cpabe, self.credentials.cpabe_key, response.envelope,
                cache=self._kem_memo,
            )
            stages["open"] = time.perf_counter() - t0
            stage, t0 = "codec", time.perf_counter()
            return VerificationObject.from_bytes(self.group, data)
        finally:
            stages[stage] = time.perf_counter() - t0
            _ledger.ledger().record(_trace.current_trace_id(), stages)

    def verify(self, response: QueryResponse) -> list[Record]:
        """Verify an equality/range response; returns accessible records."""
        vo = self._open(response)
        return verify_vo(
            vo, self.authenticator, response.query, self.roles, self._missing_roles()
        )

    def verify_join(self, response: QueryResponse) -> list[JoinPair]:
        """Verify a join response; returns verified result pairs."""
        vo = self._open(response)
        return verify_join_vo(
            vo, self.authenticator, response.query, self.roles, self._missing_roles()
        )
