"""One declarative builder for the three-party serving stack.

The paper's model has three parties: the DO outsources signed trees,
untrusted SPs answer, and users verify.  Drills, benches, examples and
the ``repro obs`` commands all need that model wired up, and differ
only in topology.  :func:`build_world` wires it once:

* the DO signs each table from ``(key, value, policy)`` rows — or, with
  ``shards``, range-shards the one table under a DO-signed roster;
* the user is registered with ``roles``;
* every table (or shard) is served by ``replicas`` SPs over a ``link``:
  ``"loopback"`` and ``"detached"`` hand frames to in-process servers
  (detached roots server spans in their own traces, as a socket would);
  ``"chaos"`` replicas are :class:`~repro.net.chaos.ChaosEndpoint`\\ s
  that cold-start from the DO's snapshot blobs on every (re)start;
* the client follows from the topology: sharded →
  :class:`~repro.net.sharding.ShardedClient`, several replicas →
  :class:`~repro.net.cluster.ReplicatedClient`, one →
  :class:`~repro.net.cluster.ResilientClient` (the same loop over one
  endpoint).  Extra keyword arguments
  go to that constructor unchanged.

Everything runs on one :class:`~repro.net.transport.FakeClock`, and each
component draws from its own ``random.Random`` derived from ``seed``:
the DO from ``seed``, every SP server from ``seed + 17``, the chaos
replica ``r`` of group ``g`` from ``seed + 10 * g + r``, a sharded
replica's freshness tokens from ``seed + 23``, and group ``g``'s client
from ``seed + 100 + g``.  One seed replays one exact world.
"""

from __future__ import annotations

import os
import random
import tempfile
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence

from repro.core.freshness import issue_shard_token, issue_token
from repro.core.messages import SPServer
from repro.core.records import Dataset, Record
from repro.core.system import DataOwner, QueryUser, ServiceProvider
from repro.crypto import get_backend
from repro.index.boxes import Domain
from repro.net.chaos import ChaosEndpoint
from repro.net.cluster import ReplicatedClient, ResilientClient
from repro.net.ingest import ServerIngest
from repro.net.server import ResilientSPServer
from repro.net.sharding import RangeShardMap, ShardedClient, ShardedTables, outsource_sharded
from repro.net.transport import FakeClock, LoopbackTransport
from repro.policy import RoleUniverse, parse_policy

LINKS = ("loopback", "detached", "chaos")

#: Seconds an overloaded chaos replica asks clients to back off.
RETRY_AFTER = 1.0


@dataclass
class World:
    """A built deployment: every party, every endpoint, one clock.

    ``endpoints`` maps each replica's name to its transport; ``groups``
    maps a table (or shard id) to the names serving it, which is also
    the group vocabulary a chaos schedule can target.  ``clients`` has
    one client per table.  ``trees`` are the DO's own signed trees of an
    unsharded world (a publisher updates them); ``sharding`` is the
    DO-side roster and per-shard providers of a sharded one.
    ``journals`` is a journaled world's temporary directory, holding one
    subdirectory per replica; :meth:`close` removes it with everything
    kept in it.
    """

    group: object
    owner: DataOwner
    user: QueryUser
    clock: FakeClock
    rows: Dict[str, tuple]
    endpoints: Dict[str, object]
    groups: Dict[str, list]
    clients: Dict[str, object]
    trees: Dict[str, object] = field(default_factory=dict)
    sharding: Optional[ShardedTables] = None
    journals: Optional[tempfile.TemporaryDirectory] = None

    def close(self) -> None:
        """Remove the journal directory, if this world has one."""
        if self.journals is not None:
            self.journals.cleanup()

    @property
    def client(self):
        """The client of a one-table world."""
        (client,) = self.clients.values()
        return client

    def truth(self, table: str) -> dict:
        """``{key: value}`` of the rows the user's roles may read."""
        return {
            key: value for key, value, policy in self.rows[table]
            if parse_policy(policy).evaluate(self.user.roles)
        }

    def replica_states(self) -> dict:
        """Client-side :class:`~repro.net.cluster.Endpoint` state by name.

        Empty for one-replica worlds, whose clients each keep one
        endpoint named ``"sp"``.
        """
        clusters = [c for c in self.clients.values()
                    if not isinstance(c, ResilientClient)]
        if self.sharding is not None:
            clusters = [c for client in clusters for c in client.shards.values()]
        return {
            name: state
            for cluster in clusters
            for name, state in cluster.endpoints.items()
        }


def _replica_name(sharded: bool, groups: int, g: int, r: int) -> str:
    if sharded:
        return f"s{g}r{r}"
    return f"sp{r}" if groups == 1 else f"p{g}r{r}"


def build_world(
    tables: Mapping[str, Sequence[tuple]],
    domain: tuple,
    *,
    seed: int,
    backend: str = "simulated",
    universe: Sequence[str] = ("analyst", "manager"),
    roles: Sequence[str] = ("analyst",),
    shards: int = 0,
    replicas: int = 1,
    link: str = "loopback",
    max_in_flight: Optional[int] = None,
    journal_limit: Optional[int] = None,
    **client_options,
) -> World:
    """Build the DO, the user, the serving topology and its clients.

    ``tables`` maps a table name to ``(key, value, policy)`` rows over
    the one-dimensional ``domain`` ``(lo, hi)``.  ``shards > 0``
    range-shards the single table into that many shards; otherwise each
    table gets its own replica group.  ``max_in_flight`` bounds each
    chaos replica's admission control.  ``journal_limit`` gives every
    chaos replica a write-ahead :class:`~repro.net.ingest.ServerIngest`
    (in the world's ``journals`` directory, torn tails repaired on
    restart; :meth:`World.close` removes it) and the DO signs each
    table's epoch-1 freshness token, which every cold start installs
    before journal recovery.
    """
    if link not in LINKS:
        raise ValueError(f"link must be one of {LINKS}, not {link!r}")
    if shards and (len(tables) != 1 or journal_limit is not None):
        raise ValueError("a sharded world serves one table, without a journal")
    group = get_backend(backend)
    role_universe = RoleUniverse(list(universe))
    owner_rng = random.Random(seed)
    owner = DataOwner(group, role_universe, rng=owner_rng)
    datasets = {}
    for name, rows in tables.items():
        dataset = Dataset(Domain.of(domain))
        for key, value, policy in rows:
            dataset.add(Record(key, value, parse_policy(policy)))
        datasets[name] = dataset

    sharding = None
    trees: Dict[str, object] = {}
    if shards:
        ((table, dataset),) = datasets.items()
        sharding = outsource_sharded(
            owner, table, dataset, RangeShardMap(shards), rng=owner_rng,
        )
        providers = sharding.providers
    else:
        provider = owner.outsource(datasets)
        trees = provider.trees
        providers = dict.fromkeys(datasets, provider)
    user = QueryUser(group, role_universe, owner.register_user(roles))
    tokens, journals = {}, None
    if journal_limit is not None:
        journals = tempfile.TemporaryDirectory(prefix="world-")
        tokens = {name: issue_token(owner.signer, name, 1, owner_rng) for name in trees}
    clock = FakeClock()

    def serve(provider) -> SPServer:
        return SPServer(provider, rng=random.Random(seed + 17))

    def factory(snapshots):
        def cold_start() -> SPServer:
            restored = ServiceProvider.from_snapshots(
                group, owner.universe, owner.mvk, owner.cpabe_public, snapshots,
            )
            for name in snapshots.keys() & tokens.keys():
                restored.set_freshness_token(name, tokens[name])
            return serve(restored)
        return cold_start

    def shard_tokens(shard_id):
        def tokens_at(epoch):
            return {sharding.roster.table: issue_shard_token(
                owner.signer, sharding.roster, shard_id, epoch=epoch,
                rng=random.Random(seed + 23),
            )}
        return tokens_at

    def ingest_engine(state_dir):
        def build(provider):
            return ServerIngest(
                provider, state_dir, journal_limit=journal_limit, fsync=False,
            )
        return build

    replica_sets: Dict[str, Dict[str, object]] = {}
    for g, (gid, provider) in enumerate(providers.items()):
        replica_sets[gid] = {}
        if link == "chaos":
            table = sharding.roster.table if shards else gid
            cold_start = factory({table: provider.snapshot_tables()[table]})
        for r in range(replicas):
            name = _replica_name(bool(shards), len(providers), g, r)
            if link == "chaos":
                journaled = journal_limit is not None
                transport = ChaosEndpoint(
                    name, cold_start, group,
                    rng=random.Random(seed + 10 * g + r), clock=clock,
                    max_in_flight=max_in_flight, retry_after=RETRY_AFTER,
                    token_factory=shard_tokens(gid) if shards else None,
                    ingest_factory=ingest_engine(
                        os.path.join(journals.name, name)
                    ) if journaled else None,
                    repair_torn_tail=journaled,
                )
            else:
                transport = LoopbackTransport(
                    ResilientSPServer(serve(provider)).handle_frame,
                    detach=link == "detached",
                )
            replica_sets[gid][name] = transport

    if shards:
        clients = {sharding.roster.table: ShardedClient(
            user, sharding.roster, sharding.roster_token, replica_sets,
            clock=clock, rng=random.Random(seed + 100), **client_options,
        )}
    else:
        clients = {}
        for g, (gid, replica_set) in enumerate(replica_sets.items()):
            rng = random.Random(seed + 100 + g)
            if replicas > 1:
                clients[gid] = ReplicatedClient(
                    user, replica_set, clock=clock, rng=rng, **client_options,
                )
            else:
                (transport,) = replica_set.values()
                clients[gid] = ResilientClient(
                    user, transport, clock=clock, rng=rng, **client_options,
                )
    return World(
        group=group, owner=owner, user=user, clock=clock,
        rows={name: tuple(rows) for name, rows in tables.items()},
        endpoints={
            name: transport for replica_set in replica_sets.values()
            for name, transport in replica_set.items()
        },
        groups={gid: list(replica_set) for gid, replica_set in replica_sets.items()},
        clients=clients,
        trees=trees, sharding=sharding, journals=journals,
    )
