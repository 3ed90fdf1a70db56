"""The three benchmark workloads, built only through the public API.

Each workload is a class whose constructor is the timed set-up (DO
signing, SP start, user registration, warm-up) and whose :meth:`op`
runs operation ``i`` of a seeded, endless operation stream.  Operation
``i`` depends only on the seed and ``i``, never on timing, so a run
that completes more operations than another still agrees with it on
every shared prefix.  Every verified answer is checked against a
plaintext oracle computed from the generating data.

Mixes are *stratified*: every aligned block of operations carries
exactly the workload's mix (query sizes, kinds, users), and the seed
only orders each block, draws the data and places the boxes.  A run's
statistics then measure the mix, not how one seed happened to sample
it.  The inputs that set the cost structure (policies, role sets) are
fixed per workload.

The stack is always ``ServiceProvider`` -> ``SPServer`` ->
``ResilientSPServer`` -> :class:`HandlerMeter` -> ``LoopbackTransport``
-> client.  Hedging is off (``hedge_percentile=None``): it fires on the
host's observed latency percentile, which would make the work a seed
performs depend on how fast the host is.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
import time

from repro.core.messages import SPServer
from repro.core.persistence import snapshot_tree
from repro.core.records import Dataset, Record
from repro.core.system import DataOwner, QueryUser, ServiceProvider
from repro.crypto import get_backend
from repro.index import Domain
from repro.index.boxes import Box
from repro.net import (
    FreshnessGuard,
    LoopbackTransport,
    RangeShardMap,
    ReplicatedClient,
    ResilientClient,
    ResilientSPServer,
    ServerIngest,
    ShardedClient,
    UpdatePublisher,
    outsource_sharded,
)
from repro.policy.policygen import PolicyGenerator
from repro.policy.roles import PSEUDO_ROLE
from repro.workload.queries import random_range
from repro.workload.tpch import TpchConfig, TpchGenerator

#: The SP's authenticator pool size and APS cache size
#: (``ServiceProvider`` defaults); the cold workload needs more
#: distinct role sets than the pool holds.
AUTH_POOL_SIZE = 16
APS_CACHE_SIZE = 4096

#: Seed for the inputs a workload fixes across seeds (policies, role
#: sets); 2018 is the evaluation harness's default.
SHAPE_SEED = 2018


class HandlerMeter:
    """Times the SP frame handler and sizes its responses.

    Sits between ``LoopbackTransport`` and ``ResilientSPServer.
    handle_frame``, so it measures exactly what runs inside the SP:
    thread CPU time (the paper's SP CPU) and the response frame bytes
    (the paper's VO size, plus framing and envelope).  The driver reads
    and resets the totals after every operation.
    """

    def __init__(self):
        self.cpu_s = 0.0
        self.bytes = 0

    def wrap(self, handler):
        def metered(request_frame: bytes) -> bytes:
            t0 = time.thread_time()
            reply = handler(request_frame)
            self.cpu_s += time.thread_time() - t0
            self.bytes += len(reply)
            return reply
        return metered

    def take(self) -> tuple[float, int]:
        out = (self.cpu_s, self.bytes)
        self.cpu_s, self.bytes = 0.0, 0
        return out


def _visible(records, box: Box, roles) -> list:
    """Oracle: the plaintext answer a user with ``roles`` must get."""
    return sorted(
        (tuple(r.key), r.value) for r in records
        if box.contains_point(tuple(r.key)) and r.policy.evaluate(roles)
    )


def _got(records) -> list:
    return sorted((tuple(r.key), r.value) for r in records)


def _block_item(tag: str, index: int, plan: list):
    """Item ``index`` of a stream that repeats ``plan`` in seeded orders.

    Every aligned block of ``len(plan)`` operations carries exactly the
    plan's mix; the seed (in ``tag``) only reorders each block.
    """
    block, slot = divmod(index, len(plan))
    order = list(plan)
    random.Random(f"{tag}:{block}").shuffle(order)
    return order[slot]


def _zipf_weights(n: int, s: float = 1.2) -> list[float]:
    weights = [1.0 / (k + 1) ** s for k in range(n)]
    total = sum(weights)
    return [w / total for w in weights]


def _apportion(weights: list[float], slots: int) -> list[int]:
    """Item indices filling ``slots`` in proportion to ``weights``
    (largest-remainder rounding)."""
    exact = [w * slots / sum(weights) for w in weights]
    counts = [int(x) for x in exact]
    by_remainder = sorted(range(len(weights)), key=lambda k: (counts[k] - exact[k], k))
    for k in by_remainder[: slots - sum(counts)]:
        counts[k] += 1
    return [k for k, count in enumerate(counts) for _ in range(count)]


def _log_spaced(lo: float, hi: float, n: int) -> list[float]:
    return [lo * (hi / lo) ** (k / (n - 1)) for k in range(n)]


def _distinct_role_sets(rng: random.Random, roles: list, count: int,
                        max_size: int) -> list[frozenset]:
    chosen: list[frozenset] = []
    seen = set()
    while len(chosen) < count:
        picked = frozenset(rng.sample(roles, rng.randint(1, max_size)))
        if picked not in seen:
            seen.add(picked)
            chosen.append(picked)
    return chosen


def _grantable(universe) -> list[str]:
    return [r for r in universe.roles if r != PSEUDO_ROLE]


class Workload:
    """Common surface the driver measures."""

    name = ""
    backend = ""
    #: Operations whose host-independent counts must repeat exactly for
    #: one seed; the driver runs at least this many whatever the clock.
    count_window = 0
    #: Operations in one block of the stratified mix; a run ends on a
    #: block boundary.
    block = 1
    #: Cold set-ups per run whose median is ``setup_s``; all but one in
    #: a fresh process.
    setup_runs = 7
    #: The latency percentile reported as ``latency_tail_ms``: the
    #: highest, in steps of 5, with at least 10 samples beyond it at the
    #: benchmark's run length on a 2-core host.
    tail_percentile = 95
    #: Live-ingest engines and DO-observed update latencies (seconds);
    #: empty for read-only workloads.
    ingests: tuple = ()
    update_latencies: tuple = ()

    def __init__(self, seed: int, scratch_dir: str, lap=None):
        self.seed = seed
        self.meter = HandlerMeter()
        self.servers: list[ResilientSPServer] = []
        self.scratch_dir = scratch_dir
        #: Called between the phases of a set-up, so the driver can
        #: price each phase at the host speed of its own moment.
        self.lap = lap or (lambda: None)

    def kind(self, i: int) -> str:
        """``"read"`` (a verified query) or ``"write"`` (an acked update)."""
        return "read"

    def op(self, i: int) -> bool:
        """Run operation ``i``; True when the answer matched the oracle."""
        raise NotImplementedError

    def sizes(self) -> dict:
        raise NotImplementedError

    def client_attempts(self) -> int:
        raise NotImplementedError

    def failovers(self) -> int:
        return 0

    def scatter_attempts(self) -> int:
        return 0

    def publisher(self):
        return None

    def close(self) -> None:
        pass

    def _serve(self, provider, rng_seed: int, ingest=None) -> LoopbackTransport:
        server = ResilientSPServer(
            SPServer(provider, rng=random.Random(rng_seed)), ingest=ingest
        )
        self.servers.append(server)
        return LoopbackTransport(self.meter.wrap(server.handle_frame))


class Q6Cold(Workload):
    """Paper-scale sealed Q6 boxes through a 2-shard scatter-gather.

    32 distinct role sets, issued round-robin in a seeded order, against
    an authenticator pool of 16: every user's authenticator was evicted
    by the time it queries again, so every query pays traversal and
    ``ABS.Relax`` from a cold APS cache.  Every block of 10 queries
    holds 8 boxes at fractions log-spaced over 0.1-1% of the domain
    and 2 equality probes.  The 10 policies and 32 role sets are fixed
    (they set the relax cost); the seed draws the Lineitem keys and
    rows, the box positions and the order of users and queries.
    """

    name = "q6_cold"
    backend = "simulated"
    count_window = 160
    block = 10
    tail_percentile = 95
    table = "lineitem"
    shape = (32, 8, 8)
    scale = 0.3
    role_sets = 32
    shards = 2
    plan = _log_spaced(0.001, 0.01, 8) + [None, None]

    def __init__(self, seed: int, scratch_dir: str, lap=None):
        super().__init__(seed, scratch_dir, lap)
        group = get_backend(self.backend)
        workload = PolicyGenerator(num_roles=10, num_policies=10, seed=SHAPE_SEED).generate()
        config = TpchConfig(scale=self.scale, shape=self.shape, seed=seed)
        self.records = list(TpchGenerator(config).lineitem(workload))
        self.domain = config.domain
        dataset = Dataset(self.domain, self.records)
        owner = DataOwner(group, workload.universe, rng=random.Random(seed))
        tables = outsource_sharded(
            owner, self.table, dataset, RangeShardMap(self.shards),
            rng=random.Random(seed + 1),
        )
        self.lap()
        transports = {
            shard_id: {f"{shard_id}r0": self._serve(provider, seed + 10 + n)}
            for n, (shard_id, provider) in enumerate(sorted(tables.providers.items()))
        }
        role_sets = _distinct_role_sets(
            random.Random(SHAPE_SEED), _grantable(workload.universe), self.role_sets, 3
        )
        random.Random(seed).shuffle(role_sets)
        self.users = []
        for n, role_set in enumerate(role_sets):
            user = QueryUser(group, workload.universe, owner.register_user(role_set))
            client = ShardedClient(
                user, tables.roster, tables.roster_token, transports,
                rng=random.Random(seed + 100 + n),
                cluster_options={"hedge_percentile": None},
            )
            self.users.append((user.roles, client))
        # Warm-up: one probe primes lazy imports and codec paths.
        self.users[-1][1].query_equality(self.table, self.records[0].key)

    def op(self, i: int) -> bool:
        rng = random.Random(f"q6:{self.seed}:{i}")
        fraction = _block_item(f"q6:{self.seed}", i, self.plan)
        roles, client = self.users[i % len(self.users)]
        if fraction is None:
            key = tuple(rng.randint(lo, hi) for lo, hi in self.domain.bounds)
            box = Box(key, key)
            got = client.query_equality(self.table, key)
        else:
            box = random_range(self.domain, fraction, rng)
            got = client.query_range(self.table, box.lo, box.hi)
        return _got(got) == _visible(self.records, box, roles)

    def sizes(self) -> dict:
        return {
            "records": len(self.records),
            "cells": self.domain.size(),
            "shape": list(self.shape),
            "scale": self.scale,
            "roles": 10,
            "policies": 10,
            "role_sets": self.role_sets,
            "auth_pool_size": AUTH_POOL_SIZE,
            "aps_cache_size": APS_CACHE_SIZE,
            "shards": self.shards,
            "replicas_per_shard": 1,
            "sealed": True,
        }

    def _clusters(self):
        for _roles, client in self.users:
            yield from client.shards.values()

    def client_attempts(self) -> int:
        return sum(
            ep.attempts for cluster in self._clusters()
            for ep in cluster.endpoints.values()
        )

    def failovers(self) -> int:
        return sum(cluster.counters.failovers for cluster in self._clusters())

    def scatter_attempts(self) -> int:
        return sum(client.counters.scatter_attempts for _r, client in self.users)


class Bn254Hot(Workload):
    """Real pairings on two tiny tables; the query set fits the SP caches.

    A fixed set of 6 ranges, 3 equality probes and 1 join over R and S,
    repeated Zipf-skewed (ranges 60%, equality 30%, joins 10%, Zipf
    within each class) for 3 users, well inside the 16-slot pool.
    Set-up runs every planned (query, user) pair once, verified, so both
    the SP's caches and the client's (the pairing cache among them) are
    warm and the measured loop is dominated by warm client verification
    and CP-ABE open.  The first verified answer of a pair costs 3 to 6
    times a warm one; left in the loop, those ten answers would be the
    run's whole tail.

    A verified BN254 answer takes up to a second, so a run sees only
    tens of queries.  For those to measure the same mix on every seed,
    the tables' keys and policies, the users and the query set are
    fixed, and the Zipf skew over (query, user) pairs is apportioned
    exactly within every block of 10 operations; the seed draws the
    record values and the order of each block.
    """

    name = "bn254_hot"
    backend = "bn254"
    count_window = 20
    tail_percentile = 85
    block = 10
    #: A BN254 set-up (signing, plus nine cold verified answers) takes
    #: over ten seconds; two keep the run inside its time.
    setup_runs = 2
    cells = 32
    r_records = 16
    s_records = 12
    user_count = 3

    def __init__(self, seed: int, scratch_dir: str, lap=None):
        super().__init__(seed, scratch_dir, lap)
        group = get_backend(self.backend)
        workload = PolicyGenerator(num_roles=4, num_policies=4, seed=SHAPE_SEED).generate()
        shape = random.Random(SHAPE_SEED)
        values = random.Random(seed)
        self.domain = Domain.of((0, self.cells - 1))
        self.records = {}
        for name, count in (("R", self.r_records), ("S", self.s_records)):
            self.records[name] = [
                Record(
                    (key,), f"{name}{key:02d}:{values.getrandbits(32):08x}".encode(),
                    workload.policies[shape.randrange(len(workload.policies))],
                )
                for key in sorted(shape.sample(range(self.cells), count))
            ]
        owner = DataOwner(group, workload.universe, rng=random.Random(seed))
        provider = owner.outsource({
            name: Dataset(self.domain, records) for name, records in self.records.items()
        })
        self.lap()
        transport = self._serve(provider, seed + 10)
        self.users = []
        role_sets = _distinct_role_sets(
            shape, _grantable(workload.universe), self.user_count, 2
        )
        for n, role_set in enumerate(role_sets):
            user = QueryUser(group, workload.universe, owner.register_user(role_set))
            client = ResilientClient(user, transport, rng=random.Random(seed + 100 + n))
            self.users.append((user.roles, client))
        self.queries = (
            [("range", random_range(self.domain, shape.uniform(0.1, 0.3), shape))
             for _ in range(6)]
            + [("equality", Box((k,), (k,)))
               for k in shape.sample([r.key[0] for r in self.records["R"]], 3)]
            + [("join", random_range(self.domain, 0.5, shape))]
        )
        weights = (
            [0.6 * w for w in _zipf_weights(6)]
            + [0.3 * w for w in _zipf_weights(3)]
            + [0.1]
        )
        users = _zipf_weights(self.user_count)
        pairs = [(q, u) for q in range(len(self.queries)) for u in range(self.user_count)]
        self.plan = [
            pairs[k] for k in _apportion([weights[q] * users[u] for q, u in pairs], self.block)
        ]
        # Warm-up: every planned pair once, verified and checked.
        for query, user in sorted(set(self.plan)):
            if not self._query(query, user):
                raise RuntimeError(f"warm-up query {query} of user {user} "
                                   "disagreed with the oracle")
            self.lap()

    def op(self, i: int) -> bool:
        return self._query(*_block_item(f"bn254:{self.seed}", i, self.plan))

    def _query(self, query: int, user: int) -> bool:
        roles, client = self.users[user]
        kind, box = self.queries[query]
        if kind == "join":
            pairs = client.query_join("R", "S", box.lo, box.hi)
            got = sorted((tuple(p.left.key), p.left.value, p.right.value) for p in pairs)
            right = {tuple(r.key): r.value for r in self.records["S"]
                     if r.policy.evaluate(roles)}
            want = sorted(
                (key, value, right[key])
                for key, value in _visible(self.records["R"], box, roles)
                if key in right
            )
            return got == want
        if kind == "equality":
            got = client.query_equality("R", box.lo)
        else:
            got = client.query_range("R", box.lo, box.hi)
        return _got(got) == _visible(self.records["R"], box, roles)

    def sizes(self) -> dict:
        return {
            "records": {name: len(recs) for name, recs in self.records.items()},
            "cells": {"R": self.cells, "S": self.cells},
            "roles": 4,
            "policies": 4,
            "role_sets": self.user_count,
            "distinct_queries": len(self.queries),
            "auth_pool_size": AUTH_POOL_SIZE,
            "aps_cache_size": APS_CACHE_SIZE,
            "shards": 1,
            "replicas_per_shard": 1,
            "sealed": True,
        }

    def client_attempts(self) -> int:
        return sum(client.counters.attempts for _r, client in self.users)


class IngestRw(Workload):
    """Live upserts, ZK deletes and rotations interleaved with reads.

    Operation ``i`` is a write when ``i % 3 == 2`` (1 write per 2
    reads); every 4th write is followed by an epoch rotation.  Writes go
    through ``UpdatePublisher`` to 2 journaling replicas (``fsync=True``
    as shipped); every block of 4 writes holds 1 ZK delete and 3
    upserts.  Reads go through a ``ReplicatedClient`` behind
    ``FreshnessGuard(max_age=1)`` and are checked against the shadow
    table of the epoch their freshness token names; every block of 10
    reads holds 7 boxes log-spaced over 2-8% of the domain and 3
    equality probes.  The policies and the reader's role set are fixed
    (one reader's access decides every VO's shape); the seed draws the
    table, the updates and the box positions.
    """

    name = "ingest_rw"
    backend = "simulated"
    count_window = 240
    #: 10 reads and 4 writes at 2 reads per write: 15 and 12 operations.
    block = 60
    #: Its set-up takes about 0.1 s, so more of them cost little.
    setup_runs = 7
    tail_percentile = 95
    table = "orders"
    side = 16
    #: Near the size where upserts into empty cells (3/4 of writes)
    #: balance deletes (1/4), so per-operation cost does not drift.
    initial_records = 170
    replicas = 2
    rotate_every = 4
    #: Small enough that a checkpoint (state snapshot + journal
    #: truncation) lands every few rotations, at least 3 per run.
    journal_limit = 24 * 1024
    read_plan = _log_spaced(0.02, 0.08, 7) + [None] * 3
    write_plan = ["delete", "upsert", "upsert", "upsert"]

    def __init__(self, seed: int, scratch_dir: str, lap=None):
        super().__init__(seed, scratch_dir, lap)
        group = get_backend(self.backend)
        workload = PolicyGenerator(num_roles=4, num_policies=4, seed=SHAPE_SEED).generate()
        self.policies = workload.policies
        rng = random.Random(seed + 2)
        self.domain = Domain.of((0, self.side - 1), (0, self.side - 1))
        self.live = {}
        for key in rng.sample(list(self.domain.box.points()), self.initial_records):
            self.live[key] = Record(
                key, f"v{0:06d}:{rng.getrandbits(32):08x}".encode(),
                self.policies[rng.randrange(len(self.policies))],
            )
        self.state_root = tempfile.mkdtemp(prefix="ingest-", dir=scratch_dir)
        owner = DataOwner(group, workload.universe, rng=random.Random(seed))
        tree = owner.build_tree(Dataset(self.domain, self.live.values()))
        snapshot = snapshot_tree(tree)
        self.lap()
        self._publisher = UpdatePublisher(
            owner.signer, self.table, tree, epoch=1,
            rng=random.Random(seed + 3),
            state_path=os.path.join(self.state_root, "publisher.state"),
        )
        token = self._publisher.issue_current_token()
        self.ingests = []
        transports = {}
        for n in range(self.replicas):
            provider = ServiceProvider.from_snapshots(
                group, workload.universe, owner.mvk, owner.cpabe_public,
                {self.table: snapshot},
            )
            provider.set_freshness_token(self.table, token)
            ingest = ServerIngest(
                provider, os.path.join(self.state_root, f"r{n}"),
                journal_limit=self.journal_limit,
            )
            self.ingests.append(ingest)
            name = f"r{n}"
            transports[name] = self._serve(provider, seed + 10 + n, ingest=ingest)
            self._publisher.attach(name, transports[name])
        self.roles = _distinct_role_sets(
            random.Random(SHAPE_SEED), _grantable(workload.universe), 1, 2
        )[0]
        user = QueryUser(group, workload.universe, owner.register_user(self.roles))
        self.guard = FreshnessGuard(
            user, self.table, lambda: self._publisher.epoch, max_age=1
        )
        self.client = ReplicatedClient(
            self.guard, transports, rng=random.Random(seed + 100),
            hedge_percentile=None,
        )
        self.epoch_shadows = {1: dict(self.live)}
        self.update_latencies: list[float] = []
        # Warm-up: one verified probe primes lazy imports and codec paths.
        self.client.query_equality(self.table, next(iter(self.live)))

    def kind(self, i: int) -> str:
        return "write" if i % 3 == 2 else "read"

    def op(self, i: int) -> bool:
        rng = random.Random(f"ingest:{self.seed}:{i}")
        if self.kind(i) == "write":
            return self._write(rng, i // 3)
        return self._read(rng, 2 * (i // 3) + i % 3)

    def _read(self, rng: random.Random, number: int) -> bool:
        fraction = _block_item(f"ingest-r:{self.seed}", number, self.read_plan)
        if fraction is None:
            key = tuple(rng.randrange(self.side) for _ in range(2))
            box = Box(key, key)
            got = self.client.query_equality(self.table, key)
        else:
            box = random_range(self.domain, fraction, rng)
            got = self.client.query_range(self.table, box.lo, box.hi)
        shadow = self.epoch_shadows.get(self.guard.last_epoch)
        return shadow is not None and _got(got) == _visible(shadow.values(), box, self.roles)

    def _write(self, rng: random.Random, number: int) -> bool:
        publisher = self._publisher
        t0 = time.perf_counter()
        if _block_item(f"ingest-w:{self.seed}", number, self.write_plan) == "delete":
            key = sorted(self.live)[rng.randrange(len(self.live))]
            publisher.delete(key)
            del self.live[key]
        else:
            key = tuple(rng.randrange(self.side) for _ in range(2))
            record = Record(
                key, f"v{publisher.seq + 1:06d}:{rng.getrandbits(32):08x}".encode(),
                self.policies[rng.randrange(len(self.policies))],
            )
            publisher.upsert(record)
            self.live[key] = record
        acked = all(publisher.lag(name) == 0 for name in publisher.endpoints)
        self.update_latencies.append(time.perf_counter() - t0)
        if number % self.rotate_every == self.rotate_every - 1:
            publisher.rotate()
            self.epoch_shadows[publisher.epoch] = dict(self.live)
            acked = acked and all(
                publisher.lag(name) == 0 for name in publisher.endpoints
            )
        return acked

    def sizes(self) -> dict:
        return {
            "records_initial": self.initial_records,
            "cells": self.domain.size(),
            "roles": 4,
            "policies": 4,
            "role_sets": 1,
            "auth_pool_size": AUTH_POOL_SIZE,
            "aps_cache_size": APS_CACHE_SIZE,
            "shards": 1,
            "replicas_per_shard": self.replicas,
            "journal_limit_bytes": self.journal_limit,
            "rotate_every_writes": self.rotate_every,
            "max_age_epochs": 1,
            "sealed": True,
        }

    def client_attempts(self) -> int:
        return sum(ep.attempts for ep in self.client.endpoints.values())

    def failovers(self) -> int:
        return self.client.counters.failovers

    def publisher(self):
        return self._publisher

    def close(self) -> None:
        for ingest in self.ingests:
            ingest.close()
        shutil.rmtree(self.state_root, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (Q6Cold, Bn254Hot, IngestRw)}
