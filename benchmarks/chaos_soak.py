"""Deterministic chaos/soak drill for the replicated SP serving stack.

Three replicas cold-started from the same snapshot blobs serve a
:class:`~repro.net.cluster.ReplicatedClient` while a seeded
:mod:`repro.net.chaos` schedule injects the failure modes an untrusted,
overloadable deployment actually exhibits:

* ``sp2`` tampers **persistently** from t=0 — the Byzantine replica;
* ``sp0`` crashes mid-run and later **restarts from its snapshot**
  (the ``repro.core.persistence`` cold-start path, under live traffic);
* an **overload burst** floods every replica's admission control, so
  the servers shed with typed ``overloaded`` frames and retry-after
  hints.

The drill runs entirely on a :class:`~repro.net.transport.FakeClock`
with seeded rngs, so one seed replays one exact history.  At the end it
asserts the paper-level invariants:

1. **soundness** — every result returned to the caller equals the known
   ground truth (it was cryptographically verified; a forged response
   can evict a replica but never reach the caller);
2. **availability** — at least ``AVAILABILITY_FLOOR`` of issued queries
   return verified while at least one honest replica is up;
3. **quarantine attribution** — the tampering endpoint ends the run
   quarantined with ≥ 1 ``tamper`` eviction; honest endpoints have
   **zero** tamper evictions;
4. **overload absorption** — the burst produces ``overloaded`` frames
   server-side and *zero* client-visible failures (the retry-after
   backoff absorbs it);
5. the crashed replica restarted from its snapshot and served again;
6. (when ``REPRO_OBS`` is on) the :class:`~repro.obs.slo.SLOMonitor`'s
   latency burn rate **flips above 1.0 during the overload burst and
   recovers after it drains**, measured in virtual seconds on the
   drill's clock.

The sharded drill additionally ends with a **traced acceptance query**:
every replica is switched to the process-pool relax backend, one query
runs, and the assembled cross-process trace must span the coordinator,
all three shards' server spans, the engine phases, and the pool's
worker spans, with the cost ledger's stage times explaining the query's
wall time to within 10%.  ``--scrape-lint`` additionally parses a
post-drill stats-frame scrape as Prometheus exposition.

``--sharded`` swaps in the scatter-gather drill: a 3-shard × 2-replica
topology served through :class:`~repro.net.sharding.ShardedClient` with
``allow_partial=True``, where one replica tampers, one serves a
genuinely-signed *stale* freshness token, and a whole shard crashes and
cold-restarts mid-run.  Its invariants add: every degraded answer is a
valid :class:`~repro.core.verifier.PartialResult` naming exactly the
dead shard, the stale replica is quarantined like a forger, and a set
of adversarial-coordinator sub-drills (dropped shard VO, stale shard
token, duplicated contribution) all die as verification-class errors.

``--ingest`` swaps in the **live-ingest drill**: two table partitions ×
two replicas each, every replica running the write-ahead
:class:`~repro.net.ingest.ServerIngest` engine, while both partitions'
:class:`~repro.net.ingest.UpdatePublisher` streams continuous upserts
and zero-knowledge deletes interleaved with verified queries.  The
schedule wedges one replica (crash *after* journal append, before
apply), tears another's journal tail after a crash, scrambles
(duplicates + re-delivers) the control plane, and partitions one
replica through several epoch rotations.  Its invariants: every
verified answer matches the ground-truth shadow table **of the epoch
its freshness token names**; availability ≥ ``AVAILABILITY_FLOOR``; no
answer older than ``INGEST_MAX_AGE`` epochs is ever accepted; the
wedged replica recovers the journaled-but-unapplied frame by replay;
the torn tail is repaired only via the explicit opt-in; duplicated
delivery is absorbed as ``duplicate`` acks; and the partitioned replica
catches up by replay without ever being tamper-quarantined (stale
answers are degraded-class, not Byzantine).  The epoch/rotation
trajectory lands in ``BENCH_ingest.json``.

Run:  PYTHONPATH=src python benchmarks/chaos_soak.py [--smoke] [--sharded]
          [--ingest] [--backend simulated|bn254] [--seed N] [--queries N]

``--smoke`` is the CI entry point: small query count, < 60 s, exit
status 1 on any invariant violation.
"""

import argparse
import json
import random
import sys
import tempfile
import time

from repro import obs
from repro.core.freshness import issue_shard_token
from repro.core.messages import SPServer
from repro.core.persistence import snapshot_tree
from repro.core.records import Dataset, Record
from repro.core.system import DataOwner, QueryUser, ServiceProvider
from repro.core.verifier import PartialResult, ShardAnswer, verify_sharded
from repro.crypto import get_backend
from repro.errors import CompletenessError, StaleEpochError, VerificationError
from repro.index import Domain
from repro.net import (
    ChaosController,
    ChaosEndpoint,
    FakeClock,
    FreshnessGuard,
    RangeShardMap,
    ReplicatedClient,
    RetryPolicy,
    ServerIngest,
    ShardedClient,
    UpdatePublisher,
    is_tamper_error,
    outsource_sharded,
    parse_schedule,
)
from repro.obs import ledger as obs_ledger
from repro.obs.metrics import parse_exposition
from repro.policy import RoleUniverse, parse_policy

AVAILABILITY_FLOOR = 0.99

#: The acceptance band for cost attribution: the ledger's staged total
#: must explain at least this share of the traced query's wall time.
LEDGER_COVERAGE_FLOOR = 0.9

#: Virtual seconds a query may take before the latency SLO counts it
#: bad.  Normal loopback queries take ~0 virtual time; only overload
#: backoff (retry-after >= 1.0 virtual seconds) crosses it.
SLO_LATENCY_THRESHOLD = 0.5
#: Burn-rate windows in virtual seconds.  The short window is no longer
#: than the overload burst: a query that eats the burst in backoff also
#: clears the short window of good events, so its burn spike is
#: independent of how densely the drill issues queries.
SLO_WINDOWS = (3.0, 12.0)


def build_slo_monitor(clock):
    """Burn-rate monitor on the drill's virtual clock (None when gated off)."""
    if not obs.enabled():
        return None
    return obs.SLOMonitor(
        [
            obs.SLO("query_latency", kind="latency", objective=0.95,
                    threshold=SLO_LATENCY_THRESHOLD),
            obs.SLO("query_availability", kind="availability", objective=0.99),
        ],
        windows=SLO_WINDOWS,
        clock=clock,
    )


def slo_outcome(monitor):
    """Snapshot + the flip/recovery verdicts (None when obs is gated off)."""
    if monitor is None:
        return None
    short = SLO_WINDOWS[0]
    return {
        "snapshot": monitor.snapshot(),
        "recovered": monitor.burn_rate("query_latency", short) < 1.0,
        "budget_ok": monitor.budget_remaining("query_availability") > 0.0,
    }

#: The drill script (virtual seconds).  sp2 is Byzantine for the whole
#: run; sp0 crash/restarts once; the overload burst hits every replica.
SCHEDULE = """
@0   tamper   sp2  rate=1.0        # the Byzantine replica
@20  crash    sp0
@30  restart  sp0                  # cold start from snapshot blobs
@45  overload *    load=64         # burst: admission control sheds
@48  calm     *
"""


def build_cluster(seed: int, backend: str, max_in_flight: int, retry_after: float):
    """DO outsources once; three replicas cold-start from the snapshots."""
    rng = random.Random(seed)
    group = get_backend(backend)
    universe = RoleUniverse(["analyst", "manager"])
    table = Dataset(Domain.of((0, 31)))
    table.add(Record((4,), b"forecast", parse_policy("analyst or manager")))
    table.add(Record((11,), b"salaries", parse_policy("manager")))
    table.add(Record((23,), b"minutes", parse_policy("analyst")))
    owner = DataOwner(group, universe, rng=rng)
    provider = owner.outsource({"docs": table})
    snapshots = provider.snapshot_tables()
    user = QueryUser(group, universe, owner.register_user(["analyst"]))
    truth = sorted([b"forecast", b"minutes"])

    clock = FakeClock()

    def factory():
        restored = ServiceProvider.from_snapshots(
            group, owner.universe, owner.mvk, owner.cpabe_public, snapshots,
        )
        return SPServer(restored, rng=random.Random(seed + 17))

    endpoints = {
        name: ChaosEndpoint(
            name, factory, group, rng=random.Random(seed + i),
            clock=clock, max_in_flight=max_in_flight, retry_after=retry_after,
        )
        for i, name in enumerate(("sp0", "sp1", "sp2"))
    }
    client = ReplicatedClient(
        user,
        dict(endpoints),
        policy=RetryPolicy(max_attempts=8, base_delay=0.02, deadline=30.0),
        clock=clock,
        rng=random.Random(seed + 100),
        quarantine_window=10_000.0,  # longer than the drill: stays quarantined
        failure_threshold=3,
        reset_timeout=8.0,
    )
    return client, endpoints, clock, truth


def run_drill(seed: int, backend: str, queries: int, verbose: bool):
    client, endpoints, clock, truth = build_cluster(
        seed, backend, max_in_flight=32, retry_after=1.0,
    )
    controller = ChaosController(
        parse_schedule(SCHEDULE), endpoints, clock=clock,
    )
    monitor = build_slo_monitor(clock)
    duration = 60.0  # virtual seconds; events live in [0, 48]
    step = duration / queries

    issued = verified = wrong = 0
    failures = []
    slo_flipped = False
    for i in range(queries):
        for event in controller.tick():
            if verbose:
                print(f"  [t={clock.now():5.1f}] chaos: {event.action} "
                      f"{event.target} {dict(event.params)}")
        issued += 1
        query_t0 = clock.now()
        ok = False
        try:
            records = client.query_range("docs", (0,), (31,), encrypt=False)
        except Exception as exc:  # noqa: BLE001 - tallied, then asserted on
            failures.append((i, clock.now(), type(exc).__name__))
        else:
            ok = True
            if sorted(r.value for r in records) == truth:
                verified += 1
            else:
                wrong += 1
        if monitor is not None:
            # Latency in *virtual* seconds: only retry/backoff sleeps move
            # the FakeClock inside a query, so the latency SLO goes bad
            # exactly when shed frames force retry-after waits.
            monitor.record(ok=ok, latency=clock.now() - query_t0)
            if monitor.burn_rate("query_latency", SLO_WINDOWS[0]) > 1.0:
                slo_flipped = True
        clock.advance(step)
    slo = slo_outcome(monitor)
    # Flush any events scheduled after the last query tick.
    clock.advance(duration)
    controller.tick()
    return {
        "client": client,
        "endpoints": endpoints,
        "issued": issued,
        "verified": verified,
        "wrong": wrong,
        "failures": failures,
        "slo": slo,
        "slo_flipped": slo_flipped,
    }


def check_invariants(outcome) -> list:
    """Every violated invariant as a human-readable string."""
    violations = []
    client = outcome["client"]
    endpoints = outcome["endpoints"]
    states = client.endpoints

    # 1. Soundness: nothing unverified/wrong ever reached the caller.
    if outcome["wrong"]:
        violations.append(
            f"soundness: {outcome['wrong']} returned results differed from "
            f"ground truth"
        )

    # 2. Availability under chaos.
    availability = outcome["verified"] / outcome["issued"]
    if availability < AVAILABILITY_FLOOR:
        violations.append(
            f"availability {availability:.4f} < {AVAILABILITY_FLOOR} "
            f"(failures: {outcome['failures']})"
        )

    # 3. Quarantine attribution: sp2 caught as Byzantine, honest replicas
    #    never evicted for tamper.
    if states["sp2"].evictions["tamper"] < 1:
        violations.append("sp2 tampered all run but was never tamper-evicted")
    if not states["sp2"].quarantined:
        violations.append("sp2 did not end the run quarantined")
    for name in ("sp0", "sp1"):
        if states[name].evictions["tamper"]:
            violations.append(
                f"honest endpoint {name} was tamper-evicted "
                f"{states[name].evictions['tamper']}x"
            )

    # 4. Overload absorption: servers shed, the client absorbed.
    shed = sum(ep.server.shed for ep in endpoints.values())
    if shed < 1:
        violations.append("overload burst never produced an OVERLOADED frame")
    if outcome["failures"]:
        violations.append(
            f"{len(outcome['failures'])} client-visible failures: "
            f"{outcome['failures'][:5]}"
        )
    if client.counters.overload_backoffs < 1:
        violations.append("client never honored a retry-after hint")

    # 5. The crash/restart cycle actually exercised the snapshot path.
    if endpoints["sp0"].restarts < 1:
        violations.append("sp0 never restarted from its snapshot")
    if states["sp0"].successes < 1:
        violations.append("sp0 never served a verified result")

    # 6. SLO burn rates: the burst flips the latency burn gauge, both
    #    recover after the drain (only checked when obs is enabled).
    violations.extend(check_slo(outcome))
    return violations


def check_slo(outcome) -> list:
    """SLO-monitor invariants shared by both drills (empty when gated off)."""
    slo = outcome["slo"]
    if slo is None:
        return []
    violations = []
    if not outcome["slo_flipped"]:
        violations.append(
            "overload burst never pushed the latency SLO's short-window "
            "burn rate above 1.0"
        )
    if not slo["recovered"]:
        violations.append(
            "latency SLO burn rate was still above 1.0 after the burst drained"
        )
    if not slo["budget_ok"]:
        violations.append(
            "availability SLO spent its whole error budget (client-visible "
            "failures leaked through the retry layer)"
        )
    return violations


# ---------------------------------------------------------------------------
# The sharded scatter-gather drill (--sharded)
# ---------------------------------------------------------------------------

TABLE = "docs"

#: 3 range shards × 2 replicas.  One replica forges, one lags at a
#: genuinely-signed stale epoch, and shard1 dies whole mid-run — the
#: unit-of-failure degraded-mode reads exist for.
SHARDED_SCHEDULE = """
@0   tamper   s2r0    rate=1.0   # Byzantine replica inside shard2
@8   stale    s1r1    epoch=0    # lagging replica: real signature, old epoch
@20  crash    shard1             # the whole shard goes dark
@30  restart  shard1             # cold start from snapshots (stale pin survives)
@40  fresh    s1r1
@44  overload *       load=64    # burst: every replica sheds with retry-after
@46  calm     *
"""

#: Analyst-visible ground truth by key (the ``manager``-only row at 11
#: is invisible to the drill's user and so outside the truth set).
SHARDED_ROWS = (
    ((4,), b"forecast", "analyst or manager"),
    ((11,), b"salaries", "manager"),
    ((23,), b"minutes", "analyst"),
    ((30,), b"okrs", "analyst"),
    ((40,), b"roadmap", "analyst"),
)


def build_sharded(seed: int, backend: str, max_in_flight: int,
                  retry_after: float):
    """DO shards once; every replica cold-starts from its shard's blobs."""
    rng = random.Random(seed)
    group = get_backend(backend)
    universe = RoleUniverse(["analyst", "manager"])
    dataset = Dataset(Domain.of((0, 47)))
    for key, value, policy in SHARDED_ROWS:
        dataset.add(Record(key, value, parse_policy(policy)))
    owner = DataOwner(group, universe, rng=rng)
    tables = outsource_sharded(owner, TABLE, dataset, RangeShardMap(3), rng=rng)
    user = QueryUser(group, universe, owner.register_user(["analyst"]))
    truth = {
        key: value for key, value, policy in SHARDED_ROWS
        if "analyst" in policy
    }
    snapshots = {
        sid: provider.snapshot_tables()
        for sid, provider in tables.providers.items()
    }
    clock = FakeClock()

    def shard_factory(shard_id):
        def factory():
            restored = ServiceProvider.from_snapshots(
                group, owner.universe, owner.mvk, owner.cpabe_public,
                snapshots[shard_id],
            )
            return SPServer(restored, rng=random.Random(seed + 17))
        return factory

    def shard_tokens(shard_id):
        def tokens(epoch):
            return {TABLE: issue_shard_token(
                owner.signer, tables.roster, shard_id, epoch=epoch,
                rng=random.Random(seed + 23),
            )}
        return tokens

    endpoints = {}
    groups = {}
    transports = {}
    for i, descriptor in enumerate(tables.roster.shards):
        shard_id = descriptor.shard_id
        transports[shard_id] = {}
        groups[shard_id] = []
        for r in range(2):
            name = f"s{i}r{r}"
            endpoint = ChaosEndpoint(
                name, shard_factory(shard_id), group,
                rng=random.Random(seed + 10 * i + r), clock=clock,
                max_in_flight=max_in_flight, retry_after=retry_after,
                token_factory=shard_tokens(shard_id),
            )
            endpoints[name] = endpoint
            transports[shard_id][name] = endpoint
            groups[shard_id].append(name)
    client = ShardedClient(
        user, tables.roster, tables.roster_token, transports,
        shard_policy=RetryPolicy(max_attempts=4, base_delay=0.02,
                                 deadline=8.0),
        clock=clock, rng=random.Random(seed + 100),
        allow_partial=True, scatter_retries=1,
        cluster_options=dict(
            quarantine_window=10_000.0, failure_threshold=3,
            reset_timeout=8.0,
        ),
    )
    return owner, tables, user, client, endpoints, groups, clock, truth


def adversarial_subdrills(owner, tables, user, client) -> list:
    """Attack the merge directly; every forgery must die typed."""
    violations = []
    query = tables.roster.domain_box
    answers = {}
    for descriptor in tables.roster.shards_for(query):
        sub = descriptor.box.intersection(query)
        answers[descriptor.shard_id] = client.shards[
            descriptor.shard_id
        ].query_range(TABLE, sub.lo, sub.hi)

    def merge(answer_list):
        return verify_sharded(tables.roster, query, answer_list, user.authenticator)

    # A coordinator silently dropping one shard's VO.
    try:
        merge([a for sid, a in answers.items() if sid != "shard1"])
        violations.append("dropped shard VO was accepted by the merge")
    except CompletenessError:
        pass
    # A rolled-back shard replaying a genuinely-signed stale token.
    stale = issue_shard_token(owner.signer, tables.roster, "shard1", epoch=0)
    honest = answers["shard1"]
    doctored = dict(answers)
    doctored["shard1"] = ShardAnswer(
        shard_id=honest.shard_id, box=honest.box, token=stale,
        records=honest.records,
    )
    try:
        merge(list(doctored.values()))
        violations.append("stale shard token was accepted by the merge")
    except VerificationError:
        pass
    # A duplicated shard contribution (double counting).
    try:
        merge(list(answers.values()) + [answers["shard0"]])
        violations.append("duplicated shard answer was accepted by the merge")
    except VerificationError:
        pass
    return violations


def _walk_spans(node):
    yield node
    for child in node.get("children") or ():
        yield from _walk_spans(child)


#: Span names one fully-observed scatter-gather query must produce,
#: from the coordinator down to the process-pool relax workers.
ACCEPTANCE_SPANS = (
    "shard.query",          # coordinator root
    "cluster.attempt",      # per-replica wire attempt
    "server.handle_frame",  # relayed server roots, grafted by suffix
    "sp.query",             # engine entry on the SP
    "engine.traverse",
    "engine.materialize",
    "parallel.worker",      # relayed process-pool relax workers
)


def traced_acceptance(client, endpoints):
    """One process-pool query, end to end, fully assembled and costed.

    This is the drill's observability acceptance check: after the chaos
    schedule has run dry, every live replica is switched to two
    process-pool relax workers and its warm authenticator pool dropped
    (so the query performs real relax work in worker processes), one
    full-range query is issued, and the assembled trace plus its cost
    ledger entry are checked for the shapes operators rely on —
    coordinator root, server spans from *every* shard, engine phases,
    worker spans, and stage times explaining the query's wall time.

    Returns ``(summary_or_None, violations)``; both are empty when the
    obs gate is off.
    """
    if not obs.enabled():
        return None, []
    saved = {}
    for name, endpoint in endpoints.items():
        provider = endpoint.server.server.provider
        saved[name] = provider.workers
        provider.workers = 2
        # Drop the pooled authenticators (and their warm APS caches): the
        # drill has run this exact query dozens of times, and a cache-hit
        # answer would leave the pool with nothing to do.
        provider._auth_pool.clear()
    try:
        result = client.query_range(TABLE, (0,), (47,), encrypt=False)
    finally:
        for name, endpoint in endpoints.items():
            provider = endpoint.server.server.provider
            provider.workers = saved[name]

    violations = []
    if isinstance(result, PartialResult):
        violations.append("acceptance query degraded to a PartialResult")
    tree = client.assemble_trace()
    if tree is None:
        return None, violations + [
            "acceptance query produced no assembled trace"
        ]
    spans = list(_walk_spans(tree))
    names = {span.get("name") for span in spans}
    for wanted in ACCEPTANCE_SPANS:
        if wanted not in names:
            violations.append(f"assembled trace has no {wanted!r} span")
    shards_seen = {
        (span.get("attributes") or {}).get("relay_origin", "").split("/")[0]
        for span in spans
        if span.get("name") == "server.handle_frame"
    }
    missing_shards = {d.shard_id for d in client.roster.shards} - shards_seen
    if missing_shards:
        violations.append(
            f"assembled trace lacks server spans from {sorted(missing_shards)}"
        )

    entry = obs_ledger.ledger().get(tree.get("trace_id"))
    summary = {
        "trace_id": tree.get("trace_id"),
        "spans": len(spans),
        "shards_seen": sorted(shards_seen - {""}),
        "worker_spans": sum(
            1 for span in spans if span.get("name") == "parallel.worker"
        ),
    }
    if entry is None or not entry.wall_seconds:
        violations.append("cost ledger has no entry for the acceptance trace")
        return summary, violations
    staged = entry.stage_total()
    wall = entry.wall_seconds
    summary["staged_ms"] = round(staged * 1e3, 2)
    summary["wall_ms"] = round(wall * 1e3, 2)
    summary["stages"] = {
        stage: round(seconds * 1e3, 2)
        for stage, seconds in entry.stages.items()
    }
    if not (LEDGER_COVERAGE_FLOOR * wall <= staged <= 1.1 * wall):
        violations.append(
            f"ledger stages sum to {staged * 1e3:.2f}ms, outside 10% of the "
            f"query's {wall * 1e3:.2f}ms wall time"
        )
    return summary, violations


def scrape_lint(endpoints) -> list:
    """Parse a post-drill stats-frame scrape; every defect is a string."""
    import os

    from repro.net.server import STATS_REQUEST, decode_stats_response
    from repro.net.transport import frame, unframe

    name, endpoint = sorted(endpoints.items())[0]
    reply = endpoint.server.handle_frame(frame(os.urandom(16), STATS_REQUEST))
    text = decode_stats_response(unframe(reply)[1])
    try:
        parsed = parse_exposition(text)
    except Exception as exc:  # noqa: BLE001 - the lint verdict
        return [f"scrape from {name} is not valid exposition: {exc}"]
    problems = []
    if not parsed:
        problems.append(f"scrape from {name} parsed to an empty registry")
    if obs.enabled():
        for wanted in ("repro_slo_burn_rate", "repro_obs_relay_spans_total",
                       "repro_server_frames_total"):
            if not any(key.split("{", 1)[0] == wanted for key in parsed):
                problems.append(
                    f"scrape from {name} is missing the {wanted} family"
                )
    return problems


def run_sharded_drill(seed: int, backend: str, queries: int, verbose: bool):
    (owner, tables, user, client, endpoints, groups, clock,
     truth) = build_sharded(seed, backend, max_in_flight=32, retry_after=1.0)
    controller = ChaosController(
        parse_schedule(SHARDED_SCHEDULE), endpoints, clock=clock,
        groups=groups,
    )
    monitor = build_slo_monitor(clock)
    duration = 60.0  # virtual seconds; events live in [0, 46]
    step = duration / queries

    issued = complete = partial = wrong = 0
    failures = []
    partial_shards = set()
    slo_flipped = False
    for i in range(queries):
        for event in controller.tick():
            if verbose:
                print(f"  [t={clock.now():5.1f}] chaos: {event.action} "
                      f"{event.target} {dict(event.params)}")
        issued += 1
        query_t0 = clock.now()
        ok = False
        try:
            result = client.query_range(TABLE, (0,), (47,), encrypt=False)
        except Exception as exc:  # noqa: BLE001 - tallied, then asserted on
            failures.append((i, clock.now(), type(exc).__name__))
        else:
            ok = True
            if isinstance(result, PartialResult):
                expected = sorted(
                    value for key, value in truth.items()
                    if not any(box.contains_point(key)
                               for box in result.missing_boxes)
                )
                if sorted(r.value for r in result.records) == expected:
                    partial += 1
                    partial_shards.update(result.missing_shards)
                else:
                    wrong += 1
            elif sorted(r.value for r in result) == sorted(truth.values()):
                complete += 1
            else:
                wrong += 1
        if monitor is not None:
            monitor.record(ok=ok, latency=clock.now() - query_t0)
            if monitor.burn_rate("query_latency", SLO_WINDOWS[0]) > 1.0:
                slo_flipped = True
        clock.advance(step)
    slo = slo_outcome(monitor)
    clock.advance(duration)
    controller.tick()
    acceptance, acceptance_violations = traced_acceptance(client, endpoints)
    subdrills = adversarial_subdrills(owner, tables, user, client)
    return {
        "client": client,
        "endpoints": endpoints,
        "issued": issued,
        "complete": complete,
        "partial": partial,
        "wrong": wrong,
        "failures": failures,
        "partial_shards": partial_shards,
        "subdrills": subdrills,
        "slo": slo,
        "slo_flipped": slo_flipped,
        "acceptance": acceptance,
        "acceptance_violations": acceptance_violations,
    }


def check_sharded_invariants(outcome) -> list:
    violations = []
    client = outcome["client"]
    states = {
        name: endpoint
        for shard in client.shards.values()
        for name, endpoint in shard.endpoints.items()
    }

    # 1. Soundness: zero forged or miscovered answers reached the caller.
    if outcome["wrong"]:
        violations.append(
            f"soundness: {outcome['wrong']} answers differed from ground "
            f"truth (restricted to their claimed coverage)"
        )

    # 2. Availability: complete answers plus *valid* partials.
    availability = (
        (outcome["complete"] + outcome["partial"]) / outcome["issued"]
    )
    if availability < AVAILABILITY_FLOOR:
        violations.append(
            f"availability {availability:.4f} < {AVAILABILITY_FLOOR} "
            f"(failures: {outcome['failures'][:5]})"
        )

    # 3. Degraded mode fired, and only for the shard that actually died.
    if outcome["partial"] < 1:
        violations.append("the shard-wide crash never produced a PartialResult")
    if outcome["partial_shards"] - {"shard1"}:
        violations.append(
            f"partials named shards {sorted(outcome['partial_shards'])}, "
            f"only shard1 was crashed"
        )

    # 4. Quarantine attribution: the forger and the stale replica are
    #    caught; every honest replica has a clean tamper record.
    if states["s2r0"].evictions["tamper"] < 1:
        violations.append("s2r0 forged all run but was never tamper-evicted")
    if states["s1r1"].evictions["tamper"] < 1:
        violations.append("stale replica s1r1 was never caught serving "
                          "its rolled-back epoch")
    for name in sorted(set(states) - {"s2r0", "s1r1"}):
        if states[name].evictions["tamper"]:
            violations.append(
                f"honest replica {name} was tamper-evicted "
                f"{states[name].evictions['tamper']}x"
            )

    # 5. The crashed shard restarted from snapshots and served again.
    for name in ("s1r0", "s1r1"):
        if outcome["endpoints"][name].restarts < 1:
            violations.append(f"{name} never restarted from its snapshot")
    if states["s1r0"].successes < 1:
        violations.append("s1r0 never served a verified result")

    # 6. The adversarial-coordinator sub-drills all died typed.
    violations.extend(outcome["subdrills"])

    # 7. SLO burn rates flipped on the burst and recovered (obs-gated).
    violations.extend(check_slo(outcome))

    # 8. The traced acceptance query assembled a full cross-shard trace
    #    whose ledger explains its wall time (obs-gated).
    violations.extend(outcome["acceptance_violations"])
    return violations


# ---------------------------------------------------------------------------
# Live-ingest drill: continuous updates + epoch rotation under chaos
# ---------------------------------------------------------------------------

#: Epoch-age tolerance for the ingest drill's FreshnessGuard.
INGEST_MAX_AGE = 1
#: Small on purpose: the drill must cross the checkpoint threshold many
#: times, exercising snapshot + journal truncation under load.
INGEST_JOURNAL_LIMIT = 4096

#: p0r0 is wedged (crash after journal append, before apply) and must
#: recover the frame by journal replay; p0r1 crashes and has its journal
#: tail torn (the power-cut artifact), recovered via the explicit
#: repair opt-in; p1r1 is partitioned through several epoch rotations
#: and must catch up by replay — never quarantine; scramble models
#: at-least-once delivery of the whole control plane.
INGEST_SCHEDULE = """
@5   scramble  *     rate=0.35   # duplicate + re-deliver UPD/ROT frames
@10  wedge     p0r0              # next ingest frame dies post-journal
@14  restart   p0r0              # checkpoint restore + journal replay
@18  scramble  *     rate=0.0
@20  partition p1r1              # replica misses >= 2 rotations
@38  rejoin    p1r1              # catch-up replay heals the lag
@42  crash     p0r1
@43  torn      p0r1  bytes=4     # torn journal tail (power cut)
@46  restart   p0r1              # explicit repair_torn_tail recovery
"""


def build_ingest_drill(seed: int, backend: str):
    """Two table partitions x two ingest-enabled replicas each."""
    rng = random.Random(seed)
    group = get_backend(backend)
    universe = RoleUniverse(["analyst", "manager"])
    owner = DataOwner(group, universe, rng=rng)
    tables = ("docs@p0", "docs@p1")
    domain = Domain.of((0, 15))
    policy = parse_policy("analyst or manager")

    initial, publishers, snapshots = {}, {}, {}
    publisher_dir = tempfile.mkdtemp(prefix="chaos-ingest-do-")
    for t_index, table in enumerate(tables):
        dataset = Dataset(domain)
        contents = {}
        for key in range(t_index, 12, 3):
            value = f"seed-{table}-{key}".encode()
            dataset.add(Record((key,), value, policy))
            contents[(key,)] = value
        tree = owner.build_tree(dataset)
        snapshots[table] = snapshot_tree(tree)
        publishers[table] = UpdatePublisher(
            owner.signer, table, tree, epoch=1,
            rng=random.Random(seed + 31 + t_index),
            state_path=f"{publisher_dir}/{t_index}.pub",
        )
        initial[table] = contents
    tokens = {table: publishers[table].issue_current_token() for table in tables}

    creds = owner.register_user(["analyst"])
    user = QueryUser(group, universe, creds)
    clock = FakeClock()

    endpoints = {}
    replicas = {table: [] for table in tables}
    for t_index, table in enumerate(tables):
        for r_index in (0, 1):
            name = f"p{t_index}r{r_index}"
            replicas[table].append(name)
            state_dir = tempfile.mkdtemp(prefix=f"chaos-ingest-{name}-")

            def factory(table=table):
                provider = ServiceProvider.from_snapshots(
                    group, universe, owner.mvk, owner.cpabe_public,
                    {table: snapshots[table]},
                )
                provider.set_freshness_token(table, tokens[table])
                return SPServer(provider, rng=random.Random(seed + 17))

            def ingest_factory(provider, state_dir=state_dir):
                return ServerIngest(
                    provider, state_dir,
                    journal_limit=INGEST_JOURNAL_LIMIT, fsync=False,
                )

            endpoints[name] = ChaosEndpoint(
                name, factory, group,
                rng=random.Random(seed + 7 + t_index * 2 + r_index),
                clock=clock, ingest_factory=ingest_factory,
                repair_torn_tail=True,
            )
            publishers[table].attach(name, endpoints[name])

    guards = {
        table: FreshnessGuard(
            user, table,
            (lambda table=table: publishers[table].epoch),
            max_age=INGEST_MAX_AGE,
        )
        for table in tables
    }
    clients = {
        table: ReplicatedClient(
            guards[table],
            {name: endpoints[name] for name in replicas[table]},
            policy=RetryPolicy(max_attempts=8, base_delay=0.02, deadline=30.0),
            clock=clock,
            rng=random.Random(seed + 100 + t_index),
            quarantine_window=10_000.0,
            failure_threshold=3,
            reset_timeout=8.0,
        )
        for t_index, table in enumerate(tables)
    }
    return {
        "tables": tables,
        "publishers": publishers,
        "guards": guards,
        "clients": clients,
        "endpoints": endpoints,
        "clock": clock,
        "initial": initial,
        "user": user,
        "creds": creds,
        "owner": owner,
        "seed": seed,
    }


def run_ingest_drill(seed: int, backend: str, steps: int, verbose: bool):
    ctx = build_ingest_drill(seed, backend)
    tables = ctx["tables"]
    publishers, guards = ctx["publishers"], ctx["guards"]
    clients, endpoints, clock = ctx["clients"], ctx["endpoints"], ctx["clock"]
    controller = ChaosController(
        parse_schedule(INGEST_SCHEDULE), endpoints, clock=clock,
    )
    monitor = build_slo_monitor(clock)
    duration = 60.0
    step_dt = duration / steps
    rotate_every = max(2, steps // 10)
    mutate_rng = random.Random(seed + 55)
    probe_rng = random.Random(seed + 56)

    # Ground truth: the live shadow table per partition, snapshotted at
    # every rotation — a verified answer must match the snapshot *of the
    # epoch its freshness token names*, not merely some recent state.
    live = {table: dict(ctx["initial"][table]) for table in tables}
    epoch_shadows = {table: {1: dict(ctx["initial"][table])} for table in tables}

    issued = verified = 0
    wrong, failures, ages = [], [], []
    updates = {"upsert": 0, "delete": 0}
    rotations = []
    stale_probe = None
    saw_partition = False

    def probe_rejoined_replica():
        # Straight after rejoin (before the next catch-up push) the
        # replica still serves its pre-partition epoch.  Probe it
        # directly: the genuinely-signed-but-old answer must classify
        # stale (degraded), never tamper (Byzantine).
        table = tables[1]
        provider = endpoints["p1r1"].server.server.provider
        response = provider.range_query(
            table, (0,), (15,), ctx["creds"].roles,
            rng=probe_rng, encrypt=False,
        )
        try:
            guards[table].verify(response)
        except StaleEpochError as exc:
            return {"raised": True, "tamper_class": is_tamper_error(exc)}
        except Exception as exc:  # noqa: BLE001 - recorded verbatim
            return {"raised": False, "unexpected": type(exc).__name__}
        return {"raised": False}

    for i in range(steps):
        for event in controller.tick():
            if verbose:
                print(f"  [t={clock.now():5.1f}] chaos: {event.action} "
                      f"{event.target} {dict(event.params)}")

        # Events also fire mid-query (retry sleeps advance the clock and
        # ChaosEndpoint ticks the controller per exchange), so detect the
        # partition/rejoin transition by observing endpoint state rather
        # than by catching the event.  The probe runs before this step's
        # mutation, i.e. before any catch-up push could heal the lag.
        if endpoints["p1r1"].partitioned:
            saw_partition = True
        elif saw_partition and stale_probe is None:
            stale_probe = probe_rejoined_replica()

        # -- continuous ingest: one mutation per step, alternating table
        table = tables[i % 2]
        publisher = publishers[table]
        real_keys = sorted(live[table])
        if i % 5 == 4 and real_keys:
            key = real_keys[mutate_rng.randrange(len(real_keys))]
            publisher.delete(key)  # zero-knowledge delete
            live[table].pop(key)
            updates["delete"] += 1
        else:
            key = (mutate_rng.randrange(16),)
            value = f"v{publisher.seq + 1}@{i}".encode()
            publisher.upsert(Record(key, value,
                                    parse_policy("analyst or manager")))
            live[table][key] = value
            updates["upsert"] += 1

        # -- epoch rotation: both partitions, every rotate_every steps
        if (i + 1) % rotate_every == 0:
            for rotated in tables:
                publishers[rotated].rotate()
                epoch = publishers[rotated].epoch
                epoch_shadows[rotated][epoch] = dict(live[rotated])
                rotations.append(
                    {"t": round(clock.now(), 1), "table": rotated,
                     "epoch": epoch, "seq": publishers[rotated].seq}
                )

        # -- a concurrent verified query against the *other* partition
        qtable = tables[(i + 1) % 2]
        issued += 1
        query_t0 = clock.now()
        ok = False
        try:
            records = clients[qtable].query_range(
                qtable, (0,), (15,), encrypt=False
            )
        except Exception as exc:  # noqa: BLE001 - tallied, then asserted on
            failures.append((i, round(clock.now(), 1), type(exc).__name__))
        else:
            ok = True
            answer_epoch = guards[qtable].last_epoch
            ages.append(publishers[qtable].epoch - answer_epoch)
            expected = epoch_shadows[qtable].get(answer_epoch)
            got = sorted((tuple(r.key), r.value) for r in records)
            if expected is None or got != sorted(expected.items()):
                wrong.append((i, qtable, answer_epoch))
            else:
                verified += 1
        if monitor is not None:
            monitor.record(ok=ok, latency=clock.now() - query_t0)
        clock.advance(step_dt)

    # Flush trailing events, then close the books: one final rotation and
    # push per partition proves every replica — including the one that
    # sat out several epochs — converges to lag 0 by catch-up replay.
    clock.advance(duration)
    controller.tick()
    if stale_probe is None and not endpoints["p1r1"].partitioned:
        stale_probe = probe_rejoined_replica()
    final_sync = {}
    for table in tables:
        publishers[table].rotate()
        epoch_shadows[table][publishers[table].epoch] = dict(live[table])
        final_sync[table] = publishers[table].push_all()

    # With every replica converged, the replay log compacts to zero, and
    # a reborn DO process restored from the durable cursor file must
    # agree with every SP watermark and keep replicating — the two
    # operator moves (bounding memory, surviving a DO restart) the
    # publisher state file exists for.
    compaction, failover = {}, {}
    for t_index, table in enumerate(tables):
        publisher = publishers[table]
        dropped = publisher.compact()
        compaction[table] = {
            "dropped": dropped, "log_len": len(publisher.log),
        }
        reborn = UpdatePublisher(
            ctx["owner"].signer, table, publisher.tree,
            rng=random.Random(ctx["seed"] + 77 + t_index),
            state_path=publisher.state_path,
        )
        for name, endpoint in publisher.endpoints.items():
            reborn.attach(name, endpoint)
        reborn.push_all()
        failover[table] = {
            "cursor_restored": (reborn.seq, reborn.epoch)
            == (publisher.seq, publisher.epoch),
            "max_lag": max(reborn.lag(name) for name in reborn.endpoints),
        }

    # Each endpoint's most recent cold start: restart counts come from the
    # endpoint, replay/repair facts from the recovery the rebuild ran.
    recoveries = [
        {"endpoint": name, "restarts": ep.restarts,
         **ep.server.ingest.last_recovery}
        for name, ep in endpoints.items()
    ]
    return {
        "tables": tables,
        "publishers": publishers,
        "clients": clients,
        "endpoints": endpoints,
        "issued": issued,
        "verified": verified,
        "wrong": wrong,
        "failures": failures,
        "ages": ages,
        "updates": updates,
        "rotations": rotations,
        "recoveries": recoveries,
        "stale_probe": stale_probe,
        "final_sync": final_sync,
        "compaction": compaction,
        "failover": failover,
        "slo": slo_outcome(monitor),
    }


def check_ingest_invariants(outcome) -> list:
    violations = []
    publishers = outcome["publishers"]
    endpoints = outcome["endpoints"]

    # 1. Soundness against the per-epoch shadow tables.
    if outcome["wrong"]:
        violations.append(
            f"soundness: {len(outcome['wrong'])} verified answers differed "
            f"from the shadow table of their epoch: {outcome['wrong'][:5]}"
        )

    # 2. Availability under ingest chaos.
    availability = outcome["verified"] / outcome["issued"]
    if availability < AVAILABILITY_FLOOR:
        violations.append(
            f"availability: {availability:.4f} < {AVAILABILITY_FLOOR} "
            f"(failures: {outcome['failures'][:5]})"
        )

    # 3. Epoch freshness: no accepted answer older than the tolerance.
    if outcome["ages"] and max(outcome["ages"]) > INGEST_MAX_AGE:
        violations.append(
            f"freshness: accepted an answer {max(outcome['ages'])} epochs "
            f"old (tolerance {INGEST_MAX_AGE})"
        )

    # 4. The wedged replica (p0r0) restarted and recovered its
    #    journaled-but-unapplied frame by replay.
    recovery = {r["endpoint"]: r for r in outcome["recoveries"]}
    if recovery["p0r0"]["restarts"] < 1 or recovery["p0r0"]["replayed"] < 1:
        violations.append(
            f"journal replay: p0r0 cold start replayed nothing "
            f"({recovery['p0r0']})"
        )

    # 5. The torn tail on p0r1 was repaired via the explicit opt-in.
    if (recovery["p0r1"]["restarts"] < 1
            or recovery["p0r1"]["repaired_offset"] is None):
        violations.append(
            f"torn tail: p0r1 recovery never repaired a torn journal "
            f"({recovery['p0r1']})"
        )

    # 6. At-least-once delivery was exercised and absorbed idempotently.
    scrambled = sum(ep.scrambled_deliveries for ep in endpoints.values())
    duplicates = sum(ep.server.ingest.duplicates for ep in endpoints.values())
    if scrambled == 0:
        violations.append("scramble: no duplicated/re-delivered ingest frames")
    elif duplicates == 0:
        violations.append(
            f"idempotence: {scrambled} scrambled deliveries produced zero "
            f"duplicate acks"
        )

    # 7. The partitioned replica caught up by replay, and was never
    #    tamper-quarantined — stale answers are degraded, not Byzantine.
    for table, publisher in publishers.items():
        behind = {name: publisher.lag(name) for name in publisher.endpoints
                  if publisher.lag(name)}
        if behind:
            violations.append(
                f"catch-up: {table} replicas still behind after final "
                f"push: {behind}"
            )
    p1_states = outcome["clients"][outcome["tables"][1]].endpoints
    tamper_evictions = dict(p1_states["p1r1"].evictions).get("tamper", 0)
    if tamper_evictions:
        violations.append(
            f"quarantine: partitioned replica p1r1 was tamper-evicted "
            f"{tamper_evictions}x (stale must degrade, not quarantine)"
        )
    probe = outcome["stale_probe"]
    if not probe or not probe.get("raised"):
        violations.append(
            f"stale classification: rejoined replica's old-epoch answer did "
            f"not raise StaleEpochError (probe: {probe})"
        )
    elif probe.get("tamper_class"):
        violations.append(
            "stale classification: StaleEpochError classified as tamper"
        )

    # 8. The checkpoint path (snapshot + journal truncation) actually ran.
    checkpoints = sum(ep.server.ingest.checkpoints for ep in endpoints.values())
    if checkpoints == 0:
        violations.append("checkpoint: no ingest checkpoint was ever taken")

    # 9. The replay log compacted once converged, and a DO restarted
    #    from its durable cursor resumed replication at zero lag.
    for table, facts in outcome["compaction"].items():
        if facts["dropped"] == 0 or facts["log_len"] != 0:
            violations.append(
                f"compaction: {table} retained {facts['log_len']} entries "
                f"after a fully-acked compact (dropped {facts['dropped']})"
            )
    for table, facts in outcome["failover"].items():
        if not facts["cursor_restored"] or facts["max_lag"] != 0:
            violations.append(
                f"failover: reborn {table} publisher did not resume cleanly "
                f"from its durable cursor ({facts})"
            )
    return violations


def main_ingest(args) -> int:
    wall_start = time.perf_counter()
    outcome = run_ingest_drill(
        args.seed, args.backend, args.queries, args.verbose
    )
    violations = check_ingest_invariants(outcome)
    if args.scrape_lint:
        violations.extend(scrape_lint(outcome["endpoints"]))
    wall = time.perf_counter() - wall_start

    publishers = outcome["publishers"]
    endpoints = outcome["endpoints"]
    summary = {
        "drill": "ingest",
        "backend": args.backend,
        "seed": args.seed,
        "issued": outcome["issued"],
        "verified": outcome["verified"],
        "availability": round(outcome["verified"] / outcome["issued"], 4),
        "updates": outcome["updates"],
        "rotations": len(outcome["rotations"]),
        "final_epochs": {t: p.epoch for t, p in publishers.items()},
        "max_answer_age": max(outcome["ages"]) if outcome["ages"] else None,
        "pushes": {t: p.stats.pushes for t, p in publishers.items()},
        "push_failures": {
            t: p.stats.push_failures for t, p in publishers.items()
        },
        "rewinds": {t: p.stats.rewinds for t, p in publishers.items()},
        "scrambled_deliveries": {
            name: ep.scrambled_deliveries for name, ep in endpoints.items()
        },
        "duplicate_acks": {
            name: ep.server.ingest.duplicates for name, ep in endpoints.items()
        },
        "checkpoints": {
            name: ep.server.ingest.checkpoints
            for name, ep in endpoints.items()
        },
        "recoveries": outcome["recoveries"],
        "compaction": outcome["compaction"],
        "failover": outcome["failover"],
        "stale_probe": outcome["stale_probe"],
        "stale_epoch_failovers": {
            t: c.counters.wire.stale_epochs
            for t, c in outcome["clients"].items()
        },
        "slo": outcome["slo"] and outcome["slo"]["snapshot"],
        "wall_seconds": round(wall, 2),
    }
    print(json.dumps(summary, indent=2))
    with open("BENCH_ingest.json", "w") as fp:
        json.dump(
            {"summary": summary, "trajectory": outcome["rotations"]},
            fp, indent=2,
        )

    if violations:
        for violation in violations:
            print(f"INVARIANT VIOLATED: {violation}", file=sys.stderr)
        return 1
    print(f"ingest chaos soak OK: {outcome['verified']}/{outcome['issued']} "
          f"verified against per-epoch shadow tables under wedge + torn tail "
          f"+ scramble + partition-through-rotations ({args.backend}, "
          f"{wall:.1f}s)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small deterministic CI run (<60s)")
    parser.add_argument("--sharded", action="store_true",
                        help="run the 3-shard x 2-replica scatter-gather drill")
    parser.add_argument("--ingest", action="store_true",
                        help="run the live-ingest drill: continuous updates, "
                             "epoch rotation, and journal recovery under "
                             "wedge/torn/scramble/partition chaos")
    parser.add_argument("--backend", default="simulated",
                        choices=("simulated", "bn254"))
    parser.add_argument("--seed", type=int, default=20260806)
    parser.add_argument("--queries", type=int, default=None,
                        help="logical queries to issue over the 60s drill")
    parser.add_argument("--scrape-lint", action="store_true",
                        help="after the drill, lint a stats-frame scrape as "
                             "Prometheus exposition")
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    if args.queries is None:
        if args.sharded:
            # Each logical query scatters to three shards, so the budget
            # is a third of the single-table drill's.
            args.queries = (12 if args.backend == "bn254" else 60) \
                if args.smoke else 300
        elif args.ingest:
            # Every step is a signed update + a verified query, so the
            # bn254 budget matches the sharded drill's.
            args.queries = (24 if args.backend == "bn254" else 120) \
                if args.smoke else 600
        elif args.smoke:
            args.queries = 24 if args.backend == "bn254" else 120
        else:
            args.queries = 600

    if args.sharded:
        return main_sharded(args)
    if args.ingest:
        return main_ingest(args)

    wall_start = time.perf_counter()
    outcome = run_drill(args.seed, args.backend, args.queries, args.verbose)
    violations = check_invariants(outcome)
    if args.scrape_lint:
        violations.extend(scrape_lint(outcome["endpoints"]))
    wall = time.perf_counter() - wall_start

    client = outcome["client"]
    summary = {
        "backend": args.backend,
        "seed": args.seed,
        "issued": outcome["issued"],
        "verified": outcome["verified"],
        "availability": round(outcome["verified"] / outcome["issued"], 4),
        "failovers": client.counters.failovers,
        "quarantines": client.counters.quarantines,
        "overload_backoffs": client.counters.overload_backoffs,
        "tampered_responses": {
            name: ep.tampered_responses
            for name, ep in outcome["endpoints"].items()
        },
        "shed_frames": {
            name: ep.server.shed for name, ep in outcome["endpoints"].items()
        },
        "evictions": {
            name: dict(state.evictions)
            for name, state in client.endpoints.items()
        },
        "sp0_restarts": outcome["endpoints"]["sp0"].restarts,
        "slo": outcome["slo"] and outcome["slo"]["snapshot"],
        "slo_flipped": outcome["slo_flipped"],
        "wall_seconds": round(wall, 2),
    }
    print(json.dumps(summary, indent=2))

    if violations:
        for violation in violations:
            print(f"INVARIANT VIOLATED: {violation}", file=sys.stderr)
        return 1
    print(f"chaos soak OK: {outcome['verified']}/{outcome['issued']} verified "
          f"under persistent tamper + crash/restart + overload burst "
          f"({args.backend}, {wall:.1f}s)")
    return 0


def main_sharded(args) -> int:
    wall_start = time.perf_counter()
    outcome = run_sharded_drill(
        args.seed, args.backend, args.queries, args.verbose
    )
    violations = check_sharded_invariants(outcome)
    if args.scrape_lint:
        violations.extend(scrape_lint(outcome["endpoints"]))
    wall = time.perf_counter() - wall_start

    client = outcome["client"]
    available = outcome["complete"] + outcome["partial"]
    summary = {
        "drill": "sharded",
        "backend": args.backend,
        "seed": args.seed,
        "issued": outcome["issued"],
        "complete": outcome["complete"],
        "partial": outcome["partial"],
        "availability": round(available / outcome["issued"], 4),
        "partial_shards": sorted(outcome["partial_shards"]),
        "scatter_attempts": client.counters.scatter_attempts,
        "shard_failures": client.counters.shard_failures,
        "tampered_responses": {
            name: ep.tampered_responses
            for name, ep in outcome["endpoints"].items()
        },
        "evictions": {
            name: dict(endpoint.evictions)
            for shard in client.shards.values()
            for name, endpoint in shard.endpoints.items()
        },
        "shard1_restarts": {
            name: outcome["endpoints"][name].restarts
            for name in ("s1r0", "s1r1")
        },
        "slo": outcome["slo"] and outcome["slo"]["snapshot"],
        "slo_flipped": outcome["slo_flipped"],
        "traced_acceptance": outcome["acceptance"],
        "wall_seconds": round(wall, 2),
    }
    print(json.dumps(summary, indent=2))

    if violations:
        for violation in violations:
            print(f"INVARIANT VIOLATED: {violation}", file=sys.stderr)
        return 1
    print(f"sharded chaos soak OK: {available}/{outcome['issued']} answered "
          f"({outcome['partial']} valid partials) under replica tamper + "
          f"stale epoch + shard-wide crash/restart ({args.backend}, "
          f"{wall:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
