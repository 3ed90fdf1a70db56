"""Deterministic chaos/soak drills for the replicated SP serving stack.

Each drill is a :mod:`repro.bench.world` topology, a seeded
:mod:`repro.net.chaos` schedule, one step per logical query, and its
invariants.  One driver runs every drill on the world's
:class:`~repro.net.transport.FakeClock` — it ticks the chaos controller,
times each step on the virtual clock, feeds the SLO monitor and flushes
trailing events — so one seed replays one exact history.  Every drill
shares three invariants:

1. **soundness** — every answer returned to the caller equals the known
   ground truth (it was cryptographically verified; a forged response
   can evict a replica but never reach the caller);
2. **availability** — at least ``AVAILABILITY_FLOOR`` of issued queries
   return verified;
3. **attribution** — honest replicas are never tamper-evicted.

The default drill serves three replicas cold-started from the same
snapshot blobs through a :class:`~repro.net.cluster.ReplicatedClient`:
``sp2`` tampers **persistently** from t=0 and must end quarantined;
``sp0`` crashes mid-run and later **restarts from its snapshot** and
serves again; an **overload burst** floods every replica's admission
control, so the servers shed with typed ``overloaded`` frames that the
retry-after backoff absorbs with zero client-visible failures.  When
``REPRO_OBS`` is on, the :class:`~repro.obs.slo.SLOMonitor`'s latency
burn rate must **flip above 1.0 during the burst and recover after it
drains**, in virtual seconds.

``--sharded`` swaps in the scatter-gather drill: 3 shards × 2 replicas
through :class:`~repro.net.sharding.ShardedClient` with
``allow_partial=True``, where one replica tampers, one serves a
genuinely-signed *stale* freshness token, and a whole shard crashes and
cold-restarts mid-run.  Every degraded answer must be a valid
:class:`~repro.core.verifier.PartialResult` naming exactly the dead
shard, the stale replica is quarantined like a forger, and
adversarial-coordinator sub-drills (dropped shard VO, stale shard
token, duplicated contribution) all die as verification-class errors.
It ends with a **traced acceptance query**: every replica is set to two
process-pool relax workers, one query runs, and the assembled
cross-process trace must span the coordinator, all three shards' server
spans, the engine phases, and the pool's worker spans, with the cost
ledger's stage times explaining the query's wall time to within 10%.

``--ingest`` swaps in the **live-ingest drill**: two table partitions ×
two journaling replicas each, while both partitions'
:class:`~repro.net.ingest.UpdatePublisher` streams continuous upserts
and zero-knowledge deletes interleaved with verified queries.  The
schedule wedges one replica (crash *after* journal append, before
apply), tears another's journal tail after a crash, scrambles
(duplicates + re-delivers) the control plane, and partitions one
replica through several epoch rotations.  Every verified answer must
match the shadow table **of the epoch its freshness token names**; no
answer older than ``INGEST_MAX_AGE`` epochs is accepted; the wedged
replica recovers the journaled-but-unapplied frame by replay; the torn
tail is repaired only via the explicit opt-in; duplicated delivery is
absorbed as ``duplicate`` acks; and the partitioned replica catches up
by replay, its stale answers classified degraded, not Byzantine.  A
full (non-``--smoke``) run writes its epoch/rotation trajectory to
``BENCH_ingest.json`` in the current directory.

``--scrape-lint`` additionally parses a post-drill stats-frame scrape as
Prometheus exposition.

Run:  PYTHONPATH=src python benchmarks/chaos_soak.py [--smoke] [--sharded]
          [--ingest] [--backend simulated|bn254] [--seed N] [--queries N]

``--smoke`` is the CI entry point: small query count, < 60 s, exit
status 1 on any invariant violation; it writes no file.
"""

import argparse
import json
import os
import random
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

from repro import obs
from repro.bench.world import build_world
from repro.core.freshness import issue_shard_token
from repro.core.records import Record
from repro.core.verifier import PartialResult, ShardAnswer, verify_sharded
from repro.errors import CompletenessError, StaleEpochError, VerificationError
from repro.net import (
    ChaosController,
    FreshnessGuard,
    RetryPolicy,
    UpdatePublisher,
    is_tamper_error,
    parse_schedule,
)
from repro.obs import ledger as obs_ledger
from repro.obs.metrics import parse_exposition
from repro.policy import parse_policy

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

#: Virtual seconds the queries of a drill are spread over; every
#: schedule's events fall inside it.
DURATION = 60.0

TABLE = "docs"

#: Client options shared by every replica set the drills build.
CLUSTER_OPTIONS = dict(
    quarantine_window=10_000.0,  # longer than the drill: stays quarantined
    failure_threshold=3,
    reset_timeout=8.0,
)
RETRY = RetryPolicy(max_attempts=8, base_delay=0.02, deadline=30.0)


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


@dataclass
class Tally:
    """What the driver saw: one entry per issued query."""

    issued: int = 0
    verified: int = 0
    wrong: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    slo: Optional[dict] = None
    slo_flipped: bool = False

    @property
    def availability(self) -> float:
        return self.verified / self.issued


def run_drill(drill, verbose: bool) -> Tally:
    """Drive the drill's steps through its schedule, then flush it.

    A step returns ``None`` when its answer matched ground truth and a
    description of the mismatch otherwise; a raised error is a
    client-visible failure.
    """
    world = drill.world
    clock = world.clock
    controller = ChaosController(
        parse_schedule(drill.SCHEDULE), world.endpoints, clock=clock,
        groups=world.groups,
    )
    monitor = build_slo_monitor(clock)
    tally = Tally()
    for i in range(drill.steps):
        for event in controller.tick():
            if verbose:
                print(f"  [t={clock.now():5.1f}] chaos: {event.action} "
                      f"{event.target} {dict(event.params)}")
        tally.issued += 1
        step_t0 = clock.now()
        ok = False
        try:
            mismatch = drill.step(i)
        except Exception as exc:  # noqa: BLE001 - tallied, then asserted on
            tally.failures.append((i, round(clock.now(), 1), type(exc).__name__))
        else:
            ok = True
            if mismatch is None:
                tally.verified += 1
            else:
                tally.wrong.append((i, mismatch))
        if monitor is not None:
            # Latency in *virtual* seconds: only retry/backoff sleeps move
            # the FakeClock inside a query, so the latency SLO goes bad
            # exactly when shed frames force retry-after waits.
            monitor.record(ok=ok, latency=clock.now() - step_t0)
            if monitor.burn_rate("query_latency", SLO_WINDOWS[0]) > 1.0:
                tally.slo_flipped = True
        clock.advance(DURATION / drill.steps)
    if monitor is not None:
        tally.slo = {
            "snapshot": monitor.snapshot(),
            "recovered": monitor.burn_rate("query_latency", SLO_WINDOWS[0]) < 1.0,
            "budget_ok": monitor.budget_remaining("query_availability") > 0.0,
        }
    # Flush any events scheduled after the last step.
    clock.advance(DURATION)
    controller.tick()
    return tally


def shared_violations(drill, tally: Tally) -> list:
    """Soundness, the availability floor, and honest-replica attribution."""
    violations = []
    if tally.wrong:
        violations.append(
            f"soundness: {len(tally.wrong)} returned answers differed from "
            f"ground truth: {tally.wrong[:5]}"
        )
    if tally.availability < AVAILABILITY_FLOOR:
        violations.append(
            f"availability {tally.availability:.4f} < {AVAILABILITY_FLOOR} "
            f"(failures: {tally.failures[:5]})"
        )
    for name, state in sorted(drill.world.replica_states().items()):
        if name not in drill.BYZANTINE and state.evictions["tamper"]:
            violations.append(
                f"honest replica {name} was tamper-evicted "
                f"{state.evictions['tamper']}x"
            )
    return violations


def check_slo(tally: Tally) -> list:
    """The burst flips the latency burn rate, which then recovers."""
    slo = tally.slo
    if slo is None:
        return []
    violations = []
    if not tally.slo_flipped:
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


def scrape_lint(endpoints) -> list:
    """Parse a post-drill stats-frame scrape; every defect is a string."""
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


class Drill:
    """A world, a schedule, one step per query, and invariants."""

    LABEL = "chaos soak"
    SCHEDULE = ""
    CHAOS = ""
    #: Replicas the schedule makes misbehave; every other one is honest.
    BYZANTINE = frozenset()
    SMOKE_QUERIES = {"simulated": 120, "bn254": 24}
    FULL_QUERIES = 600

    def __init__(self, seed: int, backend: str, steps: int):
        self.seed = seed
        self.backend = backend
        self.steps = steps

    def step(self, i: int):
        raise NotImplementedError

    def finish(self) -> None:
        """Work after the schedule is flushed and before the checks."""

    def check(self, tally: Tally) -> list:
        return shared_violations(self, tally)

    def summary(self, tally: Tally) -> dict:
        raise NotImplementedError

    def record(self, summary: dict) -> None:
        """Persist the summary beyond stdout (nothing by default)."""

    def replica_report(self) -> dict:
        """Tampered responses per endpoint and evictions per replica."""
        states = self.world.replica_states()
        return {
            "tampered_responses": {
                name: ep.tampered_responses
                for name, ep in self.world.endpoints.items()
            },
            "evictions": {
                name: dict(state.evictions) for name, state in states.items()
            },
        }


# ---------------------------------------------------------------------------
# The replicated drill (default)
# ---------------------------------------------------------------------------

#: Key, value, policy: the analyst may read ``forecast`` and ``minutes``.
ROWS = (
    ((4,), b"forecast", "analyst or manager"),
    ((11,), b"salaries", "manager"),
    ((23,), b"minutes", "analyst"),
)


class ReplicatedDrill(Drill):
    #: sp2 is Byzantine for the whole run; sp0 crash/restarts once; the
    #: overload burst hits every replica.
    SCHEDULE = """
    @0   tamper   sp2  rate=1.0        # the Byzantine replica
    @20  crash    sp0
    @30  restart  sp0                  # cold start from snapshot blobs
    @45  overload *    load=64         # burst: admission control sheds
    @48  calm     *
    """
    CHAOS = "persistent tamper + crash/restart + overload burst"
    BYZANTINE = frozenset({"sp2"})

    def __init__(self, seed: int, backend: str, steps: int):
        super().__init__(seed, backend, steps)
        self.world = build_world(
            {TABLE: ROWS}, (0, 31), seed=seed, backend=backend, replicas=3,
            link="chaos", max_in_flight=32, policy=RETRY, **CLUSTER_OPTIONS,
        )
        self.truth = sorted(self.world.truth(TABLE).values())

    def step(self, i: int):
        records = self.world.client.query_range(TABLE, (0,), (31,), encrypt=False)
        got = sorted(r.value for r in records)
        return None if got == self.truth else got

    def check(self, tally: Tally) -> list:
        violations = super().check(tally)
        client, endpoints = self.world.client, self.world.endpoints
        states = client.endpoints
        if states["sp2"].evictions["tamper"] < 1:
            violations.append("sp2 tampered all run but was never tamper-evicted")
        if not states["sp2"].quarantined:
            violations.append("sp2 did not end the run quarantined")
        # Overload absorption: servers shed, the client absorbed.
        if sum(ep.server.shed for ep in endpoints.values()) < 1:
            violations.append("overload burst never produced an OVERLOADED frame")
        if tally.failures:
            violations.append(
                f"{len(tally.failures)} client-visible failures: "
                f"{tally.failures[:5]}"
            )
        if client.counters.overload_rejections < 1:
            violations.append("client never honored a retry-after hint")
        # The crash/restart cycle actually exercised the snapshot path.
        if endpoints["sp0"].restarts < 1:
            violations.append("sp0 never restarted from its snapshot")
        if states["sp0"].successes < 1:
            violations.append("sp0 never served a verified result")
        return violations + check_slo(tally)

    def summary(self, tally: Tally) -> dict:
        client, endpoints = self.world.client, self.world.endpoints
        report = self.replica_report()
        return {
            "backend": self.backend,
            "seed": self.seed,
            "issued": tally.issued,
            "verified": tally.verified,
            "availability": round(tally.availability, 4),
            "failovers": client.counters.failovers,
            "quarantines": client.counters.quarantines,
            "overload_backoffs": client.counters.overload_rejections,
            "tampered_responses": report["tampered_responses"],
            "shed_frames": {
                name: ep.server.shed for name, ep in endpoints.items()
            },
            "evictions": report["evictions"],
            "sp0_restarts": endpoints["sp0"].restarts,
            "slo": tally.slo and tally.slo["snapshot"],
            "slo_flipped": tally.slo_flipped,
        }


# ---------------------------------------------------------------------------
# The sharded scatter-gather drill (--sharded)
# ---------------------------------------------------------------------------

#: Analyst-visible ground truth by key (the ``manager``-only row at 11
#: is invisible to the drill's user and so outside the truth set).
SHARDED_ROWS = ROWS + (
    ((30,), b"okrs", "analyst"),
    ((40,), b"roadmap", "analyst"),
)

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


def _walk_spans(node):
    yield node
    for child in node.get("children") or ():
        yield from _walk_spans(child)


class ShardedDrill(Drill):
    #: 3 range shards × 2 replicas.  One replica forges, one lags at a
    #: genuinely-signed stale epoch, and shard1 dies whole mid-run — the
    #: unit-of-failure degraded-mode reads exist for.
    SCHEDULE = """
    @0   tamper   s2r0    rate=1.0   # Byzantine replica inside shard2
    @8   stale    s1r1    epoch=0    # lagging replica: real signature, old epoch
    @20  crash    shard1             # the whole shard goes dark
    @30  restart  shard1             # cold start from snapshots (stale pin survives)
    @40  fresh    s1r1
    @44  overload *       load=64    # burst: every replica sheds with retry-after
    @46  calm     *
    """
    LABEL = "sharded chaos soak"
    CHAOS = "replica tamper + stale epoch + shard-wide crash/restart"
    BYZANTINE = frozenset({"s2r0", "s1r1"})
    # Each logical query scatters to three shards, so the budget is a
    # third of the single-table drill's.
    SMOKE_QUERIES = {"simulated": 60, "bn254": 12}
    FULL_QUERIES = 300

    def __init__(self, seed: int, backend: str, steps: int):
        super().__init__(seed, backend, steps)
        self.world = build_world(
            {TABLE: SHARDED_ROWS}, (0, 47), seed=seed, backend=backend,
            shards=3, replicas=2, link="chaos", max_in_flight=32,
            shard_policy=RetryPolicy(max_attempts=4, base_delay=0.02,
                                     deadline=8.0),
            allow_partial=True, scatter_retries=1,
            cluster_options=CLUSTER_OPTIONS,
        )
        self.truth = self.world.truth(TABLE)
        self.partial = 0
        self.partial_shards = set()

    def step(self, i: int):
        result = self.world.client.query_range(TABLE, (0,), (47,), encrypt=False)
        # A partial answer must equal the truth outside its missing boxes.
        partial = isinstance(result, PartialResult)
        records, missing = (
            (result.records, result.missing_boxes) if partial else (result, ())
        )
        expected = sorted(
            value for key, value in self.truth.items()
            if not any(box.contains_point(key) for box in missing)
        )
        got = sorted(r.value for r in records)
        if got != expected:
            return got
        if partial:
            self.partial += 1
            self.partial_shards.update(result.missing_shards)
        return None

    def finish(self) -> None:
        self.acceptance, self.acceptance_violations = self.traced_acceptance()
        self.subdrills = self.adversarial_subdrills()

    def adversarial_subdrills(self) -> list:
        """Attack the merge directly; every forgery must die typed."""
        world = self.world
        roster, client = world.sharding.roster, world.client
        violations = []
        query = roster.domain_box
        answers = {}
        for descriptor in roster.shards_for(query):
            sub = descriptor.box.intersection(query)
            answers[descriptor.shard_id] = client.shards[
                descriptor.shard_id
            ].query_range(TABLE, sub.lo, sub.hi)

        def merge(answer_list):
            return verify_sharded(roster, query, answer_list,
                                  world.user.authenticator)

        # A coordinator silently dropping one shard's VO.
        try:
            merge([a for sid, a in answers.items() if sid != "shard1"])
            violations.append("dropped shard VO was accepted by the merge")
        except CompletenessError:
            pass
        # A rolled-back shard replaying a genuinely-signed stale token.
        stale = issue_shard_token(world.owner.signer, roster, "shard1", epoch=0)
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

    def traced_acceptance(self):
        """One process-pool query, end to end, fully assembled and costed.

        This is the drill's observability acceptance check: after the
        chaos schedule has run dry, every live replica is set to two
        process-pool relax workers and its warm authenticator pool
        dropped (so the query performs real relax work in worker
        processes), one full-range query is issued, and the assembled
        trace plus its cost ledger entry are checked for the shapes
        operators rely on — coordinator root, server spans from *every*
        shard, engine phases, worker spans, and stage times explaining
        the query's wall time.

        Returns ``(summary_or_None, violations)``; both are empty when
        the obs gate is off.
        """
        if not obs.enabled():
            return None, []
        client, endpoints = self.world.client, self.world.endpoints
        providers = [ep.server.server.provider for ep in endpoints.values()]
        for provider in providers:
            provider.workers = 2
            # Drop the pooled authenticators (and their warm APS caches):
            # the drill has run this exact query dozens of times, and a
            # cache-hit answer would leave the pool with nothing to do.
            provider._auth_pool.clear()
        try:
            result = client.query_range(TABLE, (0,), (47,), encrypt=False)
        finally:
            for provider in providers:
                provider.workers = 1

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

    def check(self, tally: Tally) -> list:
        violations = super().check(tally)
        states = self.world.replica_states()
        # Degraded mode fired, and only for the shard that actually died.
        if self.partial < 1:
            violations.append("the shard-wide crash never produced a PartialResult")
        if self.partial_shards - {"shard1"}:
            violations.append(
                f"partials named shards {sorted(self.partial_shards)}, "
                f"only shard1 was crashed"
            )
        # The forger and the stale replica are both caught.
        if states["s2r0"].evictions["tamper"] < 1:
            violations.append("s2r0 forged all run but was never tamper-evicted")
        if states["s1r1"].evictions["tamper"] < 1:
            violations.append("stale replica s1r1 was never caught serving "
                              "its rolled-back epoch")
        # The crashed shard restarted from snapshots and served again.
        for name in ("s1r0", "s1r1"):
            if self.world.endpoints[name].restarts < 1:
                violations.append(f"{name} never restarted from its snapshot")
        if states["s1r0"].successes < 1:
            violations.append("s1r0 never served a verified result")
        return (violations + self.subdrills + check_slo(tally)
                + self.acceptance_violations)

    def summary(self, tally: Tally) -> dict:
        counters = self.world.client.counters
        report = self.replica_report()
        return {
            "drill": "sharded",
            "backend": self.backend,
            "seed": self.seed,
            "issued": tally.issued,
            "complete": tally.verified - self.partial,
            "partial": self.partial,
            "availability": round(tally.availability, 4),
            "partial_shards": sorted(self.partial_shards),
            "scatter_attempts": counters.scatter_attempts,
            "shard_failures": counters.shard_failures,
            "tampered_responses": report["tampered_responses"],
            "evictions": report["evictions"],
            "shard1_restarts": {
                name: self.world.endpoints[name].restarts
                for name in ("s1r0", "s1r1")
            },
            "slo": tally.slo and tally.slo["snapshot"],
            "slo_flipped": tally.slo_flipped,
            "traced_acceptance": self.acceptance,
        }


# ---------------------------------------------------------------------------
# Live-ingest drill: continuous updates + epoch rotation under chaos
# ---------------------------------------------------------------------------

#: Epoch-age tolerance for the ingest drill's FreshnessGuard.
INGEST_MAX_AGE = 1
#: Small on purpose: the drill must cross the checkpoint threshold many
#: times, exercising snapshot + journal truncation under load.
INGEST_JOURNAL_LIMIT = 4096
INGEST_POLICY = "analyst or manager"
INGEST_TABLES = ("docs@p0", "docs@p1")


class IngestDrill(Drill):
    #: p0r0 is wedged (crash after journal append, before apply) and must
    #: recover the frame by journal replay; p0r1 crashes and has its
    #: journal tail torn (the power-cut artifact), recovered via the
    #: explicit repair opt-in; p1r1 is partitioned through several epoch
    #: rotations and must catch up by replay — never quarantine; scramble
    #: models at-least-once delivery of the whole control plane.
    SCHEDULE = """
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
    LABEL = "ingest chaos soak"
    CHAOS = ("wedge + torn tail + scramble + partition-through-rotations, "
             "against per-epoch shadow tables")

    def __init__(self, seed: int, backend: str, steps: int):
        super().__init__(seed, backend, steps)
        self.world = world = build_world(
            {
                table: [((key,), f"seed-{table}-{key}".encode(), INGEST_POLICY)
                        for key in range(t_index, 12, 3)]
                for t_index, table in enumerate(INGEST_TABLES)
            },
            (0, 15), seed=seed, backend=backend, replicas=2, link="chaos",
            journal_limit=INGEST_JOURNAL_LIMIT, policy=RETRY, **CLUSTER_OPTIONS,
        )
        self.publishers = {}
        for t_index, table in enumerate(INGEST_TABLES):
            publisher = self.publishers[table] = UpdatePublisher(
                world.owner.signer, table, world.trees[table], epoch=1,
                rng=random.Random(seed + 31 + t_index),
                state_path=f"{world.journals.name}/{t_index}.pub",
            )
            for name in world.groups[table]:
                publisher.attach(name, world.endpoints[name])
            # Every answer must prove a recent-enough epoch.
            world.clients[table].user = FreshnessGuard(
                world.user, table, (lambda p=publisher: p.epoch),
                max_age=INGEST_MAX_AGE,
            )
        self.rotate_every = max(2, steps // 10)
        self.mutate_rng = random.Random(seed + 55)
        self.probe_rng = random.Random(seed + 56)
        # Ground truth: the live shadow table per partition, snapshotted
        # at every rotation — a verified answer must match the snapshot
        # *of the epoch its freshness token names*, not merely some
        # recent state.
        self.live = {table: world.truth(table) for table in INGEST_TABLES}
        self.epoch_shadows = {
            table: {1: dict(self.live[table])} for table in INGEST_TABLES
        }
        self.ages, self.rotations = [], []
        self.updates = {"upsert": 0, "delete": 0}
        self.stale_probe = None
        self.saw_partition = False

    def probe_rejoined_replica(self):
        # Straight after rejoin (before the next catch-up push) the
        # replica still serves its pre-partition epoch.  Probe it
        # directly: the genuinely-signed-but-old answer must classify
        # stale (degraded), never tamper (Byzantine).
        table = INGEST_TABLES[1]
        provider = self.world.endpoints["p1r1"].server.server.provider
        response = provider.range_query(
            table, (0,), (15,), self.world.user.roles,
            rng=self.probe_rng, encrypt=False,
        )
        try:
            self.world.clients[table].user.verify(response)
        except StaleEpochError as exc:
            return {"raised": True, "tamper_class": is_tamper_error(exc)}
        except Exception as exc:  # noqa: BLE001 - recorded verbatim
            return {"raised": False, "unexpected": type(exc).__name__}
        return {"raised": False}

    def rotate(self, table: str) -> None:
        publisher = self.publishers[table]
        publisher.rotate()
        self.epoch_shadows[table][publisher.epoch] = dict(self.live[table])

    def step(self, i: int):
        # Events also fire mid-query (retry sleeps advance the clock and
        # ChaosEndpoint ticks the controller per exchange), so detect the
        # partition/rejoin transition by observing endpoint state rather
        # than by catching the event.  The probe runs before this step's
        # mutation, i.e. before any catch-up push could heal the lag.
        if self.world.endpoints["p1r1"].partitioned:
            self.saw_partition = True
        elif self.saw_partition and self.stale_probe is None:
            self.stale_probe = self.probe_rejoined_replica()

        # -- continuous ingest: one mutation per step, alternating table
        table = INGEST_TABLES[i % 2]
        publisher, live = self.publishers[table], self.live[table]
        real_keys = sorted(live)
        if i % 5 == 4 and real_keys:
            key = real_keys[self.mutate_rng.randrange(len(real_keys))]
            publisher.delete(key)  # zero-knowledge delete
            live.pop(key)
            self.updates["delete"] += 1
        else:
            key = (self.mutate_rng.randrange(16),)
            value = f"v{publisher.seq + 1}@{i}".encode()
            publisher.upsert(Record(key, value, parse_policy(INGEST_POLICY)))
            live[key] = value
            self.updates["upsert"] += 1

        # -- epoch rotation: both partitions, every rotate_every steps
        if (i + 1) % self.rotate_every == 0:
            for rotated in INGEST_TABLES:
                self.rotate(rotated)
                self.rotations.append(
                    {"t": round(self.world.clock.now(), 1), "table": rotated,
                     "epoch": self.publishers[rotated].epoch,
                     "seq": self.publishers[rotated].seq}
                )

        # -- a concurrent verified query against the *other* partition
        qtable = INGEST_TABLES[(i + 1) % 2]
        client = self.world.clients[qtable]
        records = client.query_range(qtable, (0,), (15,), encrypt=False)
        answer_epoch = client.user.last_epoch
        self.ages.append(self.publishers[qtable].epoch - answer_epoch)
        expected = self.epoch_shadows[qtable].get(answer_epoch)
        got = sorted((tuple(r.key), r.value) for r in records)
        if expected is None or got != sorted(expected.items()):
            return (qtable, answer_epoch)
        return None

    def finish(self) -> None:
        # Close the books: one final rotation and push per partition
        # proves every replica — including the one that sat out several
        # epochs — converges to lag 0 by catch-up replay.
        if self.stale_probe is None and not self.world.endpoints["p1r1"].partitioned:
            self.stale_probe = self.probe_rejoined_replica()
        self.final_sync = {}
        for table in INGEST_TABLES:
            self.rotate(table)
            self.final_sync[table] = self.publishers[table].push_all()

        # With every replica converged, the replay log compacts to zero,
        # and a reborn DO process restored from the durable cursor file
        # must agree with every SP watermark and keep replicating — the
        # two operator moves (bounding memory, surviving a DO restart)
        # the publisher state file exists for.
        self.compaction, self.failover = {}, {}
        for t_index, table in enumerate(INGEST_TABLES):
            publisher = self.publishers[table]
            dropped = publisher.compact()
            self.compaction[table] = {
                "dropped": dropped, "log_len": len(publisher.log),
            }
            reborn = UpdatePublisher(
                self.world.owner.signer, table, publisher.tree,
                rng=random.Random(self.seed + 77 + t_index),
                state_path=publisher.state_path,
            )
            for name, endpoint in publisher.endpoints.items():
                reborn.attach(name, endpoint)
            reborn.push_all()
            self.failover[table] = {
                "cursor_restored": (reborn.seq, reborn.epoch)
                == (publisher.seq, publisher.epoch),
                "max_lag": max(reborn.lag(name) for name in reborn.endpoints),
            }

        # Each endpoint's most recent cold start: restart counts come from
        # the endpoint, replay/repair facts from the recovery it ran.
        self.recoveries = [
            {"endpoint": name, "restarts": ep.restarts,
             **ep.server.ingest.last_recovery}
            for name, ep in self.world.endpoints.items()
        ]

    def check(self, tally: Tally) -> list:
        violations = super().check(tally)
        endpoints = self.world.endpoints
        if self.ages and max(self.ages) > INGEST_MAX_AGE:
            violations.append(
                f"freshness: accepted an answer {max(self.ages)} epochs "
                f"old (tolerance {INGEST_MAX_AGE})"
            )
        # The wedged replica (p0r0) restarted and recovered its
        # journaled-but-unapplied frame by replay.
        recovery = {r["endpoint"]: r for r in self.recoveries}
        if recovery["p0r0"]["restarts"] < 1 or recovery["p0r0"]["replayed"] < 1:
            violations.append(
                f"journal replay: p0r0 cold start replayed nothing "
                f"({recovery['p0r0']})"
            )
        # The torn tail on p0r1 was repaired via the explicit opt-in.
        if (recovery["p0r1"]["restarts"] < 1
                or recovery["p0r1"]["repaired_offset"] is None):
            violations.append(
                f"torn tail: p0r1 recovery never repaired a torn journal "
                f"({recovery['p0r1']})"
            )
        # At-least-once delivery was exercised and absorbed idempotently.
        scrambled = sum(ep.scrambled_deliveries for ep in endpoints.values())
        duplicates = sum(ep.server.ingest.duplicates for ep in endpoints.values())
        if scrambled == 0:
            violations.append("scramble: no duplicated/re-delivered ingest frames")
        elif duplicates == 0:
            violations.append(
                f"idempotence: {scrambled} scrambled deliveries produced zero "
                f"duplicate acks"
            )
        # The partitioned replica caught up by replay; its stale answers
        # are degraded, not Byzantine.
        for table, publisher in self.publishers.items():
            behind = {name: publisher.lag(name) for name in publisher.endpoints
                      if publisher.lag(name)}
            if behind:
                violations.append(
                    f"catch-up: {table} replicas still behind after final "
                    f"push: {behind}"
                )
        probe = self.stale_probe
        if not probe or not probe.get("raised"):
            violations.append(
                f"stale classification: rejoined replica's old-epoch answer did "
                f"not raise StaleEpochError (probe: {probe})"
            )
        elif probe.get("tamper_class"):
            violations.append(
                "stale classification: StaleEpochError classified as tamper"
            )
        # The checkpoint path (snapshot + journal truncation) actually ran.
        if sum(ep.server.ingest.checkpoints for ep in endpoints.values()) == 0:
            violations.append("checkpoint: no ingest checkpoint was ever taken")
        # The replay log compacted once converged, and a DO restarted
        # from its durable cursor resumed replication at zero lag.
        for table, facts in self.compaction.items():
            if facts["dropped"] == 0 or facts["log_len"] != 0:
                violations.append(
                    f"compaction: {table} retained {facts['log_len']} entries "
                    f"after a fully-acked compact (dropped {facts['dropped']})"
                )
        for table, facts in self.failover.items():
            if not facts["cursor_restored"] or facts["max_lag"] != 0:
                violations.append(
                    f"failover: reborn {table} publisher did not resume cleanly "
                    f"from its durable cursor ({facts})"
                )
        return violations

    def summary(self, tally: Tally) -> dict:
        publishers, endpoints = self.publishers, self.world.endpoints
        return {
            "drill": "ingest",
            "backend": self.backend,
            "seed": self.seed,
            "issued": tally.issued,
            "verified": tally.verified,
            "availability": round(tally.availability, 4),
            "updates": self.updates,
            "rotations": len(self.rotations),
            "final_epochs": {t: p.epoch for t, p in publishers.items()},
            "max_answer_age": max(self.ages) if self.ages else None,
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
            "recoveries": self.recoveries,
            "compaction": self.compaction,
            "failover": self.failover,
            "stale_probe": self.stale_probe,
            "stale_epoch_failovers": {
                t: c.counters.stale_epochs
                for t, c in self.world.clients.items()
            },
            "slo": tally.slo and tally.slo["snapshot"],
        }

    def record(self, summary: dict) -> None:
        with open("BENCH_ingest.json", "w") as fp:
            json.dump({"summary": summary, "trajectory": self.rotations},
                      fp, indent=2)


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

    kind = ShardedDrill if args.sharded else IngestDrill if args.ingest \
        else ReplicatedDrill
    if args.queries is None:
        args.queries = kind.SMOKE_QUERIES[args.backend] if args.smoke else \
            kind.FULL_QUERIES

    wall_start = time.perf_counter()
    drill = kind(args.seed, args.backend, args.queries)
    try:
        tally = run_drill(drill, args.verbose)
        drill.finish()
        violations = drill.check(tally)
        if args.scrape_lint:
            violations.extend(scrape_lint(drill.world.endpoints))
        wall = time.perf_counter() - wall_start

        summary = {**drill.summary(tally), "wall_seconds": round(wall, 2)}
        print(json.dumps(summary, indent=2))
        if not args.smoke:
            drill.record(summary)
    finally:
        drill.world.close()
    if violations:
        for violation in violations:
            print(f"INVARIANT VIOLATED: {violation}", file=sys.stderr)
        return 1
    print(f"{drill.LABEL} OK: {tally.verified}/{tally.issued} verified under "
          f"{drill.CHAOS} ({args.backend}, {wall:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
