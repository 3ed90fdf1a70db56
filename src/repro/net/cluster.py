"""The one client loop: failover, hedging, and Byzantine quarantine.

The paper's deployment model makes the SP *untrusted*: VO verification
is a cryptographic misbehaviour detector.  :class:`ReplicatedClient`
turns the detector into a router: a logical query fans over N replica
endpoints, and an endpoint whose response **fails verification** is
treated fundamentally differently from one that merely times out.
:class:`ResilientClient` is the same loop over one transport —
there is no second attempt loop — so every rule below holds for one SP
and for N replicas alike:

* **attempts and the deadline** — one pass tries every eligible endpoint
  in health order; a :class:`~repro.net.client.RetryPolicy` attempt is
  one pass, the deadline spans all passes, each wire attempt is framed
  under a fresh request id, and no backoff is slept after the final
  pass.
* **tamper eviction** — a :class:`~repro.errors.VerificationError`-class
  failure (forged proof, forged sealed envelope) proves the *content*
  was wrong.  The endpoint is
  quarantined for ``quarantine_window`` seconds, its health score is
  zeroed, and ``repro_cluster_evicted_total{endpoint=...,reason="tamper"}``
  increments.  A persistent tamperer is re-quarantined on every probe
  and effectively leaves the rotation.  **The only endpoint there is is
  never quarantined**: with nowhere to fail over, parking it would turn
  one forged reply into ``quarantine_window`` of downtime, so its
  tampers are retried and counted on its breaker like a transport
  failure (the endpoint-count rule rejection corroboration uses too).
* **transport eviction** — drops, timeouts, undecodable frames, and
  server error frames feed the endpoint's per-endpoint
  :class:`~repro.net.client.CircuitBreaker`, which counts *attempts*;
  when it opens the endpoint
  is excluded for the breaker's reset window and
  ``...{reason="transport"}`` increments.  Transport faults are
  innocent-until-proven-guilty: the replica may just be behind a bad
  link.  A pass that finds no eligible endpoint sleeps until the
  earliest relief (quarantine end, overload backoff end, breaker
  half-open), within the query's deadline and attempt budget; when the
  budget runs out first the query raises
  :class:`~repro.errors.CircuitOpenError` — or
  :class:`~repro.errors.OverloadedError` with the remaining hint when
  every endpoint is backing off an overload.
* **deterministic rejections are corroborated** — ``workload`` error
  frames and CP-ABE policy denials
  (:class:`~repro.errors.AccessDeniedError`) look like properties of
  the query, but they are *unauthenticated*: a Byzantine replica that
  does not want to forge proofs (and be quarantined for it) could
  instead answer every query with a forged ``workload`` frame and
  abort queries it never has to prove anything about.  A lone
  rejection is therefore recorded against the endpoint
  (transport-class penalty) and the query fails over; the rejection is
  surfaced to the caller only once a second independent replica — or
  the only replica there is — rejects the same way.  A policy denial
  is *never* tamper: honest replicas enforcing access control must not
  be quarantined (a tampered envelope fails its integrity check and
  raises ``CryptoError`` instead).  Suspicion is **not permanent**: an
  uncorroborated rejection demotes the endpoint to the back of the
  rotation, but a corroboration window of consecutive verified
  successes (``suspicion_decay``) clears it — one transient forgery
  (or one query that raced a config change) cannot bias ranking
  against an honest replica forever.
* **overload and drain** — an ``overloaded`` error frame takes the
  endpoint out of rotation for exactly the server's ``retry-after``
  hint, across queries — no breaker penalty, no quarantine — so an
  overload burst is absorbed by waiting, not by evicting healthy
  replicas.  A half-open trial first sends a cheap liveness probe
  (:func:`~repro.net.client.probe_endpoint`); a server that answers
  ``draining`` keeps its breaker half-open with the trial slot freed,
  counts in ``probe_deferrals``, and the query raises
  :class:`~repro.errors.OverloadedError` unless an endpoint answers
  within the query's budget.  Every half-open trial a query claims is
  resolved when the query ends, whatever it raised.

Endpoint selection ranks eligible replicas by a success-EWMA health
score, breaking ties least-recently-attempted first (deterministic
round-robin among equally healthy replicas, so load spreads **and**
every replica keeps getting probed — a tamperer cannot hide behind
never being selected).

**Hedging.**  With ``hedge_percentile`` set, the client tracks observed
attempt latencies (bounded reservoir); once a verified primary response
comes back slower than that percentile, a hedged second request is
issued to the next-ranked endpoint.  The primary's verified result wins
(it completed first) and is secured *before* the hedge runs: the probe
is issued after the deadline check, and nothing the backup does — not
even a forged rejection frame — can surface as a failure past the
already-verified answer.  The hedge's value is the probe — it keeps the
backup's health and latency estimates warm so the *next* failover
decision is informed.  Hedges are counted in
``repro_cluster_hedges_total``.  One endpoint has no backup, so it
never hedges.

The soundness invariant is held in one place: every result returned by
this loop went through :func:`~repro.net.client.wire_exchange` →
``verify``, so **no unverified result is ever returned**, no matter
which replica answered.  See ``docs/OPERATIONS.md`` ("Replication,
failover, and overload") and ``benchmarks/chaos_soak.py`` for the
invariant drill.
"""

from __future__ import annotations

import random
import threading
import time
import weakref
from collections import deque
from typing import Callable, Dict, List, Optional

from repro.core.messages import QueryRequest
from repro.errors import (
    AccessDeniedError,
    CircuitOpenError,
    DeadlineExceededError,
    OverloadedError,
    ReproError,
    StaleEpochError,
    WorkloadError,
)
from repro.net.client import (
    CircuitBreaker,
    ClientStats,
    RetryPolicy,
    count_wire_error,
    fetch_trace_spans,
    is_tamper_error,
    probe_endpoint,
    wire_exchange,
)
from repro.net.server import PROBE_DRAINING, PROBE_READY
from repro.net.transport import Clock, Transport
from repro.obs import ledger as _ledger
from repro.obs import logging as _obslog
from repro.obs import metrics as _metrics
from repro.obs import relay as _relay
from repro.obs import trace as _trace

_REG = _metrics.registry()
_M_REQUESTS = _REG.counter(
    "repro_cluster_requests_total", "Logical queries issued by the client.",
    labelnames=("kind",),
)
_M_ATTEMPTS = _REG.counter(
    "repro_cluster_attempts_total", "Wire attempts per endpoint.",
    labelnames=("endpoint",),
)
_M_ATTEMPT_ERRORS = _REG.counter(
    "repro_cluster_attempt_errors_total", "Failed attempts by error class.",
    labelnames=("class",),
)
_M_OUTCOMES = _REG.counter(
    "repro_cluster_outcomes_total", "Logical query outcomes.",
    labelnames=("outcome",),
)
_M_EVICTED = _REG.counter(
    "repro_cluster_evicted_total",
    "Endpoint evictions: Byzantine quarantine vs transport breaker.",
    labelnames=("endpoint", "reason"),
)
_M_HEDGES = _REG.counter(
    "repro_cluster_hedges_total", "Hedged second requests issued.",
)
_M_PROBES = _REG.counter(
    "repro_cluster_probes_total",
    "Half-open liveness probes sent before committing a real query.",
    labelnames=("endpoint", "status"),
)
_M_OVERLOAD_WAITS = _REG.counter(
    "repro_cluster_overload_backoffs_total",
    "Endpoint rotations honoring a server retry-after hint.",
    labelnames=("endpoint",),
)
_M_QUARANTINED = _REG.gauge(
    "repro_cluster_quarantined", "Endpoints currently quarantined.",
)
# The gauge is one process-wide count: the sum of each live client's
# quarantined endpoints as that client last saw them.  A client joins on
# its first quarantine and leaves when it is collected.
_QUARANTINE_LOCK = threading.Lock()
_QUARANTINING: "weakref.WeakSet[ReplicatedClient]" = weakref.WeakSet()
_M_STALE = _REG.counter(
    "repro_cluster_stale_epochs_total",
    "Verified-but-stale answers per endpoint (lagging replica, degraded "
    "not quarantined).",
    labelnames=("endpoint",),
)
# The per-query updates, with their label sets resolved once.
_REQUESTS = {kind: _M_REQUESTS.labels(kind=kind) for kind in ("equality", "range", "join")}
_OUTCOMES = {
    outcome: _M_OUTCOMES.labels(outcome=outcome)
    for outcome in ("verified", "failed", "workload_rejected", "access_denied")
}
_LOG = _obslog.get_logger("cluster")

#: Health-score EWMA step: one observation moves the score 30% of the way
#: toward its outcome (1.0 success / 0.0 failure).
_HEALTH_ALPHA = 0.3
#: Latency EWMA step.
_LATENCY_ALPHA = 0.3


class Endpoint:
    """One replica's client-side state: transport + suspicion bookkeeping."""

    def __init__(self, name: str, transport: Transport,
                 breaker: CircuitBreaker, clock: Clock,
                 suspicion_decay: int = 8):
        self.name = name
        self.transport = transport
        self.breaker = breaker
        self.clock = clock
        self.suspicion_decay = suspicion_decay
        self.health = 1.0
        self.latency_ewma: Optional[float] = None
        self.quarantined_until: Optional[float] = None
        self.backoff_until = 0.0
        self.last_attempt_at = float("-inf")  # never attempted sorts first
        self.attempts = 0
        self.successes = 0
        self.rejection_suspects = 0
        self._suspicion_clean_streak = 0
        self.evictions: Dict[str, int] = {"tamper": 0, "transport": 0}
        # This endpoint's per-attempt and per-probe series, resolved once.
        self.attempt_metric = _M_ATTEMPTS.labels(endpoint=name)
        self.probe_metrics = {
            status: _M_PROBES.labels(endpoint=name, status=status)
            for status in (PROBE_READY, PROBE_DRAINING)
        }

    @property
    def quarantined(self) -> bool:
        return (self.quarantined_until is not None
                and self.clock.now() < self.quarantined_until)

    def eligible(self, now: float) -> bool:
        """In rotation: not quarantined, not backing off, breaker not open."""
        if self.quarantined_until is not None and now < self.quarantined_until:
            return False
        if now < self.backoff_until:
            return False
        return self.breaker.state != "open"

    def observe_success(self, latency: float) -> None:
        self.successes += 1
        self.health += _HEALTH_ALPHA * (1.0 - self.health)
        self._observe_latency(latency)
        self.breaker.record_success()
        if self.rejection_suspects:
            # A corroboration window of verified successes clears the
            # forged-rejection suspicion: one transient lie (or one query
            # that raced a config change) must not demote an honest
            # replica's ranking forever.
            self._suspicion_clean_streak += 1
            if self._suspicion_clean_streak >= self.suspicion_decay:
                self.rejection_suspects = 0
                self._suspicion_clean_streak = 0

    def note_suspicion(self) -> None:
        """Record an uncorroborated (possibly forged) rejection."""
        self.rejection_suspects += 1
        self._suspicion_clean_streak = 0

    def observe_transport_failure(self) -> None:
        self.health -= _HEALTH_ALPHA * self.health
        self.breaker.record_failure()

    def _observe_latency(self, latency: float) -> None:
        if self.latency_ewma is None:
            self.latency_ewma = latency
        else:
            self.latency_ewma += _LATENCY_ALPHA * (latency - self.latency_ewma)

    def snapshot(self) -> dict:
        return {
            "health": round(self.health, 4),
            "latency_ewma": self.latency_ewma,
            "quarantined": self.quarantined,
            "quarantined_until": self.quarantined_until,
            "backoff_until": self.backoff_until,
            "breaker": {
                "state": self.breaker.state,
                "consecutive_failures": self.breaker.failures,
                "failure_threshold": self.breaker.failure_threshold,
                "reset_timeout": self.breaker.reset_timeout,
            },
            "attempts": self.attempts,
            "successes": self.successes,
            "rejection_suspects": self.rejection_suspects,
            "evictions": dict(self.evictions),
        }


class ReplicatedClient:
    """Fan one logical query across N SP replicas; trust only the proofs.

    ``transports`` maps endpoint name → :class:`~repro.net.transport.
    Transport`.  Builds the three queries (``query_equality`` /
    ``query_range`` / ``query_join``), runs each under one root span
    (named by :attr:`SPAN`) with its ``CostLedger`` wall time, and
    returns only results that verified.  The attempt loop follows the
    rules in this module's docstring; :class:`ResilientClient` is this
    class over one endpoint.
    """

    #: Root span name of one logical query.
    SPAN = "cluster.query"
    #: Span name of one wire attempt (it carries the endpoint's name).
    ATTEMPT_SPAN = "cluster.attempt"

    def __init__(
        self,
        user,
        transports: Dict[str, Transport],
        policy: Optional[RetryPolicy] = None,
        clock: Optional[Clock] = None,
        rng: Optional[random.Random] = None,
        quarantine_window: float = 300.0,
        failure_threshold: int = 3,
        reset_timeout: float = 30.0,
        hedge_percentile: Optional[float] = 0.95,
        hedge_min_samples: int = 16,
        latency_reservoir: int = 128,
        suspicion_decay: int = 8,
    ):
        if not transports:
            raise ReproError("a replicated client needs at least one endpoint")
        if quarantine_window <= 0:
            raise ReproError("quarantine_window must be positive")
        if hedge_percentile is not None and not 0.0 < hedge_percentile < 1.0:
            raise ReproError("hedge_percentile must be in (0, 1) or None")
        if suspicion_decay < 1:
            raise ReproError("suspicion_decay must be >= 1")
        self.user = user
        self.policy = policy or RetryPolicy()
        self.clock = clock or Clock()
        self.rng = rng or random.Random()
        self.quarantine_window = quarantine_window
        self.hedge_percentile = hedge_percentile
        self.hedge_min_samples = max(2, hedge_min_samples)
        self.endpoints: Dict[str, Endpoint] = {
            name: Endpoint(
                name, transport,
                CircuitBreaker(failure_threshold, reset_timeout, clock=self.clock),
                self.clock,
                suspicion_decay=suspicion_decay,
            )
            for name, transport in transports.items()
        }
        self.counters = ClientStats()
        self._quarantined = 0
        self._latencies: deque = deque(maxlen=latency_reservoir)
        self._last_trace_id: Optional[str] = None

    def stats(self) -> dict:
        """One operational snapshot: counters, endpoint state, obs registry.

        The ``registry`` section is the client slice (``repro_cluster_*``)
        of the global metrics registry (empty when ``REPRO_OBS=0``) with
        raw histogram bucket dumps elided — latency distributions surface
        as interpolated ``quantiles`` summaries instead; ``ledger`` is the
        cost account of this client's most recent traced query.
        ``counters`` and ``endpoints`` are always live.
        """
        snapshot = _metrics.registry().snapshot()
        last = _ledger.ledger().get(self._last_trace_id)
        return {
            "counters": self.counters.as_dict(),
            "endpoints": {
                name: ep.snapshot() for name, ep in self.endpoints.items()
            },
            "registry": {
                key: value for key, value in snapshot.items()
                if key.startswith("repro_cluster_")
                and "|le=" not in key and not key.endswith("|sum")
            },
            "quantiles": _metrics.quantile_summaries(prefix="repro_"),
            "ledger": last.as_dict() if last is not None else None,
        }

    # -- public queries ------------------------------------------------------
    def query_equality(self, table: str, key, encrypt: bool = True):
        request = QueryRequest(
            kind="equality", table=table, lo=tuple(key), hi=tuple(key),
            roles=self.user.roles, encrypt=encrypt,
        )
        return self._execute(request, self.user.verify)

    def query_range(self, table: str, lo, hi, encrypt: bool = True):
        request = QueryRequest(
            kind="range", table=table, lo=tuple(lo), hi=tuple(hi),
            roles=self.user.roles, encrypt=encrypt,
        )
        return self._execute(request, self.user.verify)

    def query_join(self, left: str, right: str, lo, hi, encrypt: bool = True):
        request = QueryRequest(
            kind="join", table=left, right_table=right, lo=tuple(lo), hi=tuple(hi),
            roles=self.user.roles, encrypt=encrypt,
        )
        return self._execute(request, self.user.verify_join)

    def _execute(self, request: QueryRequest, verify: Callable):
        wall_t0 = time.perf_counter()
        claimed: List[Endpoint] = []  # endpoints whose half-open trial we hold
        with _trace.span(
            self.SPAN, kind=request.kind, table=request.table
        ) as query_span:
            trace_id = getattr(query_span, "trace_id", None)
            if trace_id is not None:
                self._last_trace_id = trace_id
            try:
                return self._execute_traced(request, verify, query_span, claimed)
            finally:
                # Every exit resolves the half-open trials this query
                # claimed (the hedge's included), even on an exception no
                # branch of the loop expects; otherwise a breaker keeps
                # the slot taken and its endpoint never re-enters the
                # rotation.  Idempotent after record_success/failure.
                for endpoint in claimed:
                    endpoint.breaker.release_probe()
                _ledger.ledger().set_wall(
                    trace_id, time.perf_counter() - wall_t0
                )

    # -- selection -----------------------------------------------------------
    def _ranked(self, now: float) -> list:
        """Eligible endpoints, best first; deterministic under ties.

        Healthiest first; among equal health the least-recently-attempted
        endpoint wins, which round-robins steady-state traffic across
        healthy replicas and guarantees every replica keeps being probed
        (a Byzantine replica cannot dodge detection by simply never
        being selected).  Endpoints under live forged-rejection suspicion
        sort behind every unsuspected one regardless of health — they
        stay reachable (and can clear their name through the decay
        window) but never outrank replicas with a clean record.
        """
        eligible = [e for e in self.endpoints.values() if e.eligible(now)]
        if len(eligible) > 1:
            eligible.sort(key=lambda e: (
                min(e.rejection_suspects, 1), -e.health, e.last_attempt_at, e.name,
            ))
        return eligible

    def _earliest_relief(self, now: float) -> Optional[float]:
        """Seconds until some endpoint re-enters rotation, if knowable."""
        horizons = []
        for ep in self.endpoints.values():
            if ep.quarantined:
                horizons.append(ep.quarantined_until - now)
            elif now < ep.backoff_until:
                horizons.append(ep.backoff_until - now)
            elif ep.breaker.state == "open":
                opened = ep.breaker._opened_at
                if opened is not None:
                    horizons.append(opened + ep.breaker.reset_timeout - now)
        return max(0.0, min(horizons)) if horizons else None

    def _no_endpoint_error(self, now: float) -> ReproError:
        """Why no endpoint took the query: overload backoff or breakers."""
        wait = min(ep.backoff_until for ep in self.endpoints.values()) - now
        if wait > 0:
            return OverloadedError(
                f"every endpoint is backing off an overload; retry after {wait:g}s",
                retry_after=wait,
            )
        return CircuitOpenError(
            "no eligible endpoint: all replicas quarantined, "
            "backing off, or circuit-open"
        )

    # -- eviction ------------------------------------------------------------
    def _quarantine(self, endpoint: Endpoint, now: float) -> None:
        endpoint.quarantined_until = now + self.quarantine_window
        endpoint.health = 0.0
        endpoint.evictions["tamper"] += 1
        self.counters.quarantines += 1
        _M_EVICTED.inc(endpoint=endpoint.name, reason="tamper")
        self._update_quarantine_gauge()
        _trace.add_event("endpoint_evicted", endpoint=endpoint.name, reason="tamper")
        _LOG.error(
            "endpoint_quarantined", endpoint=endpoint.name,
            until=endpoint.quarantined_until, window=self.quarantine_window,
        )

    def _transport_evict(self, endpoint: Endpoint) -> None:
        """Called when an endpoint's breaker transitioned to open."""
        endpoint.evictions["transport"] += 1
        _M_EVICTED.inc(endpoint=endpoint.name, reason="transport")
        _trace.add_event(
            "endpoint_evicted", endpoint=endpoint.name, reason="transport"
        )
        _LOG.warning(
            "endpoint_breaker_open", endpoint=endpoint.name,
            reset_timeout=endpoint.breaker.reset_timeout,
        )

    def _transport_failure(self, endpoint: Endpoint) -> None:
        """Health ding + breaker count; transport-evict on a fresh open."""
        was_open = endpoint.breaker.state == "open"
        endpoint.observe_transport_failure()
        if not was_open and endpoint.breaker.state == "open":
            self._transport_evict(endpoint)

    def _corroborated_rejection(self, endpoint: Endpoint, exc: ReproError,
                                rejected_by: Dict[str, set]) -> bool:
        """Decide whether a deterministic-looking rejection is trusted.

        Workload frames and access denials are unauthenticated, so a
        single Byzantine replica could forge them to abort queries
        without ever producing a refutable proof.  A lone rejection is
        recorded against the endpoint (transport-class) and the query
        fails over; only agreement from a second independent endpoint —
        or from the only endpoint there is — makes the rejection a
        property of the query rather than of a replica.
        """
        agreers = rejected_by.setdefault(type(exc).__name__, set())
        agreers.add(endpoint.name)
        if len(self.endpoints) == 1 or len(agreers) >= 2:
            return True
        self._suspect_rejection(endpoint, exc)
        return False

    def _suspect_rejection(self, endpoint: Endpoint, exc: ReproError) -> None:
        """Record an uncorroborated (possibly forged) rejection."""
        self.counters.rejection_suspects += 1
        endpoint.note_suspicion()
        _trace.add_event(
            "rejection_suspected", endpoint=endpoint.name,
            error=type(exc).__name__,
        )
        _LOG.warning(
            "rejection_suspected", endpoint=endpoint.name,
            error=type(exc).__name__,
        )
        self._transport_failure(endpoint)

    def _judge_failure(self, endpoint: Endpoint, exc: ReproError) -> float:
        """Count and penalize one failed exchange; returns its retry floor.

        ``overloaded`` takes the endpoint out of rotation for exactly the
        server's ``retry-after`` hint (returned, so the caller's backoff
        honours it) with no breaker penalty: the replica is healthy, just
        busy.  Otherwise a tamper quarantines the endpoint — unless it is
        the only one — and anything else, a stale epoch included, is a
        transport failure.
        """
        label = count_wire_error(exc, self.counters)
        if label is not None:
            _M_ATTEMPT_ERRORS.inc(**{"class": label})
        if isinstance(exc, OverloadedError):
            hint = exc.retry_after if exc.retry_after is not None else 0.0
            endpoint.backoff_until = self.clock.now() + hint
            _M_OVERLOAD_WAITS.inc(endpoint=endpoint.name)
            endpoint.breaker.record_success()
            return hint
        if isinstance(exc, StaleEpochError):
            _M_STALE.inc(endpoint=endpoint.name)
            _trace.add_event("stale_epoch", endpoint=endpoint.name)
        if is_tamper_error(exc) and len(self.endpoints) > 1:
            self._quarantine(endpoint, self.clock.now())
        else:
            self._transport_failure(endpoint)
        return 0.0

    def _probe_draining(self, endpoint: Endpoint) -> bool:
        """Best-effort liveness probe before spending a half-open slot.

        A draining server sheds real queries with ``overloaded`` frames,
        which would re-open the breaker and push re-admission further
        out; the probe lets the breaker tell "alive but draining" from
        "dead".  Only an affirmative ``draining`` status defers (the
        probe slot is released, no penalty recorded).  A failed or
        garbled probe proves nothing (old server, line noise, a tamperer
        corrupting cheap frames), so the real query proceeds and the
        endpoint is judged on its answer.
        """
        try:
            status = probe_endpoint(endpoint.transport, self.rng)
        except ReproError:
            return False
        self.counters.probes += 1
        endpoint.probe_metrics[status].inc()
        if status != PROBE_DRAINING:
            return False
        self.counters.probe_deferrals += 1
        endpoint.breaker.release_probe()
        _trace.add_event("probe_deferred", endpoint=endpoint.name)
        _LOG.info("probe_deferred", endpoint=endpoint.name)
        return True

    def _update_quarantine_gauge(self) -> None:
        """Recount this client's quarantined endpoints and set the
        process-wide gauge to every live client's count."""
        count = sum(1 for e in self.endpoints.values() if e.quarantined)
        with _QUARANTINE_LOCK:
            self._quarantined = count
            _QUARANTINING.add(self)
            _M_QUARANTINED.set(sum(c._quarantined for c in _QUARANTINING))

    # -- deadline and backoff ------------------------------------------------
    def _expired(self, start: float) -> bool:
        if self.policy.deadline is None:
            return False
        return self.clock.now() - start >= self.policy.deadline

    def _bounded_backoff(self, attempt: int, start: float,
                         floor: float = 0.0) -> float:
        """Backoff for ``attempt``, floored by a server retry-after hint
        and clamped so the client never sleeps past its own deadline."""
        delay = max(self.policy.backoff(attempt, self.rng), floor)
        if self.policy.deadline is not None:
            remaining = self.policy.deadline - (self.clock.now() - start)
            delay = min(delay, max(0.0, remaining))
        return delay

    # -- the attempt loop ----------------------------------------------------
    def _execute_traced(self, request: QueryRequest, verify, query_span,
                        claimed: List[Endpoint]):
        self.counters.requests += 1
        _REQUESTS[request.kind].inc()
        payload = request.to_bytes()
        start = self.clock.now()
        last_error: Optional[ReproError] = None
        rejected_by: Dict[str, set] = {}  # error class -> agreeing endpoints
        for attempt in range(self.policy.max_attempts):
            if self._expired(start):
                break
            ranked = self._ranked(self.clock.now())
            if not ranked:
                self.counters.exhausted_rotations += 1
            retry_floor = 0.0
            for position, endpoint in enumerate(ranked):
                half_open = endpoint.breaker.state == "half-open"
                if not endpoint.breaker.allow():
                    continue  # half-open trial already taken elsewhere
                if half_open:
                    claimed.append(endpoint)
                    if self._probe_draining(endpoint):
                        # Resting, not failing: slot freed, no penalty.
                        last_error = OverloadedError(
                            f"endpoint {endpoint.name} is draining (liveness "
                            "probe); retry after resume"
                        )
                        continue
                if position:
                    self.counters.failovers += 1
                    _trace.add_event("failover", to=endpoint.name)
                try:
                    result, latency = self._try_endpoint(
                        endpoint, payload, verify
                    )
                except (WorkloadError, AccessDeniedError) as exc:
                    last_error = exc
                    if self._corroborated_rejection(endpoint, exc, rejected_by):
                        # Independent replicas agree: the rejection is a
                        # property of the query, not of an endpoint.
                        self.counters.failures += 1
                        _OUTCOMES["workload_rejected"
                                  if isinstance(exc, WorkloadError)
                                  else "access_denied"].inc()
                        raise
                    continue
                except ReproError as exc:
                    last_error = exc
                    retry_floor = max(retry_floor, self._judge_failure(endpoint, exc))
                    continue
                endpoint.observe_success(latency)
                if self._expired(start):
                    break  # verified but late: the deadline contract rules
                self.counters.verified += 1
                query_span.set_attributes(
                    attempts=attempt + 1, endpoint=endpoint.name,
                    outcome="verified",
                )
                _OUTCOMES["verified"].inc()
                # Hedge only after the verified result is secured: the
                # probe's extra round-trip runs after the deadline
                # check, so a slow or misbehaving backup can no longer
                # cost the caller the answer it already earned.
                self._maybe_hedge(endpoint, ranked, payload, verify, latency,
                                  claimed)
                if self.counters.quarantines:
                    # Refresh the gauge once some quarantine has begun, so
                    # it falls back when a window ends.
                    self._update_quarantine_gauge()
                return result
            if self._expired(start):
                break
            if attempt + 1 < self.policy.max_attempts:
                relief = self._earliest_relief(self.clock.now())
                if relief is not None:
                    retry_floor = max(retry_floor, relief)
                self.clock.sleep(self._bounded_backoff(attempt, start, retry_floor))
        self.counters.failures += 1
        _OUTCOMES["failed"].inc()
        query_span.set_attribute("outcome", "failed")
        last_error = last_error or self._no_endpoint_error(self.clock.now())
        _LOG.error(
            "query_failed", kind=request.kind, table=request.table,
            last_error=type(last_error).__name__,
        )
        if self._expired(start):
            raise DeadlineExceededError(
                f"deadline of {self.policy.deadline}s exceeded across "
                f"{len(self.endpoints)} endpoint(s)"
            ) from last_error
        raise last_error

    def _try_endpoint(self, endpoint: Endpoint, payload: bytes, verify):
        self.counters.attempts += 1
        endpoint.attempts += 1
        endpoint.last_attempt_at = before = self.clock.now()
        endpoint.attempt_metric.inc()
        with _trace.span(self.ATTEMPT_SPAN, endpoint=endpoint.name):
            result = wire_exchange(
                endpoint.transport, payload, verify, self.user.group,
                self.rng, self.counters,
            )
        latency = self.clock.now() - before
        self._latencies.append(latency)
        return result, latency

    # -- hedging -------------------------------------------------------------
    def _hedge_threshold(self) -> Optional[float]:
        if len(self._latencies) < self.hedge_min_samples:
            return None
        ordered = sorted(self._latencies)
        index = min(
            len(ordered) - 1, int(self.hedge_percentile * len(ordered))
        )
        return ordered[index]

    def _maybe_hedge(self, primary: Endpoint, ranked, payload, verify,
                     latency: float, claimed: List[Endpoint]) -> None:
        """Probe the next-best endpoint after a slow (verified) primary.

        The primary's result already won the race *and is already
        secured* (this runs after the deadline check, right before the
        result is returned), so no outcome here may raise; the hedge
        keeps the backup's health/latency estimates warm and is
        counted, so operators can see tail-latency pressure building.
        A half-open trial the hedge claims goes into ``claimed``.
        """
        if self.hedge_percentile is None or len(ranked) < 2:
            return  # hedging off, or no backup in rotation
        threshold = self._hedge_threshold()
        if threshold is None or latency <= threshold:
            return
        for backup in ranked:
            if backup is primary:
                continue
            half_open = backup.breaker.state == "half-open"
            if backup.breaker.allow():
                if half_open:
                    claimed.append(backup)
                break
        else:
            return
        self.counters.hedges += 1
        _M_HEDGES.inc()
        _trace.add_event(
            "hedge_issued", primary=primary.name, backup=backup.name,
            latency=latency, threshold=threshold,
        )
        try:
            _, hedge_latency = self._try_endpoint(backup, payload, verify)
        except (WorkloadError, AccessDeniedError) as exc:
            # The primary's verified result already proved the query is
            # answerable, so a deterministic rejection from the backup
            # contradicts a proven answer: record it against the backup
            # and never let it surface past the verified result.
            self._suspect_rejection(backup, exc)
        except ReproError as exc:
            self._judge_failure(backup, exc)
        else:
            backup.observe_success(hedge_latency)

    # -- trace assembly ------------------------------------------------------
    def _attempt_owners(self, trace_id: str) -> dict:
        """``request_suffix -> endpoint name`` from this trace's attempts.

        Every wire attempt records the random half of its request id on
        the ``cluster.attempt`` span (which also names the endpoint), so
        the local trace tree is an exact record of which endpoint each
        exchange went to.  Only attempts against *this* cluster's
        endpoints are claimed — in a sharded topology every shard's
        attempts share one trace tree, and each shard cluster must
        claim exactly its own exchanges.
        """
        root = _trace.tracer().find_trace(trace_id)
        if root is None:
            return {}
        owners: dict = {}
        stack = [root.to_dict() if hasattr(root, "to_dict") else root]
        while stack:
            node = stack.pop()
            attrs = node.get("attributes") or {}
            suffix = attrs.get(_relay.REQUEST_SUFFIX_ATTR)
            endpoint = attrs.get("endpoint")
            if suffix is not None and endpoint in self.endpoints:
                owners[suffix] = endpoint
            stack.extend(node.get("children") or ())
        return owners

    def collect_remote_spans(self, trace_id: str) -> list:
        """Scrape every endpoint's span relay for ``trace_id``.

        Each fetched span is claimed by the endpoint whose wire attempt
        recorded the same ``request_suffix`` and tagged with that name
        as ``relay_origin``.  Claiming by suffix rather than by which
        scrape returned the span keeps provenance honest on in-process
        loopback topologies, where every endpoint shares one
        process-global relay and each scrape returns *every* server's
        spans for the trace; spans whose exchange this client never
        made (another shard's, in a sharded deployment) are left for
        their owner to claim.  Endpoints that fail the scrape are
        skipped — trace assembly is best-effort observability, never a
        query-path dependency.
        """
        owners = self._attempt_owners(trace_id)
        remote: list = []
        seen: set = set()
        for name, endpoint in self.endpoints.items():
            try:
                spans = fetch_trace_spans(endpoint.transport, trace_id)
            except ReproError:
                continue
            for span in spans:
                if span.get("span_id") in seen:
                    continue
                attrs = span.setdefault("attributes", {})
                suffix = attrs.get(_relay.REQUEST_SUFFIX_ATTR)
                if suffix is not None:
                    owner = owners.get(suffix)
                    if owner is None:
                        continue  # someone else's exchange (shared relay)
                else:
                    # No suffix to match (not a handle_frame root): trust
                    # the scraped endpoint, as a per-server relay would.
                    owner = name
                seen.add(span.get("span_id"))
                attrs[_relay.RELAY_ORIGIN_ATTR] = owner
                remote.append(span)
        return remote

    def assemble_trace(self, trace_id: Optional[str] = None) -> Optional[dict]:
        """One coherent tree for a logical query: local + replica spans.

        With no ``trace_id`` the last finished query's trace is used.
        Returns ``None`` when that trace is not in the tracer's finished
        ring (or tracing is off).
        """
        trace_id = trace_id or self._last_trace_id
        if trace_id is None:
            return None
        root = _trace.tracer().find_trace(trace_id)
        if root is None:
            return None
        return _relay.assemble_trace(root, self.collect_remote_spans(trace_id))


class ResilientClient(ReplicatedClient):
    """The client over one SP: :class:`ReplicatedClient` with one endpoint.

    Every rule of the one loop applies with one endpoint: its breaker
    counts attempts and an open breaker is waited out within the query's
    deadline and attempt budget; a tamper is retried and counted on the
    breaker, never quarantined; a rejection is trusted at once (the only
    endpoint there is corroborates itself); there is no backup to hedge
    to.  The endpoint is named ``"sp"``; ``failure_threshold`` and
    ``reset_timeout`` build its breaker, with the
    :class:`~repro.net.client.CircuitBreaker` defaults.  Spans keep the
    single-SP names.
    """

    SPAN = "client.query"
    ATTEMPT_SPAN = "client.attempt"

    def __init__(self, user, transport: Transport,
                 policy: Optional[RetryPolicy] = None,
                 clock: Optional[Clock] = None,
                 rng: Optional[random.Random] = None,
                 *, failure_threshold: int = 5, reset_timeout: float = 30.0):
        super().__init__(user, {"sp": transport}, policy, clock, rng,
                         failure_threshold=failure_threshold,
                         reset_timeout=reset_timeout)
        self.endpoint = self.endpoints["sp"]

    @property
    def breaker(self) -> CircuitBreaker:
        return self.endpoint.breaker


__all__ = ["Endpoint", "ReplicatedClient", "ResilientClient"]
