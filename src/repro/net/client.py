"""A fault-tolerant query client: retries, deadlines, circuit breaking.

:class:`QueryClient` is the user side of the protocol, defined once:
it builds the three queries (equality / range / join), runs each under
one ``client.query``/``cluster.query`` span with its ``CostLedger`` wall
time, opens and verifies every response before returning it, and
classifies failed attempts into :class:`ClientStats`.  Its two
subclasses differ only in their attempt loop.  :class:`ResilientClient` speaks through one
:class:`~repro.net.transport.Transport` that is allowed to fail.  Per
logical query it:

1. fails fast with :class:`~repro.errors.CircuitOpenError` while the
   circuit breaker is open; a half-open trial first sends a cheap
   liveness probe (:func:`probe_endpoint`), so a server that is merely
   *draining* defers the trial as a typed ``overloaded`` error instead
   of burning the probe on a real query and re-opening the breaker;
2. frames the request under a fresh random 16-byte id per attempt, so a
   duplicated or replayed response (stale id) is detected, counted, and
   retried rather than trusted;
3. retries transport faults, undecodable responses, server error frames,
   and *failed verifications* with exponential backoff + jitter, up to
   ``max_attempts`` and bounded by the per-request ``deadline``; an
   ``overloaded`` error frame's ``retry-after`` hint floors the backoff,
   and no backoff is slept after the final attempt;
4. re-raises the last typed error when attempts run out — so every
   outcome is either a **verified** result or a
   :class:`~repro.errors.ReproError` subclass.

Retrying a verification failure never weakens soundness: each retry
verifies a *fresh* response from scratch, and a persistently tampering
SP simply exhausts the budget and surfaces the
:class:`~repro.errors.VerificationError`.  Two server answers are
deliberately non-retryable because they are deterministic properties of
the query, not of the SP: the ``workload`` error frame (unknown table /
malformed query semantics), raised immediately as
:class:`~repro.errors.WorkloadError`, and a CP-ABE policy denial
(the user's attributes do not satisfy the sealed result's policy),
raised immediately as :class:`~repro.errors.AccessDeniedError`.

The single-endpoint loop and the failover loop of
:class:`~repro.net.cluster.ReplicatedClient` differ on purpose, because
one SP and N replicas call for different policies: this breaker counts
*logical queries* while the cluster's per-endpoint breakers count
*attempts*; an open breaker here fails fast, while the cluster sleeps
until the earliest endpoint relief; a tamper from the only SP is
retried, while the cluster quarantines the endpoint; and an uncaught
:class:`~repro.errors.ReproError` propagates here, while the cluster
fails over to the next replica.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.messages import (
    ErrorResponse,
    QueryRequest,
    decode_response,
    is_error_frame,
)
from repro.errors import (
    AccessDeniedError,
    CircuitOpenError,
    CryptoError,
    DeadlineExceededError,
    DeserializationError,
    OverloadedError,
    ReproError,
    StaleEpochError,
    TransportError,
    VerificationError,
    WorkloadError,
)
from repro.net.transport import (
    REQUEST_ID_BYTES,
    Clock,
    Transport,
    embed_trace_id,
    frame,
    unframe,
)
from repro.obs import ledger as _ledger
from repro.obs import logging as _obslog
from repro.obs import metrics as _metrics
from repro.obs import relay as _relay
from repro.obs import trace as _trace

#: Server-side ledger stages a loopback round trip may charge inline;
#: wire_exchange subtracts their delta so "wire" stays exclusive.
_SERVER_STAGES = ("traverse", "materialize", "seal")
#: Client-side stages a response's ``verify`` callable charges before it
#: checks the VO (CP-ABE open, VO decode).
_OPEN_STAGES = ("open", "codec")

_REG = _metrics.registry()
_M_REQUESTS = _REG.counter(
    "repro_client_requests_total", "Logical queries issued by ResilientClient.",
    labelnames=("kind",),
)
_M_ATTEMPTS = _REG.counter(
    "repro_client_attempts_total", "Wire attempts (first tries plus retries).",
)
_M_RETRIES = _REG.counter(
    "repro_client_retries_total", "Attempts beyond the first per logical query.",
)
_M_OUTCOMES = _REG.counter(
    "repro_client_outcomes_total", "Logical query outcomes.",
    labelnames=("outcome",),
)
_M_ATTEMPT_ERRORS = _REG.counter(
    "repro_client_attempt_errors_total", "Failed attempts by error class.",
    labelnames=("class",),
)
_M_BREAKER = _REG.counter(
    "repro_client_breaker_transitions_total",
    "Circuit breaker state transitions.", labelnames=("to",),
)
# The per-query updates, with their label sets resolved once.
_REQUESTS = {kind: _M_REQUESTS.labels(kind=kind) for kind in ("equality", "range", "join")}
_ATTEMPT = _M_ATTEMPTS.labels()
_VERIFIED = _M_OUTCOMES.labels(outcome="verified")
_LOG = _obslog.get_logger("client")


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with jitter and an optional deadline."""

    max_attempts: int = 5
    base_delay: float = 0.02
    max_delay: float = 1.0
    jitter: float = 0.5  # extra fraction of the delay, drawn uniformly
    deadline: Optional[float] = None  # seconds per logical query

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ReproError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0 or self.jitter < 0:
            raise ReproError("delays and jitter must be non-negative")

    def backoff(self, attempt: int, rng: random.Random) -> float:
        """Delay before retry number ``attempt`` (0-based)."""
        delay = min(self.max_delay, self.base_delay * (2**attempt))
        return delay * (1.0 + self.jitter * rng.random())


class CircuitBreaker:
    """Fail fast after ``failure_threshold`` consecutive failed queries.

    States: *closed* (normal), *open* (every call rejected until
    ``reset_timeout`` elapses), *half-open* (exactly **one** trial
    allowed; success closes the circuit, failure re-opens it for another
    full window).  ``allow()`` enforces the single probe: the first
    caller in half-open is admitted, every further caller is rejected
    until the probe resolves via :meth:`record_success`,
    :meth:`record_failure`, or :meth:`release_probe` (for outcomes that
    say nothing about the endpoint).  Every state transition — including
    half-open → open re-opens — increments
    ``repro_client_breaker_transitions_total{to=...}``.
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_timeout: float = 30.0,
        clock: Optional[Clock] = None,
    ):
        if failure_threshold < 1:
            raise ReproError("failure_threshold must be >= 1")
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self.clock = clock or Clock()
        self.failures = 0
        self._opened_at: Optional[float] = None
        self._probe_inflight = False

    @property
    def state(self) -> str:
        if self._opened_at is None:
            return "closed"
        if self.clock.now() - self._opened_at >= self.reset_timeout:
            return "half-open"
        return "open"

    def allow(self) -> bool:
        state = self.state
        if state == "closed":
            return True
        if state == "open":
            return False
        # Half-open: admit exactly one probe until it resolves.
        if self._probe_inflight:
            return False
        self._probe_inflight = True
        _M_BREAKER.inc(to="half-open")
        return True

    def record_success(self) -> None:
        if self._opened_at is not None:
            _M_BREAKER.inc(to="closed")
        self.failures = 0
        self._opened_at = None
        self._probe_inflight = False

    def release_probe(self) -> None:
        """Resolve a claimed half-open probe without judging the SP.

        For outcomes that are deterministic properties of the *query* —
        a workload rejection, a policy denial — rather than evidence
        about the endpoint: the probe slot is freed so later callers
        can re-probe, with no state transition and no failure count.
        Every path that claims a probe via :meth:`allow` must resolve
        it through this, :meth:`record_success`, or
        :meth:`record_failure`, or the breaker is stuck half-open with
        the slot taken forever.
        """
        self._probe_inflight = False

    def record_failure(self) -> None:
        was_half_open = self.state == "half-open"
        self.failures += 1
        if was_half_open:
            # The probe failed: re-open for another full window.  This is
            # a transition even though _opened_at was already set.
            _M_BREAKER.inc(to="open")
            self._opened_at = self.clock.now()
            self._probe_inflight = False
        elif self.failures >= self.failure_threshold:
            if self._opened_at is None:
                _M_BREAKER.inc(to="open")
            self._opened_at = self.clock.now()


@dataclass
class ClientStats:
    """Operational counters, exposed for tests, examples, dashboards."""

    requests: int = 0
    attempts: int = 0
    retries: int = 0
    failures: int = 0
    transport_errors: int = 0
    decode_failures: int = 0
    verification_failures: int = 0
    duplicates_detected: int = 0
    error_frames: int = 0
    breaker_rejections: int = 0
    overload_rejections: int = 0
    probes: int = 0
    probe_deferrals: int = 0
    stale_epochs: int = 0

    def as_dict(self) -> dict:
        return dict(self.__dict__)


_RETRYABLE = (TransportError, CryptoError, VerificationError)

#: Exception classes that prove *content* tampering (a forged proof or
#: sealed envelope) as opposed to transport-level corruption or loss.
#: DeserializationError is excluded: an undecodable frame is
#: indistinguishable from line noise, so it is transport-class.
#: AccessDeniedError is excluded too: CP-ABE raises it when the user's
#: attributes simply do not satisfy the ciphertext policy — legitimate
#: access-control enforcement by an honest replica, not tamper evidence
#: (a tampered envelope fails its integrity check and raises
#: CryptoError instead).
TAMPER_ERRORS = (VerificationError, CryptoError)


def is_tamper_error(exc: BaseException) -> bool:
    """True when ``exc`` proves content tampering, not transport loss.

    This is the classification :class:`~repro.net.cluster.
    ReplicatedClient` uses to decide between a Byzantine (``tamper``)
    and a transport eviction for the endpoint that produced ``exc``.
    """
    if isinstance(exc, (DeserializationError, AccessDeniedError)):
        return False
    if isinstance(exc, StaleEpochError):
        # A genuinely DO-signed token that is merely old proves the
        # replica is *lagging* (partitioned through rotations, not yet
        # caught up), not forging: degraded/transport-class, so the
        # cluster fails over and lets catch-up replay heal it instead of
        # quarantining an honest endpoint.
        return False
    return isinstance(exc, TAMPER_ERRORS)


#: Failed-attempt classes in match order: (exception classes, the
#: :class:`ClientStats` field counting them, the metric label).  The
#: order makes the last row exactly :func:`is_tamper_error`:
#: deserialization and stale-epoch failures match earlier rows.  Stale
#: epochs are degraded, not Byzantine: counted apart so dashboards can
#: tell a replica lagging behind rotations from forged proofs.
_WIRE_ERROR_CLASSES = (
    (DeserializationError, "decode_failures", "decode"),
    (OverloadedError, "overload_rejections", "overloaded"),
    (TransportError, "transport_errors", "transport"),
    (StaleEpochError, "stale_epochs", "stale-epoch"),
    (TAMPER_ERRORS, "verification_failures", "verification"),
)


def count_wire_error(exc: BaseException, counters: ClientStats) -> Optional[str]:
    """Count one failed attempt in ``counters``; returns its class label.

    The one classification both clients use (``wire_exchange`` itself
    only counts what it can see: duplicates and error frames).  Errors
    that say nothing about the wire or the proof — a policy denial, a
    workload rejection — are left uncounted and return ``None``.
    """
    for kinds, field_name, label in _WIRE_ERROR_CLASSES:
        if isinstance(exc, kinds):
            setattr(counters, field_name, getattr(counters, field_name) + 1)
            return label
    return None


def _request_id(rng: Optional[random.Random]) -> bytes:
    """A fresh 128-bit request id, drawn from ``rng`` or, if None, the OS.

    The seeded draw always takes the full 128 bits: a stable rng-stream
    contract the deterministic backoff/deadline tests rely on.
    """
    if rng is None:
        return os.urandom(REQUEST_ID_BYTES)
    return rng.getrandbits(8 * REQUEST_ID_BYTES).to_bytes(REQUEST_ID_BYTES, "big")


def _control_exchange(transport, request_id: bytes, payload: bytes,
                      what: str) -> bytes:
    """Round-trip a control frame; reject a reply under another id."""
    reply_id, body = unframe(transport.round_trip(frame(request_id, payload)))
    if reply_id != request_id:
        raise TransportError(f"{what} response id mismatch")
    return body


def wire_exchange(transport, payload: bytes, verify: Callable, group,
                  rng: random.Random, counters: ClientStats):
    """One framed request/verify exchange — the shared wire attempt.

    Frames ``payload`` under a fresh random 16-byte id (trace-stamped),
    round-trips it, rejects id mismatches (duplicates/replays), decodes
    typed error frames, and funnels the decoded response through
    ``verify``.  Both :class:`ResilientClient` and
    :class:`~repro.net.cluster.ReplicatedClient` speak the wire through
    this function, so duplicate detection and error-frame semantics can
    never drift between the single-endpoint and replicated paths.
    """
    # Stamp the active trace id over the first 8 bytes of the fresh id
    # for wire correlation.
    trace_id = _trace.current_trace_id()
    request_id = embed_trace_id(_request_id(rng), trace_id)
    attempt_span = _trace.current_span()
    if attempt_span is not None:
        # The graft key the span relay matches on: the server stamps the
        # same suffix on its handle_frame span (see repro.obs.relay).
        attempt_span.set_attribute(
            _relay.REQUEST_SUFFIX_ATTR,
            request_id[_trace.TRACE_ID_BYTES:].hex(),
        )
    ledger = _ledger.ledger()
    # One ledger record per exchange: the stages that ran, plus the memo
    # look-ups this thread tallied while decoding and verifying.
    stages, tallied = {}, None
    try:
        nested_before = ledger.stage_seconds(trace_id, _SERVER_STAGES)
        wire_t0 = time.perf_counter()
        reply = transport.round_trip(frame(request_id, payload))
        # Charge the round trip exclusive of server-side stages charged
        # to this trace *during* the call: on an in-process loopback the
        # engine and the seal run inline, and counting their time under
        # both "wire" and their own stages would sum to ~2x wall.  Across a
        # real socket nothing nests, and wire = network + remote server
        # time, which is equally honest.
        nested = ledger.stage_seconds(trace_id, _SERVER_STAGES) - nested_before
        stages["wire"] = (time.perf_counter() - wire_t0) - nested
        reply_id, body = unframe(reply)
        if reply_id != request_id:
            counters.duplicates_detected += 1
            _trace.add_event("duplicate_detected")
            raise TransportError(
                "response id mismatch: duplicated or replayed frame rejected"
            )
        if is_error_frame(body):
            error = ErrorResponse.from_bytes(body)
            counters.error_frames += 1
            _trace.add_event("error_frame", code=error.code)
            if error.code == ErrorResponse.WORKLOAD:
                raise WorkloadError(f"SP rejected query: {error.message}")
            if error.code == ErrorResponse.OVERLOADED:
                raise OverloadedError(
                    f"SP shed request: {error.message}",
                    retry_after=error.retry_after_hint(),
                )
            raise TransportError(f"SP error frame [{error.code}]: {error.message}")
        tallied = _ledger.tally_snapshot()
        decode_t0 = time.perf_counter()
        response = decode_response(group, body)
        stages["codec"] = time.perf_counter() - decode_t0
        # ``verify`` opens a sealed response and decodes its VO first, which
        # charges "open" and "codec"; subtract them so "verify" counts only
        # the VO checks.
        open_before = ledger.stage_seconds(trace_id, _OPEN_STAGES)
        verify_t0 = time.perf_counter()
        result = verify(response)
        opened = ledger.stage_seconds(trace_id, _OPEN_STAGES) - open_before
        stages["verify"] = time.perf_counter() - verify_t0 - opened
        return result
    finally:
        if trace_id is not None:
            memo_counts = _ledger.tally_since(tallied) if tallied is not None else {}
            ledger.record(trace_id, stages, **memo_counts)


def probe_endpoint(transport, rng: random.Random) -> str:
    """One cheap liveness/admission probe; returns the server's status.

    Round-trips a :data:`~repro.net.server.PROBE_REQUEST` frame under a
    fresh request id and returns the status word (``"ready"`` /
    ``"draining"``).  Probes carry no proof material — they answer
    "should I spend a real query here?", never "can I trust this
    endpoint?" — so callers must treat any status as unauthenticated
    advice and keep verifying real responses as usual.
    """
    from repro.net.server import PROBE_REQUEST, decode_probe_response

    request_id = embed_trace_id(_request_id(rng), _trace.current_trace_id())
    return decode_probe_response(
        _control_exchange(transport, request_id, PROBE_REQUEST, "probe")
    )


def fetch_trace_spans(transport, trace_id: str) -> list[dict]:
    """Scrape one endpoint's relayed spans for a trace id (``TRC`` frame).

    The request id is drawn from ``os.urandom`` — deliberately *not*
    from a client's seeded rng: trace assembly is an observability read
    and must never perturb the deterministic rng streams the protocol
    tests replay.
    """
    from repro.net.server import TRACE_REQUEST, decode_trace_response

    raw = bytes.fromhex(trace_id)
    if len(raw) != _trace.TRACE_ID_BYTES:
        raise TransportError(f"malformed trace id {trace_id!r}")
    return decode_trace_response(_control_exchange(
        transport, _request_id(None), TRACE_REQUEST + raw, "trace scrape"
    ))


class QueryClient:
    """The user-side query pipeline both per-endpoint clients share.

    Builds the three queries, runs each under one root span (named by
    :attr:`SPAN`) with its ``CostLedger`` wall time, verifies every
    response before returning it, and owns the deadline and backoff
    arithmetic.  A
    subclass supplies ``counters`` and the attempt loop,
    ``_execute_traced(request, verify, query_span)``.
    """

    #: Root span name of one logical query.
    SPAN = "client.query"
    #: Registry-key prefix of this client's slice in :meth:`stats`.
    METRICS_PREFIX = "repro_client_"
    #: Histogram prefix of the ``quantiles`` summary in :meth:`stats`.
    QUANTILES_PREFIX = "repro_"

    def __init__(self, user, policy: Optional[RetryPolicy],
                 clock: Optional[Clock], rng: Optional[random.Random]):
        self.user = user
        self.policy = policy or RetryPolicy()
        self.clock = clock or Clock()
        self.rng = rng or random.Random()
        self._last_trace_id: Optional[str] = None

    def stats(self) -> dict:
        """One operational snapshot: counters, endpoint state, obs registry.

        The ``registry`` section is this client's slice of the global
        metrics registry (empty when ``REPRO_OBS=0``) with raw histogram
        bucket dumps elided — latency distributions surface as
        interpolated ``quantiles`` summaries instead; ``ledger`` is the
        cost account of this client's most recent traced query.
        ``counters`` and the endpoint state are always live.
        """
        snapshot = _metrics.registry().snapshot()
        last = _ledger.ledger().get(self._last_trace_id)
        return {
            "counters": self.counters.as_dict(),
            **self._endpoint_state(),
            "registry": {
                key: value for key, value in snapshot.items()
                if key.startswith(self.METRICS_PREFIX)
                and "|le=" not in key and not key.endswith("|sum")
            },
            "quantiles": _metrics.quantile_summaries(prefix=self.QUANTILES_PREFIX),
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
        with _trace.span(
            self.SPAN, kind=request.kind, table=request.table
        ) as query_span:
            trace_id = getattr(query_span, "trace_id", None)
            if trace_id is not None:
                self._last_trace_id = trace_id
            try:
                return self._execute_traced(request, verify, query_span)
            finally:
                _ledger.ledger().set_wall(
                    trace_id, time.perf_counter() - wall_t0
                )

    def _probe(self, transport) -> Optional[str]:
        """Best-effort liveness probe before spending a half-open trial.

        Returns the server's status word, or ``None`` when the probe
        failed: a failed or garbled probe proves nothing (old server,
        line noise, a tamperer corrupting cheap frames), so the real
        query proceeds and the endpoint is judged on its answer.
        """
        try:
            status = probe_endpoint(transport, self.rng)
        except ReproError:
            return None
        self.counters.probes += 1
        return status

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


class ResilientClient(QueryClient):
    """Fault-tolerant three-query client over an unreliable transport."""

    def __init__(
        self,
        user,
        transport: Transport,
        policy: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        clock: Optional[Clock] = None,
        rng: Optional[random.Random] = None,
    ):
        super().__init__(user, policy, clock, rng)
        self.transport = transport
        self.breaker = breaker or CircuitBreaker(clock=self.clock)
        self.counters = ClientStats()

    def _endpoint_state(self) -> dict:
        return {
            "breaker": {
                "state": self.breaker.state,
                "consecutive_failures": self.breaker.failures,
                "failure_threshold": self.breaker.failure_threshold,
                "reset_timeout": self.breaker.reset_timeout,
            },
        }

    # -- the retry loop ------------------------------------------------------
    def _execute_traced(self, request: QueryRequest, verify: Callable, query_span):
        was_half_open = self.breaker.state == "half-open"
        if not self.breaker.allow():
            self.counters.breaker_rejections += 1
            _M_OUTCOMES.inc(outcome="breaker_rejected")
            _LOG.warning("breaker_rejected", kind=request.kind, table=request.table)
            raise CircuitOpenError(
                f"circuit open after {self.breaker.failures} consecutive "
                f"failures; retry after {self.breaker.reset_timeout}s"
            )
        try:
            return self._retry_loop(request, verify, query_span, was_half_open)
        finally:
            if was_half_open:
                # Every exit resolves the claimed half-open probe — even
                # an exception no branch of the loop expects — or the
                # breaker is stuck with the slot taken and rejects every
                # later query.  Idempotent after record_success/failure.
                self.breaker.release_probe()

    def _retry_loop(self, request: QueryRequest, verify: Callable, query_span,
                    was_half_open: bool):
        if was_half_open and self._probe(self.transport) == "draining":
            # The server is alive but gracefully draining: failing the
            # half-open probe with a real query would re-open the breaker
            # for a full window and delay re-admission long past the
            # server's resume().  Free the probe slot without judgement
            # and surface a typed overload instead.
            self.counters.probe_deferrals += 1
            _M_OUTCOMES.inc(outcome="draining")
            _LOG.warning("probe_deferred", kind=request.kind, table=request.table)
            raise OverloadedError(
                "endpoint is draining (liveness probe); retry after resume"
            )
        self.counters.requests += 1
        _REQUESTS[request.kind].inc()
        payload = request.to_bytes()
        start = self.clock.now()
        last_error: Optional[ReproError] = None
        for attempt in range(self.policy.max_attempts):
            if self._expired(start):
                break
            if attempt:
                self.counters.retries += 1
                _M_RETRIES.inc()
            self.counters.attempts += 1
            _ATTEMPT.inc()
            try:
                with _trace.span("client.attempt", attempt=attempt):
                    result = wire_exchange(
                        self.transport, payload, verify, self.user.group,
                        self.rng, self.counters,
                    )
            except (WorkloadError, AccessDeniedError) as exc:
                # Deterministic rejection: the query itself is wrong
                # (workload), or the user's attributes do not satisfy
                # the result's policy (access denied).  Not an SP
                # failure — the breaker does not count it (a claimed
                # half-open probe is freed on the way out).
                self.counters.failures += 1
                _M_OUTCOMES.inc(outcome=(
                    "workload_rejected" if isinstance(exc, WorkloadError)
                    else "access_denied"
                ))
                raise
            except _RETRYABLE as exc:
                last_error = exc
                _M_ATTEMPT_ERRORS.inc(**{"class": count_wire_error(exc, self.counters)})
                _LOG.warning(
                    "attempt_failed", attempt=attempt,
                    error=type(exc).__name__,
                )
                # Sleeping after the *final* failed attempt (or once the
                # deadline is already gone) only delays the error the
                # caller is about to receive — skip it.
                if attempt + 1 < self.policy.max_attempts and not self._expired(start):
                    floor = getattr(exc, "retry_after", None) or 0.0
                    self.clock.sleep(self._bounded_backoff(attempt, start, floor))
                continue
            if self._expired(start):
                # The response arrived verified but *late*; the deadline
                # contract says the caller has moved on.
                break
            self.breaker.record_success()
            query_span.set_attributes(attempts=attempt + 1, outcome="verified")
            _VERIFIED.inc()
            return result
        self.counters.failures += 1
        self.breaker.record_failure()
        _M_OUTCOMES.inc(outcome="failed")
        query_span.set_attribute("outcome", "failed")
        _LOG.error(
            "query_failed", kind=request.kind, table=request.table,
            last_error=type(last_error).__name__ if last_error else None,
        )
        if self._expired(start):
            raise DeadlineExceededError(
                f"deadline of {self.policy.deadline}s exceeded after "
                f"{self.counters.attempts} attempt(s)"
            ) from last_error
        raise last_error if last_error is not None else TransportError(
            "request failed before any attempt was made"
        )
