"""The wire side of the one client loop: retry policy, breaker, stats.

The user side of the protocol runs one attempt loop,
:class:`~repro.net.cluster.ReplicatedClient`; :class:`ResilientClient`
is that loop over one transport.  This module holds what the loop
is built from:

* :class:`RetryPolicy` — bounded exponential backoff with jitter and a
  per-query deadline;
* :class:`CircuitBreaker` — one per endpoint, counting failed
  *attempts*, with a single half-open trial;
* :class:`ClientStats` — the one lifetime stats record of a client,
  with its endpoints' records the only store of the loop's counts;
* :func:`wire_exchange` — one framed attempt under a fresh random
  16-byte request id, so a duplicated or replayed response (stale id)
  is detected, counted and retried rather than trusted; typed error
  frames become :class:`~repro.errors.WorkloadError`,
  :class:`~repro.errors.OverloadedError` (with the server's
  ``retry-after`` hint) or :class:`~repro.errors.TransportError`, and
  every decoded response goes through ``verify`` before it is returned;
* :func:`is_tamper_error` / :func:`count_wire_error` — the one
  classification of failed attempts;
* :func:`probe_endpoint` / :func:`fetch_trace_spans` — the cheap
  liveness probe and the span-relay scrape.

Retrying a verification failure never weakens soundness: each retry
verifies a *fresh* response from scratch, and a persistently tampering
SP simply exhausts the budget and surfaces the
:class:`~repro.errors.VerificationError`.  Every outcome is either a
**verified** result or a :class:`~repro.errors.ReproError` subclass.
"""

from __future__ import annotations

import os
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.messages import (
    ErrorResponse,
    decode_response,
    is_error_frame,
)
from repro.errors import (
    AccessDeniedError,
    CryptoError,
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
    embed_trace_id,
    frame,
    unframe,
)
from repro.obs import ledger as _ledger
from repro.obs import metrics as _metrics
from repro.obs import relay as _relay
from repro.obs import trace as _trace

#: Server-side ledger stages a loopback round trip may charge inline;
#: wire_exchange subtracts their delta so "wire" stays exclusive.
_SERVER_STAGES = ("traverse", "materialize", "seal")
#: Client-side stages a response's ``verify`` callable charges before it
#: checks the VO (CP-ABE open, VO decode).
_OPEN_STAGES = ("open", "codec")

_M_BREAKER = _metrics.registry().counter(
    "repro_client_breaker_transitions_total",
    "Circuit breaker state transitions.", labelnames=("to",),
)


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
    """Open after ``failure_threshold`` consecutive failed attempts.

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


#: Failed-attempt classes: the ``class`` labels of
#: ``repro_cluster_attempt_errors_total`` and the :class:`ClientStats`
#: counts that sum them.
ERROR_CLASSES = {
    "decode": "decode_failures",
    "overloaded": "overload_rejections",
    "transport": "transport_errors",
    "stale-epoch": "stale_epochs",
    "verification": "verification_failures",
}


def _endpoint_sum(count: Callable) -> property:
    return property(lambda self: sum(count(e) for e in self.endpoints))


@dataclass(eq=False)
class ClientStats:
    """One client's lifetime counts: the one store of its events.

    Each event is counted once, at its finest grain: logical queries per
    kind (``requests_by_kind``) and per outcome (``outcomes``:
    ``verified`` / ``failed`` / ``workload_rejected`` /
    ``access_denied``) here, and every per-endpoint event — wire attempts,
    failed attempts by class (:data:`ERROR_CLASSES`), evictions by
    reason, liveness probes by status — on the client's
    :class:`~repro.net.cluster.Endpoint` records (``endpoints``).  The
    ``repro_cluster_*`` families are read from these records when they
    are scraped.  The coarse counts are read-only sums: ``requests``,
    ``verified`` and ``failures`` (``requests`` = ``verified`` +
    ``failures``), ``attempts`` (hedges included, so retries and
    failovers are ``attempts - requests`` less ``hedges``),
    ``quarantines`` (tamper evictions), ``probes``, ``probe_deferrals``
    (``draining`` probes) and the five failed-attempt classes.  The loop
    counts the routing fields; :func:`wire_exchange` counts duplicates
    and error frames.  :meth:`as_dict` gives every count by name.
    """

    requests_by_kind: Counter = field(default_factory=Counter)
    outcomes: Counter = field(default_factory=Counter)
    failovers: int = 0
    hedges: int = 0
    exhausted_rotations: int = 0
    rejection_suspects: int = 0
    duplicates_detected: int = 0
    error_frames: int = 0
    endpoints: tuple = ()

    requests = property(lambda self: sum(self.requests_by_kind.values()))
    verified = property(lambda self: self.outcomes["verified"])
    failures = property(
        lambda self: sum(self.outcomes.values()) - self.outcomes["verified"]
    )
    attempts = _endpoint_sum(lambda e: e.attempts)
    quarantines = _endpoint_sum(lambda e: e.evictions["tamper"])
    probes = _endpoint_sum(lambda e: sum(e.probes.values()))
    probe_deferrals = _endpoint_sum(lambda e: e.probes["draining"])
    decode_failures = _endpoint_sum(lambda e: e.errors["decode"])
    overload_rejections = _endpoint_sum(lambda e: e.errors["overloaded"])
    transport_errors = _endpoint_sum(lambda e: e.errors["transport"])
    stale_epochs = _endpoint_sum(lambda e: e.errors["stale-epoch"])
    verification_failures = _endpoint_sum(lambda e: e.errors["verification"])

    #: The names :meth:`as_dict` reports, in a stable order.
    FIELDS = (
        "requests", "verified", "failures", "attempts", "failovers",
        "hedges", "probes", "probe_deferrals", "exhausted_rotations",
        "quarantines", "rejection_suspects", "transport_errors",
        "decode_failures", "verification_failures", "duplicates_detected",
        "error_frames", "overload_rejections", "stale_epochs",
    )

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.FIELDS}


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
#: :data:`ERROR_CLASSES` label).  The order makes the last row exactly
#: :func:`is_tamper_error`: deserialization and stale-epoch failures
#: match earlier rows.  Stale epochs are degraded, not Byzantine:
#: counted apart so dashboards can tell a replica lagging behind
#: rotations from forged proofs.
_WIRE_ERROR_CLASSES = (
    (DeserializationError, "decode"),
    (OverloadedError, "overloaded"),
    (TransportError, "transport"),
    (StaleEpochError, "stale-epoch"),
    (TAMPER_ERRORS, "verification"),
)


def count_wire_error(exc: BaseException, errors: dict) -> None:
    """Count one failed attempt in an endpoint's ``errors`` by class.

    The one classification of failed attempts (``wire_exchange`` itself
    only counts what it can see: duplicates and error frames).  Errors
    that say nothing about the wire or the proof — a policy denial, a
    workload rejection — are left uncounted.
    """
    for kinds, label in _WIRE_ERROR_CLASSES:
        if isinstance(exc, kinds):
            errors[label] += 1
            return


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
    ``verify``.  Every attempt the client loop makes, hedges included,
    goes through this function.
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


def __getattr__(name: str):
    # ResilientClient is the one-endpoint ReplicatedClient, so it lives
    # in repro.net.cluster; it stays importable from here.
    if name == "ResilientClient":
        from repro.net.cluster import ResilientClient

        return ResilientClient
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
