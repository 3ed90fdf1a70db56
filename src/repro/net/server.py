"""A hardened SP front end: per-request error containment.

:class:`~repro.core.messages.SPServer` raises straight through to the
caller — correct for a library, fatal for a long-running service.
:class:`ResilientSPServer` wraps it in a frame loop that *never* raises:
every failure becomes a typed :class:`~repro.core.messages.ErrorResponse`
frame, echoing the request id when one could be parsed, so a misbehaving
or malicious client can not take the SP down for everyone else.

Error containment is deliberately one-way: the SP reports *what class*
of failure occurred (``bad-frame`` / ``bad-request`` / ``workload`` /
``internal``) and the client decides whether that class is retryable.
Soundness is unaffected — an ErrorResponse carries no proof, so a client
can never be tricked into accepting one as a verified result.

Two observability hooks live here:

* every handled frame runs inside a ``server.handle_frame`` span that
  adopts the trace id carried in the request id's prefix (see
  :mod:`repro.net.transport`), so client and server spans correlate;
* a ``stats`` request type — payload :data:`STATS_REQUEST` — answers
  with the registry's Prometheus exposition instead of a query
  response, giving operators a scrape endpoint over the same frames;
* a ``probe`` request type — payload :data:`PROBE_REQUEST` — answers
  with the server's admission status (``ready`` / ``draining``) and
  bypasses admission control entirely, so a remote circuit breaker's
  half-open probe can tell "alive but draining" from "dead" without
  burning a real query (see :func:`~repro.net.client.probe_endpoint`).

**Admission control.** A server constructed with ``max_in_flight=N``
sheds work once ``N`` requests are already being handled (plus any
synthetic ``background_load`` a capacity drill injects): the excess
frame is answered with a typed ``overloaded`` error frame carrying a
``retry-after`` hint instead of queueing unboundedly.  :meth:`drain`
enters graceful shutdown — in-flight requests finish, every new query
frame is shed the same way (stats scrapes and probes still answer, so
operators can watch the drain and remote breakers do not penalize the
server for it) — and :meth:`resume` reverses it.  Shedding
degrades availability, never soundness: an overloaded frame carries no
proof material and the client retries elsewhere or later.
"""

from __future__ import annotations

import threading

from repro.core.messages import ErrorResponse, SPServer, is_ingest_frame
from repro.errors import (
    DeserializationError,
    ReproError,
    VerificationError,
    WorkloadError,
)
from repro.net.transport import (
    REQUEST_ID_BYTES,
    extract_trace_id,
    frame,
    unframe,
)
from repro.obs import logging as _obslog
from repro.obs import metrics as _metrics
from repro.obs import relay as _relay
from repro.obs import trace as _trace

_NULL_ID = b"\x00" * REQUEST_ID_BYTES

#: Payload magic of a metrics scrape request (no body).
STATS_REQUEST = b"STA\x01"
#: Payload magic of a scrape response; the rest is UTF-8 exposition text.
STATS_RESPONSE = b"STO\x01"

#: Payload magic of a liveness/admission probe request (no body).
PROBE_REQUEST = b"PRB\x01"
#: Payload magic of a probe response; the rest is a UTF-8 status word.
PROBE_RESPONSE = b"PRO\x01"
#: Probe status words: admitting queries vs. gracefully draining.
PROBE_READY = "ready"
PROBE_DRAINING = "draining"

#: Payload magic of a trace scrape request; the body is the raw 8-byte
#: trace id whose relayed spans the client wants.
TRACE_REQUEST = b"TRC\x01"
#: Payload magic of a trace scrape response; the rest is a JSON array of
#: span dicts (:func:`repro.obs.relay.encode_spans`).
TRACE_RESPONSE = b"TRO\x01"

_REG = _metrics.registry()
_M_FRAMES = _REG.counter(
    "repro_server_frames_total", "Frames handled by ResilientSPServer.",
    labelnames=("outcome",),
)
_M_SCRAPES = _REG.counter(
    "repro_server_scrapes_total", "Metrics scrape requests served.",
)
_M_PROBES = _REG.counter(
    "repro_server_probes_total", "Liveness probes answered, by status.",
    labelnames=("status",),
)
_M_SHED = _REG.counter(
    "repro_server_shed_total", "Frames shed by admission control.",
    labelnames=("reason",),
)
_M_INFLIGHT = _REG.gauge(
    "repro_server_in_flight", "Requests currently being handled.",
)
# Updated on every served frame, so resolved once.
_SERVED = _M_FRAMES.labels(outcome="served")
_IN_FLIGHT = _M_INFLIGHT.labels()
_LOG = _obslog.get_logger("server")


def decode_stats_response(payload: bytes) -> str:
    """The exposition text inside a :data:`STATS_RESPONSE` payload."""
    if payload[: len(STATS_RESPONSE)] != STATS_RESPONSE:
        raise DeserializationError("not a stats response")
    return payload[len(STATS_RESPONSE):].decode("utf-8")


def decode_probe_response(payload: bytes) -> str:
    """The status word inside a :data:`PROBE_RESPONSE` payload."""
    if payload[: len(PROBE_RESPONSE)] != PROBE_RESPONSE:
        raise DeserializationError("not a probe response")
    return payload[len(PROBE_RESPONSE):].decode("utf-8")


def trace_request(trace_id: str) -> bytes:
    """A :data:`TRACE_REQUEST` payload for one trace id (hex)."""
    raw = bytes.fromhex(trace_id)
    if len(raw) != _trace.TRACE_ID_BYTES:
        raise DeserializationError(
            f"trace id must be {_trace.TRACE_ID_BYTES} bytes of hex, got {trace_id!r}"
        )
    return TRACE_REQUEST + raw


def decode_trace_response(payload: bytes) -> list[dict]:
    """The span dicts inside a :data:`TRACE_RESPONSE` payload."""
    if payload[: len(TRACE_RESPONSE)] != TRACE_RESPONSE:
        raise DeserializationError("not a trace response")
    return _relay.decode_spans(payload[len(TRACE_RESPONSE):])


class ResilientSPServer:
    """Frame-level request loop that degrades failures to error frames.

    ``max_in_flight`` bounds concurrent query handling (``None`` means
    unbounded — the pre-admission-control behaviour); shed frames are
    answered ``overloaded`` with a ``retry_after`` hint (seconds).
    """

    def __init__(self, server: SPServer, max_in_flight=None,
                 retry_after: float = 0.05, ingest=None):
        if max_in_flight is not None and max_in_flight < 1:
            raise ReproError("max_in_flight must be >= 1 (or None)")
        if retry_after < 0:
            raise ReproError("retry_after must be non-negative")
        self.server = server
        self.max_in_flight = max_in_flight
        self.retry_after = retry_after
        #: Optional live-ingest engine (:class:`repro.net.ingest.ServerIngest`);
        #: UPD/ROT control-plane frames are routed here and bypass query
        #: admission control — replication must land on a loaded server.
        self.ingest = ingest
        # Hook the span relay into the tracer (idempotent): a server's
        # root spans must be scrapeable by trace id over the TRC frame.
        _relay.install_relay()
        self.served = 0
        self.errors = 0
        self.shed = 0
        #: Synthetic concurrent load, injected by capacity/chaos drills to
        #: model other clients' in-flight requests deterministically in a
        #: single-threaded simulation.  Counts against ``max_in_flight``.
        self.background_load = 0
        self._in_flight = 0
        self._admission_lock = threading.Lock()
        self._draining = False

    # -- admission control ---------------------------------------------------
    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def in_flight(self) -> int:
        return self._in_flight

    def drain(self) -> None:
        """Enter graceful shutdown: finish in-flight work, shed new frames."""
        self._draining = True

    def resume(self) -> None:
        """Leave drain mode and admit queries again."""
        self._draining = False

    def set_background_load(self, load: int) -> None:
        if load < 0:
            raise ReproError("background_load must be non-negative")
        self.background_load = load

    def _admit(self):
        """``None`` when admitted (caller must release), else the reason."""
        with self._admission_lock:
            if self._draining:
                return "drain"
            if (self.max_in_flight is not None
                    and self._in_flight + self.background_load >= self.max_in_flight):
                return "overload"
            self._in_flight += 1
            _IN_FLIGHT.set(self._in_flight)
            return None

    def _release(self) -> None:
        with self._admission_lock:
            self._in_flight -= 1
            _IN_FLIGHT.set(self._in_flight)

    def _shed(self, request_id: bytes, reason: str, handle_span) -> bytes:
        self.shed += 1
        _M_FRAMES.inc(outcome="overloaded")
        _M_SHED.inc(reason=reason)
        handle_span.set_attributes(outcome="overloaded", reason=reason)
        _LOG.warning("frame_shed", reason=reason, retry_after=self.retry_after)
        error = ErrorResponse.overloaded(
            self.retry_after,
            "server draining" if reason == "drain" else "admission limit reached",
        )
        return frame(request_id, error.to_bytes())

    def _handle_ingest(self, payload: bytes, handle_span) -> bytes:
        """One UPD/ROT frame through the ingest engine; returns the body."""
        if self.ingest is None:
            error = ErrorResponse(
                ErrorResponse.WORKLOAD, "live ingest is not enabled on this SP"
            )
        else:
            try:
                ack = self.ingest.handle(payload)
            except DeserializationError as exc:
                error = ErrorResponse(ErrorResponse.BAD_REQUEST, str(exc))
            except VerificationError as exc:
                # Unauthenticated / forged control-plane frame: a typed
                # rejection, never an applied ack — any reachable peer
                # can send UPD/ROT bytes, only the DO's key admits them.
                error = ErrorResponse(ErrorResponse.BAD_REQUEST, str(exc))
            except WorkloadError as exc:
                error = ErrorResponse(ErrorResponse.WORKLOAD, str(exc))
            except ReproError as exc:
                error = ErrorResponse(ErrorResponse.INTERNAL, str(exc))
            else:
                self.served += 1
                _M_FRAMES.inc(outcome="ingest")
                handle_span.set_attributes(kind="ingest", outcome="served")
                return ack
        self.errors += 1
        _M_FRAMES.inc(outcome=error.code)
        handle_span.set_attributes(kind="ingest", outcome="error", code=error.code)
        _LOG.warning("ingest_error_frame", code=error.code, message=error.message)
        return error.to_bytes()

    # -- the frame loop ------------------------------------------------------
    def handle_frame(self, request_frame: bytes) -> bytes:
        """Process one framed request; always returns a response frame."""
        try:
            request_id, payload = unframe(request_frame)
        except DeserializationError as exc:
            self.errors += 1
            _M_FRAMES.inc(outcome="bad-frame")
            _LOG.warning("bad_frame", error=str(exc))
            return frame(
                _NULL_ID, ErrorResponse(ErrorResponse.BAD_FRAME, str(exc)).to_bytes()
            )
        if payload[: len(TRACE_REQUEST)] == TRACE_REQUEST:
            # Trace scrapes bypass admission control like stats do: they
            # answer from the relay's bounded store and never touch the
            # engine.  They are deliberately *unspanned* — tracing the
            # observability plane itself would fill the relay (and the
            # finished-trace ring) with scrape spans.
            _M_FRAMES.inc(outcome="trace")
            wanted = payload[len(TRACE_REQUEST):].hex()
            spans = _relay.relay().get(wanted) if wanted else []
            return frame(request_id, TRACE_RESPONSE + _relay.encode_spans(spans))
        if payload == STATS_REQUEST:
            # Unspanned for the same reason, and additionally because a
            # scrape span finishing *after* the exposition was rendered
            # would make every scrape differ from the registry state it
            # just reported.  Scrapes bypass admission control: operators
            # must be able to watch an overloaded or draining server.
            _M_SCRAPES.inc()
            _M_FRAMES.inc(outcome="stats")
            text = _metrics.render_prometheus()
            return frame(request_id, STATS_RESPONSE + text.encode("utf-8"))
        # Adopt the client's trace id (if any) so this span — and every
        # engine/crypto span beneath it — lands in the caller's trace.
        with _trace.span(
            "server.handle_frame", trace_id=extract_trace_id(request_id)
        ) as handle_span:
            # The random half of the request id is the exact-match graft
            # key: the client's attempt span records the same suffix, so
            # a relayed copy of this span lands under precisely the
            # attempt that caused it (see repro.obs.relay).
            handle_span.set_attribute(
                _relay.REQUEST_SUFFIX_ATTR,
                request_id[_trace.TRACE_ID_BYTES:].hex(),
            )
            if payload == PROBE_REQUEST:
                # Probes bypass admission control *and* drain, like stats
                # scrapes: a breaker's half-open probe against a draining
                # server must learn "alive but draining" instead of eating
                # an overloaded frame that re-opens the breaker and delays
                # the server's own re-admission after resume().
                status = PROBE_DRAINING if self._draining else PROBE_READY
                _M_PROBES.inc(status=status)
                _M_FRAMES.inc(outcome="probe")
                handle_span.set_attributes(kind="probe", outcome=status)
                return frame(
                    request_id, PROBE_RESPONSE + status.encode("utf-8")
                )
            if is_ingest_frame(payload):
                # DO→SP control plane.  Bypasses admission like stats and
                # probes: replication and epoch rotation must land even on
                # an overloaded or draining server, or every shed window
                # would widen the replicas' staleness.  Bypassing admission
                # is safe because the ingest engine authenticates every
                # frame against the DO's verification key before it can
                # touch the journal or the serving state — a reachable
                # peer without the DO's signing key gets a typed
                # rejection.  A chaos failpoint (SimulatedCrashError) is
                # deliberately NOT contained here — it propagates like a
                # real crash.
                return frame(
                    request_id, self._handle_ingest(payload, handle_span)
                )
            shed_reason = self._admit()
            if shed_reason is not None:
                return self._shed(request_id, shed_reason, handle_span)
            try:
                response = self.server.handle(payload)
            except DeserializationError as exc:
                error = ErrorResponse(ErrorResponse.BAD_REQUEST, str(exc))
            except WorkloadError as exc:
                error = ErrorResponse(ErrorResponse.WORKLOAD, str(exc))
            except ReproError as exc:
                error = ErrorResponse(ErrorResponse.INTERNAL, str(exc))
            else:
                self.served += 1
                _SERVED.inc()
                handle_span.set_attribute("outcome", "served")
                return frame(request_id, response)
            finally:
                self._release()
            self.errors += 1
            _M_FRAMES.inc(outcome=error.code)
            handle_span.set_attributes(outcome="error", code=error.code)
            _LOG.warning("error_frame", code=error.code, message=error.message)
            return frame(request_id, error.to_bytes())

    def scrape(self) -> str:
        """In-process convenience: the same text a stats frame returns."""
        return _metrics.render_prometheus()
