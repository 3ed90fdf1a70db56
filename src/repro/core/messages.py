"""Wire protocol: request/response framing across a byte boundary.

Everything the three parties exchange becomes length-prefixed bytes
here, so an SP can run behind any transport (socket, HTTP body, queue):

* :class:`QueryRequest` — kind, table(s), range, claimed roles, flags;
* the hybrid-envelope codec: the CP-ABE header's wire bytes
  (:meth:`~repro.abe.cpabe.CpAbeCiphertext.to_bytes`) and the sealed body;
* :class:`QueryResponse` codec — a clipped query box plus either a
  plaintext VO or a sealed envelope;
* :class:`SPServer` — ``handle(request_bytes) -> response_bytes`` on top
  of a :class:`~repro.core.system.ServiceProvider`;
* :class:`ErrorResponse` — the typed error frame a hardened SP returns
  instead of crashing (consumed by :mod:`repro.net`).

Every decoder reads through :func:`repro.codec.decode_frame`, so the
codecs are strict: a wrong magic, unknown tags, trailing bytes, and
out-of-range elements raise :class:`~repro.errors.DeserializationError`
(fuzzing in ``tests/security`` leans on this).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.abe.hybrid import HybridEnvelope
from repro.codec import Reader, decode_frame, encode_bytes, encode_point
from repro.core.persistence import NodeReplacement
from repro.core.system import QueryResponse, ServiceProvider
from repro.core.vo import VerificationObject
from repro.crypto.group import BilinearGroup
from repro.errors import DeserializationError, ReproError, WorkloadError
from repro.index.boxes import Box
from repro.obs import trace as _trace

_REQ_MAGIC = b"QRY\x01"
_RESP_MAGIC = b"RSP\x01"
_ERR_MAGIC = b"ERR\x01"

#: Payload magic of a DO→SP signed-node-replacement push (live ingest).
UPDATE_MAGIC = b"UPD\x01"
#: Payload magic of a DO→SP epoch-rotation commit.
ROTATE_MAGIC = b"ROT\x01"
#: Payload magic of the SP's ingest acknowledgement (for both of the above).
INGEST_ACK_MAGIC = b"UPA\x01"
#: Payload magic of the authenticated ingest envelope: a UPD/ROT frame
#: plus the DO's ABS signature over it (the SP's proof that the control
#: plane speaks with the data owner's key, not any reachable peer's).
INGEST_ENVELOPE_MAGIC = b"UPS\x01"

_KINDS = ("equality", "range", "join")
_UPDATE_KINDS = ("upsert", "delete")
#: Ingest ack statuses: applied (seq accepted), duplicate (seq already
#: folded in — idempotent re-delivery), gap (seq skips ahead; the DO must
#: replay from ``applied_seq + 1``).
INGEST_STATUSES = ("applied", "duplicate", "gap")


@dataclass(frozen=True)
class QueryRequest:
    """A user's query as it travels to the SP."""

    kind: str  # "equality" | "range" | "join"
    table: str
    lo: tuple
    hi: tuple
    roles: frozenset[str]
    right_table: str = ""  # join only
    encrypt: bool = True

    def to_bytes(self) -> bytes:
        if self.kind not in _KINDS:
            raise WorkloadError(f"unknown query kind {self.kind!r}")
        out = bytearray(_REQ_MAGIC)
        out += bytes([_KINDS.index(self.kind)])
        out += encode_bytes(self.table.encode())
        out += encode_bytes(self.right_table.encode())
        out += encode_point(self.lo)
        out += encode_point(self.hi)
        roles = sorted(self.roles)
        out += len(roles).to_bytes(2, "big")
        for role in roles:
            out += encode_bytes(role.encode())
        out += b"\x01" if self.encrypt else b"\x00"
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> "QueryRequest":
        with decode_frame(data, "query request", _REQ_MAGIC) as reader:
            kind = reader.take_tag(_KINDS, "query kind")
            table = reader.take_str()
            right = reader.take_str()
            lo = reader.take_point()
            hi = reader.take_point()
            count = reader.take_int(2)
            roles = frozenset(reader.take_str() for _ in range(count))
            encrypt = reader.take_bool("encrypt flag")
            return cls(
                kind=kind,
                table=table,
                lo=lo,
                hi=hi,
                roles=roles,
                right_table=right,
                encrypt=encrypt,
            )


# ---------------------------------------------------------------------------
# Live-ingest frames: UPD (signed node replacements) / ROT (epoch rotation)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UpdateFrame:
    """One replicated update: the signed node path an upsert/delete changed.

    ``seq`` is the table's monotonic update sequence number (rotations
    occupy slots in the same sequence), the idempotency key under
    duplicate or reordered delivery.  ``replacements`` are ordered
    root→leaf, the order the SP grafts them.
    """

    table: str
    seq: int
    kind: str  # "upsert" | "delete"
    epoch: int
    replacements: tuple[NodeReplacement, ...]

    def to_bytes(self) -> bytes:
        if self.kind not in _UPDATE_KINDS:
            raise WorkloadError(f"unknown update kind {self.kind!r}")
        out = bytearray(UPDATE_MAGIC)
        out += encode_bytes(self.table.encode())
        out += int(self.seq).to_bytes(8, "big")
        out += bytes([_UPDATE_KINDS.index(self.kind)])
        out += int(self.epoch).to_bytes(8, "big")
        out += len(self.replacements).to_bytes(2, "big")
        for replacement in self.replacements:
            out += replacement.to_bytes()
        return bytes(out)

    @classmethod
    def from_bytes(cls, group: BilinearGroup, data: bytes) -> "UpdateFrame":
        with decode_frame(data, "update frame", UPDATE_MAGIC) as reader:
            table = reader.take_str()
            seq = reader.take_int(8)
            kind = reader.take_tag(_UPDATE_KINDS, "update kind")
            epoch = reader.take_int(8)
            count = reader.take_int(2)
            replacements = tuple(
                NodeReplacement.read_from(reader, group) for _ in range(count)
            )
            if not replacements:
                raise DeserializationError("update frame carries no replacements")
            return cls(
                table=table, seq=seq, kind=kind,
                epoch=epoch, replacements=replacements,
            )


@dataclass(frozen=True)
class RotateFrame:
    """The epoch-rotation commit: epoch number + the DO-signed token.

    Receiving this frame is the SP's single commit point: the staged
    updates (everything up to ``seq - 1`` in this epoch) and the new
    freshness token become visible to queries *together*.
    """

    table: str
    seq: int
    epoch: int
    token_bytes: bytes  # serialized FreshnessToken

    def to_bytes(self) -> bytes:
        out = bytearray(ROTATE_MAGIC)
        out += encode_bytes(self.table.encode())
        out += int(self.seq).to_bytes(8, "big")
        out += int(self.epoch).to_bytes(8, "big")
        out += encode_bytes(self.token_bytes)
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> "RotateFrame":
        with decode_frame(data, "rotate frame", ROTATE_MAGIC) as reader:
            table = reader.take_str()
            seq = reader.take_int(8)
            epoch = reader.take_int(8)
            token_bytes = reader.take_bytes()
            return cls(table=table, seq=seq, epoch=epoch, token_bytes=token_bytes)


@dataclass(frozen=True)
class IngestAck:
    """The SP's answer to an UPD/ROT push: what its watermark now is.

    ``status`` is one of :data:`INGEST_STATUSES`; ``applied_seq`` is the
    SP's highest contiguously applied sequence number, which doubles as
    the replay cursor when the status is ``gap``.
    """

    table: str
    status: str
    applied_seq: int
    epoch: int
    message: str = ""

    def to_bytes(self) -> bytes:
        if self.status not in INGEST_STATUSES:
            raise WorkloadError(f"unknown ingest ack status {self.status!r}")
        out = bytearray(INGEST_ACK_MAGIC)
        out += encode_bytes(self.table.encode())
        out += bytes([INGEST_STATUSES.index(self.status)])
        out += int(self.applied_seq).to_bytes(8, "big")
        out += int(self.epoch).to_bytes(8, "big")
        out += encode_bytes(self.message.encode())
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> "IngestAck":
        with decode_frame(data, "ingest ack", INGEST_ACK_MAGIC) as reader:
            table = reader.take_str()
            status = reader.take_tag(INGEST_STATUSES, "ingest status")
            applied_seq = reader.take_int(8)
            epoch = reader.take_int(8)
            message = reader.take_str()
            return cls(
                table=table, status=status, applied_seq=applied_seq,
                epoch=epoch, message=message,
            )


@dataclass(frozen=True)
class IngestEnvelope:
    """An authenticated UPD/ROT push: the frame bytes + the DO's signature.

    The signature covers ``payload`` verbatim (which already binds the
    table, the sequence number, and every replaced node / token byte),
    so a peer that can merely *reach* the SP cannot rewrite its serving
    tree, clear its freshness token, or plant journal entries — the SP
    verifies the signature against the DO's verification key before any
    frame touches the journal (see
    :func:`repro.core.freshness.verify_ingest_payload`).
    """

    payload: bytes  # a serialized UpdateFrame or RotateFrame
    signature_bytes: bytes  # serialized AbsSignature over the payload

    def to_bytes(self) -> bytes:
        return (
            INGEST_ENVELOPE_MAGIC
            + encode_bytes(self.payload)
            + encode_bytes(self.signature_bytes)
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "IngestEnvelope":
        with decode_frame(data, "ingest envelope", INGEST_ENVELOPE_MAGIC) as reader:
            payload = reader.take_bytes()
            signature_bytes = reader.take_bytes()
            if payload[:4] not in (UPDATE_MAGIC, ROTATE_MAGIC):
                raise DeserializationError(
                    "ingest envelope does not wrap an update or rotate frame"
                )
            return cls(payload=payload, signature_bytes=signature_bytes)


def is_ingest_frame(data: bytes) -> bool:
    """True for the DO→SP control-plane payloads (enveloped or bare UPD/ROT).

    Bare frames are still *routed* to the ingest engine so it can answer
    them with a typed unauthenticated-rejection instead of letting them
    fall through to the query path.
    """
    return data[:4] in (INGEST_ENVELOPE_MAGIC, UPDATE_MAGIC, ROTATE_MAGIC)


# ---------------------------------------------------------------------------
# Hybrid envelope codec
# ---------------------------------------------------------------------------

def encode_envelope(envelope: HybridEnvelope) -> bytes:
    return encode_bytes(envelope.header_bytes) + encode_bytes(envelope.body)


def decode_envelope(group: BilinearGroup, reader: Reader) -> HybridEnvelope:
    """Read an envelope; its header is decoded when first opened (see
    :meth:`HybridEnvelope.from_header_bytes`)."""
    header_bytes = reader.take_bytes()
    return HybridEnvelope.from_header_bytes(group, header_bytes, reader.take_bytes())


# ---------------------------------------------------------------------------
# Response codec
# ---------------------------------------------------------------------------

def encode_response(response: QueryResponse) -> bytes:
    out = bytearray(_RESP_MAGIC)
    out += encode_bytes(response.kind.encode())
    out += encode_point(response.query.lo)
    out += encode_point(response.query.hi)
    if response.envelope is not None:
        out += b"\x01"
        out += encode_envelope(response.envelope)
    else:
        out += b"\x00"
        out += encode_bytes(response.vo.to_bytes())
    # Freshness token, outside the sealed envelope by design: staleness
    # must be checkable before (and without) decrypting, and the token
    # is public — it proves nothing beyond "the DO signed this epoch".
    if response.freshness is not None:
        out += b"\x01"
        out += encode_bytes(response.freshness.to_bytes())
    else:
        out += b"\x00"
    return bytes(out)


def decode_response(group: BilinearGroup, data: bytes) -> QueryResponse:
    from repro.core.freshness import FreshnessToken

    with decode_frame(data, "query response", _RESP_MAGIC) as reader:
        kind = reader.take_str()
        lo = reader.take_point()
        hi = reader.take_point()
        sealed = reader.take_bool("sealed flag")
        if sealed:
            envelope = decode_envelope(group, reader)
            vo = None
        else:
            envelope = None
            vo = VerificationObject.from_bytes(group, reader.take_bytes())
        freshness = None
        if reader.take_bool("freshness flag"):
            freshness = FreshnessToken.from_bytes(group, reader.take_bytes())
        return QueryResponse(
            kind=kind, query=Box(lo, hi), vo=vo, envelope=envelope,
            freshness=freshness,
        )


# ---------------------------------------------------------------------------
# Typed error frames
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ErrorResponse:
    """A typed error frame: what a hardened SP returns instead of dying.

    ``code`` is machine-readable and drives the client's retry decision
    (see ``docs/OPERATIONS.md``); ``message`` is a human diagnostic and
    carries no protocol meaning.
    """

    code: str
    message: str = ""

    #: Request bytes that could not be parsed at all (retryable: the
    #: corruption usually happened in transit).
    BAD_FRAME = "bad-frame"
    #: Frame parsed but the inner QueryRequest did not (retryable).
    BAD_REQUEST = "bad-request"
    #: The request names an unknown table/kind — deterministic caller
    #: error, never retried.
    WORKLOAD = "workload"
    #: Any other SP-side failure (retryable as possibly transient).
    INTERNAL = "internal"
    #: The SP shed the request: admission control tripped or the server
    #: is draining.  The message starts with a machine-readable
    #: ``retry-after=<seconds>`` hint (see :meth:`overloaded` /
    #: :meth:`retry_after_hint`); clients back off at least that long.
    OVERLOADED = "overloaded"

    _RETRY_AFTER = "retry-after="

    @classmethod
    def overloaded(cls, retry_after: float, message: str = "") -> "ErrorResponse":
        """An :data:`OVERLOADED` frame carrying a retry-after hint."""
        if retry_after < 0:
            raise ReproError("retry_after must be non-negative")
        hint = f"{cls._RETRY_AFTER}{retry_after:.6g}"
        return cls(cls.OVERLOADED, f"{hint} {message}".strip() if message else hint)

    def retry_after_hint(self):
        """The ``retry-after`` seconds in an overloaded frame, else ``None``.

        Tolerant by design: a missing or mangled hint degrades to ``None``
        and the client falls back to its own backoff schedule.
        """
        if not self.message.startswith(self._RETRY_AFTER):
            return None
        token = self.message[len(self._RETRY_AFTER):].split(" ", 1)[0]
        try:
            value = float(token)
        except ValueError:
            return None
        return value if value >= 0 else None

    def to_bytes(self) -> bytes:
        return bytes(
            bytearray(_ERR_MAGIC)
            + encode_bytes(self.code.encode())
            + encode_bytes(self.message.encode())
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "ErrorResponse":
        with decode_frame(data, "error response", _ERR_MAGIC) as reader:
            code = reader.take_str()
            message = reader.take_str()
            return cls(code=code, message=message)


def is_error_frame(data: bytes) -> bool:
    """True if ``data`` is an :class:`ErrorResponse` wire frame."""
    return data[:4] == _ERR_MAGIC


# ---------------------------------------------------------------------------
# Server over bytes
# ---------------------------------------------------------------------------

class SPServer:
    """Byte-boundary front end for a :class:`ServiceProvider`."""

    def __init__(self, provider: ServiceProvider, rng=None):
        self.provider = provider
        self.rng = rng

    def handle(self, request_bytes: bytes) -> bytes:
        """Parse, dispatch, and encode — the full SP request loop."""
        request = QueryRequest.from_bytes(request_bytes)
        with _trace.span("sp.handle", kind=request.kind, table=request.table):
            return self._dispatch(request)

    def _dispatch(self, request: "QueryRequest") -> bytes:
        if request.kind == "equality":
            response = self.provider.equality_query(
                request.table, request.lo, request.roles,
                encrypt=request.encrypt, rng=self.rng,
            )
        elif request.kind == "range":
            response = self.provider.range_query(
                request.table, request.lo, request.hi, request.roles,
                encrypt=request.encrypt, rng=self.rng,
            )
        elif request.kind == "join":
            response = self.provider.join_query(
                request.table, request.right_table, request.lo, request.hi,
                request.roles, encrypt=request.encrypt, rng=self.rng,
            )
        else:  # pragma: no cover - from_bytes validates kinds
            raise WorkloadError(f"unknown query kind {request.kind!r}")
        return encode_response(response)
