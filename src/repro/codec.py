"""Length-prefixed binary codec primitives shared by every wire format.

Encoders write through :func:`encode_bytes` / :func:`encode_point`.
Every decoder reads through one frame reader, :func:`decode_frame`,
which owns the whole decode contract: it checks and skips the format's
magic (if it has one), runs the body so that malformed input raises
:class:`~repro.errors.DeserializationError` and nothing else, and
rejects trailing bytes.  The decoders that use it:

* :mod:`repro.core.messages` — ``QueryRequest``, ``UpdateFrame``,
  ``RotateFrame``, ``IngestAck``, ``IngestEnvelope``,
  ``decode_response`` and ``ErrorResponse``;
* ``VerificationObject.from_bytes``, ``CpAbeCiphertext.from_bytes``,
  ``FreshnessToken.from_bytes`` and ``AbsVerificationKey.from_bytes``;
* :mod:`repro.core.persistence` — ``deserialize_tree``, the ingest
  checkpoint's meta record, ``deserialize_cpabe_key`` and
  ``deserialize_credentials``;
* :func:`repro.index.duplicates.decode_bundle`;
* :mod:`repro.net.server` — ``decode_probe_response`` and
  ``decode_stats_response``.

Every one-byte flag is read with :meth:`Reader.take_bool`, which
accepts 00 and 01 only.

``AbsSignature.from_bytes`` is the one decoder outside it: it is lazy
(points are decoded on first use) and checks its own framing.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.errors import DeserializationError, PolicyError, WorkloadError


@contextmanager
def decode_frame(data: bytes, what: str, magic: bytes = b""):
    """Yield a :class:`Reader` over ``data`` past ``magic``, strictly.

    Codec internals can surface ``UnicodeDecodeError`` (partial UTF-8),
    ``PolicyParseError`` (truncated policy strings), ``IndexError`` /
    ``ValueError`` / ``OverflowError`` (mangled integers), or
    ``WorkloadError`` (an inverted query box) — a caller fed attacker- or
    fault-controlled bytes must see exactly one error type.  The body
    must consume every byte.
    """
    if data[: len(magic)] != magic:
        raise DeserializationError(
            f"bad {what} magic at offset 0: {data[: len(magic)]!r} != {magic!r}"
        )
    reader = Reader(data, len(magic))
    try:
        yield reader
        if not reader.exhausted:
            raise DeserializationError(
                f"trailing bytes in {what} at offset {reader.off}"
            )
    except DeserializationError:
        raise
    except (IndexError, KeyError, OverflowError, PolicyError, ValueError,
            WorkloadError) as exc:
        # UnicodeDecodeError is a ValueError subclass.
        raise DeserializationError(f"malformed {what}: {exc}") from exc


def encode_bytes(data: bytes) -> bytes:
    return len(data).to_bytes(4, "big") + data


def encode_point(point) -> bytes:
    out = bytearray([len(point)])
    for x in point:
        out += int(x).to_bytes(8, "big", signed=True)
    return bytes(out)


class Reader:
    """A cursor over bytes whose every read is length-checked."""

    def __init__(self, data: bytes, off: int = 0):
        self.data = data
        self.off = off

    def take(self, n: int) -> bytes:
        if self.off + n > len(self.data):
            raise DeserializationError(
                f"truncated input: need {n} bytes at offset {self.off}, "
                f"only {len(self.data) - self.off} of {len(self.data)} remain"
            )
        out = self.data[self.off : self.off + n]
        self.off += n
        return out

    def take_int(self, n: int, signed: bool = False) -> int:
        return int.from_bytes(self.take(n), "big", signed=signed)

    def take_bytes(self) -> bytes:
        n = int.from_bytes(self.take(4), "big")
        return self.take(n)

    def take_str(self) -> str:
        return self.take_bytes().decode()

    def take_point(self) -> tuple:
        dims = self.take(1)[0]
        return tuple(
            int.from_bytes(self.take(8), "big", signed=True) for _ in range(dims)
        )

    def take_tag(self, names, what: str):
        """One tag byte, looked up in ``names`` (a sequence or a mapping)."""
        tag = self.take(1)[0]
        try:
            return names[tag]
        except (IndexError, KeyError):
            raise DeserializationError(f"unknown {what} tag {tag}") from None

    def take_bool(self, what: str) -> bool:
        """One flag byte; only 00 and 01 decode, so flags stay canonical."""
        return self.take_tag((False, True), what)

    def take_element(self, group, kind: str):
        """One fixed-width group element of ``kind``."""
        return group.deserialize(kind, self.take(group.element_bytes(kind)))

    @property
    def exhausted(self) -> bool:
        return self.off == len(self.data)
