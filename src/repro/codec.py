"""Length-prefixed binary codec primitives shared by every wire format.

The VO, message, snapshot and CP-ABE header codecs all read through
:class:`Reader` and write through :func:`encode_bytes` /
:func:`encode_point`; :func:`strict_decode` gives each of them one
failure contract: malformed input raises
:class:`~repro.errors.DeserializationError` and nothing else.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.errors import DeserializationError, PolicyError, WorkloadError


@contextmanager
def strict_decode(what: str):
    """Normalize every malformed-frame failure to DeserializationError.

    Codec internals can surface ``UnicodeDecodeError`` (partial UTF-8),
    ``PolicyParseError`` (truncated policy strings), ``IndexError`` /
    ``ValueError`` / ``OverflowError`` (mangled integers), or
    ``WorkloadError`` (an inverted query box) — a caller fed attacker- or
    fault-controlled bytes must see exactly one error type.
    """
    try:
        yield
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

    def __init__(self, data: bytes):
        self.data = data
        self.off = 0

    def take(self, n: int) -> bytes:
        if self.off + n > len(self.data):
            raise DeserializationError(
                f"truncated input: need {n} bytes at offset {self.off}, "
                f"only {len(self.data) - self.off} of {len(self.data)} remain"
            )
        out = self.data[self.off : self.off + n]
        self.off += n
        return out

    def take_bytes(self) -> bytes:
        n = int.from_bytes(self.take(4), "big")
        return self.take(n)

    def take_point(self) -> tuple:
        dims = self.take(1)[0]
        return tuple(
            int.from_bytes(self.take(8), "big", signed=True) for _ in range(dims)
        )

    @property
    def exhausted(self) -> bool:
        return self.off == len(self.data)
