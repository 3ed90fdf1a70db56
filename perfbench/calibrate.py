"""A fixed reference kernel that prices the host's current CPU speed.

The benchmark shares a few cores of a busy host.  There, identical
pure-Python work runs up to a third slower or faster for minutes at a
time, and thread CPU time moves with wall time: the code is not being
descheduled, each instruction just costs more.  Times taken minutes
apart are therefore only comparable after scaling by how fast the host
ran while they were taken.

:func:`kernel` is that yardstick: a few milliseconds of the kinds of
work the program does (254-bit modular arithmetic, byte-table lookups
and XORs as in AES, SHA-256 of short inputs, tuple and dict churn),
written here so that no change to the program can speed it up.  The
driver runs it between operations in proportion to the time they took;
:class:`Stopwatch` turns the samples into factors that scale measured
times to the times they would take on a host where the kernel takes
:data:`REFERENCE_S`.
"""

from __future__ import annotations

import hashlib
import statistics
import time

#: A round figure near the kernel's median on a 2-core x86-64 host
#: (Python 3.11); times are reported as if the kernel took this long.
REFERENCE_S = 0.0025

#: The BN254 base-field prime (the program's heaviest arithmetic).
_P = 0x30644E72E131A029B85045B68181585D97816D87D8CFD47C4EA6A3F0B8A9A3C7

_SBOX = bytes((i * 7 + 99) % 256 for i in range(256))


def kernel() -> int:
    """A fixed few milliseconds of mixed pure-Python work."""
    acc = 0x1234567890ABCDEF
    for k in range(1800):
        acc = (acc * acc + k) % _P
    state = bytearray(range(16))
    for _round in range(180):
        for j in range(16):
            state[j] = _SBOX[state[j] ^ state[(j + 5) & 15]]
    digest = bytes(state)
    for _ in range(450):
        digest = hashlib.sha256(digest).digest()
    table = {}
    for k in range(1200):
        table[(k, k & 7)] = (acc >> (k & 63), digest[k & 31])
    return acc ^ len(table) ^ digest[0]


def sample() -> float:
    """Seconds one run of :func:`kernel` takes now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class Stopwatch:
    """Times segments of work and prices each at reference speed.

    After each segment, untimed, it runs the kernel for about
    :attr:`SHARE` of the segment's length (at least ``least`` times).  A
    segment's factor comes from the samples taken right before and right
    after it, so it follows the host's speed as that drifts.
    """

    #: Share of the measured time spent calibrating.
    SHARE = 0.1

    def __init__(self, least: int = 1):
        self.least = least
        self.samples: list[float] = []
        self._before = self._take(least)
        self._t0 = time.perf_counter()

    def _take(self, count: int) -> list[float]:
        taken = [sample() for _ in range(count)]
        self.samples.extend(taken)
        return taken

    def start(self) -> None:
        """Start the next segment now."""
        self._t0 = time.perf_counter()

    def lap(self) -> tuple[float, float]:
        """End the current segment and start the next once calibrated.

        Returns ``(seconds, factor)``: the segment's length, and the
        factor that scales it (or any time taken within it) to
        reference speed.
        """
        seconds = time.perf_counter() - self._t0
        after = self._take(max(self.least, round(seconds * self.SHARE / REFERENCE_S)))
        factor = REFERENCE_S / statistics.median(self._before + after)
        self._before = after
        self._t0 = time.perf_counter()
        return seconds, factor

    def factor(self) -> float:
        """The factor over every sample taken."""
        return REFERENCE_S / statistics.median(self.samples)
