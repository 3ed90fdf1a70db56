"""Exponent-tracking simulated bilinear group (benchmark backend).

``SimulatedGroup`` implements the exact :class:`~repro.crypto.group.BilinearGroup`
interface by representing each element of G1/G2/GT as its discrete logarithm
with respect to the canonical generator, modulo the BN254 group order.  The
group operation adds exponents, exponentiation multiplies, and the "pairing"
multiplies exponents — so bilinearity, re-randomization, and every algebraic
identity used by ABS/CP-ABE hold *exactly*, and protocol behaviour
(operation counts, pruning, VO contents) is identical to the real backend.

**This backend is not secure.**  Discrete logs are in plain sight; it exists
so that the paper's large-scale experiments are feasible in pure Python
(DESIGN.md, Substitution 2).  Serialized elements are padded to the same
byte widths as compressed BN254 points so that VO-size measurements match
the real backend byte-for-byte.
"""

from __future__ import annotations

import threading
from typing import Sequence

from repro.crypto.field import CURVE_ORDER
from repro.crypto.group import (
    ELEMENT_BYTES,
    G1,
    GT,
    BilinearGroup,
    GroupElement,
    register_pickle_backend,
)
from repro.errors import CryptoError, DeserializationError


class SimulatedGroup(BilinearGroup):
    """Bilinear-group simulation tracking exponents mod the BN254 order.

    The ``hash_to_g1`` memo and the pairing counters are the base class's,
    shared with :class:`~repro.crypto.group.BN254Group`, so
    :class:`~repro.crypto.group.GroupOpStats` deltas measured on this
    backend predict the real backend's op-for-op even though the
    simulated computations are trivially cheap.
    """

    name = "simulated"

    @property
    def order(self) -> int:
        return CURVE_ORDER

    def _generator(self, kind: str) -> GroupElement:
        if kind not in ELEMENT_BYTES:
            raise CryptoError(f"unknown group kind {kind!r}")
        return GroupElement(self, kind, 1)

    def _identity(self, kind: str) -> GroupElement:
        if kind not in ELEMENT_BYTES:
            raise CryptoError(f"unknown group kind {kind!r}")
        return GroupElement(self, kind, 0)

    def _op(self, a: GroupElement, b: GroupElement) -> GroupElement:
        return GroupElement(self, a.kind, (a.value + b.value) % CURVE_ORDER)

    def _pow(self, a: GroupElement, e: int) -> GroupElement:
        return GroupElement(self, a.kind, a.value * e % CURVE_ORDER)

    def _inv(self, a: GroupElement) -> GroupElement:
        return GroupElement(self, a.kind, -a.value % CURVE_ORDER)

    def _is_identity(self, a: GroupElement) -> bool:
        return a.value == 0

    def _serialize(self, a: GroupElement) -> bytes:
        width = ELEMENT_BYTES[a.kind]
        return a.value.to_bytes(32, "big").rjust(width, b"\0")

    def deserialize(self, kind: str, data: bytes, check_subgroup: bool = False) -> GroupElement:
        # Every in-range exponent names a genuine subgroup element, so
        # ``check_subgroup`` needs no extra work on this backend.
        width = ELEMENT_BYTES.get(kind)
        if width is None:
            raise CryptoError(f"unknown group kind {kind!r}")
        if kind != GT:
            self.stats.points_decoded += 1
        if len(data) != width:
            raise DeserializationError(f"{kind} encoding must be {width} bytes")
        value = int.from_bytes(data, "big")
        if value >= CURVE_ORDER:
            raise DeserializationError(f"{kind} exponent out of range")
        return GroupElement(self, kind, value)

    # -- exponent tracking makes these exact and O(1)/O(n) ------------------
    def pow_fixed(self, base: GroupElement, exponent: int) -> GroupElement:
        # No comb to build; count the call as the point backends do.
        self.stats.pows_fixed += 1
        return GroupElement(self, base.kind, base.value * exponent % CURVE_ORDER)

    def _multi_pow(
        self, kind: str, bases: Sequence[GroupElement], exponents: Sequence[int]
    ) -> GroupElement:
        total = 0
        for base, e in zip(bases, exponents):
            total += base.value * e
        return GroupElement(self, kind, total % CURVE_ORDER)

    def _hash_to_g1(self, *parts) -> GroupElement:
        return GroupElement(self, G1, self.hash_to_scalar(b"h2g1", *parts))

    def _multi_pair(self, pairs) -> int:
        return sum(a.value * b.value for a, b in pairs) % CURVE_ORDER


_DEFAULT: SimulatedGroup | None = None
_DEFAULT_LOCK = threading.Lock()


def simulated() -> SimulatedGroup:
    """Shared simulated backend instance (thread-safe initialization)."""
    global _DEFAULT
    if _DEFAULT is None:
        with _DEFAULT_LOCK:
            if _DEFAULT is None:
                _DEFAULT = SimulatedGroup()
    return _DEFAULT


register_pickle_backend(SimulatedGroup.name, simulated)
