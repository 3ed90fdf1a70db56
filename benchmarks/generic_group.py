"""Reference arm: BN254 with its precomputed paths replaced by the generic ones.

Kept here only as the old arm of ``bench_crypto_ops.py``'s ``pow_fixed_*``,
``multi_pow``, ``aps_table_setup``, ``batched_vo_verify`` and ``multi_pair``
scenarios.  ``GenericGroup`` is a BN254 backend on which

* ``pow_fixed`` is the generic ``**`` (GLV/wNAF), counted as a ``pows``;
* ``multi_pow`` is the per-term product of ``**`` results.

Pairings are the library's: ``multi_pair`` is one lockstep product, so a
baseline never pays for a slower pairing than the library's own.
``GenericAbsScheme`` raises each signature's message base ``C g^hash``
to every row exponent with ``**`` instead of splitting it over the combs
of ``C`` and ``g``.  Both arms compute the same values, so the benchmark
asserts their outputs equal before timing.
"""

from __future__ import annotations

from repro.abs.scheme import AbsScheme
from repro.crypto.group import BilinearGroup, BN254Group, GroupElement


class GenericGroup(BN254Group):
    """BN254 without comb tables or multi-exponentiation."""

    def pow_fixed(self, base: GroupElement, exponent: int) -> GroupElement:
        self.stats.pows += 1
        return self._pow(base, exponent % self.order)

    def _multi_pow(self, kind, bases, exponents):
        return BilinearGroup._multi_pow(self, kind, bases, exponents)


class GenericAbsScheme(AbsScheme):
    """ABS whose message-base powers are plain ``**`` of ``C g^hash``."""

    def _message_base_powers(self, mvk, tau: bytes, message: bytes):
        cg = self._message_base(mvk, tau, message)
        return lambda e: cg**e
