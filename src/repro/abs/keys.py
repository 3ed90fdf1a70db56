"""Key material for the ABS scheme (paper Section 5.2.2).

* Master signing key ``msk = (a0, a, b)`` — scalars held by the DO.
* Master verification key ``mvk = (g, h0, h, A0, A, B, C)`` with
  ``g, C in G1`` and ``h0, h, A0 = h0^a0, A = h^a, B = h^b in G2`` —
  distributed to users.
* Signing key for attribute set A:
  ``(K_base, K0 = K_base^(1/a0), {K_u = K_base^(1/(a + b*u))})``,
  all in G1, where ``u`` is the attribute's scalar encoding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet

from repro.codec import decode_frame
from repro.crypto.group import G1, G2, BilinearGroup, GroupElement
from repro.errors import CryptoError


def attribute_scalar(group: BilinearGroup, name: str) -> int:
    """Deterministic encoding of an attribute name into Z_r."""
    return group.hash_to_scalar(b"abs-attribute", name)


@dataclass(frozen=True)
class AbsVerificationKey:
    """Master verification key ``mvk`` (public)."""

    group: BilinearGroup
    g: GroupElement  # G1
    h0: GroupElement  # G2
    h: GroupElement  # G2
    a0_pub: GroupElement  # A0 = h0^a0, G2
    a_pub: GroupElement  # A = h^a, G2
    b_pub: GroupElement  # B = h^b, G2
    c: GroupElement  # C, G1

    def __post_init__(self):
        # Per-mvk memo for attribute_base: the attribute universe is
        # small and static, yet every sign/verify/relax recomputes the
        # same G2 exponentiations.  Not a dataclass field, so equality
        # and hashing are unaffected.
        object.__setattr__(self, "_attr_bases", {})

    def attribute_base(self, name: str) -> GroupElement:
        """``A * B^u`` for attribute ``name`` — the G2 base h^(a+b*u).

        Memoized per mvk; the ``B^u`` exponentiation runs through the
        shared fixed-base comb of ``B``.
        """
        cached = self._attr_bases.get(name)
        if cached is None:
            u = attribute_scalar(self.group, name)
            cached = self.a_pub * self.group.pow_fixed(self.b_pub, u)
            self._attr_bases[name] = cached
        return cached

    def to_bytes(self) -> bytes:
        return b"".join(
            e.to_bytes()
            for e in (self.g, self.h0, self.h, self.a0_pub, self.a_pub, self.b_pub, self.c)
        )

    @classmethod
    def from_bytes(cls, group: BilinearGroup, data: bytes) -> "AbsVerificationKey":
        with decode_frame(data, "mvk") as reader:
            g, h0, h, a0_pub, a_pub, b_pub, c = (
                reader.take_element(group, kind)
                for kind in (G1, G2, G2, G2, G2, G2, G1)
            )
        return cls(
            group=group, g=g, h0=h0, h=h, a0_pub=a0_pub, a_pub=a_pub,
            b_pub=b_pub, c=c,
        )


@dataclass(frozen=True)
class AbsMasterSigningKey:
    """Master signing key ``msk = (a0, a, b)`` (DO-private)."""

    a0: int
    a: int
    b: int


@dataclass(frozen=True)
class AbsKeyPair:
    msk: AbsMasterSigningKey
    mvk: AbsVerificationKey


@dataclass(frozen=True)
class AbsSigningKey:
    """Per-attribute-set signing key ``sk_A``."""

    attrs: FrozenSet[str]
    k_base: GroupElement  # G1
    k0: GroupElement  # G1
    k: Dict[str, GroupElement]  # attr -> G1

    def __post_init__(self):
        missing = self.attrs - set(self.k)
        if missing:
            raise CryptoError(f"signing key missing components for {sorted(missing)}")
