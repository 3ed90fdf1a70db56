"""Hybrid CP-ABE + AES envelope for byte payloads.

The paper's protocols (Algorithms 1, 3, 4) encrypt the query result and VO
"using a traditional one-key cipher, such as AES, with the one-key cipher
key encrypted using CP-ABE under the access policy a1 AND a2 AND ... " over
the user's claimed role set — so only a user who truly holds those roles
can open the response (impersonation resistance).

This module provides that envelope: CP-ABE KEM encapsulates key material;
AES-128-CTR + HMAC-SHA256 seals the payload under a fresh random nonce,
through the key's :class:`~repro.crypto.aes.Channel`.

Called without a cache, every seal draws a fresh encapsulation and every
open pays the (k+2)-pairing decapsulation — the paper's per-response seal.
A :class:`~repro.memo.BoundedMemo` lets a sealer reuse one encapsulation
per policy (keyed by policy text, storing a :class:`KemKey`; the service
provider clears it on every epoch rotation) and lets an opener memoize a
decapsulated key's channel by the header's exact wire bytes.  A cache
miss runs exactly the uncached path; ``AccessDeniedError`` and
``CryptoError`` propagate and are never stored.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.abe.cpabe import CpAbeCiphertext, CpAbePublicKey, CpAbeScheme, CpAbeSecretKey
from repro.crypto.aes import Channel
from repro.crypto.group import BilinearGroup
from repro.memo import BoundedMemo
from repro.policy.boolexpr import BoolExpr, and_of_attrs


@dataclass(frozen=True, eq=False)
class HybridEnvelope:
    """CP-ABE header + AES-sealed body.

    An envelope read off the wire (:meth:`from_header_bytes`) keeps the
    header as its wire bytes and decodes it only when :attr:`header` is
    first read, so an opener whose memo holds those bytes never decodes a
    point or parses the policy.  Equality goes by the header's wire bytes
    and the body.
    """

    header: CpAbeCiphertext
    body: bytes

    @classmethod
    def from_header_bytes(
        cls,
        group: BilinearGroup,
        header_bytes: bytes,
        body: bytes,
        header: Optional[CpAbeCiphertext] = None,
    ) -> "HybridEnvelope":
        """An envelope whose header is ``header_bytes``, decoded on first use
        unless the decoded ``header`` is passed along."""
        envelope = object.__new__(cls)
        for name, value in (("body", body), ("_group", group), ("_header_bytes", header_bytes)):
            object.__setattr__(envelope, name, value)
        if header is not None:
            object.__setattr__(envelope, "header", header)
        return envelope

    def __getattr__(self, name: str):
        # Reached only while the header of a from_header_bytes envelope is
        # still undecoded.  A header that does not decode raises
        # DeserializationError here.
        state = self.__dict__
        if name == "header" and "_header_bytes" in state:
            header = CpAbeCiphertext.from_bytes(state["_group"], state["_header_bytes"])
            object.__setattr__(self, "header", header)
            return header
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    @property
    def header_bytes(self) -> bytes:
        """The header's wire encoding (:meth:`CpAbeCiphertext.to_bytes`)."""
        encoding = self.__dict__.get("_header_bytes")
        if encoding is None:
            encoding = self.header.to_bytes()
            object.__setattr__(self, "_header_bytes", encoding)
        return encoding

    def byte_size(self) -> int:
        return self.header.byte_size() + len(self.body)

    def __eq__(self, other) -> bool:
        if not isinstance(other, HybridEnvelope):
            return NotImplemented
        return (self.header_bytes, self.body) == (other.header_bytes, other.body)

    def __hash__(self) -> int:
        return hash((self.header_bytes, self.body))


@dataclass(frozen=True)
class KemKey:
    """One CP-ABE encapsulation as its sealer uses it: the header, the
    header's wire bytes, and the channel of the encapsulated key."""

    header: CpAbeCiphertext
    header_bytes: bytes
    channel: Channel


def _encapsulate(
    scheme: CpAbeScheme, pk: CpAbePublicKey, policy: BoolExpr, rng: Optional[random.Random]
) -> KemKey:
    key_material, header = scheme.encapsulate(pk, policy, rng)
    return KemKey(header, header.to_bytes(), Channel(key_material))


def encrypt_for_policy(
    scheme: CpAbeScheme,
    pk: CpAbePublicKey,
    policy: BoolExpr,
    plaintext: bytes,
    rng: Optional[random.Random] = None,
    cache: Optional[BoundedMemo] = None,
) -> HybridEnvelope:
    """Seal ``plaintext`` so only holders of attributes satisfying ``policy`` open it.

    With ``cache``, the encapsulation for ``policy`` (its :class:`KemKey`)
    is reused while it stays cached; the body still gets a fresh nonce.
    """
    if cache is None:
        kem = _encapsulate(scheme, pk, policy, rng)
    else:
        kem = cache.get_or_make(
            policy.to_string(), lambda: _encapsulate(scheme, pk, policy, rng)
        )
    nonce = rng.getrandbits(96).to_bytes(12, "big") if rng is not None else None
    body = kem.channel.seal(plaintext, nonce=nonce)
    return HybridEnvelope.from_header_bytes(pk.group, kem.header_bytes, body, kem.header)


def encrypt_for_roles(
    scheme: CpAbeScheme,
    pk: CpAbePublicKey,
    roles: Iterable[str],
    plaintext: bytes,
    rng: Optional[random.Random] = None,
    cache: Optional[BoundedMemo] = None,
) -> HybridEnvelope:
    """Seal under the conjunction of ``roles`` (the paper's VO wrapping)."""
    return encrypt_for_policy(scheme, pk, and_of_attrs(sorted(set(roles))), plaintext, rng, cache)


def decrypt_envelope(
    scheme: CpAbeScheme,
    sk: CpAbeSecretKey,
    envelope: HybridEnvelope,
    cache: Optional[BoundedMemo] = None,
) -> bytes:
    """Open a hybrid envelope; raises :class:`AccessDeniedError` or
    :class:`repro.errors.CryptoError` (tamper).

    With ``cache`` (one per secret key), the decapsulated key's channel is
    memoized by the header's exact wire bytes, and the header is decoded
    only on a miss; the MAC check and decryption run every time.
    """
    if cache is None:
        channel = Channel(scheme.decapsulate(sk, envelope.header))
    else:
        channel = cache.get_or_make(
            envelope.header_bytes,
            lambda: Channel(scheme.decapsulate(sk, envelope.header)),
        )
    return channel.open(envelope.body)
