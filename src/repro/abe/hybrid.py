"""Hybrid CP-ABE + AES envelope for byte payloads.

The paper's protocols (Algorithms 1, 3, 4) encrypt the query result and VO
"using a traditional one-key cipher, such as AES, with the one-key cipher
key encrypted using CP-ABE under the access policy a1 AND a2 AND ... " over
the user's claimed role set — so only a user who truly holds those roles
can open the response (impersonation resistance).

This module provides that envelope: CP-ABE KEM encapsulates key material;
AES-128-CTR + HMAC-SHA256 seals the payload under a fresh random nonce.

Called without a cache, every seal draws a fresh encapsulation and every
open pays the (k+2)-pairing decapsulation — the paper's per-response seal.
A :class:`~repro.memo.BoundedMemo` lets a sealer reuse one encapsulation
per policy (keyed by policy text, storing ``(key_material, header)``; the
service provider clears it on every epoch rotation) and lets an opener
memoize decapsulated key material by :func:`header_key`.  A cache miss
runs exactly the uncached path; ``AccessDeniedError`` and ``CryptoError``
propagate and are never stored.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.abe.cpabe import CpAbeCiphertext, CpAbePublicKey, CpAbeScheme, CpAbeSecretKey
from repro.crypto.aes import open_sealed, seal
from repro.memo import BoundedMemo
from repro.policy.boolexpr import BoolExpr, and_of_attrs


@dataclass(frozen=True)
class HybridEnvelope:
    """CP-ABE header + AES-sealed body."""

    header: CpAbeCiphertext
    body: bytes

    def byte_size(self) -> int:
        return self.header.byte_size() + len(self.body)


def header_key(header: CpAbeCiphertext) -> tuple:
    """A header's exact canonical bytes: policy text, ``C'``, each ``C_i``, each ``D_i``."""
    return (
        header.policy.to_string(),
        header.c_prime.to_bytes(),
        tuple(row.to_bytes() for row in header.c_rows),
        tuple(row.to_bytes() for row in header.d_rows),
    )


def encrypt_for_policy(
    scheme: CpAbeScheme,
    pk: CpAbePublicKey,
    policy: BoolExpr,
    plaintext: bytes,
    rng: Optional[random.Random] = None,
    cache: Optional[BoundedMemo] = None,
) -> HybridEnvelope:
    """Seal ``plaintext`` so only holders of attributes satisfying ``policy`` open it.

    With ``cache``, the encapsulation for ``policy`` is reused while it
    stays cached; the body still gets a fresh nonce.
    """
    if cache is None:
        key_material, header = scheme.encapsulate(pk, policy, rng)
    else:
        key_material, header = cache.get_or_make(
            policy.to_string(), lambda: scheme.encapsulate(pk, policy, rng)
        )
    nonce = rng.getrandbits(96).to_bytes(12, "big") if rng is not None else None
    return HybridEnvelope(header=header, body=seal(key_material, plaintext, nonce=nonce))


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

    With ``cache`` (one per secret key), key material is memoized by the
    header's exact bytes; the MAC check and decryption run every time.
    """
    header = envelope.header
    if cache is None:
        key_material = scheme.decapsulate(sk, header)
    else:
        key_material = cache.get_or_make(
            header_key(header), lambda: scheme.decapsulate(sk, header)
        )
    return open_sealed(key_material, envelope.body)
