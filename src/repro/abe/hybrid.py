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
A :class:`KemCache` lets a sealer reuse one encapsulation per policy (the
service provider clears it on every epoch rotation) and lets an opener
memoize decapsulated key material by the header's exact bytes.  A cache
miss runs exactly the uncached path.
"""

from __future__ import annotations

import random
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Optional

from repro.abe.cpabe import CpAbeCiphertext, CpAbePublicKey, CpAbeScheme, CpAbeSecretKey
from repro.crypto.aes import open_sealed, seal
from repro.policy.boolexpr import BoolExpr, and_of_attrs


@dataclass(frozen=True)
class HybridEnvelope:
    """CP-ABE header + AES-sealed body."""

    header: CpAbeCiphertext
    body: bytes

    def byte_size(self) -> int:
        return self.header.byte_size() + len(self.body)


class KemCache:
    """Bounded LRU of CP-ABE KEM results for one public key or one secret key.

    A sealer keys it by policy text and stores ``(key_material, header)``;
    an opener keys it by :func:`header_key` and stores key material.
    Look-ups and inserts run under ``lock``; the value is computed outside
    it.  :meth:`clear` starts a new generation, and a value computed before
    a clear is never stored after it.  Failures (``AccessDeniedError``,
    ``CryptoError``) propagate and are never stored.  ``observe`` is told
    each ``"hit"``, ``"miss"`` and ``"evicted"``.
    """

    def __init__(
        self,
        size: int,
        lock: Optional[threading.Lock] = None,
        observe: Optional[Callable[[str], None]] = None,
    ):
        self.size = max(1, size)
        self._lock = lock if lock is not None else threading.Lock()
        self._observe = observe if observe is not None else (lambda _outcome: None)
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self._generation = 0

    def get_or_make(self, key: Hashable, make: Callable[[], object]):
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
            generation = self._generation
        if value is not None:
            self._observe("hit")
            return value
        self._observe("miss")
        value = make()
        evicted = False
        with self._lock:
            if generation == self._generation:
                self._entries[key] = value
                if len(self._entries) > self.size:
                    self._entries.popitem(last=False)
                    evicted = True
        if evicted:
            self._observe("evicted")
        return value

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._generation += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


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
    cache: Optional[KemCache] = None,
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
    cache: Optional[KemCache] = None,
) -> HybridEnvelope:
    """Seal under the conjunction of ``roles`` (the paper's VO wrapping)."""
    return encrypt_for_policy(scheme, pk, and_of_attrs(sorted(set(roles))), plaintext, rng, cache)


def decrypt_envelope(
    scheme: CpAbeScheme,
    sk: CpAbeSecretKey,
    envelope: HybridEnvelope,
    cache: Optional[KemCache] = None,
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
