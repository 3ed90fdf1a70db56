"""AES-128 from scratch plus CTR mode and an encrypt-then-MAC envelope.

The paper's protocols wrap every query response in a "traditional one-key
cipher, such as AES", with the key itself encapsulated under CP-ABE.  No
third-party crypto package is available offline, so this module implements
the forward AES-128 cipher (all that CTR mode needs), a CTR keystream, and
an authenticated encrypt-then-MAC envelope using HMAC-SHA256.

The cipher is the classic 32-bit T-table formulation: the state is four
big-endian column words, and each of the nine full rounds is 16 lookups
in four 256-entry tables that fold SubBytes, ShiftRows and MixColumns
together (the last round uses the S-box alone).  ``encrypt_block`` and
the CTR keystream share that one kernel; CTR collects its blocks in a
list joined once, and the payload is XORed as one big integer.

Not constant-time: table lookups indexed by key-dependent bytes leak
through cache timing.  This module exercises the real code path; it does
not protect production traffic.
"""

from __future__ import annotations

import os
import struct

from repro.crypto.hashing import constant_time_eq, hmac_sha256, kdf
from repro.errors import CryptoError

# ---------------------------------------------------------------------------
# S-box generation (from GF(2^8) inversion + affine map, computed at import).
# ---------------------------------------------------------------------------


def _gf_mul(a: int, b: int) -> int:
    out = 0
    for _ in range(8):
        if b & 1:
            out ^= a
        carry = a & 0x80
        a = (a << 1) & 0xFF
        if carry:
            a ^= 0x1B
        b >>= 1
    return out


def _build_sbox() -> bytes:
    # Multiplicative inverses in GF(2^8).
    inv = [0] * 256
    for x in range(1, 256):
        for y in range(1, 256):
            if _gf_mul(x, y) == 1:
                inv[x] = y
                break
    sbox = bytearray(256)
    for x in range(256):
        b = inv[x]
        res = 0
        for i in range(8):
            bit = (
                (b >> i)
                ^ (b >> ((i + 4) % 8))
                ^ (b >> ((i + 5) % 8))
                ^ (b >> ((i + 6) % 8))
                ^ (b >> ((i + 7) % 8))
                ^ (0x63 >> i)
            ) & 1
            res |= bit << i
        sbox[x] = res
    return bytes(sbox)


SBOX = _build_sbox()
assert SBOX[0x00] == 0x63 and SBOX[0x53] == 0xED, "AES S-box self-check failed"

_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36]


def _rotr8(word: int) -> int:
    return (word >> 8) | ((word & 0xFF) << 24)


# T-tables: _TE0[x] is the MixColumns column of SubBytes(x) in row 0,
# i.e. the big-endian word (2*S[x], S[x], S[x], 3*S[x]); _TE1.._TE3 are its
# byte rotations for rows 1..3.  One full round of one column is then four
# lookups XORed with a round-key word.
_TE0 = tuple(
    (_gf_mul(s, 2) << 24) | (s << 16) | (s << 8) | _gf_mul(s, 3) for s in SBOX
)
_TE1 = tuple(_rotr8(t) for t in _TE0)
_TE2 = tuple(_rotr8(t) for t in _TE1)
_TE3 = tuple(_rotr8(t) for t in _TE2)
# Final round (no MixColumns): the S-box shifted into each byte position.
_S0 = tuple(s << 24 for s in SBOX)
_S1 = tuple(s << 16 for s in SBOX)
_S2 = tuple(s << 8 for s in SBOX)

_BLOCK = struct.Struct(">4I")
_NONCE = struct.Struct(">3I")


def _expand_key(key: bytes) -> tuple[tuple[int, int, int, int], ...]:
    """AES-128 key schedule: 11 round keys of four big-endian 32-bit words."""
    if len(key) != 16:
        raise CryptoError("AES-128 requires a 16-byte key")
    words = list(_BLOCK.unpack(key))
    for i in range(4, 44):
        temp = words[i - 1]
        if i % 4 == 0:
            # SubWord(RotWord(temp)) ^ Rcon
            temp = (
                _S0[(temp >> 16) & 0xFF]
                | _S1[(temp >> 8) & 0xFF]
                | _S2[temp & 0xFF]
                | SBOX[temp >> 24]
            ) ^ (_RCON[i // 4 - 1] << 24)
        words.append(words[i - 4] ^ temp)
    return tuple(tuple(words[i : i + 4]) for i in range(0, 44, 4))


def _encrypt_words(s0: int, s1: int, s2: int, s3: int, round_keys) -> tuple[int, int, int, int]:
    """Encrypt one block given as four big-endian column words."""
    te0, te1, te2, te3 = _TE0, _TE1, _TE2, _TE3
    k0, k1, k2, k3 = round_keys[0]
    s0 ^= k0
    s1 ^= k1
    s2 ^= k2
    s3 ^= k3
    for k0, k1, k2, k3 in round_keys[1:10]:
        # SubBytes + ShiftRows + MixColumns + AddRoundKey, one column each.
        s0, s1, s2, s3 = (
            te0[s0 >> 24] ^ te1[(s1 >> 16) & 0xFF] ^ te2[(s2 >> 8) & 0xFF] ^ te3[s3 & 0xFF] ^ k0,
            te0[s1 >> 24] ^ te1[(s2 >> 16) & 0xFF] ^ te2[(s3 >> 8) & 0xFF] ^ te3[s0 & 0xFF] ^ k1,
            te0[s2 >> 24] ^ te1[(s3 >> 16) & 0xFF] ^ te2[(s0 >> 8) & 0xFF] ^ te3[s1 & 0xFF] ^ k2,
            te0[s3 >> 24] ^ te1[(s0 >> 16) & 0xFF] ^ te2[(s1 >> 8) & 0xFF] ^ te3[s2 & 0xFF] ^ k3,
        )
    # Final round: no MixColumns.
    t0, t1, t2, sb = _S0, _S1, _S2, SBOX
    k0, k1, k2, k3 = round_keys[10]
    return (
        t0[s0 >> 24] ^ t1[(s1 >> 16) & 0xFF] ^ t2[(s2 >> 8) & 0xFF] ^ sb[s3 & 0xFF] ^ k0,
        t0[s1 >> 24] ^ t1[(s2 >> 16) & 0xFF] ^ t2[(s3 >> 8) & 0xFF] ^ sb[s0 & 0xFF] ^ k1,
        t0[s2 >> 24] ^ t1[(s3 >> 16) & 0xFF] ^ t2[(s0 >> 8) & 0xFF] ^ sb[s1 & 0xFF] ^ k2,
        t0[s3 >> 24] ^ t1[(s0 >> 16) & 0xFF] ^ t2[(s1 >> 8) & 0xFF] ^ sb[s2 & 0xFF] ^ k3,
    )


class AES128:
    """Forward AES-128 cipher with a precomputed key schedule."""

    def __init__(self, key: bytes):
        self._round_keys = _expand_key(key)

    def encrypt_block(self, block: bytes) -> bytes:
        if len(block) != 16:
            raise CryptoError("AES block must be 16 bytes")
        return _BLOCK.pack(*_encrypt_words(*_BLOCK.unpack(block), self._round_keys))


def ctr_keystream(cipher: AES128, nonce: bytes, length: int) -> bytes:
    """CTR keystream: AES(nonce || counter) blocks, counter from 0."""
    if len(nonce) != 12:
        raise CryptoError("CTR nonce must be 12 bytes")
    n0, n1, n2 = _NONCE.unpack(nonce)
    round_keys, pack = cipher._round_keys, _BLOCK.pack
    blocks = [
        pack(*_encrypt_words(n0, n1, n2, counter, round_keys))
        for counter in range(-(-length // 16))
    ]
    return b"".join(blocks)[:length]


def aes_ctr_xor(key: bytes, nonce: bytes, data: bytes) -> bytes:
    """Encrypt/decrypt (same operation) with AES-128-CTR."""
    stream = ctr_keystream(AES128(key), nonce, len(data))
    mixed = int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")
    return mixed.to_bytes(len(data), "big")


def seal(key_material: bytes, plaintext: bytes, *, nonce: bytes | None = None) -> bytes:
    """Authenticated envelope: AES-128-CTR + HMAC-SHA256 (encrypt-then-MAC).

    ``key_material`` may be any high-entropy byte string (e.g. a serialized
    GT element from the CP-ABE KEM); encryption and MAC keys are derived
    with the KDF.  Output layout: ``nonce (12) || ciphertext || tag (32)``.
    """
    enc_key = kdf(key_material, b"enc", 16)
    mac_key = kdf(key_material, b"mac", 32)
    if nonce is None:
        nonce = os.urandom(12)
    ciphertext = aes_ctr_xor(enc_key, nonce, plaintext)
    tag = hmac_sha256(mac_key, nonce + ciphertext)
    return nonce + ciphertext + tag


def open_sealed(key_material: bytes, envelope: bytes) -> bytes:
    """Open a :func:`seal` envelope; raises :class:`CryptoError` on tamper."""
    if len(envelope) < 44:
        raise CryptoError("sealed envelope too short")
    enc_key = kdf(key_material, b"enc", 16)
    mac_key = kdf(key_material, b"mac", 32)
    nonce, body, tag = envelope[:12], envelope[12:-32], envelope[-32:]
    if not constant_time_eq(hmac_sha256(mac_key, nonce + body), tag):
        raise CryptoError("envelope authentication failed")
    return aes_ctr_xor(enc_key, nonce, body)
