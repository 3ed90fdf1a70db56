"""Reference arm: the 32-bit T-table AES-128-CTR envelope, one block at a time.

This is the kernel ``repro.crypto.aes`` used before its byte-sliced
rewrite, kept here only as the old arm of ``bench_crypto_ops.py``'s
``dem`` scenario.  The state is four big-endian column words; each of
the nine full rounds is 16 lookups in four 256-entry tables that fold
SubBytes, ShiftRows and MixColumns together, and CTR encrypts its
counter blocks one by one.  ``seal``/``open_sealed`` mirror the library's
envelope (same KDF labels, same layout) so both arms must agree byte for
byte.
"""

from __future__ import annotations

import struct

from repro.crypto.aes import SBOX
from repro.crypto.hashing import constant_time_eq, hmac_sha256, kdf
from repro.errors import CryptoError

_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36]


def _xtime(x: int) -> int:
    return ((x << 1) ^ (0x1B if x & 0x80 else 0)) & 0xFF


def _rotr8(word: int) -> int:
    return (word >> 8) | ((word & 0xFF) << 24)


# _TE0[x] is the big-endian word (2*S[x], S[x], S[x], 3*S[x]); _TE1.._TE3
# are its byte rotations for rows 1..3.
_TE0 = tuple((_xtime(s) << 24) | (s << 16) | (s << 8) | (_xtime(s) ^ s) for s in SBOX)
_TE1 = tuple(_rotr8(t) for t in _TE0)
_TE2 = tuple(_rotr8(t) for t in _TE1)
_TE3 = tuple(_rotr8(t) for t in _TE2)
_S0 = tuple(s << 24 for s in SBOX)
_S1 = tuple(s << 16 for s in SBOX)
_S2 = tuple(s << 8 for s in SBOX)

_BLOCK = struct.Struct(">4I")
_NONCE = struct.Struct(">3I")


def _expand_key(key: bytes) -> tuple[tuple[int, int, int, int], ...]:
    if len(key) != 16:
        raise CryptoError("AES-128 requires a 16-byte key")
    words = list(_BLOCK.unpack(key))
    for i in range(4, 44):
        temp = words[i - 1]
        if i % 4 == 0:
            temp = (
                _S0[(temp >> 16) & 0xFF]
                | _S1[(temp >> 8) & 0xFF]
                | _S2[temp & 0xFF]
                | SBOX[temp >> 24]
            ) ^ (_RCON[i // 4 - 1] << 24)
        words.append(words[i - 4] ^ temp)
    return tuple(tuple(words[i : i + 4]) for i in range(0, 44, 4))


def _encrypt_words(s0: int, s1: int, s2: int, s3: int, round_keys) -> tuple[int, int, int, int]:
    te0, te1, te2, te3 = _TE0, _TE1, _TE2, _TE3
    k0, k1, k2, k3 = round_keys[0]
    s0 ^= k0
    s1 ^= k1
    s2 ^= k2
    s3 ^= k3
    for k0, k1, k2, k3 in round_keys[1:10]:
        s0, s1, s2, s3 = (
            te0[s0 >> 24] ^ te1[(s1 >> 16) & 0xFF] ^ te2[(s2 >> 8) & 0xFF] ^ te3[s3 & 0xFF] ^ k0,
            te0[s1 >> 24] ^ te1[(s2 >> 16) & 0xFF] ^ te2[(s3 >> 8) & 0xFF] ^ te3[s0 & 0xFF] ^ k1,
            te0[s2 >> 24] ^ te1[(s3 >> 16) & 0xFF] ^ te2[(s0 >> 8) & 0xFF] ^ te3[s1 & 0xFF] ^ k2,
            te0[s3 >> 24] ^ te1[(s0 >> 16) & 0xFF] ^ te2[(s1 >> 8) & 0xFF] ^ te3[s2 & 0xFF] ^ k3,
        )
    t0, t1, t2, sb = _S0, _S1, _S2, SBOX
    k0, k1, k2, k3 = round_keys[10]
    return (
        t0[s0 >> 24] ^ t1[(s1 >> 16) & 0xFF] ^ t2[(s2 >> 8) & 0xFF] ^ sb[s3 & 0xFF] ^ k0,
        t0[s1 >> 24] ^ t1[(s2 >> 16) & 0xFF] ^ t2[(s3 >> 8) & 0xFF] ^ sb[s0 & 0xFF] ^ k1,
        t0[s2 >> 24] ^ t1[(s3 >> 16) & 0xFF] ^ t2[(s0 >> 8) & 0xFF] ^ sb[s1 & 0xFF] ^ k2,
        t0[s3 >> 24] ^ t1[(s0 >> 16) & 0xFF] ^ t2[(s1 >> 8) & 0xFF] ^ sb[s2 & 0xFF] ^ k3,
    )


def ctr_keystream(key: bytes, nonce: bytes, length: int) -> bytes:
    round_keys, pack = _expand_key(key), _BLOCK.pack
    n0, n1, n2 = _NONCE.unpack(nonce)
    blocks = [
        pack(*_encrypt_words(n0, n1, n2, counter, round_keys))
        for counter in range(-(-length // 16))
    ]
    return b"".join(blocks)[:length]


def _ctr_xor(key: bytes, nonce: bytes, data: bytes) -> bytes:
    stream = ctr_keystream(key, nonce, len(data))
    return (int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")).to_bytes(len(data), "big")


def seal(key_material: bytes, plaintext: bytes, *, nonce: bytes) -> bytes:
    enc_key, mac_key = kdf(key_material, b"enc", 16), kdf(key_material, b"mac", 32)
    ciphertext = _ctr_xor(enc_key, nonce, plaintext)
    return nonce + ciphertext + hmac_sha256(mac_key, nonce + ciphertext)


def open_sealed(key_material: bytes, envelope: bytes) -> bytes:
    enc_key, mac_key = kdf(key_material, b"enc", 16), kdf(key_material, b"mac", 32)
    nonce, body, tag = envelope[:12], envelope[12:-32], envelope[-32:]
    if not constant_time_eq(hmac_sha256(mac_key, nonce + body), tag):
        raise CryptoError("envelope authentication failed")
    return _ctr_xor(enc_key, nonce, body)
