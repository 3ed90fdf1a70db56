"""AES-128 from scratch plus CTR mode and an encrypt-then-MAC envelope.

The paper's protocols wrap every query response in a "traditional one-key
cipher, such as AES", with the key itself encapsulated under CP-ABE.  No
third-party crypto package is available offline, so this module implements
the forward AES-128 cipher (all that CTR mode needs), a CTR keystream, and
an authenticated encrypt-then-MAC envelope using HMAC-SHA256.

The cipher is byte-sliced: one kernel encrypts all N blocks of a payload
together (the byte-wide form of Kasper and Schwabe's bitsliced AES-CTR,
CHES 2009).  The state is one big integer of 16 lanes of N bytes, row
major: lane 4r + c holds state byte r + 4c (row r, column c) of every
block.  A round is then a few dozen C-level operations on the whole
state: SubBytes is one ``bytes.translate`` through the S-box, ShiftRows
re-slices each row's lanes, MixColumns is ``xtime`` through a second
translate table plus the XOR of row-rotated copies of the state, and
AddRoundKey is one XOR with a lane-filled round key.  Sixteen
extended-slice assignments transpose the lanes back to block order.
``encrypt_blocks`` (ECB), ``encrypt_block`` (N = 1) and the CTR keystream
share this one kernel; CTR builds its counter lanes directly, and the
payload is XORed as one big integer.  The kernel's fixed cost per call
makes it slower than one-block-at-a-time code below roughly 50 to 100
bytes; every sealed response is larger than that.

Not constant-time: each ``translate`` lookup is indexed by a
key-dependent state byte, so cache timing can still leak.  This module
exercises the real code path; it does not protect production traffic.
"""

from __future__ import annotations

import hashlib
import hmac
import os
import struct

from repro.crypto.hashing import constant_time_eq, kdf
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

# xtime: multiplication by x (i.e. 2) in GF(2^8), as a translate table.
_XTIME = bytes(_gf_mul(x, 2) for x in range(256))

# Lane order: lane L = 4r + c carries state byte r + 4c (row r, column c)
# of every block, so each state row is four consecutive lanes.
_LANE_BYTES = tuple(r + 4 * c for r in range(4) for c in range(4))
_TABLE_PAD = bytes(240)


def _expand_key(key: bytes) -> tuple[bytes, ...]:
    """AES-128 key schedule: 11 round keys of 16 bytes, in lane order."""
    if len(key) != 16:
        raise CryptoError("AES-128 requires a 16-byte key")
    words = list(struct.unpack(">4I", key))
    for i in range(4, 44):
        temp = words[i - 1]
        if i % 4 == 0:
            # SubWord(RotWord(temp)) ^ Rcon, on a big-endian word.
            temp = (
                (SBOX[(temp >> 16) & 0xFF] ^ _RCON[i // 4 - 1]) << 24
                | SBOX[(temp >> 8) & 0xFF] << 16
                | SBOX[temp & 0xFF] << 8
                | SBOX[temp >> 24]
            )
        words.append(words[i - 4] ^ temp)
    # Gather byte i of all 11 round keys per lane, then split by round.
    schedule = struct.pack(">44I", *words)
    lanes = b"".join(schedule[i::16] for i in _LANE_BYTES)
    return tuple(lanes[j::11] for j in range(11))


class AES128:
    """Forward AES-128 cipher with a precomputed key schedule."""

    def __init__(self, key: bytes):
        self._round_keys = _expand_key(key)

    def encrypt_block(self, block: bytes) -> bytes:
        if len(block) != 16:
            raise CryptoError("AES block must be 16 bytes")
        return self.encrypt_blocks(block)

    def encrypt_blocks(self, blocks: bytes) -> bytes:
        """ECB-encrypt whole 16-byte blocks, all in one kernel call."""
        if len(blocks) % 16:
            raise CryptoError("AES input must be whole 16-byte blocks")
        return self._encrypt_lanes(
            b"".join(blocks[i::16] for i in _LANE_BYTES), len(blocks) // 16
        )

    def _encrypt_lanes(self, state: bytes, n: int) -> bytes:
        """Encrypt ``n`` blocks given as 16 lanes of ``n`` bytes each.

        Returns the ``n`` ciphertext blocks in block order.
        """
        size, bits, row_bits = 16 * n, 128 * n, 32 * n
        mask = (1 << bits) - 1
        lane_ids = b"".join(bytes((lane,)) * n for lane in range(16))
        # Each round key padded to a translate table mapping lane number ->
        # key byte; built per call, so a cipher keeps 176 bytes of keys.
        keys = [
            int.from_bytes(lane_ids.translate(k + _TABLE_PAD), "big") for k in self._round_keys
        ]
        s = int.from_bytes(state, "big") ^ keys[0]
        for k in keys[1:10]:
            s = int.from_bytes(_sub_shift(s, n), "big")
            # MixColumns, with u[r] = s[r] ^ s[r+1] (rows taken mod 4; moving
            # every row up by one rotates the integer by ``row_bits``):
            # out[r] = 2s[r] ^ 3s[r+1] ^ s[r+2] ^ s[r+3]
            #        = s[r] ^ xtime(u[r]) ^ (u[r] ^ u[r+2]).
            u = s ^ ((s << row_bits) & mask) ^ (s >> (bits - row_bits))
            s ^= (
                int.from_bytes(u.to_bytes(size, "big").translate(_XTIME), "big")
                ^ u
                ^ ((u << 2 * row_bits) & mask)
                ^ (u >> (bits - 2 * row_bits))
                ^ k
            )
        # Final round: no MixColumns.
        lanes = (int.from_bytes(_sub_shift(s, n), "big") ^ keys[10]).to_bytes(size, "big")
        out = bytearray(size)
        for lane, i in enumerate(_LANE_BYTES):
            out[i::16] = lanes[lane * n : (lane + 1) * n]
        return bytes(out)


def _sub_shift(s: int, n: int) -> bytes:
    """SubBytes then ShiftRows (row r rotated left by r lanes) of a lane state."""
    b = s.to_bytes(16 * n, "big").translate(SBOX)
    return b"".join((
        b[: 4 * n],
        b[5 * n : 8 * n], b[4 * n : 5 * n],
        b[10 * n : 12 * n], b[8 * n : 10 * n],
        b[15 * n :], b[12 * n : 15 * n],
    ))


def ctr_keystream(cipher: AES128, nonce: bytes, length: int) -> bytes:
    """CTR keystream: AES(nonce || counter) blocks, counter from 0."""
    if len(nonce) != 12:
        raise CryptoError("CTR nonce must be 12 bytes")
    n = -(-length // 16)
    counters = struct.pack(f">{n}I", *range(n))
    # Block byte i < 12 is nonce byte i; bytes 12..15 are the counter.
    columns = [nonce[i : i + 1] * n for i in range(12)] + [counters[i::4] for i in range(4)]
    state = b"".join(columns[i] for i in _LANE_BYTES)
    return cipher._encrypt_lanes(state, n)[:length]


def aes_ctr_xor(key: bytes, nonce: bytes, data: bytes) -> bytes:
    """Encrypt/decrypt (same operation) with AES-128-CTR."""
    return _ctr_xor(AES128(key), nonce, data)


def _ctr_xor(cipher: AES128, nonce: bytes, data: bytes) -> bytes:
    stream = ctr_keystream(cipher, nonce, len(data))
    mixed = int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")
    return mixed.to_bytes(len(data), "big")


class Channel:
    """The symmetric half of one envelope key: everything derived from it, built once.

    ``key_material`` may be any high-entropy byte string (e.g. a
    serialized GT element from the CP-ABE KEM).  The encryption and MAC
    keys are derived with the KDF; the channel keeps the AES-128 key
    schedule and an HMAC-SHA256 state already keyed, so a key that seals
    or opens many envelopes derives them once.  Envelope layout:
    ``nonce (12) || ciphertext || tag (32)``, encrypt-then-MAC.
    """

    __slots__ = ("_cipher", "_mac")

    def __init__(self, key_material: bytes):
        self._cipher = AES128(kdf(key_material, b"enc", 16))
        self._mac = hmac.new(kdf(key_material, b"mac", 32), digestmod=hashlib.sha256)

    def _tag(self, data: bytes) -> bytes:
        mac = self._mac.copy()
        mac.update(data)
        return mac.digest()

    def seal(self, plaintext: bytes, *, nonce: bytes | None = None) -> bytes:
        if nonce is None:
            nonce = os.urandom(12)
        ciphertext = _ctr_xor(self._cipher, nonce, plaintext)
        return nonce + ciphertext + self._tag(nonce + ciphertext)

    def open(self, envelope: bytes) -> bytes:
        """Open a sealed envelope; raises :class:`CryptoError` on tamper."""
        if len(envelope) < 44:
            raise CryptoError("sealed envelope too short")
        nonce, body, tag = envelope[:12], envelope[12:-32], envelope[-32:]
        if not constant_time_eq(self._tag(nonce + body), tag):
            raise CryptoError("envelope authentication failed")
        return _ctr_xor(self._cipher, nonce, body)


def seal(key_material: bytes, plaintext: bytes, *, nonce: bytes | None = None) -> bytes:
    """Authenticated envelope under ``key_material``: one :class:`Channel` seal."""
    return Channel(key_material).seal(plaintext, nonce=nonce)


def open_sealed(key_material: bytes, envelope: bytes) -> bytes:
    """Open a :func:`seal` envelope; raises :class:`CryptoError` on tamper."""
    return Channel(key_material).open(envelope)
