"""Tests for the from-scratch AES-128, CTR mode, and the sealed envelope."""

import functools
import hashlib
import sys
import threading

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.crypto import aes
from repro.crypto.aes import (
    AES128,
    LANE_KEY_CACHE_BYTES,
    SBOX,
    Channel,
    aes_ctr_xor,
    ctr_keystream,
    open_sealed,
    seal,
)
from repro.errors import CryptoError


def test_sbox_known_entries():
    # Spot values from FIPS-197.
    assert SBOX[0x00] == 0x63
    assert SBOX[0x01] == 0x7C
    assert SBOX[0x53] == 0xED
    assert SBOX[0xFF] == 0x16
    assert len(set(SBOX)) == 256  # a permutation


def test_fips197_vector():
    key = bytes(range(16))
    pt = bytes.fromhex("00112233445566778899aabbccddeeff")
    assert AES128(key).encrypt_block(pt).hex() == "69c4e0d86a7b0430d8cdb78070b4c55a"


# NIST SP 800-38A F.1.1 ECB-AES128: all four blocks.
SP800_38A_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
SP800_38A_PT = bytes.fromhex(
    "6bc1bee22e409f96e93d7e117393172a" "ae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52ef" "f69f2445df4f9b17ad2b417be66c3710"
)
SP800_38A_CT = bytes.fromhex(
    "3ad77bb40d7a3660a89ecaf32466ef97" "f5d3d58503b9699de785895a96fdbaaf"
    "43b1cd7f598ece23881b00e3ed030688" "7b0c785e27e8ad3f8223207104725dd4"
)


def test_nist_sp800_38a_ecb_vector():
    cipher = AES128(SP800_38A_KEY)
    assert cipher.encrypt_block(SP800_38A_PT[:16]) == SP800_38A_CT[:16]
    # All four blocks through one multi-block kernel call.
    assert cipher.encrypt_blocks(SP800_38A_PT) == SP800_38A_CT


def test_block_size_enforced():
    with pytest.raises(CryptoError):
        AES128(b"k" * 16).encrypt_block(b"short")
    with pytest.raises(CryptoError):
        AES128(b"k" * 16).encrypt_blocks(b"x" * 17)
    with pytest.raises(CryptoError):
        AES128(b"k" * 15)


@given(st.binary(min_size=0, max_size=200), st.binary(min_size=16, max_size=16),
       st.binary(min_size=12, max_size=12))
def test_ctr_is_an_involution(data, key, nonce):
    once = aes_ctr_xor(key, nonce, data)
    assert aes_ctr_xor(key, nonce, once) == data
    assert len(once) == len(data)


def test_ctr_keystream_deterministic_and_nonce_sensitive():
    cipher = AES128(b"0" * 16)
    a = ctr_keystream(cipher, b"n" * 12, 64)
    assert a == ctr_keystream(cipher, b"n" * 12, 64)
    assert a != ctr_keystream(cipher, b"m" * 12, 64)
    with pytest.raises(CryptoError):
        ctr_keystream(cipher, b"short", 16)


@given(st.binary(min_size=0, max_size=500), st.binary(min_size=1, max_size=64))
def test_seal_open_roundtrip(plaintext, key_material):
    env = seal(key_material, plaintext)
    assert open_sealed(key_material, env) == plaintext


def test_open_detects_tamper():
    env = bytearray(seal(b"key", b"hello"))
    env[14] ^= 0x01  # flip a ciphertext bit
    with pytest.raises(CryptoError):
        open_sealed(b"key", bytes(env))


def test_open_detects_wrong_key():
    env = seal(b"key", b"hello")
    with pytest.raises(CryptoError):
        open_sealed(b"other", env)


def test_open_rejects_truncated():
    with pytest.raises(CryptoError):
        open_sealed(b"key", b"x" * 20)


def test_seal_with_fixed_nonce_is_deterministic():
    env1 = seal(b"key", b"data", nonce=b"A" * 12)
    env2 = seal(b"key", b"data", nonce=b"A" * 12)
    assert env1 == env2
    env3 = seal(b"key", b"data", nonce=b"B" * 12)
    assert env1 != env3


# SHA-256 of seal(GOLDEN_KEY_MATERIAL, plaintext(n), nonce=GOLDEN_NONCE),
# recorded from one-block-at-a-time kernels that share no code with the
# byte-sliced one, which must reproduce every envelope byte.
# 4112 and 1048592 bytes (257 and 65,537 blocks) carry the CTR counter
# past its low byte and its two low bytes.
GOLDEN_KEY_MATERIAL = bytes(range(48))
GOLDEN_NONCE = bytes.fromhex("000102030405060708090a0b")
GOLDEN_SEAL = {
    0: "9d00b401ded062b8f47bf980fac755eff0ffe99566af1bd8fffb93560135fd59",
    1: "67220430be606d5bd13f5d46bab94b6905514237d74b624cb27c9abc8dd1fcad",
    15: "77b2a248f632164a963c4f8e7ef696d75aa2a8424e4aa1667e66f276f6f65e6a",
    16: "e977b78eef965adaba567c82c7230e4b12d1b02f16bd9fb8b83452fe6bf5c754",
    17: "057e586b899998c882513ccdc48938e536a6b06525a05aee368cc6786015b74f",
    1000: "60f3b9c1460f5ffcb64cbb48565799daa4eef9ed5669493d37cff575a1fad852",
    4000: "7f79ccd14ca319436babbfe9ca90672ce7761cab38bceea02f17fc0d59516825",
    4112: "a4249af70cb1cbf3b6cf8f22147abae05dd2629297ffde56629e40958c4d2a50",
    1048592: "7729129592a146bfe5125164636030154574a308f23ab426adcb3b3822c194bd",
}


@pytest.mark.parametrize("length", sorted(GOLDEN_SEAL))
def test_seal_matches_golden_envelope(length):
    plaintext = bytes((7 * i + 3) & 0xFF for i in range(length))
    env = seal(GOLDEN_KEY_MATERIAL, plaintext, nonce=GOLDEN_NONCE)
    assert len(env) == 12 + length + 32
    assert hashlib.sha256(env).hexdigest() == GOLDEN_SEAL[length]
    assert open_sealed(GOLDEN_KEY_MATERIAL, env) == plaintext


# -- textbook oracle ---------------------------------------------------------
# A byte-wise AES-128 straight from FIPS-197 on a 16-byte list (state byte
# r + 4c is row r, column c), sharing no code or table with the module.


def _gmul(a: int, b: int) -> int:
    out = 0
    while b:
        if b & 1:
            out ^= a
        a = (a << 1) ^ (0x11B if a & 0x80 else 0)
        b >>= 1
    return out


def _textbook_sub(x: int) -> int:
    inv, square = 1, x
    for bit in range(8):  # x^254 is x^-1 in GF(2^8), and maps 0 to 0
        if (254 >> bit) & 1:
            inv = _gmul(inv, square)
        square = _gmul(square, square)
    out = inv ^ 0x63  # the affine map: inv ^ rotl(inv, 1..4) ^ 0x63
    for i in range(1, 5):
        out ^= ((inv << i) | (inv >> (8 - i))) & 0xFF
    return out


TEXTBOOK_SBOX = [_textbook_sub(x) for x in range(256)]


def textbook_aes128(key: bytes, block: bytes) -> bytes:
    w = [list(key[i : i + 4]) for i in range(0, 16, 4)]
    rcon = 1
    for i in range(4, 44):
        t = list(w[i - 1])
        if i % 4 == 0:
            t = [TEXTBOOK_SBOX[b] for b in t[1:] + t[:1]]
            t[0] ^= rcon
            rcon = _gmul(rcon, 2)
        w.append([a ^ b for a, b in zip(w[i - 4], t)])
    state = [b ^ w[i // 4][i % 4] for i, b in enumerate(block)]
    for rnd in range(1, 11):
        state = [TEXTBOOK_SBOX[b] for b in state]
        state = [state[r + 4 * ((c + r) % 4)] for c in range(4) for r in range(4)]
        if rnd < 10:
            state = [
                _gmul(col[r], 2) ^ _gmul(col[(r + 1) % 4], 3) ^ col[(r + 2) % 4] ^ col[(r + 3) % 4]
                for col in (state[4 * c : 4 * c + 4] for c in range(4))
                for r in range(4)
            ]
        state = [b ^ w[4 * rnd + i // 4][i % 4] for i, b in enumerate(state)]
    return bytes(state)


def test_textbook_oracle_matches_fips197_and_sp800_38a():
    assert TEXTBOOK_SBOX == list(SBOX)
    fips_ct = textbook_aes128(bytes(range(16)), bytes.fromhex("00112233445566778899aabbccddeeff"))
    assert fips_ct.hex() == "69c4e0d86a7b0430d8cdb78070b4c55a"
    for i in range(0, 64, 16):
        assert textbook_aes128(SP800_38A_KEY, SP800_38A_PT[i : i + 16]) == SP800_38A_CT[i : i + 16]


@settings(max_examples=50, deadline=None)
@given(st.binary(min_size=16, max_size=16), st.binary(min_size=12, max_size=12),
       st.integers(min_value=0, max_value=5000))
def test_ctr_keystream_matches_textbook_oracle(key, nonce, length):
    blocks = b"".join(
        textbook_aes128(key, nonce + counter.to_bytes(4, "big"))
        for counter in range(-(-length // 16))
    )
    assert ctr_keystream(AES128(key), nonce, length) == blocks[:length]


@given(st.binary(min_size=16, max_size=16), st.binary(min_size=12, max_size=12),
       st.integers(min_value=0, max_value=100))
def test_ctr_keystream_is_concatenated_counter_blocks(key, nonce, length):
    cipher = AES128(key)
    blocks = b"".join(
        cipher.encrypt_block(nonce + counter.to_bytes(4, "big"))
        for counter in range(-(-length // 16))
    )
    assert ctr_keystream(cipher, nonce, length) == blocks[:length]


# -- the shared lane-key cache -------------------------------------------------
# Every cipher in the process shares one LRU of lane-filled round keys, keyed
# by (round keys, block count) and bounded in bytes; a hit must give the
# keystream a miss would.

#: Blocks whose 13 lane-filled integers (16 bytes a block each) alone
#: exceed the byte budget: such an entry is built, used and never kept.
OVER_BUDGET_BLOCKS = LANE_KEY_CACHE_BYTES // (13 * 16) + 1
CACHE_KEYS = (bytes(range(16)), bytes(range(100, 116)))


@functools.lru_cache(maxsize=None)
def _oracle_block(key: bytes, counter_block: bytes) -> bytes:
    return textbook_aes128(key, counter_block)


def _oracle_keystream(key: bytes, nonce: bytes, length: int) -> bytes:
    return b"".join(
        _oracle_block(key, nonce + counter.to_bytes(4, "big"))
        for counter in range(-(-length // 16))
    )[:length]


@settings(max_examples=15, deadline=None)
@given(
    st.binary(min_size=12, max_size=12),
    st.lists(
        st.tuples(st.sampled_from((0, 1)), st.sampled_from((1, 2, 3, 16, 17, 40, 64, 257)),
                  st.integers(min_value=0, max_value=15)),
        min_size=1, max_size=12,
    ),
)
@example(bytes(12), [(0, 257, 0), (1, 257, 3), (0, OVER_BUDGET_BLOCKS, 0), (1, 1, 0),
                     (0, 257, 0), (0, OVER_BUDGET_BLOCKS, 5)])
def test_interleaved_keys_and_block_counts_share_the_cache_soundly(nonce, calls):
    """Two keys and many block counts, interleaved through the one cache
    (each call on a fresh cipher, so only the cache carries state), match
    the textbook oracle on every call, hits and misses alike."""
    for which, blocks, short in calls:
        key = CACHE_KEYS[which]
        length = max(0, 16 * blocks - short)
        assert ctr_keystream(AES128(key), nonce, length) == _oracle_keystream(key, nonce, length)
        assert aes._LANE_KEYS.held <= LANE_KEY_CACHE_BYTES


def test_the_cache_never_holds_more_than_its_byte_budget():
    aes._LANE_KEYS.clear()
    cipher = AES128(CACHE_KEYS[0])
    held = []
    for blocks in range(1, 400, 7):
        cipher.encrypt_blocks(bytes(16 * blocks))
        held.append(aes._LANE_KEYS.held)
        assert 0 < held[-1] <= LANE_KEY_CACHE_BYTES
    # The budget was reached, so older entries were evicted to stay under it.
    assert len(aes._LANE_KEYS) < len(held)
    assert max(held) > LANE_KEY_CACHE_BYTES // 2
    aes._LANE_KEYS.clear()
    assert aes._LANE_KEYS.held == 0 and len(aes._LANE_KEYS) == 0


def test_an_entry_above_the_budget_is_built_used_and_not_kept():
    cipher = AES128(CACHE_KEYS[1])
    cipher.encrypt_blocks(bytes(16 * 4))
    entries, held = len(aes._LANE_KEYS), aes._LANE_KEYS.held
    nonce = bytes(range(12))
    length = 16 * OVER_BUDGET_BLOCKS
    assert ctr_keystream(cipher, nonce, length) == _oracle_keystream(CACHE_KEYS[1], nonce, length)
    assert (len(aes._LANE_KEYS), aes._LANE_KEYS.held) == (entries, held)


def test_two_threads_sealing_under_different_keys_and_sizes():
    """Two threads seal through the shared cache at once, each under its own
    key, cycling payload sizes that both hit and evict entries (one above the
    budget): every envelope equals the one sealed alone beforehand."""
    sizes = (1, 200, 1200, 4112, 7000, 16 * OVER_BUDGET_BLOCKS)
    nonce = bytes(range(12))
    jobs = []
    for worker, key_material in enumerate((b"thread-a", b"thread-b")):
        sealer = Channel(key_material)
        plain = [bytes((worker + i) & 0xFF for i in range(n)) for n in sizes]
        jobs.append((sealer, plain, [sealer.seal(p, nonce=nonce) for p in plain]))
    start, errors = threading.Barrier(2), []

    def hammer(worker):
        sealer, plain, expected = jobs[worker]
        start.wait()
        try:
            for i in range(3 * len(sizes)):
                j = (i + 2 * worker) % len(sizes)
                assert sealer.seal(plain[j], nonce=nonce) == expected[j]
                assert sealer.open(expected[j]) == plain[j]
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=hammer, args=(w,)) for w in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert aes._LANE_KEYS.held <= LANE_KEY_CACHE_BYTES
