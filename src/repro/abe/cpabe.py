"""Ciphertext-policy attribute-based encryption (CP-ABE).

The paper encrypts record contents and every verification object under
CP-ABE [Bethencourt-Sahai-Waters].  We implement the LSSS form of the
scheme (Waters' variant), which shares the monotone-span-program machinery
of :mod:`repro.policy.compiler.msp`, over the asymmetric pairing:

* ``Setup``  -> public key ``(g1, g1^a, e(g1, g2)^alpha)`` + master key
  ``(alpha, a)``; attributes hash into G1 via the random oracle H.
* ``KeyGen(S)`` -> ``K = g2^(alpha + a t)``, ``L = g2^t``,
  ``K_x = H(x)^t`` for each attribute x in S.
* ``Encrypt(m, Y)`` -> secret-share ``s`` across the MSP rows of Y:
  ``C~ = m * e(g1,g2)^(alpha s)``, ``C' = g1^s``,
  ``C_i = g1^(a lambda_i) * H(rho(i))^(-r_i)``, ``D_i = g2^(r_i)``.
* ``Decrypt`` -> recover ``e(g1,g2)^(alpha s)`` with the satisfying
  vector ``v`` of the user's attributes, as one multi-pairing
  ``e(C',K) * e(-prod C_i^(v_i), L) * prod e(-K_x^(v_i), D_i)``: k+2
  Miller loops for k used rows and a single final exponentiation.

``encapsulate``/``decapsulate`` expose the KEM form used by the hybrid
envelope (:mod:`repro.abe.hybrid`): the GT element itself is the key
material for AES.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Optional

from repro.codec import decode_frame, encode_bytes
from repro.crypto.group import G1, G2, GT, BilinearGroup, GroupElement
from repro.errors import AccessDeniedError, CryptoError
from repro.policy.boolexpr import BoolExpr, parse_policy
from repro.policy.compiler.msp import get_msp


@dataclass(frozen=True)
class CpAbePublicKey:
    group: BilinearGroup
    g1: GroupElement  # G1 generator used by the scheme
    g1_a: GroupElement  # g1^a
    e_gg_alpha: GroupElement  # e(g1, g2)^alpha in GT
    g2: GroupElement  # G2 generator (for D_i components)

    def hash_attribute(self, name: str) -> GroupElement:
        return self.group.hash_to_g1(b"cpabe-attr", name)


@dataclass(frozen=True)
class CpAbeMasterKey:
    alpha: int
    a: int


@dataclass(frozen=True)
class CpAbeKeyPair:
    public: CpAbePublicKey
    master: CpAbeMasterKey


@dataclass(frozen=True)
class CpAbeSecretKey:
    """Decryption key for an attribute set."""

    attrs: FrozenSet[str]
    k: GroupElement  # g2^(alpha + a t)
    l: GroupElement  # g2^t
    k_attr: Dict[str, GroupElement]  # H(x)^t


@dataclass(frozen=True)
class CpAbeCiphertext:
    """CP-ABE ciphertext; ``policy`` is carried alongside (it is public)."""

    policy: BoolExpr
    c_tilde: GroupElement | None  # m * e^(alpha s); None for KEM headers
    c_prime: GroupElement  # g1^s
    c_rows: tuple[GroupElement, ...]  # per MSP row, G1
    d_rows: tuple[GroupElement, ...]  # per MSP row, G2

    def byte_size(self) -> int:
        grp = self.c_prime.group
        size = grp.element_bytes(G1) * (1 + len(self.c_rows))
        size += grp.element_bytes(G2) * len(self.d_rows)
        if self.c_tilde is not None:
            size += grp.element_bytes(GT)
        return size

    def to_bytes(self) -> bytes:
        """Wire encoding: policy text, ``C~`` flag (and ``C~``), ``C'``,
        the row count, every ``C_i``, then every ``D_i``."""
        out = bytearray(encode_bytes(self.policy.to_string().encode()))
        out += b"\x01" if self.c_tilde is not None else b"\x00"
        if self.c_tilde is not None:
            out += self.c_tilde.to_bytes()
        out += self.c_prime.to_bytes()
        out += len(self.c_rows).to_bytes(2, "big")
        for row in self.c_rows:
            out += row.to_bytes()
        for row in self.d_rows:
            out += row.to_bytes()
        return bytes(out)

    @classmethod
    def from_bytes(cls, group: BilinearGroup, data: bytes) -> "CpAbeCiphertext":
        """Inverse of :meth:`to_bytes`; raises :class:`~repro.errors.DeserializationError`."""
        with decode_frame(data, "CP-ABE header") as reader:
            policy = parse_policy(reader.take_str())
            c_tilde = None
            if reader.take_bool("CP-ABE header flag"):
                c_tilde = reader.take_element(group, GT)
            c_prime = reader.take_element(group, G1)
            count = reader.take_int(2)
            c_rows = tuple(reader.take_element(group, G1) for _ in range(count))
            d_rows = tuple(reader.take_element(group, G2) for _ in range(count))
        return cls(policy=policy, c_tilde=c_tilde, c_prime=c_prime, c_rows=c_rows, d_rows=d_rows)


class CpAbeScheme:
    """CP-ABE over a bilinear-group backend."""

    def __init__(self, group: BilinearGroup):
        self.group = group

    def setup(self, rng: Optional[random.Random] = None) -> CpAbeKeyPair:
        grp = self.group
        alpha = grp.random_scalar(rng)
        a = grp.random_scalar(rng)
        g1 = grp.g1
        g2 = grp.g2
        public = CpAbePublicKey(
            group=grp,
            g1=g1,
            g1_a=g1**a,
            e_gg_alpha=grp.pair(g1, g2) ** alpha,
            g2=g2,
        )
        return CpAbeKeyPair(public=public, master=CpAbeMasterKey(alpha=alpha, a=a))

    def keygen(
        self,
        keys: CpAbeKeyPair,
        attrs: Iterable[str],
        rng: Optional[random.Random] = None,
    ) -> CpAbeSecretKey:
        grp = self.group
        attrs = frozenset(attrs)
        t = grp.random_scalar(rng)
        k = grp.g2 ** ((keys.master.alpha + keys.master.a * t) % grp.order)
        k_attr = {x: keys.public.hash_attribute(x) ** t for x in attrs}
        return CpAbeSecretKey(attrs=attrs, k=k, l=grp.g2**t, k_attr=k_attr)

    # ------------------------------------------------------------------
    def _share(
        self,
        pk: CpAbePublicKey,
        policy: BoolExpr,
        rng: Optional[random.Random],
    ) -> tuple[int, GroupElement, tuple[GroupElement, ...], tuple[GroupElement, ...]]:
        """Draw ``s`` and build ``C' = g1^s`` and the per-row ``C_i``, ``D_i``.

        ``g1``, ``g1^a``, ``g2`` and the attribute bases ``H(x)`` are fixed
        per public key, so their powers go through the group's fixed-base
        combs.
        """
        grp = self.group
        msp = get_msp(policy, grp.order)
        s = grp.random_scalar(rng)
        w = [s] + [grp.random_scalar(rng) for _ in range(msp.n_cols - 1)]
        c_rows = []
        d_rows = []
        for i, label in enumerate(msp.labels):
            lam = sum(msp.matrix[i][j] * w[j] for j in range(msp.n_cols)) % grp.order
            r_i = grp.random_scalar(rng)
            c_rows.append(
                grp.pow_fixed(pk.g1_a, lam) * grp.pow_fixed(pk.hash_attribute(label), -r_i)
            )
            d_rows.append(grp.pow_fixed(pk.g2, r_i))
        return s, grp.pow_fixed(pk.g1, s), tuple(c_rows), tuple(d_rows)

    def encrypt(
        self,
        pk: CpAbePublicKey,
        message: GroupElement,
        policy: BoolExpr,
        rng: Optional[random.Random] = None,
    ) -> CpAbeCiphertext:
        """Encrypt a GT element under ``policy``."""
        if message.kind != GT:
            raise CryptoError("CP-ABE encrypts GT elements; use the hybrid envelope for bytes")
        s, c_prime, c_rows, d_rows = self._share(pk, policy, rng)
        return CpAbeCiphertext(
            policy=policy,
            c_tilde=message * self.group.pow_fixed(pk.e_gg_alpha, s),
            c_prime=c_prime,
            c_rows=c_rows,
            d_rows=d_rows,
        )

    def encapsulate(
        self,
        pk: CpAbePublicKey,
        policy: BoolExpr,
        rng: Optional[random.Random] = None,
    ) -> tuple[bytes, CpAbeCiphertext]:
        """KEM: returns (key material bytes, header ciphertext)."""
        s, c_prime, c_rows, d_rows = self._share(pk, policy, rng)
        key = self.group.pow_fixed(pk.e_gg_alpha, s)
        header = CpAbeCiphertext(
            policy=policy, c_tilde=None, c_prime=c_prime, c_rows=c_rows, d_rows=d_rows
        )
        return key.to_bytes(), header

    # ------------------------------------------------------------------
    def _recover_blinding(self, sk: CpAbeSecretKey, ct: CpAbeCiphertext) -> GroupElement:
        grp = self.group
        msp = get_msp(ct.policy, grp.order)
        if len(ct.c_rows) != msp.n_rows or len(ct.d_rows) != msp.n_rows:
            raise CryptoError("ciphertext shape does not match its policy")
        v = msp.satisfying_vector(sk.attrs)
        if v is None:
            raise AccessDeniedError("attributes do not satisfy the ciphertext policy")
        # e(C',K) / prod_i (e(C_i,L) e(K_x,D_i))^{v_i} as one product of
        # k+2 Miller loops under one final exponentiation: every row pairs
        # with the same L, so the C_i^{v_i} fold into a single G1 point.
        # Negation replaces the exponent in the common case v_i = 1.
        folded = None
        row_pairs = []
        for i, label in enumerate(msp.labels):
            vi = v[i]
            if vi == 0:
                continue
            c_i = ct.c_rows[i] if vi == 1 else ct.c_rows[i] ** vi
            folded = c_i if folded is None else folded * c_i
            k_x = sk.k_attr[label]
            row_pairs.append((~k_x if vi == 1 else k_x ** -vi, ct.d_rows[i]))
        # e(g1,g2)^(alpha s)
        return grp.multi_pair([(ct.c_prime, sk.k), (~folded, sk.l), *row_pairs])

    def decrypt(self, sk: CpAbeSecretKey, ct: CpAbeCiphertext) -> GroupElement:
        """Decrypt a GT message; raises :class:`AccessDeniedError`."""
        if ct.c_tilde is None:
            raise CryptoError("KEM header has no embedded message; use decapsulate")
        return ct.c_tilde / self._recover_blinding(sk, ct)

    def decapsulate(self, sk: CpAbeSecretKey, header: CpAbeCiphertext) -> bytes:
        """Recover KEM key material; raises :class:`AccessDeniedError`."""
        return self._recover_blinding(sk, header).to_bytes()
