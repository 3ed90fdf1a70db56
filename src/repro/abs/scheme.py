"""The ABS scheme with predicate relaxation (paper Section 5.2.2).

Derived from Practical Instantiation 4 of Maji-Prabhakaran-Rosulek,
instantiated over an asymmetric (Type-3) pairing:

* ``Setup``  — sample ``msk = (a0, a, b)`` and publish
  ``mvk = (g, h0, h, A0, A, B, C)``.
* ``KeyGen`` — per attribute set A:
  ``K_base``, ``K0 = K_base^(1/a0)``, ``K_u = K_base^(1/(a+b*u))``.
* ``Sign``   — convert the claim predicate to a monotone span program
  ``M`` (l x t) with row labels u(i), compute the satisfying vector v,
  sample ``tau, r0, r1..rl`` and output
  ``sigma = (tau, Y, W, S_1..S_l, P_1..P_t)``.
* ``Verify`` — check ``Y != 1``, ``e(W, A0) = e(Y, h0)`` and the t
  span-program equations.

Signature components Y, W, S_i live in G1; P_j in G2.  ABS.Relax is in
:mod:`repro.abs.relax`.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.abs.keys import (
    AbsKeyPair,
    AbsMasterSigningKey,
    AbsSigningKey,
    AbsVerificationKey,
    attribute_scalar,
)
from repro.crypto.field import mod_inv
from repro.crypto.group import G1, G2, BilinearGroup, GroupElement
from repro.errors import CryptoError, PolicyError
from repro.policy.boolexpr import BoolExpr
from repro.policy.compiler.msp import get_msp


@dataclass(frozen=True)
class AbsSignature:
    """An ABS signature ``(tau, Y, W, {S_i}, {P_j})``.

    The row order of ``s`` and the column order of ``p`` follow the
    canonical monotone span program of the claim predicate, so verifier
    and signer agree on indexing by construction.
    """

    tau: bytes
    y: GroupElement
    w: GroupElement
    s: tuple[GroupElement, ...]
    p: tuple[GroupElement, ...]

    def byte_size(self) -> int:
        """Serialized size in bytes (used for VO-size accounting)."""
        return (
            len(self.tau)
            + self.y.group.element_bytes(G1) * (2 + len(self.s))
            + self.y.group.element_bytes(G2) * len(self.p)
        )

    def to_bytes(self) -> bytes:
        out = bytearray()
        out += len(self.tau).to_bytes(2, "big") + self.tau
        out += len(self.s).to_bytes(2, "big")
        out += len(self.p).to_bytes(2, "big")
        out += self.y.to_bytes() + self.w.to_bytes()
        for si in self.s:
            out += si.to_bytes()
        for pj in self.p:
            out += pj.to_bytes()
        return bytes(out)

    @classmethod
    def from_bytes(cls, group: BilinearGroup, data: bytes) -> "AbsSignature":
        from repro.errors import DeserializationError

        try:
            off = 0
            tau_len = int.from_bytes(data[off : off + 2], "big")
            off += 2
            tau = data[off : off + tau_len]
            off += tau_len
            n_s = int.from_bytes(data[off : off + 2], "big")
            off += 2
            n_p = int.from_bytes(data[off : off + 2], "big")
            off += 2
            g1w = group.element_bytes(G1)
            g2w = group.element_bytes(G2)
            y = group.deserialize(G1, data[off : off + g1w])
            off += g1w
            w = group.deserialize(G1, data[off : off + g1w])
            off += g1w
            s = []
            for _ in range(n_s):
                s.append(group.deserialize(G1, data[off : off + g1w]))
                off += g1w
            p = []
            for _ in range(n_p):
                p.append(group.deserialize(G2, data[off : off + g2w]))
                off += g2w
            if off != len(data):
                raise DeserializationError("trailing bytes in ABS signature")
            return cls(tau=tau, y=y, w=w, s=tuple(s), p=tuple(p))
        except (IndexError, ValueError) as exc:
            raise DeserializationError(f"malformed ABS signature: {exc}") from exc


class AbsScheme:
    """ABS over a bilinear-group backend.

    All randomness flows through an optional ``rng`` (``random.Random``)
    so tests and benchmarks are reproducible; when omitted, the system
    RNG is used via :mod:`random`.
    """

    def __init__(self, group: BilinearGroup):
        self.group = group

    # ------------------------------------------------------------------
    def setup(self, rng: Optional[random.Random] = None) -> AbsKeyPair:
        """ABS.Setup: generate the master signing/verification keys."""
        grp = self.group
        a0 = grp.random_scalar(rng)
        a = grp.random_scalar(rng)
        b = grp.random_scalar(rng)
        g = grp.pow_fixed(grp.g1, grp.random_scalar(rng))
        c = grp.pow_fixed(grp.g1, grp.random_scalar(rng))
        h0 = grp.pow_fixed(grp.g2, grp.random_scalar(rng))
        h = grp.pow_fixed(grp.g2, grp.random_scalar(rng))
        mvk = AbsVerificationKey(
            group=grp,
            g=g,
            h0=h0,
            h=h,
            a0_pub=h0**a0,
            a_pub=h**a,
            b_pub=h**b,
            c=c,
        )
        return AbsKeyPair(msk=AbsMasterSigningKey(a0=a0, a=a, b=b), mvk=mvk)

    # ------------------------------------------------------------------
    def keygen(
        self,
        keys: AbsKeyPair,
        attrs: Iterable[str],
        rng: Optional[random.Random] = None,
    ) -> AbsSigningKey:
        """ABS.KeyGen: signing key for an attribute set."""
        grp = self.group
        attrs = frozenset(attrs)
        k_base = grp.pow_fixed(grp.g1, grp.random_scalar(rng))
        order = grp.order
        a0_inv = mod_inv(keys.msk.a0, order, "the scalar field")
        # k_base is exponentiated once per attribute plus once for K0 —
        # a fixed-base comb amortizes past two exponentiations.
        k_pow = grp.pow_fixed if len(attrs) >= 2 else (lambda b, e: b**e)
        k = {}
        for name in attrs:
            u = attribute_scalar(grp, name)
            denom = (keys.msk.a + keys.msk.b * u) % order
            if denom == 0:
                raise CryptoError(f"degenerate attribute encoding for {name!r}")
            k[name] = k_pow(k_base, mod_inv(denom, order, "the scalar field"))
        return AbsSigningKey(attrs=attrs, k_base=k_base, k0=k_pow(k_base, a0_inv), k=k)

    # ------------------------------------------------------------------
    def message_hash(self, tau: bytes, message: bytes) -> int:
        """The scheme's ``hash = hash(tau, m)`` in Z_r."""
        return self.group.hash_to_scalar(b"abs-message", tau, message)

    def _message_base(self, mvk: AbsVerificationKey, tau: bytes, message: bytes) -> GroupElement:
        """``C * g^hash`` — the G1 base binding the message.

        ``g`` is fixed for the lifetime of the mvk, so the
        exponentiation runs on its comb table.
        """
        return mvk.c * self.group.pow_fixed(mvk.g, self.message_hash(tau, message))

    def _message_base_powers(self, mvk: AbsVerificationKey, tau: bytes, message: bytes):
        """``e -> (C g^hash)^e``, the power oracle of the message base.

        ``C g^hash`` is fresh per signature (``tau`` is random), so its
        powers split as ``C^e * g^(hash * e)``: one multi-exponentiation,
        which runs as one shared scan of the two *persistent* combs of
        ``C`` and ``g`` once they are built.
        """
        grp = self.group
        h = self.message_hash(tau, message)
        order = grp.order
        return lambda e: grp.multi_pow((mvk.c, mvk.g), (e, h * e % order))

    # ------------------------------------------------------------------
    def sign(
        self,
        mvk: AbsVerificationKey,
        sk: AbsSigningKey,
        message: bytes,
        policy: BoolExpr,
        rng: Optional[random.Random] = None,
    ) -> AbsSignature:
        """ABS.Sign: sign ``message`` under claim predicate ``policy``.

        Requires ``policy(sk.attrs) = 1``.
        """
        grp = self.group
        msp = get_msp(policy, grp.order)
        v = msp.satisfying_vector(sk.attrs)
        if v is None:
            raise PolicyError("signing key attributes do not satisfy the claim predicate")
        tau = (rng.getrandbits(256).to_bytes(32, "big") if rng is not None else os.urandom(32))
        cg_pow = self._message_base_powers(mvk, tau, message)
        r0 = grp.random_scalar(rng)
        r = [grp.random_scalar(rng) for _ in range(msp.n_rows)]
        # K_base, K0, and K_u are fixed across every signature under this
        # key, so all three run on their prebuilt combs.
        y = grp.pow_fixed(sk.k_base, r0)
        w = grp.pow_fixed(sk.k0, r0)
        s = []
        for i, label in enumerate(msp.labels):
            si = cg_pow(r[i])
            if v[i] != 0:
                if label not in sk.k:
                    raise CryptoError(
                        f"satisfying vector uses attribute {label!r} missing from the key"
                    )
                si = grp.pow_fixed(sk.k[label], v[i] * r0 % grp.order) * si
            s.append(si)
        bases = [mvk.attribute_base(label) for label in msp.labels]
        p = []
        for j in range(msp.n_cols):
            col_bases = []
            col_exps = []
            for i in range(msp.n_rows):
                m_ij = msp.matrix[i][j]
                if m_ij == 0:
                    continue
                col_bases.append(bases[i])
                col_exps.append(m_ij * r[i] % grp.order)
            if not col_bases:
                p.append(grp.identity(G2))
            else:
                p.append(grp.multi_pow(col_bases, col_exps))
        return AbsSignature(tau=tau, y=y, w=w, s=tuple(s), p=tuple(p))

    # ------------------------------------------------------------------
    def verify(
        self,
        mvk: AbsVerificationKey,
        message: bytes,
        policy: BoolExpr,
        sig: AbsSignature,
    ) -> bool:
        """ABS.Verify: check a signature against a claim predicate."""
        grp = self.group
        msp = get_msp(policy, grp.order)
        if len(sig.s) != msp.n_rows or len(sig.p) != msp.n_cols:
            return False
        if sig.y.is_identity:
            return False
        if grp.pair(sig.w, mvk.a0_pub) != grp.pair(sig.y, mvk.h0):
            return False
        cg = self._message_base(mvk, sig.tau, message)
        # Pairings e(S_i, A*B^{u(i)}) computed once per row; span-program
        # entries are in {0, +-1} for the insertion construction, so the
        # column checks reduce to GT multiplications.
        row_pairings = [
            grp.pair(sig.s[i], mvk.attribute_base(label))
            for i, label in enumerate(msp.labels)
        ]
        e_y_h = grp.pair(sig.y, mvk.h)
        one = grp.identity("GT")
        order = grp.order
        for j in range(msp.n_cols):
            lhs = one
            for i in range(msp.n_rows):
                m_ij = msp.matrix[i][j]
                if m_ij == 0:
                    continue
                if m_ij == 1:
                    lhs = lhs * row_pairings[i]
                elif m_ij == order - 1:
                    lhs = lhs * ~row_pairings[i]
                else:
                    lhs = lhs * row_pairings[i] ** m_ij
            rhs = grp.pair(cg, sig.p[j])
            if j == 0:
                rhs = e_y_h * rhs
            if lhs != rhs:
                return False
        return True
