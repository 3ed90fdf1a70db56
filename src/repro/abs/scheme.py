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
from repro.crypto.group import G1, G2, BilinearGroup, GroupElement, resolve_pickle_backend
from repro.errors import CryptoError, DeserializationError, PolicyError
from repro.policy.boolexpr import BoolExpr
from repro.policy.compiler.msp import get_msp


@dataclass(frozen=True, eq=False, repr=False)
class AbsSignature:
    """An ABS signature ``(tau, Y, W, {S_i}, {P_j})``.

    The row order of ``s`` and the column order of ``p`` follow the
    canonical monotone span program of the claim predicate, so verifier
    and signer agree on indexing by construction.

    One type, two constructors: ``AbsSignature(tau, y, w, s, p)`` from
    points, and :meth:`from_bytes` from the wire encoding.  Each form
    builds the other on first use and keeps it: a signature read off the
    wire decodes its G1/G2 points only when a check first reads one (a
    client whose verified-entry memo holds the entry never does), and a
    signature built from points encodes itself once, however often it
    is served.  Equality and hashing go by the wire bytes.
    """

    tau: bytes
    y: GroupElement
    w: GroupElement
    s: tuple[GroupElement, ...]
    p: tuple[GroupElement, ...]

    def __getattr__(self, name: str):
        # Reached only for attributes not set yet: the points of a
        # signature made by from_bytes, decoded together on first use.
        state = self.__dict__
        if name in ("y", "w", "s", "p") and "_encoding" in state:
            self._decode_points()
            return state[name]
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    def byte_size(self) -> int:
        """Serialized size in bytes (used for VO-size accounting)."""
        state = self.__dict__
        if "y" in state:
            group, n_s, n_p = self.y.group, len(self.s), len(self.p)
        else:
            group, (n_s, n_p) = state["_group"], state["_counts"]
        return len(self.tau) + group.element_bytes(G1) * (2 + n_s) + group.element_bytes(G2) * n_p

    def to_bytes(self) -> bytes:
        encoding = self.__dict__.get("_encoding")
        if encoding is None:
            out = bytearray()
            out += len(self.tau).to_bytes(2, "big") + self.tau
            out += len(self.s).to_bytes(2, "big")
            out += len(self.p).to_bytes(2, "big")
            out += self.y.to_bytes() + self.w.to_bytes()
            for si in self.s:
                out += si.to_bytes()
            for pj in self.p:
                out += pj.to_bytes()
            encoding = bytes(out)
            object.__setattr__(self, "_encoding", encoding)
        return encoding

    @classmethod
    def from_bytes(cls, group: BilinearGroup, data: bytes) -> "AbsSignature":
        """The signature with wire encoding ``data``; its points are decoded on first use.

        The layout (lengths and counts) is checked here; a point that does
        not decode raises :class:`~repro.errors.DeserializationError` when
        a point is first read.
        """
        data = bytes(data)
        if len(data) < 2:
            raise DeserializationError("malformed ABS signature: truncated tau length")
        off = 2 + int.from_bytes(data[:2], "big")
        if len(data) < off + 4:
            raise DeserializationError("malformed ABS signature: truncated header")
        n_s = int.from_bytes(data[off : off + 2], "big")
        n_p = int.from_bytes(data[off + 2 : off + 4], "big")
        size = off + 4 + group.element_bytes(G1) * (2 + n_s) + group.element_bytes(G2) * n_p
        if len(data) < size:
            raise DeserializationError("malformed ABS signature: truncated points")
        if len(data) != size:
            raise DeserializationError("trailing bytes in ABS signature")
        sig = object.__new__(cls)
        for name, value in (("tau", data[2:off]), ("_group", group),
                            ("_counts", (n_s, n_p)), ("_encoding", data)):
            object.__setattr__(sig, name, value)
        return sig

    def _decode_points(self) -> None:
        state = self.__dict__
        group, data, (n_s, n_p) = state["_group"], state["_encoding"], state["_counts"]
        g1w, g2w = group.element_bytes(G1), group.element_bytes(G2)
        off = 2 + len(self.tau) + 4
        try:
            g1 = [
                group.deserialize(G1, data[off + i * g1w : off + (i + 1) * g1w])
                for i in range(2 + n_s)
            ]
            off += g1w * (2 + n_s)
            p = tuple(
                group.deserialize(G2, data[off + j * g2w : off + (j + 1) * g2w])
                for j in range(n_p)
            )
        except (IndexError, ValueError) as exc:
            raise DeserializationError(f"malformed ABS signature: {exc}") from exc
        for name, value in (("y", g1[0]), ("w", g1[1]), ("s", tuple(g1[2:])), ("p", p)):
            object.__setattr__(self, name, value)

    def __reduce__(self):
        """Pickle as ``(backend name, wire bytes)``, like a group element."""
        group = self.__dict__.get("_group") or self.y.group
        return (_unpickle_signature, (group.name, self.to_bytes()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, AbsSignature):
            return NotImplemented
        return self.to_bytes() == other.to_bytes()

    def __hash__(self) -> int:
        return hash(self.to_bytes())

    def __repr__(self) -> str:
        return f"AbsSignature(tau={self.tau.hex()[:16]}..., {len(self.to_bytes())} bytes)"


def _unpickle_signature(name: str, data: bytes) -> AbsSignature:
    return AbsSignature.from_bytes(resolve_pickle_backend(name), data)


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
