"""Batch verification of ABS signatures under span-program predicates.

A VO holds many signatures: APP signatures under each accessible
record's policy and APS signatures under the user's super policy
``OR(missing roles)``.  Checking them is the dominant user-side cost on
a real pairing backend.  Batch verification combines every verification
equation of every signature into one product of pairings with the
small-exponents technique (Bellare–Garay–Rabin, EUROCRYPT 1998): each
equation is raised to an independent random 64-bit exponent ``rho``
before multiplying, so one invalid equation unbalances the product
except with probability at most ``1 / (2^64 - 1)``.  The exponents come
from :mod:`secrets`, never from a caller's seeded generator, so whoever
built the signatures cannot predict them.

Span-program entries must be small integers (the insertion construction
gives 0 and ±1).  The combined check costs one final exponentiation for
the whole batch instead of one per pairing, plus each signature's shape
and ``Y != 1`` checks, which stay individual.

``batch_verify`` is probabilistic-complete: ``True`` means all
signatures are valid (up to the soundness error above); ``False`` means
at least one is invalid (callers fall back to per-signature
verification to locate it — see ``find_invalid``).  The soundness
argument, including why the merge needs the untrusted ``P_j`` in G2, is
in ``docs/SECURITY.md``.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass
from typing import Sequence

from repro.abs.keys import AbsVerificationKey
from repro.abs.scheme import AbsScheme, AbsSignature
from repro.policy.boolexpr import BoolExpr
from repro.policy.compiler.msp import get_msp

#: Bit length of the random batching exponents (soundness error 2^-64).
RHO_BITS = 64


@dataclass(frozen=True)
class BatchItem:
    """One signature to batch-verify: message, claim predicate, signature."""

    message: bytes
    policy: BoolExpr
    signature: AbsSignature


def draw_rho() -> int:
    """A uniform nonzero ``RHO_BITS``-bit batching exponent from the OS CSPRNG."""
    return secrets.randbelow((1 << RHO_BITS) - 1) + 1


def _equations(scheme: AbsScheme, item: BatchItem):
    """The item's span program, or ``None`` when its shape cannot verify."""
    sig = item.signature
    msp = get_msp(item.policy, scheme.group.order)
    if len(sig.s) != msp.n_rows or len(sig.p) != msp.n_cols or sig.y.is_identity:
        return None
    return msp


def _signed(entry: int, order: int) -> int:
    """A span-program entry stored mod ``order`` as a small signed integer."""
    return entry - order if entry > order // 2 else entry


def batch_verify(
    scheme: AbsScheme,
    mvk: AbsVerificationKey,
    items: Sequence[BatchItem],
) -> bool:
    """Verify all ``items`` with one combined pairing product.

    Item ``k`` contributes its key-binding equation
    ``e(W, A0) e(Y, h0)^-1 = 1`` raised to ``rho_k`` and each span-program
    column ``j``,
    ``prod_i e(S_i, A B^u(i))^(M_ij) e(Y, h)^-[j=0] e(C g^hash, P_j)^-1 = 1``,
    raised to ``rho_kj``.  Pairings sharing a fixed G2 argument (``A0``,
    ``h0``, ``h`` and each attribute base) merge by bilinearity into one
    pairing of a G1 multi-exponentiation.  Row ``i`` enters its attribute
    base's aggregate with exponent ``sum_j M_ij rho_kj``: its sign picks
    ``S_i`` or ``S_i^-1`` and its magnitude stays near 64 bits.  Only
    ``e((C g^hash)^(-rho_kj), P_j)`` remains per (item, column), because
    ``P_j`` varies per signature, so the Miller-loop count is
    ``3 + (distinct attributes) + (total columns)``.  The verified
    equation is the one :func:`batch_verify_unmerged` checks.
    """
    if not items:
        return True
    grp = scheme.group
    order = grp.order
    w_parts: list = []
    y_h0_parts: list = []
    key_rhos: list[int] = []
    y_h_parts: list = []
    first_col_rhos: list[int] = []
    by_attr: dict[str, tuple[list, list[int]]] = {}
    tail_pairs = []
    for item in items:
        msp = _equations(scheme, item)
        if msp is None:
            return False
        sig = item.signature
        rho = draw_rho()
        col_rhos = [draw_rho() for _ in range(msp.n_cols)]
        w_parts.append(sig.w)
        y_h0_parts.append(sig.y)
        key_rhos.append(rho)
        y_h_parts.append(sig.y)
        first_col_rhos.append(col_rhos[0])
        for s_i, label, row in zip(sig.s, msp.labels, msp.matrix):
            exponent = sum(_signed(m, order) * r for m, r in zip(row, col_rhos) if m)
            if exponent:
                bucket = by_attr.setdefault(label, ([], []))
                bucket[0].append(s_i if exponent > 0 else ~s_i)
                bucket[1].append(abs(exponent))
        neg_cg = ~scheme._message_base(mvk, sig.tau, item.message)
        for p_j, rho_j in zip(sig.p, col_rhos):
            tail_pairs.append((neg_cg**rho_j, p_j))
    pairs = [
        (grp.multi_pow(w_parts, key_rhos), mvk.a0_pub),
        (~grp.multi_pow(y_h0_parts, key_rhos), mvk.h0),
        (~grp.multi_pow(y_h_parts, first_col_rhos), mvk.h),
    ]
    for attr, (s_parts, attr_exps) in by_attr.items():
        pairs.append((grp.multi_pow(s_parts, attr_exps), mvk.attribute_base(attr)))
    pairs.extend(tail_pairs)
    return grp.multi_pair(pairs).is_identity


def batch_verify_unmerged(
    scheme: AbsScheme,
    mvk: AbsVerificationKey,
    items: Sequence[BatchItem],
) -> bool:
    """Reference small-exponents batch: one pairing per product term.

    Checks the same randomized equation as :func:`batch_verify` without
    merging shared-base pairings — kept as a test oracle and as the "old
    path" baseline for ``benchmarks/bench_crypto_ops.py``.
    """
    if not items:
        return True
    grp = scheme.group
    order = grp.order
    pairs = []
    for item in items:
        msp = _equations(scheme, item)
        if msp is None:
            return False
        sig = item.signature
        rho = draw_rho()
        pairs.append((sig.w**rho, mvk.a0_pub))
        pairs.append(((~sig.y) ** rho, mvk.h0))
        cg = scheme._message_base(mvk, sig.tau, item.message)
        for j, p_j in enumerate(sig.p):
            rho_j = draw_rho()
            for s_i, label, row in zip(sig.s, msp.labels, msp.matrix):
                exponent = _signed(row[j], order) * rho_j
                if exponent:
                    base = s_i if exponent > 0 else ~s_i
                    pairs.append((base ** abs(exponent), mvk.attribute_base(label)))
            pairs.append(((~cg) ** rho_j, p_j))
            if j == 0:
                pairs.append(((~sig.y) ** rho_j, mvk.h))
    return grp.multi_pair(pairs).is_identity


def find_invalid(
    scheme: AbsScheme,
    mvk: AbsVerificationKey,
    items: Sequence[BatchItem],
) -> list[int]:
    """Fallback: indexes of invalid signatures via individual verification."""
    return [
        i for i, item in enumerate(items)
        if not scheme.verify(mvk, item.message, item.policy, item.signature)
    ]


def verify_or_find_invalid(
    scheme: AbsScheme,
    mvk: AbsVerificationKey,
    items: Sequence[BatchItem],
) -> list[int]:
    """Fast merged batch, precise failure attribution.

    Returns ``[]`` when the whole batch verifies (one merged pairing
    product); otherwise falls back to per-signature verification and
    returns the indexes of every invalid item.  A batch failure always
    yields at least one index: should the individual re-checks all pass,
    the first item is blamed rather than letting a failed batch read as
    valid.  (Valid signatures whose ``P_j`` lie in G2 always pass the
    product, so that happens only for a ``P_j`` off the subgroup, which
    :func:`repro.core.verifier.settle` rejects before the product.)
    """
    if not items or batch_verify(scheme, mvk, items):
        return []
    return find_invalid(scheme, mvk, items) or [0]
