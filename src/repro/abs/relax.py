"""ABS.Relax — predicate relaxation (paper Algorithm 2).

Given a signature on message ``m`` under predicate Y and an attribute list
A', derive a signature on ``m`` under the *super* predicate
``Y' = OR(a for a in A')`` — without the signing key.  Succeeds iff
``Y(U \\ A') = 0`` (every satisfying set of Y intersects A'), which is
exactly when ``OR(A')`` is implied by Y.

The four steps of Algorithm 2:

1. *Purge* — the span-program tree walk (Algorithm 6, implemented in
   :meth:`repro.policy.compiler.msp.Msp.purge`) selects rows R (labels in A') and
   columns C (containing column 0) with ``M . 1_C = 1_R``; then
   ``P~_1 = prod_{j in C} P_j`` and ``S_i`` for ``i in R`` survive.
2. *Merge* — rows sharing an attribute label multiply together.
3. *Append* — attributes of A' absent from R get fresh components
   ``S = (C g^hash)^r`` balanced by ``P~_1 *= (A B^u)^r``.
4. *Re-randomize* — every group component is raised to a fresh scalar,
   making the output distribution identical to a direct signature on Y'
   (perfect privacy, Definition 7.1).
"""

from __future__ import annotations

import random
from typing import Iterable, Optional, Sequence

from repro.abs.keys import AbsVerificationKey
from repro.abs.scheme import AbsScheme, AbsSignature
from repro.crypto.group import G2
from repro.errors import RelaxationError
from repro.policy.boolexpr import BoolExpr, or_of_attrs
from repro.policy.compiler.msp import get_msp


def relax(
    scheme: AbsScheme,
    mvk: AbsVerificationKey,
    sig: AbsSignature,
    message: bytes,
    policy: BoolExpr,
    kept_attrs: Sequence[str],
    rng: Optional[random.Random] = None,
) -> tuple[AbsSignature, BoolExpr]:
    """Derive a signature under ``OR(kept_attrs)`` from ``sig`` on ``policy``.

    Returns ``(relaxed_signature, super_policy)``.  The order of
    ``kept_attrs`` fixes the row order of the new signature; verifiers
    must build the same OR predicate (``or_of_attrs(kept_attrs)``).

    Raises :class:`RelaxationError` when the relaxation condition fails —
    e.g. attempting to prove inaccessibility of a record the user can in
    fact access.
    """
    grp = scheme.group
    kept_list = list(kept_attrs)
    if len(set(kept_list)) != len(kept_list):
        raise RelaxationError("kept attribute list contains duplicates")
    msp = get_msp(policy, grp.order)
    if len(sig.s) != msp.n_rows or len(sig.p) != msp.n_cols:
        raise RelaxationError("signature shape does not match the predicate")
    # Step 1: purge.
    rows, cols = msp.purge(kept_list)
    p1 = grp.identity(G2)
    for j in cols:
        p1 = p1 * sig.p[j]
    # Steps 2 + 3: merge duplicates / append missing attributes.
    rows_by_label: dict[str, list[int]] = {}
    for i in rows:
        rows_by_label.setdefault(msp.labels[i], []).append(i)
    # Appended rows exponentiate the message base; the appended
    # attribute bases accumulate into P~_1 as one multi-exponentiation.
    cg_pow = scheme._message_base_powers(mvk, sig.tau, message)
    append_bases = []
    append_exps = []
    new_s = []
    for name in kept_list:
        merged = rows_by_label.pop(name, None)
        if merged:
            si = sig.s[merged[0]]
            for i in merged[1:]:
                si = si * sig.s[i]
        else:
            r = grp.random_scalar(rng)
            si = cg_pow(r)
            append_bases.append(mvk.attribute_base(name))
            append_exps.append(r)
        new_s.append(si)
    if append_bases:
        p1 = p1 * grp.multi_pow(append_bases, append_exps)
    if rows_by_label:
        # purge() guarantees kept-row labels are inside kept_attrs.
        raise RelaxationError(
            f"internal: purged rows outside kept attributes: {sorted(rows_by_label)}"
        )
    # Step 4: re-randomize.
    r = grp.random_scalar(rng)
    relaxed = AbsSignature(
        tau=sig.tau,
        y=sig.y**r,
        w=sig.w**r,
        s=tuple(si**r for si in new_s),
        p=(p1**r,),
    )
    return relaxed, or_of_attrs(kept_list)


def can_relax(policy: BoolExpr, universe: Iterable[str], kept_attrs: Iterable[str]) -> bool:
    """Relaxation feasibility check: ``policy(universe \\ kept) == 0``."""
    remaining = set(universe) - set(kept_attrs)
    return not policy.evaluate(remaining)
