"""Inequality-join authentication (paper Section 6.2 extension).

The paper notes its approach extends to inequality joins: "the user
verifies the soundness by the given results and their associated APP
signatures, and verifies the completeness by checking whether or not the
result set and the space represented by the APS signatures together
cover the whole query range."

We implement the 1-D band join
``R JOIN S ON S.o >= R.o AND R.o in [alpha, beta]``: every accessible
pair ``(r, s)`` with ``s.key >= r.key``.  The reduction is two range
proofs:

1. authenticate R over ``[alpha, beta]`` — this fixes the verified set
   of accessible R records;
2. authenticate S over ``[r_min, domain_max]`` where ``r_min`` is the
   smallest accessible R key (no S proof is needed when the R side is
   empty) — the verifier recomputes ``r_min`` itself from the verified
   R set, so the SP cannot shrink the S range;
3. the user forms the pairs locally from the two verified sets.

Both sub-proofs are ordinary Algorithm 3 VOs, so soundness/completeness
and zero-knowledge carry over unchanged; the join predicate itself is
applied on verified plaintext, costing nothing extra in proof size.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.core.app_signature import AppAuthenticator
from repro.core.range_query import range_vo
from repro.core.records import Record
from repro.core.verifier import collect_vo, settle
from repro.core.vo import VerificationObject
from repro.errors import CompletenessError, SoundnessError, WorkloadError
from repro.index.boxes import Box
from repro.index.gridtree import APGTree

TABLE_R = "R"
TABLE_S = "S"


@dataclass
class InequalityJoinVO:
    """Proof bundle: the R-side VO plus the (possibly absent) S-side VO."""

    query: Box
    r_vo: VerificationObject
    s_vo: Optional[VerificationObject]
    s_range: Optional[Box]

    def byte_size(self) -> int:
        total = self.r_vo.byte_size()
        if self.s_vo is not None:
            total += self.s_vo.byte_size()
        return total


def inequality_join_vo(
    tree_r: APGTree,
    tree_s: APGTree,
    authenticator: AppAuthenticator,
    query: Box,
    user_roles,
    rng: Optional[random.Random] = None,
) -> InequalityJoinVO:
    """SP side: prove ``{(r, s) : r in [alpha,beta], s.key >= r.key}``."""
    if tree_r.domain.dims != 1 or tree_s.domain.dims != 1:
        raise WorkloadError("inequality join is defined over 1-D key domains")
    if tree_r.domain != tree_s.domain:
        raise WorkloadError("inequality join requires a shared key domain")
    user_roles = authenticator.universe.validate_user_roles(user_roles)
    r_vo = range_vo(tree_r, authenticator, query, user_roles, rng, table=TABLE_R)
    accessible_keys = [entry.key[0] for entry in r_vo.accessible(TABLE_R)]
    if not accessible_keys:
        return InequalityJoinVO(query=query, r_vo=r_vo, s_vo=None, s_range=None)
    r_min = min(accessible_keys)
    s_range = Box((r_min,), (tree_s.domain.bounds[0][1],))
    s_vo = range_vo(tree_s, authenticator, s_range, user_roles, rng, table=TABLE_S)
    return InequalityJoinVO(query=query, r_vo=r_vo, s_vo=s_vo, s_range=s_range)


@dataclass(frozen=True)
class InequalityJoinPair:
    left: Record
    right: Record


def verify_inequality_join_vo(
    bundle: InequalityJoinVO,
    authenticator: AppAuthenticator,
    domain,
    user_roles,
    missing_roles=None,
) -> list[InequalityJoinPair]:
    """User side: verify both range proofs and form the band-join pairs.

    ``domain`` is the public key domain (a :class:`~repro.index.boxes.Domain`);
    the verifier recomputes the required S-side range from its *own*
    verified R results and the domain maximum — a shrunken or shifted S
    proof is rejected.
    """
    user_roles = authenticator.universe.validate_user_roles(user_roles)
    r_records, obligations = collect_vo(
        bundle.r_vo, authenticator, bundle.query, user_roles, missing_roles
    )
    if not r_records:
        if bundle.s_vo is not None:
            raise SoundnessError("S-side proof present despite an empty R side")
        settle(obligations, authenticator)
        return []
    r_min = min(record.key[0] for record in r_records)
    domain_max = domain.bounds[0][1]
    if bundle.s_vo is None or bundle.s_range is None:
        raise CompletenessError("missing S-side proof for a non-empty R side")
    if bundle.s_range != Box((r_min,), (domain_max,)):
        raise CompletenessError(
            f"S-side proof covers {bundle.s_range}, expected "
            f"[{r_min}..{domain_max}]"
        )
    s_records, s_obligations = collect_vo(
        bundle.s_vo, authenticator, bundle.s_range, user_roles, missing_roles
    )
    # Both proofs settle in one product; the S range above was derived
    # from R records whose signatures this settle checks.
    settle(obligations + s_obligations, authenticator)
    pairs = []
    for r in sorted(r_records, key=lambda rec: rec.key):
        for s in sorted(s_records, key=lambda rec: rec.key):
            if s.key[0] >= r.key[0]:
                pairs.append(InequalityJoinPair(left=r, right=s))
    return pairs
