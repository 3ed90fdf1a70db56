"""Join-query authentication (paper Section 6.2, Algorithm 4).

Equi-join ``R JOIN S ON R.o = S.o AND R.o in [alpha, beta]``: both tables
are indexed by AP2G-trees over the *same* key domain.  The SP walks R's
tree; a subtree of R can only contribute join results if the user can
access both the R side and the covering region of S, so:

* an inaccessible R node yields one APS entry (table "R");
* an accessible R node whose covering S node is inaccessible yields one
  APS entry for the S node (table "S") — pruning the whole R subtree;
* a surviving pair of accessible leaves yields the result pair with both
  APP signatures.

Completeness: the regions of all entries (both tables together) tile the
query range exactly.

The walk itself lives in :func:`repro.core.engine.traverse_join`; this
module is the adapter that validates inputs and materializes the tasks.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.core.app_signature import AppAuthenticator
from repro.core.engine import materialize, traverse_join
from repro.core.vo import VerificationObject
from repro.errors import WorkloadError
from repro.index.boxes import Box
from repro.index.gridtree import APGTree

TABLE_R = "R"
TABLE_S = "S"


def join_vo(
    tree_r: APGTree,
    tree_s: APGTree,
    authenticator: AppAuthenticator,
    query: Box,
    user_roles,
    rng: Optional[random.Random] = None,
    workers: int = 1,
) -> VerificationObject:
    """SP-side VO construction for an equi-join (Algorithm 4)."""
    if tree_r.domain != tree_s.domain:
        raise WorkloadError("join requires both tables indexed over the same domain")
    user_roles = authenticator.universe.validate_user_roles(user_roles)
    tasks = traverse_join(tree_r, tree_s, query, user_roles, TABLE_R, TABLE_S)
    return materialize(tasks, authenticator, user_roles, rng, workers)
