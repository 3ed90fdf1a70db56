"""Equality-query authentication (paper Section 5, Algorithm 1).

The SP locates the unit-cell leaf for the query key (the AP2G-tree is
full, so one always exists — real or pseudo) and returns either:

* the record plus its APP signature (accessible), or
* ``hash(v)`` plus an APS signature derived with ABS.Relax under the
  user's super policy (inaccessible or non-existent — indistinguishable).

This module is a thin adapter over the two-phase engine
(:mod:`repro.core.engine`): phase 1 emits the proof task for the leaf,
phase 2 materializes it.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.core.app_signature import AppAuthenticator
from repro.core.engine import materialize, traverse_equality
from repro.core.vo import VerificationObject
from repro.index.boxes import Point
from repro.index.gridtree import APGTree


def equality_vo(
    tree: APGTree,
    authenticator: AppAuthenticator,
    key: Point,
    user_roles,
    rng: Optional[random.Random] = None,
    table: str = "",
    workers: int = 1,
) -> VerificationObject:
    """SP-side VO construction for an equality query (Algorithm 1)."""
    user_roles = authenticator.universe.validate_user_roles(user_roles)
    tasks = traverse_equality(tree, key, user_roles, table)
    return materialize(tasks, authenticator, user_roles, rng, workers)
