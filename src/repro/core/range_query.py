"""Range-query authentication (paper Section 6.1, Algorithm 3).

Two SP-side strategies are provided:

* :func:`range_vo` — the AP2G-tree breadth-first search: subtrees fully
  inside the range that the user cannot access at all are summarized by
  a *single* APS signature on the node's grid box;
* :func:`range_vo_basic` — the paper's baseline: run the equality-query
  protocol for every discrete key in the range (one APS per
  inaccessible/non-existent key).

Both produce VOs verified by :func:`repro.core.verifier.verify_vo` and
are thin adapters over the two-phase engine (:mod:`repro.core.engine`):
the crypto-free traversal emits proof tasks, the materializer derives
the APS signatures — optionally in parallel (``workers``).
"""

from __future__ import annotations

import random
from typing import Optional

from repro.core.app_signature import AppAuthenticator
from repro.core.engine import (
    materialize,
    traverse_range,
    traverse_range_basic,
)
from repro.core.vo import VerificationObject
from repro.errors import WorkloadError
from repro.index.boxes import Box, Point
from repro.index.gridtree import APGTree


def clip_query(tree: APGTree, lo: Point, hi: Point) -> Box:
    """Clip a query range to the indexed domain."""
    box = tree.domain.clip(tuple(lo), tuple(hi))
    if box is None:
        raise WorkloadError(f"query range {lo}..{hi} does not intersect the domain")
    return box


def range_vo(
    tree: APGTree,
    authenticator: AppAuthenticator,
    query: Box,
    user_roles,
    rng: Optional[random.Random] = None,
    table: str = "",
    workers: int = 1,
) -> VerificationObject:
    """SP-side VO construction via AP2G-tree search (Algorithm 3)."""
    user_roles = authenticator.universe.validate_user_roles(user_roles)
    tasks = traverse_range(tree, query, user_roles, table)
    return materialize(tasks, authenticator, user_roles, rng, workers)


def range_vo_basic(
    tree: APGTree,
    authenticator: AppAuthenticator,
    query: Box,
    user_roles,
    rng: Optional[random.Random] = None,
    table: str = "",
    workers: int = 1,
) -> VerificationObject:
    """Baseline: equality-query authentication repeated for every key.

    The user role set is validated once up front (not once per key).
    """
    user_roles = authenticator.universe.validate_user_roles(user_roles)
    tasks = traverse_range_basic(tree, query, user_roles, table)
    return materialize(tasks, authenticator, user_roles, rng, workers)
