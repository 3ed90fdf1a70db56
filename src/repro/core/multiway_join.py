"""Multi-way equi-join authentication (paper Section 6.2 extension).

The paper notes Algorithm 4 "can be easily extended to support more
general join queries, such as multi-way join": an accessible region of
the driver table contributes k-way results only if *every* joined table's
covering region is accessible too, so a single APS from whichever table
blocks first prunes the whole region.

``multiway_join_vo`` generalizes :func:`repro.core.join_query.join_vo` to
``k >= 2`` tables sharing a key domain:

* the first table drives the traversal;
* for each driver node inside the range, the other tables' smallest
  covering nodes are checked in order — the first inaccessible one
  contributes its APS (tagged with that table's name) and prunes;
* a surviving leaf yields one result entry per table.

Completeness: driver-result points plus every inaccessible region (any
table) tile the query range.

The walk lives in :func:`repro.core.engine.traverse_multiway_join`; this
module validates the table list and materializes the tasks, and hosts
the k-way verifier.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.app_signature import AppAuthenticator
from repro.core.engine import materialize, traverse_multiway_join
from repro.core.records import Record
from repro.core.verifier import collect_entries, settle
from repro.core.vo import AccessibleRecordEntry, VerificationObject
from repro.errors import CompletenessError, SoundnessError, WorkloadError
from repro.index.boxes import Box, boxes_cover_clipped
from repro.index.gridtree import APGTree


def multiway_join_vo(
    trees: Sequence[tuple[str, APGTree]],
    authenticator: AppAuthenticator,
    query: Box,
    user_roles,
    rng: Optional[random.Random] = None,
    workers: int = 1,
) -> VerificationObject:
    """SP-side VO for a k-way equi-join over a shared key domain.

    ``trees`` is an ordered list of ``(table_name, tree)``; the first
    table drives the traversal.  Table names must be distinct.
    """
    if len(trees) < 2:
        raise WorkloadError("multi-way join needs at least two tables")
    names = [name for name, _ in trees]
    if len(set(names)) != len(names):
        raise WorkloadError("join table names must be distinct")
    domain = trees[0][1].domain
    if any(tree.domain != domain for _, tree in trees):
        raise WorkloadError("all joined tables must share the key domain")
    user_roles = authenticator.universe.validate_user_roles(user_roles)
    tasks = traverse_multiway_join(trees, query, user_roles)
    return materialize(tasks, authenticator, user_roles, rng, workers)


@dataclass(frozen=True)
class MultiJoinResult:
    """One verified k-way join result: key plus one record per table."""

    key: tuple
    records: tuple[Record, ...]


def verify_multiway_join_vo(
    vo: VerificationObject,
    authenticator: AppAuthenticator,
    query: Box,
    user_roles,
    table_names: Sequence[str],
    missing_roles=None,
) -> list[MultiJoinResult]:
    """User-side verification of a k-way join VO.

    Soundness: all signatures valid; each driver result has exactly one
    matching result per joined table.  Completeness: driver results plus
    all inaccessible regions tile the query range.
    """
    if len(table_names) < 2:
        raise WorkloadError("multi-way join needs at least two tables")
    user_roles = authenticator.universe.validate_user_roles(user_roles)
    driver = table_names[0]
    access: dict[str, dict] = {name: {} for name in table_names}
    coverage: list[Box] = []
    for entry in vo:
        if isinstance(entry, AccessibleRecordEntry):
            if entry.table not in access:
                raise SoundnessError(f"unexpected table tag {entry.table!r}")
            bucket = access[entry.table]
            if entry.key in bucket:
                raise SoundnessError(
                    f"duplicate result for key {entry.key} in {entry.table}"
                )
            bucket[entry.key] = entry
            if entry.table == driver:
                coverage.append(entry.region)
        else:
            coverage.append(entry.region)
    driver_keys = set(access[driver])
    for name in table_names[1:]:
        if set(access[name]) != driver_keys:
            raise SoundnessError(f"results of table {name!r} do not pair with the driver")
    if not boxes_cover_clipped(coverage, query):
        raise CompletenessError("multi-way join VO does not tile the query range")
    accessible, obligations = collect_entries(
        vo, authenticator, query, user_roles, missing_roles
    )
    settle(obligations, authenticator)
    verified = {(entry.table, entry.key): record for entry, record in accessible}
    results = []
    for key in sorted(driver_keys):
        results.append(
            MultiJoinResult(
                key=key,
                records=tuple(verified[(name, key)] for name in table_names),
            )
        )
    return results
