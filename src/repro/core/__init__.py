"""The paper's core: APP/APS signatures and authenticated query processing."""

from repro.core.aggregation import AggregateResult, authenticated_aggregate
from repro.core.app_signature import AppAuthenticator, AppSigner
from repro.core.freshness import FreshnessToken, issue_token, verify_token
from repro.core.inequality_join import (
    InequalityJoinPair,
    InequalityJoinVO,
    inequality_join_vo,
    verify_inequality_join_vo,
)
from repro.core.multiway_join import (
    MultiJoinResult,
    multiway_join_vo,
    verify_multiway_join_vo,
)
from repro.core.engine import (
    ProofTask,
    execute,
    materialize,
    traverse_equality,
    traverse_join,
    traverse_multiway_join,
    traverse_range,
    traverse_range_basic,
)
from repro.core.planner import (
    QueryPlan,
    plan_equality_query,
    plan_join_query,
    plan_multiway_join_query,
    plan_range_query,
    plan_tasks,
)
from repro.core.equality import equality_vo
from repro.core.join_query import TABLE_R, TABLE_S, join_vo
from repro.core.range_query import clip_query, range_vo, range_vo_basic
from repro.core.records import Dataset, Record, make_pseudo_record
from repro.core.system import (
    DataOwner,
    QueryResponse,
    QueryUser,
    ServiceProvider,
    UserCredentials,
)
from repro.core.verifier import JoinPair, verify_join_vo, verify_vo
from repro.core.vo import (
    AccessibleRecordEntry,
    InaccessibleNodeEntry,
    InaccessibleRecordEntry,
    VerificationObject,
)

__all__ = [
    "AggregateResult", "authenticated_aggregate",
    "AppAuthenticator", "AppSigner",
    "FreshnessToken", "issue_token", "verify_token",
    "InequalityJoinPair", "InequalityJoinVO", "inequality_join_vo",
    "verify_inequality_join_vo",
    "MultiJoinResult", "multiway_join_vo", "verify_multiway_join_vo",
    "ProofTask", "execute", "materialize",
    "traverse_equality", "traverse_join", "traverse_multiway_join",
    "traverse_range", "traverse_range_basic",
    "QueryPlan", "plan_equality_query", "plan_join_query",
    "plan_multiway_join_query", "plan_range_query", "plan_tasks",
    "equality_vo", "join_vo", "range_vo", "range_vo_basic", "clip_query",
    "TABLE_R", "TABLE_S",
    "Dataset", "Record", "make_pseudo_record",
    "DataOwner", "QueryResponse", "QueryUser", "ServiceProvider", "UserCredentials",
    "JoinPair", "verify_join_vo", "verify_vo",
    "AccessibleRecordEntry", "InaccessibleNodeEntry", "InaccessibleRecordEntry",
    "VerificationObject",
]
