"""Experiment drivers regenerating every table and figure of the paper.

Each ``run_*`` function reproduces one table/figure of Section 10 or
Appendix E and returns an :class:`~repro.bench.report.ExperimentResult`
whose rows mirror the paper's reported series (who wins and by what
factor — absolute numbers differ, see EXPERIMENTS.md).

All functions take a ``backend`` so the real BN254 pairing can be used
for small configurations; defaults use the simulated group (DESIGN.md,
Substitution 2) to reach the paper's relative scales.
"""

from __future__ import annotations

import functools
import random
import time
from typing import Sequence

from repro.bench.harness import (
    QueryCost,
    Setup,
    average_costs,
    build_setup,
    measure_join,
    measure_range,
)
from repro.bench.report import ExperimentResult, kib, millis
from repro.core.app_signature import AppAuthenticator
from repro.core.records import Dataset, Record
from repro.core.system import DataOwner
from repro.crypto import get_backend
from repro.index.boxes import Box
from repro.index.duplicates import (
    DuplicateRecord,
    embedded_dataset,
    zero_knowledge_dataset,
)
from repro.index.kdtree import APKDTree
from repro.parallel import MakespanSimulator
from repro.policy.boolexpr import And, Attr, Or
from repro.policy.policygen import PolicyGenerator, user_roles_for_coverage
from repro.policy.roles import RoleUniverse
from repro.workload.queries import query_batch
from repro.workload.tpch import TpchConfig, TpchGenerator

DEFAULT_SHAPE = (64, 16, 16)
DEFAULT_FRACTIONS = (0.0003, 0.001, 0.003, 0.01)
DEFAULT_QUERIES = 5


# ---------------------------------------------------------------------------
# Table 1 — DO setup overhead
# ---------------------------------------------------------------------------

def run_table1(
    scales: Sequence[float] = (0.1, 0.3, 1, 3),
    shape: tuple[int, ...] = DEFAULT_SHAPE,
    backend: str = "simulated",
) -> ExperimentResult:
    result = ExperimentResult(
        exp_id="Table 1",
        title=f"DO setup overhead (AP2G-tree, {backend})",
        headers=[
            "scale", "records", "sign APPs (s)", "build index (s)",
            "index (KB)", "structure (KB)", "signatures (KB)",
        ],
        notes="index is full over the domain, so costs saturate with scale",
    )
    for scale in scales:
        setup = build_setup(scale=scale, shape=shape, backend=backend)
        stats = setup.tree.stats
        result.add_row(
            scale,
            stats.num_real_records,
            stats.sign_seconds,
            stats.sign_seconds + stats.structure_seconds,
            kib(stats.index_bytes),
            kib(stats.structure_bytes),
            kib(stats.signature_bytes),
        )
    return result


# ---------------------------------------------------------------------------
# Table 2 — equality query micro-benchmarks
# ---------------------------------------------------------------------------

def _policy_of_length(length: int, universe_roles: list[str]):
    """A DNF policy with exactly ``length`` attribute occurrences."""
    clauses = []
    i = 0
    remaining = length
    while remaining > 0:
        take = 2 if remaining >= 2 else 1
        attrs = [Attr(universe_roles[(i + k) % len(universe_roles)]) for k in range(take)]
        clauses.append(And.of(*attrs))
        i += take
        remaining -= take
    return Or.of(*clauses)


def run_table2(
    policy_lengths: Sequence[int] = (6, 24, 96, 384),
    predicate_lengths: Sequence[int] = (10, 20, 40, 80),
    backend: str = "simulated",
    repeats: int = 3,
) -> ExperimentResult:
    group = get_backend(backend)
    result = ExperimentResult(
        exp_id="Table 2",
        title=f"Equality query performance ({backend})",
        headers=[
            "max policy len", "user CPU (ms)", "VO (KB)",
            "| predicate len", "SP CPU (ms)", "user CPU (ms)", "VO (KB)",
        ],
        notes="left: accessible record; right: inaccessible record",
    )
    rng = random.Random(7)
    rows = max(len(policy_lengths), len(predicate_lengths))
    # Accessible side: cost ~ one ABS verify of the record policy.
    accessible_rows = []
    n_roles = max(policy_lengths) + 2
    roles = [f"Role{i}" for i in range(n_roles)]
    universe = RoleUniverse(roles)
    owner = DataOwner(group, universe, rng=rng)
    for length in policy_lengths:
        policy = _policy_of_length(length, roles)
        record = Record(key=(1,), value=b"payload", policy=policy)
        sig = owner.signer.sign_record(record, rng)
        auth = AppAuthenticator(group, universe, owner.mvk)
        t0 = time.perf_counter()
        for _ in range(repeats):
            assert auth.verify_record(record, sig)
        user_t = (time.perf_counter() - t0) / repeats
        from repro.core.vo import AccessibleRecordEntry

        entry = AccessibleRecordEntry(
            key=record.key, value=record.value, policy=policy, signature=sig
        )
        accessible_rows.append((length, millis(user_t), kib(entry.byte_size())))
    # Inaccessible side: cost ~ one ABS.Relax + one OR-predicate verify.
    inaccessible_rows = []
    for pred_len in predicate_lengths:
        # Universe sized so |A \ A| = pred_len for a user holding 2 roles.
        total = pred_len + 2  # includes the pseudo role
        roles = [f"Role{i}" for i in range(total - 1)]
        universe = RoleUniverse(roles)
        owner = DataOwner(group, universe, rng=rng)
        user_roles = frozenset(roles[-2:])
        policy = And.of(Attr(roles[0]), Attr(roles[1]))
        record = Record(key=(1,), value=b"payload", policy=policy)
        sig = owner.signer.sign_record(record, rng)
        auth = AppAuthenticator(group, universe, owner.mvk)
        missing = universe.missing_roles(user_roles)
        assert len(missing) == pred_len
        t0 = time.perf_counter()
        for _ in range(repeats):
            aps = auth.derive_record_aps(record, sig, user_roles, rng)
        sp_t = (time.perf_counter() - t0) / repeats
        t0 = time.perf_counter()
        for _ in range(repeats):
            assert auth.verify_inaccessible_record(
                record.key, record.value_hash(), user_roles, aps
            )
        user_t = (time.perf_counter() - t0) / repeats
        from repro.core.vo import InaccessibleRecordEntry

        entry = InaccessibleRecordEntry(
            key=record.key, value_hash=record.value_hash(), aps=aps
        )
        inaccessible_rows.append(
            (pred_len, millis(sp_t), millis(user_t), kib(entry.byte_size()))
        )
    for i in range(rows):
        acc = accessible_rows[i] if i < len(accessible_rows) else ("", "", "")
        inacc = inaccessible_rows[i] if i < len(inaccessible_rows) else ("", "", "", "")
        result.add_row(acc[0], acc[1], acc[2], inacc[0], inacc[1], inacc[2], inacc[3])
    return result


# ---------------------------------------------------------------------------
# Figures 7-10 — range queries
# ---------------------------------------------------------------------------

def _range_series(
    setup: Setup,
    fractions: Sequence[float],
    methods: Sequence[str],
    queries_per_point: int = DEFAULT_QUERIES,
) -> dict[tuple[float, str], QueryCost]:
    out = {}
    for fraction in fractions:
        boxes = query_batch(setup.domain, fraction, queries_per_point)
        for method in methods:
            costs = [measure_range(setup, box, method) for box in boxes]
            out[(fraction, method)] = average_costs(costs)
    return out


def run_fig7(
    fractions: Sequence[float] = DEFAULT_FRACTIONS,
    backend: str = "simulated",
    queries_per_point: int = DEFAULT_QUERIES,
) -> ExperimentResult:
    setup = build_setup(backend=backend)
    series = _range_series(setup, fractions, ("basic", "tree"), queries_per_point)
    result = ExperimentResult(
        exp_id="Figure 7",
        title="Range query vs. query range (Basic vs AP2G-tree)",
        headers=[
            "range %", "method", "SP CPU (ms)", "user CPU (ms)", "VO (KB)", "results",
        ],
    )
    for fraction in fractions:
        for method in ("basic", "tree"):
            cost = series[(fraction, method)]
            result.add_row(
                fraction * 100,
                "AP2G-tree" if method == "tree" else "Basic",
                millis(cost.sp_seconds),
                millis(cost.user_seconds),
                kib(cost.vo_bytes),
                cost.num_results,
            )
    return result


def run_fig8(
    scales: Sequence[float] = (0.1, 0.3, 1, 3),
    fraction: float = 0.001,
    backend: str = "simulated",
    queries_per_point: int = DEFAULT_QUERIES,
) -> ExperimentResult:
    result = ExperimentResult(
        exp_id="Figure 8",
        title="Range query vs. database scale (query range 0.1%)",
        headers=["scale", "method", "SP CPU (ms)", "user CPU (ms)", "VO (KB)"],
    )
    for scale in scales:
        setup = build_setup(scale=scale, backend=backend)
        series = _range_series(setup, [fraction], ("basic", "tree"), queries_per_point)
        for method in ("basic", "tree"):
            cost = series[(fraction, method)]
            result.add_row(
                scale,
                "AP2G-tree" if method == "tree" else "Basic",
                millis(cost.sp_seconds),
                millis(cost.user_seconds),
                kib(cost.vo_bytes),
            )
    return result


def run_fig9(
    policy_counts: Sequence[int] = (5, 10, 20, 40),
    fraction: float = 0.001,
    backend: str = "simulated",
    queries_per_point: int = DEFAULT_QUERIES,
) -> ExperimentResult:
    result = ExperimentResult(
        exp_id="Figure 9",
        title="Range query vs. number of distinct policies",
        headers=["policies", "SP CPU (ms)", "user CPU (ms)", "VO (KB)"],
        notes="performance is nearly flat in policy diversity (paper Fig. 9)",
    )
    for count in policy_counts:
        setup = build_setup(num_policies=count, backend=backend)
        series = _range_series(setup, [fraction], ("tree",), queries_per_point)
        cost = series[(fraction, "tree")]
        result.add_row(
            count, millis(cost.sp_seconds), millis(cost.user_seconds), kib(cost.vo_bytes)
        )
    return result


def run_fig10(
    configs: Sequence[tuple[int, int, int]] = ((10, 3, 2), (20, 4, 3), (40, 6, 4)),
    fraction: float = 0.001,
    backend: str = "simulated",
    queries_per_point: int = DEFAULT_QUERIES,
) -> ExperimentResult:
    """configs: (num_roles, max_or_fanin, max_and_fanin)."""
    result = ExperimentResult(
        exp_id="Figure 10",
        title="Range query vs. roles / max policy length",
        headers=["roles", "max len", "SP CPU (ms)", "user CPU (ms)", "VO (KB)"],
    )
    for num_roles, or_fanin, and_fanin in configs:
        setup = build_setup(
            num_roles=num_roles,
            max_or_fanin=or_fanin,
            max_and_fanin=and_fanin,
            backend=backend,
        )
        series = _range_series(setup, [fraction], ("tree",), queries_per_point)
        cost = series[(fraction, "tree")]
        result.add_row(
            num_roles,
            or_fanin * and_fanin,
            millis(cost.sp_seconds),
            millis(cost.user_seconds),
            kib(cost.vo_bytes),
        )
    return result


# ---------------------------------------------------------------------------
# Figure 11 — join queries
# ---------------------------------------------------------------------------

def run_fig11(
    fractions: Sequence[float] = (0.05, 0.1, 0.2, 0.4),
    backend: str = "simulated",
    queries_per_point: int = DEFAULT_QUERIES,
) -> ExperimentResult:
    setup = build_setup(backend=backend)
    gen = TpchGenerator(setup.config)
    orders, lineitem = gen.orders_lineitem_join(setup.workload)
    tree_r = setup.owner.build_tree(orders)
    tree_s = setup.owner.build_tree(lineitem)
    result = ExperimentResult(
        exp_id="Figure 11",
        title="Join query (Q12: Orders x Lineitem on orderkey)",
        headers=["range %", "method", "SP CPU (ms)", "user CPU (ms)", "VO (KB)", "pairs"],
    )
    for fraction in fractions:
        boxes = query_batch(orders.domain, fraction, queries_per_point)
        for method in ("basic", "tree"):
            costs = [
                measure_join(setup, tree_r, tree_s, box, method) for box in boxes
            ]
            cost = average_costs(costs)
            result.add_row(
                fraction * 100,
                "AP2G-tree" if method == "tree" else "Basic",
                millis(cost.sp_seconds),
                millis(cost.user_seconds),
                kib(cost.vo_bytes),
                cost.num_results,
            )
    return result


# ---------------------------------------------------------------------------
# Figure 12 — hierarchical role assignment
# ---------------------------------------------------------------------------

def run_fig12(
    fractions: Sequence[float] = DEFAULT_FRACTIONS,
    backend: str = "simulated",
    queries_per_point: int = DEFAULT_QUERIES,
    num_roles: int = 20,
) -> ExperimentResult:
    """A larger role universe (default 20) makes the inaccessible
    predicates dominate, as in the paper's setting where the reduction
    from 9 to 6 roles already paid off."""
    result = ExperimentResult(
        exp_id="Figure 12",
        title="Hierarchical role assignment (Section 8.1)",
        headers=[
            "range %", "variant", "SP CPU (ms)", "user CPU (ms)", "VO (KB)",
            "predicate len",
        ],
    )
    for hierarchical in (False, True):
        setup = build_setup(
            backend=backend,
            hierarchical=hierarchical,
            num_roles=num_roles,
            num_global_roles=4,
        )
        # The paper's premise (a "student of university B"): the user's
        # roles live under a single parent, so missing one global role
        # subsumes all of its children.
        hierarchy = setup.workload.hierarchy
        if hierarchy is not None:
            children_by_parent: dict[str, list[str]] = {}
            for child, parent in sorted(hierarchy.parents.items()):
                children_by_parent.setdefault(parent, []).append(child)
            group = max(children_by_parent.values(), key=len)
            base_roles = frozenset(group[:2])
            user_roles = hierarchy.close_user_roles(base_roles)
        else:
            user_roles = frozenset(sorted(
                r for r in setup.owner.universe.roles
                if r not in ("Role@null",)
            )[:2])
        setup = Setup(
            config=setup.config,
            workload=setup.workload,
            owner=setup.owner,
            authenticator=setup.authenticator,
            dataset=setup.dataset,
            tree=setup.tree,
            user_roles=user_roles,
            rng=setup.rng,
        )
        missing = setup.missing_roles()
        pred_len = (
            len(missing)
            if missing is not None
            else len(setup.owner.universe.missing_roles(setup.user_roles))
        )
        series = _range_series(setup, fractions, ("tree",), queries_per_point)
        for fraction in fractions:
            cost = series[(fraction, "tree")]
            result.add_row(
                fraction * 100,
                "hierarchical" if hierarchical else "flat",
                millis(cost.sp_seconds),
                millis(cost.user_seconds),
                kib(cost.vo_bytes),
                pred_len,
            )
    return result


# ---------------------------------------------------------------------------
# Figure 13 — acceleration by parallelism
# ---------------------------------------------------------------------------

def run_fig13(
    thread_counts: Sequence[int] = (1, 2, 4, 8, 16, 32),
    num_jobs: int = 24,
    backend: str = "bn254",
    predicate_len: int = 9,
) -> ExperimentResult:
    """Measured ABS.Relax job costs + simulated k-worker makespan.

    The paper's 24-hyper-thread blade server is reproduced by measuring
    real per-job costs and scheduling them on k simulated workers
    (DESIGN.md, Substitution 4), so the curve does not depend on how
    many CPUs the host has.
    """
    group = get_backend(backend)
    rng = random.Random(13)
    total = predicate_len + 2
    roles = [f"Role{i}" for i in range(total - 1)]
    universe = RoleUniverse(roles)
    owner = DataOwner(group, universe, rng=rng)
    user_roles = frozenset(roles[-2:])
    policy = And.of(Attr(roles[0]), Attr(roles[1]))
    auth = AppAuthenticator(group, universe, owner.mvk)
    jobs = []
    for i in range(num_jobs):
        record = Record(key=(i,), value=b"x%d" % i, policy=policy)
        sig = owner.signer.sign_record(record, rng)
        jobs.append((record, sig))
    costs = []
    for record, sig in jobs:
        t0 = time.perf_counter()
        auth.derive_record_aps(record, sig, user_roles, rng)
        costs.append(time.perf_counter() - t0)
    # Non-parallelizable fraction: traversal + VO assembly, assumed to be
    # a small constant fraction of total work (paper observes saturation
    # past 16 threads).
    serial_overhead = 0.05 * sum(costs)
    sim = MakespanSimulator(costs, serial_overhead=serial_overhead)
    result = ExperimentResult(
        exp_id="Figure 13",
        title=f"Parallel ABS.Relax ({num_jobs} jobs, backend={backend})",
        headers=["threads", "makespan (ms)", "speedup"],
        notes="measured per-job costs; k-worker makespan simulated, 5% serial share assumed",
    )
    for res in sim.sweep(thread_counts):
        result.add_row(res.workers, millis(res.makespan), res.speedup)
    return result


# ---------------------------------------------------------------------------
# Figure 14 — AP2kd-tree under relaxed confidentiality
# ---------------------------------------------------------------------------

def run_fig14(
    fractions: Sequence[float] = DEFAULT_FRACTIONS,
    backend: str = "simulated",
    queries_per_point: int = DEFAULT_QUERIES,
    scale: float = 0.01,
) -> ExperimentResult:
    """The AP2kd-tree targets sparse data with spatially coherent
    policies (the paper's Figure 14 premise: "if the records o10..o16
    share the same access policy"): policies are re-assigned per spatial
    block so the Algorithm 7 split can separate policy regions."""
    setup = build_setup(backend=backend, scale=scale)
    # Cluster policies spatially: one policy per coarse block.
    clustered = Dataset(setup.dataset.domain)
    policies = setup.workload.policies
    for record in setup.dataset:
        block = tuple(x // max(1, (hi + 2) // 3) for x, (lo, hi)
                      in zip(record.key, setup.dataset.domain.bounds))
        policy = policies[hash(block) % len(policies)]
        clustered.add(Record(key=record.key, value=record.value, policy=policy))
    setup = Setup(
        config=setup.config,
        workload=setup.workload,
        owner=setup.owner,
        authenticator=setup.authenticator,
        dataset=clustered,
        tree=setup.owner.build_tree(clustered),
        user_roles=setup.user_roles,
        rng=setup.rng,
    )
    kd_tree = APKDTree.build(setup.dataset, setup.owner.signer, setup.rng)
    result = ExperimentResult(
        exp_id="Figure 14",
        title="AP2kd-tree vs AP2G-tree (relaxed confidentiality)",
        headers=["range %", "index", "SP CPU (ms)", "user CPU (ms)", "VO (KB)"],
        notes=(
            f"index sizes: AP2G {kib(setup.tree.stats.index_bytes):.0f} KB, "
            f"AP2kd {kib(kd_tree.stats.index_bytes):.0f} KB"
        ),
    )
    for fraction in fractions:
        boxes = query_batch(setup.domain, fraction, queries_per_point)
        for name, tree in (("AP2G-tree", setup.tree), ("AP2kd-tree", kd_tree)):
            costs = [measure_range(setup, box, "tree", tree=tree) for box in boxes]
            cost = average_costs(costs)
            result.add_row(
                fraction * 100,
                name,
                millis(cost.sp_seconds),
                millis(cost.user_seconds),
                kib(cost.vo_bytes),
            )
    return result


# ---------------------------------------------------------------------------
# Figure 15 / Appendix E — duplicate records
# ---------------------------------------------------------------------------

def run_fig15(
    fractions: Sequence[float] = (0.001, 0.003, 0.01),
    backend: str = "simulated",
    queries_per_point: int = DEFAULT_QUERIES,
    duplication: int = 3,
) -> ExperimentResult:
    group = get_backend(backend)
    rng = random.Random(15)
    policy_gen = PolicyGenerator()
    workload = policy_gen.generate()
    config = TpchConfig(scale=0.3, shape=(16, 8, 8))
    base = TpchGenerator(config).lineitem(workload)
    # Duplicate each record up to `duplication` times with varying policies.
    dups = []
    for record in base:
        for d in range(1 + rng.randrange(duplication)):
            dups.append(
                DuplicateRecord(
                    key=record.key,
                    value=record.value + bytes([d]),
                    policy=workload.policies[(d * 7 + len(dups)) % len(workload.policies)],
                )
            )
    owner = DataOwner(group, workload.universe, rng=rng)
    zk_dataset, virtual = zero_knowledge_dataset(config.domain, dups, rng=rng)
    zk_tree = owner.build_tree(zk_dataset)
    nzk_dataset = embedded_dataset(config.domain, dups)
    nzk_tree = owner.build_tree(nzk_dataset)
    roles = user_roles_for_coverage(workload, 0.2)
    auth = AppAuthenticator(group, workload.universe, owner.mvk)
    result = ExperimentResult(
        exp_id="Figure 15",
        title="Duplicate records: ZK virtual dimension vs embedded (non-ZK)",
        headers=["range %", "variant", "SP CPU (ms)", "user CPU (ms)", "VO (KB)"],
        notes=(
            f"index sizes: ZK {kib(zk_tree.stats.index_bytes):.0f} KB "
            f"({zk_tree.stats.num_nodes} nodes), "
            f"non-ZK {kib(nzk_tree.stats.index_bytes):.0f} KB "
            f"({nzk_tree.stats.num_nodes} nodes)"
        ),
    )
    from repro.core.range_query import range_vo
    from repro.core.verifier import verify_vo

    for fraction in fractions:
        boxes = query_batch(config.domain, fraction, queries_per_point, seed=3)
        for name, tree, extend in (
            ("ZK AP2G", zk_tree, True),
            ("non-ZK AP2G", nzk_tree, False),
        ):
            agg = []
            for box in boxes:
                if extend:
                    lo, hi = virtual.extend_range(box.lo, box.hi)
                    qbox = Box(lo, hi)
                else:
                    qbox = box
                t0 = time.perf_counter()
                vo = range_vo(tree, auth, qbox, roles, rng)
                sp = time.perf_counter() - t0
                data = vo.to_bytes()
                t0 = time.perf_counter()
                verify_vo(vo, auth, qbox, roles)
                user = time.perf_counter() - t0
                agg.append(
                    QueryCost(
                        sp_seconds=sp,
                        user_seconds=user,
                        vo_bytes=len(data),
                        queries=1,
                    )
                )
            cost = average_costs(agg)
            result.add_row(
                fraction * 100,
                name,
                millis(cost.sp_seconds),
                millis(cost.user_seconds),
                kib(cost.vo_bytes),
            )
    return result


ALL_EXPERIMENTS = {
    "table1": run_table1,
    "table1_bn254": functools.partial(
        run_table1, scales=(0.1, 1), shape=(16, 4, 4), backend="bn254",
    ),
    "table2": run_table2,
    "table2_bn254": functools.partial(
        run_table2, policy_lengths=(6, 24, 96), predicate_lengths=(10, 20, 40),
        backend="bn254", repeats=1,
    ),
    "fig7": run_fig7,
    "fig8": run_fig8,
    "fig9": run_fig9,
    "fig10": run_fig10,
    "fig11": run_fig11,
    "fig12": run_fig12,
    "fig13": run_fig13,
    "fig14": run_fig14,
    "fig15": run_fig15,
}

# Ablation studies for DESIGN.md's called-out design choices.
from repro.bench.ablations import ABLATIONS as _ABLATIONS  # noqa: E402

ALL_EXPERIMENTS.update(_ABLATIONS)
