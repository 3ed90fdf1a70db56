"""Ablation experiments for the design choices DESIGN.md calls out.

* **A1 — node-policy minimal-DNF simplification.**  Node policies are the
  OR of child policies; without re-minimization, span programs grow with
  subtree size instead of with the number of distinct policies, blowing
  up signing, relaxation, and index size.
* **A2 — grid fanout.**  2^d-way splits (the default, one level per grid
  resolution) versus binary widest-dimension splits (deeper tree, more
  summary levels).
* **A3 — ABS verification strategy.**  Naive per-pairing verification
  versus the batched product-of-pairings form with one shared final
  exponentiation per equation (only meaningful on the real BN254
  backend).
* **A4 — response encryption.**  The paper excludes CP-ABE/AES wrapping
  from its measurements; this ablation quantifies what that exclusion
  hides.  Every sealed query is priced as a KEM cache miss, the paper's
  fresh per-response seal.
"""

from __future__ import annotations

import random
import time
from typing import Sequence

from repro.bench.harness import average_costs, build_setup, measure_range
from repro.bench.report import ExperimentResult, kib, millis
from repro.core.app_signature import AppAuthenticator
from repro.core.records import Record
from repro.core.system import DataOwner
from repro.crypto import get_backend
from repro.index.gridtree import APGTree
from repro.policy.boolexpr import And, Attr
from repro.policy.policygen import PolicyGenerator
from repro.policy.roles import RoleUniverse
from repro.workload.queries import query_batch
from repro.workload.tpch import TpchConfig, TpchGenerator


def run_ablation_policy_simplification(
    shape: tuple[int, ...] = (16, 8, 8),
    backend: str = "simulated",
) -> ExperimentResult:
    """A1: minimal-DNF node policies on/off."""
    rng = random.Random(41)
    group = get_backend(backend)
    workload = PolicyGenerator(seed=41).generate()
    dataset = TpchGenerator(TpchConfig(scale=0.3, shape=shape, seed=41)).lineitem(workload)
    owner = DataOwner(group, workload.universe, rng=rng)
    result = ExperimentResult(
        exp_id="Ablation A1",
        title="Node-policy minimal-DNF simplification",
        headers=["variant", "build (s)", "index (KB)", "root policy len", "range SP (ms)"],
    )
    auth = AppAuthenticator(group, workload.universe, owner.mvk)
    from repro.core.range_query import range_vo

    for simplify in (True, False):
        t0 = time.perf_counter()
        tree = APGTree.build(dataset, owner.signer, rng, simplify_policies=simplify)
        build_s = time.perf_counter() - t0
        boxes = query_batch(dataset.domain, 0.01, 3)
        t0 = time.perf_counter()
        for box in boxes:
            range_vo(tree, auth, box, frozenset(), rng)
        sp_ms = millis((time.perf_counter() - t0) / len(boxes))
        result.add_row(
            "minimal DNF" if simplify else "raw OR",
            build_s,
            kib(tree.stats.index_bytes),
            tree.root.policy.num_leaves(),
            sp_ms,
        )
    return result


def run_ablation_fanout(
    shape: tuple[int, ...] = (32, 8, 8),
    backend: str = "simulated",
    fractions: Sequence[float] = (0.001, 0.01),
    queries_per_point: int = 3,
) -> ExperimentResult:
    """A2: 2^d-way grid splits vs binary widest-dimension splits."""
    setup = build_setup(shape=shape, backend=backend)
    binary_tree = APGTree.build(
        setup.dataset, setup.owner.signer, setup.rng, binary_split=True
    )
    result = ExperimentResult(
        exp_id="Ablation A2",
        title="Grid fanout: 2^d-way vs binary splits",
        headers=["range %", "fanout", "nodes", "SP CPU (ms)", "user CPU (ms)", "VO (KB)"],
    )
    for fraction in fractions:
        boxes = query_batch(setup.domain, fraction, queries_per_point)
        for name, tree in (("2^d-way", setup.tree), ("binary", binary_tree)):
            costs = [measure_range(setup, box, "tree", tree=tree) for box in boxes]
            cost = average_costs(costs)
            result.add_row(
                fraction * 100,
                name,
                tree.stats.num_nodes,
                millis(cost.sp_seconds),
                millis(cost.user_seconds),
                kib(cost.vo_bytes),
            )
    return result


def run_ablation_verification(
    predicate_lengths: Sequence[int] = (4, 8, 16),
    backend: str = "bn254",
    repeats: int = 2,
) -> ExperimentResult:
    """A3: naive vs batched (one merged pairing product) verification."""
    group = get_backend(backend)
    rng = random.Random(43)
    from repro.abs.batch import BatchItem, batch_verify, find_invalid
    from repro.abs.scheme import AbsScheme
    from repro.policy.boolexpr import or_of_attrs

    scheme = AbsScheme(group)
    keys = scheme.setup(rng)
    result = ExperimentResult(
        exp_id="Ablation A3",
        title=f"ABS verification: naive vs batched pairings ({backend})",
        headers=["predicate len", "naive (ms)", "batched (ms)", "speedup"],
    )
    for n in predicate_lengths:
        roles = [f"R{i}" for i in range(n)]
        sk = scheme.keygen(keys, roles, rng)
        policy = or_of_attrs(roles)
        item = BatchItem(b"m", policy, scheme.sign(keys.mvk, sk, b"m", policy, rng))
        t0 = time.perf_counter()
        for _ in range(repeats):
            assert not find_invalid(scheme, keys.mvk, [item])
        naive = (time.perf_counter() - t0) / repeats
        t0 = time.perf_counter()
        for _ in range(repeats):
            assert batch_verify(scheme, keys.mvk, [item])
        batched = (time.perf_counter() - t0) / repeats
        result.add_row(n, millis(naive), millis(batched), naive / batched)
    return result


def run_ablation_encryption(
    shape: tuple[int, ...] = (32, 8, 8),
    backend: str = "simulated",
    fractions: Sequence[float] = (0.001, 0.01),
    queries_per_point: int = 3,
) -> ExperimentResult:
    """A4: cost of the CP-ABE + AES response wrapping the paper excludes."""
    setup = build_setup(shape=shape, backend=backend)
    from repro.core.system import ServiceProvider

    sp = ServiceProvider(
        group=setup.authenticator.group,
        universe=setup.owner.universe,
        mvk=setup.owner.mvk,
        cpabe_public=setup.owner.cpabe_public,
        trees={"T": setup.tree},
        # No APS cache: the arm that ran first would pay every ABS.Relax
        # and the other would hit its cache, so A4 would time cache warmth.
        aps_cache_size=0,
    )
    result = ExperimentResult(
        exp_id="Ablation A4",
        title="Response encryption overhead (CP-ABE KEM + AES)",
        headers=["range %", "variant", "SP total (ms)", "response (KB)"],
    )
    for fraction in fractions:
        boxes = query_batch(setup.domain, fraction, queries_per_point)
        for encrypt in (False, True):
            times = []
            sizes = []
            for box in boxes:
                # Price the paper's per-response seal: a KEM cache miss.
                sp._kem_cache.clear()
                t0 = time.perf_counter()
                resp = sp.range_query(
                    "T", box.lo, box.hi, setup.user_roles, encrypt=encrypt, rng=setup.rng
                )
                times.append(time.perf_counter() - t0)
                sizes.append(resp.byte_size())
            result.add_row(
                fraction * 100,
                "sealed" if encrypt else "plain",
                millis(sum(times) / len(times)),
                kib(sum(sizes) / len(sizes)),
            )
    return result


def run_ablation_aps_cache(
    backend: str = "bn254",
    domain_size: int = 8,
    repeats: int = 3,
) -> ExperimentResult:
    """A5: SP-side APS caching for repeated queries (same user/range).

    Real deployments see repeated queries; the APS for a (node, role-set)
    pair is reusable, turning repeat relaxations into dictionary hits.
    Measured on the real pairing backend where ABS.Relax dominates.
    """
    import random as _random

    from repro.core.range_query import clip_query, range_vo
    from repro.core.records import Dataset, Record
    from repro.index.boxes import Domain

    rng = _random.Random(45)
    group = get_backend(backend)
    universe = RoleUniverse(["RoleA", "RoleB"])
    owner = DataOwner(group, universe, rng=rng)
    ds = Dataset(Domain.of((0, domain_size - 1)))
    ds.add(Record((1,), b"a", And.of(Attr("RoleA"), Attr("RoleB"))))
    ds.add(Record((domain_size - 2,), b"b", Attr("RoleB")))
    tree = owner.build_tree(ds)
    roles = frozenset({"RoleA"})
    query = clip_query(tree, (0,), (domain_size - 1,))
    result = ExperimentResult(
        exp_id="Ablation A5",
        title=f"SP-side APS cache for repeated queries ({backend})",
        headers=["variant", "query #", "SP CPU (ms)", "cache hits"],
    )
    for cached in (False, True):
        auth = AppAuthenticator(group, universe, owner.mvk)
        if cached:
            auth.enable_aps_cache()
        for i in range(repeats):
            t0 = time.perf_counter()
            range_vo(tree, auth, query, roles, rng)
            elapsed = time.perf_counter() - t0
            result.add_row(
                "cached" if cached else "uncached",
                i + 1,
                millis(elapsed),
                auth.aps_cache_hits if cached else 0,
            )
    return result


def run_ablation_updates(
    shape: tuple[int, ...] = (32, 8, 8),
    backend: str = "simulated",
    num_updates: int = 20,
) -> ExperimentResult:
    """A6: incremental updates vs full rebuild.

    An upsert re-signs one root-to-leaf path — O(log domain) signatures —
    versus re-signing the entire tree.
    """
    import random as _random

    from repro.core.records import Record
    from repro.index.updates import upsert

    setup = build_setup(shape=shape, backend=backend)
    rng = _random.Random(46)
    policies = setup.workload.policies
    t0 = time.perf_counter()
    rebuilt = APGTree.build(setup.dataset, setup.owner.signer, setup.rng)
    rebuild_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    resigned = 0
    box = setup.domain.box
    for i in range(num_updates):
        key = tuple(rng.randint(box.lo[d], box.hi[d]) for d in range(setup.domain.dims))
        receipt = upsert(
            setup.tree,
            setup.owner.signer,
            Record(key, b"updated-%d" % i, policies[i % len(policies)]),
            rng,
        )
        resigned += receipt.resigned_nodes
    update_s = time.perf_counter() - t0
    result = ExperimentResult(
        exp_id="Ablation A6",
        title="Incremental updates vs full rebuild",
        headers=["operation", "time (s)", "signatures"],
        notes=f"domain {setup.domain.size()} cells, {num_updates} upserts",
    )
    result.add_row("full rebuild", rebuild_s, rebuilt.stats.num_nodes)
    result.add_row(f"{num_updates} upserts", update_s, resigned)
    result.add_row("per upsert", update_s / num_updates, resigned / num_updates)
    return result


def run_ablation_batch_verify(
    backend: str = "bn254",
    domain_size: int = 16,
) -> ExperimentResult:
    """A7: per-entry ABS.Verify over a VO vs :func:`verify_vo`'s one product."""
    import random as _random

    from repro.abs.batch import find_invalid
    from repro.core.range_query import clip_query, range_vo
    from repro.core.records import Dataset, Record
    from repro.core.verifier import collect_vo, verify_vo
    from repro.index.boxes import Domain

    rng = _random.Random(47)
    group = get_backend(backend)
    universe = RoleUniverse(["RoleA", "RoleB"])
    owner = DataOwner(group, universe, rng=rng)
    ds = Dataset(Domain.of((0, domain_size - 1)))
    # Alternate accessible/inaccessible records so the inaccessible space
    # fragments into many leaf-level APS entries (the batch's payload).
    for key in range(domain_size):
        policy = Attr("RoleA") if key % 2 == 0 else Attr("RoleB")
        ds.add(Record((key,), b"row-%d" % key, policy))
    tree = owner.build_tree(ds)
    auth = AppAuthenticator(group, universe, owner.mvk)
    roles = frozenset({"RoleA"})
    query = clip_query(tree, (0,), (domain_size - 1,))
    vo = range_vo(tree, auth, query, roles, rng)
    n_aps = sum(1 for e in vo if not hasattr(e, "value"))
    t0 = time.perf_counter()
    _records, obligations = collect_vo(vo, auth, query, roles)
    assert not find_invalid(auth.scheme, auth.mvk, obligations)
    naive = time.perf_counter() - t0
    t0 = time.perf_counter()
    verify_vo(vo, auth, query, roles)
    batched = time.perf_counter() - t0
    result = ExperimentResult(
        exp_id="Ablation A7",
        title=f"User verification: per-entry vs one merged product ({backend})",
        headers=["APS entries", "naive (ms)", "batched (ms)", "speedup"],
    )
    result.add_row(n_aps, millis(naive), millis(batched), naive / batched)
    return result


ABLATIONS = {
    "ablation_a1_simplify": run_ablation_policy_simplification,
    "ablation_a2_fanout": run_ablation_fanout,
    "ablation_a3_verify": run_ablation_verification,
    "ablation_a4_encryption": run_ablation_encryption,
    "ablation_a5_aps_cache": run_ablation_aps_cache,
    "ablation_a6_updates": run_ablation_updates,
    "ablation_a7_batch_verify": run_ablation_batch_verify,
}
