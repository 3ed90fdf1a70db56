"""Ablation benchmarks for the design choices DESIGN.md calls out."""

from repro.bench.ablations import (
    run_ablation_encryption,
    run_ablation_fanout,
    run_ablation_policy_simplification,
    run_ablation_verification,
)


def test_a1_policy_simplification(benchmark):
    result = benchmark.pedantic(
        lambda: run_ablation_policy_simplification(shape=(16, 8, 8)),
        rounds=1, iterations=1,
    )
    rows = {r[0]: r for r in result.rows}
    # Simplification shrinks both build time and root-policy size.
    assert rows["minimal DNF"][1] < rows["raw OR"][1]
    assert rows["minimal DNF"][3] < rows["raw OR"][3]


def test_a2_fanout(benchmark):
    result = benchmark.pedantic(
        lambda: run_ablation_fanout(shape=(32, 8, 8)), rounds=1, iterations=1
    )
    # Binary split builds more nodes (deeper tree).
    by_fanout = {r[1]: r for r in result.rows}
    assert by_fanout["binary"][2] > by_fanout["2^d-way"][2]


def test_a3_verification(benchmark):
    result = benchmark.pedantic(
        lambda: run_ablation_verification(predicate_lengths=(4, 8), repeats=1),
        rounds=1, iterations=1,
    )
    # Batched verification never loses on OR predicates.
    for row in result.rows:
        assert row[3] > 0.8  # within noise or faster


def test_a4_encryption(benchmark):
    result = benchmark.pedantic(
        lambda: run_ablation_encryption(shape=(32, 8, 8)), rounds=1, iterations=1
    )
    rows = [r for r in result.rows if r[0] == 1.0]
    plain = next(r for r in rows if r[1] == "plain")
    sealed = next(r for r in rows if r[1] == "sealed")
    assert sealed[2] > plain[2]  # encryption costs real time
    assert sealed[3] > plain[3]  # and bytes


def test_a5_aps_cache(benchmark):
    from repro.bench.ablations import run_ablation_aps_cache

    result = benchmark.pedantic(
        lambda: run_ablation_aps_cache(domain_size=8, repeats=2),
        rounds=1, iterations=1,
    )
    cached = [r for r in result.rows if r[0] == "cached"]
    # Second cached query must be far cheaper than the first.
    assert cached[1][2] < cached[0][2] / 5
    assert cached[1][3] >= 1  # hits recorded


def test_a6_updates(benchmark):
    from repro.bench.ablations import run_ablation_updates

    result = benchmark.pedantic(
        lambda: run_ablation_updates(shape=(16, 4, 4), num_updates=10),
        rounds=1, iterations=1,
    )
    rebuild = next(r for r in result.rows if r[0] == "full rebuild")
    per_upsert = next(r for r in result.rows if r[0] == "per upsert")
    # One upsert re-signs O(log n) nodes, orders below a full rebuild.
    assert per_upsert[2] < rebuild[2] / 20


def test_a7_batch_verify(benchmark):
    from repro.bench.ablations import run_ablation_batch_verify

    result = benchmark.pedantic(
        lambda: run_ablation_batch_verify(domain_size=8), rounds=1, iterations=1
    )
    assert result.rows[0][3] > 0.9  # batched never meaningfully loses
