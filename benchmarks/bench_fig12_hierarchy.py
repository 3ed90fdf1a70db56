"""Figure 12 — impact of hierarchical role assignment (Section 8.1)."""

from repro.bench.experiments import run_fig12


def test_fig12_report(benchmark):
    result = benchmark.pedantic(
        lambda: run_fig12(fractions=(0.001, 0.01), queries_per_point=3),
        rounds=1, iterations=1,
    )
    # The hierarchical variant shortens the inaccessible predicate.
    flat = [r for r in result.rows if r[1] == "flat"]
    hier = [r for r in result.rows if r[1] == "hierarchical"]
    assert hier[0][5] < flat[0][5]
