"""Figure 15 / Appendix E — duplicate-record handling (ZK vs embedded)."""

from repro.bench.experiments import run_fig15


def test_fig15_report(benchmark):
    result = benchmark.pedantic(
        lambda: run_fig15(fractions=(0.001, 0.01), queries_per_point=3),
        rounds=1, iterations=1,
    )
    rows = {(r[0], r[1]): r for r in result.rows}
    # The ZK virtual dimension costs more than the embedded variant, but
    # stays within a small factor (paper: <= ~3x).
    zk, nzk = rows[(1.0, "ZK AP2G")], rows[(1.0, "non-ZK AP2G")]
    assert zk[4] >= nzk[4]
