"""Figure 13 — acceleration by parallelism (measured jobs, simulated workers).

Runs real BN254 ABS.Relax jobs to obtain honest per-job costs, then
schedules them on k simulated workers, so the result does not depend on
the host's CPU count (DESIGN.md, Substitution 4).
"""

from repro.bench.experiments import run_fig13
from repro.parallel import MakespanSimulator


def test_makespan_scheduler(benchmark):
    sim = MakespanSimulator([1.0] * 64, serial_overhead=2.0)
    results = benchmark(lambda: sim.sweep((1, 2, 4, 8, 16, 32)))
    assert results[0].speedup == 1.0
    assert results[-1].speedup > 1.0


def test_fig13_report(benchmark):
    result = benchmark.pedantic(
        lambda: run_fig13(thread_counts=(1, 2, 4, 8, 16, 32), num_jobs=12,
                          backend="bn254"),
        rounds=1, iterations=1,
    )
    speedups = [r[2] for r in result.rows]
    # More threads help, then saturate (paper Fig. 13).
    assert speedups[1] > speedups[0]
    assert speedups[-1] / speedups[-2] < 1.8
