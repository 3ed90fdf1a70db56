"""Disabled-mode guarantees: instruments are cheap, inert no-ops.

The CI overhead guard additionally runs the bench smoke with
``REPRO_OBS=0`` and compares wall clock; these tests pin the *mechanism*
that makes that cheap — every instrument bails on one gate check.
"""

import time

from repro import obs
from repro.obs import metrics as _metrics
from repro.parallel import parallel_map, shutdown_process_pools


def _square(x):
    return x * x


def test_disabled_instruments_record_nothing():
    reg = _metrics.registry()
    c = reg.counter("t_off_total", labelnames=("kind",))
    g = reg.gauge("t_off_size")
    h = reg.histogram("t_off_seconds")
    obs.set_enabled(False)
    c.inc(kind="x")
    g.set(9)
    h.observe(0.5)
    with obs.span("off.root"):
        obs.add_event("nothing")
    obs.set_enabled(True)
    assert c.value(kind="x") == 0
    assert g.value() == 0
    assert h.histogram_state() is None
    assert obs.tracer().last_trace() is None


def test_disabled_parallel_map_still_correct_but_unobserved():
    reg = _metrics.registry()
    jobs = reg.counter("repro_parallel_jobs_total")
    before = jobs.value()
    obs.set_enabled(False)
    try:
        assert parallel_map(_square, range(8), workers=3) == [
            x * x for x in range(8)
        ]
    finally:
        obs.set_enabled(True)
        shutdown_process_pools()
    assert jobs.value() == before


def test_disabled_per_call_overhead_is_tiny():
    """A fully instrumented no-op call site must stay microsecond-scale.

    The bound is deliberately generous (50µs/iteration on an idle box the
    real cost is ~1µs) — this guards against accidentally doing work
    before the gate check, not against scheduler noise.
    """
    reg = _metrics.registry()
    c = reg.counter("t_hot_total", labelnames=("kind",))
    h = reg.histogram("t_hot_seconds")
    obs.set_enabled(False)
    iterations = 20_000
    t0 = time.perf_counter()
    for _ in range(iterations):
        with obs.span("hot.section", kind="x"):
            c.inc(kind="x")
            h.observe(0.001)
    elapsed = time.perf_counter() - t0
    obs.set_enabled(True)
    assert elapsed / iterations < 50e-6, (
        f"disabled-mode overhead {elapsed / iterations * 1e6:.1f}µs/call"
    )
