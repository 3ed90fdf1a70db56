"""CI smoke and overhead guard for the observability subsystem.

Two modes:

* default — with the gate **on**, run one resilient client/server query
  and assert the acceptance criteria: a single correlated trace covering
  the net, SP, and engine layers; group-operation counters in the
  registry; a Prometheus scrape (both in-process and over a framed
  ``STATS_REQUEST``) that passes the exposition lint; and — over a
  *detached* transport, where server spans root their own traces as
  they would across a real socket — a trace reassembled through the
  span relay's ``TRC`` scrape, with a cost ledger entry attributing the
  query's stages.

* ``--guard`` — with the gate **off** (``REPRO_OBS=0``), bound the cost
  instrumentation adds to the query-serving smoke.  There is no
  uninstrumented build to diff against, so the guard is computed: it
  measures the per-call cost of a disabled instrument, counts how many
  instrument updates one workload pass performs (from an enabled pass's
  registry delta, trace, and cost-ledger charge count), and asserts

      instrument_updates x disabled_per_call_cost < 2% of workload time.

Run:  PYTHONPATH=src python benchmarks/obs_smoke.py [--guard]
"""

import sys
import time

from repro import obs
from repro.bench.world import build_world
from repro.cli import DEMO_ROLES, DEMO_ROWS
from repro.net import (
    STATS_REQUEST,
    RetryPolicy,
    decode_stats_response,
    frame,
    unframe,
)
from repro.net.client import fetch_trace_spans
from repro.obs import ledger as obs_ledger
from repro.obs.metrics import parse_exposition, registry, render_prometheus

EXPECTED_SPANS = (
    "client.query", "client.attempt", "server.handle_frame",
    "sp.handle", "sp.query", "engine.traverse", "engine.materialize",
)
OVERHEAD_BUDGET = 0.02
#: One resilient client over one SP serving the demo table.
STACK = dict(seed=7, universe=DEMO_ROLES, policy=RetryPolicy(max_attempts=6))


def smoke() -> int:
    if not obs.enabled():
        print("FAIL: smoke mode needs REPRO_OBS=1", file=sys.stderr)
        return 1
    obs.reset_for_tests()
    world = build_world({"docs": DEMO_ROWS}, (0, 31), **STACK)
    client, transport = world.client, world.endpoints["sp0"]
    records = client.query_range("docs", (0,), (31,), encrypt=False)
    assert records, "query returned no accessible records"

    trace = obs.tracer().last_trace()
    assert trace is not None, "no finished trace"
    names = trace.span_names()
    missing = [n for n in EXPECTED_SPANS if n not in names]
    assert not missing, f"trace is missing spans {missing}; got {names}"
    ids = {s.trace_id for s in trace.iter_spans()}
    assert ids == {trace.trace_id}, f"trace ids not correlated: {ids}"

    snapshot = registry().snapshot()
    group_ops = [k for k in snapshot if k.startswith("repro_group_ops_total|")]
    assert group_ops, "no group-operation counters were fed"

    parsed = parse_exposition(render_prometheus())  # raises on lint failure
    response = transport.round_trip(frame(bytes(range(16)), STATS_REQUEST))
    wire_parsed = parse_exposition(decode_stats_response(unframe(response)[1]))
    assert wire_parsed["repro_server_scrapes_total"] == 1

    relayed = relay_smoke()
    print(f"obs smoke OK: {len(names)} spans in one trace, "
          f"{len(group_ops)} group-op series, "
          f"{len(parsed)} exposition samples lint clean, "
          f"{relayed} server spans reassembled over the relay")
    return 0


def relay_smoke() -> int:
    """The cross-boundary leg: detached server spans, reassembled.

    A detached transport roots server spans in their own traces — the
    shape a real socket produces — so the client trace alone must NOT
    contain them; the ``TRC`` scrape + :func:`repro.obs.assemble_trace`
    must bring them back, and the cost ledger must hold a stage account
    for the query.  Returns the number of reassembled server spans.
    """
    obs.reset_for_tests()
    world = build_world({"docs": DEMO_ROWS}, (0, 31), link="detached", **STACK)
    client, transport = world.client, world.endpoints["sp0"]
    records = client.query_range("docs", (0,), (31,), encrypt=False)
    assert records, "detached query returned no accessible records"

    trace = obs.tracer().last_trace()
    local_names = trace.span_names()
    server_side = {"server.handle_frame", "sp.handle", "sp.query",
                   "engine.traverse", "engine.materialize"}
    leaked = server_side & set(local_names)
    assert not leaked, f"detached transport leaked server spans: {leaked}"

    remote = fetch_trace_spans(transport, trace.trace_id)
    assert remote, "TRC scrape returned no spans for the query's trace"
    tree = obs.assemble_trace(trace, remote, origin="loopback")
    assembled = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        assembled.add(node.get("name"))
        stack.extend(node.get("children") or ())
    missing = [n for n in EXPECTED_SPANS if n not in assembled]
    assert not missing, f"assembled trace is missing spans {missing}"

    entry = obs_ledger.ledger().get(trace.trace_id)
    assert entry is not None, "cost ledger has no entry for the traced query"
    for stage in ("traverse", "materialize", "wire", "verify"):
        assert entry.stages.get(stage, 0.0) > 0.0, \
            f"ledger entry has no {stage!r} time: {entry.as_dict()}"
    assert entry.wall_seconds > 0.0, "ledger entry has no wall time"
    return sum(1 for name in assembled if name in server_side)


def _time_workload(client, repeats=5) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        client.query_range("docs", (0,), (31,), encrypt=False)
        client.query_equality("docs", (4,), encrypt=False)
        best = min(best, time.perf_counter() - t0)
    return best


def _disabled_per_call_cost() -> float:
    counter = registry().counter("obs_guard_probe_total", labelnames=("kind",))
    hist = registry().histogram("obs_guard_probe_seconds")
    iterations = 50_000
    t0 = time.perf_counter()
    for _ in range(iterations):
        with obs.span("guard.probe", kind="x"):
            counter.inc(kind="x")
            hist.observe(0.001)
    # Three instrument touches per iteration: one span, two mutators.
    return (time.perf_counter() - t0) / (3 * iterations)


def guard() -> int:
    if obs.enabled():
        print("FAIL: guard mode needs REPRO_OBS=0", file=sys.stderr)
        return 1
    client = build_world({"docs": DEMO_ROWS}, (0, 31), **STACK).client
    _time_workload(client, repeats=1)  # warm the APS/auth pools once
    disabled_time = _time_workload(client)

    # Count instrument updates in one workload pass with the gate on.
    obs.set_enabled(True)
    obs.reset_for_tests()
    window = registry().window()
    traces_before = len(obs.tracer().traces())
    charges_before = obs_ledger.ledger().total_charges
    _time_workload(client, repeats=1)
    updates = sum(
        int(v) for k, v in window.delta().items()
        if "|le=" not in k and not k.endswith("|sum")
    )
    spans = sum(
        len(t.span_names())
        for t in obs.tracer().traces()[traces_before:]
    )
    charges = obs_ledger.ledger().total_charges - charges_before
    obs.set_enabled(False)

    per_call = _disabled_per_call_cost()
    cost = (updates + spans + charges) * per_call
    fraction = cost / disabled_time
    print(f"obs overhead guard: {updates} metric updates + {spans} spans "
          f"+ {charges} ledger charges "
          f"x {per_call * 1e9:.0f}ns disabled cost = {cost * 1e6:.1f}µs "
          f"per pass ({fraction:.3%} of {disabled_time * 1e3:.1f}ms)")
    if fraction >= OVERHEAD_BUDGET:
        print(f"FAIL: disabled-mode instrumentation cost {fraction:.2%} "
              f">= {OVERHEAD_BUDGET:.0%} budget", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(guard() if "--guard" in sys.argv[1:] else smoke())
