"""Microbenchmark for two-phase query serving (engine + SP pool).

Times end-to-end range-query serving on a seeded single-table system and
writes ``BENCH_queries.json`` at the repo root.  Four arms, crossing where
the materializer runs ``ABS.Relax`` with the SP authenticator pool's
APS-cache state:

* ``serial_cold``  — workers=1 (inline), authenticator pool reset before
  each run;
* ``process_cold`` — workers=N on the persistent spawn process pool, pool
  reset before each run;
* ``serial_warm`` / ``process_warm`` — same, with the pool retained from
  the matching cold run.

Each arm reports wall-clock plus the query's ``CostLedger`` entry
(``traverse_ms`` / ``materialize_ms``, tasks, relax invocations, APS
cache hits, group operations), so a speedup is traceable to the
``ABS.Relax`` calls it avoided.  The arms turn the obs gate on for
themselves and restore it, so they report the same under
``REPRO_OBS=0``.  On a
single-CPU host the cold process arm tracks the serial one (one core caps
the pool); the warm arms show the pooled cache's effect, which is
scheduling-independent.  The JSON records the host context (CPU count,
Python version) next to the numbers so cross-host comparisons stay
honest.

One cross-query scenario rides along: ``relax_dedup`` measures the
single-flight table collapsing concurrent identical queries onto one
derivation.

Fast ``test_smoke_*`` functions run in CI (``-m "not slow"``) on the
simulated backend; the full BN254 comparison runs as
``@pytest.mark.slow`` (asserting the speedups) or as
``python benchmarks/bench_queries.py``, the one writer of
``BENCH_queries.json``.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import random
import threading
import time

import pytest

from repro import obs
from repro.core.app_signature import _M_INFLIGHT
from repro.core.records import Dataset, Record
from repro.core.system import DataOwner, QueryUser
from repro.crypto import get_backend
from repro.index.boxes import Domain
from repro.obs import ledger as obs_ledger
from repro.policy.boolexpr import parse_policy
from repro.policy.roles import RoleUniverse

SEED = 2018
JSON_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_queries.json"

ROLES = ["doctor", "nurse", "researcher", "auditor"]
# Cycled over the records: a nurse reaches 2 of every 5, so a full-range
# query is relax-heavy (inaccessible records + pseudo-region nodes).
POLICIES = [
    "doctor",
    "nurse",
    "doctor and researcher",
    "auditor",
    "nurse or doctor",
]
USER_ROLES = frozenset({"nurse"})
QUERY = ((0,), (31,))


def build_system(backend: str, num_records: int = 16):
    """Owner + SP over one table of ``num_records`` keyed 0,2,4,..."""
    group = get_backend(backend)
    universe = RoleUniverse(ROLES)
    dataset = Dataset(Domain.of((0, 31)))
    for i in range(num_records):
        dataset.add(
            Record((2 * i,), b"payload-%04d" % i, parse_policy(POLICIES[i % len(POLICIES)]))
        )
    owner = DataOwner(group, universe, rng=random.Random(SEED))
    sp = owner.outsource({"T": dataset})
    return universe, owner, sp


def _run_arm(sp, rng, workers: int, cold: bool, repeats: int) -> dict:
    """Best-of-``repeats`` for one arm; cold arms reset the pool each run.

    Each query runs under its own span, and the arm reports the best
    run's ledger entry.
    """
    best_s, best = float("inf"), None
    previous = obs.set_enabled(True)
    try:
        for _ in range(repeats):
            if cold:
                sp._auth_pool.clear()
            with obs.span("bench.query", workers=workers) as span:
                t0 = time.perf_counter()
                resp = sp.range_query("T", *QUERY, USER_ROLES, rng=rng, workers=workers)
                elapsed = time.perf_counter() - t0
            if elapsed < best_s:
                best_s, best = elapsed, (resp, obs_ledger.ledger().get(span.trace_id))
    finally:
        obs.set_enabled(previous)
    resp, entry = best
    counters = entry.counters
    return {
        "seconds": round(best_s, 6),
        "vo_bytes": resp.byte_size(),
        "workers": workers,
        "traverse_ms": round(entry.stages["traverse"] * 1e3, 3),
        "materialize_ms": round(entry.stages["materialize"] * 1e3, 3),
        "tasks": counters.get("tasks", 0),
        "relax_calls": counters.get("relax_calls", 0),
        "aps_cache_hits": counters.get("aps_cache_hits", 0),
        "aps_cache_misses": counters.get("aps_cache_misses", 0),
        "group_ops": dict(entry.group_ops),
    }


def scenario_query_serving(backend: str, workers: int = 2, repeats: int = 2) -> dict:
    """The four-arm serial/process x cold/warm comparison."""
    universe, owner, sp = build_system(backend)
    rng = random.Random(SEED + 1)
    arms = {}
    # Cold arms first; each leaves the pool warm for the matching warm arm.
    arms["serial_cold"] = _run_arm(sp, rng, workers=1, cold=True, repeats=repeats)
    arms["serial_warm"] = _run_arm(sp, rng, workers=1, cold=False, repeats=repeats)
    arms["process_cold"] = _run_arm(sp, rng, workers=workers, cold=True, repeats=repeats)
    arms["process_warm"] = _run_arm(sp, rng, workers=workers, cold=False, repeats=repeats)

    # Sanity: the served VO verifies for the benchmark user.
    user = QueryUser(owner.group, universe, owner.register_user(USER_ROLES))
    resp = sp.range_query("T", *QUERY, USER_ROLES, rng=rng)
    user.verify(resp)

    base = arms["serial_cold"]["seconds"]
    speedups = {
        f"{arm}_vs_serial_cold": round(base / entry["seconds"], 3)
        for arm, entry in arms.items()
        if arm != "serial_cold" and entry["seconds"]
    }
    return {"backend": backend, "workers": workers, "arms": arms, "speedups": speedups}


def scenario_relax_dedup(backend: str, concurrency: int = 3) -> dict:
    """Concurrent identical cold queries: single-flight dedup at work.

    ``concurrency`` threads fire the *same* cold range query at once; the
    in-flight table collapses their overlapping ``ABS.Relax`` derivations
    onto one materialization each.  Compared against the same queries run
    back-to-back with the pool cleared in between (every derivation paid
    ``concurrency`` times).
    """
    universe, owner, sp = build_system(backend)
    rng_seeds = [random.Random(SEED + 10 + i) for i in range(concurrency)]

    # Baseline: sequential, fully cold each time — no sharing at all.
    t0 = time.perf_counter()
    for rng in rng_seeds:
        sp._auth_pool.clear()
        sp.range_query("T", *QUERY, USER_ROLES, rng=rng)
    sequential_s = time.perf_counter() - t0

    sp._auth_pool.clear()
    previous = obs.set_enabled(True)
    owner_before = _M_INFLIGHT.value(outcome="owner")
    hits_before = _M_INFLIGHT.value(outcome="dedup_hit")
    errors = []

    def fire(rng):
        try:
            sp.range_query("T", *QUERY, USER_ROLES, rng=rng)
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=fire, args=(rng,)) for rng in rng_seeds]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    concurrent_s = time.perf_counter() - t0
    owner_count = _M_INFLIGHT.value(outcome="owner") - owner_before
    dedup_hits = _M_INFLIGHT.value(outcome="dedup_hit") - hits_before
    obs.set_enabled(previous)
    if errors:
        raise errors[0]
    return {
        "backend": backend,
        "concurrency": concurrency,
        "sequential_cold_seconds": round(sequential_s, 6),
        "concurrent_cold_seconds": round(concurrent_s, 6),
        "relax_flights_owned": owner_count,
        "relax_dedup_hits": dedup_hits,
        "speedup": round(sequential_s / concurrent_s, 3) if concurrent_s else None,
    }


def host_context() -> dict:
    """The context any cross-host speedup claim needs next to the numbers."""
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def run_benchmarks() -> dict:
    return {
        "seed": SEED,
        "query": [list(QUERY[0]), list(QUERY[1])],
        "user_roles": sorted(USER_ROLES),
        "host": host_context(),
        "scenarios": {
            "query_serving_bn254": scenario_query_serving("bn254"),
            "relax_dedup_bn254": scenario_relax_dedup("bn254"),
        },
    }


def main() -> None:
    results = run_benchmarks()
    JSON_PATH.write_text(json.dumps(results, indent=2) + "\n")
    host = results["host"]
    print(f"host: {host['cpu_count']} cpu, python {host['python']}")
    for name, scenario in results["scenarios"].items():
        print(name)
        if "arms" not in scenario:
            for key, value in scenario.items():
                if key != "backend":
                    print(f"  {key}: {value}")
            continue
        for arm, entry in scenario["arms"].items():
            print(
                f"  {arm:14s} {entry['seconds']*1e3:9.1f} ms"
                f"   traverse {entry['traverse_ms']:7.2f} ms"
                f"   materialize {entry['materialize_ms']:8.2f} ms"
                f"   relax_calls {entry['relax_calls']:3d}"
                f"   cache_hits {entry['aps_cache_hits']:3d}"
            )
        for label, x in scenario["speedups"].items():
            print(f"  {label}: x{x}")
    print(f"wrote {JSON_PATH}")


# -- pytest entry points ------------------------------------------------
def test_smoke_query_serving_arms():
    """CI smoke: all four arms run on the simulated backend; warm arms
    serve every APS from the pooled cache."""
    scenario = scenario_query_serving("simulated", workers=2, repeats=1)
    arms = scenario["arms"]
    assert set(arms) == {"serial_cold", "serial_warm", "process_cold", "process_warm"}
    assert arms["serial_cold"]["relax_calls"] > 0
    assert arms["serial_cold"]["aps_cache_hits"] == 0
    for warm in ("serial_warm", "process_warm"):
        assert arms[warm]["relax_calls"] == 0
        assert arms[warm]["aps_cache_hits"] == arms["serial_cold"]["relax_calls"]
    assert arms["process_cold"]["workers"] == 2
    assert arms["process_cold"]["relax_calls"] == arms["serial_cold"]["relax_calls"]
    assert arms["process_cold"]["vo_bytes"] == arms["serial_cold"]["vo_bytes"]


def test_smoke_host_context_recorded():
    """Speedup claims are only comparable with the host pinned next to them."""
    host = host_context()
    assert host["cpu_count"] >= 1
    assert host["python"].count(".") == 2


def test_smoke_relax_dedup_scenario():
    """CI smoke: concurrent identical queries share in-flight derivations."""
    scenario = scenario_relax_dedup("simulated", concurrency=3)
    assert scenario["relax_flights_owned"] > 0
    # Derivations performed never exceed flights owned plus fallbacks; the
    # point of the table is that concurrent twins joined existing flights.
    assert scenario["relax_dedup_hits"] >= 0
    assert scenario["sequential_cold_seconds"] > 0
    assert scenario["concurrent_cold_seconds"] > 0


def test_smoke_per_phase_stats_populated():
    """CI smoke: per-phase timings and task counts are filled in from the
    ledger, whatever the gate was, and the gate is restored."""
    gate = obs.enabled()
    scenario = scenario_query_serving("simulated", workers=2, repeats=1)
    assert obs.enabled() == gate
    cold = scenario["arms"]["serial_cold"]
    assert cold["traverse_ms"] >= 0.0 and cold["materialize_ms"] > 0.0
    assert cold["tasks"] > 0
    assert cold["group_ops"]
    assert cold["vo_bytes"] > 0


@pytest.mark.slow
def test_full_bench_warm_serving_faster():
    """Full BN254 run (``main()`` writes BENCH_queries.json).

    Warm-cache serving (serial or multi-worker) must beat cold serial —
    the pooled APS cache removes every ABS.Relax from the hot path.
    """
    results = run_benchmarks()
    scenario = results["scenarios"]["query_serving_bn254"]
    assert scenario["speedups"]["serial_warm_vs_serial_cold"] > 1.5
    assert scenario["speedups"]["process_warm_vs_serial_cold"] > 1.5


if __name__ == "__main__":
    main()
