"""Scatter-gather overhead across shard counts.

Times end-to-end range and equality queries through
:class:`~repro.net.sharding.ShardedClient` over 1, 2, and 4 range shards
of the same table (one replica per shard, in-process loopback servers)
and writes ``BENCH_sharding.json`` at the repo root.  The quantities of
interest:

* **range latency** — a full-domain range query scatters to every shard
  and pays the merged verification (roster + per-shard tokens + tiling),
  so its cost tracks the per-shard VO work, which shrinks as each
  shard's slab does;
* **equality latency** — routed to exactly one shard regardless of the
  shard count, so it should stay flat (the roster lookup is O(shards));
* **verification overhead** — every answer is re-verified at the merge,
  so the numbers here price the coordinator's trust boundary, not just
  the wire.

Fast ``test_smoke_*`` functions run in CI on the simulated backend; the
full BN254 table behind ``BENCH_sharding.json`` is
``@pytest.mark.slow`` or ``python benchmarks/bench_sharding.py``.
"""

from __future__ import annotations

import json
import pathlib
import time

import pytest

from repro.bench.world import build_world

SEED = 7400
JSON_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_sharding.json"

TABLE = "docs"
SHARD_COUNTS = (1, 2, 4)
NUM_RECORDS = 16
DOMAIN = (0, 63)
POLICIES = ["analyst", "manager", "analyst or manager"]
ROWS = tuple(
    ((4 * i,), b"payload-%04d" % i, POLICIES[i % len(POLICIES)])
    for i in range(NUM_RECORDS)
)
EQUALITY_KEY = (8,)


def _best_of(fn, repeats: int) -> tuple[float, object]:
    best_s = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        elapsed = time.perf_counter() - t0
        if elapsed < best_s:
            best_s, result = elapsed, out
    return best_s, result


def scenario_shard_scaling(backend: str, repeats: int = 3) -> dict:
    arms = {}
    for shards in SHARD_COUNTS:
        client = build_world(
            {TABLE: ROWS}, DOMAIN, seed=SEED, backend=backend, shards=shards,
        ).client
        range_s, range_records = _best_of(
            lambda: client.query_range(TABLE, (0,), (63,), encrypt=False),
            repeats,
        )
        eq_s, eq_records = _best_of(
            lambda: client.query_equality(TABLE, EQUALITY_KEY, encrypt=False),
            repeats,
        )
        arms[f"{shards}_shards"] = {
            "shards": shards,
            "range_seconds": round(range_s, 6),
            "range_records": len(range_records),
            "equality_seconds": round(eq_s, 6),
            "equality_records": len(eq_records),
            "scatter_attempts": client.counters.scatter_attempts,
        }
    return {"backend": backend, "repeats": repeats, "arms": arms}


def run_benchmarks() -> dict:
    return {
        "seed": SEED,
        "records": NUM_RECORDS,
        "domain": [list(DOMAIN)],
        "scenarios": {"shard_scaling_bn254": scenario_shard_scaling("bn254")},
    }


def main() -> None:
    results = run_benchmarks()
    JSON_PATH.write_text(json.dumps(results, indent=2) + "\n")
    for name, scenario in results["scenarios"].items():
        print(name)
        for arm, entry in scenario["arms"].items():
            print(
                f"  {arm:9s} range {entry['range_seconds']*1e3:9.1f} ms"
                f" ({entry['range_records']} records)"
                f"   equality {entry['equality_seconds']*1e3:9.1f} ms"
            )
    print(f"wrote {JSON_PATH}")


# -- pytest entry points ------------------------------------------------
def test_smoke_shard_scaling_arms():
    """CI smoke: every shard count answers identically on simulated."""
    scenario = scenario_shard_scaling("simulated", repeats=1)
    arms = scenario["arms"]
    assert set(arms) == {f"{n}_shards" for n in SHARD_COUNTS}
    visible = {arm["range_records"] for arm in arms.values()}
    assert len(visible) == 1  # same verified answer at every shard count
    for arm in arms.values():
        assert arm["equality_records"] == 1
        # Equality routes to exactly one shard; range fans to all of them.
        assert arm["scatter_attempts"] == arm["shards"] + 1


@pytest.mark.slow
def test_full_bench_shard_scaling():
    """Full BN254 run; regenerates BENCH_sharding.json."""
    results = run_benchmarks()
    JSON_PATH.write_text(json.dumps(results, indent=2) + "\n")
    arms = results["scenarios"]["shard_scaling_bn254"]["arms"]
    assert all(arm["range_seconds"] > 0 for arm in arms.values())


if __name__ == "__main__":
    main()
