"""Scatter-gather overhead across shard counts.

Times end-to-end range and equality queries through
:class:`~repro.net.sharding.ShardedClient` over 1, 2, and 4 range shards
of the same table (one replica per shard, in-process loopback servers)
and writes ``BENCH_sharding.json`` at the repo root.  Each query kind is
issued ``repeats`` times through the client of a fresh world: ``cold``
is the first query (nothing memoized), ``warm`` the fastest of the
rest, and each records the backend's pairings for that one query.

* **range** — a full-domain range query scatters to every shard and
  verifies every sub-answer at the merge (roster + per-shard tokens +
  tiling).  More shards mean more sub-answers, tokens and boundary
  entries, so the cold query's pairings grow with the shard count; its
  wall time is one query and need not.  Warm repeats grow with the
  shard count too, in pairings and in time: one user's verified-entry
  memo (``VERIFY_MEMO_SIZE`` entries, an LRU) holds fewer entries than
  a full-range read verifies, so a repeat re-verifies what the previous
  query evicted, and more shards evict more.  A scan-resistant memo
  would make warm reads flat;
* **equality** — routed to exactly one shard regardless of the shard
  count, so it should stay flat (the roster lookup is O(shards));
* **verification overhead** — every answer is re-verified at the merge,
  so the numbers here price the coordinator's trust boundary, not just
  the wire.

Fast ``test_smoke_*`` functions run in CI on the simulated backend; the
full BN254 run is ``@pytest.mark.slow`` or
``python benchmarks/bench_sharding.py``, the one writer of
``BENCH_sharding.json``.
"""

from __future__ import annotations

import json
import pathlib
import time

import pytest
from bench_queries import host_context

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


QUERIES = {
    "range": lambda client: client.query_range(TABLE, (0,), (63,), encrypt=False),
    "equality": lambda client: client.query_equality(TABLE, EQUALITY_KEY, encrypt=False),
}


def _cold_and_warm(backend: str, shards: int, query, repeats: int) -> dict:
    """Issue ``query`` ``repeats`` times through a fresh world's client.

    ``cold`` is the first call, ``warm`` the fastest of the others.
    """
    world = build_world(
        {TABLE: ROWS}, DOMAIN, seed=SEED, backend=backend, shards=shards,
    )
    runs = []
    for _ in range(repeats):
        pairings = world.group.stats.pairings
        t0 = time.perf_counter()
        out = query(world.client)
        runs.append({
            "seconds": round(time.perf_counter() - t0, 6),
            "pairings": world.group.stats.pairings - pairings,
        })
    return {
        "records": len(out),
        "scatter_attempts": world.client.counters.scatter_attempts,
        "cold": runs[0],
        "warm": min(runs[1:], key=lambda run: run["seconds"]),
    }


def scenario_shard_scaling(backend: str, repeats: int = 3) -> dict:
    arms = {
        f"{shards}_shards": {
            "shards": shards,
            **{
                kind: _cold_and_warm(backend, shards, query, repeats)
                for kind, query in QUERIES.items()
            },
        }
        for shards in SHARD_COUNTS
    }
    return {"backend": backend, "repeats": repeats, "arms": arms}


def run_benchmarks() -> dict:
    return {
        "host": host_context(),
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
            for kind in ("range", "equality"):
                query = entry[kind]
                print(
                    f"  {arm:9s} {kind:8s} ({query['records']:2d} records)"
                    + "".join(
                        f"   {side} {query[side]['seconds']*1e3:8.1f} ms"
                        f" {query[side]['pairings']:3d} pairings"
                        for side in ("cold", "warm")
                    )
                )
    print(f"wrote {JSON_PATH}")


# -- pytest entry points ------------------------------------------------
def test_smoke_shard_scaling_arms():
    """CI smoke: every shard count answers identically on simulated."""
    scenario = scenario_shard_scaling("simulated", repeats=2)
    arms = scenario["arms"]
    assert set(arms) == {f"{n}_shards" for n in SHARD_COUNTS}
    visible = {arm["range"]["records"] for arm in arms.values()}
    assert len(visible) == 1  # same verified answer at every shard count
    for arm in arms.values():
        assert arm["equality"]["records"] == 1
        # Equality routes to exactly one shard; range fans to all of them.
        assert arm["equality"]["scatter_attempts"] == 2
        assert arm["range"]["scatter_attempts"] == 2 * arm["shards"]
        assert arm["range"]["cold"]["pairings"] > 0
        assert arm["equality"]["cold"]["pairings"] > 0


@pytest.mark.slow
def test_full_bench_shard_scaling():
    """Full BN254 run (``main()`` writes BENCH_sharding.json)."""
    arms = run_benchmarks()["scenarios"]["shard_scaling_bn254"]["arms"]
    assert all(arm["range"]["cold"]["seconds"] > 0 for arm in arms.values())


if __name__ == "__main__":
    main()
