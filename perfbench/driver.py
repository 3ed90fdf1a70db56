"""The closed-loop measurement and the metrics it reports.

One client thread in one process issues operation ``i`` only after
operation ``i - 1`` returned a verified answer (a closed loop).  The
loop runs for the requested seconds, and always for at least the
workload's count window: the host-independent counts (relax calls,
group operations, tasks, VO and journal bytes) are taken over that
fixed prefix of the seeded operation stream, so they repeat exactly
for one seed.  Wall times use every operation of the run.

Every time is reported at reference host speed: after each operation
(and between the phases of each set-up) the driver runs the fixed
kernel of ``calibrate.py`` for about a tenth as long, and scales the
operation's times by how much slower or faster than reference the
kernel ran right before and after it.  The raw figures and the mean speed are in the context line.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import calibrate
import tracer
from repro import obs
from repro.crypto import get_backend
from repro.errors import ReproError
from repro.policy.compiler.msp import msp_cache_info
from worlds import WORKLOADS

#: Kernel samples taken between the timed phases of a set-up.
SETUP_SAMPLES = 8

END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "ops_per_s": "1/s",
    "sp_cpu_ms": "ms",
    "response_bytes": "bytes",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "engine.traverse_ms": "ms",
    "engine.tasks": "count",
    "engine.materialize_ms": "ms",
    "abs.relax_calls": "count",
    "abs.relax_ms": "ms",
    "engine.aps_hit_ratio": "ratio",
    "abe.seal_ms": "ms",
    "abe.open_ms": "ms",
    "abe.sealed_bytes": "bytes",
    "messages.encode_ms": "ms",
    "messages.decode_ms": "ms",
    "verifier.verify_ms": "ms",
    "verifier.entries": "count",
    "crypto.pairings": "count",
    "crypto.pows": "count",
    "crypto.pows_fixed": "count",
    "crypto.multi_pows": "count",
    "crypto.pair_cache_hits": "count",
    "crypto.combs_built": "count",
    "server.handle_ms": "ms",
    "server.shed": "count",
    "server.error_frames": "count",
    "transport.wire_ms": "ms",
    "client.attempts_per_query": "count",
    "cluster.failovers": "count",
    "sharding.scatter_attempts": "count",
    "sharding.shard_ms": "ms",
    "sharding.merge_ms": "ms",
    "policy.msp_cache_hit_ratio": "ratio",
    "updates.apply_ms": "ms",
    "updates.resigned_nodes": "count",
    "ingest.publish_ms": "ms",
    "ingest.apply_ms": "ms",
    "ingest.pushes_per_update": "count",
    "ingest.push_failures": "count",
    "journal.bytes_per_update": "bytes",
    "journal.appends": "count",
    "checkpoint.count": "count",
    "checkpoint.ms": "ms",
    "update.p50_ms": "ms",
    "update.tail_ms": "ms",
    "trace.overhead_p50_ms": "ms",
    "trace.uncovered_share": "ratio",
}

#: Per-layer counts that do not depend on the host: identical for two
#: runs of one seed (asserted by test_perfbench.py).
EXACT_COUNTS = (
    "engine.tasks",
    "abs.relax_calls",
    "abe.sealed_bytes",
    "verifier.entries",
    "crypto.pairings",
    "crypto.pows",
    "crypto.pows_fixed",
    "crypto.multi_pows",
    "crypto.pair_cache_hits",
    "crypto.combs_built",
    "updates.resigned_nodes",
    "journal.bytes_per_update",
    "journal.appends",
)

CRYPTO_OPS = ("pairings", "pows", "pows_fixed", "multi_pows",
              "pair_cache_hits", "combs_built")


def percentile(values, p: float) -> float:
    """Nearest-rank percentile (``p`` in percent) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def _mean(total: float, count: int) -> float:
    return total / count if count else 0.0


def _ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def build(name: str, seed: int, scratch_dir: str):
    """Time one set-up; returns ``(workload, seconds, seconds at
    reference speed)``."""
    watch = calibrate.Stopwatch(least=SETUP_SAMPLES)
    laps = []
    world = WORKLOADS[name](seed, scratch_dir, lap=lambda: laps.append(watch.lap()))
    laps.append(watch.lap())
    return world, sum(s for s, _f in laps), sum(s * f for s, f in laps)


def probe_setup(run_py: str, name: str, seed: int, root: str) -> tuple:
    """One cold set-up in a fresh interpreter (no inherited caches);
    returns ``(seconds, seconds at reference speed)``."""
    done = subprocess.run(
        [sys.executable, run_py, "--workload", name, "--seed", str(seed),
         "--setup-probe"],
        cwd=root, capture_output=True, text=True, timeout=170, check=True,
    )
    probe = json.loads(done.stdout.strip().splitlines()[-1])
    return probe["raw_s"], probe["setup_s"]


class OpRecord:
    __slots__ = ("index", "kind", "wall", "cpu", "bytes", "ok", "failed",
                 "traced", "window", "crypto", "scale", "raw_wall")

    def __init__(self, index, kind, traced, window):
        self.index, self.kind = index, kind
        self.traced, self.window = traced, window
        self.wall = self.cpu = self.raw_wall = 0.0
        self.scale = 1.0
        self.bytes = 0
        self.ok = self.failed = False
        self.crypto = None


def _counters(world) -> dict:
    """Run-level counters the per-layer metrics take differences of."""
    publisher = world.publisher()
    return {
        "shed": sum(s.shed for s in world.servers),
        "error_frames": sum(s.errors for s in world.servers),
        "attempts": world.client_attempts(),
        "failovers": world.failovers(),
        "scatter": world.scatter_attempts(),
        "pushes": publisher.stats.pushes if publisher else 0,
        "push_failures": publisher.stats.push_failures if publisher else 0,
        "checkpoints": sum(ingest.checkpoints for ingest in world.ingests),
    }


def tally(ops) -> tuple[int, int]:
    """``(wrong, failed)``: answers that disagreed with the oracle, and
    operations that failed, were refused or answered wrongly."""
    wrong = sum(1 for op in ops if not op.failed and not op.ok)
    return wrong, sum(1 for op in ops if not op.ok)


def measure(world, seconds: float, recorder=None) -> dict:
    """Run the closed loop; returns the per-op records and run totals.

    The loop ends on a whole block of the workload's stratified mix, so
    every run measures exactly the mix.
    """
    group = get_backend(world.backend)
    before = _counters(world)
    msp0 = msp_cache_info()
    msp_window = None
    updates0 = len(world.update_latencies)
    ops: list[OpRecord] = []
    watch = calibrate.Stopwatch()
    world.meter.take()
    start = time.perf_counter()
    i = 0
    while (i < world.count_window or i % world.block
           or time.perf_counter() - start < seconds):
        window = i < world.count_window
        # After the count window, traced runs alternate traced and
        # untraced operations: the p50 difference is the overhead.
        traced = recorder is not None and (window or i % 2 == 1)
        rec = OpRecord(i, world.kind(i), traced, window)
        if recorder is not None:
            recorder.active, recorder.op_id = traced, i
        group_ops = group.stats.snapshot() if window else None
        watch.start()
        try:
            rec.ok = world.op(i)
        except ReproError as exc:
            rec.failed = True
            print(f"op {i} ({rec.kind}) failed: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
        rec.raw_wall, rec.scale = watch.lap()
        if recorder is not None:
            recorder.active = False
        if window:
            rec.crypto = group.stats.delta(group_ops)
            if i == world.count_window - 1:
                msp_window = msp_cache_info()
        rec.cpu, rec.bytes = world.meter.take()
        rec.wall = rec.raw_wall * rec.scale
        rec.cpu *= rec.scale
        ops.append(rec)
        i += 1
    elapsed = time.perf_counter() - start
    after = _counters(world)
    writes = [op for op in ops if op.kind == "write"]
    latencies = world.update_latencies[updates0:]
    assert len(latencies) == len(writes), "one update latency per write"
    return {
        "ops": ops,
        "elapsed": elapsed,
        "speed": watch.factor(),
        "counters": {name: after[name] - before[name] for name in before},
        "msp": (msp_window.hits - msp0.hits, msp_window.misses - msp0.misses)
        if msp_window else (0, 0),
        "update_latencies": [s * op.scale for s, op in zip(latencies, writes)],
    }


def end_to_end(world, run: dict, setups: list) -> dict:
    """``ops_per_s`` divides by the operations' own (scaled) time, so
    calibration and loop bookkeeping are left out of it."""
    ops = run["ops"]
    reads = [op for op in ops if op.kind == "read" and op.ok]
    window_reads = [op for op in reads if op.window]
    walls = [op.wall for op in reads]
    return {
        "setup_s": statistics.median(s for _raw, s in setups),
        "latency_p50_ms": statistics.median(walls) * 1e3,
        "latency_tail_ms": percentile(walls, world.tail_percentile) * 1e3,
        "ops_per_s": sum(1 for op in ops if op.ok) / sum(op.wall for op in ops),
        "sp_cpu_ms": _mean(sum(op.cpu for op in reads), len(reads)) * 1e3,
        "response_bytes": _mean(sum(op.bytes for op in window_reads),
                                len(window_reads)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _span_totals(spans: list) -> dict:
    """Per op id: name -> [seconds, count, attribute sums...]."""
    by_op: dict = {}
    for span in spans:
        if span["end"] is None:
            continue
        entry = by_op.setdefault(span["op"], {}).setdefault(span["name"], {})
        entry["s"] = entry.get("s", 0.0) + span["end"] - span["start"]
        entry["n"] = entry.get("n", 0) + 1
        for key, value in span.items():
            if key not in ("id", "parent", "op", "name", "start", "end"):
                entry[key] = entry.get(key, 0) + value
    return by_op


def per_layer(world, run: dict, spans: list) -> dict:
    ops = [op for op in run["ops"] if not op.failed]
    by_op = _span_totals(spans)

    def total(group, name, field="s"):
        scale = (lambda op: op.scale) if field == "s" else (lambda op: 1)
        return sum(by_op.get(op.index, {}).get(name, {}).get(field, 0) * scale(op)
                   for op in group)

    reads = [op for op in ops if op.kind == "read"]
    writes = [op for op in ops if op.kind == "write"]
    t_reads = [op for op in reads if op.traced]
    t_writes = [op for op in writes if op.traced]
    w_ops = [op for op in ops if op.window]
    w_reads = [op for op in reads if op.window]
    w_writes = [op for op in writes if op.window]

    def per_read_ms(name):
        return _mean(total(t_reads, name), len(t_reads)) * 1e3

    def per_write_ms(name):
        return _mean(total(t_writes, name), len(t_writes)) * 1e3

    metrics = {
        "engine.traverse_ms": per_read_ms("engine.traverse"),
        "engine.tasks": _mean(total(w_reads, "engine.traverse", "tasks"), len(w_reads)),
        "engine.materialize_ms": per_read_ms("engine.materialize"),
        "abs.relax_calls": _mean(total(w_reads, "abs.relax", "n"), len(w_reads)),
        "abs.relax_ms": per_read_ms("abs.relax"),
        "engine.aps_hit_ratio": _ratio(
            total(w_reads, "engine.materialize", "aps_hits"),
            total(w_reads, "engine.materialize", "aps_misses"),
        ),
        "abe.seal_ms": per_read_ms("abe.seal"),
        "abe.open_ms": per_read_ms("abe.open"),
        "abe.sealed_bytes": _mean(total(w_reads, "abe.seal", "bytes"), len(w_reads)),
        "messages.encode_ms": per_read_ms("messages.encode"),
        "messages.decode_ms": per_read_ms("messages.decode"),
        "verifier.verify_ms": per_read_ms("verifier.verify"),
        "verifier.entries": _mean(total(w_reads, "verifier.verify", "entries"),
                                  len(w_reads)),
    }
    for name in CRYPTO_OPS:
        metrics[f"crypto.{name}"] = _mean(
            sum(op.crypto[name] for op in w_ops), len(w_ops)
        )
    counters = run["counters"]
    handle = total(t_reads, "server.handle")
    metrics.update({
        "server.handle_ms": _mean(handle, len(t_reads)) * 1e3,
        "server.shed": _mean(counters["shed"], len(ops)),
        "server.error_frames": _mean(counters["error_frames"], len(ops)),
        "transport.wire_ms": _mean(
            total(t_reads, "transport.round_trip") - handle, len(t_reads)
        ) * 1e3,
        "client.attempts_per_query": _mean(counters["attempts"], len(reads)),
        "cluster.failovers": _mean(counters["failovers"], len(reads)),
        "sharding.scatter_attempts": _mean(counters["scatter"], len(reads)),
        "sharding.shard_ms": _mean(
            sum(by_op.get(op.index, {}).get("cluster.query", {}).get("s", 0.0) * op.scale
                for op in t_reads if "sharding.query" in by_op.get(op.index, {})),
            len(t_reads),
        ) * 1e3,
        "sharding.merge_ms": per_read_ms("sharding.merge"),
        "policy.msp_cache_hit_ratio": _ratio(*run["msp"]),
        "updates.apply_ms": per_write_ms("updates.apply"),
        "updates.resigned_nodes": _mean(
            total(w_writes, "updates.apply", "resigned"), len(w_writes)
        ),
        "ingest.publish_ms": per_write_ms("ingest.publish"),
        "ingest.apply_ms": per_write_ms("ingest.apply"),
        "ingest.pushes_per_update": _mean(counters["pushes"], len(writes)),
        "ingest.push_failures": _mean(counters["push_failures"], len(writes)),
        "journal.bytes_per_update": _mean(
            total(w_writes, "journal.append", "bytes"), len(w_writes)
        ),
        "journal.appends": _mean(total(w_writes, "journal.append", "n"),
                                 len(w_writes)),
        "checkpoint.count": float(counters["checkpoints"]),
        "checkpoint.ms": _mean(
            total(ops, "checkpoint"), total(ops, "checkpoint", "n")
        ) * 1e3,
    })
    latencies = run["update_latencies"]
    metrics["update.p50_ms"] = statistics.median(latencies) * 1e3 if latencies else 0.0
    metrics["update.tail_ms"] = (
        percentile(latencies, world.tail_percentile) * 1e3 if latencies else 0.0
    )
    traced = [op.wall for op in reads if op.traced and not op.window]
    untraced = [op.wall for op in reads if not op.traced]
    metrics["trace.overhead_p50_ms"] = (
        (statistics.median(traced) - statistics.median(untraced)) * 1e3
        if traced and untraced else 0.0
    )
    covered = sum(total(t_reads, name) for name in tracer.LAYER_SPANS)
    wall = sum(op.wall for op in t_reads)
    metrics["trace.uncovered_share"] = max(0.0, 1.0 - covered / wall) if wall else 0.0
    return metrics


def context(world, run: dict, seed: int, seconds: float, trace: bool,
            setups: list) -> dict:
    ops = run["ops"]
    reads = sum(1 for op in ops if op.kind == "read" and op.ok)
    writes = sum(1 for op in ops if op.kind == "write" and op.ok)
    raw_walls = [op.raw_wall for op in ops if op.kind == "read" and op.ok]
    _wrong, failed = tally(ops)
    latencies = run["update_latencies"]
    return {
        "workload": world.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "backend": world.backend,
        "repro_obs": obs.enabled(),
        "repro_obs_env": os.environ.get("REPRO_OBS"),
        "fsync": "journal and checkpoints fsync'd (ServerIngest default)"
        if world.publisher() else "no disk writes",
        "sizes": world.sizes(),
        "load": "closed loop, 1 client thread, in-process LoopbackTransport",
        "operations": len(ops),
        "reads": reads,
        "writes": writes,
        "count_window": world.count_window,
        "tail_percentile": world.tail_percentile,
        "failed_frac": failed / len(ops),
        "update_p50_ms": statistics.median(latencies) * 1e3 if latencies else None,
        "update_tail_ms": percentile(latencies, world.tail_percentile) * 1e3
        if latencies else None,
        "setup_runs_s": [s for _raw, s in setups],
        "setup_runs_raw_s": [raw for raw, _s in setups],
        "host_speed": run["speed"],
        "calibration_reference_s": calibrate.REFERENCE_S,
        "raw_latency_p50_ms": statistics.median(raw_walls) * 1e3 if raw_walls else None,
        "raw_ops_per_s": sum(1 for op in ops if op.ok) / run["elapsed"],
    }
