"""Tests of the benchmark itself: its counts repeat and its oracle bites.

Run from the repository root (they are not part of the tier-1 suite):

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import statistics
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import driver  # noqa: E402
from worlds import WORKLOADS  # noqa: E402


def _run(cwd, *args, check=True):
    done = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    if check:
        assert done.returncode == 0, done.stderr
    return done


def _result(done) -> dict:
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_counts_repeat_exactly(workload):
    """Two same-seed traced runs agree on every host-independent count.

    ``--seconds 0`` runs just the count window, in fresh processes so
    no crypto cache carries over.
    """
    args = ("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "1")
    first, second = _result(_run(ROOT, *args)), _result(_run(ROOT, *args))
    assert first["correct"] and first["failed"] == 0
    for name in driver.EXACT_COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name
    assert set(first["metrics"]) == set(driver.PER_LAYER)


@pytest.mark.parametrize("workload", ["q6_cold", "ingest_rw"])
def test_response_bytes_repeat_exactly(workload):
    args = ("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "0")
    first, second = _result(_run(ROOT, *args)), _result(_run(ROOT, *args))
    assert first["metrics"]["response_bytes"] == second["metrics"]["response_bytes"]
    assert set(first["metrics"]) == set(driver.END_TO_END)


def test_oracle_rejects_a_wrong_answer(tmp_path):
    """An answer that disagrees with the plaintext oracle is counted."""
    world = WORKLOADS["ingest_rw"](5, str(tmp_path))
    try:
        assert all(world.op(i) for i in range(6))
        # Forget every record: any non-empty verified answer now
        # disagrees with the oracle's shadow table.
        for shadow in world.epoch_shadows.values():
            shadow.clear()
        assert not all(world.op(i) for i in range(6, 30))
    finally:
        world.close()


def test_exits_nonzero_without_the_program(tmp_path):
    """A directory holding only the benchmark fails without a result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(str(tmp_path), "--workload", "q6_cold", "--seed", "1",
                "--seconds", "1", "--trace", "0", check=False)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_stopwatch_prices_a_segment_from_both_sides():
    watch = calibrate.Stopwatch(least=3)
    sum(range(100_000))
    seconds, factor = watch.lap()
    assert seconds > 0 and factor > 0
    # Three samples before the segment and three after it.
    assert len(watch.samples) == 6
    assert factor == calibrate.REFERENCE_S / statistics.median(watch.samples)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert driver.percentile(values, 50) == 50
    assert driver.percentile(values, 95) == 95
    assert driver.percentile([7.0], 99) == 7.0
