"""Tests for the process-pool executor and makespan simulator (Section 8.2)."""

import os
import subprocess
import sys
import threading

import pytest

from repro.errors import ProcessWorkerError, ReproError
from repro.parallel import (
    MAX_WORKERS,
    InFlightTable,
    MakespanSimulator,
    parallel_map,
    process_pool,
    resolve_workers,
    shutdown_process_pools,
)


# Process workers import this module by name under the spawn start
# method, so everything they run must live at module level.
_WORKER_STATE = {}


def _square(x):
    return x * x


def _increment(x):
    return x + 1


def _identity(x):
    return x


def _double(x):
    return x * 2


def _boom(x):
    raise ValueError("boom")


def _boom_on_odd(x):
    if x % 2:
        raise ValueError(f"cannot process {x}")
    return x


def _boom_on_three(x):
    if x == 3:
        raise ValueError(f"cannot process {x}")
    return x


class _Unpicklable(Exception):
    def __init__(self, msg):
        super().__init__(msg)
        self.lock = threading.Lock()  # locks never pickle


def _raise_unpicklable(x):
    raise _Unpicklable(f"held a lock while failing on {x}")


def _init_state(token):
    _WORKER_STATE["token"] = token


def _read_state(_):
    return _WORKER_STATE.get("token")


@pytest.fixture(scope="module", autouse=True)
def _pool_cleanup():
    yield
    shutdown_process_pools()


def test_parallel_map_preserves_order():
    items = list(range(100))
    for workers in (1, 2):
        assert parallel_map(_increment, items, workers) == [x + 1 for x in items]


def test_parallel_map_empty_and_single():
    assert parallel_map(_identity, [], workers=2) == []
    assert parallel_map(_double, [21], workers=2) == [42]


def test_parallel_map_propagates_exceptions():
    with pytest.raises(ValueError):
        parallel_map(_boom, [1, 2], workers=2)


def test_parallel_map_failure_carries_item_index():
    for workers in (1, 2):
        with pytest.raises(ValueError) as excinfo:
            parallel_map(_boom_on_odd, [0, 2, 4, 5, 6], workers=workers)
        assert excinfo.value.parallel_map_index == 3
        if hasattr(excinfo.value, "__notes__"):
            assert any("item #3" in note for note in excinfo.value.__notes__)


def test_parallel_map_rejects_bad_workers():
    with pytest.raises(ReproError):
        parallel_map(_identity, [1], workers=0)
    with pytest.raises(ReproError, match="MAX_WORKERS"):
        parallel_map(_identity, [1, 2], workers=MAX_WORKERS + 1)
    # The cap itself is fine (checked without starting that many workers).
    assert resolve_workers(MAX_WORKERS) == MAX_WORKERS


def test_workers_none_auto_sizes_from_cpu_count():
    expected = max(1, min(os.cpu_count() or 1, MAX_WORKERS))
    assert resolve_workers(None) == expected
    assert parallel_map(_increment, [1, 2, 3], workers=None) == [2, 3, 4]
    with pytest.raises(ReproError):
        resolve_workers(0)
    with pytest.raises(ReproError, match="MAX_WORKERS"):
        resolve_workers(MAX_WORKERS + 1)


def test_unknown_backend_rejected():
    """The executor switch is gone: a caller still passing it fails loudly."""
    with pytest.raises(TypeError, match="backend"):
        parallel_map(_identity, [1], backend="thread")


# ----------------------------------------------------------------------
# The persistent spawn pool.
# ----------------------------------------------------------------------
def test_process_backend_maps_in_order():
    items = list(range(12))
    got = parallel_map(_square, items, workers=2, timeout=120)
    assert got == [x * x for x in items]
    # Single-item batches still route through the pool (initializer state).
    assert parallel_map(_square, [7], workers=2) == [49]
    assert parallel_map(_square, [], workers=2) == []


def test_process_pool_persists_between_batches():
    pool = process_pool(2)
    parallel_map(_square, [1, 2], workers=2, timeout=120)
    assert process_pool(2) is pool
    # A different initializer payload gets its own pool.
    assert process_pool(2, _init_state, ("a",)) is not pool


def test_process_initializer_runs_once_per_worker():
    got = parallel_map(
        _read_state, range(6), workers=2,
        initializer=_init_state, initargs=("warm",), timeout=120,
    )
    assert got == ["warm"] * 6
    # The dispatching process's module state is untouched.
    assert "token" not in _WORKER_STATE


def test_process_exception_fidelity_across_pickling():
    """The index annotation lands on the unpickled exception copy."""
    with pytest.raises(ValueError, match="cannot process 3") as excinfo:
        parallel_map(
            _boom_on_three, [0, 1, 2, 3, 4], workers=2,
            timeout=120,
        )
    assert excinfo.value.parallel_map_index == 3
    if hasattr(excinfo.value, "__notes__"):
        assert any("item #3" in note for note in excinfo.value.__notes__)


def test_process_unpicklable_exception_is_wrapped():
    """A failure the pipe cannot carry surfaces typed, with a traceback."""
    with pytest.raises(ProcessWorkerError, match="_Unpicklable") as excinfo:
        parallel_map(
            _raise_unpicklable, [5], workers=2, timeout=120,
        )
    assert "held a lock while failing on 5" in str(excinfo.value)


_EXIT_RIGHT_AFTER_A_BATCH = """
from repro.parallel import parallel_map

if __name__ == "__main__":
    print(parallel_map(abs, [-1], workers=2))
"""


def test_interpreter_exit_right_after_a_batch_is_quiet(tmp_path):
    """A script that exits as soon as its first 2-worker batch returns
    (the second worker may still be starting) leaves stderr empty."""
    script = tmp_path / "one_batch.py"
    script.write_text(_EXIT_RIGHT_AFTER_A_BATCH)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    for _ in range(4):
        done = subprocess.run(
            [sys.executable, str(script)], capture_output=True, text=True,
            env=env, timeout=120,
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, "[1]\n", "")


# ----------------------------------------------------------------------
# Single-flight deduplication.
# ----------------------------------------------------------------------
def test_inflight_first_caller_owns():
    table = InFlightTable()
    slot, owner = table.begin("k")
    assert owner
    again, second_owner = table.begin("k")
    assert not second_owner and again is slot
    table.publish("k", slot, value=42)
    assert table.wait(again, timeout=1.0) == 42
    assert len(table) == 0
    # Completed flights are not cached: the next caller owns afresh.
    _, owns = table.begin("k")
    assert owns


def test_inflight_waiters_unblock_concurrently():
    table = InFlightTable()
    slot, _ = table.begin("k")
    seen = []

    def waiter():
        joined, owns = table.begin("k")
        assert not owns
        seen.append(table.wait(joined, timeout=10))

    threads = [threading.Thread(target=waiter) for _ in range(4)]
    for t in threads:
        t.start()
    table.publish("k", slot, value="result")
    for t in threads:
        t.join(timeout=10)
    assert seen == ["result"] * 4


def test_inflight_error_propagates_to_waiters():
    table = InFlightTable()
    slot, _ = table.begin("k")
    joined, _ = table.begin("k")
    table.publish("k", slot, error=RuntimeError("owner failed"))
    with pytest.raises(RuntimeError, match="owner failed"):
        table.wait(joined, timeout=1.0)


def test_inflight_wait_times_out():
    table = InFlightTable()
    slot, _ = table.begin("k")
    joined, _ = table.begin("k")
    with pytest.raises(ReproError, match="timed out"):
        table.wait(joined, timeout=0.01)


def test_makespan_single_worker_is_total_work():
    sim = MakespanSimulator([3.0, 1.0, 2.0], serial_overhead=0.5)
    assert sim.makespan(1) == pytest.approx(6.5)
    assert sim.total_work == pytest.approx(6.5)


def test_makespan_perfect_split():
    sim = MakespanSimulator([1.0] * 8)
    assert sim.makespan(8) == pytest.approx(1.0)
    assert sim.makespan(4) == pytest.approx(2.0)


def test_makespan_bounded_by_longest_job():
    sim = MakespanSimulator([10.0, 1.0, 1.0])
    assert sim.makespan(100) == pytest.approx(10.0)


def test_makespan_monotone_in_workers():
    sim = MakespanSimulator([5, 3, 3, 2, 2, 1, 1, 1], serial_overhead=1.0)
    spans = [sim.makespan(k) for k in (1, 2, 4, 8, 16)]
    assert spans == sorted(spans, reverse=True)


def test_serial_overhead_caps_speedup():
    # Amdahl: with 50% serial work, speedup < 2 forever.
    sim = MakespanSimulator([0.1] * 10, serial_overhead=1.0)
    results = sim.sweep((1, 1000))
    assert results[-1].speedup < 2.0


def test_sweep_reports_speedups():
    sim = MakespanSimulator([1.0] * 16)
    results = sim.sweep((1, 2, 4))
    assert [r.workers for r in results] == [1, 2, 4]
    assert results[0].speedup == pytest.approx(1.0)
    assert results[1].speedup == pytest.approx(2.0)
    assert results[2].speedup == pytest.approx(4.0)


def test_empty_jobs():
    sim = MakespanSimulator([], serial_overhead=2.0)
    assert sim.makespan(4) == pytest.approx(2.0)


def test_negative_costs_rejected():
    with pytest.raises(ReproError):
        MakespanSimulator([-1.0])
    sim = MakespanSimulator([1.0])
    with pytest.raises(ReproError):
        sim.makespan(0)
