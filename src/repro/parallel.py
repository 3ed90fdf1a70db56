"""Acceleration by parallelism (paper Section 8.2) and its simulation.

The dominant SP cost for range/join queries is the batch of independent
``ABS.Relax`` operations — embarrassingly parallel.  This module provides:

* :func:`parallel_map` — run a function over items on a **persistent,
  spawn-safe process pool**.  Function and items must be picklable; each
  worker runs a one-time ``initializer`` (e.g. rebuilding the
  bilinear-group singleton and pre-warming its comb tables) and then
  serves jobs for the life of the interpreter.  Pure-Python pairing math
  holds the GIL, so separate interpreters are what make cold
  ``ABS.Relax`` batches scale with cores;

* :class:`InFlightTable` — single-flight deduplication for identical
  concurrent computations (the SP uses it to collapse relax tasks shared
  by in-flight queries onto one materialization);
* :class:`MakespanSimulator` — given *measured* per-job costs, compute
  the completion time under ``k`` workers with a greedy (longest
  processing time) scheduler plus a non-parallelizable serial fraction.
  This is how Figure 13 is reproduced on a single-core host: the paper's
  24-hyper-thread blade server is simulated from real single-thread
  measurements (DESIGN.md, Substitution 4).
"""

from __future__ import annotations

import atexit
import hashlib
import heapq
import multiprocessing
import os
import pickle
import threading
import time
import traceback
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, TypeVar

from repro.errors import ProcessWorkerError, ReproError
from repro.obs import gate as _gate
from repro.obs import metrics as _metrics
from repro.obs import relay as _relay
from repro.obs import trace as _trace

T = TypeVar("T")
R = TypeVar("R")

#: Upper bound on any worker pool: beyond this, worker churn dominates any
#: speedup and a mistyped ``workers=10**6`` would exhaust the process.
MAX_WORKERS = 128

#: Persistent process pools kept alive between batches (LRU by config).
#: A spawn-start worker costs ~100 ms plus the initializer's warm-up, so
#: paying it once per (workers, initializer) configuration — instead of
#: once per batch — is what makes process dispatch worth it for ~20 ms
#: relax jobs.
PROCESS_POOL_CACHE_MAX = 4

_REG = _metrics.registry()
_M_JOBS = _REG.counter(
    "repro_parallel_jobs_total", "Jobs executed through parallel_map.",
)
_M_BATCHES = _REG.counter(
    "repro_parallel_batches_total", "parallel_map invocations.",
)
_M_SATURATED = _REG.counter(
    "repro_parallel_workers_saturated_total",
    "Jobs that had to queue because every worker was busy "
    "(batch size beyond worker count).",
)
_M_EXEC = _REG.histogram(
    "repro_parallel_exec_seconds",
    "Per-job execution time: the batch's wall time over its job count.",
)
_M_POOLS = _REG.counter(
    "repro_parallel_process_pools_total",
    "Persistent process-pool lifecycle events.",
    labelnames=("event",),
)


def resolve_workers(workers: Optional[int]) -> int:
    """``workers`` as an executor-ready count.

    ``None`` auto-sizes from :func:`os.cpu_count` (clamped to
    :data:`MAX_WORKERS`) so callers stop guessing the host's core count;
    integers are validated against ``[1, MAX_WORKERS]``.
    """
    if workers is None:
        return max(1, min(os.cpu_count() or 1, MAX_WORKERS))
    if workers < 1:
        raise ReproError("workers must be >= 1")
    if workers > MAX_WORKERS:
        raise ReproError(
            f"workers={workers} exceeds MAX_WORKERS={MAX_WORKERS}; "
            "unbounded worker pools degrade rather than accelerate"
        )
    return workers


def _annotate(exc: BaseException, index: int) -> BaseException:
    """Attach the failing item's index to a worker exception.

    Runs in the *dispatching* process, on the unpickled copy of the
    worker's exception, so the caller sees ``exc.parallel_map_index`` and
    the Python >= 3.11 exception note.

    When a span is active, the failure is additionally recorded as a
    ``worker_exception`` event on it — carrying the worker-side
    traceback when one crossed the pipe — and the dead job's relayed
    span (if any) is grafted in, so a failed relax job is findable by
    trace id, not just by ``parallel_map_index``.
    """
    if getattr(exc, "parallel_map_index", None) is None:
        try:
            exc.parallel_map_index = index
        except AttributeError:
            pass  # __slots__-only exception: the note still lands below
        if hasattr(exc, "add_note"):
            exc.add_note(f"parallel_map: raised while processing item #{index}")
    if _gate.enabled():
        current = _trace.current_span()
        if current is not None:
            fields = {"index": index, "error": f"{type(exc).__name__}: {exc}"}
            worker_tb = getattr(exc, "worker_traceback", None)
            if worker_tb:
                fields["traceback"] = worker_tb
            current.add_event("worker_exception", **fields)
            worker_span = getattr(exc, "worker_span", None)
            if worker_span is not None:
                _relay.attach_worker_span(current, worker_span)
    return exc


class _RelayedResult:
    """A process worker's answer plus its observability freight.

    ``span`` is the worker-side root span in ``to_dict`` form (None when
    the worker ran unobserved) and ``counters`` the worker's counter
    increments for the job (:func:`repro.obs.metrics.counters_delta`
    shape).  The dispatcher unwraps the value, grafts the span under its
    active span, and merges the counters — so results are identical to
    the unobserved path while the trace crosses the pipe.
    """

    __slots__ = ("value", "span", "counters")

    def __init__(self, value, span, counters):
        self.value = value
        self.span = span
        self.counters = counters

    def __getstate__(self):
        return (self.value, self.span, self.counters)

    def __setstate__(self, state):
        self.value, self.span, self.counters = state


def _transportable(exc: Exception) -> Exception:
    """``exc`` if it survives pickling, else a ProcessWorkerError proxy."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return ProcessWorkerError(
            f"unpicklable worker exception {type(exc).__name__}: {exc}\n"
            + traceback.format_exc()
        )


def _process_call(fn: Callable[[T], R], item: T,
                  trace_id=None, observed: bool = False):
    """Worker-side wrapper: keep failures transportable across the pipe.

    An exception whose type or state cannot be pickled would otherwise
    surface in the parent as an opaque pool plumbing error; re-raise it
    as a :class:`ProcessWorkerError` carrying the formatted traceback.

    With ``observed=True`` (the dispatcher saw the obs gate on), the job
    runs inside a ``parallel.worker`` root span adopting the propagated
    ``trace_id``, and the result ships back as a :class:`_RelayedResult`
    carrying the finished span plus the worker's counter deltas.  On
    failure the span and worker traceback ride on the exception itself
    (``worker_span`` / ``worker_traceback`` attributes — preserved by
    exception pickling), so the dispatcher can graft the dead job into
    the query's trace.
    """
    if not observed:
        try:
            return fn(item)
        except Exception as exc:
            proxy = _transportable(exc)
            if proxy is exc:
                raise
            raise proxy from None
    if not _gate.enabled():
        # Dispatcher and worker disagree on the gate (env drift): still
        # wrap, so the dispatcher's unwrap path stays uniform.
        try:
            return _RelayedResult(fn(item), None, None)
        except Exception as exc:
            proxy = _transportable(exc)
            if proxy is exc:
                raise
            raise proxy from None
    before = _metrics.registry().counters_snapshot()
    ctx = _trace.tracer().start_span(
        "parallel.worker", trace_id=trace_id,
        job=getattr(fn, "__qualname__", repr(fn)), pid=os.getpid(),
    )
    wspan = ctx.__enter__()
    try:
        value = fn(item)
    except Exception as exc:
        ctx.__exit__(type(exc), exc, exc.__traceback__)
        worker_tb = traceback.format_exc()
        proxy = _transportable(exc)
        try:
            proxy.worker_span = wspan.to_dict()
            proxy.worker_traceback = worker_tb
        except AttributeError:
            pass  # __slots__-only exception: the event still carries the class
        if proxy is exc:
            raise
        raise proxy from None
    ctx.__exit__(None, None, None)
    delta = _metrics.counters_delta(before, _metrics.registry().counters_snapshot())
    return _RelayedResult(value, wspan.to_dict(), delta or None)


# ----------------------------------------------------------------------
# Persistent process pools.
# ----------------------------------------------------------------------
_POOLS_LOCK = threading.Lock()
_POOLS: "OrderedDict[tuple, ProcessPoolExecutor]" = OrderedDict()


def _pool_key(workers: int, initializer, initargs: tuple) -> tuple:
    init_name = (
        f"{getattr(initializer, '__module__', '')}"
        f".{getattr(initializer, '__qualname__', repr(initializer))}"
        if initializer is not None
        else ""
    )
    # initargs are required picklable anyway; hash the serialized form so
    # pools are never shared between different warm-up payloads (e.g. two
    # distinct verification keys).
    digest = hashlib.sha256(pickle.dumps(initargs, protocol=4)).hexdigest()
    return (workers, init_name, digest)


def process_pool(
    workers: Optional[int] = None,
    initializer: Optional[Callable] = None,
    initargs: tuple = (),
) -> ProcessPoolExecutor:
    """The shared spawn-context process pool for a worker configuration.

    Pools persist across :func:`parallel_map` calls (keyed by worker
    count, initializer, and the serialized ``initargs``) so the spawn and
    warm-up cost is paid once, not per batch.  The *spawn* start method
    is used unconditionally: it is the only method that is safe with
    threads and identical across platforms, and it guarantees workers
    rebuild their own bilinear-group singletons instead of inheriting
    forked cache state.
    """
    workers = resolve_workers(workers)
    key = _pool_key(workers, initializer, initargs)
    with _POOLS_LOCK:
        pool = _POOLS.get(key)
        if pool is not None:
            _POOLS.move_to_end(key)
            return pool
        pool = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context("spawn"),
            initializer=initializer,
            initargs=initargs,
        )
        _M_POOLS.inc(event="created")
        _POOLS[key] = pool
        stale = []
        while len(_POOLS) > PROCESS_POOL_CACHE_MAX:
            _, old = _POOLS.popitem(last=False)
            stale.append(old)
            _M_POOLS.inc(event="evicted")
    for old in stale:
        old.shutdown(wait=False, cancel_futures=True)
    return pool


def _discard_pool(pool: ProcessPoolExecutor) -> None:
    """Drop a broken pool from the cache so the next batch gets a fresh one."""
    with _POOLS_LOCK:
        for key, cached in list(_POOLS.items()):
            if cached is pool:
                del _POOLS[key]
                _M_POOLS.inc(event="broken")
                break
    pool.shutdown(wait=False, cancel_futures=True)


def shutdown_process_pools() -> None:
    """Shut down every cached process pool (tests, interpreter exit).

    Queued jobs are cancelled, and the call waits for the workers to
    exit: a worker still starting up when the interpreter tears down its
    pipes would otherwise fail noisily on stderr.
    """
    with _POOLS_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.shutdown(wait=True, cancel_futures=True)


atexit.register(shutdown_process_pools)


# ----------------------------------------------------------------------
# parallel_map
# ----------------------------------------------------------------------
def _collect(futures, timeout: Optional[float]) -> list:
    """Results in submission order, annotating the earliest failure."""
    deadline = None if timeout is None else time.monotonic() + timeout
    out = []
    for index, future in enumerate(futures):
        remaining = None
        if deadline is not None:
            remaining = max(0.0, deadline - time.monotonic())
        try:
            out.append(future.result(timeout=remaining))
        except FutureTimeoutError:
            for pending in futures:
                pending.cancel()
            raise ReproError(
                f"parallel_map timed out after {timeout}s waiting for item "
                f"#{index}"
            ) from None
        except Exception as exc:
            raise _annotate(exc, index)
    return out


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    workers: Optional[int] = 1,
    initializer: Optional[Callable] = None,
    initargs: tuple = (),
    timeout: Optional[float] = None,
) -> list[R]:
    """Map ``fn`` over ``items`` on the persistent process pool (order preserved).

    ``workers=None`` auto-sizes from :func:`os.cpu_count` (clamped to
    :data:`MAX_WORKERS`).  ``fn``, ``items`` and results must be
    picklable, and ``initializer(*initargs)`` runs once per worker before
    its first job (see :func:`process_pool`).  Even a single-item batch
    goes through the pool: jobs may rely on initializer state the
    dispatching process does not have.

    A worker exception is re-raised annotated with the failing item's
    index (``exc.parallel_map_index``, plus an exception note on
    Python >= 3.11), so a batch of thousands of ``ABS.Relax`` jobs
    pinpoints the job that failed.  ``timeout`` (seconds, whole batch)
    bounds how long the dispatcher waits on stuck workers.

    When observability is on, each job records the batch's amortized
    execution time, and jobs beyond the worker count bump
    ``repro_parallel_workers_saturated_total`` — the signal that a batch
    was limited by ``workers`` rather than by work.
    """
    items = list(items)
    workers = resolve_workers(workers)
    observed = _gate.enabled()
    if observed:
        _M_BATCHES.inc()
        if items:
            _M_JOBS.inc(len(items))
        if len(items) > workers:
            _M_SATURATED.inc(len(items) - workers)
    if not items:
        return []
    pool = process_pool(workers, initializer, initargs)
    start = time.perf_counter()
    trace_id = _trace.current_trace_id() if observed else None
    try:
        if observed:
            futures = [
                pool.submit(_process_call, fn, item, trace_id, True)
                for item in items
            ]
        else:
            futures = [pool.submit(_process_call, fn, item) for item in items]
        results = _collect(futures, timeout)
    except ReproError:
        raise
    except Exception as exc:
        # BrokenProcessPool and friends: the pool is unusable — retire it
        # so the *next* batch gets a fresh one, and surface a typed error.
        if type(exc).__name__ == "BrokenProcessPool":
            _discard_pool(pool)
            raise ProcessWorkerError(
                f"process pool broke while executing a batch of {len(items)}: {exc}"
            ) from exc
        raise
    if observed:
        # Per-job queue/exec split is invisible across the pipe; record
        # the batch's amortized per-job wall time instead.
        elapsed = time.perf_counter() - start
        per_job = elapsed / len(items)
        for _ in items:
            _M_EXEC.observe(per_job)
        results = _unwrap_relayed(results)
    return results


def _unwrap_relayed(results: list) -> list:
    """Unpack :class:`_RelayedResult` freight from an observed batch.

    Worker spans graft as children of the dispatcher's active span
    (``engine.materialize`` for relax batches), and worker counter
    deltas merge into the local registry — the same convention
    ``GroupOpStats`` merging established in :mod:`repro.core.engine`.
    """
    parent = _trace.current_span()
    out = []
    for result in results:
        if not isinstance(result, _RelayedResult):
            out.append(result)
            continue
        if result.span is not None:
            _relay.attach_worker_span(parent, result.span)
        if result.counters:
            _metrics.registry().merge_counters(result.counters)
        out.append(result.value)
    return out


# ----------------------------------------------------------------------
# Single-flight deduplication.
# ----------------------------------------------------------------------
class InFlightTable:
    """Collapse identical concurrent computations onto one flight.

    ``begin(key)`` returns ``(slot, owner)``: the first caller for a key
    becomes the owner and must eventually :meth:`publish` a value or an
    error on the slot; concurrent callers with the same key get
    ``owner=False`` and :meth:`wait` for the owner's result instead of
    recomputing it.  Keys are removed at publish time, so *completed*
    work is not cached here — that is the APS cache's job; this table
    only dedups work that is in flight right now.
    """

    class Slot:
        __slots__ = ("event", "value", "error")

        def __init__(self):
            self.event = threading.Event()
            self.value = None
            self.error: Optional[BaseException] = None

    def __init__(self):
        self._lock = threading.Lock()
        self._slots: dict = {}

    def __len__(self) -> int:
        with self._lock:
            return len(self._slots)

    def begin(self, key) -> tuple["InFlightTable.Slot", bool]:
        with self._lock:
            slot = self._slots.get(key)
            if slot is not None:
                return slot, False
            slot = InFlightTable.Slot()
            self._slots[key] = slot
            return slot, True

    def publish(self, key, slot: "InFlightTable.Slot", value=None,
                error: Optional[BaseException] = None) -> None:
        """Resolve a flight (owner only).  Errors propagate to waiters."""
        slot.value = value
        slot.error = error
        with self._lock:
            if self._slots.get(key) is slot:
                del self._slots[key]
        slot.event.set()

    def wait(self, slot: "InFlightTable.Slot", timeout: Optional[float] = None):
        """Block for the owner's result; re-raise its error.

        Raises :class:`ReproError` on timeout — callers should treat that
        as "the owner died" and fall back to computing locally.
        """
        if not slot.event.wait(timeout):
            raise ReproError(
                f"in-flight wait timed out after {timeout}s; owner never published"
            )
        if slot.error is not None:
            raise slot.error
        return slot.value


# ----------------------------------------------------------------------
# Makespan simulation (Figure 13).
# ----------------------------------------------------------------------
@dataclass
class MakespanResult:
    workers: int
    makespan: float
    serial_time: float
    speedup: float


class MakespanSimulator:
    """Greedy multi-worker scheduling over measured job costs.

    ``serial_overhead`` models the non-parallelizable part of query
    processing (tree traversal, VO assembly, I/O) that the paper observes
    capping speedup past ~16 threads.
    """

    def __init__(self, job_costs: Sequence[float], serial_overhead: float = 0.0):
        if any(c < 0 for c in job_costs):
            raise ReproError("job costs must be non-negative")
        self.job_costs = sorted(job_costs, reverse=True)  # LPT order
        self.serial_overhead = serial_overhead

    @property
    def total_work(self) -> float:
        return sum(self.job_costs) + self.serial_overhead

    def makespan(self, workers: int) -> float:
        """Completion time with ``workers`` parallel units (LPT greedy)."""
        if workers < 1:
            raise ReproError("workers must be >= 1")
        if not self.job_costs:
            return self.serial_overhead
        loads = [0.0] * min(workers, len(self.job_costs))
        heapq.heapify(loads)
        for cost in self.job_costs:
            lightest = heapq.heappop(loads)
            heapq.heappush(loads, lightest + cost)
        return max(loads) + self.serial_overhead

    def sweep(self, worker_counts: Iterable[int]) -> list[MakespanResult]:
        """Speedup curve over worker counts (Figure 13's series)."""
        serial = self.makespan(1)
        out = []
        for workers in worker_counts:
            span = self.makespan(workers)
            out.append(
                MakespanResult(
                    workers=workers,
                    makespan=span,
                    serial_time=serial,
                    speedup=serial / span if span > 0 else float("inf"),
                )
            )
        return out
