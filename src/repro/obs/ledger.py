"""Per-query cost attribution: where did this trace's time actually go?

Spans answer "what happened, in what order"; the :class:`CostLedger`
answers the operator's budgeting question — *per logical query*, how
many seconds went to each named stage of the pipeline, and how much
crypto work rode along.  Every instrumented layer charges the ledger
under the query's trace id:

========================  ====================================================
stage                     charged by
========================  ====================================================
``traverse``              :func:`repro.core.engine.execute`
                          (crypto-free tree walk; recorded together with
                          ``materialize``)
``materialize``           :func:`repro.core.engine.materialize`
                          (ABS.Relax batch, APS cache, dedup)
``seal``                  :meth:`repro.core.system.ServiceProvider._respond`
                          (CP-ABE KEM, cached per role set, + AES/HMAC)
``wire``                  :func:`repro.net.client.wire_exchange` — round-trip
                          time *exclusive* of server-side stages charged to
                          the same trace during the call, so an in-process
                          loopback does not double-count engine work
``open``                  :meth:`repro.core.system.QueryUser._open`
                          (CP-ABE decapsulation, memoized per header, +
                          MAC check and AES)
``codec``                 :func:`repro.net.client.wire_exchange` (response
                          frame decode) and
                          :meth:`repro.core.system.QueryUser._open` (VO
                          decode); points go through the decode memo
``verify``                :func:`repro.net.client.wire_exchange` (client-side
                          VO verification, exclusive of ``open`` and
                          ``codec``)
``merge``                 :meth:`repro.net.sharding.ShardedClient._merge`
                          (scatter-gather VO merge + completeness check)
========================  ====================================================

Counters (relax calls, APS cache hits/misses, dedup, ``kem_hits`` /
``kem_misses`` for the SP's encapsulation cache, ``kem_memo_hits`` /
``kem_memo_misses`` for the client's header memo,
``verify_memo_hits`` / ``verify_memo_misses`` for the client's
verified-entry memo) and
:class:`~repro.crypto.groupops.GroupOpStats` deltas accumulate per
trace the same way.  Entries are bounded LRU; everything is a no-op
when the obs gate is off or no trace is active (``trace_id=None``).

A call site that finishes several stages at once records them with one
:meth:`CostLedger.record`.  Per-item events on the client's hot path
(memo look-ups, several per VO) are not charged one by one: they bump
this thread's :func:`tally`, and ``wire_exchange`` folds the exchange's
tally delta into its single record.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Mapping, Optional, Sequence

from repro.obs import gate

#: The canonical pipeline stages, in execution order.
STAGES = ("traverse", "materialize", "seal", "wire", "open", "codec", "verify", "merge")


class QueryLedger:
    """One query's cost account: stage seconds, counters, group ops."""

    __slots__ = ("trace_id", "stages", "counters", "group_ops", "wall_seconds")

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.stages: dict[str, float] = {}
        self.counters: dict[str, float] = {}
        self.group_ops: dict[str, int] = {}
        self.wall_seconds: Optional[float] = None

    def stage_total(self) -> float:
        """Sum of all stage charges (the accounted share of wall time)."""
        return sum(self.stages.values())

    def as_dict(self) -> dict:
        out = {
            "trace_id": self.trace_id,
            "stages": {s: self.stages[s] for s in STAGES if s in self.stages},
            "stage_total_seconds": self.stage_total(),
        }
        if self.wall_seconds is not None:
            out["wall_seconds"] = self.wall_seconds
        if self.counters:
            out["counters"] = dict(self.counters)
        if self.group_ops:
            out["group_ops"] = dict(self.group_ops)
        return out


class CostLedger:
    """Bounded per-trace cost accounts, LRU by trace id."""

    def __init__(self, max_queries: int = 256):
        self.max_queries = max_queries
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, QueryLedger]" = OrderedDict()
        #: Total mutator calls that actually charged an entry — the
        #: disabled-overhead guard scales this by the per-call no-op cost.
        self.total_charges = 0

    def _entry(self, trace_id: str) -> QueryLedger:
        entry = self._entries.get(trace_id)
        if entry is None:
            entry = self._entries[trace_id] = QueryLedger(trace_id)
            while len(self._entries) > self.max_queries:
                self._entries.popitem(last=False)
        else:
            self._entries.move_to_end(trace_id)
        return entry

    # -- mutators (no-ops when gated off or untraced) ------------------------
    def record(self, trace_id: Optional[str], stages: Mapping[str, float],
               **counters: float) -> None:
        """Add seconds to each of ``stages`` and accumulate ``counters``, as one charge."""
        if trace_id is None or not gate.enabled():
            return
        for stage in stages:
            if stage not in STAGES:
                raise ValueError(f"unknown ledger stage {stage!r}; know {STAGES}")
        with self._lock:
            entry = self._entry(trace_id)
            for stage, seconds in stages.items():
                entry.stages[stage] = entry.stages.get(stage, 0.0) + max(0.0, seconds)
            for name, amount in counters.items():
                if amount:
                    entry.counters[name] = entry.counters.get(name, 0) + amount
            self.total_charges += 1

    def charge(self, trace_id: Optional[str], stage: str, seconds: float) -> None:
        """Add ``seconds`` to ``stage`` for a trace."""
        self.record(trace_id, {stage: seconds})

    def count(self, trace_id: Optional[str], **counters: float) -> None:
        """Accumulate named counters (relax calls, cache hits, dedup...)."""
        self.record(trace_id, {}, **counters)

    def merge_group_ops(self, trace_id: Optional[str],
                        delta: Mapping[str, int]) -> None:
        """Fold a ``GroupOpStats`` delta (``as_dict`` form) into a trace."""
        if trace_id is None or not gate.enabled():
            return
        with self._lock:
            entry = self._entry(trace_id)
            for op, n in delta.items():
                if n:
                    entry.group_ops[op] = entry.group_ops.get(op, 0) + n
            self.total_charges += 1

    def set_wall(self, trace_id: Optional[str], seconds: float) -> None:
        """Record the query's observed end-to-end wall time."""
        if trace_id is None or not gate.enabled():
            return
        with self._lock:
            self._entry(trace_id).wall_seconds = seconds
            self.total_charges += 1

    # -- read side -----------------------------------------------------------
    def get(self, trace_id: Optional[str]) -> Optional[QueryLedger]:
        if trace_id is None:
            return None
        with self._lock:
            return self._entries.get(trace_id)

    def stage_seconds(self, trace_id: Optional[str],
                      stages: Sequence[str]) -> float:
        """Current total of the given stages for a trace (0 when unknown).

        ``wire_exchange`` samples this before and after a round trip to
        subtract same-trace server-side work from the wire charge.
        """
        if trace_id is None:
            return 0.0
        with self._lock:
            entry = self._entries.get(trace_id)
            if entry is None:
                return 0.0
            return sum(entry.stages.get(s, 0.0) for s in stages)

    def last(self) -> Optional[QueryLedger]:
        with self._lock:
            if not self._entries:
                return None
            return next(reversed(self._entries.values()))

    def entries(self, n: Optional[int] = None) -> list[QueryLedger]:
        """Most-recent-first ledger entries (all when ``n`` is None)."""
        with self._lock:
            out = list(reversed(self._entries.values()))
        return out if n is None else out[:n]

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


_LEDGER = CostLedger()


def ledger() -> CostLedger:
    """The process-wide cost ledger every stage charges into."""
    return _LEDGER


class _Tally(threading.local):
    def __init__(self):
        self.counts: dict[str, int] = {}


_TALLY = _Tally()


def tally(name: str) -> None:
    """Count one ``name`` event on this thread (no-op when gated off)."""
    if gate.enabled():
        counts = _TALLY.counts
        counts[name] = counts.get(name, 0) + 1


def tally_snapshot() -> dict[str, int]:
    """This thread's tally so far, for a later :func:`tally_since`."""
    return dict(_TALLY.counts)


def tally_since(before: Mapping[str, int]) -> dict[str, int]:
    """The events this thread has tallied since ``before`` was taken."""
    return {
        name: n - before.get(name, 0)
        for name, n in _TALLY.counts.items() if n != before.get(name, 0)
    }


__all__ = [
    "STAGES", "CostLedger", "QueryLedger", "ledger",
    "tally", "tally_since", "tally_snapshot",
]
