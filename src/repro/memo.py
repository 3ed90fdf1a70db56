"""A bounded, thread-safe LRU memo for exact, deterministic results.

Three caches share this class: the CP-ABE KEM caches of
:mod:`repro.abe.hybrid`, the BN254 point-decode memo of
:mod:`repro.crypto.group`, and a client's verified-entry memo in
:mod:`repro.core.app_signature`.  Each keys a deterministic computation
by exactly the inputs it depends on, so a hit returns what a miss would
compute; a miss runs the uncached code path unchanged.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Hashable, Optional


class BoundedMemo:
    """Bounded LRU of computed values.

    Look-ups and inserts run under ``lock``; the value is computed outside
    it.  :meth:`clear` starts a new generation, and a value computed before
    a clear is never stored after it.  Failures are never stored: an
    exception propagates, and a ``None`` or ``False`` result is returned
    to its caller but not kept, so the next call computes it again.
    ``observe`` is told each ``"hit"``, ``"miss"`` and ``"evicted"``.
    """

    def __init__(
        self,
        size: int,
        lock: Optional[threading.Lock] = None,
        observe: Optional[Callable[[str], None]] = None,
    ):
        self.size = max(1, size)
        self._lock = lock if lock is not None else threading.Lock()
        self._observe = observe if observe is not None else (lambda _outcome: None)
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self._generation = 0

    def get_or_make(self, key: Hashable, make: Callable[[], object]):
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
            generation = self._generation
        if value is not None:
            self._observe("hit")
            return value
        self._observe("miss")
        value = make()
        if value is None or value is False:
            return value
        evicted = False
        with self._lock:
            if generation == self._generation:
                self._entries[key] = value
                if len(self._entries) > self.size:
                    self._entries.popitem(last=False)
                    evicted = True
        if evicted:
            self._observe("evicted")
        return value

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._generation += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
