"""A bounded, thread-safe LRU memo for exact, deterministic results.

These caches share this class: the CP-ABE KEM caches of
:mod:`repro.abe.hybrid`, the comb tables and ``hash_to_g1`` memo of
:mod:`repro.crypto.group`, the SP's APS cache, and a client's
verified-entry memo in :mod:`repro.core.app_signature`.  Each keys a
deterministic computation by exactly the inputs it depends on, so a hit
returns what a miss would compute; a miss runs the uncached code path
unchanged.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Hashable, Optional


class BoundedMemo:
    """Bounded LRU of computed values.

    Look-ups and inserts run under ``lock``; the value is computed outside
    it.  :meth:`clear` starts a new generation, and a value computed before
    a clear is never stored after it: :meth:`get_or_make` sees to that
    itself, and a caller of :meth:`get` and :meth:`put` reads
    :attr:`generation` before its look-ups and hands it to :meth:`put`.
    Failures are never stored: an exception propagates, and a ``None`` or
    ``False`` result is returned to its caller but not kept, so the next
    call computes it again.
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

    @property
    def generation(self) -> int:
        """The current generation; pass it to :meth:`put` for a value
        computed from what was read after this call."""
        with self._lock:
            return self._generation

    def get(self, key: Hashable):
        """The stored value for ``key`` (marked recently used), or ``None``."""
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
        self._observe("hit" if value is not None else "miss")
        return value

    def put(self, key: Hashable, value, generation: int) -> None:
        """Store ``value`` unless it is a failure or a :meth:`clear` came
        after ``generation`` was read."""
        if value is None or value is False:
            return
        evicted = False
        with self._lock:
            if generation == self._generation:
                self._entries[key] = value
                if len(self._entries) > self.size:
                    self._entries.popitem(last=False)
                    evicted = True
        if evicted:
            self._observe("evicted")

    def get_or_make(self, key: Hashable, make: Callable[[], object]):
        generation = self.generation
        value = self.get(key)
        if value is not None:
            return value
        value = make()
        self.put(key, value, generation)
        return value

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._generation += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
