"""Cross-query windowed VO verification (client side).

Every response's signatures already settle in one merged pairing product
(:func:`repro.core.verifier.settle`).  The APS signatures in
*consecutive* responses share the same super policy too — the same user
keeps the same missing-role set — so the merge compounds across queries:
a :class:`VerificationWindow` defers the APS obligations of up to
``size`` responses and settles them all through one product at flush
time.

The trade-off is explicit and opt-in: within a window, results are
**provisional** — structural checks (completeness tiling, accessible
records' APP signatures, envelope decryption) still run per response,
but a forged APS is only caught at the next flush.  The flush attributes
the failure exactly (which response, which region, via the
per-signature fallback) and raises
:class:`~repro.errors.SoundnessError`; an application that acts on
provisional results must be prepared to unwind them when the window it
belongs to fails.  Latency-sensitive, trust-eager callers should keep
``verification_window=None`` (verify-per-response, the default);
throughput-oriented callers amortize the pairing cost over the window.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.core.verifier import collect_vo, settle
from repro.errors import ReproError, SoundnessError
from repro.obs import metrics as _metrics

_REG = _metrics.registry()
_M_WINDOW = _REG.counter(
    "repro_window_flush_total",
    "Verification-window flushes by trigger ('full', 'explicit', "
    "'empty') and outcome ('ok', 'invalid').",
    labelnames=("trigger", "outcome"),
)
_M_DEFERRED = _REG.counter(
    "repro_window_deferred_total",
    "APS signature checks deferred into a verification window.",
)


@dataclass(frozen=True)
class _PendingResponse:
    """One response's deferred share of the window."""

    seq: int
    query: object
    first_item: int  # offset of its obligations in the window's flat batch
    count: int


class VerificationWindow:
    """Defer APS batch checks over up to ``size`` responses.

    Drop-in for ``user.verify`` on equality/range responses: ``verify``
    opens and structurally checks the response, returns its accessible
    records immediately, and queues the APS obligations.  The window
    settles automatically when the ``size``-th response arrives, and on
    demand via :meth:`flush` — call it before trusting the provisional
    results of a batch of queries (and at shutdown).

    Join responses are out of scope: clients keep verifying joins per
    response.
    """

    def __init__(self, user, size: int = 8):
        if size < 1:
            raise ReproError("verification window size must be >= 1")
        self.user = user
        self.size = size
        self._lock = threading.Lock()
        self._items: list = []
        self._responses: list[_PendingResponse] = []
        self._seq = 0
        #: Responses settled through this window (monotonic).
        self.settled = 0
        #: Windows that flushed with an invalid signature (monotonic).
        self.failures = 0

    @property
    def pending(self) -> int:
        """Responses whose APS checks have not settled yet."""
        with self._lock:
            return len(self._responses)

    def verify(self, response):
        """Structurally verify ``response``; defer its APS batch.

        Returns the accessible records immediately (provisional until
        the next flush).  Raises like ``user.verify`` for everything
        checked eagerly: completeness violations, tampered accessible
        records, undecryptable envelopes.
        """
        user = self.user
        vo = user._open(response)
        authenticator = user.authenticator
        roles = authenticator.universe.validate_user_roles(user.roles)
        records, obligations = collect_vo(
            vo, authenticator, response.query, roles, user._missing_roles()
        )
        settle([ob for ob in obligations if ob.kind == "APP"], authenticator)
        items = [ob for ob in obligations if ob.kind == "APS"]
        if items:
            _M_DEFERRED.inc(len(items))
        flush_batch = None
        with self._lock:
            self._seq += 1
            self._responses.append(
                _PendingResponse(
                    seq=self._seq,
                    query=response.query,
                    first_item=len(self._items),
                    count=len(items),
                )
            )
            self._items.extend(items)
            if len(self._responses) >= self.size:
                flush_batch = self._drain()
        if flush_batch is not None:
            self._settle(*flush_batch, trigger="full")
        return records

    def flush(self) -> int:
        """Settle every deferred check now; returns responses settled.

        Raises :class:`~repro.errors.SoundnessError` naming the failing
        response and region if any deferred APS signature is invalid.
        """
        with self._lock:
            batch = self._drain()
        if batch is None:
            _M_WINDOW.inc(trigger="empty", outcome="ok")
            return 0
        return self._settle(*batch, trigger="explicit")

    def _drain(self):
        """Take the current batch out of the window (lock held)."""
        if not self._responses:
            return None
        batch = (self._items, self._responses)
        self._items = []
        self._responses = []
        return batch

    def _settle(self, items: list, responses: list[_PendingResponse],
                trigger: str) -> int:
        bad = self.user.authenticator.settle_failures(items)
        if bad:
            self.failures += 1
            _M_WINDOW.inc(trigger=trigger, outcome="invalid")
            blamed = sorted(
                ((*self._attribute(responses, index), items[index].region) for index in bad),
                key=lambda b: b[0],
            )
            detail = "; ".join(
                f"response #{seq} ({query}): region {region}"
                for seq, query, region in blamed
            )
            raise SoundnessError(
                f"windowed batch verification failed — invalid APS "
                f"signature(s) in {detail}; every provisional result in "
                f"this window is untrusted"
            )
        self.settled += len(responses)
        _M_WINDOW.inc(trigger=trigger, outcome="ok")
        return len(responses)

    @staticmethod
    def _attribute(responses: list[_PendingResponse], item_index: int):
        """Map a flat batch index back to (response seq, query)."""
        for pending in responses:
            if 0 <= item_index - pending.first_item < pending.count:
                return pending.seq, pending.query
        raise ReproError(f"batch index {item_index} outside the window ledger")
