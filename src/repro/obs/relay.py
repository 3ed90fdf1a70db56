"""Cross-boundary span export: store, ship, and reassemble trace trees.

A trace that crosses a process or wire boundary arrives in pieces: the
client holds the coordinator tree, each SP holds root spans for the
frames it handled, and process-pool relax workers hold one root span per
job.  This module is the glue that makes those pieces one tree again:

* :class:`SpanRelay` — a bounded per-trace store of finished root spans.
  Installed as a :meth:`~repro.obs.trace.Tracer.add_listener` exporter,
  it keeps every finished root span keyed by trace id, as the
  :class:`~repro.obs.trace.Span` itself; its
  :meth:`~repro.obs.trace.Span.to_dict` wire form is built only when the
  trace is served;
  :class:`~repro.net.server.ResilientSPServer` serves its contents over
  the ``TRC`` scrape frame, and :func:`repro.parallel.parallel_map`'s
  process workers ship theirs back alongside results.
* :func:`assemble_trace` — graft remote span trees under the local
  coordinator tree.  Matching is exact, not heuristic: every wire
  attempt records the random 8-byte suffix of its frame request id as a
  ``request_suffix`` attribute on *both* sides (client attempt span,
  server handle span), so a remote root lands under precisely the
  attempt that caused it, across shards, replicas, hedges, and retries.

Serialization is plain JSON over ``Span.to_dict`` — the relay never
imports anything from :mod:`repro.net`, so the net layer can import it
freely.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from typing import Iterable, Optional, Union

from repro.errors import DeserializationError
from repro.obs import gate
from repro.obs import metrics as _metrics
from repro.obs.trace import Span, span_from_dict, tracer

#: Attribute stamped on both ends of a wire attempt: the hex of the
#: request id's random (non-trace) half, the exact-match graft key.
REQUEST_SUFFIX_ATTR = "request_suffix"
#: Attribute marking a grafted span's provenance (endpoint / worker).
RELAY_ORIGIN_ATTR = "relay_origin"

_REG = _metrics.registry()
_M_SPANS = _REG.counter(
    "repro_obs_relay_spans_total",
    "Root spans moved through the span relay, by lifecycle event.",
    labelnames=("event",),
)
_M_TRACES = _REG.gauge(
    "repro_obs_relay_traces", "Distinct trace ids currently held by the relay.",
)
_SPANS = {e: _M_SPANS.labels(event=e) for e in ("stored", "dropped", "evicted")}
_TRACES = _M_TRACES.labels()


def encode_spans(spans: Iterable[dict]) -> bytes:
    """The relay wire form: a JSON array of ``Span.to_dict`` trees."""
    return json.dumps(list(spans), separators=(",", ":")).encode("utf-8")


def decode_spans(data: bytes) -> list[dict]:
    try:
        spans = json.loads(data.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise DeserializationError(f"malformed span relay payload: {exc}") from exc
    if not isinstance(spans, list) or not all(isinstance(s, dict) for s in spans):
        raise DeserializationError("span relay payload must be a list of spans")
    return spans


class SpanRelay:
    """Bounded store of finished root spans, keyed by trace id.

    ``max_traces`` traces are kept LRU; within a trace at most
    ``max_spans_per_trace`` roots are retained (beyond that, new spans
    for the trace are dropped and counted).  All methods are no-ops or
    empty answers when the obs gate is off.
    """

    def __init__(self, max_traces: int = 128, max_spans_per_trace: int = 64):
        self.max_traces = max_traces
        self.max_spans_per_trace = max_spans_per_trace
        self._lock = threading.Lock()
        self._traces: "OrderedDict[str, list[Union[Span, dict]]]" = OrderedDict()

    # -- exporter side -------------------------------------------------------
    def export(self, span: Union[Span, dict]) -> None:
        """Store one finished root span (the tracer-listener entry point).

        A :class:`Span` is kept as is; it is converted to its wire form
        only when :meth:`get` serves it.
        """
        if not gate.enabled():
            return
        trace_id = span.trace_id if isinstance(span, Span) else span.get("trace_id")
        if not trace_id:
            return
        with self._lock:
            spans = self._traces.get(trace_id)
            if spans is None:
                spans = self._traces[trace_id] = []
            else:
                self._traces.move_to_end(trace_id)
            if len(spans) >= self.max_spans_per_trace:
                _SPANS["dropped"].inc()
                return
            spans.append(span)
            while len(self._traces) > self.max_traces:
                self._traces.popitem(last=False)
                _SPANS["evicted"].inc()
            _TRACES.set(len(self._traces))
        _SPANS["stored"].inc()

    def install(self) -> "SpanRelay":
        """Register this relay as a root-span listener on the global tracer."""
        tracer().add_listener(self.export)
        return self

    # -- scrape side ---------------------------------------------------------
    def get(self, trace_id: str) -> list[dict]:
        """Stored root spans for a trace in wire form (oldest first; empty
        when unknown)."""
        with self._lock:
            spans = list(self._traces.get(trace_id) or ())
        if not spans:
            return []
        served = [s.to_dict() if isinstance(s, Span) else dict(s) for s in spans]
        _M_SPANS.inc(len(served), event="served")
        return served

    def trace_ids(self) -> list[str]:
        with self._lock:
            return list(self._traces)

    def __len__(self) -> int:
        with self._lock:
            return sum(len(s) for s in self._traces.values())

    def clear(self) -> None:
        with self._lock:
            self._traces.clear()
        _TRACES.set(0)


_RELAY = SpanRelay()


def relay() -> SpanRelay:
    """The process-wide span relay (server scrapes serve from this)."""
    return _RELAY


def install_relay() -> SpanRelay:
    """Idempotently hook the global relay into the global tracer."""
    return _RELAY.install()


def _index_by_suffix(tree: dict, index: dict, present: set) -> None:
    present.add(tree.get("span_id"))
    suffix = (tree.get("attributes") or {}).get(REQUEST_SUFFIX_ATTR)
    if suffix is not None:
        index[suffix] = tree
    for child in tree.get("children") or ():
        _index_by_suffix(child, index, present)


def _contains_window(tree: dict, remote: dict) -> bool:
    """Fallback graft test: remote ran inside this span's wall-clock window."""
    start, duration = tree.get("start_unix"), tree.get("duration_ms")
    rstart = remote.get("start_unix")
    if start is None or duration is None or rstart is None:
        return False
    return start <= rstart <= start + duration / 1000.0


def assemble_trace(
    root: Union[Span, dict],
    remote_spans: Iterable[dict],
    origin: Optional[str] = None,
) -> dict:
    """Graft remote root spans under the local trace tree.

    Each remote span is attached beneath the local span whose
    ``request_suffix`` attribute matches the remote's (the two halves of
    one wire exchange); spans without a suffix match fall back to
    wall-clock containment under an attempt span, and finally to the
    root, tagged ``relay_origin="unmatched:..."`` so an operator can see
    the relay lost correlation rather than silently dropping spans.
    Remote spans already present in the tree (in-process loopback, where
    server spans nested as ordinary children) are skipped.
    """
    tree = root.to_dict() if isinstance(root, Span) else json.loads(json.dumps(root))
    index: dict = {}
    present: set = set()
    _index_by_suffix(tree, index, present)
    imported = 0
    for remote in remote_spans:
        if remote.get("span_id") in present:
            continue
        node = json.loads(json.dumps(remote))
        attrs = node.setdefault("attributes", {})
        # A collector may have tagged provenance already (shard/endpoint);
        # keep the most specific tag available.
        tag = attrs.get(RELAY_ORIGIN_ATTR) or origin or "remote"
        suffix = attrs.get(REQUEST_SUFFIX_ATTR)
        target = index.get(suffix) if suffix is not None else None
        if target is None:
            target = next(
                (n for n in index.values() if _contains_window(n, remote)),
                None,
            )
        if target is None:
            target = tree
            tag = f"unmatched:{tag}"
        attrs[RELAY_ORIGIN_ATTR] = tag
        target.setdefault("children", []).append(node)
        # Index the graft too: a worker span relayed through two hops
        # (process pool -> server -> client) still lands exactly once.
        _index_by_suffix(node, index, present)
        imported += 1
    if imported:
        _M_SPANS.inc(imported, event="imported")
    return tree


def attach_worker_span(parent: Optional[Span], span_dict: dict,
                       origin: str = "process") -> None:
    """Graft a relayed worker span as a live child of ``parent``.

    Used by the :func:`repro.parallel.parallel_map` dispatcher: the
    worker's finished root span (already in dict form, from across the
    pipe) becomes an ordinary child span of the dispatching span, so it
    shows up in the assembled trace without a second scrape hop.
    """
    if parent is None or not gate.enabled():
        return
    child = span_from_dict(span_dict)
    child.parent_id = parent.span_id
    child.attributes.setdefault(RELAY_ORIGIN_ATTR, origin)
    parent.children.append(child)
    _M_SPANS.inc(event="imported")


__all__ = [
    "REQUEST_SUFFIX_ATTR",
    "RELAY_ORIGIN_ATTR",
    "SpanRelay",
    "assemble_trace",
    "attach_worker_span",
    "decode_spans",
    "encode_spans",
    "install_relay",
    "relay",
]
