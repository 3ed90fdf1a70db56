"""Span recording around the program's public entry points.

The traced run wraps the functions and methods below *from the
benchmark's own files* (module attributes are swapped for recording
wrappers; the program itself is unchanged).  Each span records its
name, start, end, parent span and the id of the logical operation it
belongs to; spans stay in memory and are written out when the run
ends.  A wrapper whose recorder is inactive calls straight through, so
one run can interleave traced and untraced operations and report the
difference as the tracing overhead.
"""

from __future__ import annotations

import functools
import time

import repro.core.app_signature as app_signature
import repro.core.engine as engine
import repro.core.messages as messages
import repro.core.system as system
import repro.index.updates as updates
import repro.net.client as net_client
from repro.core.persistence import UpdateJournal
from repro.net.cluster import ReplicatedClient
from repro.net.client import ResilientClient
from repro.net.ingest import ServerIngest, UpdatePublisher
from repro.net.server import ResilientSPServer
from repro.net.sharding import ShardedClient
from repro.net.transport import LoopbackTransport

#: Spans that each cover one layer's own work on the query path; the
#: share of client-observed latency outside all of them is what the
#: breakdown does not explain (``trace.uncovered_share``).
LAYER_SPANS = (
    "engine.traverse",
    "engine.materialize",
    "abe.seal",
    "messages.encode",
    "messages.decode",
    "abe.open",
    "verifier.verify",
    "sharding.merge",
)


class SpanRecorder:
    """In-memory span store with a parent stack (one client thread)."""

    def __init__(self):
        self.spans: list[dict] = []
        self.active = False
        self.op_id = None
        self._stack: list[dict] = []
        self._restore: list[tuple] = []

    def open(self, name: str) -> dict:
        parent = self._stack[-1]["id"] if self._stack else None
        span = {
            "id": len(self.spans), "parent": parent, "op": self.op_id,
            "name": name, "start": time.perf_counter(), "end": None,
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Replace ``owner.attr`` with a recording wrapper.

        ``before(args)`` runs first and its value is handed to
        ``after(span, state, args, result)``, which may add attributes.
        """
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not recorder.active:
                return original(*args, **kwargs)
            state = before(args) if before is not None else None
            span = recorder.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.close(span)
            if after is not None:
                after(span, state, args, result)
            return result

        setattr(owner, attr, traced)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def _tasks(span, _state, _args, result):
    span["tasks"] = len(result)


def _aps_before(args):
    authenticator = args[1]
    return authenticator.aps_cache_hits, authenticator.aps_cache_misses


def _aps_after(span, state, args, _result):
    authenticator = args[1]
    span["aps_hits"] = authenticator.aps_cache_hits - state[0]
    span["aps_misses"] = authenticator.aps_cache_misses - state[1]


def _sealed(span, _state, _args, envelope):
    span["bytes"] = envelope.byte_size()


def _entries(span, _state, args, _result):
    span["entries"] = len(args[0])


def _resigned(span, _state, _args, receipt):
    span["resigned"] = receipt.resigned_nodes


def _journal_before(args):
    return args[0].size


def _journal_after(span, state, args, _result):
    span["bytes"] = args[0].size - state


def install(recorder: SpanRecorder) -> SpanRecorder:
    """Wrap every layer boundary the per-layer metrics read."""
    wrap = recorder.wrap
    # client / cluster / sharding
    wrap(ResilientClient, "_execute", "client.query")
    wrap(ReplicatedClient, "_execute", "cluster.query")
    wrap(ShardedClient, "query_range", "sharding.query")
    wrap(ShardedClient, "query_equality", "sharding.query")
    wrap(ShardedClient, "_merge", "sharding.merge")
    # transport / server
    wrap(LoopbackTransport, "round_trip", "transport.round_trip")
    wrap(ResilientSPServer, "handle_frame", "server.handle")
    # engine: traversal (looked up in system's namespace), materialize,
    # and ABS.Relax on both the serial and the thread-parallel path
    for traverse in ("traverse_equality", "traverse_range", "traverse_join"):
        wrap(system, traverse, "engine.traverse", after=_tasks)
    wrap(engine, "materialize", "engine.materialize",
         before=_aps_before, after=_aps_after)
    wrap(app_signature, "relax", "abs.relax")
    wrap(engine, "relax", "abs.relax")
    # CP-ABE hybrid seal/open, wire codec, verifier
    wrap(system, "encrypt_for_roles", "abe.seal", after=_sealed)
    wrap(system, "decrypt_envelope", "abe.open")
    wrap(messages, "encode_response", "messages.encode")
    wrap(net_client, "decode_response", "messages.decode")
    wrap(system, "verify_vo", "verifier.verify", after=_entries)
    wrap(system, "verify_join_vo", "verifier.verify", after=_entries)
    # live ingest: DO-side apply, publish, SP-side apply, journal
    wrap(updates, "upsert", "updates.apply", after=_resigned)
    wrap(updates, "delete", "updates.apply", after=_resigned)
    for method in ("upsert", "delete", "rotate"):
        wrap(UpdatePublisher, method, "ingest.publish")
    wrap(ServerIngest, "handle", "ingest.apply")
    wrap(ServerIngest, "checkpoint", "checkpoint")
    wrap(UpdateJournal, "append", "journal.append",
         before=_journal_before, after=_journal_after)
    return recorder
