"""Human-readable rendering of trace trees and metric snapshots.

``repro obs`` (the CLI) and the examples use these; everything renders
from the JSON forms (:meth:`Span.to_dict` dicts, registry snapshots), so
a dumped trace file renders the same as a live one.
"""

from __future__ import annotations

from typing import Optional

from repro.obs import metrics as _metrics

#: Attributes worth showing inline next to a span name.
_INLINE_ATTRS = (
    "kind", "table", "attempt", "workers", "tasks", "relax_calls",
    "aps_cache_hits", "outcome", "code", "endpoint", "shard", "relay_origin",
)


def _span_line(node: dict) -> str:
    duration = node.get("duration_ms")
    ms = f"{duration:8.2f}ms" if duration is not None else "   (open)"
    status = "" if node.get("status") == "ok" else f"  !{node.get('status')}"
    attrs = node.get("attributes") or {}
    inline = "  ".join(
        f"{key}={attrs[key]}" for key in _INLINE_ATTRS if key in attrs
    )
    line = f"{ms}  {node['name']}"
    if inline:
        line += f"  [{inline}]"
    if status:
        line += status
        if node.get("error"):
            line += f" ({node['error']})"
    return line


def format_trace(tree: Optional[dict]) -> str:
    """ASCII tree of one trace (a :meth:`Span.to_dict` dict)."""
    if tree is None:
        return "(no finished trace)"
    lines = [f"trace {tree['trace_id']}"]

    def walk(node: dict, prefix: str, is_last: bool, is_root: bool) -> None:
        if is_root:
            lines.append(_span_line(node))
            child_prefix = ""
        else:
            branch = "└─ " if is_last else "├─ "
            lines.append(prefix + branch + _span_line(node))
            child_prefix = prefix + ("   " if is_last else "│  ")
        events = node.get("events") or []
        children = node.get("children") or []
        for event in events:
            tee = "   " if not children else "·  "
            detail = "  ".join(
                f"{k}={v}" for k, v in event.items() if k not in ("name", "offset_ms")
            )
            lines.append(
                child_prefix + tee + f"@{event['offset_ms']:.2f}ms {event['name']}"
                + (f"  [{detail}]" if detail else "")
            )
        for i, child in enumerate(children):
            walk(child, child_prefix, i == len(children) - 1, False)

    walk(tree, "", True, True)
    return "\n".join(lines)


def format_metrics(reg: Optional[_metrics.MetricsRegistry] = None) -> str:
    """The Prometheus text exposition (what a scrape returns)."""
    return _metrics.render_prometheus(reg)


def _fmt_seconds(value: Optional[float]) -> str:
    if value is None:
        return "     -"
    if value < 0.1:
        return f"{value * 1000.0:5.2f}ms"
    return f"{value:6.3f}s"


def format_quantiles(reg: Optional[_metrics.MetricsRegistry] = None,
                     prefix: str = "") -> str:
    """Interpolated p50/p95/p99 table for every histogram in a registry."""
    summaries = _metrics.quantile_summaries(reg, prefix=prefix)
    if not summaries:
        return "(no histogram samples)"
    width = max(len(name) for name in summaries)
    lines = [
        f"{'histogram'.ljust(width)}      p50      p95      p99    count"
    ]
    for name, summary in sorted(summaries.items()):
        lines.append(
            f"{name.ljust(width)}  {_fmt_seconds(summary['p50'])}"
            f"  {_fmt_seconds(summary['p95'])}  {_fmt_seconds(summary['p99'])}"
            f"  {summary['count']:7d}"
        )
    return "\n".join(lines)


def format_ledger(entries) -> str:
    """Tabular view of :class:`~repro.obs.ledger.QueryLedger` entries.

    One row per query (most recent first): trace id, per-stage seconds
    in pipeline order (traverse, materialize, seal, wire, open, verify,
    merge), their sum, and observed wall time — the live half of the
    ``repro obs top`` display.
    """
    from repro.obs.ledger import STAGES

    rows = [e.as_dict() if hasattr(e, "as_dict") else dict(e) for e in entries]
    if not rows:
        return "(ledger is empty)"
    widths = [max(8, len(s)) for s in STAGES]
    header = ["trace".ljust(16)] + [s.rjust(w) for s, w in zip(STAGES, widths)]
    header += ["staged".rjust(9), "wall".rjust(9)]
    lines = ["  ".join(header)]
    for row in rows:
        stages = row.get("stages", {})
        cells = [str(row.get("trace_id", "?"))[:16].ljust(16)]
        for stage, width in zip(STAGES, widths):
            value = stages.get(stage)
            cells.append(
                (f"{value * 1000.0:.2f}ms" if value is not None else "-").rjust(width)
            )
        cells.append(f"{row.get('stage_total_seconds', 0.0) * 1000.0:.2f}ms".rjust(9))
        wall = row.get("wall_seconds")
        cells.append((f"{wall * 1000.0:.2f}ms" if wall is not None else "-").rjust(9))
        lines.append("  ".join(cells))
    return "\n".join(lines)
