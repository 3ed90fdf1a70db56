"""Process-wide metrics registry: counters, gauges, fixed-bucket histograms.

One :class:`MetricsRegistry` instance (:func:`registry`) serves the whole
process; every layer registers its instruments once at import time and
updates them on the hot path.  Updates are:

* **thread-safe** — each metric family carries its own lock; samples are
  keyed by label-value tuples;
* **cheap no-ops when disabled** — every mutator checks
  :func:`repro.obs.gate.enabled` first and returns immediately;
* **idempotently registered** — asking for an existing name returns the
  existing instrument (kind and label names must match), so module-level
  instruments survive a test-time :meth:`MetricsRegistry.reset`.

A family can also be a **view** (:meth:`MetricsRegistry.view`): its
samples come from a function called when the family is read, so a count
kept on per-instance records (:class:`Census`) is stored once and the
registry only reads it.

The registry renders as Prometheus text exposition
(:func:`render_prometheus`) — the same bytes a live SP serves for its
``stats`` request (see :mod:`repro.net.server`) — and supports cheap
before/after windows (:meth:`MetricsRegistry.window`) that
:mod:`repro.bench.harness` uses to report per-query deltas.
"""

from __future__ import annotations

import re
import threading
import weakref
from bisect import bisect_left
from collections import deque
from functools import partial
from itertools import accumulate
from typing import Callable, Mapping, Optional, Sequence

from repro.errors import ReproError
from repro.obs import gate

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram buckets (seconds): spans 100µs spans to 10s queries.
DEFAULT_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

COUNTER, GAUGE, HISTOGRAM = "counter", "gauge", "histogram"

#: Quantiles reported wherever a histogram is summarized for humans.
SUMMARY_QUANTILES = (0.5, 0.95, 0.99)


def _fmt_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def escape_label_value(value: str) -> str:
    """Prometheus label-value escaping: backslash, quote, newline."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _label_str(names: Sequence[str], values: Sequence[str]) -> str:
    if not names:
        return ""
    inner = ",".join(
        f'{n}="{escape_label_value(str(v))}"' for n, v in zip(names, values)
    )
    return "{" + inner + "}"


class _Histogram:
    """Per-labelset histogram state: fixed buckets + sum/count.

    An observation lands in one bucket, its smallest bound at or above
    the value (one bisection); :attr:`bucket_counts` reads them back
    cumulatively.
    """

    __slots__ = ("buckets", "_counts", "total", "count")

    def __init__(self, buckets: Sequence[float]):
        self.buckets = buckets
        self._counts = [0] * len(buckets)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        i = bisect_left(self.buckets, value)
        if i < len(self._counts):
            self._counts[i] += 1
        self.total += value
        self.count += 1

    @property
    def bucket_counts(self) -> list[int]:
        """Cumulative counts: the observations at or below each bound."""
        return list(accumulate(self._counts))

    def quantile(self, q: float) -> Optional[float]:
        """Estimate the ``q``-quantile by linear interpolation.

        Classic fixed-bucket estimation (what PromQL's
        ``histogram_quantile`` computes server-side): find the first
        cumulative bucket holding the target rank and interpolate
        uniformly between its lower and upper bound.  Observations above
        the largest finite bucket clamp to that bound — the estimator
        can only ever answer within the configured bucket range.
        """
        if not 0.0 <= q <= 1.0:
            raise ReproError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return None
        target = q * self.count
        prev_cum = 0
        cumulative = self.bucket_counts
        for i, bound in enumerate(self.buckets):
            cum = cumulative[i]
            if cum >= target:
                lower = self.buckets[i - 1] if i > 0 else 0.0
                span = cum - prev_cum
                fraction = (target - prev_cum) / span if span else 1.0
                return lower + fraction * (bound - lower)
            prev_cum = cum
        return self.buckets[-1]


class Metric:
    """One named instrument; samples are keyed by label-value tuples."""

    def __init__(
        self,
        name: str,
        kind: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ):
        if not _NAME_RE.match(name):
            raise ReproError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ReproError(f"invalid label name {label!r}")
        if kind == HISTOGRAM:
            bounds = list(buckets)
            if not bounds or sorted(bounds) != bounds or len(set(bounds)) != len(bounds):
                raise ReproError("histogram buckets must be strictly increasing")
            self.buckets: tuple[float, ...] = tuple(bounds)
        else:
            self.buckets = ()
        self.name = name
        self.kind = kind
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._samples: dict[tuple, object] = {}

    # -- label plumbing -----------------------------------------------------
    def _key(self, labels: Mapping[str, object]) -> tuple:
        if set(labels) != set(self.labelnames):
            raise ReproError(
                f"metric {self.name} expects labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}"
            )
        return tuple(str(labels[name]) for name in self.labelnames)

    def labels(self, **labels) -> "BoundMetric":
        """This metric's sample for one label set, resolved once.

        Hot paths update the returned child instead of passing labels on
        every call: it skips the label check and the key build.
        """
        return BoundMetric(self, self._key(labels))

    # -- mutators (no-ops when disabled) -------------------------------------
    def inc(self, amount: float = 1, **labels) -> None:
        if gate.enabled():
            self._inc(self._key(labels), amount)

    def set(self, value: float, **labels) -> None:
        if gate.enabled():
            self._set(self._key(labels), value)

    def observe(self, value: float, **labels) -> None:
        if gate.enabled():
            self._observe(self._key(labels), value)

    def _inc(self, key: tuple, amount: float) -> None:
        if self.kind != COUNTER:
            raise ReproError(f"{self.name} is a {self.kind}, not a counter")
        if amount < 0:
            raise ReproError("counters only go up")
        with self._lock:
            self._samples[key] = self._samples.get(key, 0) + amount

    def _set(self, key: tuple, value: float) -> None:
        if self.kind != GAUGE:
            raise ReproError(f"{self.name} is a {self.kind}, not a gauge")
        with self._lock:
            self._samples[key] = value

    def _observe(self, key: tuple, value: float) -> None:
        if self.kind != HISTOGRAM:
            raise ReproError(f"{self.name} is a {self.kind}, not a histogram")
        with self._lock:
            hist = self._samples.get(key)
            if hist is None:
                hist = self._samples[key] = _Histogram(self.buckets)
            hist.observe(value)

    # -- read side -----------------------------------------------------------
    def _items(self) -> dict[tuple, object]:
        """A copy of every sample, keyed by label-value tuple."""
        with self._lock:
            return dict(self._samples)

    def value(self, **labels) -> float:
        """Current value of a counter/gauge sample (0 when unseen)."""
        sample = self._items().get(self._key(labels), 0)
        if isinstance(sample, _Histogram):
            raise ReproError(f"use histogram_state() for {self.name}")
        return sample

    def histogram_state(self, **labels) -> Optional[dict]:
        key = self._key(labels)
        with self._lock:
            hist = self._samples.get(key)
            if hist is None:
                return None
            return {
                "buckets": list(zip(hist.buckets, hist.bucket_counts)),
                "sum": hist.total,
                "count": hist.count,
                "quantiles": {
                    f"p{int(q * 100)}": hist.quantile(q)
                    for q in SUMMARY_QUANTILES
                },
            }

    def quantiles(self, qs: Sequence[float] = SUMMARY_QUANTILES,
                  **labels) -> Optional[dict]:
        """``{"p50": ..., "p95": ..., "p99": ...}`` for one labelset."""
        key = self._key(labels)
        with self._lock:
            hist = self._samples.get(key)
            if hist is None:
                return None
            if not isinstance(hist, _Histogram):
                raise ReproError(f"{self.name} is a {self.kind}, not a histogram")
            return {f"p{int(q * 100)}": hist.quantile(q) for q in qs}

    def samples(self) -> dict[tuple, object]:
        """Flat scalar samples (histograms expand to _count/_sum/_bucket)."""
        out: dict[tuple, object] = {}
        for key, sample in self._items().items():
            if isinstance(sample, _Histogram):
                # observe() fills buckets cumulatively (value <= bound).
                for bound, cumulative in zip(sample.buckets, sample.bucket_counts):
                    out[key + (f"le={_fmt_value(bound)}",)] = cumulative
                out[key + ("le=+Inf",)] = sample.count
                out[key + ("sum",)] = sample.total
                out[key + ("count",)] = sample.count
            else:
                out[key] = sample
        return out

    def _reset(self) -> None:
        with self._lock:
            self._samples.clear()


class BoundMetric:
    """One label set of a :class:`Metric` (see :meth:`Metric.labels`).

    Updates behave exactly as the metric's own ``inc``/``set``/``observe``
    with those labels; they survive :meth:`MetricsRegistry.reset`.
    """

    __slots__ = ("_metric", "_key")

    def __init__(self, metric: Metric, key: tuple):
        self._metric = metric
        self._key = key

    def inc(self, amount: float = 1) -> None:
        if gate.enabled():
            self._metric._inc(self._key, amount)

    def set(self, value: float) -> None:
        if gate.enabled():
            self._metric._set(self._key, value)

    def observe(self, value: float) -> None:
        if gate.enabled():
            self._metric._observe(self._key, value)


class MetricView(Metric):
    """A counter or gauge family whose samples ``read()`` computes.

    The store is elsewhere (per-instance records, see :class:`Census`);
    the view only reads it, so it has no mutators.  It reads empty while
    the gate is off.  :meth:`MetricsRegistry.reset` zeroes a counter view
    by taking its current samples as a baseline; a gauge view is the live
    state and has nothing to zero.
    """

    def __init__(self, name: str, kind: str, help: str,
                 labelnames: Sequence[str],
                 read: Callable[[], Mapping[tuple, float]]):
        if kind not in (COUNTER, GAUGE):
            raise ReproError(f"a view is a counter or a gauge, not a {kind}")
        super().__init__(name, kind, help, labelnames)
        self._read = read
        self._baseline: Mapping[tuple, float] = {}

    def _refuse(self, *_args) -> None:
        raise ReproError(f"{self.name} is a view: count on its records")

    _inc = _set = _observe = _refuse

    def _items(self) -> dict[tuple, object]:
        if not gate.enabled():
            return {}
        samples = self._read()
        if self.kind == GAUGE:
            return dict(samples)
        base = self._baseline
        return {key: value - base.get(key, 0) for key, value in samples.items()
                if value > base.get(key, 0)}

    def _reset(self) -> None:
        if self.kind == COUNTER:
            self._baseline = dict(self._read())


class Census:
    """Counts kept on per-instance records, summed when a view is read.

    Each family — a ``(kind, name, help, labelnames, tally)`` row given
    to the constructor — is a :class:`MetricView` whose samples are
    ``tally(record)`` summed over the enrolled records; a tally may key a
    one-label sample by its bare label value.  :meth:`enroll` makes a
    stats ``record`` live for as long as its ``owner`` lives; the record
    must not refer back to the owner.  When the owner is collected,
    :func:`weakref.finalize` queues its record, and the next read or
    enrollment folds the record's counts into retired totals, so a
    counter view never falls; a gauge view sums the live records only.
    The finalizer only queues: it can run inside a collection on a
    thread that already holds the census lock.
    """

    def __init__(self, *families: tuple):
        self._lock = threading.Lock()
        self._live: dict[int, object] = {}
        self._dead: deque = deque()
        self._retired: dict[str, dict[tuple, float]] = {}
        self._tallies: dict[str, Callable] = {}
        for kind, name, help, labelnames, tally in families:
            self._tallies[name] = tally
            registry().view(name, kind, help, labelnames,
                            partial(self._sum, name, kind == COUNTER))

    def enroll(self, owner: object, record: object) -> None:
        with self._lock:
            self._fold_dead()
            self._live[id(record)] = record
        weakref.finalize(owner, self._dead.append, id(record)).atexit = False

    def _fold_dead(self) -> None:
        while self._dead:
            record = self._live.pop(self._dead.popleft())
            for name, tally in self._tallies.items():
                _add_into(self._retired.setdefault(name, {}), tally(record))

    def _sum(self, name: str, retired: bool) -> dict[tuple, float]:
        with self._lock:
            self._fold_dead()
            records = list(self._live.values())
            out = dict(self._retired.get(name, {})) if retired else {}
        for record in records:
            _add_into(out, self._tallies[name](record))
        return out


def _add_into(total: dict, samples: Mapping) -> None:
    for key, value in samples.items():
        key = key if isinstance(key, tuple) else (key,)
        total[key] = total.get(key, 0) + value


class MetricsRegistry:
    """Name → :class:`Metric` map with idempotent registration."""

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: dict[str, Metric] = {}

    def _register(self, metric: Metric) -> Metric:
        with self._lock:
            existing = self._metrics.setdefault(metric.name, metric)
        if existing.kind != metric.kind or existing.labelnames != metric.labelnames:
            raise ReproError(
                f"metric {metric.name} already registered as {existing.kind}"
                f"{existing.labelnames}"
            )
        return existing

    def counter(self, name: str, help: str = "",
                labelnames: Sequence[str] = ()) -> Metric:
        return self._register(Metric(name, COUNTER, help, labelnames))

    def gauge(self, name: str, help: str = "",
              labelnames: Sequence[str] = ()) -> Metric:
        return self._register(Metric(name, GAUGE, help, labelnames))

    def histogram(self, name: str, help: str = "", labelnames: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Metric:
        return self._register(Metric(name, HISTOGRAM, help, labelnames, buckets))

    def view(self, name: str, kind: str, help: str, labelnames: Sequence[str],
             read: Callable[[], Mapping[tuple, float]]) -> Metric:
        """Register a counter or gauge family computed by ``read()`` at
        read time (a :class:`MetricView`)."""
        return self._register(MetricView(name, kind, help, labelnames, read))

    def metrics(self) -> list[Metric]:
        with self._lock:
            return sorted(self._metrics.values(), key=lambda m: m.name)

    def get(self, name: str) -> Optional[Metric]:
        with self._lock:
            return self._metrics.get(name)

    def snapshot(self) -> dict[str, float]:
        """Flat ``name{labels...}`` → value map of every scalar sample."""
        out: dict[str, float] = {}
        for metric in self.metrics():
            for key, value in metric.samples().items():
                suffix = "|".join(key)
                out[f"{metric.name}|{suffix}" if suffix else metric.name] = value
        return out

    def window(self) -> "MetricsWindow":
        """Start a before/after delta window over this registry."""
        return MetricsWindow(self)

    # -- structured counter relay (cross-process merge) ----------------------
    def counters_snapshot(self) -> dict[str, dict[tuple, float]]:
        """Counter samples only, keyed ``name -> label-tuple -> value``.

        Unlike :meth:`snapshot` this stays mergeable: no histogram
        expansion, no string-joined keys — exactly the shape a process
        worker ships back so the dispatcher can :meth:`merge_counters`
        the delta (see :mod:`repro.parallel`).
        """
        out: dict[str, dict[tuple, float]] = {}
        for metric in self.metrics():
            if metric.kind != COUNTER or isinstance(metric, MetricView):
                continue
            with metric._lock:
                if metric._samples:
                    out[metric.name] = dict(metric._samples)
        return out

    def merge_counters(self, delta: Mapping[str, Mapping[tuple, float]]) -> None:
        """Add a worker's counter increments into this registry.

        Unknown metric names and views are skipped (the worker registered
        an instrument this process never imported, or the count lives on
        records); negative increments are rejected — counters only go up,
        on both sides of the pipe.
        """
        for name, samples in delta.items():
            metric = self.get(name)
            if (metric is None or metric.kind != COUNTER
                    or isinstance(metric, MetricView)):
                continue
            for key, amount in samples.items():
                if amount < 0:
                    raise ReproError("counters only go up")
                if not amount:
                    continue
                with metric._lock:
                    metric._samples[key] = metric._samples.get(key, 0) + amount

    def reset(self) -> None:
        """Zero every sample; registered instruments stay valid (tests)."""
        for metric in self.metrics():
            metric._reset()


class MetricsWindow:
    """Delta of every scalar sample between construction and :meth:`delta`."""

    def __init__(self, reg: MetricsRegistry):
        self._registry = reg
        self._before = reg.snapshot()

    def delta(self) -> dict[str, float]:
        after = self._registry.snapshot()
        out = {}
        for key, value in after.items():
            change = value - self._before.get(key, 0)
            if change:
                out[key] = change
        return out


def render_prometheus(reg: Optional[MetricsRegistry] = None) -> str:
    """Prometheus text exposition format (version 0.0.4) of a registry."""
    reg = reg if reg is not None else registry()
    lines: list[str] = []
    for metric in reg.metrics():
        items = sorted(metric._items().items())
        if not items:
            continue
        if metric.help:
            lines.append(f"# HELP {metric.name} {metric.help}")
        lines.append(f"# TYPE {metric.name} {metric.kind}")
        for key, sample in items:
            base_labels = list(zip(metric.labelnames, key))
            if isinstance(sample, _Histogram):
                for bound, count in zip(sample.buckets, sample.bucket_counts):
                    labels = base_labels + [("le", _fmt_value(bound))]
                    lines.append(
                        f"{metric.name}_bucket"
                        f"{_label_str([n for n, _ in labels], [v for _, v in labels])}"
                        f" {count}"
                    )
                labels = base_labels + [("le", "+Inf")]
                lines.append(
                    f"{metric.name}_bucket"
                    f"{_label_str([n for n, _ in labels], [v for _, v in labels])}"
                    f" {sample.count}"
                )
                label_str = _label_str(metric.labelnames, key)
                lines.append(f"{metric.name}_sum{label_str} {_fmt_value(sample.total)}")
                lines.append(f"{metric.name}_count{label_str} {sample.count}")
            else:
                label_str = _label_str(metric.labelnames, key)
                lines.append(f"{metric.name}{label_str} {_fmt_value(float(sample))}")
    return "\n".join(lines) + ("\n" if lines else "")


def parse_exposition(text: str) -> dict[str, float]:
    """Parse exposition text back into ``name{labels} -> value`` (lint/tests).

    Raises :class:`~repro.errors.ReproError` on malformed lines, so tests
    and the CI smoke step can use it as a format lint.
    """
    out: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            if line.startswith("#") and not line.startswith(("# HELP ", "# TYPE ")):
                raise ReproError(f"malformed comment line: {line!r}")
            continue
        try:
            series, value = line.rsplit(" ", 1)
            out[series] = float(value)
        except ValueError as exc:
            raise ReproError(f"malformed exposition line: {line!r}") from exc
        name = series.split("{", 1)[0]
        if not _NAME_RE.match(name.removesuffix("_bucket")):
            raise ReproError(f"invalid series name: {name!r}")
    return out


_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide registry every subsystem reports into."""
    return _REGISTRY


def counters_delta(
    before: Mapping[str, Mapping[tuple, float]],
    after: Mapping[str, Mapping[tuple, float]],
) -> dict[str, dict[tuple, float]]:
    """Positive counter increments between two :meth:`counters_snapshot`."""
    out: dict[str, dict[tuple, float]] = {}
    for name, samples in after.items():
        prior = before.get(name, {})
        changed = {
            key: value - prior.get(key, 0)
            for key, value in samples.items()
            if value - prior.get(key, 0) > 0
        }
        if changed:
            out[name] = changed
    return out


def quantile_summaries(
    reg: Optional[MetricsRegistry] = None,
    prefix: str = "",
    qs: Sequence[float] = SUMMARY_QUANTILES,
) -> dict[str, dict]:
    """Per-labelset quantile summaries of every histogram in a registry.

    Keys are ``name`` or ``name|label1|label2`` (matching
    :meth:`MetricsRegistry.snapshot` key style); values carry the
    interpolated quantiles plus ``count`` and ``sum`` — the
    human-facing replacement for raw cumulative bucket dumps.
    """
    reg = reg if reg is not None else registry()
    out: dict[str, dict] = {}
    for metric in reg.metrics():
        if metric.kind != HISTOGRAM or not metric.name.startswith(prefix):
            continue
        for key, hist in sorted(metric._items().items()):
            suffix = "|".join(key)
            series = f"{metric.name}|{suffix}" if suffix else metric.name
            summary = {f"p{int(q * 100)}": hist.quantile(q) for q in qs}
            summary["count"] = hist.count
            summary["sum"] = hist.total
            out[series] = summary
    return out


def bucket_counts_monotonic(metric: Metric, **labels) -> bool:
    """True when a histogram's cumulative bucket counts never decrease."""
    state = metric.histogram_state(**labels)
    if state is None:
        return True
    counts = [count for _, count in state["buckets"]] + [state["count"]]
    return all(a <= b for a, b in zip(counts, counts[1:]))


__all__ = [
    "COUNTER",
    "GAUGE",
    "HISTOGRAM",
    "DEFAULT_BUCKETS",
    "SUMMARY_QUANTILES",
    "BoundMetric",
    "Census",
    "Metric",
    "MetricView",
    "MetricsRegistry",
    "MetricsWindow",
    "bucket_counts_monotonic",
    "counters_delta",
    "escape_label_value",
    "parse_exposition",
    "quantile_summaries",
    "registry",
    "render_prometheus",
]
