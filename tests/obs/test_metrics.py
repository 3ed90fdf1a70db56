"""Registry semantics, exposition format, and the parse-side lint."""

import sys
import threading

import pytest

from repro import obs
from repro.errors import ReproError
from repro.obs.metrics import (
    COUNTER,
    DEFAULT_BUCKETS,
    SUMMARY_QUANTILES,
    Census,
    MetricsRegistry,
    bucket_counts_monotonic,
    escape_label_value,
    parse_exposition,
    quantile_summaries,
    registry,
    render_prometheus,
)


@pytest.fixture()
def reg():
    return MetricsRegistry()


# -- registration --------------------------------------------------------------

def test_registration_is_idempotent(reg):
    a = reg.counter("t_requests_total", "help", labelnames=("kind",))
    b = reg.counter("t_requests_total", "other help", labelnames=("kind",))
    assert a is b


def test_reregistering_with_different_kind_or_labels_fails(reg):
    reg.counter("t_thing_total")
    with pytest.raises(ReproError, match="already registered"):
        reg.gauge("t_thing_total")
    reg.counter("t_labeled_total", labelnames=("a",))
    with pytest.raises(ReproError, match="already registered"):
        reg.counter("t_labeled_total", labelnames=("b",))


def test_invalid_metric_and_label_names_rejected(reg):
    with pytest.raises(ReproError, match="invalid metric name"):
        reg.counter("0bad")
    with pytest.raises(ReproError, match="invalid metric name"):
        reg.counter("has space")
    with pytest.raises(ReproError, match="invalid label name"):
        reg.counter("t_ok_total", labelnames=("bad-dash",))


def test_histogram_buckets_must_strictly_increase(reg):
    with pytest.raises(ReproError, match="strictly increasing"):
        reg.histogram("t_h_seconds", buckets=(0.1, 0.1, 0.2))
    with pytest.raises(ReproError, match="strictly increasing"):
        reg.histogram("t_h2_seconds", buckets=(0.2, 0.1))
    with pytest.raises(ReproError, match="strictly increasing"):
        reg.histogram("t_h3_seconds", buckets=())


# -- counters / gauges ---------------------------------------------------------

def test_counter_inc_and_value(reg):
    c = reg.counter("t_events_total", labelnames=("kind",))
    c.inc(kind="a")
    c.inc(3, kind="a")
    c.inc(kind="b")
    assert c.value(kind="a") == 4
    assert c.value(kind="b") == 1
    assert c.value(kind="never") == 0


def test_counter_rejects_negative_and_wrong_kind_mutators(reg):
    c = reg.counter("t_c_total")
    with pytest.raises(ReproError, match="only go up"):
        c.inc(-1)
    with pytest.raises(ReproError, match="not a gauge"):
        c.set(5)
    with pytest.raises(ReproError, match="not a histogram"):
        c.observe(0.1)


def test_gauge_set_overwrites(reg):
    g = reg.gauge("t_pool_size")
    g.set(4)
    g.set(2)
    assert g.value() == 2
    with pytest.raises(ReproError, match="not a counter"):
        g.inc()


def test_label_set_must_match_declaration(reg):
    c = reg.counter("t_l_total", labelnames=("kind", "table"))
    with pytest.raises(ReproError, match="expects labels"):
        c.inc(kind="x")  # missing 'table'
    with pytest.raises(ReproError, match="expects labels"):
        c.inc(kind="x", table="t", extra="no")


# -- histograms ----------------------------------------------------------------

def test_histogram_state_and_monotonic_buckets(reg):
    h = reg.histogram("t_lat_seconds", buckets=(0.01, 0.1, 1.0))
    for v in (0.005, 0.05, 0.5, 5.0):
        h.observe(v)
    state = h.histogram_state()
    assert state["count"] == 4
    assert state["sum"] == pytest.approx(5.555)
    # Cumulative: <=0.01 -> 1, <=0.1 -> 2, <=1.0 -> 3 (5.0 only in +Inf).
    assert [c for _, c in state["buckets"]] == [1, 2, 3]
    assert bucket_counts_monotonic(h)
    assert bucket_counts_monotonic(h, **{})  # unseen labelset is fine too


def test_histogram_value_accessor_refuses(reg):
    h = reg.histogram("t_h_seconds")
    h.observe(0.2)
    with pytest.raises(ReproError, match="histogram_state"):
        h.value()


def test_default_buckets_are_sane():
    assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)
    assert len(set(DEFAULT_BUCKETS)) == len(DEFAULT_BUCKETS)


# -- reset / windows -----------------------------------------------------------

def test_reset_zeroes_samples_but_keeps_families(reg):
    c = reg.counter("t_keep_total")
    c.inc(7)
    reg.reset()
    assert c.value() == 0
    # The module-level instrument object is still the registered family.
    assert reg.counter("t_keep_total") is c
    c.inc()
    assert c.value() == 1


def test_window_delta_reports_only_changed_keys(reg):
    c = reg.counter("t_w_total", labelnames=("kind",))
    c.inc(kind="before")
    window = reg.window()
    c.inc(2, kind="after")
    delta = window.delta()
    assert delta == {"t_w_total|after": 2}


def test_view_reads_its_function_and_resets_to_a_baseline(reg):
    counts = {("a",): 3}
    level = {(): 2}
    c = reg.view("t_v_total", "counter", "counted elsewhere", ("kind",),
                 lambda: dict(counts))
    g = reg.view("t_v_level", "gauge", "", (), lambda: dict(level))
    assert c.value(kind="a") == 3 and g.value() == 2
    window = reg.window()
    counts[("a",)] = 5
    counts[("b",)] = 1
    assert window.delta() == {"t_v_total|a": 2, "t_v_total|b": 1}
    assert "t_v_total{kind=\"b\"} 1" in render_prometheus(reg)
    # A reset zeroes a counter view by a baseline; a gauge is live state.
    reg.reset()
    assert c.samples() == {} and g.value() == 2
    counts[("a",)] = 6
    assert c.samples() == {("a",): 1}
    with pytest.raises(ReproError, match="is a view"):
        c.inc(kind="a")
    with pytest.raises(ReproError, match="counter or a gauge"):
        reg.view("t_v_seconds", "histogram", "", (), dict)


def test_view_reads_empty_with_the_gate_off(reg):
    c = reg.view("t_v_off_total", "counter", "", (), lambda: {(): 4})
    previous = obs.set_enabled(False)
    try:
        assert c.samples() == {} and c.value() == 0
        assert render_prometheus(reg) == ""
    finally:
        obs.set_enabled(previous)
    assert c.value() == 4


def test_census_counter_never_falls_while_owners_die_under_readers():
    """Owners enroll, count and die on four threads while two threads
    read the view: no read sees the counter fall, and the total is
    every record's count, live or retired."""

    class Owner:
        pass

    class Record:
        def __init__(self):
            self.n = 0

    census = Census((COUNTER, "t_census_stress_total", "", (), lambda r: {(): r.n}))
    view = registry().get("t_census_stress_total")
    owners, per_owner = 300, 5
    stop, fell = threading.Event(), []

    def churn():
        for _ in range(owners):
            owner, record = Owner(), Record()
            census.enroll(owner, record)
            record.n += per_owner
            del owner

    def read():
        last = 0
        while not stop.is_set():
            value = view.value()
            if value < last:
                fell.append((last, value))
            last = value

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        readers = [threading.Thread(target=read) for _ in range(2)]
        writers = [threading.Thread(target=churn) for _ in range(4)]
        for thread in readers + writers:
            thread.start()
        for thread in writers:
            thread.join(timeout=60)
        stop.set()
        for thread in readers:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in readers + writers)
    assert fell == []
    assert view.value() == 4 * owners * per_owner


def test_snapshot_key_format(reg):
    c = reg.counter("t_s_total", labelnames=("kind",))
    g = reg.gauge("t_s_size")
    c.inc(kind="x")
    g.set(3)
    snap = reg.snapshot()
    assert snap["t_s_total|x"] == 1
    assert snap["t_s_size"] == 3


# -- exposition ----------------------------------------------------------------

def test_render_parse_round_trip_with_label_escaping(reg):
    c = reg.counter("t_esc_total", "counts nasty labels", labelnames=("path",))
    nasty = 'he said "hi"\nC:\\temp'
    c.inc(5, path=nasty)
    text = render_prometheus(reg)
    assert '\\"hi\\"' in text and "\\n" in text and "\\\\temp" in text
    parsed = parse_exposition(text)
    series = f't_esc_total{{path="{escape_label_value(nasty)}"}}'
    assert parsed[series] == 5


def test_render_histogram_exposition_shape(reg):
    h = reg.histogram("t_e_seconds", "timings", labelnames=("phase",),
                      buckets=(0.1, 1.0))
    h.observe(0.05, phase="build")
    h.observe(2.0, phase="build")
    text = render_prometheus(reg)
    parsed = parse_exposition(text)
    assert parsed['t_e_seconds_bucket{phase="build",le="0.1"}'] == 1
    assert parsed['t_e_seconds_bucket{phase="build",le="1"}'] == 1
    assert parsed['t_e_seconds_bucket{phase="build",le="+Inf"}'] == 2
    assert parsed['t_e_seconds_count{phase="build"}'] == 2
    assert parsed['t_e_seconds_sum{phase="build"}'] == pytest.approx(2.05)
    # Cumulative bucket series never decrease as le grows.
    assert bucket_counts_monotonic(h, phase="build")


def test_render_skips_empty_families_and_emits_help_type(reg):
    reg.counter("t_never_total", "never incremented")
    c = reg.counter("t_used_total", "used once")
    c.inc()
    text = render_prometheus(reg)
    assert "t_never_total" not in text
    assert "# HELP t_used_total used once" in text
    assert "# TYPE t_used_total counter" in text


def test_parse_exposition_lints_malformed_text():
    with pytest.raises(ReproError, match="malformed comment"):
        parse_exposition("# COMMENT nope\n")
    with pytest.raises(ReproError, match="malformed exposition line"):
        parse_exposition("just_a_name_no_value\n")
    with pytest.raises(ReproError, match="malformed exposition line"):
        parse_exposition("series not_a_number\n")
    with pytest.raises(ReproError, match="invalid series name"):
        parse_exposition('0bad{x="y"} 1\n')
    # The well-formed case parses.
    assert parse_exposition("ok_total 2\n") == {"ok_total": 2.0}

# -- fixed-bucket quantile estimation ------------------------------------------

def test_quantile_interpolates_within_buckets(reg):
    hist = reg.histogram("t_latency_seconds", buckets=(1.0, 2.0, 4.0))
    for value in (0.5, 1.5, 3.0, 3.5):
        hist.observe(value)
    # Cumulative counts: le=1 -> 1, le=2 -> 2, le=4 -> 4.
    assert hist.quantiles()["p50"] == pytest.approx(2.0)
    # target rank 3.5 lands 75% through the (2.0, 4.0] bucket.
    assert hist.quantiles(qs=(0.875,))["p87"] == pytest.approx(3.5)
    assert hist.quantiles(qs=(0.25, 1.0)) == {
        "p25": pytest.approx(1.0), "p100": pytest.approx(4.0),
    }


def test_quantile_clamps_above_largest_finite_bucket(reg):
    hist = reg.histogram("t_latency_seconds", buckets=(1.0, 2.0, 4.0))
    hist.observe(100.0)
    # The estimator can only answer within the configured range.
    assert hist.quantiles(qs=(0.5, 0.99)) == {"p50": 4.0, "p99": 4.0}


def test_quantile_empty_and_out_of_range(reg):
    hist = reg.histogram("t_latency_seconds")
    assert hist.quantiles() is None  # no labelset sample yet
    hist.observe(0.01)
    with pytest.raises(ReproError, match="quantile must be in"):
        hist.quantiles(qs=(1.5,))
    with pytest.raises(ReproError, match="quantile must be in"):
        hist.quantiles(qs=(-0.1,))


def test_quantiles_respect_labelsets_and_kind(reg):
    hist = reg.histogram("t_latency_seconds", labelnames=("op",),
                         buckets=(1.0, 2.0))
    hist.observe(0.5, op="read")
    # One sample: rank 0.5 interpolates halfway into the [0, 1] bucket.
    assert hist.quantiles(op="read")["p50"] == pytest.approx(0.5)
    assert hist.quantiles(op="write") is None
    counter = reg.counter("t_calls_total")
    counter.inc()
    with pytest.raises(ReproError, match="not a histogram"):
        counter.quantiles()


def test_quantile_summaries_key_format_and_fields(reg):
    hist = reg.histogram("t_latency_seconds", labelnames=("op",),
                         buckets=(1.0, 2.0))
    hist.observe(0.5, op="read")
    hist.observe(1.5, op="read")
    reg.histogram("t_other_seconds").observe(0.5)
    reg.counter("t_calls_total").inc()  # never summarized

    out = quantile_summaries(reg)
    assert set(out) == {"t_latency_seconds|read", "t_other_seconds"}
    summary = out["t_latency_seconds|read"]
    assert set(summary) == {"p50", "p95", "p99", "count", "sum"}
    assert summary["count"] == 2 and summary["sum"] == pytest.approx(2.0)
    assert summary["p50"] == pytest.approx(1.0)

    filtered = quantile_summaries(reg, prefix="t_other")
    assert set(filtered) == {"t_other_seconds"}
    assert SUMMARY_QUANTILES == (0.5, 0.95, 0.99)
