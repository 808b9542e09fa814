"""Unit tests for the metrics registry (`repro.obs.metrics`)."""

from __future__ import annotations

import json
import math

import pytest

from repro.obs import set_obs_enabled
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    _escape_help,
    _escape_label_value,
)


@pytest.fixture()
def obs_on():
    previous = set_obs_enabled(True)
    yield
    set_obs_enabled(previous)


@pytest.fixture()
def registry():
    return MetricsRegistry()


class TestCounter:
    def test_inc_and_value(self, obs_on):
        c = Counter("x_total")
        c.inc()
        c.inc(2.5)
        assert c.value == pytest.approx(3.5)

    def test_disabled_is_noop(self):
        previous = set_obs_enabled(False)
        try:
            c = Counter("x_total")
            c.inc(100)
            assert c.value == 0.0
        finally:
            set_obs_enabled(previous)

    def test_rejects_negative(self, obs_on):
        c = Counter("x_total")
        with pytest.raises(ValueError):
            c.inc(-1)


class TestGauge:
    def test_set_and_add(self, obs_on):
        g = Gauge("level")
        g.set(10)
        g.add(-2.5)
        assert g.value == pytest.approx(7.5)

    def test_disabled_is_noop(self):
        previous = set_obs_enabled(False)
        try:
            g = Gauge("level")
            g.set(9)
            g.add(1)
            assert g.value == 0.0
        finally:
            set_obs_enabled(previous)


class TestHistogram:
    def test_counts_sum_min_max(self, obs_on):
        h = Histogram("lat", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 1.6, 3.0, 9.0):
            h.observe(v)
        assert h.count == 5
        assert h.sum == pytest.approx(15.6)
        assert h.mean == pytest.approx(15.6 / 5)
        snap = h.snapshot()
        assert snap["min"] == pytest.approx(0.5)
        assert snap["max"] == pytest.approx(9.0)
        # Cumulative le-buckets, implicit +Inf overflow.
        assert [b["count"] for b in snap["buckets"]] == [1, 3, 4, 5]
        assert snap["buckets"][-1]["le"] == "+Inf"

    def test_boundary_value_lands_in_its_bucket(self, obs_on):
        # le semantics: an observation equal to a bound counts in it.
        h = Histogram("lat", buckets=(1.0, 2.0))
        h.observe(1.0)
        assert [b["count"] for b in h.snapshot()["buckets"]] == [1, 1, 1]

    def test_quantiles_interpolate_and_clamp(self, obs_on):
        h = Histogram("lat", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 1.6, 3.0, 9.0):
            h.observe(v)
        assert h.quantile(0.0) == pytest.approx(0.5)
        assert h.quantile(1.0) == pytest.approx(9.0)
        # Median lands in the (1, 2] bucket.
        assert 1.0 <= h.quantile(0.5) <= 2.0
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_empty_quantile_is_zero(self, obs_on):
        assert Histogram("lat").quantile(0.5) == 0.0

    def test_default_buckets_span_latency_decades(self):
        h = Histogram("lat")
        assert h.bounds == DEFAULT_LATENCY_BUCKETS
        assert h.bounds[0] == pytest.approx(1e-6)
        assert h.bounds[-1] == pytest.approx(10.0)

    def test_rejects_bad_buckets(self):
        with pytest.raises(ValueError):
            Histogram("lat", buckets=())
        with pytest.raises(ValueError):
            Histogram("lat", buckets=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("lat", buckets=(1.0, math.inf))

    def test_disabled_is_noop(self):
        previous = set_obs_enabled(False)
        try:
            h = Histogram("lat")
            h.observe(1.0)
            assert h.count == 0
        finally:
            set_obs_enabled(previous)


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self, registry):
        a = registry.counter("x_total", "first help")
        b = registry.counter("x_total", "second help")
        assert a is b
        assert a.help == "first help"

    def test_first_nonempty_help_wins(self, registry):
        a = registry.counter("x_total")
        registry.counter("x_total", "late help")
        assert a.help == "late help"

    def test_kind_conflict_raises(self, registry):
        registry.counter("x_total")
        with pytest.raises(ValueError):
            registry.gauge("x_total")
        with pytest.raises(ValueError):
            registry.histogram("x_total")
        registry.histogram("lat_seconds")
        with pytest.raises(ValueError):
            registry.counter("lat_seconds")

    def test_reset_zeroes_but_keeps_registrations(self, obs_on, registry):
        c = registry.counter("x_total")
        h = registry.histogram("lat_seconds")
        c.inc(5)
        h.observe(0.1)
        registry.reset()
        assert registry.names() == ["x_total", "lat_seconds"]
        assert c.value == 0.0
        assert h.count == 0
        # The cached handle still feeds the same registry entry.
        c.inc(2)
        assert registry.snapshot()["counters"]["x_total"]["value"] == 2.0

    def test_snapshot_groups_by_kind(self, obs_on, registry):
        registry.counter("c_total")
        registry.gauge("g")
        registry.histogram("h_seconds")
        snap = registry.snapshot()
        assert set(snap) == {"counters", "gauges", "histograms"}
        assert "c_total" in snap["counters"]
        assert "g" in snap["gauges"]
        assert "h_seconds" in snap["histograms"]

    def test_snapshot_leaves_help_to_prometheus(self, obs_on, registry):
        # Ledger rows carry snapshots: values, not the catalogue's text.
        registry.counter("c_total", "counted things").inc()
        registry.gauge("g", "a level").set(2.0)
        registry.histogram("h_seconds", "a latency").observe(0.5)
        snap = registry.snapshot()
        for kind, name in (
            ("counters", "c_total"),
            ("gauges", "g"),
            ("histograms", "h_seconds"),
        ):
            assert "help" not in snap[kind][name]
        text = registry.to_prometheus()
        assert "# HELP c_total counted things" in text
        assert "# HELP h_seconds a latency" in text

    def test_json_round_trips_snapshot(self, obs_on, registry):
        registry.counter("c_total").inc(3)
        registry.gauge("g").set(1.5)
        registry.histogram("h_seconds", buckets=(0.1, 1.0)).observe(0.05)
        assert json.loads(registry.to_json()) == registry.snapshot()

    def test_write_both_formats(self, obs_on, registry, tmp_path):
        registry.counter("c_total").inc()
        json_path = tmp_path / "m.json"
        prom_path = tmp_path / "m.prom"
        registry.write(str(json_path), fmt="json")
        registry.write(str(prom_path), fmt="prom")
        assert json.loads(json_path.read_text())["counters"]["c_total"]["value"] == 1.0
        assert "c_total 1" in prom_path.read_text()
        with pytest.raises(ValueError):
            registry.write(str(json_path), fmt="csv")


class TestPrometheusText:
    def test_counter_exposition(self, obs_on, registry):
        registry.counter("stalls_total", "detected stalls").inc(34)
        text = registry.to_prometheus()
        assert "# HELP stalls_total detected stalls" in text
        assert "# TYPE stalls_total counter" in text
        assert "stalls_total 34" in text
        assert text.endswith("\n")

    def test_histogram_exposition(self, obs_on, registry):
        h = registry.histogram("lat_seconds", "latency", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(5.0)
        text = registry.to_prometheus()
        assert '# TYPE lat_seconds histogram' in text
        assert 'lat_seconds_bucket{le="0.1"} 1' in text
        assert 'lat_seconds_bucket{le="1"} 1' in text
        assert 'lat_seconds_bucket{le="+Inf"} 2' in text
        assert "lat_seconds_sum 5.05" in text
        assert "lat_seconds_count 2" in text

    def test_labels_rendered_and_escaped(self, obs_on, registry):
        c = registry.counter(
            "runs_total", "runs", labels={"device": 'oli"mex\\1\n'}
        )
        c.inc()
        text = registry.to_prometheus()
        assert 'runs_total{device="oli\\"mex\\\\1\\n"} 1' in text

    def test_help_escaping(self):
        assert _escape_help("a\\b\nc") == "a\\\\b\\nc"
        # Help lines do not escape quotes; label values do.
        assert _escape_label_value('say "hi"') == 'say \\"hi\\"'


class TestHistogramPercentiles:
    def test_snapshot_carries_p50_p95_p99(self, obs_on):
        hist = Histogram("latency_seconds", buckets=(0.01, 0.1, 1.0))
        for _ in range(90):
            hist.observe(0.005)
        for _ in range(10):
            hist.observe(0.5)
        snap = hist.snapshot()
        pct = snap["percentiles"]
        assert set(pct) == {"p50", "p95", "p99"}
        assert pct["p50"] <= 0.01
        assert 0.1 <= pct["p99"] <= 1.0
        assert pct["p50"] <= pct["p95"] <= pct["p99"]

    def test_empty_histogram_exports_nulls(self, obs_on):
        hist = Histogram("never_fired_seconds", buckets=(1.0,))
        snap = hist.snapshot()
        assert snap["percentiles"] == {"p50": None, "p95": None, "p99": None}

    def test_snapshot_percentiles_match_quantile(self, obs_on):
        # snapshot() computes inside the lock; quantile() takes it.
        # Both must agree (and neither may deadlock).
        hist = Histogram("h_seconds", buckets=(0.01, 0.1, 1.0))
        for value in (0.005, 0.02, 0.05, 0.5):
            hist.observe(value)
        snap = hist.snapshot()
        assert snap["percentiles"]["p95"] == pytest.approx(hist.quantile(0.95))

    def test_prometheus_emits_percentile_gauges(self, obs_on, registry):
        hist = registry.histogram("lat_seconds", buckets=(0.01, 1.0))
        hist.observe(0.005)
        text = registry.to_prometheus()
        assert "# TYPE lat_seconds_p50 gauge" in text
        assert "lat_seconds_p95 " in text
        assert "lat_seconds_p99 " in text

    def test_json_snapshot_roundtrip_with_percentiles(self, obs_on, registry):
        hist = registry.histogram("lat_seconds", buckets=(0.01, 1.0))
        hist.observe(0.005)
        assert json.loads(registry.to_json()) == registry.snapshot()
