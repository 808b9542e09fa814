"""Unit tests for detected events, reports, and latency statistics."""

import numpy as np
import pytest

from repro.core.events import DetectedStall, ProfileReport
from repro.core.refresh import refresh_stats, split_by_refresh
from repro.core.stats import (
    LatencySummary,
    latency_histogram,
    stalls_summary,
    tail_fraction,
)


def stall(begin, end, period=20.0, refresh=False):
    return DetectedStall(
        begin_sample=begin,
        end_sample=end,
        begin_cycle=begin * period,
        end_cycle=end * period,
        min_level=0.05,
        is_refresh=refresh,
    )


def report(stalls, total_cycles=100_000.0):
    return ProfileReport(
        stalls=stalls,
        total_cycles=total_cycles,
        clock_hz=1e9,
        sample_period_cycles=20.0,
    )


class TestDetectedStall:
    def test_durations(self):
        s = stall(10, 25)
        assert s.duration_samples == 15
        assert s.duration_cycles == 300


class TestProfileReport:
    def test_miss_count(self):
        assert report([stall(0, 10), stall(20, 30)]).miss_count == 2

    def test_stall_cycles(self):
        r = report([stall(0, 10), stall(20, 35)])
        assert r.stall_cycles == pytest.approx(500)

    def test_stall_fraction(self):
        r = report([stall(0, 50)], total_cycles=10_000)
        assert r.stall_fraction == pytest.approx(0.1)

    def test_stall_fraction_zero_total(self):
        assert report([], total_cycles=0).stall_fraction == 0.0

    def test_mean_latency(self):
        r = report([stall(0, 10), stall(20, 40)])
        assert r.mean_latency_cycles == pytest.approx(300)

    def test_mean_latency_empty(self):
        assert report([]).mean_latency_cycles == 0.0

    def test_refresh_count(self):
        r = report([stall(0, 10), stall(20, 120, refresh=True)])
        assert r.refresh_count == 1

    def test_latencies_array(self):
        lat = report([stall(0, 10), stall(20, 40)]).latencies_cycles()
        np.testing.assert_allclose(lat, [200, 400])

    def test_stalls_between(self):
        r = report([stall(0, 10), stall(100, 110)])
        inside = r.stalls_between(1900, 2300)
        assert len(inside) == 1

    def test_miss_rate_timeline(self):
        r = report([stall(0, 10), stall(100, 110)], total_cycles=4000)
        starts, counts = r.miss_rate_timeline(2000)
        assert counts.tolist() == [1, 1]

    def test_timeline_rejects_bad_bin(self):
        with pytest.raises(ValueError):
            report([]).miss_rate_timeline(0)

    def test_summary_mentions_counts(self):
        text = report([stall(0, 10)]).summary()
        assert "1 LLC-miss stalls" in text


class TestLatencyStats:
    def test_summary_from_latencies(self):
        s = LatencySummary.from_latencies(np.array([100.0, 200.0, 300.0]))
        assert s.count == 3
        assert s.mean == pytest.approx(200)
        assert s.median == pytest.approx(200)
        assert s.maximum == pytest.approx(300)
        assert s.total == pytest.approx(600)

    def test_summary_empty(self):
        s = LatencySummary.from_latencies(np.array([]))
        assert s.count == 0
        assert s.mean == 0.0

    def test_histogram_shape(self):
        edges, counts = latency_histogram(np.array([30.0, 95.0, 110.0]), bin_cycles=50)
        assert len(edges) == len(counts) + 1
        assert counts.sum() == 3

    def test_histogram_bins_land_correctly(self):
        edges, counts = latency_histogram(np.array([30.0, 95.0]), bin_cycles=50)
        assert counts[0] == 1  # 30 in [0, 50)
        assert counts[1] == 1  # 95 in [50, 100)

    def test_histogram_empty(self):
        edges, counts = latency_histogram(np.array([]))
        assert counts.sum() == 0

    def test_histogram_max_cap(self):
        edges, counts = latency_histogram(
            np.array([10.0, 999.0]), bin_cycles=50, max_cycles=100
        )
        assert counts.sum() == 2  # the outlier is clipped into the last bin

    def test_histogram_rejects_bad_bin(self):
        with pytest.raises(ValueError):
            latency_histogram(np.array([1.0]), bin_cycles=0)

    def test_tail_fraction(self):
        lat = np.array([100.0, 200.0, 700.0, 900.0])
        assert tail_fraction(lat, 600) == pytest.approx(0.5)

    def test_tail_fraction_empty(self):
        assert tail_fraction(np.array([]), 100) == 0.0

    def test_stalls_summary(self):
        s = stalls_summary([stall(0, 10), stall(0, 20)])
        assert s.count == 2
        assert s.mean == pytest.approx(300)


class TestRefreshStats:
    def test_counts_and_means(self):
        stalls = [stall(0, 10), stall(100, 220, refresh=True), stall(5000, 5120, refresh=True)]
        rs = refresh_stats(stalls)
        assert rs.count == 2
        assert rs.mean_duration_cycles == pytest.approx(2400)
        assert rs.fraction_of_stalls == pytest.approx(2 / 3)

    def test_interval_estimate(self):
        stalls = [stall(k * 3500, k * 3500 + 120, refresh=True) for k in range(5)]
        rs = refresh_stats(stalls)
        assert rs.estimated_interval_cycles == pytest.approx(70_000)

    def test_interval_none_for_single_event(self):
        rs = refresh_stats([stall(0, 120, refresh=True)])
        assert rs.estimated_interval_cycles is None

    def test_empty(self):
        rs = refresh_stats([])
        assert rs.count == 0
        assert rs.fraction_of_stalls == 0.0

    def test_split(self):
        stalls = [stall(0, 10), stall(100, 220, refresh=True)]
        ordinary, refresh = split_by_refresh(stalls)
        assert len(ordinary) == 1
        assert len(refresh) == 1
        assert refresh[0].is_refresh
