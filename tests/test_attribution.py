"""Unit tests for spectral attribution."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.attribution.report import (
    RegionReport,
    attribute_stalls,
    format_region_table,
)
from repro.attribution.spectral import (
    RegionSegment,
    RegionTimeline,
    SpectralProfiler,
    timeline_accuracy,
)
from repro.core.events import DetectedStall, ProfileReport

RATE = 50e6


def tone(freq, n, rate=RATE, rng=None):
    """A busy-looking signal with a characteristic modulation line."""
    t = np.arange(n) / rate
    base = 0.8 + 0.15 * np.sin(2 * np.pi * freq * t)
    if rng is not None:
        base = base + rng.normal(0, 0.01, n)
    return base


class TestSpectralProfiler:
    def make_trained(self, rng):
        prof = SpectralProfiler(window_samples=128, smoothing_frames=3)
        prof.train("slow", tone(1e6, 4096, rng=rng), RATE)
        prof.train("fast", tone(8e6, 4096, rng=rng), RATE)
        return prof

    def test_regions_listed(self, rng):
        prof = self.make_trained(rng)
        assert set(prof.regions) == {"slow", "fast"}

    def test_classify_pure_segments(self, rng):
        prof = self.make_trained(rng)
        test = np.concatenate([tone(1e6, 4096, rng=rng), tone(8e6, 4096, rng=rng)])
        timeline = prof.attribute(test, RATE)
        assert timeline.region_at(1000) == "slow"
        assert timeline.region_at(7000) == "fast"

    def test_segments_contiguous(self, rng):
        prof = self.make_trained(rng)
        test = np.concatenate([tone(1e6, 4096, rng=rng), tone(8e6, 4096, rng=rng)])
        timeline = prof.attribute(test, RATE)
        for a, b in zip(timeline.segments, timeline.segments[1:]):
            assert a.end_sample == pytest.approx(b.begin_sample)

    def test_timeline_accuracy_high_on_clean_signal(self, rng):
        prof = self.make_trained(rng)
        test = np.concatenate([tone(1e6, 4096, rng=rng), tone(8e6, 4096, rng=rng)])
        timeline = prof.attribute(test, RATE)
        acc = timeline_accuracy(
            timeline, [("slow", 0, 4096), ("fast", 4096, 8192)]
        )
        assert acc > 0.9

    def test_untrained_classification_raises(self):
        prof = SpectralProfiler()
        with pytest.raises(RuntimeError):
            prof.attribute(np.zeros(1024), RATE)

    def test_short_training_signal_raises(self):
        prof = SpectralProfiler(window_samples=256)
        with pytest.raises(ValueError):
            prof.train("x", np.zeros(64), RATE)

    def test_smoothing_config_validation(self):
        with pytest.raises(ValueError):
            SpectralProfiler(smoothing_frames=4)  # must be odd

    def test_train_many(self, rng):
        prof = SpectralProfiler(window_samples=128)
        prof.train_many(
            {"a": tone(1e6, 2048, rng=rng), "b": tone(8e6, 2048, rng=rng)}, RATE
        )
        assert set(prof.regions) == {"a", "b"}


# Every 3-frame window of these labels is a three-way tie (or a
# two-way one at the edges), so only the tie rule picks the winner.
TIED_LABELS = [f"region_{name}" for name in "qwertyuiopasdfgh"]
TIED_VOTE = (
    "import json, sys\n"
    "from repro.attribution.spectral import SpectralProfiler\n"
    "labels = json.loads(sys.argv[1])\n"
    "print(json.dumps(SpectralProfiler(smoothing_frames=3)._smooth(labels)))\n"
)


class TestMajorityVote:
    def test_majority_first_then_first_seen(self):
        labels = ["a", "b", "b", "a", "c"]
        assert SpectralProfiler(smoothing_frames=3)._smooth(labels) == [
            "a", "b", "b", "b", "a",
        ]

    def test_ties_do_not_depend_on_hash_seed(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        answers = set()
        for seed in ("0", "3"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = src + (
                os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
            )
            out = subprocess.run(
                [sys.executable, "-c", TIED_VOTE, json.dumps(TIED_LABELS)],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            ).stdout
            answers.add(tuple(json.loads(out)))
        assert answers == {tuple(TIED_LABELS[:1] + TIED_LABELS[:-1])}


class TestRegionTimeline:
    def make(self):
        return RegionTimeline(
            segments=[
                RegionSegment("a", 0, 100),
                RegionSegment("b", 100, 250),
                RegionSegment("a", 250, 300),
            ],
            sample_rate_hz=RATE,
        )

    def test_region_at(self):
        tl = self.make()
        assert tl.region_at(50) == "a"
        assert tl.region_at(150) == "b"
        assert tl.region_at(1000) is None

    def test_samples_per_region(self):
        totals = self.make().samples_per_region()
        assert totals == {"a": 150, "b": 150}

    def test_segment_width(self):
        assert RegionSegment("a", 10, 35).width == 25


class TestAttributionReport:
    def make_report(self):
        period = 20.0
        stalls = [
            DetectedStall(10, 20, 200, 400, 0.05),  # inside region a
            DetectedStall(120, 130, 2400, 2600, 0.05),  # inside region b
            DetectedStall(140, 155, 2800, 3100, 0.05),  # inside region b
        ]
        return ProfileReport(
            stalls=stalls,
            total_cycles=6000,
            clock_hz=1e9,
            sample_period_cycles=period,
        )

    def make_timeline(self):
        return RegionTimeline(
            segments=[RegionSegment("a", 0, 100), RegionSegment("b", 100, 300)],
            sample_rate_hz=RATE,
        )

    def test_rows_cover_regions(self):
        rows = attribute_stalls(self.make_report(), self.make_timeline())
        assert {r.region for r in rows} == {"a", "b"}

    def test_counts_assigned_correctly(self):
        rows = {r.region: r for r in attribute_stalls(self.make_report(), self.make_timeline())}
        assert rows["a"].total_misses == 1
        assert rows["b"].total_misses == 2

    def test_rates_per_mcycle(self):
        rows = {r.region: r for r in attribute_stalls(self.make_report(), self.make_timeline())}
        # Region a spans 100 samples * 20 cycles = 2000 cycles.
        assert rows["a"].miss_rate_per_mcycle == pytest.approx(1e6 / 2000)

    def test_stall_percent(self):
        rows = {r.region: r for r in attribute_stalls(self.make_report(), self.make_timeline())}
        assert rows["a"].stall_percent == pytest.approx(100 * 200 / 2000)

    def test_avg_latency(self):
        rows = {r.region: r for r in attribute_stalls(self.make_report(), self.make_timeline())}
        assert rows["b"].avg_latency_cycles == pytest.approx(250)

    def test_rows_sorted_by_cycles(self):
        rows = attribute_stalls(self.make_report(), self.make_timeline())
        assert rows[0].region == "b"  # larger region first

    def test_format_table(self):
        rows = attribute_stalls(self.make_report(), self.make_timeline())
        text = format_region_table(rows)
        assert "Region" in text
        assert "b" in text
        assert len(text.splitlines()) == 4
