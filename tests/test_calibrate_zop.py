"""Tests for detector calibration and the ZOP-style matcher."""

import numpy as np
import pytest

from repro.attribution.zop import ZopMatcher, ZopResult, sequence_accuracy
from repro.core.calibrate import (
    CalibrationPoint,
    calibrate_detector,
    sensitivity,
)


# -- calibration ----------------------------------------------------------------


@pytest.fixture(scope="module")
def calibration_capture():
    """A 128-miss microbenchmark capture on the Olimex model."""
    from repro import Microbenchmark, simulate
    from repro.devices import default_channel, olimex
    from repro.emsignal import measure

    workload = Microbenchmark(total_misses=128, consecutive_misses=4)
    result = simulate(workload, olimex())
    capture = measure(result, bandwidth_hz=40e6, channel=default_channel("olimex"))
    return capture, workload.total_misses


class TestCalibration:
    def test_finds_accurate_config(self, calibration_capture):
        capture, expected = calibration_capture
        result = calibrate_detector(
            capture,
            expected,
            thresholds=(0.30, 0.45, 0.60),
            min_durations=(70.0,),
            windows=(2001,),
        )
        assert result.accuracy > 0.97
        assert result.expected == expected
        assert result.best in result.points

    def test_winning_config_reproduces_best_point(self, calibration_capture):
        from repro.core.markers import find_marker_window
        from repro.core.profiler import Emprof

        capture, expected = calibration_capture
        result = calibrate_detector(
            capture, expected,
            thresholds=(0.45,), min_durations=(70.0,), windows=(2001,),
        )
        profiler = Emprof.from_capture(capture, config=result.config)
        window = find_marker_window(profiler.signal, marker_min_samples=200)
        report = profiler.profile_window(window.begin_sample, window.end_sample)
        assert report.miss_count == result.best.detected

    def test_bad_extreme_scores_lower(self, calibration_capture):
        capture, expected = calibration_capture
        result = calibrate_detector(
            capture, expected,
            thresholds=(0.45, 0.9),  # 0.9 floods false positives
            min_durations=(70.0,),
            windows=(2001,),
        )
        assert result.best.threshold == pytest.approx(0.45)
        worst = max(result.points, key=lambda p: abs(p.detected - expected))
        assert worst.threshold == pytest.approx(0.9)

    def test_rejects_bad_expected(self, calibration_capture):
        capture, _ = calibration_capture
        with pytest.raises(ValueError):
            calibrate_detector(capture, 0)

    def test_unusable_capture_raises(self):
        from repro.emsignal.receiver import Capture

        rng = np.random.default_rng(0)
        noise = Capture(rng.random(3000), 40e6, 1e9, 40e6)
        with pytest.raises(ValueError):
            calibrate_detector(
                noise, 100, thresholds=(0.45,), min_durations=(70.0,), windows=(801,)
            )

    def test_sensitivity_shape(self, calibration_capture):
        capture, expected = calibration_capture
        result = calibrate_detector(
            capture, expected,
            thresholds=(0.38, 0.45), min_durations=(70.0, 100.0), windows=(2001,),
        )
        sens = sensitivity(result.points)
        assert set(sens) == {"threshold", "min_duration_cycles", "window_samples"}
        assert set(sens["threshold"]) == {0.38, 0.45}
        for acc in sens["threshold"].values():
            assert 0.0 <= acc <= 1.0


# -- ZOP matcher --------------------------------------------------------------------


def block(freq, n=64, phase=0.0):
    t = np.arange(n)
    return 0.8 + 0.15 * np.sin(2 * np.pi * freq * t / n + phase)


class TestZopMatcher:
    def make(self):
        m = ZopMatcher(max_distance=0.5)
        m.add_template("A", block(2.0))
        m.add_template("B", block(7.0))
        m.add_template("C", block(13.0))
        return m

    def test_blocks_listed(self):
        assert set(self.make().blocks) == {"A", "B", "C"}

    def test_reconstructs_clean_sequence(self, rng):
        m = self.make()
        seq = ["A", "B", "A", "C", "B", "B", "A"]
        signal = np.concatenate([block({"A": 2.0, "B": 7.0, "C": 13.0}[s]) for s in seq])
        result = m.match(signal)
        assert result.sequence() == seq
        assert result.coverage == pytest.approx(1.0)

    def test_survives_moderate_noise(self, rng):
        m = self.make()
        seq = ["A", "C", "B", "A"]
        signal = np.concatenate(
            [block({"A": 2.0, "B": 7.0, "C": 13.0}[s]) for s in seq]
        ) + rng.normal(0, 0.02, 4 * 64)
        result = m.match(signal)
        assert sequence_accuracy(result, seq) > 0.7

    def test_unmatchable_region_skipped(self, rng):
        m = self.make()
        # A flat stall-like stretch matches no template.
        signal = np.concatenate([block(2.0), np.full(64, 0.1), block(7.0)])
        result = m.match(signal)
        names = result.sequence()
        assert names[0] == "A"
        assert "B" in names
        assert result.coverage < 1.0

    def test_comparisons_scale_with_hypotheses(self):
        # The paper's cost argument: more path hypotheses = more work.
        few = ZopMatcher()
        few.add_template("A", block(2.0))
        many = ZopMatcher()
        for k in range(12):
            many.add_template(f"B{k}", block(2.0 + k))
        signal = np.tile(block(2.0), 30)
        assert many.match(signal).comparisons > 5 * few.match(signal).comparisons

    def test_requires_templates(self):
        with pytest.raises(RuntimeError):
            ZopMatcher().match(np.zeros(100))

    def test_rejects_short_template(self):
        with pytest.raises(ValueError):
            ZopMatcher().add_template("x", np.zeros(4))

    def test_rejects_bad_distance(self):
        with pytest.raises(ValueError):
            ZopMatcher(max_distance=0.0)


class TestSequenceAccuracy:
    @staticmethod
    def res(names):
        from repro.attribution.zop import ZopSegment

        segments = [ZopSegment(n, 64 * i, 64 * (i + 1), 0.0) for i, n in enumerate(names)]
        return ZopResult(segments=segments, comparisons=0, coverage=1.0)

    def test_perfect(self):
        assert sequence_accuracy(self.res(["A", "B"]), ["A", "B"]) == 1.0

    def test_partial(self):
        acc = sequence_accuracy(self.res(["A", "X", "B"]), ["A", "B", "C"])
        assert acc == pytest.approx(2 / 3)

    def test_empty_expected(self):
        assert sequence_accuracy(self.res([]), []) == 1.0

    def test_matches_textbook_lcs_dp(self):
        def lcs(a, b):
            dp = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
            for i in range(1, len(a) + 1):
                for j in range(1, len(b) + 1):
                    if a[i - 1] == b[j - 1]:
                        dp[i][j] = dp[i - 1][j - 1] + 1
                    else:
                        dp[i][j] = max(dp[i - 1][j], dp[i][j - 1])
            return dp[len(a)][len(b)]

        rng = np.random.default_rng(7)
        for _ in range(300):
            alphabet = list("ABCDEFG"[: rng.integers(1, 8)])
            got = list(rng.choice(alphabet, size=rng.integers(0, 90)))
            expected = list(rng.choice(alphabet, size=rng.integers(1, 90)))
            acc = sequence_accuracy(self.res(got), expected)
            assert acc == lcs(got, expected) / len(expected)
