"""Unit tests for the fault-injection layer (repro.faults.inject)."""

import numpy as np
import pytest

from repro.faults import (
    BurstFault,
    ClippingFault,
    DcDriftFault,
    DropoutFault,
    FaultInjector,
    GainStepFault,
    ImpairmentLog,
    iter_chunks,
)


def base_signal(n=4000, seed=3):
    rng = np.random.default_rng(seed)
    return np.clip(0.8 + rng.normal(0, 0.05, n), 0.0, None)


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        faults = [
            DropoutFault(rate=0.02),
            GainStepFault(steps=2),
            ClippingFault(rate=0.01),
            BurstFault(bursts=1),
            DcDriftFault(),
        ]
        x = base_signal()
        a = FaultInjector(faults, seed=5).apply(x)
        b = FaultInjector(faults, seed=5).apply(x)
        np.testing.assert_array_equal(a.signal, b.signal)
        assert a.log.events == b.log.events

    def test_different_seed_differs(self):
        x = base_signal()
        a = FaultInjector([DropoutFault(rate=0.02)], seed=1).apply(x)
        b = FaultInjector([DropoutFault(rate=0.02)], seed=2).apply(x)
        assert len(a.signal) != len(b.signal) or not np.array_equal(
            a.signal, b.signal
        )

    def test_input_never_mutated(self):
        x = base_signal()
        snapshot = x.copy()
        FaultInjector([GainStepFault(), ClippingFault()], seed=0).apply(x)
        np.testing.assert_array_equal(x, snapshot)


class TestDropouts:
    def test_samples_removed_and_gaps_reported(self):
        x = base_signal()
        impaired = FaultInjector([DropoutFault(rate=0.02)], seed=0).apply(x)
        dropped = sum(d for _, d in impaired.gaps)
        assert dropped > 0
        assert len(impaired.signal) == len(x) - dropped
        assert impaired.log.count("dropout") == len(impaired.gaps)
        # roughly the requested rate (the planner rounds per run)
        assert dropped == pytest.approx(0.02 * len(x), rel=0.5)

    def test_map_position_monotone_and_bounded(self):
        x = base_signal()
        impaired = FaultInjector([DropoutFault(rate=0.05)], seed=4).apply(x)
        mapped = [impaired.map_position(p) for p in range(len(x))]
        assert all(b >= a for a, b in zip(mapped, mapped[1:]))
        assert max(mapped) <= len(impaired.signal)
        # samples surviving the cut keep their values at the mapped spot
        keep_positions = [
            p for p in range(0, len(x), 97)
            if impaired.map_position(p + 1) > impaired.map_position(p)
        ]
        for p in keep_positions:
            assert impaired.signal[int(impaired.map_position(p))] == x[p]

    def test_no_dropout_is_identity(self):
        x = base_signal()
        impaired = FaultInjector([DropoutFault(rate=0.0)], seed=0).apply(x)
        np.testing.assert_array_equal(impaired.signal, x)
        assert impaired.gaps == []
        assert impaired.map_position(123.0) == 123.0


class TestValueFaults:
    def test_clipping_caps_and_logs(self):
        x = base_signal()
        fault = ClippingFault(rate=0.01)
        impaired = FaultInjector([fault], seed=0).apply(x)
        level = fault.clip_level(x)
        assert impaired.signal.max() <= level
        assert impaired.log.count("clip") > 0

    def test_gain_steps_logged_with_factor(self):
        x = base_signal()
        impaired = FaultInjector([GainStepFault(steps=3)], seed=0).apply(x)
        events = [e for e in impaired.log.events if e.kind == "gain_step"]
        assert len(events) == 3
        assert all("factor=" in e.detail for e in events)

    def test_dc_drift_is_benign(self):
        x = base_signal()
        impaired = FaultInjector([DcDriftFault()], seed=0).apply(x)
        assert impaired.log.count("dc_drift") == 1
        assert impaired.log.severe_intervals() == []
        assert (impaired.signal >= 0).all()

    def test_burst_raises_level(self):
        x = base_signal()
        impaired = FaultInjector([BurstFault(bursts=2)], seed=0).apply(x)
        assert impaired.signal.max() > x.max() * 2
        assert impaired.log.count("burst") == 2


class TestImpairmentLog:
    def test_overlap_queries(self):
        log = ImpairmentLog()
        log.add("clip", 100, 120)
        log.add("gain_step", 300, 301)
        log.add("dc_drift", 0, 1000, severe=False)
        assert log.overlaps(110, 115)
        assert log.overlaps(290, 295, margin=10)
        assert not log.overlaps(500, 600)
        assert log.severe_intervals() == [(100, 120), (300, 301)]

    def test_summary_counts(self):
        log = ImpairmentLog()
        log.add("clip", 0, 5)
        log.add("clip", 9, 12)
        assert "clip: 2" in log.summary()
        assert ImpairmentLog().summary() == "no impairments"


class TestIterChunks:
    def test_reassembles_signal_and_gaps(self):
        x = base_signal()
        impaired = FaultInjector([DropoutFault(rate=0.03)], seed=2).apply(x)
        chunks = list(iter_chunks(impaired, chunk_samples=257))
        np.testing.assert_array_equal(
            np.concatenate([c for c, _ in chunks]), impaired.signal
        )
        assert sum(g for _, g in chunks) == sum(d for _, d in impaired.gaps)

    def test_rejects_bad_chunk_size(self):
        impaired = FaultInjector([], seed=0).apply(base_signal())
        with pytest.raises(ValueError):
            list(iter_chunks(impaired, chunk_samples=0))
