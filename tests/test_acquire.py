"""Tests for the signal-source abstraction."""

import numpy as np
import pytest

from repro import io as repro_io
from repro.acquire import FileSource, SdrSource, SignalSource
from repro.devices import olimex
from repro.experiments import SimulatedCaptureSource
from repro.experiments.runner import simulate_and_measure
from repro.workloads import Microbenchmark


@pytest.fixture(scope="module")
def small_workload():
    return Microbenchmark(total_misses=32, consecutive_misses=4,
                          blank_iterations=4000)


class TestSimulatedSource:
    """The simulated source ``repro capture`` and the campaign daemon run."""

    def test_implements_protocol(self):
        assert isinstance(SimulatedCaptureSource(), SignalSource)

    def test_capture_defaults_to_olimex(self):
        cap = SimulatedCaptureSource(tm=32, cm=4).capture()
        assert cap.clock_hz == pytest.approx(1.008e9)
        assert cap.bandwidth_hz == 40e6
        assert len(cap.magnitude) > 100

    def test_custom_device(self):
        source = SimulatedCaptureSource(tm=32, cm=4, device="samsung")
        assert source.capture().clock_hz == pytest.approx(0.8e9)

    def test_ground_truth_retained(self, small_workload):
        result, _ = simulate_and_measure(small_workload, olimex())
        assert result.ground_truth.miss_count() > 30

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"workload": "nope"}, "unknown workload 'nope'"),
            ({"device": "nokia"}, "unknown device 'nokia'"),
            ({"tm": -4}, "tm must be positive"),
            ({"cm": 0}, "cm must be positive"),
            ({"scale": 0.0}, "scale must be positive"),
            ({"bandwidth_mhz": -40.0}, "bandwidth_mhz must be positive"),
            ({"tm": 4, "cm": 8}, "cannot exceed"),
        ],
    )
    def test_rejects_what_it_cannot_capture_at_construction(self, fields, message):
        with pytest.raises(ValueError, match=message):
            SimulatedCaptureSource(**fields)

    def test_deterministic_per_seed(self):
        a = SimulatedCaptureSource(tm=32, cm=4, seed=5).capture()
        b = SimulatedCaptureSource(tm=32, cm=4, seed=5).capture()
        np.testing.assert_array_equal(a.magnitude, b.magnitude)


class TestFileSource:
    def test_roundtrip(self, small_workload, tmp_path):
        _, cap = simulate_and_measure(small_workload, olimex())
        path = tmp_path / "cap.npz"
        repro_io.save_capture(path, cap)
        loaded = FileSource(path).capture()
        np.testing.assert_array_equal(loaded.magnitude, cap.magnitude)
        assert isinstance(FileSource(path), SignalSource)


class TestSdrSource:
    def test_raises_with_adapter_hint(self):
        with pytest.raises(NotImplementedError, match="SoapySDR"):
            SdrSource()
