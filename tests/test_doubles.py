"""The failing-source test doubles of ``tests/doubles.py``."""

import pytest

from repro.errors import TransientAcquisitionError
from repro.experiments import SimulatedCaptureSource
from repro.faults import DropoutFault, FaultInjector
from tests.doubles import FaultySource, FlakySource


class TestSourceWrappers:
    def make_source(self):
        return SimulatedCaptureSource(tm=16, cm=4)

    def test_faulty_source_impairs_capture(self):
        source = self.make_source()
        clean = source.capture()
        faulty = FaultySource(
            self.make_source(), FaultInjector([DropoutFault(rate=0.02)], seed=0)
        )
        impaired = faulty.capture()
        assert len(impaired.magnitude) < len(clean.magnitude)
        assert impaired.sample_rate_hz == clean.sample_rate_hz
        assert faulty.last_log is not None
        assert faulty.last_impaired is not None

    def test_flaky_source_raises_then_succeeds(self):
        flaky = FlakySource(self.make_source(), failures=2)
        for _ in range(2):
            with pytest.raises(TransientAcquisitionError):
                flaky.capture()
        capture = flaky.capture()
        assert len(capture.magnitude) > 0
