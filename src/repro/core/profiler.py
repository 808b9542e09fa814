"""The EMPROF profiler facade.

Ties the pipeline together exactly as Section IV describes the
prototype: magnitude in, moving-min/max normalization, dip detection
with a duration threshold, and a :class:`ProfileReport` out.  The
profiler is agnostic about where the magnitude signal came from - the
simulator's power trace (Section V-C) and the receiver's EM capture
(Section V-B) go through the identical code path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from ..obs import trace as _trace
from ..obs.flight import FlightRecorder
from .detect import DetectorConfig
from .events import ProfileReport
from .normalize import NormalizerConfig, normalize, presmooth
from .pipeline import ProfilePipeline


def _run_done(report, _elapsed_s, _attrs):
    return {"stalls": report.miss_count}


def _instrumented_run(name: str, attrs):
    """The span and run events shared by every profiling mode."""
    return _trace.instrumented(name, attrs=attrs, on_exit=_run_done, run_events=True)


@dataclass(frozen=True)
class EmprofConfig:
    """Complete EMPROF parameter set (normalization + detection)."""

    normalizer: NormalizerConfig = field(default_factory=NormalizerConfig)
    detector: DetectorConfig = field(default_factory=DetectorConfig)


class Emprof:
    """Profile one captured (or simulated) side-channel signal.

    Args:
        signal: magnitude samples (non-negative).
        sample_rate_hz: sampling rate of ``signal``.
        clock_hz: target processor's clock frequency; converts sample
            positions into cycle counts ("the number of cycles this
            stall corresponds to can be computed by multiplying dt with
            the processor's clock frequency", Section III-A).
        config: EMPROF parameters; defaults are tuned for the device
            models in :mod:`repro.devices`.
        region_names: optional region-id -> name map carried into the
            report for attribution experiments.
    """

    def __init__(
        self,
        signal: np.ndarray,
        sample_rate_hz: float,
        clock_hz: float,
        config: Optional[EmprofConfig] = None,
        region_names: Optional[Dict[int, str]] = None,
    ):
        sig = np.asarray(signal, dtype=np.float64)
        if sig.ndim != 1:
            raise ValueError("signal must be one-dimensional")
        if sample_rate_hz <= 0 or clock_hz <= 0:
            raise ValueError("rates must be positive")
        self.signal = sig
        self.sample_rate_hz = float(sample_rate_hz)
        self.clock_hz = float(clock_hz)
        self.config = config if config is not None else EmprofConfig()
        self.region_names = dict(region_names or {})
        self._normalized: Optional[np.ndarray] = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_simulation(cls, result, config: Optional[EmprofConfig] = None) -> "Emprof":
        """Analyze a simulator power trace (the Section V-C path)."""
        return cls(
            result.power_trace,
            sample_rate_hz=result.sample_rate_hz,
            clock_hz=result.config.clock_hz,
            config=config,
            region_names=result.ground_truth.region_names,
        )

    @classmethod
    def from_capture(cls, capture, config: Optional[EmprofConfig] = None) -> "Emprof":
        """Analyze a received EM capture (the Section V-B path).

        ``capture`` is a :class:`repro.emsignal.receiver.Capture`:
        its magnitude, sample rate and carrier (clock) frequency are
        used directly.
        """
        return cls(
            capture.magnitude,
            sample_rate_hz=capture.sample_rate_hz,
            clock_hz=capture.clock_hz,
            config=config,
            region_names=dict(getattr(capture, "region_names", {}) or {}),
        )

    # -- analysis ----------------------------------------------------------

    @property
    def sample_period_cycles(self) -> float:
        """Processor cycles represented by one signal sample."""
        return self.clock_hz / self.sample_rate_hz

    def normalized(self) -> np.ndarray:
        """Normalized magnitude in [0, 1]; computed once and cached."""
        if self._normalized is None:
            self._normalized = normalize(self.signal, self.config.normalizer)
        return self._normalized

    @_instrumented_run(
        "profile", lambda self, flight: {"samples": len(self.signal)}
    )
    def profile(
        self, flight: Optional[FlightRecorder] = None
    ) -> ProfileReport:
        """Run detection over the whole signal and build the report.

        With a :class:`~repro.obs.flight.FlightRecorder` attached, the
        engine's decisions are recorded and the returned report carries
        a :class:`~repro.obs.flight.ReportEvidence` in
        ``report.evidence``; stalls are bit-identical either way.
        """
        return self._detect(0, len(self.signal), flight)

    @_instrumented_run(
        "profile_chunked",
        lambda self, chunk_samples, flight: {
            "samples": len(self.signal), "chunk": chunk_samples
        },
    )
    def profile_chunked(
        self,
        chunk_samples: int = 65536,
        flight: Optional[FlightRecorder] = None,
    ) -> ProfileReport:
        """Profile in bounded-memory pieces of ``chunk_samples``.

        Pushes the signal through the pipeline the streaming path
        uses, so the whole normalized signal is never materialized; the
        result is bit-identical to :meth:`profile` for any chunk size
        (the equivalence contract of ``docs/engine.md``).
        """
        if chunk_samples < 1:
            raise ValueError("chunk_samples must be at least 1")
        x, norm_cfg = presmooth(self.signal, self.config.normalizer)
        pipeline = ProfilePipeline(
            self.sample_period_cycles,
            self.config.detector,
            normalizer=norm_cfg,
            flight=flight,
        )
        for begin in range(0, len(x), chunk_samples):
            pipeline.push(x[begin : begin + chunk_samples])
        pipeline.finish()
        return pipeline.report(self.clock_hz, self.region_names)

    @_instrumented_run(
        "profile_window",
        lambda self, begin_sample, end_sample: {
            "samples": end_sample - begin_sample,
            "begin": begin_sample,
            "end": end_sample,
        },
    )
    def profile_window(self, begin_sample: int, end_sample: int) -> ProfileReport:
        """Profile only samples [begin_sample, end_sample).

        Normalization still uses the full signal (the moving extrema
        need surrounding context); only detection is windowed, and the
        stalls come back in whole-signal coordinates.  Used for the
        microbenchmark experiments, where the measurement window
        between the two marker loops is isolated first.
        """
        if not 0 <= begin_sample <= end_sample <= len(self.signal):
            raise ValueError("window out of signal bounds")
        return self._detect(begin_sample, end_sample)

    def _detect(
        self, begin: int, end: int, flight: Optional[FlightRecorder] = None
    ) -> ProfileReport:
        """One pipeline detection over the cached normalization's [begin, end)."""
        pipeline = ProfilePipeline(
            self.sample_period_cycles,
            self.config.detector,
            flight=flight,
            offset_samples=begin,
        )
        pipeline.detect(self.normalized()[begin:end])
        return pipeline.report(self.clock_hz, self.region_names)
