"""The one EMPROF pipeline behind every profiling mode."""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..devtools.contracts import (
    monotonic_stall_stream,
    report_result,
    unit_interval_result,
)
from ..faults.quality import impaired_mask
from ..obs import trace as _trace
from ..obs.events import bus as _event_bus
from ..obs.flight import FLIGHT_SCHEMA_VERSION, FlightEvent, build_evidence
from ..obs.runtime import obs_enabled
from .engine import ChunkDetector, ChunkNormalizer
from .events import ProfileReport, StallTable


def _detect_done(stalls, _elapsed_s, _attrs):
    return {"stalls": len(stalls)}


class ProfilePipeline:
    """One EMPROF run: samples in, stalls and a report out.

    Section IV's algorithm - moving min/max normalization, dip
    detection with a duration threshold, report - runs the same way on
    a whole MXA capture and on the streamed captures of Section VI, so
    every profiling mode is a use of this object:

    * batch (``Emprof.profile``, ``detect_stalls``) and windowed
      (``Emprof.profile_window``): one :meth:`detect` over normalized
      samples;
    * chunked (``Emprof.profile_chunked``): :meth:`push` per chunk,
      then :meth:`finish`;
    * streaming (``StreamingEmprof``): the same, with :meth:`resync`
      at every stream discontinuity.

    Stalls travel as :class:`~repro.core.events.StallTable` columns
    from the engine to the report: no step builds a per-stall object.
    Every stall leaves through one emission point, which applies the
    window offset and the quality flags, checks the monotonic-stream
    contract and emits the ``stall_detected`` events; the ``report``
    span counts the stalls.

    Args:
        sample_period_cycles: processor cycles per signal sample.
        detector: a :class:`~repro.core.detect.DetectorConfig`.
        normalizer: a :class:`~repro.core.normalize.NormalizerConfig`
            without pre-smoothing, or None when :meth:`push` receives
            normalized samples.
        quality: a :class:`~repro.faults.quality.QualityMonitor` that
            watches every pushed chunk and whose impaired intervals
            flag stalls.
        flight: a :class:`~repro.obs.flight.FlightRecorder` for every
            engine decision.
        offset_samples: position of the first pushed sample in the
            coordinates stalls are reported in.
    """

    def __init__(
        self,
        sample_period_cycles: float,
        detector,
        normalizer=None,
        quality=None,
        flight=None,
        offset_samples: int = 0,
    ):
        self.period = float(sample_period_cycles)
        self.detector_config = detector
        self.quality = quality
        self.flight = flight
        self.offset_samples = offset_samples
        #: The tables of stalls emitted so far, in order.
        self._emitted: List[StallTable] = []
        #: Samples pushed, and samples lost to gaps, so far.
        self.samples_seen = 0
        self.samples_dropped = 0
        self._detector = ChunkDetector(sample_period_cycles, detector, flight=flight)
        self._normalizer = (
            None if normalizer is None else ChunkNormalizer(normalizer, flight=flight)
        )

    def push(self, samples: np.ndarray) -> StallTable:
        """Feed samples; return the stalls they finalized."""
        x = np.asarray(samples, dtype=np.float64)
        if self.quality is not None:
            self.quality.observe(x, self.samples_seen)
        self.samples_seen += len(x)
        if self._normalizer is not None:
            x = self._normalize(x)
        return self._emit(self._detector.push(x))

    def finish(self) -> StallTable:
        """Drain the normalizer and close any open dip: end of signal."""
        return self._emit(self._drain() + self._detector.finish())

    def resync(self, dropped: int) -> StallTable:
        """Continue after a stream gap of ``dropped`` lost samples.

        The open dip cannot bridge unknown samples, so it is closed;
        the normalizer is re-primed so stale extrema never normalize
        what follows; and the quality monitor marks the gap impaired.
        """
        self._record("gap", self.samples_seen, dropped=int(dropped))
        if self.quality is not None:
            self.quality.mark_gap(self.samples_seen, dropped)
        self.samples_dropped += int(dropped)
        _event_bus.emit("quality_flag", flag="gap", dropped=int(dropped))
        stalls = self._drain() + self._detector.resync()
        if self._normalizer is not None:
            self._normalizer = ChunkNormalizer(
                self._normalizer.config, flight=self.flight
            )
        return self._emit(stalls)

    @_trace.instrumented(
        "detect",
        attrs=lambda self, normalized: {"samples": len(normalized)},
        on_exit=_detect_done,
    )
    def detect(self, normalized: np.ndarray) -> StallTable:
        """Whole-signal detection of normalized samples: push plus finish."""
        return self.push(normalized) + self.finish()

    @report_result
    def report(self, clock_hz: float, region_names) -> ProfileReport:
        """The report over every sample pushed or lost to a gap.

        Call it once, when the run is complete.  Quality gating reruns
        over every stall, in one pass over the columns: an impairment
        found late (a gap guard reaching backwards) must still flag a
        stall that was finalized before it.  With a flight recorder,
        the evidence is built from the report's own table, whose rows
        the report then keeps.
        """
        stalls, quality, intervals = self.stalls(), None, ()
        if self.quality is not None:
            intervals = self.quality.intervals()
            vetoed = np.flatnonzero(stalls.low_confidence)
            if self.flight is not None:
                for begin, end in zip(
                    stalls.begin_sample[vetoed].tolist(),
                    stalls.end_sample[vetoed].tolist(),
                ):
                    self._record("quality_veto", begin, begin=begin, end=end)
            if len(vetoed):
                _event_bus.emit("quality_flag", flag="low_confidence", count=len(vetoed))
            summary = self.quality.summary()
            quality = summary if summary.any_impairment else None
        evidence = None
        if self.flight is not None:
            evidence = build_evidence(
                stalls,
                self.flight.events(),
                self.detector_config,
                quality_intervals=intervals,
                recorder=self.flight,
            )
        with _trace.span(
            "report", stalls=len(stalls), dropped=self.samples_dropped
        ) as span:
            report = ProfileReport(
                stalls=stalls,
                total_cycles=(self.samples_seen + self.samples_dropped)
                * self.period,
                clock_hz=clock_hz,
                sample_period_cycles=self.period,
                region_names=dict(region_names),
                quality=quality,
                evidence=evidence,
            )
            if obs_enabled():
                span.set_attr(
                    refresh=report.refresh_count,
                    low_confidence=report.low_confidence_count,
                )
            return report

    def stalls(self) -> StallTable:
        """Every stall emitted so far, flagged against the impaired
        intervals the quality monitor knows now (flags only rise)."""
        stalls = StallTable.concat(self._emitted)
        if self.quality is None:
            return stalls
        return stalls.flagged(
            impaired_mask(
                self.quality.intervals(), stalls.begin_sample, stalls.end_sample
            )
        )

    def _record(self, kind: str, pos: float, **attrs) -> None:
        if self.flight is not None:
            self.flight.record(
                FlightEvent(
                    schema_version=FLIGHT_SCHEMA_VERSION,
                    kind=kind,
                    pos=float(pos),
                    attrs=attrs,
                )
            )

    @unit_interval_result
    def _normalize(self, x: Optional[np.ndarray] = None) -> np.ndarray:
        """The normalizer's output for ``x``, or its tail when None."""
        if x is None:
            return self._normalizer.flush()
        return self._normalizer.push(x)

    def _drain(self) -> StallTable:
        if self._normalizer is None:
            return StallTable.empty()
        return self._detector.push(self._normalize())

    @monotonic_stall_stream
    def _emit(self, stalls: StallTable) -> StallTable:
        """The one exit of every stall."""
        if not len(stalls):
            return stalls
        if self.offset_samples:
            stalls = stalls.shifted(
                self.offset_samples, self.offset_samples * self.period
            )
        if self.quality is not None:
            stalls = stalls.flagged(
                impaired_mask(
                    self.quality.intervals(), stalls.begin_sample, stalls.end_sample
                )
            )
        self._emitted.append(stalls)
        if obs_enabled():
            for begin, duration, refresh, low_confidence in zip(
                stalls.begin_cycle.tolist(),
                stalls.durations_cycles().tolist(),
                stalls.is_refresh.tolist(),
                stalls.low_confidence.tolist(),
            ):
                _event_bus.emit(
                    "stall_detected",
                    begin_cycle=begin,
                    duration_cycles=duration,
                    is_refresh=refresh,
                    low_confidence=low_confidence,
                )
        return stalls
