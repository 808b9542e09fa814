"""Streaming (online) EMPROF for arbitrarily long captures.

The paper's SPEC captures outran the MXA's record length and had to be
taken with a streaming front end (ThinkRF WSA5000 + PX14400 digitizers,
Section VI).  :class:`StreamingEmprof` profiles such a capture chunk by
chunk with bounded memory, as repeated pushes through the
:class:`~repro.core.pipeline.ProfilePipeline` the batch modes use.  For
any signal and chunking the streamed result equals the batch result
(``tests/test_streaming.py``, ``tests/test_engine_equivalence.py``).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

import numpy as np

from ..faults.quality import QualityConfig, QualityMonitor
from ..obs import trace as _trace
from ..obs.events import bus as _event_bus
from ..obs.flight import FlightRecorder
from .detect import DetectorConfig
from .engine import finite_segments
from .events import ProfileReport, StallTable
from .normalize import NormalizerConfig
from .pipeline import ProfilePipeline


def _chunk_done(stalls, elapsed_s, attrs):
    _event_bus.emit(
        "chunk_processed",
        samples=attrs["samples"],
        stalls=len(stalls),
        latency_s=elapsed_s,
    )
    return {"stalls": len(stalls)}


class StreamingEmprof:
    """Chunked EMPROF: bounded-memory profiling of endless captures.

    Hardened against real acquisition impairments (see
    ``docs/robustness.md``):

    * driver-reported sample drops (``gap_before``) and non-finite
      sample runs trigger a *resynchronization* - the open dip is
      closed and the normalizer is re-primed so stale min/max state is
      never smeared across a discontinuity;
    * a :class:`~repro.faults.quality.QualityMonitor` watches the raw
      stream for saturation plateaus, interference bursts, and AGC
      gain steps;
    * stalls overlapping any impaired interval are reported with
      ``low_confidence=True``, and the final report carries a
      :class:`~repro.core.events.QualitySummary`.

    On a clean, gapless stream the output is sample-for-sample
    identical to the batch pipeline (the quality layer only *flags*,
    it never changes detection).

    Args:
        sample_rate_hz: capture sampling rate.
        clock_hz: target processor clock.
        normalizer: normalization parameters (``smooth_samples`` must
            be 1 for the online path).
        detector: detection parameters.
        quality: quality-monitor parameters (defaults on).
        flight: optional :class:`repro.obs.flight.FlightRecorder`;
            when given, every engine decision plus the streaming
            layer's gap/veto events are recorded, and the final report
            carries per-stall evidence (``report.evidence``).
            Detection output is bit-identical either way.
    """

    def __init__(
        self,
        sample_rate_hz: float,
        clock_hz: float,
        normalizer: Optional[NormalizerConfig] = None,
        detector: Optional[DetectorConfig] = None,
        region_names: Optional[Dict[int, str]] = None,
        quality: Optional[QualityConfig] = None,
        flight: Optional[FlightRecorder] = None,
    ):
        if sample_rate_hz <= 0 or clock_hz <= 0:
            raise ValueError("rates must be positive")
        self.sample_rate_hz = float(sample_rate_hz)
        self.clock_hz = float(clock_hz)
        self.period = clock_hz / sample_rate_hz
        self.region_names = dict(region_names or {})
        normalizer = normalizer if normalizer is not None else NormalizerConfig()
        self.quality_monitor = QualityMonitor(
            quality, gain_guard_samples=normalizer.window_samples
        )
        self._pipeline = ProfilePipeline(
            self.period,
            detector if detector is not None else DetectorConfig(),
            normalizer=normalizer,
            quality=self.quality_monitor,
            flight=flight,
        )
        self._report: Optional[ProfileReport] = None

    @_trace.instrumented(
        "streaming.chunk",
        attrs=lambda self, chunk, gap_before: {"samples": int(np.size(chunk))},
        on_exit=_chunk_done,
    )
    def process(self, chunk: np.ndarray, gap_before: int = 0) -> StallTable:
        """Feed a magnitude chunk; return stalls finalized by it.

        The stalls come back as a :class:`~repro.core.events.StallTable`
        (columns, and a read-only sequence of rows built only when
        read), flagged against the impairments seen so far.

        Args:
            chunk: one-dimensional magnitude samples.  Zero-length
                chunks are no-ops; non-finite samples (NaN/Inf - a
                driver handing over garbage) are treated as dropped
                and handled like a gap.
            gap_before: samples the driver reports lost *before* this
                chunk (digitizer overrun).  Triggers resynchronization
                and marks the surrounding samples impaired.
        """
        if self._report is not None:
            raise RuntimeError("finish() was already called")
        chunk = np.asarray(chunk, dtype=np.float64)
        if chunk.ndim != 1:
            raise ValueError("chunks must be one-dimensional")
        if gap_before < 0:
            raise ValueError("gap_before cannot be negative")
        new = [self._pipeline.resync(gap_before)] if gap_before > 0 else []
        finite = np.isfinite(chunk)
        if finite.all():
            new.append(self._pipeline.push(chunk))
        else:
            # Non-finite runs are dropped samples: feed the finite
            # segments, resynchronizing across each bad run.
            for segment, bad_run in finite_segments(chunk, finite):
                if bad_run:
                    new.append(self._pipeline.resync(bad_run))
                new.append(self._pipeline.push(segment))
        return StallTable.concat(new)

    def finish(self) -> ProfileReport:
        """Flush all state and return the final, quality-gated report.

        Idempotent: later calls return the same report and record
        nothing new.
        """
        if self._report is None:
            with _trace.span("streaming.finish"):
                self._pipeline.finish()
                self._report = self._pipeline.report(
                    self.clock_hz, self.region_names
                )
        return self._report

    @property
    def stalls_so_far(self) -> StallTable:
        """Stalls finalized up to now (monitoring hook), as one table.

        Confidence flags reflect impairments seen *so far*; the final
        report's flags are definitive.
        """
        return self._pipeline.stalls()

    @property
    def dropped_samples(self) -> int:
        """Samples lost to gaps so far."""
        return self._pipeline.samples_dropped


def profile_chunks(
    chunks: Iterable,
    sample_rate_hz: float,
    clock_hz: float,
    normalizer: Optional[NormalizerConfig] = None,
    detector: Optional[DetectorConfig] = None,
    quality: Optional[QualityConfig] = None,
    flight: Optional[FlightRecorder] = None,
) -> ProfileReport:
    """One-shot convenience: profile an iterable of magnitude chunks.

    Each item may be a bare array or a ``(chunk, gap_before)`` pair
    (the shape :func:`repro.faults.inject.iter_chunks` yields for
    impaired streams).
    """
    streamer = StreamingEmprof(
        sample_rate_hz,
        clock_hz,
        normalizer=normalizer,
        detector=detector,
        quality=quality,
        flight=flight,
    )
    for item in chunks:
        if isinstance(item, tuple):
            chunk, gap_before = item
            streamer.process(chunk, gap_before=gap_before)
        else:
            streamer.process(item)
    return streamer.finish()
