"""Dip detection: from a normalized magnitude to stall events.

"EMPROF then identifies each significant dip in the signal whose
duration exceeds a threshold.  The threshold is selected to be
significantly shorter than the LLC latency but significantly longer
than typical on-chip latencies." (Section IV)

Detection runs in three stages:

1. threshold the normalized signal into below-dip runs,
2. merge runs separated by gaps shorter than ``merge_gap_samples``
   (one noisy sample inside a stall must not split it in two),
3. keep runs whose duration exceeds ``min_duration_cycles`` and refine
   their boundaries by linear interpolation of the threshold crossing,
   so measured durations are not quantized to whole sample periods.

The numerical work is done by the vectorized chunked engine
(:mod:`repro.core.engine`, see ``docs/engine.md``): batch detection is
one whole-signal :meth:`repro.core.pipeline.ProfilePipeline.detect`,
which is proven bit-identical to the historical per-run implementation
by ``tests/test_engine_equivalence.py``.  This module keeps the
configuration and the batch entry point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..devtools.contracts import stall_sequence_result
from ..faults.quality import impaired_mask
from .events import DetectedStall, StallTable
from .pipeline import ProfilePipeline


@dataclass(frozen=True)
class DetectorConfig:
    """Stall-detection parameters.

    Attributes:
        threshold: normalized level below which the processor is
            considered stalled.
        recover_threshold: hysteresis level - two dips are merged into
            one stall unless the signal between them recovers above
            this.  A single noisy sample poking above ``threshold``
            inside a stall must not split it in two, while a genuine
            busy gap (which returns to full-rate switching, i.e. near
            1.0) does separate consecutive misses.
        min_duration_cycles: minimum dip duration to report - longer
            than on-chip (LLC-hit) latencies, shorter than a memory
            access.
        min_duration_samples: minimum *whole samples* below threshold
            for a dip to count.  One or two low samples cannot be told
            apart from noise, whatever the sample period; this is what
            makes low measurement bandwidths blind to short stalls
            (the 20 MHz behaviour of Fig. 12).
        merge_gap_samples: dips separated by at most this many samples
            are merged unconditionally (0 disables).
        refresh_min_cycles: dips at least this long are classified as
            refresh-coincident (the 2-3 us stalls of Fig. 5).
    """

    threshold: float = 0.45
    recover_threshold: float = 0.70
    min_duration_cycles: float = 70.0
    min_duration_samples: int = 4
    merge_gap_samples: int = 0
    refresh_min_cycles: float = 1200.0

    def __post_init__(self) -> None:
        if not 0.0 < self.threshold < 1.0:
            raise ValueError("threshold must be in (0, 1)")
        if not self.threshold <= self.recover_threshold < 1.0:
            raise ValueError("recover threshold must be in [threshold, 1)")
        if self.min_duration_cycles <= 0:
            raise ValueError("min duration must be positive")
        if self.min_duration_samples < 1:
            raise ValueError("min sample count must be at least 1")
        if self.merge_gap_samples < 0:
            raise ValueError("merge gap cannot be negative")
        if self.refresh_min_cycles <= self.min_duration_cycles:
            raise ValueError("refresh threshold must exceed min duration")


def flag_low_confidence(
    stalls: Sequence[DetectedStall],
    impaired_intervals: Sequence[Tuple[float, float]],
) -> StallTable:
    """Flag every stall overlapping an impaired [begin, end) interval.

    The batch-path counterpart of the streaming pipeline's quality
    gating: given impaired sample intervals (from a
    :class:`repro.faults.quality.QualityMonitor` or a ground-truth
    :class:`repro.faults.inject.ImpairmentLog`), returns the stalls,
    as a :class:`~repro.core.events.StallTable`, with
    ``low_confidence=True`` where they overlap.  Detection results are
    never altered, only annotated.
    """
    table = StallTable.from_stalls(stalls)
    return table.flagged(
        impaired_mask(sorted(impaired_intervals), table.begin_sample, table.end_sample)
    )


@stall_sequence_result
def detect_stalls(
    normalized: np.ndarray,
    sample_period_cycles: float,
    config: DetectorConfig = None,
    quality_intervals: Optional[Sequence[Tuple[float, float]]] = None,
    flight=None,
) -> StallTable:
    """Find LLC-miss-induced stalls in a normalized signal.

    Args:
        normalized: output of :func:`repro.core.normalize.normalize`.
        sample_period_cycles: processor cycles per signal sample
            (e.g. 20 for the paper's 50 MHz trace of a 1 GHz core).
        config: detection parameters.
        quality_intervals: optional impaired sample intervals; stalls
            overlapping one are returned with ``low_confidence=True``
            (see :func:`flag_low_confidence`).
        flight: optional :class:`repro.obs.flight.FlightRecorder`;
            when given, every engine decision (threshold runs,
            hysteresis verdicts, finalize/reject) is recorded into it.
            Detection output is bit-identical either way.

    Returns:
        Detected stalls in time order, with fractional boundaries and
        refresh classification applied, as a
        :class:`~repro.core.events.StallTable`: columns, and a
        read-only sequence of :class:`~repro.core.events.DetectedStall`
        rows.
    """
    x = np.asarray(normalized, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("signal must be one-dimensional")
    cfg = config if config is not None else DetectorConfig()
    stalls = ProfilePipeline(sample_period_cycles, cfg, flight=flight).detect(x)
    if quality_intervals:
        stalls = flag_low_confidence(stalls, quality_intervals)
    return stalls
