"""Runtime signal-quality monitors for the hardened streaming pipeline.

The injector (:mod:`repro.faults.inject`) *creates* impairments with
ground truth attached; this module *detects* them in an unknown
capture, which is what a real measurement needs.  A
:class:`QualityMonitor` watches the raw magnitude stream as
:class:`repro.core.streaming.StreamingEmprof` consumes it and
maintains a set of impaired sample intervals from four detectors:

* **gaps** - driver-reported overruns and non-finite sample runs,
  guarded by a few samples on each side (the dip state machine cannot
  bridge unknown samples);
* **saturation** - samples at/above an explicit ``clip_level``, plus a
  plateau heuristic (long runs of bit-identical samples at the running
  maximum are clipped ADC codes, not physics);
* **interference bursts** - samples far above the running median;
* **AGC gain steps** - abrupt sustained level changes between
  consecutive blocks; the moving min/max normalizer needs a full
  window to adapt, so the guard interval covers that smear.

Detected stalls overlapping any impaired interval are reported with
``low_confidence=True`` rather than suppressed: the paper's accounting
(each stall is one MISS) stays intact, and the caller decides whether
to trust them.  See ``docs/robustness.md``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class QualityConfig:
    """Quality-monitor parameters.

    Attributes:
        clip_level: the digitizer's known full-scale magnitude; when
            set, every sample at/above it is marked impaired.  None
            leaves only the plateau heuristic watching for saturation.
        plateau_run_samples: minimum run of bit-identical samples, at
            ``plateau_level_fraction`` of the running maximum, for the
            saturation heuristic to fire.  0 disables it.
        plateau_level_fraction: how close to the running maximum a
            plateau must sit to count as saturation.
        burst_factor: samples above ``burst_factor`` times the running
            median are interference; 0 disables the detector.
        burst_min_samples: minimum consecutive outliers for a burst
            (a single spiky sample is noise, not interference).
        gain_step_tolerance: relative level change between consecutive
            level blocks that counts as an AGC step; 0 disables.
        level_block_samples: block size for the running-level tracker.
        gap_guard_samples: impaired guard on each side of a gap.
    """

    clip_level: Optional[float] = None
    plateau_run_samples: int = 16
    plateau_level_fraction: float = 0.98
    burst_factor: float = 6.0
    burst_min_samples: int = 2
    gain_step_tolerance: float = 0.3
    level_block_samples: int = 256
    gap_guard_samples: int = 8

    def __post_init__(self) -> None:
        if self.clip_level is not None and self.clip_level <= 0:
            raise ValueError("clip_level must be positive")
        if self.plateau_run_samples < 0:
            raise ValueError("plateau_run_samples cannot be negative")
        if not 0.0 < self.plateau_level_fraction <= 1.0:
            raise ValueError("plateau_level_fraction must be in (0, 1]")
        if self.burst_factor < 0:
            raise ValueError("burst_factor cannot be negative")
        if self.level_block_samples < 8:
            raise ValueError("level_block_samples must be at least 8")
        if self.gap_guard_samples < 0:
            raise ValueError("gap_guard_samples cannot be negative")


def _identical_runs(chunk: np.ndarray, min_run: int) -> List[Tuple[int, int]]:
    """[start, end) runs of >= min_run consecutive identical values."""
    n = len(chunk)
    if n < min_run:
        return []
    # Boundaries where the value changes; bit-identical comparison is
    # the point (clipped ADC codes repeat exactly, noise never does).
    changed = chunk[1:] != chunk[:-1]  # emlint: disable=float-equality
    # A run needs min_run - 1 unchanged neighbours; noise has none.
    if n - 1 - np.count_nonzero(changed) < min_run - 1:
        return []
    change_at = np.flatnonzero(changed)
    starts = np.concatenate(([0], change_at + 1))
    ends = np.concatenate((change_at + 1, [n]))
    keep = (ends - starts) >= min_run
    return list(zip(starts[keep].tolist(), ends[keep].tolist()))


def impaired_mask(
    intervals: Sequence[Tuple[float, float]],
    begin: np.ndarray,
    end: np.ndarray,
) -> np.ndarray:
    """Per stall, whether [begin, end] overlaps any of ``intervals``.

    ``intervals`` are sorted by begin and need not be disjoint (batch
    ``flag_low_confidence`` passes sorted, unmerged spans).  One
    ``searchsorted`` finds, per stall, the intervals starting at or
    before its end; it overlaps one of them when the furthest-reaching
    of those ends at or after its begin - the answer
    :meth:`QualityMonitor.is_impaired` gives one stall at a time.
    """
    begin = np.asarray(begin, dtype=np.float64)
    if not len(intervals):
        return np.zeros(len(begin), dtype=bool)
    spans = np.asarray(intervals, dtype=np.float64).reshape(-1, 2)
    reach = np.maximum.accumulate(spans[:, 1])
    last = np.searchsorted(spans[:, 0], end, side="right") - 1
    return (last >= 0) & (begin <= reach[np.maximum(last, 0)])


class QualityMonitor:
    """Tracks impaired sample intervals over a magnitude stream.

    Positions are stream coordinates: the index a sample has in the
    concatenation of every chunk fed to the pipeline (dropped samples
    have no coordinate - a gap is a point between two positions).
    """

    def __init__(
        self,
        config: Optional[QualityConfig] = None,
        gain_guard_samples: int = 256,
    ):
        self.config = config if config is not None else QualityConfig()
        #: Impaired guard after a detected gain step; the caller passes
        #: the normalizer window so the guard covers the min/max smear.
        self.gain_guard_samples = max(1, int(gain_guard_samples))
        self._intervals: List[Tuple[float, float]] = []
        self._merged: Optional[List[Tuple[float, float]]] = None
        self._merged_begins: List[float] = []
        # Running stream statistics.
        self._running_max = 0.0
        # Samples of the unfinished level block (they end just before
        # the next chunk's start position).
        self._carry = np.empty(0)
        self._prev_block_median: Optional[float] = None
        self._median_ref: Optional[float] = None
        # Accounting.
        self.gap_count = 0
        self.dropped_samples = 0
        self.clipped_samples = 0
        self.burst_samples = 0
        self.gain_steps = 0

    # -- marking -------------------------------------------------------------

    def _mark(self, begin: float, end: float) -> None:
        self._intervals.append((max(0.0, begin), max(0.0, end)))
        self._merged = None

    def mark_gap(self, position: int, dropped: int) -> None:
        """Record a stream discontinuity at ``position``."""
        guard = self.config.gap_guard_samples
        self.gap_count += 1
        self.dropped_samples += max(0, int(dropped))
        self._mark(position - guard, position + guard)

    # -- observation ---------------------------------------------------------

    def observe(self, chunk: np.ndarray, start_position: int) -> None:
        """Watch one raw chunk as the pipeline consumes it."""
        cfg = self.config
        n = len(chunk)
        if n == 0:
            return
        chunk_max = float(np.max(chunk))
        if cfg.clip_level is not None:
            clipped = chunk >= cfg.clip_level
            if clipped.any():
                self._mark_mask(clipped, start_position, "clip")
        if cfg.plateau_run_samples > 0:
            floor = cfg.plateau_level_fraction * max(self._running_max, chunk_max)
            for run_begin, run_end in _identical_runs(
                np.asarray(chunk), cfg.plateau_run_samples
            ):
                if chunk[run_begin] >= floor:
                    self.clipped_samples += run_end - run_begin
                    self._mark(
                        start_position + run_begin, start_position + run_end
                    )
        if cfg.burst_factor > 0 and self._median_ref is not None:
            level = cfg.burst_factor * self._median_ref
            if level > 0:
                outliers = chunk > level
                if outliers.any():
                    self._mark_burst(outliers, start_position)
        self._running_max = max(self._running_max, chunk_max)
        self._track_level(chunk, start_position)

    def _mark_mask(self, mask: np.ndarray, offset: int, what: str) -> None:
        padded = np.concatenate(([False], mask, [False]))
        edges = np.flatnonzero(np.diff(padded.astype(np.int8)))
        for begin, end in zip(edges[0::2].tolist(), edges[1::2].tolist()):
            if what == "clip":
                self.clipped_samples += end - begin
            self._mark(offset + begin, offset + end)

    def _mark_burst(self, outliers: np.ndarray, offset: int) -> None:
        padded = np.concatenate(([False], outliers, [False]))
        edges = np.flatnonzero(np.diff(padded.astype(np.int8)))
        for begin, end in zip(edges[0::2].tolist(), edges[1::2].tolist()):
            if end - begin >= self.config.burst_min_samples:
                self.burst_samples += end - begin
                self._mark(offset + begin, offset + end)

    def _track_level(self, chunk: np.ndarray, start_position: int) -> None:
        cfg = self.config
        if cfg.gain_step_tolerance <= 0 and cfg.burst_factor <= 0:
            return
        size = cfg.level_block_samples
        carried = len(self._carry)
        samples = np.concatenate(
            (self._carry, np.asarray(chunk, dtype=np.float64))
        )
        whole = len(samples) // size
        if whole:
            medians = np.median(
                samples[: whole * size].reshape(whole, size), axis=1
            ).tolist()
            first = start_position - carried
            for i, median in enumerate(medians):
                self._level_block(median, first + i * size)
        self._carry = samples[whole * size :].copy()

    def _level_block(self, median: float, block_start: int) -> None:
        """Fold one whole block's median into the level reference."""
        cfg = self.config
        if self._median_ref is None:
            self._median_ref = median
        else:
            self._median_ref = 0.7 * self._median_ref + 0.3 * median
        if (
            cfg.gain_step_tolerance > 0
            and self._prev_block_median is not None
            and self._prev_block_median > 0
            and median > 0
        ):
            ratio = median / self._prev_block_median
            if abs(math.log(ratio)) > math.log1p(cfg.gain_step_tolerance):
                self.gain_steps += 1
                self._mark(
                    block_start - self.gain_guard_samples,
                    block_start + self.gain_guard_samples,
                )
                # The step resets the level reference: everything
                # after it is the new normal, not an outlier.
                self._median_ref = median
        self._prev_block_median = median

    # -- queries -------------------------------------------------------------

    def _merged_intervals(self) -> List[Tuple[float, float]]:
        if self._merged is None:
            merged: List[Tuple[float, float]] = []
            for begin, end in sorted(self._intervals):
                if merged and begin <= merged[-1][1]:
                    merged[-1] = (merged[-1][0], max(merged[-1][1], end))
                else:
                    merged.append((begin, end))
            self._merged = merged
            self._merged_begins = [begin for begin, _ in merged]
        return self._merged

    def intervals(self) -> List[Tuple[float, float]]:
        """Merged, sorted impaired [begin, end) intervals."""
        return list(self._merged_intervals())

    def is_impaired(self, begin: float, end: float) -> bool:
        """Whether [begin, end] overlaps any impaired interval."""
        if not self._intervals:
            return False
        merged = self._merged_intervals()
        # Merged intervals are disjoint and sorted, so their ends rise
        # with their begins: of those starting at or before ``end``,
        # only the last can reach back to ``begin``.
        last = bisect_right(self._merged_begins, end) - 1
        return last >= 0 and begin <= merged[last][1]

    def flag(self, stall):
        """Copy of ``stall`` flagged low-confidence if it overlaps."""
        if self.is_impaired(stall.begin_sample, stall.end_sample):
            return stall.flagged(True)
        return stall

    def summary(self):
        """Snapshot of the accounting (a :class:`QualitySummary`)."""
        # Imported lazily: repro.core.streaming imports this module, so
        # a top-level import of repro.core.events would be circular
        # when `repro.faults` is the first package imported.
        from ..core.events import QualitySummary

        merged = self._merged_intervals()
        return QualitySummary(
            gap_count=self.gap_count,
            dropped_samples=self.dropped_samples,
            clipped_samples=self.clipped_samples,
            burst_samples=self.burst_samples,
            gain_steps=self.gain_steps,
            impaired_sample_spans=len(merged),
            impaired_samples=int(sum(e - b for b, e in merged)),
        )
