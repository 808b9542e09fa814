"""Frozen per-block quality monitor for differential testing.

A verbatim copy of :class:`repro.faults.quality.QualityMonitor` as it
was before level tracking took one median pass per chunk and the
impairment lookup bisected its merged spans:

* :class:`ReferenceQualityMonitor` - Python-list level blocks, one
  ``np.median`` per ``level_block_samples`` block, and a linear scan of
  the merged intervals for every ``is_impaired`` query
* :func:`reference_identical_runs` / :func:`reference_overlaps` - the
  plateau run finder and the interval scan it used

It reads the production :class:`~repro.faults.quality.QualityConfig`
(whose fields and meaning are unchanged).
``tests/test_quality_equivalence.py`` asserts the production monitor is
bit-identical to this.  Do not "improve" this module: its value is
being the frozen per-block semantics.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.faults.quality import QualityConfig


def reference_identical_runs(
    chunk: np.ndarray, min_run: int
) -> List[Tuple[int, int]]:
    """[start, end) runs of >= min_run consecutive identical values."""
    n = len(chunk)
    if n < min_run:
        return []
    # Boundaries where the value changes; bit-identical comparison is
    # the point (clipped ADC codes repeat exactly, noise never does).
    changed = chunk[1:] != chunk[:-1]  # emlint: disable=float-equality
    change_at = np.flatnonzero(changed)
    starts = np.concatenate(([0], change_at + 1))
    ends = np.concatenate((change_at + 1, [n]))
    keep = (ends - starts) >= min_run
    return list(zip(starts[keep].tolist(), ends[keep].tolist()))


def reference_overlaps(
    intervals: Sequence[Tuple[float, float]], begin: float, end: float
) -> bool:
    """Whether [begin, end] overlaps any of ``intervals`` (sorted by begin)."""
    for b, e in intervals:
        if b > end:
            return False
        if begin <= e and end >= b:
            return True
    return False


class ReferenceQualityMonitor:
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
        # Running stream statistics.
        self._running_max = 0.0
        self._block: List[float] = []
        self._block_start = 0
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
            for run_begin, run_end in reference_identical_runs(
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
        position = start_position
        remaining = np.asarray(chunk, dtype=np.float64)
        while len(remaining):
            if not self._block:
                self._block_start = position
            take = cfg.level_block_samples - len(self._block)
            self._block.extend(remaining[:take].tolist())
            position += min(take, len(remaining))
            remaining = remaining[take:]
            if len(self._block) < cfg.level_block_samples:
                return
            median = float(np.median(self._block))
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
                        self._block_start - self.gain_guard_samples,
                        self._block_start + self.gain_guard_samples,
                    )
                    # The step resets the level reference: everything
                    # after it is the new normal, not an outlier.
                    self._median_ref = median
            self._prev_block_median = median
            self._block = []

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
        return self._merged

    def intervals(self) -> List[Tuple[float, float]]:
        """Merged, sorted impaired [begin, end) intervals."""
        return list(self._merged_intervals())

    def is_impaired(self, begin: float, end: float) -> bool:
        """Whether [begin, end] overlaps any impaired interval."""
        return reference_overlaps(self._merged_intervals(), begin, end)

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
        from repro.core.events import QualitySummary

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
