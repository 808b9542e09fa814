"""Frozen record-loop ground-truth queries for differential testing.

These are verbatim copies of the :class:`~repro.sim.trace.GroundTruth`
queries, and of the truth-reading part of
:func:`~repro.core.validate.validate_profile`, as they were while the
ground truth was two lists of :class:`MissRecord` / :class:`StallRecord`
objects and every query looped over them.
``tests/test_truth_equivalence.py`` asserts that the columnar
``GroundTruth`` answers every query with the same values and the same
value types.  Do not "improve" this module: its value is being the
frozen per-record semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.events import ProfileReport
from repro.core.validate import (
    ValidationResult,
    count_accuracy,
    match_stalls,
    merge_intervals,
)
from repro.sim.trace import MissRecord, StallRecord


@dataclass
class ReferenceGroundTruth:
    """All ground-truth records from one simulation run."""

    misses: List[MissRecord] = field(default_factory=list)
    stalls: List[StallRecord] = field(default_factory=list)
    total_cycles: int = 0
    total_instructions: int = 0
    region_names: Dict[int, str] = field(default_factory=dict)
    region_cycles: Dict[int, int] = field(default_factory=dict)

    # -- miss-side queries ------------------------------------------------

    def miss_count(self) -> int:
        """Total LLC misses, stalling or not."""
        return len(self.misses)

    def stalling_miss_count(self) -> int:
        """LLC misses that contributed to some stall."""
        return sum(1 for m in self.misses if m.stall_id is not None)

    def hidden_miss_count(self) -> int:
        """LLC misses fully hidden by useful work (Fig. 3a)."""
        return sum(1 for m in self.misses if m.stall_id is None)

    # -- stall-side queries -----------------------------------------------

    def memory_stalls(self) -> List[StallRecord]:
        """Stalls attributable to main-memory misses, in time order."""
        return [s for s in self.stalls if s.is_memory]

    def memory_stall_count(self) -> int:
        """Number of distinct memory-induced stalls."""
        return len(self.memory_stalls())

    def memory_stall_cycles(self) -> int:
        """Total cycles the core spent stalled on memory misses."""
        return sum(s.duration for s in self.memory_stalls())

    def refresh_stall_count(self) -> int:
        """Memory stalls stretched by a DRAM refresh collision."""
        return sum(1 for s in self.memory_stalls() if s.refresh)

    def stall_fraction(self) -> float:
        """Memory-stall cycles as a fraction of total execution time."""
        if self.total_cycles == 0:
            return 0.0
        return self.memory_stall_cycles() / self.total_cycles

    def stall_intervals(self) -> np.ndarray:
        """(N, 2) array of [begin, end) cycles for memory stalls."""
        stalls = self.memory_stalls()
        if not stalls:
            return np.empty((0, 2), dtype=np.int64)
        return np.array([(s.begin_cycle, s.end_cycle) for s in stalls], dtype=np.int64)

    def stall_durations(self) -> np.ndarray:
        """Durations (cycles) of memory stalls, in time order."""
        return np.array([s.duration for s in self.memory_stalls()], dtype=np.int64)

    # -- attribution-side queries ------------------------------------------

    def misses_by_region(self) -> Dict[int, int]:
        """Miss count per code region."""
        counts: Dict[int, int] = {}
        for m in self.misses:
            counts[m.region] = counts.get(m.region, 0) + 1
        return counts

    def stall_cycles_by_region(self) -> Dict[int, int]:
        """Memory-stall cycles per code region."""
        cycles: Dict[int, int] = {}
        for s in self.memory_stalls():
            cycles[s.region] = cycles.get(s.region, 0) + s.duration
        return cycles

    def miss_rate_timeline(self, bin_cycles: int) -> Tuple[np.ndarray, np.ndarray]:
        """Miss count per ``bin_cycles`` window over the whole run."""
        if bin_cycles <= 0:
            raise ValueError("bin width must be positive")
        nbins = max(1, -(-self.total_cycles // bin_cycles))
        counts = np.zeros(nbins, dtype=np.int64)
        for m in self.misses:
            idx = min(m.detect_cycle // bin_cycles, nbins - 1)
            counts[idx] += 1
        starts = np.arange(nbins, dtype=np.int64) * bin_cycles
        return starts, counts


def reference_validate_profile(
    report: ProfileReport,
    truth: ReferenceGroundTruth,
    sample_period_cycles: Optional[float] = None,
    window_cycles: Optional[Tuple[float, float]] = None,
) -> ValidationResult:
    """Compare an EMPROF report to simulator ground truth."""
    period = (
        sample_period_cycles
        if sample_period_cycles is not None
        else report.sample_period_cycles
    )
    intervals = truth.stall_intervals().astype(np.float64)
    misses = truth.miss_count()
    stalls = report.stalls

    if window_cycles is not None:
        lo, hi = window_cycles
        keep = (intervals[:, 0] < hi) & (intervals[:, 1] > lo) if len(intervals) else np.array([], dtype=bool)
        intervals = intervals[keep] if len(intervals) else intervals
        misses = sum(1 for m in truth.misses if lo <= m.detect_cycle < hi)
        mid = 0.5 * (stalls.begin_cycle + stalls.end_cycle)
        stalls = stalls.take((lo <= mid) & (mid < hi))

    merged = merge_intervals(intervals, max_gap=period)
    true_groups = len(merged)
    true_cycles = float((merged[:, 1] - merged[:, 0]).sum()) if len(merged) else 0.0
    detected_cycles = stalls.stall_cycles()

    return ValidationResult(
        miss_accuracy=count_accuracy(len(stalls), misses),
        group_accuracy=count_accuracy(len(stalls), true_groups),
        stall_accuracy=count_accuracy(detected_cycles, true_cycles),
        detected_misses=len(stalls),
        true_misses=misses,
        true_groups=true_groups,
        detected_stall_cycles=detected_cycles,
        true_stall_cycles=true_cycles,
        match=match_stalls(stalls, merged, tolerance_cycles=period),
    )
