"""Validation of EMPROF output against simulator ground truth.

Implements the paper's two accuracy metrics (Table II / Table III):

* **miss accuracy** - how close the number of detected stalls is to
  the reference count.  For microbenchmarks the reference is the
  engineered TM; for simulator runs it is the ground-truth LLC miss
  count (the paper compares against misses, accepting that hidden and
  overlapped misses cause principled undercounting, Section III-B).
* **stall accuracy** - how close the total detected stall cycles are
  to the ground-truth memory-stall cycles.

Beyond the paper's scalar accuracies, :func:`match_stalls` performs an
interval-level matching (precision / recall / per-stall duration
error), which is what gives the scalar numbers diagnostic teeth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..sim.trace import GroundTruth
from .events import DetectedStall, ProfileReport, StallTable


def count_accuracy(reported: float, expected: float) -> float:
    """The paper's accuracy metric: 1 - |reported - expected| / expected.

    Clamped to [0, 1]; an expected count of zero yields 1.0 only for a
    zero report.
    """
    # Counts are integer-valued floats; exact zero is the documented
    # "nothing expected/reported" sentinel, not a computed quantity.
    if expected == 0:  # emlint: disable=float-equality
        return 1.0 if reported == 0 else 0.0  # emlint: disable=float-equality
    return max(0.0, 1.0 - abs(reported - expected) / expected)


def merge_intervals(intervals: np.ndarray, max_gap: float) -> np.ndarray:
    """Merge [begin, end) rows separated by gaps <= ``max_gap``.

    Ground-truth stalls separated by less than one signal sample are
    indistinguishable to any detector operating on that signal; the
    validator merges them before matching so the comparison is against
    what is *observable*, mirroring the paper's MISS-group accounting
    (Section II-B).
    """
    iv = np.asarray(intervals, dtype=np.float64)
    if iv.size == 0:
        return iv.reshape(0, 2)
    order = np.argsort(iv[:, 0])
    iv = iv[order]
    begins = iv[:, 0]
    ends = iv[:, 1]
    # A new group starts where the begin clears the running maximum of
    # all earlier ends by more than max_gap.  The global running max is
    # interchangeable with the per-group one here: once a group
    # boundary is drawn, every later (sorted) begin clears all earlier
    # ends by construction, so the two maxima decide identically.
    running_end = np.maximum.accumulate(ends)
    new_group = np.empty(len(iv), dtype=bool)
    new_group[0] = True
    new_group[1:] = begins[1:] - running_end[:-1] > max_gap
    group_starts = np.flatnonzero(new_group)
    return np.column_stack(
        (begins[group_starts], np.maximum.reduceat(ends, group_starts))
    )


@dataclass(frozen=True)
class MatchResult:
    """Interval-level matching between detected and true stalls.

    Attributes:
        true_positives: detected stalls overlapping a true stall.
        false_positives: detected stalls overlapping nothing.
        false_negatives: true stalls no detection overlapped.
        precision / recall: the usual ratios (1.0 for empty sides).
        duration_errors: per-matched-stall (detected - true) duration,
            in cycles.
    """

    true_positives: int
    false_positives: int
    false_negatives: int
    precision: float
    recall: float
    duration_errors: np.ndarray

    @property
    def f1(self) -> float:
        """Harmonic mean of precision and recall."""
        if self.precision + self.recall == 0:
            return 0.0
        return 2 * self.precision * self.recall / (self.precision + self.recall)


def match_stalls(
    detected: Sequence[DetectedStall],
    true_intervals: np.ndarray,
    tolerance_cycles: float = 0.0,
) -> MatchResult:
    """Greedy interval matching of detections to ground truth.

    A detection matches a true stall when their intervals (each padded
    by ``tolerance_cycles``) overlap.  Each true stall absorbs every
    detection overlapping it (a long true stall fragmented into two
    dips counts one TP and no FP, but contributes a duration error).
    """
    truth = np.asarray(true_intervals, dtype=np.float64).reshape(-1, 2)
    det = StallTable.from_stalls(detected)
    by_begin = np.argsort(det.begin_cycle, kind="stable")
    order = np.argsort(truth[:, 0]) if len(truth) else np.array([], dtype=int)
    truth = truth[order]

    n_truth = len(truth)
    n_det = len(det)
    begin = det.begin_cycle[by_begin] - tolerance_cycles
    end = det.end_cycle[by_begin] + tolerance_cycles
    durations = det.durations_cycles()[by_begin]

    if n_truth and n_det:
        # Detection i absorbs the contiguous truth range [lo_i, hi_i):
        # from the first truth still alive at its (padded) begin to the
        # first truth starting at/after its (padded) end.  Truth begins
        # are sorted; truth ends are not, but the first end past
        # ``begin`` is where their running maximum first passes it.
        lo = np.searchsorted(
            np.maximum.accumulate(truth[:, 1]), begin, side="right"
        )
        hi = np.searchsorted(truth[:, 0], end, side="left")
    else:
        lo = np.full(n_det, n_truth, dtype=np.intp)
        hi = np.zeros(n_det, dtype=np.intp)

    hit = hi > lo
    fp = int(np.count_nonzero(~hit))
    counts = np.maximum(hi - lo, 0)
    # Expand the per-detection ranges into (detection, truth) pairs in
    # detection order, so the per-truth duration sums accumulate in
    # exactly the greedy sweep's float-addition order.
    det_idx = np.repeat(np.arange(n_det), counts)
    offsets = np.arange(int(counts.sum())) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    truth_idx = np.repeat(lo, counts) + offsets
    truth_detected_cycles = np.bincount(
        truth_idx, weights=durations[det_idx], minlength=n_truth
    )
    matched_truth = np.zeros(n_truth, dtype=bool)
    matched_truth[truth_idx] = True
    tp = int(np.count_nonzero(matched_truth))
    fn = int(np.count_nonzero(~matched_truth))
    n_det_groups = tp + fp
    precision = tp / n_det_groups if n_det_groups else 1.0
    recall = tp / len(truth) if len(truth) else 1.0
    errors = (
        truth_detected_cycles[matched_truth] - (truth[matched_truth, 1] - truth[matched_truth, 0])
        if len(truth)
        else np.array([])
    )
    return MatchResult(
        true_positives=tp,
        false_positives=fp,
        false_negatives=fn,
        precision=precision,
        recall=recall,
        duration_errors=np.asarray(errors, dtype=np.float64),
    )


@dataclass(frozen=True)
class ValidationResult:
    """Full validation of one profile against ground truth.

    Attributes:
        miss_accuracy: paper metric vs. the raw ground-truth LLC miss
            count (Table III "Miss Accuracy").
        group_accuracy: same metric vs. observable stall groups - what
            a perfect detector of stalls could at best achieve.
        stall_accuracy: paper metric on total stall cycles (Table III
            "Stall Accuracy").
        detected_misses / true_misses / true_groups: the raw counts.
        detected_stall_cycles / true_stall_cycles: the raw totals.
        match: interval-level matching detail.
    """

    miss_accuracy: float
    group_accuracy: float
    stall_accuracy: float
    detected_misses: int
    true_misses: int
    true_groups: int
    detected_stall_cycles: float
    true_stall_cycles: float
    match: MatchResult


def validate_profile(
    report: ProfileReport,
    truth: GroundTruth,
    sample_period_cycles: Optional[float] = None,
    window_cycles: Optional[Tuple[float, float]] = None,
) -> ValidationResult:
    """Compare an EMPROF report to simulator ground truth.

    Args:
        report: EMPROF's output.
        truth: the simulator's ground-truth records.
        sample_period_cycles: cycles per signal sample; ground-truth
            stalls closer than this are merged before matching (they
            are unobservable as separate dips).  Defaults to the
            report's own sample period.
        window_cycles: optional (begin, end) restriction; both sides
            are filtered to it (used for the microbenchmark's
            measurement window).
    """
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
        detect = truth.miss_detect
        misses = int(np.count_nonzero((lo <= detect) & (detect < hi)))
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
