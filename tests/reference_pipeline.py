"""Frozen seed implementations for differential testing.

These are verbatim (minus obs instrumentation and runtime contracts)
copies of the per-sample/per-run pipeline as it existed before the
vectorized chunked engine (:mod:`repro.core.engine`) replaced it:

* :class:`ReferenceOnlineNormalizer` - monotonic-deque sliding min/max
* :class:`ReferenceStreamingDetector` - per-sample dip state machine
* :func:`reference_detect_stalls` - the batch run/merge/refine passes
* :func:`reference_finite_segments` - the per-sample finite scanner
* :class:`ReferenceStreamingEmprof` - the streaming facade over the
  reference components (sharing the real :class:`QualityMonitor`)
* :func:`reference_merge_intervals` / :func:`reference_match_stalls` -
  the greedy interval validators

``tests/test_engine_equivalence.py`` asserts the production pipeline
is bit-identical to these across signals, fault families and
chunkings.  Do not "improve" this module: its value is being the
frozen seed semantics.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.detect import DetectorConfig
from repro.core.events import DetectedStall, ProfileReport
from repro.core.normalize import NormalizerConfig
from repro.core.validate import MatchResult
from repro.faults.quality import QualityConfig, QualityMonitor


class ReferenceOnlineNormalizer:
    """The seed OnlineNormalizer: monotonic deques, per-sample emission."""

    def __init__(self, config: Optional[NormalizerConfig] = None):
        cfg = config if config is not None else NormalizerConfig()
        if cfg.smooth_samples != 1:
            raise ValueError("online normalization does not support pre-smoothing")
        self.config = cfg
        self._half = cfg.window_samples // 2
        self._buffer: Deque[float] = deque()
        self._buffer_start = 0
        self._next_in = 0
        self._next_out = 0
        self._min_q: Deque[tuple] = deque()
        self._max_q: Deque[tuple] = deque()

    def _admit(self, pos: int, value: float) -> None:
        self._buffer.append(value)
        while self._min_q and self._min_q[-1][1] >= value:
            self._min_q.pop()
        self._min_q.append((pos, value))
        while self._max_q and self._max_q[-1][1] <= value:
            self._max_q.pop()
        self._max_q.append((pos, value))

    def _evict_before(self, pos: int) -> None:
        while self._buffer_start < pos:
            self._buffer.popleft()
            self._buffer_start += 1
        while self._min_q and self._min_q[0][0] < pos:
            self._min_q.popleft()
        while self._max_q and self._max_q[0][0] < pos:
            self._max_q.popleft()

    def _emit_one(self) -> float:
        i = self._next_out
        self._evict_before(i - self._half)
        mmin = self._min_q[0][1]
        mmax = self._max_q[0][1]
        x = self._buffer[i - self._buffer_start]
        self._next_out += 1
        span = mmax - mmin
        if span <= self.config.min_range_ratio * mmax or span <= 0:
            return 1.0
        return float(np.clip((x - mmin) / span, 0.0, 1.0))

    def push(self, chunk: np.ndarray) -> np.ndarray:
        out: List[float] = []
        arr = np.asarray(chunk, dtype=np.float64)
        for value in arr:
            self._admit(self._next_in, float(value))
            self._next_in += 1
            while self._next_out + self._half < self._next_in:
                out.append(self._emit_one())
        return np.asarray(out)

    def flush(self) -> np.ndarray:
        out: List[float] = []
        while self._next_out < self._next_in:
            out.append(self._emit_one())
        return np.asarray(out)

    @property
    def latency_samples(self) -> int:
        return self._half


@dataclass
class _RefDipState:
    start: int
    end: int
    min_level: float
    below_samples: int
    enter_prev: float
    start_value: float = 0.0
    end_prev_value: float = 0.0
    exit_value: float = 0.0
    gap_start: Optional[int] = None
    gap_max: float = -np.inf


class ReferenceStreamingDetector:
    """The seed StreamingDetector: one Python iteration per sample."""

    def __init__(
        self,
        sample_period_cycles: float,
        config: Optional[DetectorConfig] = None,
    ):
        if sample_period_cycles <= 0:
            raise ValueError("sample period must be positive")
        self.period = float(sample_period_cycles)
        self.config = config if config is not None else DetectorConfig()
        self._pos = 0
        self._prev = 1.0
        self._open: Optional[_RefDipState] = None

    def _refine(self, a: float, b: float, boundary: int) -> float:
        if boundary <= 0:
            return float(boundary)
        if a == b:
            return float(boundary)
        frac = (self.config.threshold - a) / (b - a)
        if not 0.0 <= frac <= 1.0:
            return float(boundary)
        return boundary - 1 + frac

    def _finalize(self, dip, exit_value: float) -> Optional[DetectedStall]:
        cfg = self.config
        if dip.end - dip.start < cfg.min_duration_samples:
            return None
        begin = self._refine(dip.enter_prev, dip.start_value, dip.start)
        finish = self._refine(dip.end_prev_value, exit_value, dip.end)
        if finish <= begin:
            return None
        duration = (finish - begin) * self.period
        if duration < cfg.min_duration_cycles:
            return None
        return DetectedStall(
            begin_sample=begin,
            end_sample=finish,
            begin_cycle=begin * self.period,
            end_cycle=finish * self.period,
            min_level=dip.min_level,
            is_refresh=duration >= cfg.refresh_min_cycles,
        )

    def push(self, normalized: np.ndarray) -> List[DetectedStall]:
        cfg = self.config
        out: List[DetectedStall] = []
        arr = np.asarray(normalized, dtype=np.float64)
        for value in arr:
            v = float(value)
            i = self._pos
            below = v < cfg.threshold
            dip = self._open
            if dip is None:
                if below:
                    dip = _RefDipState(
                        start=i, end=i + 1, min_level=v,
                        below_samples=1, enter_prev=self._prev,
                    )
                    dip.start_value = v
                    dip.end_prev_value = v
                    self._open = dip
            else:
                in_gap = dip.gap_start is not None
                if below:
                    if in_gap:
                        gap_len = i - dip.gap_start
                        if (
                            dip.gap_max < cfg.recover_threshold
                            or gap_len <= cfg.merge_gap_samples
                        ):
                            dip.gap_start = None
                            dip.gap_max = -np.inf
                        else:
                            stall = self._finalize(dip, dip.exit_value)
                            if stall is not None:
                                out.append(stall)
                            dip = _RefDipState(
                                start=i, end=i + 1, min_level=v,
                                below_samples=1, enter_prev=self._prev,
                            )
                            dip.start_value = v
                            dip.end_prev_value = v
                            self._open = dip
                            self._prev = v
                            self._pos += 1
                            continue
                    dip.end = i + 1
                    dip.below_samples += 1
                    dip.min_level = min(dip.min_level, v)
                    dip.end_prev_value = v
                else:
                    if not in_gap:
                        dip.gap_start = i
                        dip.exit_value = v
                    dip.gap_max = max(dip.gap_max, v)
            self._prev = v
            self._pos += 1
        return out

    def finish(self) -> List[DetectedStall]:
        out: List[DetectedStall] = []
        dip = self._open
        if dip is not None:
            exit_value = (
                dip.end_prev_value if dip.gap_start is None else dip.exit_value
            )
            stall = self._finalize(dip, exit_value)
            if stall is not None:
                out.append(stall)
            self._open = None
        return out

    def resync(self) -> List[DetectedStall]:
        out = self.finish()
        self._prev = 1.0
        return out


def _runs_below(mask: np.ndarray) -> List[Tuple[int, int]]:
    if len(mask) == 0:
        return []
    padded = np.concatenate(([False], mask, [False]))
    edges = np.flatnonzero(np.diff(padded.astype(np.int8)))
    return list(zip(edges[0::2].tolist(), edges[1::2].tolist()))


def _merge_runs(runs, max_gap):
    if not runs or max_gap <= 0:
        return runs
    merged = [runs[0]]
    for start, end in runs[1:]:
        last_start, last_end = merged[-1]
        if start - last_end <= max_gap:
            merged[-1] = (last_start, end)
        else:
            merged.append((start, end))
    return merged


def _merge_hysteresis(runs, normalized, recover):
    if not runs:
        return runs
    merged = [runs[0]]
    for start, end in runs[1:]:
        last_start, last_end = merged[-1]
        if float(normalized[last_end:start].max()) < recover:
            merged[-1] = (last_start, end)
        else:
            merged.append((start, end))
    return merged


def _refine_edge(normalized, index, threshold):
    n = len(normalized)
    lo, hi = index - 1, index
    if lo < 0 or hi >= n:
        return float(index)
    a = float(normalized[lo])
    b = float(normalized[hi])
    if a == b:
        return float(index)
    frac = (threshold - a) / (b - a)
    if not 0.0 <= frac <= 1.0:
        return float(index)
    return lo + frac


def reference_detect_stalls(
    normalized: np.ndarray,
    sample_period_cycles: float,
    config: Optional[DetectorConfig] = None,
) -> List[DetectedStall]:
    """The seed batch detector: run extraction + two merge passes."""
    cfg = config if config is not None else DetectorConfig()
    x = np.asarray(normalized, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("signal must be one-dimensional")
    if sample_period_cycles <= 0:
        raise ValueError("sample period must be positive")

    runs = _runs_below(x < cfg.threshold)
    runs = _merge_runs(runs, cfg.merge_gap_samples)
    runs = _merge_hysteresis(runs, x, cfg.recover_threshold)

    stalls: List[DetectedStall] = []
    for start, end in runs:
        if end - start < cfg.min_duration_samples:
            continue
        begin = _refine_edge(x, start, cfg.threshold)
        finish = _refine_edge(x, end, cfg.threshold)
        if finish <= begin:
            continue
        duration_cycles = (finish - begin) * sample_period_cycles
        if duration_cycles < cfg.min_duration_cycles:
            continue
        stalls.append(
            DetectedStall(
                begin_sample=begin,
                end_sample=finish,
                begin_cycle=begin * sample_period_cycles,
                end_cycle=finish * sample_period_cycles,
                min_level=float(x[start:end].min()) if end > start else float(x[start]),
                is_refresh=duration_cycles >= cfg.refresh_min_cycles,
            )
        )
    return stalls


def reference_finite_segments(chunk: np.ndarray, finite: np.ndarray):
    """The seed per-sample finite-run scanner."""
    out = []
    i = 0
    n = len(chunk)
    while i < n:
        bad = 0
        while i < n and not finite[i]:
            bad += 1
            i += 1
        start = i
        while i < n and finite[i]:
            i += 1
        out.append((chunk[start:i], bad))
    return out


def _flag(monitor: QualityMonitor, stall: DetectedStall) -> DetectedStall:
    """The seed ``QualityMonitor.flag``: ``stall`` flagged low-confidence
    if it overlaps an impaired interval of ``monitor``."""
    if monitor.is_impaired(stall.begin_sample, stall.end_sample):
        return stall.flagged(True)
    return stall


class ReferenceStreamingEmprof:
    """The seed StreamingEmprof orchestration over reference components.

    Shares the production :class:`QualityMonitor` (quality gating is
    not part of this PR's rewrite) but normalizes and detects with the
    frozen per-sample implementations above.
    """

    def __init__(
        self,
        sample_rate_hz: float,
        clock_hz: float,
        normalizer: Optional[NormalizerConfig] = None,
        detector: Optional[DetectorConfig] = None,
        quality: Optional[QualityConfig] = None,
    ):
        self.sample_rate_hz = float(sample_rate_hz)
        self.clock_hz = float(clock_hz)
        self.period = clock_hz / sample_rate_hz
        self._normalizer_config = (
            normalizer if normalizer is not None else NormalizerConfig()
        )
        self._normalizer = ReferenceOnlineNormalizer(self._normalizer_config)
        self._detector = ReferenceStreamingDetector(self.period, detector)
        self.quality_monitor = QualityMonitor(
            quality, gain_guard_samples=self._normalizer_config.window_samples
        )
        self._stalls: List[DetectedStall] = []
        self._n_samples = 0
        self._n_dropped = 0
        self._finished = False

    def process(self, chunk, gap_before: int = 0) -> List[DetectedStall]:
        chunk = np.asarray(chunk, dtype=np.float64)
        new: List[DetectedStall] = []
        if gap_before > 0:
            new.extend(self._handle_gap(gap_before))
        if len(chunk) == 0:
            return [_flag(self.quality_monitor, s) for s in new]
        finite = np.isfinite(chunk)
        if finite.all():
            new.extend(self._consume(chunk))
        else:
            for segment, bad_run in reference_finite_segments(chunk, finite):
                if bad_run:
                    new.extend(self._handle_gap(bad_run))
                if len(segment):
                    new.extend(self._consume(segment))
        return [_flag(self.quality_monitor, s) for s in new]

    def _consume(self, chunk) -> List[DetectedStall]:
        self.quality_monitor.observe(chunk, self._n_samples)
        self._n_samples += len(chunk)
        normalized = self._normalizer.push(chunk)
        new = self._detector.push(normalized)
        self._stalls.extend(new)
        return new

    def _handle_gap(self, dropped: int) -> List[DetectedStall]:
        tail = self._normalizer.flush()
        new = list(self._detector.push(tail))
        new.extend(self._detector.resync())
        self._stalls.extend(new)
        self._normalizer = ReferenceOnlineNormalizer(self._normalizer_config)
        self.quality_monitor.mark_gap(self._n_samples, dropped)
        self._n_dropped += dropped
        return new

    def finish(self) -> ProfileReport:
        if not self._finished:
            tail = self._normalizer.flush()
            self._stalls.extend(self._detector.push(tail))
            self._stalls.extend(self._detector.finish())
            self._finished = True
        stalls = [_flag(self.quality_monitor, s) for s in self._stalls]
        quality = self.quality_monitor.summary()
        return ProfileReport(
            stalls=stalls,
            total_cycles=(self._n_samples + self._n_dropped) * self.period,
            clock_hz=self.clock_hz,
            sample_period_cycles=self.period,
            region_names={},
            quality=quality if quality.any_impairment else None,
        )


def reference_merge_intervals(intervals: np.ndarray, max_gap: float) -> np.ndarray:
    """The seed greedy interval merger."""
    iv = np.asarray(intervals, dtype=np.float64)
    if iv.size == 0:
        return iv.reshape(0, 2)
    order = np.argsort(iv[:, 0])
    iv = iv[order]
    merged = [iv[0].tolist()]
    for begin, end in iv[1:]:
        if begin - merged[-1][1] <= max_gap:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([begin, end])
    return np.asarray(merged)


def reference_match_stalls(
    detected: Sequence[DetectedStall],
    true_intervals: np.ndarray,
    tolerance_cycles: float = 0.0,
) -> MatchResult:
    """The seed greedy interval matcher."""
    truth = np.asarray(true_intervals, dtype=np.float64).reshape(-1, 2)
    det = sorted(detected, key=lambda s: s.begin_cycle)
    order = np.argsort(truth[:, 0]) if len(truth) else np.array([], dtype=int)
    truth = truth[order]

    tp = 0
    fp = 0
    matched_truth = np.zeros(len(truth), dtype=bool)
    truth_detected_cycles = np.zeros(len(truth))
    ti = 0
    for s in det:
        begin = s.begin_cycle - tolerance_cycles
        end = s.end_cycle + tolerance_cycles
        while ti < len(truth) and truth[ti, 1] <= begin:
            ti += 1
        j = ti
        hit = False
        while j < len(truth) and truth[j, 0] < end:
            hit = True
            if not matched_truth[j]:
                matched_truth[j] = True
                tp += 1
            truth_detected_cycles[j] += s.duration_cycles
            j += 1
        if not hit:
            fp += 1
    fn = int(np.count_nonzero(~matched_truth))
    n_det_groups = tp + fp
    precision = tp / n_det_groups if n_det_groups else 1.0
    recall = tp / len(truth) if len(truth) else 1.0
    errors = (
        truth_detected_cycles[matched_truth]
        - (truth[matched_truth, 1] - truth[matched_truth, 0])
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
