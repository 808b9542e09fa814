"""The vectorized chunked engine behind batch and streaming EMPROF.

The paper's receivers digitize at 20-160 MHz (Sections V-VI); keeping
up with that sample stream in Python means no per-sample Python work
at all.  This module is the single numerical core shared by the batch
profiler (:mod:`repro.core.detect`) and the streaming facade
(:mod:`repro.core.streaming`): both are thin adapters over the three
pieces here.

* :class:`SampleRing` - a preallocated ndarray ring holding the
  trailing raw-sample window, with head/tail indices and amortized
  O(1) pushes (no ``list.pop(0)``-style per-sample maintenance);
* :class:`ChunkNormalizer` - sliding-window min/max normalization
  computed per chunk with ``scipy.ndimage`` filters over a zero-copy
  view of the ring, emitting exactly the batch normalizer's values;
* :class:`ChunkDetector` - dip detection over whole chunks using
  boolean-mask run-length analysis (``np.diff``/``np.flatnonzero``)
  and ``ufunc.reduceat`` segment reductions, with explicit carry
  state (:class:`DipCarry`) for dips, hysteresis gaps and edge
  refinement across chunk boundaries;
* :func:`finite_segments` - vectorized splitting of a chunk into
  finite runs and the NaN/Inf gaps between them.

Carry-state invariants (see ``docs/engine.md`` for the full contract):

1. Feeding a signal through :class:`ChunkDetector.push` in *any*
   chunking, followed by :meth:`ChunkDetector.finish`, yields stalls
   bit-identical to one whole-signal pass - same boundaries, same
   cycle estimates, same refresh flags.
2. A dip may only be finalized once no future sample can change it:
   after the signal has recovered above the hysteresis threshold for
   more than ``merge_gap_samples`` samples, at a stream
   discontinuity (:meth:`ChunkDetector.resync`), or at end of stream
   (:meth:`ChunkDetector.finish`).
3. All carry state is plain data (ints, floats, small ndarrays), so
   an engine mid-stream is picklable and can migrate to a campaign
   worker process.

The engine is deliberately instrumentation-free: the adapters in
:mod:`repro.core.detect` and :mod:`repro.core.streaming` carry the
observability counters and runtime contracts so the hot path here
stays pure.  The one sanctioned exception is the *flight recorder*
(:mod:`repro.obs.flight`): both :class:`ChunkNormalizer` and
:class:`ChunkDetector` accept an optional
:class:`~repro.obs.flight.FlightRecorder` and, when one is attached,
record every decision (window settles, threshold runs, hysteresis
merges/splits, carry handoffs, finalize/reject verdicts) as
schema-versioned events.  With no recorder — the default — each hook
is a single ``is not None`` check and the numerical path is
bit-identical to the uninstrumented engine; with a recorder the hooks
only *read* state, so the outputs are bit-identical either way (both
facts are pinned by tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np
from scipy.ndimage import maximum_filter1d, minimum_filter1d

from ..obs.flight import FLIGHT_SCHEMA_VERSION, FlightEvent, FlightRecorder
from .events import StallTable
from .normalize import NormalizerConfig


# ---------------------------------------------------------------------------
# run-length primitives
# ---------------------------------------------------------------------------


def bool_runs(mask: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(starts, ends) of half-open [start, end) runs where ``mask`` is True."""
    if len(mask) == 0:
        empty = np.empty(0, dtype=np.intp)
        return empty, empty
    padded = np.concatenate(([False], mask, [False]))
    edges = np.flatnonzero(np.diff(padded.astype(np.int8)))
    return edges[0::2], edges[1::2]


def finite_segments(chunk: np.ndarray, finite: Optional[np.ndarray] = None):
    """Split ``chunk`` into (finite_segment, preceding_bad_run) pairs.

    Segments are zero-copy views into ``chunk``.  A trailing non-finite
    run yields a final pair with an empty segment, so the bad-run
    lengths always add up to the number of non-finite samples.
    """
    if finite is None:
        finite = np.isfinite(chunk)
    n = len(chunk)
    if n == 0:
        return []
    starts, ends = bool_runs(finite)
    pairs = []
    prev_end = 0
    for start, end in zip(starts.tolist(), ends.tolist()):
        pairs.append((chunk[start:end], start - prev_end))
        prev_end = end
    if prev_end < n:
        pairs.append((chunk[n:n], n - prev_end))
    return pairs


# ---------------------------------------------------------------------------
# the sample ring
# ---------------------------------------------------------------------------


class SampleRing:
    """Preallocated ndarray ring over a trailing window of the stream.

    Samples are addressed by their absolute stream position.  The ring
    keeps positions ``[first_position, end_position)``; ``push``
    appends a chunk, ``drop_before`` releases the left edge, and
    ``view`` returns a zero-copy slice.

    Pushes are amortized O(1) per sample: the backing buffer is
    preallocated, appends are single slice assignments, and the live
    region is compacted to the front (or the buffer doubled) only when
    the write head runs off the end.  ``copied_samples`` counts every
    sample moved by compaction/growth so tests can pin the amortized
    bound deterministically instead of trusting wall clocks.
    """

    def __init__(self, capacity: int = 4096):
        self._data = np.empty(max(16, int(capacity)), dtype=np.float64)
        self._base = 0  # absolute position of the first live sample
        self._start = 0  # index of the first live sample in _data
        self._len = 0  # live samples
        #: total samples ever pushed / moved by compaction (test hooks).
        self.pushed_samples = 0
        self.copied_samples = 0

    @property
    def first_position(self) -> int:
        """Absolute position of the oldest retained sample."""
        return self._base

    @property
    def end_position(self) -> int:
        """One past the absolute position of the newest sample."""
        return self._base + self._len

    @property
    def capacity(self) -> int:
        """Current backing-buffer size (grows geometrically)."""
        return len(self._data)

    def push(self, chunk: np.ndarray) -> None:
        """Append ``chunk`` after the newest sample (one slice copy)."""
        n = len(chunk)
        if n == 0:
            return
        need = self._len + n
        if self._start + need > len(self._data):
            live = self._data[self._start : self._start + self._len]
            if need > len(self._data):
                capacity = len(self._data)
                while capacity < need:
                    capacity *= 2
                fresh = np.empty(capacity, dtype=np.float64)
                fresh[: self._len] = live
                self._data = fresh
            elif self._start >= self._len:
                self._data[: self._len] = live
            else:
                # Overlapping move; numpy slice assignment does not
                # guarantee memmove semantics, so stage a copy.
                self._data[: self._len] = live.copy()
            self.copied_samples += self._len
            self._start = 0
        self._data[self._start + self._len : self._start + need] = chunk
        self._len = need
        self.pushed_samples += n

    def drop_before(self, position: int) -> None:
        """Release samples below absolute ``position`` (O(1))."""
        delta = min(max(0, position - self._base), self._len)
        self._start += delta
        self._base += delta
        self._len -= delta

    def view(self, begin: int, end: int) -> np.ndarray:
        """Zero-copy view of absolute positions [begin, end)."""
        if begin < self._base or end > self._base + self._len:
            raise IndexError(
                f"positions [{begin}, {end}) outside retained "
                f"[{self._base}, {self._base + self._len})"
            )
        lo = self._start + (begin - self._base)
        return self._data[lo : lo + (end - begin)]


# ---------------------------------------------------------------------------
# chunked normalization
# ---------------------------------------------------------------------------


class ChunkNormalizer:
    """Vectorized sliding min/max normalization with bounded memory.

    Emits exactly the values of :func:`repro.core.normalize.normalize`
    (centered window, edge-clamped at the true stream start and end):
    output position ``i`` is released once its full right context has
    arrived, or at :meth:`flush` where the window clamps to the signal
    end.  The min/max themselves come from the same
    ``scipy.ndimage`` filters the batch path uses, run over a
    zero-copy :class:`SampleRing` view, so the chunked values are
    bit-identical to the batch values.

    Pre-smoothing (``smooth_samples > 1``) is not supported online;
    the constructor rejects such configs rather than silently
    diverging from the batch result.
    """

    def __init__(
        self,
        config: Optional[NormalizerConfig] = None,
        flight: Optional[FlightRecorder] = None,
    ):
        cfg = config if config is not None else NormalizerConfig()
        if cfg.smooth_samples != 1:
            raise ValueError(
                "online normalization does not support pre-smoothing; "
                "use smooth_samples=1"
            )
        self.config = cfg
        window = cfg.window_samples
        self._left = window // 2  # left context of the centered window
        self._right = (window - 1) // 2  # right context (emission latency)
        self._ring = SampleRing(capacity=2 * window + 4096)
        self._next_out = 0  # absolute position of the next output sample
        self._flight = flight

    @property
    def latency_samples(self) -> int:
        """Fixed emission delay (the window's right context)."""
        return self._right

    @property
    def ring(self) -> SampleRing:
        """The backing sample ring (exposed for tests/diagnostics)."""
        return self._ring

    def push(self, chunk: np.ndarray) -> np.ndarray:
        """Feed samples; return the normalized values now determined."""
        arr = np.asarray(chunk, dtype=np.float64)
        if arr.size:
            self._ring.push(arr)
        return self._emit(self._ring.end_position - self._right)

    def flush(self) -> np.ndarray:
        """Emit the tail (window right edge clamps to the stream end)."""
        return self._emit(self._ring.end_position)

    def _emit(self, until: int) -> np.ndarray:
        until = min(until, self._ring.end_position)
        if until <= self._next_out:
            return np.empty(0, dtype=np.float64)
        cfg = self.config
        base = max(0, self._next_out - self._left)
        window_view = self._ring.view(base, self._ring.end_position)
        moving_min = minimum_filter1d(
            window_view, size=cfg.window_samples, mode="nearest"
        )
        moving_max = maximum_filter1d(
            window_view, size=cfg.window_samples, mode="nearest"
        )
        lo = self._next_out - base
        hi = until - base
        x = window_view[lo:hi]
        mmin = moving_min[lo:hi]
        mmax = moving_max[lo:hi]
        span = mmax - mmin
        # Identical expression to the batch normalizer: engage only
        # where the window plausibly contains a stall, and keep the
        # guard purely relative so gain invariance holds.
        engaged = span > cfg.min_range_ratio * mmax
        out = np.ones_like(x)
        np.divide(x - mmin, span, out=out, where=engaged & (span > 0))
        out = np.clip(out, 0.0, 1.0)
        if self._flight is not None:
            self._flight.record(
                FlightEvent(
                    schema_version=FLIGHT_SCHEMA_VERSION,
                    kind="normalizer_emit",
                    pos=float(self._next_out),
                    attrs={
                        "until": int(until),
                        "n": int(until - self._next_out),
                        "window_base": int(base),
                        "engaged": int(np.count_nonzero(engaged)),
                    },
                )
            )
        self._next_out = until
        self._ring.drop_before(max(0, until - self._left))
        return out


# ---------------------------------------------------------------------------
# chunked dip detection
# ---------------------------------------------------------------------------


@dataclass
class DipCarry:
    """Carry state for a dip still open at a chunk boundary.

    Positions are absolute stream sample indices.  ``gap_start`` is
    set while the signal sits above the threshold after the dip but
    the hysteresis decision (merge vs. finalize) is still pending.
    """

    start: int  # first sample below threshold
    end: int  # one past the last sample below threshold
    min_level: float
    enter_prev: float  # value just before `start` (1.0 at stream start)
    start_value: float  # value at `start`
    end_prev_value: float  # value at `end - 1`
    exit_value: float = 0.0  # value at `end` (valid once gap_start is set)
    gap_start: Optional[int] = None
    gap_max: float = -np.inf


class ChunkDetector:
    """Vectorized dip detection with carry state across chunks.

    The per-chunk pipeline thresholds the whole chunk into a boolean
    mask, extracts below-threshold runs with
    :func:`bool_runs`, evaluates every hysteresis/merge gap with
    ``np.maximum.reduceat`` segment maxima, groups merged runs with a
    cumulative-sum partition, and refines all group edges with one
    vectorized interpolation.  Only the (rare) dip that straddles the
    chunk boundary is carried as scalar state.

    ``config`` is a :class:`repro.core.detect.DetectorConfig` (taken
    duck-typed to keep this module import-light).

    A dip is finalized as soon as its fate is sealed: once the signal
    has recovered above ``recover_threshold`` and stayed away longer
    than ``merge_gap_samples``, no future sample can merge it, so the
    stall is emitted at the end of the current :meth:`push` rather
    than lazily on the next below-threshold sample.  The emitted
    stalls are bit-identical either way; only their latency differs.
    """

    def __init__(
        self,
        sample_period_cycles: float,
        config,
        flight: Optional[FlightRecorder] = None,
    ):
        if sample_period_cycles <= 0:
            raise ValueError("sample period must be positive")
        self.period = float(sample_period_cycles)
        self.config = config
        self._pos = 0  # absolute position of the next input sample
        self._prev = 1.0  # previous sample value (edge refinement)
        self._carry: Optional[DipCarry] = None
        self._samples_seen = 0
        self._flight = flight

    # -- flight recording (every hook is behind one `is not None`) -----------

    def _record_emit(
        self,
        trigger: int,
        begin: float,
        finish: float,
        min_level: float,
        duration: float,
        refresh: bool,
        carried: bool,
        merged_runs: int = 1,
    ) -> None:
        self._flight.record(
            FlightEvent(
                schema_version=FLIGHT_SCHEMA_VERSION,
                kind="stall_emitted",
                pos=begin,
                attrs={
                    "trigger": trigger,
                    "begin": begin,
                    "end": finish,
                    "min_level": min_level,
                    "margin": float(self.config.threshold) - min_level,
                    "duration_cycles": duration,
                    "refresh": refresh,
                    "carried": carried,
                    "merged_runs": merged_runs,
                },
            )
        )

    def _record_reject(
        self,
        trigger: int,
        begin: float,
        finish: float,
        min_level: float,
        reason: str,
        measured: float,
        limit: float,
        carried: bool,
    ) -> None:
        self._flight.record(
            FlightEvent(
                schema_version=FLIGHT_SCHEMA_VERSION,
                kind="stall_rejected",
                pos=begin,
                attrs={
                    "trigger": trigger,
                    "begin": begin,
                    "end": finish,
                    "reason": reason,
                    "measured": measured,
                    "limit": limit,
                    "min_level": min_level,
                    "margin": float(self.config.threshold) - min_level,
                    "carried": carried,
                },
            )
        )

    def _record_event(self, kind: str, pos: float, **attrs) -> None:
        self._flight.record(
            FlightEvent(
                schema_version=FLIGHT_SCHEMA_VERSION,
                kind=kind,
                pos=pos,
                attrs=attrs,
            )
        )

    # -- scalar paths (chunk boundaries and stream edges) -------------------

    def _refine(self, a: float, b: float, boundary: int) -> float:
        """Fractional threshold crossing between samples boundary-1/boundary."""
        if boundary <= 0:
            return float(boundary)
        # Exact equality is the degenerate-slope guard: interpolation
        # is undefined only when the two samples are bit-identical.
        if a == b:  # emlint: disable=float-equality
            return float(boundary)
        frac = (self.config.threshold - a) / (b - a)
        if not 0.0 <= frac <= 1.0:
            return float(boundary)
        return boundary - 1 + frac

    def _finalize(self, dip: DipCarry, exit_value: float) -> Optional[StallTable]:
        cfg = self.config
        fl = self._flight
        if dip.end - dip.start < cfg.min_duration_samples:
            if fl is not None:
                self._record_reject(
                    trigger=dip.start,
                    begin=self._refine(dip.enter_prev, dip.start_value, dip.start),
                    finish=self._refine(dip.end_prev_value, exit_value, dip.end),
                    min_level=dip.min_level,
                    reason="too_few_samples",
                    measured=float(dip.end - dip.start),
                    limit=float(cfg.min_duration_samples),
                    carried=True,
                )
            return None
        begin = self._refine(dip.enter_prev, dip.start_value, dip.start)
        finish = self._refine(dip.end_prev_value, exit_value, dip.end)
        if finish <= begin:
            if fl is not None:
                self._record_reject(
                    trigger=dip.start,
                    begin=begin,
                    finish=finish,
                    min_level=dip.min_level,
                    reason="inverted_edges",
                    measured=finish - begin,
                    limit=0.0,
                    carried=True,
                )
            return None
        duration = (finish - begin) * self.period
        if duration < cfg.min_duration_cycles:
            if fl is not None:
                self._record_reject(
                    trigger=dip.start,
                    begin=begin,
                    finish=finish,
                    min_level=dip.min_level,
                    reason="below_min_duration",
                    measured=duration,
                    limit=float(cfg.min_duration_cycles),
                    carried=True,
                )
            return None
        if fl is not None:
            self._record_emit(
                trigger=dip.start,
                begin=begin,
                finish=finish,
                min_level=dip.min_level,
                duration=duration,
                refresh=duration >= cfg.refresh_min_cycles,
                carried=True,
            )
        return StallTable(
            [begin],
            [finish],
            [begin * self.period],
            [finish * self.period],
            [dip.min_level],
            [duration >= cfg.refresh_min_cycles],
        )

    def _close_carry(self) -> List[StallTable]:
        """Finalize the carried dip exactly as end-of-stream would."""
        out: List[StallTable] = []
        dip = self._carry
        if dip is not None:
            # No sample exists past the boundary when the stream ends
            # mid-dip, so the edge cannot be interpolated: passing the
            # end-adjacent value makes _refine return the integer
            # boundary (the batch detector's array-edge fallback).
            exit_value = (
                dip.end_prev_value if dip.gap_start is None else dip.exit_value
            )
            stall = self._finalize(dip, exit_value)
            if stall is not None:
                out.append(stall)
            self._carry = None
        return out

    # -- vectorized edge refinement -----------------------------------------

    def _refine_vec(
        self, a: np.ndarray, b: np.ndarray, boundary: np.ndarray
    ) -> np.ndarray:
        """Vectorized :meth:`_refine` over group edges."""
        threshold = self.config.threshold
        boundary_f = boundary.astype(np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            frac = (threshold - a) / (b - a)
        # Bit-identical samples make the slope degenerate; out-of-range
        # fractions mean the crossing is not between these samples.
        usable = (
            (b != a)  # emlint: disable=float-equality
            & (frac >= 0.0)
            & (frac <= 1.0)
            & (boundary > 0)
        )
        return np.where(usable, boundary_f - 1.0 + frac, boundary_f)

    # -- public --------------------------------------------------------------

    @property
    def samples_seen(self) -> int:
        """Total normalized samples consumed."""
        return self._samples_seen

    def push(self, normalized: np.ndarray) -> StallTable:
        """Consume one chunk; return every stall whose fate is sealed."""
        arr = np.asarray(normalized, dtype=np.float64)
        n = arr.size
        if n == 0:
            return StallTable.empty()
        cfg = self.config
        recover = cfg.recover_threshold
        merge_gap = cfg.merge_gap_samples
        pos0 = self._pos
        prev_tail = self._prev
        out: List[StallTable] = []

        starts, ends = bool_runs(arr < cfg.threshold)
        if self._flight is not None:
            self._record_event(
                "threshold_runs",
                float(pos0),
                runs=int(starts.size),
                carry_open=self._carry is not None,
            )
        if starts.size == 0:
            self._no_runs(arr, pos0, out)
            self._advance(arr, n)
            return StallTable.concat(out)

        first_start = int(starts[0])
        carry_merged = self._junction(arr, pos0, first_start, out)

        group_start, group_end, group_min, merged_tail, runs_per_group = (
            self._group_runs(arr, starts, ends, pos0)
        )
        n_groups = len(group_start)

        # Absolute group boundaries and the values flanking them.
        abs_start = pos0 + group_start
        abs_end = pos0 + group_end
        with np.errstate(invalid="ignore"):
            a_begin = np.where(group_start > 0, arr[group_start - 1], prev_tail)
        b_begin = arr[group_start]
        if carry_merged:
            carry = self._carry
            abs_start = abs_start.astype(np.int64)
            abs_start[0] = carry.start
            a_begin = a_begin.astype(np.float64)
            a_begin[0] = carry.enter_prev
            b_begin = b_begin.astype(np.float64)
            b_begin[0] = carry.start_value
            group_min = group_min.astype(np.float64)
            group_min[0] = min(carry.min_level, float(group_min[0]))

        # Trailing state: does the last group stay open?
        last_end = int(ends[-1])
        if last_end == n:
            open_in_gap = False
            trailing_open = True
        else:
            trail_max = float(merged_tail)
            trail_len = n - last_end
            trailing_open = not (trail_max >= recover and trail_len > merge_gap)
            open_in_gap = trailing_open
        n_final = n_groups - 1 if trailing_open else n_groups

        if n_final > 0:
            fin_end = group_end[:n_final]
            begin = self._refine_vec(
                a_begin[:n_final], b_begin[:n_final], abs_start[:n_final]
            )
            finish = self._refine_vec(
                arr[fin_end - 1], arr[fin_end], abs_end[:n_final]
            )
            duration = (finish - begin) * self.period
            keep = (
                ((abs_end[:n_final] - abs_start[:n_final]) >= cfg.min_duration_samples)
                & (finish > begin)
                & (duration >= cfg.min_duration_cycles)
            )
            refresh = duration >= cfg.refresh_min_cycles
            if self._flight is not None:
                self._record_group_verdicts(
                    abs_start,
                    abs_end,
                    begin,
                    finish,
                    duration,
                    keep,
                    refresh,
                    group_min,
                    runs_per_group,
                    n_final,
                    carry_merged,
                )
            kept_begin = begin[keep]
            kept_finish = finish[keep]
            out.append(
                StallTable(
                    kept_begin,
                    kept_finish,
                    kept_begin * self.period,
                    kept_finish * self.period,
                    group_min[:n_final][keep],
                    refresh[keep],
                )
            )

        if trailing_open:
            last = n_groups - 1
            if carry_merged and last == 0:
                carry = self._carry
                dip_start = carry.start
                dip_enter = carry.enter_prev
                dip_start_value = carry.start_value
            else:
                dip_start = int(abs_start[last])
                dip_enter = float(a_begin[last])
                dip_start_value = float(b_begin[last])
            dip = DipCarry(
                start=dip_start,
                end=pos0 + int(group_end[last]),
                min_level=float(group_min[last]),
                enter_prev=dip_enter,
                start_value=dip_start_value,
                end_prev_value=float(arr[int(group_end[last]) - 1]),
            )
            if open_in_gap:
                dip.gap_start = pos0 + last_end
                dip.exit_value = float(arr[last_end])
                dip.gap_max = float(merged_tail)
            self._carry = dip
            if self._flight is not None:
                self._record_event(
                    "carry_open",
                    float(pos0 + n),
                    start=int(dip.start),
                    end=int(dip.end),
                    min_level=float(dip.min_level),
                    gap_open=dip.gap_start is not None,
                )
        else:
            self._carry = None

        self._advance(arr, n)
        return StallTable.concat(out)

    def finish(self) -> StallTable:
        """Finalize any open dip at end of signal."""
        if self._flight is not None:
            self._record_event(
                "finish", float(self._pos), samples_seen=self._samples_seen
            )
        return StallTable.concat(self._close_carry())

    def resync(self) -> StallTable:
        """Close any open dip at a stream discontinuity and continue.

        A gap means the samples between the last and the next chunk
        are unknown, so the dip state machine cannot bridge it: the
        open dip (if any) is finalized exactly as :meth:`finish`
        would finalize it, but the detector stays usable - positions
        keep advancing and the next sample is treated like a stream
        start (neutral previous value for edge refinement).
        """
        if self._flight is not None:
            self._record_event(
                "resync", float(self._pos), carry_open=self._carry is not None
            )
        out = self._close_carry()
        self._prev = 1.0
        return StallTable.concat(out)

    # -- internals ------------------------------------------------------------

    def _advance(self, arr: np.ndarray, n: int) -> None:
        self._prev = float(arr[n - 1])
        self._pos += n
        self._samples_seen += n

    def _no_runs(self, arr: np.ndarray, pos0: int, out: List[StallTable]) -> None:
        """Whole chunk above threshold: extend/resolve the carried gap."""
        dip = self._carry
        if dip is None:
            return
        if dip.gap_start is None:
            dip.gap_start = pos0
            dip.exit_value = float(arr[0])
        dip.gap_max = max(dip.gap_max, float(arr.max()))
        gap_len = pos0 + arr.size - dip.gap_start
        cfg = self.config
        if dip.gap_max >= cfg.recover_threshold and gap_len > cfg.merge_gap_samples:
            stall = self._finalize(dip, dip.exit_value)
            if stall is not None:
                out.append(stall)
            self._carry = None
        elif self._flight is not None:
            # The dip's fate is still pending; it crosses this chunk
            # boundary too.
            self._record_event(
                "carry_open",
                float(pos0 + arr.size),
                start=int(dip.start),
                end=int(dip.end),
                min_level=float(dip.min_level),
                gap_open=True,
            )

    def _junction(
        self,
        arr: np.ndarray,
        pos0: int,
        first_start: int,
        out: List[StallTable],
    ) -> bool:
        """Resolve the carried dip against this chunk's first run.

        Returns True when the carried dip merges into the first run
        (the first group then starts at the carried position), False
        when there is no carry or it was finalized here.
        """
        dip = self._carry
        if dip is None:
            return False
        cfg = self.config
        if first_start > 0:
            if dip.gap_start is None:
                dip.gap_start = pos0
                dip.exit_value = float(arr[0])
            dip.gap_max = max(dip.gap_max, float(arr[:first_start].max()))
        if dip.gap_start is None:
            # The chunk opens below threshold and the dip never saw a
            # gap: it simply continues.
            if self._flight is not None:
                self._record_event(
                    "carry_merge", float(pos0), start=int(dip.start), continued=True
                )
            return True
        gap_len = pos0 + first_start - dip.gap_start
        if dip.gap_max < cfg.recover_threshold or gap_len <= cfg.merge_gap_samples:
            # Merge: the dip continues through the gap.
            if self._flight is not None:
                self._record_event(
                    "carry_merge",
                    float(dip.gap_start),
                    start=int(dip.start),
                    gap_len=int(gap_len),
                    gap_max=float(dip.gap_max),
                    continued=False,
                )
            dip.gap_start = None
            dip.gap_max = -np.inf
            return True
        stall = self._finalize(dip, dip.exit_value)
        if stall is not None:
            out.append(stall)
        self._carry = None
        return False

    def _group_runs(
        self, arr: np.ndarray, starts: np.ndarray, ends: np.ndarray, pos0: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, float, np.ndarray]:
        """Merge below-threshold runs into dip groups, vectorized.

        Returns (group_start, group_end, group_min, trailing_max,
        runs_per_group): chunk-local [start, end) per merged group,
        the minimum level inside each group, the signal maximum over
        the trailing above-threshold region (``-inf`` when the chunk
        ends below threshold), and how many raw runs each group
        merged.

        A gap merges its neighbours when it is short
        (``<= merge_gap_samples``) or never recovers above the
        hysteresis threshold - evaluated per gap with one
        ``np.maximum.reduceat`` over the interleaved run boundaries,
        exactly the decision the batch detector's merge passes make.
        """
        n = arr.size
        n_runs = len(starts)
        bounds = np.empty(2 * n_runs, dtype=np.intp)
        bounds[0::2] = starts
        bounds[1::2] = ends
        last_is_end = int(ends[-1]) == n
        reduce_bounds = bounds[:-1] if last_is_end else bounds
        seg_max = np.maximum.reduceat(arr, reduce_bounds)
        trailing_max = -np.inf if last_is_end else float(seg_max[-1])
        if n_runs == 1:
            merge = np.empty(0, dtype=bool)
        else:
            gap_max = seg_max[1 : 2 * n_runs - 1 : 2]
            gap_len = starts[1:] - ends[:-1]
            merge = (gap_max < self.config.recover_threshold) | (
                gap_len <= self.config.merge_gap_samples
            )
            if self._flight is not None:
                self._record_gap_decisions(ends, gap_len, gap_max, merge, pos0)
        breaks = np.flatnonzero(~merge)
        first_run = np.concatenate(([0], breaks + 1))
        last_run = np.concatenate((breaks, [n_runs - 1]))
        group_start = starts[first_run]
        group_end = ends[last_run]
        # Group minimum over the merged [start, end) interval: interior
        # gap samples sit at/above the threshold, so the interval min
        # is the dip floor (and matches the batch detector exactly).
        group_bounds = np.empty(2 * len(group_start), dtype=np.intp)
        group_bounds[0::2] = group_start
        group_bounds[1::2] = group_end
        reduce_bounds = group_bounds[:-1] if last_is_end else group_bounds
        group_min = np.minimum.reduceat(arr, reduce_bounds)[0::2]
        runs_per_group = last_run - first_run + 1
        return group_start, group_end, group_min, trailing_max, runs_per_group

    def _record_gap_decisions(
        self,
        ends: np.ndarray,
        gap_len: np.ndarray,
        gap_max: np.ndarray,
        merge: np.ndarray,
        pos0: int,
    ) -> None:
        """Flight-record every hysteresis merge/split verdict of a chunk."""
        recover = self.config.recover_threshold
        # Iterates gap *decisions* (a handful per chunk), and only when
        # a flight recorder is attached - not a per-sample hot path.
        # emlint: disable=hot-loop
        for gi in range(len(merge)):
            length = int(gap_len[gi])
            top = float(gap_max[gi])
            if merge[gi]:
                self._record_event(
                    "hysteresis_merge",
                    float(pos0 + int(ends[gi])),
                    gap_len=length,
                    gap_max=top,
                    reason="no_recovery" if top < recover else "short_gap",
                )
            else:
                self._record_event(
                    "hysteresis_split",
                    float(pos0 + int(ends[gi])),
                    gap_len=length,
                    gap_max=top,
                )

    def _record_group_verdicts(
        self,
        abs_start: np.ndarray,
        abs_end: np.ndarray,
        begin: np.ndarray,
        finish: np.ndarray,
        duration: np.ndarray,
        keep: np.ndarray,
        refresh: np.ndarray,
        group_min: np.ndarray,
        runs_per_group: np.ndarray,
        n_final: int,
        carry_merged: bool,
    ) -> None:
        """Flight-record the finalize verdict of every sealed group."""
        cfg = self.config
        samples = abs_end[:n_final] - abs_start[:n_final]
        # Iterates sealed *groups* (few per chunk), recorder-on only -
        # not a per-sample hot path.
        # emlint: disable=hot-loop
        for gi in range(n_final):
            carried = bool(carry_merged and gi == 0)
            if keep[gi]:
                self._record_emit(
                    trigger=int(abs_start[gi]),
                    begin=float(begin[gi]),
                    finish=float(finish[gi]),
                    min_level=float(group_min[gi]),
                    duration=float(duration[gi]),
                    refresh=bool(refresh[gi]),
                    carried=carried,
                    merged_runs=int(runs_per_group[gi]),
                )
                continue
            if samples[gi] < cfg.min_duration_samples:
                reason = "too_few_samples"
                measured = float(samples[gi])
                limit = float(cfg.min_duration_samples)
            elif finish[gi] <= begin[gi]:
                reason = "inverted_edges"
                measured = float(finish[gi] - begin[gi])
                limit = 0.0
            else:
                reason = "below_min_duration"
                measured = float(duration[gi])
                limit = float(cfg.min_duration_cycles)
            self._record_reject(
                trigger=int(abs_start[gi]),
                begin=float(begin[gi]),
                finish=float(finish[gi]),
                min_level=float(group_min[gi]),
                reason=reason,
                measured=measured,
                limit=limit,
                carried=carried,
            )


# ---------------------------------------------------------------------------
# one-shot batch entry
# ---------------------------------------------------------------------------


def detect_all(
    normalized: np.ndarray,
    sample_period_cycles: float,
    config,
    flight: Optional[FlightRecorder] = None,
) -> StallTable:
    """Whole-signal detection: one chunk through the engine plus flush."""
    detector = ChunkDetector(sample_period_cycles, config, flight=flight)
    return detector.push(normalized) + detector.finish()
