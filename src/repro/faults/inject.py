"""Deterministic, seeded injection of acquisition impairments.

Every fault is a frozen dataclass; an injector applies a sequence of
them to a magnitude signal with a ``numpy.random.Generator`` seeded
at construction, so a given ``(faults, seed)`` pair always produces
bit-identical output.  Every injected event is recorded in an
:class:`ImpairmentLog` in *output-stream* coordinates, giving chaos
tests ground truth to check the pipeline's quality gating against.

Value-level faults (gain steps, DC drift, bursts, clipping) preserve
sample count; :class:`DropoutFault` removes samples, which is what a
digitizer overrun does - downstream sees a shorter stream with
discontinuities, not padded zeros.  The injector applies dropouts
last and remaps earlier events through the cut, and
:func:`iter_chunks` splits the result into the ``(chunk, gap_before)``
pairs that :class:`~repro.core.streaming.StreamingEmprof` consumes.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

# ---------------------------------------------------------------------------
# impairment ground truth
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ImpairmentEvent:
    """One injected impairment, in output-stream sample coordinates.

    Attributes:
        kind: ``dropout`` / ``clip`` / ``gain_step`` / ``burst`` /
            ``dc_drift``.
        begin_sample / end_sample: half-open impaired interval.  For a
            dropout both bounds equal the cut position (the samples no
            longer exist); the surrounding guard is the monitor's job.
        severe: True when the impairment can fabricate or destroy
            stalls (dropouts, clipping, gain steps, bursts); benign
            events (slow DC drift) are logged but are not expected to
            be quality-gated.
        detail: free-form description (factor, dropped count, ...).
    """

    kind: str
    begin_sample: int
    end_sample: int
    severe: bool = True
    detail: str = ""


class ImpairmentLog:
    """Ground-truth record of every injected impairment."""

    def __init__(self) -> None:
        self.events: List[ImpairmentEvent] = []

    def add(
        self,
        kind: str,
        begin_sample: int,
        end_sample: int,
        severe: bool = True,
        detail: str = "",
    ) -> None:
        """Record one event."""
        self.events.append(
            ImpairmentEvent(kind, int(begin_sample), int(end_sample), severe, detail)
        )

    def count(self, kind: Optional[str] = None) -> int:
        """Number of events, optionally of one kind."""
        if kind is None:
            return len(self.events)
        return sum(1 for e in self.events if e.kind == kind)

    def severe_intervals(self) -> List[Tuple[int, int]]:
        """Merged, sorted [begin, end) intervals of severe events."""
        spans = sorted(
            (e.begin_sample, max(e.end_sample, e.begin_sample + 1))
            for e in self.events
            if e.severe
        )
        merged: List[Tuple[int, int]] = []
        for begin, end in spans:
            if merged and begin <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], end))
            else:
                merged.append((begin, end))
        return merged

    def overlaps(self, begin: float, end: float, margin: float = 0.0) -> bool:
        """Whether [begin, end] touches any severe event (with margin)."""
        for b, e in self.severe_intervals():
            if begin <= e + margin and end >= b - margin:
                return True
        return False

    def summary(self) -> str:
        """One line per fault kind with counts."""
        kinds: List[str] = []
        for event in self.events:
            if event.kind not in kinds:
                kinds.append(event.kind)
        parts = [f"{kind}: {self.count(kind)}" for kind in kinds]
        return ", ".join(parts) if parts else "no impairments"


# ---------------------------------------------------------------------------
# fault kinds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GainStepFault:
    """Abrupt AGC gain changes: the signal scale steps at random instants."""

    steps: int = 2
    min_factor: float = 0.5
    max_factor: float = 2.0

    def apply(self, x: np.ndarray, rng: np.random.Generator, log: ImpairmentLog) -> np.ndarray:
        n = len(x)
        if n < 4 or self.steps < 1:
            return x
        lo, hi = int(0.05 * n) + 1, int(0.95 * n)
        if hi <= lo:
            return x
        positions = np.sort(
            rng.choice(np.arange(lo, hi), size=min(self.steps, hi - lo), replace=False)
        )
        out = x.copy()
        for pos in positions:
            factor = float(rng.uniform(self.min_factor, self.max_factor))
            out[pos:] *= factor
            log.add("gain_step", pos, pos + 1, detail=f"factor={factor:.3f}")
        return out


@dataclass(frozen=True)
class DcDriftFault:
    """Slow additive DC offset drift (supply/temperature wander)."""

    max_offset_ratio: float = 0.15  # of the median magnitude
    periods: float = 1.5  # sinusoid periods across the capture

    def apply(self, x: np.ndarray, rng: np.random.Generator, log: ImpairmentLog) -> np.ndarray:
        n = len(x)
        if n == 0:
            return x
        amplitude = self.max_offset_ratio * float(np.median(x))
        phase = float(rng.uniform(0, 2 * np.pi))
        drift = amplitude * np.sin(
            np.linspace(0, 2 * np.pi * self.periods, n) + phase
        )
        log.add(
            "dc_drift", 0, n, severe=False,
            detail=f"amplitude={amplitude:.3g}",
        )
        return np.maximum(x + drift, 0.0)


@dataclass(frozen=True)
class BurstFault:
    """Additive interference bursts (a nearby transmitter keying up)."""

    bursts: int = 2
    amplitude_factor: float = 3.0  # of the running maximum
    length_samples: int = 64

    def apply(self, x: np.ndarray, rng: np.random.Generator, log: ImpairmentLog) -> np.ndarray:
        n = len(x)
        if n == 0 or self.bursts < 1:
            return x
        out = x.copy()
        peak = float(np.max(x))
        length = max(1, min(self.length_samples, n))
        for _ in range(self.bursts):
            start = int(rng.integers(0, max(1, n - length)))
            end = min(n, start + length)
            out[start:end] += self.amplitude_factor * peak * (
                0.5 + 0.5 * rng.random(end - start)
            )
            log.add("burst", start, end, detail=f"x{self.amplitude_factor:.1f} peak")
        return out


@dataclass(frozen=True)
class ClippingFault:
    """ADC saturation: everything above the full-scale level is clipped.

    ``level`` pins the full scale explicitly; otherwise it is chosen as
    the ``1 - rate`` quantile so that roughly ``rate`` of the samples
    saturate.
    """

    rate: float = 0.01
    level: Optional[float] = None

    def clip_level(self, x: np.ndarray) -> float:
        """The saturation level this fault uses on ``x``."""
        if self.level is not None:
            return float(self.level)
        return float(np.quantile(x, 1.0 - self.rate))

    def apply(self, x: np.ndarray, rng: np.random.Generator, log: ImpairmentLog) -> np.ndarray:
        if len(x) == 0:
            return x
        level = self.clip_level(x)
        clipped = x > level
        if not clipped.any():
            return x
        # Full precision: the applied level is ground truth a monitor
        # can be configured with (see applied_clip_level).
        for start, end in _true_runs(clipped):
            log.add("clip", start, end, detail=f"level={level:.17g}")
        return np.minimum(x, level)


@dataclass(frozen=True)
class DropoutFault:
    """Digitizer overruns: contiguous runs of samples are lost entirely."""

    rate: float = 0.01  # fraction of samples dropped
    mean_gap_samples: int = 32

    def plan(self, n: int, rng: np.random.Generator) -> List[Tuple[int, int]]:
        """Sorted, non-overlapping [start, end) runs to drop, input coords."""
        if n < 8 or self.rate <= 0:
            return []
        target = int(round(self.rate * n))
        if target < 1:
            return []
        mean_gap = max(1, self.mean_gap_samples)
        runs: List[Tuple[int, int]] = []
        dropped = 0
        # Deterministic draw loop; bounded by the sample budget.
        attempts = 0
        while dropped < target and attempts < 4 * max(1, target // mean_gap) + 8:
            attempts += 1
            length = int(rng.integers(max(1, mean_gap // 2), 2 * mean_gap))
            length = min(length, target - dropped) or 1
            start = int(rng.integers(1, max(2, n - length - 1)))
            candidate = (start, start + length)
            if any(s < candidate[1] and candidate[0] < e for s, e in runs):
                continue
            runs.append(candidate)
            dropped += length
        runs.sort()
        return runs


# The union accepted by FaultInjector; DropoutFault is special-cased.
ValueFault = Union[GainStepFault, DcDriftFault, BurstFault, ClippingFault]
AnyFault = Union[ValueFault, DropoutFault]


def applied_clip_level(log: ImpairmentLog) -> Optional[float]:
    """The saturation level a :class:`ClippingFault` actually used.

    The injector computes the level from the signal *after* earlier
    value faults (gain steps), so the clean-signal quantile is not it;
    this reads the exact level back from the ground-truth log, for
    configuring a :class:`repro.faults.quality.QualityConfig`.
    """
    for event in log.events:
        if event.kind == "clip" and event.detail.startswith("level="):
            return float(event.detail[len("level="):])
    return None


def _true_runs(mask: np.ndarray) -> List[Tuple[int, int]]:
    """Half-open [start, end) runs where ``mask`` is True."""
    if len(mask) == 0:
        return []
    padded = np.concatenate(([False], mask, [False]))
    edges = np.flatnonzero(np.diff(padded.astype(np.int8)))
    return list(zip(edges[0::2].tolist(), edges[1::2].tolist()))


# ---------------------------------------------------------------------------
# the injector
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ImpairedSignal:
    """An impaired signal plus everything needed to reason about it.

    Attributes:
        signal: the impaired magnitude stream (dropout samples removed).
        log: ground truth of every injected event (output coords).
        gaps: ``(output_position, dropped_count)`` per dropout, i.e.
            what an honest digitizer driver would report as overruns.
        drop_starts / drop_cumulative: the dropout runs' input-coord
            start positions and cumulative dropped-sample counts, for
            mapping clean-signal positions into impaired coordinates.
    """

    signal: np.ndarray
    log: ImpairmentLog
    gaps: List[Tuple[int, int]] = field(default_factory=list)
    drop_starts: List[int] = field(default_factory=list)
    drop_cumulative: List[int] = field(default_factory=list)

    def map_position(self, clean_position: float) -> float:
        """Map a clean-signal sample position into impaired coordinates.

        Positions inside a dropped run collapse to the cut point.
        """
        index = bisect.bisect_right(self.drop_starts, clean_position) - 1
        if index < 0:
            return float(clean_position)
        run_len = self.drop_cumulative[index] - (
            self.drop_cumulative[index - 1] if index > 0 else 0
        )
        run_start = self.drop_starts[index]
        if clean_position < run_start + run_len:
            return float(run_start - (self.drop_cumulative[index] - run_len))
        return float(clean_position) - self.drop_cumulative[index]


class FaultInjector:
    """Applies a composable, seeded fault mix to signals and streams."""

    def __init__(self, faults: Sequence[AnyFault], seed: int = 0):
        self.faults = tuple(faults)
        self.seed = int(seed)

    def apply(self, signal: np.ndarray) -> ImpairedSignal:
        """Impair a whole magnitude signal; deterministic in the seed."""
        rng = np.random.default_rng(self.seed)
        x = np.asarray(signal, dtype=np.float64).copy()
        log = ImpairmentLog()
        dropout: Optional[DropoutFault] = None
        for fault in self.faults:
            if isinstance(fault, DropoutFault):
                dropout = fault  # applied last; see module docstring
                continue
            x = fault.apply(x, rng, log)
        if dropout is None:
            return ImpairedSignal(signal=x, log=log)
        runs = dropout.plan(len(x), rng)
        return _cut_dropouts(x, runs, log)


def _cut_dropouts(
    x: np.ndarray, runs: List[Tuple[int, int]], log: ImpairmentLog
) -> ImpairedSignal:
    """Remove dropout runs and remap logged events to output coords."""
    if not runs:
        return ImpairedSignal(signal=x, log=log)
    keep = np.ones(len(x), dtype=bool)
    starts: List[int] = []
    cumulative: List[int] = []
    dropped_before = 0
    gaps: List[Tuple[int, int]] = []
    for start, end in runs:
        keep[start:end] = False
        starts.append(start)
        dropped_before += end - start
        cumulative.append(dropped_before)
        gaps.append((start - (dropped_before - (end - start)), end - start))

    def remap(pos: int) -> int:
        index = bisect.bisect_right(starts, pos) - 1
        if index < 0:
            return pos
        run_len = cumulative[index] - (cumulative[index - 1] if index > 0 else 0)
        run_start = starts[index]
        drops_before_run = cumulative[index] - run_len
        if pos < run_start + run_len:
            # Position inside a dropped run collapses to the cut point.
            return run_start - drops_before_run
        return pos - cumulative[index]

    remapped = ImpairmentLog()
    for event in log.events:
        remapped.add(
            event.kind,
            remap(event.begin_sample),
            max(remap(event.begin_sample), remap(event.end_sample)),
            severe=event.severe,
            detail=event.detail,
        )
    for out_pos, dropped in gaps:
        remapped.add("dropout", out_pos, out_pos, detail=f"dropped={dropped}")
    return ImpairedSignal(
        signal=x[keep],
        log=remapped,
        gaps=gaps,
        drop_starts=starts,
        drop_cumulative=cumulative,
    )


def iter_chunks(
    impaired: ImpairedSignal, chunk_samples: int
) -> Iterator[Tuple[np.ndarray, int]]:
    """Yield ``(chunk, gap_before)`` pairs, splitting at every dropout.

    This is the shape an honest driver hands the hardened pipeline:
    contiguous runs of samples plus the overrun count preceding each.
    """
    if chunk_samples < 1:
        raise ValueError("chunk size must be positive")
    x = impaired.signal
    boundaries = sorted(set(pos for pos, _ in impaired.gaps))
    gap_at = {pos: dropped for pos, dropped in impaired.gaps}
    segment_edges = [0] + [b for b in boundaries if 0 < b < len(x)] + [len(x)]
    for seg_begin, seg_end in zip(segment_edges, segment_edges[1:]):
        gap_before = gap_at.get(seg_begin, 0)
        for start in range(seg_begin, seg_end, chunk_samples):
            end = min(start + chunk_samples, seg_end)
            yield x[start:end], (gap_before if start == seg_begin else 0)
