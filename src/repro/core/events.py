"""Event and report types produced by the EMPROF profiler."""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, fields, replace
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from ..devtools.contracts import check_report


@dataclass(frozen=True)
class DetectedStall:
    """One LLC-miss-induced stall found in the side-channel signal.

    Sample positions are fractional: run boundaries are refined by
    linear interpolation of the threshold crossing, so durations are
    not quantized to whole sample periods.

    Attributes:
        begin_sample / end_sample: half-open interval in the analyzed
            signal (fractional samples).
        begin_cycle / end_cycle: the same interval in processor cycles.
        min_level: deepest normalized level inside the dip.
        is_refresh: True when classified as a refresh-coincident stall
            (Fig. 5): the stall is long enough to include a DRAM
            refresh window.
        region: code-region id once attribution has run, else None.
        low_confidence: True when the stall overlaps a region of the
            capture flagged as impaired (sample gap, ADC saturation,
            AGC gain step, interference burst).  Such stalls may be
            fabricated by the impairment rather than by a real LLC
            miss and should be excluded from precision-sensitive
            accounting; see ``docs/robustness.md``.
    """

    begin_sample: float
    end_sample: float
    begin_cycle: float
    end_cycle: float
    min_level: float
    is_refresh: bool = False
    region: Optional[int] = None
    low_confidence: bool = False

    @property
    def duration_cycles(self) -> float:
        """Stall length in processor cycles."""
        return self.end_cycle - self.begin_cycle

    @property
    def duration_samples(self) -> float:
        """Stall length in signal samples."""
        return self.end_sample - self.begin_sample

    def flagged(self, low_confidence: bool = True) -> "DetectedStall":
        """Copy of this stall with its confidence flag set."""
        if low_confidence == self.low_confidence:
            return self
        return replace(self, low_confidence=low_confidence)


@dataclass(frozen=True)
class QualitySummary:
    """Signal-quality accounting attached to a :class:`ProfileReport`.

    Populated by the hardened streaming pipeline
    (:class:`repro.core.streaming.StreamingEmprof`); ``None`` on a
    report means no quality monitoring ran, not that the capture was
    pristine.

    Attributes:
        gap_count: discontinuities seen (driver-reported drops plus
            non-finite sample runs).
        dropped_samples: total samples lost across all gaps.
        clipped_samples: samples at/above the saturation level.
        burst_samples: samples attributed to interference bursts.
        gain_steps: abrupt sustained level changes (AGC steps).
        impaired_sample_spans: number of distinct impaired intervals.
        impaired_samples: total samples inside impaired intervals.
    """

    gap_count: int = 0
    dropped_samples: int = 0
    clipped_samples: int = 0
    burst_samples: int = 0
    gain_steps: int = 0
    impaired_sample_spans: int = 0
    impaired_samples: int = 0

    @property
    def any_impairment(self) -> bool:
        """Whether any quality issue was observed at all."""
        return self.impaired_sample_spans > 0 or self.gap_count > 0


def _sequential_sum(values: np.ndarray) -> float:
    """``sum(values)`` in Python's left-to-right order, bit for bit.

    ``np.sum`` adds pairwise, which rounds differently; a cumulative
    sum adds one value at a time, as the per-stall ``sum`` did.
    """
    return float(np.cumsum(values)[-1]) if len(values) else 0.0


#: The stall fields, in order: one :class:`StallTable` column each.
STALL_FIELDS = tuple(f.name for f in fields(DetectedStall))
_stall_values = operator.attrgetter(*STALL_FIELDS)


def _object_column(values) -> np.ndarray:
    column = np.empty(len(values), dtype=object)
    column[:] = values
    return column


class StallTable:
    """Detected stalls as eight aligned columns, one row per stall.

    Stalls leave the detection engine as this table and stay columns
    through the pipeline, the report and the report file, so profiling
    builds no per-stall Python object.  The columns are the
    :class:`DetectedStall` fields: five float64 (samples, cycles,
    ``min_level``), two bool (``is_refresh``, ``low_confidence``) and
    ``region``, an object column holding None or a region id.

    A table is also a read-only sequence of :class:`DetectedStall`
    rows: iterating, indexing and comparing with a list build the rows
    from the columns (Python ``float``/``bool``/``int``/``None``
    values, as a row built field by field holds), once: the table
    keeps the rows it built.  Treat the columns as immutable: every
    operation returns a new table.
    """

    __slots__ = STALL_FIELDS + ("_rows",)

    def __init__(
        self,
        begin_sample,
        end_sample,
        begin_cycle,
        end_cycle,
        min_level,
        is_refresh=None,
        region=None,
        low_confidence=None,
    ):
        n = len(begin_sample)
        self.begin_sample = np.asarray(begin_sample, dtype=np.float64)
        self.end_sample = np.asarray(end_sample, dtype=np.float64)
        self.begin_cycle = np.asarray(begin_cycle, dtype=np.float64)
        self.end_cycle = np.asarray(end_cycle, dtype=np.float64)
        self.min_level = np.asarray(min_level, dtype=np.float64)
        self.is_refresh = (
            np.zeros(n, dtype=bool)
            if is_refresh is None
            else np.asarray(is_refresh, dtype=bool)
        )
        if region is None:
            region = np.full(n, None, dtype=object)
        elif not (isinstance(region, np.ndarray) and region.dtype == object):
            region = _object_column(region)
        self.region = region
        self.low_confidence = (
            np.zeros(n, dtype=bool)
            if low_confidence is None
            else np.asarray(low_confidence, dtype=bool)
        )
        if any(len(getattr(self, name)) != n for name in STALL_FIELDS):
            raise ValueError("stall columns must have equal lengths")
        self._rows: Optional[List[DetectedStall]] = None

    # -- construction --------------------------------------------------------

    @classmethod
    def empty(cls) -> "StallTable":
        """A table with no rows (one shared instance)."""
        return _EMPTY_TABLE

    @classmethod
    def from_stalls(cls, stalls: Sequence[DetectedStall]) -> "StallTable":
        """The columns of ``stalls``."""
        if isinstance(stalls, StallTable):
            return stalls
        rows = list(stalls)
        if not rows:
            return cls.empty()
        return cls(*zip(*map(_stall_values, rows)))

    @classmethod
    def from_dict(cls, columns: Dict[str, list]) -> "StallTable":
        """Inverse of :meth:`to_dict`."""
        return cls(*(columns[name] for name in STALL_FIELDS))

    @classmethod
    def concat(cls, tables: Sequence["StallTable"]) -> "StallTable":
        """The rows of ``tables``, one after another."""
        tables = [t for t in tables if len(t)]
        if not tables:
            return cls.empty()
        if len(tables) == 1:
            return tables[0]
        return cls(
            *(
                np.concatenate([getattr(t, name) for t in tables])
                for name in STALL_FIELDS
            )
        )

    # -- derived tables ------------------------------------------------------

    def _replace(self, **columns) -> "StallTable":
        return StallTable(
            *(columns.get(name, getattr(self, name)) for name in STALL_FIELDS)
        )

    def shifted(self, sample_offset: float, cycle_offset: float) -> "StallTable":
        """Every row translated by ``sample_offset`` samples and
        ``cycle_offset`` cycles; durations and the other fields stay.

        Maps stalls detected inside a signal window back to
        whole-signal coordinates.
        """
        return self._replace(
            begin_sample=self.begin_sample + sample_offset,
            end_sample=self.end_sample + sample_offset,
            begin_cycle=self.begin_cycle + cycle_offset,
            end_cycle=self.end_cycle + cycle_offset,
        )

    def flagged(self, mask: np.ndarray) -> "StallTable":
        """Rows where ``mask`` holds flagged low-confidence; flags only rise."""
        mask = np.asarray(mask, dtype=bool)
        if not mask.any():
            return self
        return self._replace(low_confidence=self.low_confidence | mask)

    def take(self, keep) -> "StallTable":
        """The rows ``keep`` selects: a bool mask or a slice."""
        return StallTable(*(getattr(self, name)[keep] for name in STALL_FIELDS))

    # -- columns -------------------------------------------------------------

    def durations_cycles(self) -> np.ndarray:
        """Stall lengths in cycles, as :attr:`DetectedStall.duration_cycles`."""
        return self.end_cycle - self.begin_cycle

    def stall_cycles(self) -> float:
        """Total stall cycles, summed in row order like a per-stall ``sum``."""
        return _sequential_sum(self.durations_cycles())

    def to_dict(self) -> Dict[str, list]:
        """One list of Python values per field (JSON-ready)."""
        return {name: getattr(self, name).tolist() for name in STALL_FIELDS}

    # -- the row view --------------------------------------------------------

    def _built_rows(self) -> List[DetectedStall]:
        if self._rows is None:
            self._rows = list(
                map(
                    DetectedStall,
                    *(getattr(self, name).tolist() for name in STALL_FIELDS),
                )
            )
        return self._rows

    def rows(self) -> List[DetectedStall]:
        """The stalls as a new list of :class:`DetectedStall` rows."""
        return list(self._built_rows())

    def __len__(self) -> int:
        return len(self.begin_sample)

    def __iter__(self) -> Iterator[DetectedStall]:
        return iter(self._built_rows())

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.take(index)
        if self._rows is not None:
            return self._rows[index]
        n = len(self)
        if not -n <= index < n:
            raise IndexError("stall index out of range")
        return DetectedStall(*(getattr(self, name).item(index) for name in STALL_FIELDS))

    def __eq__(self, other) -> bool:
        if isinstance(other, StallTable):
            return self.to_dict() == other.to_dict()
        if isinstance(other, (list, tuple)):
            return len(self) == len(other) and self._built_rows() == list(other)
        return NotImplemented

    __hash__ = None

    def __add__(self, other):
        """The concatenation, as a table; ``other`` may be a list of rows."""
        if isinstance(other, (StallTable, list)):
            return StallTable.concat([self, StallTable.from_stalls(other)])
        return NotImplemented

    def __radd__(self, other):
        if isinstance(other, list):
            return StallTable.concat([StallTable.from_stalls(other), self])
        return NotImplemented

    def __repr__(self) -> str:
        return f"StallTable({self._built_rows()!r})"


_EMPTY_TABLE = StallTable(*(np.empty(0),) * 5)


@dataclass
class ProfileReport:
    """EMPROF's output for one profiled execution.

    The report follows the paper's accounting: each detected stall is
    one MISS (one LLC miss or a group of highly-overlapped misses,
    Section II-B), and its duration is that MISS's latency.

    ``stalls`` is a :class:`StallTable`; a sequence of
    :class:`DetectedStall` given instead is converted to one.  The
    counts, sums and series below read its columns, so profiling,
    validating, summarizing and saving a report build no per-stall
    object; rows are built when code iterates or indexes the stalls.
    The sums add in stall order, as a per-stall ``sum`` does, so every
    value is bit-identical to it.
    """

    stalls: StallTable
    total_cycles: float
    clock_hz: float
    sample_period_cycles: float
    region_names: Dict[int, str] = field(default_factory=dict)
    quality: Optional[QualitySummary] = None
    #: Per-stall provenance (:class:`repro.obs.flight.ReportEvidence`)
    #: when the run was profiled with a flight recorder attached;
    #: ``None`` means no recording ran, not that evidence was empty.
    #: Typed loosely so the core event types stay importable without
    #: the obs layer.
    evidence: Optional[object] = None

    def __post_init__(self) -> None:
        self.stalls = StallTable.from_stalls(self.stalls)

    def stall_evidence(self, index: int):
        """Evidence record for ``stalls[index]``.

        Raises ``ValueError`` when the report was profiled without a
        flight recorder (``evidence is None``).
        """
        if self.evidence is None:
            raise ValueError(
                "report has no evidence; profile with a FlightRecorder "
                "(e.g. Emprof.profile(flight=...)) to collect it"
            )
        return self.evidence.for_stall(index)

    @property
    def miss_count(self) -> int:
        """Number of detected LLC-miss-induced stalls."""
        return len(self.stalls)

    @property
    def low_confidence_count(self) -> int:
        """Detected stalls overlapping impaired signal regions."""
        return int(np.count_nonzero(self.stalls.low_confidence))

    @property
    def confident_miss_count(self) -> int:
        """Detected stalls *not* flagged low-confidence."""
        return self.miss_count - self.low_confidence_count

    def confident_stalls(self) -> List[DetectedStall]:
        """The stalls that do not overlap any impaired region."""
        return [s for s in self.stalls if not s.low_confidence]

    @property
    def refresh_count(self) -> int:
        """Detected stalls classified as refresh-coincident."""
        return int(np.count_nonzero(self.stalls.is_refresh))

    @property
    def stall_cycles(self) -> float:
        """Total stalled cycles across all detected misses."""
        return self.stalls.stall_cycles()

    @property
    def stall_fraction(self) -> float:
        """Miss latency as a fraction of total execution time."""
        if self.total_cycles <= 0:
            return 0.0
        return self.stall_cycles / self.total_cycles

    @property
    def mean_latency_cycles(self) -> float:
        """Average detected stall duration, in cycles."""
        if not self.miss_count:
            return 0.0
        return self.stall_cycles / self.miss_count

    def latencies_cycles(self) -> np.ndarray:
        """Detected stall durations in cycles, in time order."""
        return self.stalls.durations_cycles()

    def stalls_between(self, begin_cycle: float, end_cycle: float) -> List[DetectedStall]:
        """Stalls whose midpoint falls inside [begin_cycle, end_cycle)."""
        out = []
        for s in self.stalls:
            mid = 0.5 * (s.begin_cycle + s.end_cycle)
            if begin_cycle <= mid < end_cycle:
                out.append(s)
        return out

    def miss_rate_timeline(self, bin_cycles: float):
        """(bin_start_cycles, counts): detected misses per time bin.

        The Fig. 13 boot-profile series is this timeline on a boot
        capture.
        """
        if bin_cycles <= 0:
            raise ValueError("bin width must be positive")
        nbins = max(1, int(np.ceil(self.total_cycles / bin_cycles)))
        bins = (self.stalls.begin_cycle // bin_cycles).astype(np.int64)
        counts = np.bincount(np.minimum(bins, nbins - 1), minlength=nbins)
        return np.arange(nbins) * bin_cycles, counts.astype(np.int64)

    def validate(self) -> "ProfileReport":
        """Assert the report's event invariants; returns the report.

        Checks every stall is well-formed (``begin <= end`` in samples
        and cycles, finite fields) and that stalls are in
        non-decreasing time order.  Raises
        :class:`repro.devtools.contracts.ContractViolation` otherwise.
        """
        return check_report(self, where="ProfileReport")

    def summary(self) -> str:
        """Human-readable one-paragraph summary."""
        total_s = self.total_cycles / self.clock_hz
        lines = [
            f"EMPROF profile: {self.miss_count} LLC-miss stalls over "
            f"{total_s * 1e3:.3f} ms ({self.total_cycles:.0f} cycles)",
            f"  miss latency: {self.stall_cycles:.0f} cycles "
            f"({100.0 * self.stall_fraction:.2f}% of execution time)",
            f"  mean stall: {self.mean_latency_cycles:.1f} cycles",
            f"  refresh-coincident stalls: {self.refresh_count}",
        ]
        if self.low_confidence_count or (
            self.quality is not None and self.quality.any_impairment
        ):
            lines.append(
                f"  low-confidence stalls: {self.low_confidence_count} "
                f"(overlap impaired signal; see report.quality)"
            )
        if self.quality is not None and self.quality.any_impairment:
            q = self.quality
            lines.append(
                f"  signal quality: {q.gap_count} gaps "
                f"({q.dropped_samples} samples dropped), "
                f"{q.clipped_samples} clipped, {q.burst_samples} burst, "
                f"{q.gain_steps} gain steps"
            )
        return "\n".join(lines)
