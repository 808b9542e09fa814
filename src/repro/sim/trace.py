"""Ground-truth trace emitted by the simulator.

Section V-C of the paper: the simulator "is enhanced to produce a power
consumption trace that will be used as a side-channel signal in EMPROF,
and also to produce a trace of when (in which cycle) each LLC miss is
detected and when the resulting stall (if there is a stall) begins and
ends".  :class:`GroundTruth` is that second trace, a miss table and a
stall table of NumPy columns; the validation code in
:mod:`repro.core.validate` compares EMPROF's output against them.
:class:`MissRecord` and :class:`StallRecord` are their rows, built only
when code reads ``GroundTruth.misses`` / ``.stalls``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

# Miss kinds.
IFETCH = "ifetch"
DLOAD = "load"
DSTORE = "store"

# Stall causes.
CAUSE_IFETCH_MEM = "ifetch_mem"  # I$ miss that also missed the LLC
CAUSE_DATA_MEM = "data_mem"  # load consumer blocked on a memory miss
CAUSE_MSHR_FULL = "mshr_full"  # out of miss-handling resources
CAUSE_RUNAHEAD = "runahead"  # in-order window exhausted past a miss
CAUSE_LLC_HIT = "llc_hit"  # brief stall: L1 miss serviced by the LLC
CAUSE_STOREBUF = "store_buffer"  # store buffer full of outstanding misses

# Causes whose stalls are attributable to main-memory (LLC-miss)
# activity - the events EMPROF exists to find.
MEMORY_CAUSES = frozenset(
    {CAUSE_IFETCH_MEM, CAUSE_DATA_MEM, CAUSE_MSHR_FULL, CAUSE_RUNAHEAD, CAUSE_STOREBUF}
)


@dataclass
class MissRecord:
    """One LLC miss (an access that reached main memory).

    Attributes:
        miss_id: dense index, in detection order.
        kind: IFETCH / DLOAD / DSTORE.
        addr: byte address of the missing access.
        detect_cycle: cycle at which the miss was discovered.
        ready_cycle: cycle at which the line came back from memory.
        stall_id: index of the stall this miss contributed to, or None
            when the core hid the whole latency (Fig. 3a).
        refresh_blocked: True when DRAM refresh inflated the latency.
        region: code region active when the miss was detected.
    """

    miss_id: int
    kind: str
    addr: int
    detect_cycle: int
    ready_cycle: int
    stall_id: Optional[int] = None
    refresh_blocked: bool = False
    region: int = 0

    @property
    def latency(self) -> int:
        """Memory service latency of this miss, in cycles."""
        return self.ready_cycle - self.detect_cycle


@dataclass
class StallRecord:
    """One contiguous fully-stalled interval of the core.

    Attributes:
        stall_id: dense index, in time order.
        begin_cycle / end_cycle: half-open stalled interval.
        cause: what exhausted the core (see CAUSE_* constants).
        miss_ids: LLC misses whose latency this stall covers; several
            ids here is the overlapped-miss case of Fig. 3b.
        refresh: True when any contributing miss was refresh-blocked.
        region: code region the stalled instruction belongs to.
    """

    stall_id: int
    begin_cycle: int
    end_cycle: int
    cause: str
    miss_ids: List[int] = field(default_factory=list)
    refresh: bool = False
    region: int = 0

    @property
    def duration(self) -> int:
        """Stall length in cycles."""
        return self.end_cycle - self.begin_cycle

    @property
    def is_memory(self) -> bool:
        """True when this stall is attributable to main-memory misses."""
        return self.cause in MEMORY_CAUSES


#: The miss and stall columns of a :class:`GroundTruth`, named as in
#: the truth file.  All are int64 but the two str and two bool columns.
MISS_COLUMNS = ("miss_kind", "miss_addr", "miss_detect", "miss_ready", "miss_stall",
                "miss_refresh", "miss_region")
STALL_COLUMNS = ("stall_begin", "stall_end", "stall_cause", "stall_refresh", "stall_region")
_DTYPES = {"miss_kind": str, "stall_cause": str, "miss_refresh": bool, "stall_refresh": bool}


class GroundTruth:
    """All ground-truth facts from one simulation run, as columns.

    The :data:`MISS_COLUMNS` hold one entry per LLC miss, in detection
    order; ``miss_stall`` is the first stall the miss contributed to,
    -1 when the core hid its whole latency (Fig. 3a).  The
    :data:`STALL_COLUMNS` hold one per stall, in time order; stall
    ``i``'s contributing miss ids are
    ``stall_misses[stall_offsets[i]:stall_offsets[i + 1]]`` (several:
    the overlapped misses of Fig. 3b).

    Every query reads the columns; treat them as immutable.
    :attr:`misses` and :attr:`stalls` are the same facts as
    :class:`MissRecord` / :class:`StallRecord` rows, whose ids are row
    positions, built on first read and kept.  The constructor takes
    record lists and stores their fields as given;
    :meth:`from_columns` adopts arrays.
    """

    def __init__(
        self,
        misses: Sequence[MissRecord] = (),
        stalls: Sequence[StallRecord] = (),
        total_cycles: int = 0,
        total_instructions: int = 0,
        region_names: Optional[Dict[int, str]] = None,
        region_cycles: Optional[Dict[int, int]] = None,
    ):
        self.total_cycles = total_cycles
        self.total_instructions = total_instructions
        self.region_names = {} if region_names is None else region_names
        self.region_cycles = {} if region_cycles is None else region_cycles
        rows = [(m.kind, m.addr, m.detect_cycle, m.ready_cycle,
                 -1 if m.stall_id is None else m.stall_id, m.refresh_blocked, m.region)
                for m in misses]
        columns = dict(zip(MISS_COLUMNS, zip(*rows) if rows else [()] * len(MISS_COLUMNS)))
        rows = [(s.begin_cycle, s.end_cycle, s.cause, s.refresh, s.region) for s in stalls]
        columns.update(zip(STALL_COLUMNS, zip(*rows) if rows else [()] * len(STALL_COLUMNS)))
        columns["stall_misses"] = [m for s in stalls for m in s.miss_ids]
        columns["stall_offsets"] = np.cumsum([0] + [len(s.miss_ids) for s in stalls])
        self._adopt(columns)

    @classmethod
    def from_columns(cls, columns: Mapping[str, np.ndarray], **totals) -> "GroundTruth":
        """A truth holding ``columns``: every column named in the class
        docstring.  ``totals`` are the constructor's other keywords."""
        truth = cls(**totals)
        truth._adopt(columns)
        return truth

    def _adopt(self, columns: Mapping[str, np.ndarray]) -> None:
        for name in (*MISS_COLUMNS, *STALL_COLUMNS, "stall_misses", "stall_offsets"):
            setattr(self, name, np.asarray(columns[name], dtype=_DTYPES.get(name, np.int64)))
        self._misses: Optional[List[MissRecord]] = None
        self._stalls: Optional[List[StallRecord]] = None

    # -- rows ----------------------------------------------------------------

    @property
    def misses(self) -> List[MissRecord]:
        """One :class:`MissRecord` per miss, built on first read."""
        if self._misses is None:
            self._misses = [
                MissRecord(i, kind, addr, detect, ready, None if stall < 0 else stall,
                           refresh, region)
                for i, (kind, addr, detect, ready, stall, refresh, region) in enumerate(
                    zip(*(getattr(self, name).tolist() for name in MISS_COLUMNS))
                )
            ]
        return self._misses

    @property
    def stalls(self) -> List[StallRecord]:
        """One :class:`StallRecord` per stall, built on first read."""
        if self._stalls is None:
            ids = self.stall_misses.tolist()
            at = self.stall_offsets.tolist()
            self._stalls = [
                StallRecord(i, begin, end, cause, ids[at[i]:at[i + 1]], refresh, region)
                for i, (begin, end, cause, refresh, region) in enumerate(
                    zip(*(getattr(self, name).tolist() for name in STALL_COLUMNS))
                )
            ]
        return self._stalls

    # -- miss-side queries ------------------------------------------------

    def miss_count(self) -> int:
        """Total LLC misses, stalling or not."""
        return len(self.miss_stall)

    def stalling_miss_count(self) -> int:
        """LLC misses that contributed to some stall."""
        return int(np.count_nonzero(self.miss_stall >= 0))

    def hidden_miss_count(self) -> int:
        """LLC misses fully hidden by useful work (Fig. 3a)."""
        return int(np.count_nonzero(self.miss_stall < 0))

    # -- stall-side queries -----------------------------------------------

    def memory_stall_mask(self) -> np.ndarray:
        """Bool per stall: attributable to main-memory misses."""
        return np.isin(self.stall_cause, sorted(MEMORY_CAUSES))

    def memory_stalls(self) -> List[StallRecord]:
        """Stalls attributable to main-memory misses, in time order."""
        stalls = self.stalls
        return [stalls[i] for i in np.flatnonzero(self.memory_stall_mask()).tolist()]

    def memory_stall_count(self) -> int:
        """Number of distinct memory-induced stalls.

        This is the quantity EMPROF's "miss count" should match: one
        stall per miss *group* (Section II-B's MISS terminology).
        """
        return int(np.count_nonzero(self.memory_stall_mask()))

    def memory_stall_cycles(self) -> int:
        """Total cycles the core spent stalled on memory misses."""
        return int(self.stall_durations().sum())

    def refresh_stall_count(self) -> int:
        """Memory stalls stretched by a DRAM refresh collision."""
        return int(np.count_nonzero(self.stall_refresh & self.memory_stall_mask()))

    def stall_fraction(self) -> float:
        """Memory-stall cycles as a fraction of total execution time."""
        if self.total_cycles == 0:
            return 0.0
        return self.memory_stall_cycles() / self.total_cycles

    def stall_intervals(self) -> np.ndarray:
        """(N, 2) array of [begin, end) cycles for memory stalls."""
        mask = self.memory_stall_mask()
        return np.stack((self.stall_begin[mask], self.stall_end[mask]), axis=1)

    def stall_durations(self) -> np.ndarray:
        """Durations (cycles) of memory stalls, in time order."""
        return (self.stall_end - self.stall_begin)[self.memory_stall_mask()]

    # -- attribution-side queries ------------------------------------------

    def misses_by_region(self) -> Dict[int, int]:
        """Miss count per code region."""
        return _sums_by_key(self.miss_region, 1)

    def stall_cycles_by_region(self) -> Dict[int, int]:
        """Memory-stall cycles per code region."""
        return _sums_by_key(
            self.stall_region[self.memory_stall_mask()], self.stall_durations()
        )

    def miss_rate_timeline(self, bin_cycles: int) -> Tuple[np.ndarray, np.ndarray]:
        """Miss count per ``bin_cycles`` window over the whole run.

        Returns (bin_start_cycles, counts) - the Fig. 13 boot-profile
        series is exactly this on the boot workload.
        """
        if bin_cycles <= 0:
            raise ValueError("bin width must be positive")
        nbins = max(1, -(-self.total_cycles // bin_cycles))
        bins = np.minimum(self.miss_detect // bin_cycles, nbins - 1)
        counts = np.bincount(bins, minlength=nbins)
        starts = np.arange(nbins, dtype=np.int64) * bin_cycles
        return starts, counts


def _sums_by_key(keys: np.ndarray, values) -> Dict[int, int]:
    """{key: sum of its ``values``}, keys in order of first appearance."""
    uniq, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    sums = np.zeros(len(uniq), dtype=np.int64)
    np.add.at(sums, inverse, values)
    order = np.argsort(first)
    return dict(zip(uniq[order].tolist(), sums[order].tolist()))
