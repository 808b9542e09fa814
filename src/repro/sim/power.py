"""Activity accumulation into a windowed power trace.

The paper's modified SESC collects "the average power consumption for
each 20-cycle interval, which corresponds to a 50 MHz sampling rate for
a 1 GHz processor" (Section III-B).  :class:`PowerAccumulator` does the
same: per-cycle switching activity is folded into fixed-width bins, and
the finished trace is the side-channel signal EMPROF analyzes in the
simulator-validation experiments.

Stalled cycles contribute only the idle floor (clock tree + leakage);
busy cycles add front-end activity plus the per-instruction weights of
everything issued that cycle.  That asymmetry *is* the physical
phenomenon EMPROF exploits: "the processor's circuitry exhibits much
less switching activity when a processor has been stalled for a while"
(Section II-A).
"""

from __future__ import annotations

import numpy as np

from .config import PowerConfig


class PowerAccumulator:
    """Builds the binned power trace during simulation.

    Written for a single forward pass through time: activity is folded
    into a growing float64 bin array indexed by ``cycle // bin_cycles``.
    The pipeline deposits each instruction block with one
    :meth:`add_issues` call (split only around a :meth:`add_busy_span`);
    :meth:`add_issue` is the one-instruction form.  Both add to a bin in
    issue order (``np.add.at`` is unbuffered and applies its indices in
    sequence), so the trace is bit-identical to one ``+=`` per
    instruction.
    Single-bin updates go through a ``memoryview`` of the array, which
    reads and writes plain floats without creating NumPy scalars.
    """

    def __init__(self, config: PowerConfig):
        self.config = config
        self._bin_cycles = config.bin_cycles
        self._bins = np.zeros(4096, dtype=np.float64)
        self._cells = memoryview(self._bins)
        self._max_cycle = 0

    def _ensure(self, bin_index: int) -> None:
        size = len(self._bins)
        if bin_index >= size:
            grow = max(size, bin_index + 1 - size)
            self._bins = np.concatenate([self._bins, np.zeros(grow, dtype=np.float64)])
            self._cells = memoryview(self._bins)

    def add_issue(self, cycle: int, weight: float) -> None:
        """Record one instruction issued at ``cycle`` with ``weight``."""
        idx = cycle // self._bin_cycles
        if idx >= len(self._bins):
            self._ensure(idx)
        self._cells[idx] += weight
        if cycle >= self._max_cycle:
            self._max_cycle = cycle + 1

    def add_issues(self, cycles: np.ndarray, weights: np.ndarray) -> None:
        """Record instructions in issue order: ``weights[k]`` at ``cycles[k]``.

        ``cycles`` must be non-decreasing.
        """
        last = cycles.item(-1)
        if last // self._bin_cycles >= len(self._bins):
            self._ensure(last // self._bin_cycles)
        np.add.at(self._bins, cycles // self._bin_cycles, weights)
        if last >= self._max_cycle:
            self._max_cycle = last + 1

    def add_busy_span(self, begin: int, end: int, level: float) -> None:
        """Add ``level`` activity per cycle over cycles [begin, end).

        Used for drain periods where the core is finishing buffered
        work without a corresponding instruction record (e.g. the few
        cycles after an instruction-fetch miss before the full stall).
        """
        if end <= begin:
            return
        bc = self._bin_cycles
        first = begin // bc
        last = (end - 1) // bc
        self._ensure(last)
        cells = self._cells
        if first == last:
            cells[first] += (end - begin) * level
        else:
            cells[first] += (bc * (first + 1) - begin) * level
            self._bins[first + 1 : last] += bc * level
            cells[last] += (end - bc * last) * level
        if end > self._max_cycle:
            self._max_cycle = end

    def note_cycle(self, cycle: int) -> None:
        """Extend the trace to cover ``cycle`` without adding activity."""
        if cycle >= self._max_cycle:
            self._max_cycle = cycle + 1
            self._ensure(cycle // self._bin_cycles)

    def finalize(self, total_cycles: int) -> np.ndarray:
        """Return the finished power trace as per-bin average activity.

        A fully-stalled bin sits exactly at ``idle_level``; a saturated
        busy bin sits near ``idle_level + fetch_level + width * mean
        instruction weight``.  The result is a fresh C-contiguous
        float64 array.
        """
        if total_cycles < self._max_cycle:
            total_cycles = self._max_cycle
        nbins = max(1, -(-total_cycles // self._bin_cycles))
        self._ensure(nbins - 1)
        trace = self._bins[:nbins] / self._bin_cycles
        return trace + self.config.idle_level

    @property
    def bin_cycles(self) -> int:
        """Width of one power sample, in cycles."""
        return self._bin_cycles
