"""Main-memory (DRAM) timing with banks and periodic refresh.

The paper found that the simulator's simplified memory model missed a
real-device behaviour: an LLC miss that lands during a DRAM refresh is
blocked, stretching its stall to 2-3 us, and such collisions recur at
least every ~70 us on the Olimex board's H5TQ2G63BFR SDRAM (Fig. 5).
This model therefore makes refresh a first-class timing feature, with a
flag to disable it to recover the paper's plain-SESC behaviour.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

import numpy as np

from .config import MemoryConfig


class MemoryResponse(NamedTuple):
    """Outcome of a main-memory access.

    Attributes:
        ready_cycle: cycle at which the requested line is available.
        latency: ``ready_cycle`` minus the request cycle.
        refresh_blocked: True when the request had to wait for a
            refresh window to finish (the Fig. 5 situation).
        bank: DRAM bank that serviced the request.
    """

    ready_cycle: int
    latency: int
    refresh_blocked: bool
    bank: int


class MainMemory:
    """Fixed-latency DRAM with per-bank busy time and burst refresh.

    The model is deliberately simple - a constant device latency plus
    bank serialization - because EMPROF only observes the *duration* of
    the resulting processor stall; what must be faithful is the latency
    distribution (a main mode around ``access_latency`` plus a refresh
    tail), not DDR protocol details.
    """

    def __init__(
        self,
        config: MemoryConfig,
        line_bytes: int = 64,
        rng: Optional[np.random.Generator] = None,
    ):
        self.config = config
        self._line_shift = line_bytes.bit_length() - 1
        self._bank_mask = config.num_banks - 1
        self._bank_free: List[int] = [0] * config.num_banks
        self._refresh_interval = config.refresh_interval
        self._refresh_duration = config.refresh_duration
        self._jitter_span = max(1, config.refresh_interval // 8)
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._contended = config.contention_prob > 0.0
        self._row_shift = (
            config.row_bytes.bit_length() - 1 if config.row_buffer_enabled else 0
        )
        self._open_rows: List[int] = [-1] * config.num_banks
        self.accesses = 0
        self.refresh_hits = 0
        self.contention_hits = 0
        self.row_hits = 0
        self.busy_segments: List[tuple] = []

    def _window_start(self, k: int) -> int:
        """First cycle of the k-th refresh window.

        The memory controller schedules refresh opportunistically, so
        successive windows do not start at exact multiples of the
        interval: each gets a deterministic offset (Knuth hash) below
        an eighth of the interval.  Without this jitter, a periodic
        workload phase-locks to refresh and every collision sees the
        same wait.
        """
        return k * self._refresh_interval + ((k * 2654435761) >> 13) % self._jitter_span

    def refresh_window(self, k: int) -> tuple:
        """[start, end) cycles of the k-th refresh window (k >= 1)."""
        start = self._window_start(k)
        return start, start + self._refresh_duration

    def _refresh_wait(self, cycle: int) -> int:
        """Cycles until memory leaves the refresh window at ``cycle``.

        Refresh occupies one jittered window per ``refresh_interval``;
        requests inside the window wait for its end.  Window k starts
        in ``[k * interval, (k + 1) * interval)`` and ends before window
        k + 1 ends.  So a cycle at or after the start of window
        ``cycle // interval`` can only be in that window, and a cycle
        before that start only in the window before it (which may run
        past the interval boundary).
        """
        interval = self._refresh_interval
        if cycle < interval or not self.config.refresh_enabled:
            return 0
        k = cycle // interval
        start = self._window_start(k)
        if cycle < start:
            if k == 1:
                return 0
            start = self._window_start(k - 1)
        end = start + self._refresh_duration
        return end - cycle if cycle < end else 0

    def access(self, cycle: int, addr: int) -> MemoryResponse:
        """Service a line fetch issued at ``cycle`` for ``addr``."""
        if cycle < 0:
            raise ValueError("access cycle cannot be negative")
        self.accesses += 1
        cfg = self.config
        bank = (addr >> self._line_shift) & self._bank_mask

        start = cycle + self._refresh_wait(cycle)
        blocked = start > cycle
        # Bank serialization: a bank busy with a previous access delays
        # this one, creating MLP-limited latency growth for bursts.
        start = max(start, self._bank_free[bank])
        # The request could also drift *into* a refresh window while
        # queued behind its bank (or, where windows overlap, wait out
        # one window into the next).
        if start > cycle:
            wait = self._refresh_wait(start)
            if wait:
                blocked = True
                start += wait
        if blocked:
            self.refresh_hits += 1

        # Contention from other masters (cores, DMA): an occasional
        # exponentially-distributed extra queueing delay.
        if self._contended and self._rng.random() < cfg.contention_prob:
            self.contention_hits += 1
            start += int(self._rng.exponential(cfg.contention_mean_cycles))

        # Open-page policy: hitting the bank's open row skips the
        # precharge+activate cost.
        latency = cfg.access_latency
        if cfg.row_buffer_enabled:
            row = addr >> self._row_shift
            if self._open_rows[bank] == row:
                latency = cfg.row_hit_latency
                self.row_hits += 1
            self._open_rows[bank] = row

        ready = start + latency
        self._bank_free[bank] = start + cfg.bank_busy
        self.busy_segments.append((start, ready))
        return MemoryResponse(ready, ready - cycle, blocked, bank)

    def next_refresh(self, cycle: int) -> int:
        """First cycle >= ``cycle`` at which a refresh window starts."""
        if not self.config.refresh_enabled:
            raise RuntimeError("refresh is disabled in this configuration")
        k = max(1, cycle // self._refresh_interval)
        while True:
            start = self._window_start(k)
            if start >= cycle:
                return start
            k += 1

    def reset(self) -> None:
        """Clear bank state and statistics."""
        self._bank_free = [0] * self.config.num_banks
        self._open_rows = [-1] * self.config.num_banks
        self.accesses = 0
        self.refresh_hits = 0
        self.contention_hits = 0
        self.row_hits = 0
        self.busy_segments.clear()
