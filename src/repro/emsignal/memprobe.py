"""Memory-side EM probe model (the dual-probe validation, Fig. 9/10).

Section V-D validates EMPROF by receiving the *memory chip's* EM
emanations simultaneously with the processor's and checking that each
processor-signal dip coincides with a burst of memory activity.  This
module synthesizes that memory-side signal from the ground truth:

* each LLC miss produces a burst over the interval during which DRAM is
  actually servicing it,
* periodic refresh produces its own bursts (unrelated to misses),
* background DMA produces occasional bursts at random times - this is
  why the paper notes the memory signal alone would be a *worse* miss
  detector than the processor signal (Section V-D): it is active for
  many reasons besides LLC misses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sim.config import MemoryConfig
from ..sim.trace import GroundTruth


@dataclass(frozen=True)
class MemProbeConfig:
    """Memory-probe synthesis parameters.

    Attributes:
        idle_level: quiescent memory-signal magnitude.
        burst_level: magnitude during an access or refresh burst.
        service_cycles: how long one line fetch keeps the DRAM busy.
        dma_rate_per_s: mean rate of background DMA bursts.
        dma_burst_cycles: duration of one DMA burst.
        seed: randomness for DMA burst placement.
    """

    idle_level: float = 0.08
    burst_level: float = 0.85
    service_cycles: int = 60
    dma_rate_per_s: float = 2000.0
    dma_burst_cycles: int = 400
    seed: int = 0

    def __post_init__(self) -> None:
        if self.idle_level < 0 or self.burst_level <= self.idle_level:
            raise ValueError("burst level must exceed a non-negative idle level")
        if self.service_cycles <= 0 or self.dma_burst_cycles <= 0:
            raise ValueError("burst durations must be positive")
        if self.dma_rate_per_s < 0:
            raise ValueError("DMA rate cannot be negative")


def memory_probe_signal(
    truth: GroundTruth,
    memory_config: MemoryConfig,
    clock_hz: float,
    bin_cycles: int = 20,
    config: MemProbeConfig = None,
) -> np.ndarray:
    """Synthesize the memory-side magnitude trace for one run.

    The output is sampled like the processor-side power trace (one
    sample per ``bin_cycles`` cycles) so the two can be overlaid
    sample-for-sample, as in Fig. 10.
    """
    cfg = config if config is not None else MemProbeConfig()
    if clock_hz <= 0 or bin_cycles <= 0:
        raise ValueError("clock and bin width must be positive")
    total_cycles = max(truth.total_cycles, 1)
    nbins = -(-total_cycles // bin_cycles)
    activity = np.zeros(nbins, dtype=np.float64)

    def mark(begin_cycle: float, end_cycle: float) -> None:
        lo = max(0, int(begin_cycle // bin_cycles))
        hi = min(nbins, int(np.ceil(end_cycle / bin_cycles)))
        if hi > lo:
            activity[lo:hi] = 1.0

    # Miss service bursts: DRAM is busy at the tail of each miss's
    # latency window (the front is controller/interconnect transit).
    # Every bin some burst covers is marked, as ``mark`` would.
    ready = truth.miss_ready
    lo = np.maximum(0, (ready - cfg.service_cycles) // bin_cycles)
    hi = np.minimum(nbins, np.ceil(ready / bin_cycles).astype(np.int64))
    edges = np.bincount(lo[hi > lo], minlength=nbins + 1)
    edges -= np.bincount(hi[hi > lo], minlength=nbins + 1)
    activity[np.cumsum(edges[:nbins]) > 0] = 1.0

    # Periodic refresh bursts.
    mem = memory_config
    if mem.refresh_enabled:
        start = mem.refresh_interval
        while start < total_cycles:
            mark(start, start + mem.refresh_duration)
            start += mem.refresh_interval

    # Background DMA, independent of program behaviour.
    rng = np.random.default_rng(cfg.seed)
    duration_s = total_cycles / clock_hz
    n_dma = rng.poisson(cfg.dma_rate_per_s * duration_s)
    for begin in rng.uniform(0, total_cycles, size=n_dma):
        mark(begin, begin + cfg.dma_burst_cycles)

    return cfg.idle_level + (cfg.burst_level - cfg.idle_level) * activity
