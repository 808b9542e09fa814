"""Emulation of perf-style hardware-counter profiling (the baseline).

Section V motivates EMPROF by showing how unreliable on-device counter
profiling is for short runs on these devices: counting LLC misses with
``perf`` for a program engineered to produce exactly 1,024 misses
"reported ... an average of 32,768 and a standard deviation of
14,543".  Two effects drive this:

* the counter counts *system-wide per-CPU* events while the program
  shares the machine with the OS, other processes, interrupt handlers
  and the profiling machinery itself - bursty background activity that
  dwarfs a small engineered count;
* reading counters requires interrupts/syscalls whose own cache
  footprint perturbs the measurement (the observer effect EMPROF is
  free of), increasingly so at higher sampling rates.

:class:`PerfCounterModel` reproduces the first effect (the reported
count); :class:`PerfSampler` models the rate/overhead trade-off of
sampled attribution (Section I's granularity-vs-overhead discussion).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..sim.trace import GroundTruth


@dataclass(frozen=True)
class PerfCounterConfig:
    """Background-interference model behind a counter reading.

    Background activity arrives as bursts (scheduler ticks, daemons
    waking, RCU callbacks...): burst *count* over a run is Poisson
    with mean ``burst_rate_per_s * duration``, and each burst
    contributes a heavy-tailed Gamma-distributed number of extra LLC
    misses.  Defaults are calibrated so a ~2 ms run on the Olimex
    model reports mean ~32k / std ~14k extra misses, matching the
    paper's perf anecdote.
    """

    burst_rate_per_s: float = 3000.0
    burst_mean_misses: float = 5200.0
    burst_shape: float = 6.0
    base_rate_per_s: float = 120_000.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.burst_rate_per_s < 0 or self.base_rate_per_s < 0:
            raise ValueError("rates cannot be negative")
        if self.burst_mean_misses < 0:
            raise ValueError("burst size cannot be negative")
        if self.burst_shape <= 0:
            raise ValueError("gamma shape must be positive")


class PerfCounterModel:
    """What ``perf stat -e LLC-load-misses`` would report.

    The model takes the *true* miss count and the run duration and
    adds system interference; repeated calls draw independent runs.
    """

    def __init__(self, config: Optional[PerfCounterConfig] = None):
        self.config = config if config is not None else PerfCounterConfig()
        self._rng = np.random.default_rng(self.config.seed)

    def report(self, true_misses: int, duration_s: float) -> int:
        """One reported counter value for one program run."""
        if true_misses < 0 or duration_s < 0:
            raise ValueError("inputs cannot be negative")
        cfg = self.config
        n_bursts = self._rng.poisson(cfg.burst_rate_per_s * duration_s)
        burst = 0.0
        if n_bursts:
            scale = cfg.burst_mean_misses / cfg.burst_shape
            burst = float(
                self._rng.gamma(cfg.burst_shape, scale, size=n_bursts).sum()
            )
        base = self._rng.poisson(cfg.base_rate_per_s * duration_s)
        return int(true_misses + base + burst)

    def report_runs(
        self, true_misses: int, duration_s: float, runs: int
    ) -> np.ndarray:
        """Reported values for ``runs`` independent executions."""
        if runs <= 0:
            raise ValueError("runs must be positive")
        return np.array(
            [self.report(true_misses, duration_s) for _ in range(runs)],
            dtype=np.int64,
        )

    def report_for(self, truth: GroundTruth, clock_hz: float) -> int:
        """Convenience: report for a simulated run's ground truth."""
        return self.report(truth.miss_count(), truth.total_cycles / clock_hz)


@dataclass(frozen=True)
class SamplerResult:
    """Outcome of sampled counter profiling of one run.

    Attributes:
        misses_by_region: estimated miss attribution (region id ->
            estimated misses), reconstructed from samples.
        overhead_cycles: cycles the target spent in profiling
            interrupts (the observer effect).
        samples: number of sampling interrupts taken.
    """

    misses_by_region: Dict[int, float]
    overhead_cycles: int
    samples: int


class PerfSampler:
    """Threshold-sampled attribution (interrupt every T misses).

    Each interrupt attributes T misses to the region executing at that
    moment, and costs ``interrupt_cycles`` on the target - the
    granularity-vs-overhead trade-off of Section I: small T gives fine
    attribution but large overhead and perturbation; large T gives
    coarse, aliased attribution.
    """

    def __init__(self, threshold: int = 512, interrupt_cycles: int = 4_000):
        if threshold <= 0:
            raise ValueError("sampling threshold must be positive")
        if interrupt_cycles < 0:
            raise ValueError("interrupt cost cannot be negative")
        self.threshold = threshold
        self.interrupt_cycles = interrupt_cycles

    def profile(self, truth: GroundTruth) -> SamplerResult:
        """Sampled attribution of a simulated run's misses."""
        # The interrupt fires on every threshold-th miss.
        sampled = truth.miss_region[self.threshold - 1 :: self.threshold].tolist()
        misses: Dict[int, float] = {}
        for region in sampled:
            misses[region] = misses.get(region, 0.0) + self.threshold
        return SamplerResult(
            misses_by_region=misses,
            overhead_cycles=len(sampled) * self.interrupt_cycles,
            samples=len(sampled),
        )

    def attribution_error(self, truth: GroundTruth) -> float:
        """L1 distance between sampled and true per-region shares.

        0.0 is perfect attribution, 2.0 total disagreement - a scalar
        for the ablation bench sweeping the threshold.
        """
        result = self.profile(truth)
        true_counts = truth.misses_by_region()
        total_true = sum(true_counts.values())
        total_est = sum(result.misses_by_region.values())
        if total_true == 0:
            return 0.0
        if total_est == 0:
            return 2.0
        regions = set(true_counts) | set(result.misses_by_region)
        err = 0.0
        for region in regions:
            share_true = true_counts.get(region, 0) / total_true
            share_est = result.misses_by_region.get(region, 0.0) / total_est
            err += abs(share_true - share_est)
        return err
