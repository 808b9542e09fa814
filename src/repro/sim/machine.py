"""Machine assembly: config -> caches + DRAM + core, and the run loop.

:class:`Machine` is the top-level simulator object.  Given a workload
(anything exposing ``instructions(config)``, yielding
:class:`~repro.sim.isa.Block` s or :class:`~repro.sim.isa.Instr` s), it
returns a :class:`SimulationResult` holding the power side-channel
trace and the ground-truth miss/stall records - the two artifacts the
EMPROF validation methodology needs (Section V-C).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, Optional, Union

import numpy as np

from ..obs import trace as _trace
from .cache import CacheHierarchy
from .config import MachineConfig
from .dram import MainMemory
from .isa import Block, Instr
from .pipeline import Pipeline
from .power import PowerAccumulator
from .prefetcher import StridePrefetcher
from .tlb import Tlb
from .trace import GroundTruth

if TYPE_CHECKING:
    # Annotations only: workloads.base imports sim.config, whose package
    # imports this module, so a runtime import here is circular.
    from ..workloads.base import Workload


@dataclass
class SimulationResult:
    """Everything a run produces.

    Attributes:
        power_trace: per-bin average activity (the side-channel signal
            before the EM channel model is applied).
        sample_rate_hz: sampling rate of ``power_trace``.
        ground_truth: the miss and stall columns (cycle-level truth).
        config: the machine configuration used.
        stats: cache/memory counters for sanity checks.
    """

    power_trace: np.ndarray
    sample_rate_hz: float
    ground_truth: GroundTruth
    config: MachineConfig
    stats: Dict[str, float]

    @property
    def duration_seconds(self) -> float:
        """Simulated wall-clock duration."""
        return self.ground_truth.total_cycles / self.config.clock_hz

    @property
    def sample_period_cycles(self) -> int:
        """Processor cycles represented by one power sample."""
        return self.config.power.bin_cycles


def _count_run(result, _elapsed_s, _attrs):
    truth = result.ground_truth
    return {
        "cycles": truth.total_cycles,
        "instructions": truth.total_instructions,
        "power_samples": len(result.power_trace),
    }


class Machine:
    """A configured device: core + caches + DRAM + power accounting."""

    def __init__(self, config: MachineConfig, seed: int = 0):
        self.config = config
        self._seed = seed
        rng = np.random.default_rng(seed)
        self.hierarchy = CacheHierarchy(config.l1i, config.l1d, config.llc, rng)
        self.memory = MainMemory(
            config.memory,
            config.line_bytes,
            rng=np.random.default_rng(rng.integers(0, 2**63)),
        )
        self.prefetcher: Optional[StridePrefetcher] = None
        if config.prefetcher_enabled:
            self.prefetcher = StridePrefetcher(
                self.hierarchy.llc, config.prefetch_degree
            )
        self.tlb: Optional[Tlb] = None
        if config.tlb_enabled:
            self.tlb = Tlb(config.tlb_entries, config.tlb_page_bytes)
        self.pipeline = Pipeline(
            config.core,
            config.power,
            self.hierarchy,
            self.memory,
            self.prefetcher,
            llc_hit_latency=config.llc.hit_latency,
            line_bytes=config.line_bytes,
            tlb=self.tlb,
            tlb_walk_cycles=config.tlb_walk_cycles,
        )

    @_trace.instrumented(
        "sim.run",
        attrs=lambda self, workload: {
            "workload": getattr(workload, "name", type(workload).__name__)
        },
        on_exit=_count_run,
    )
    def run(
        self, workload: Union[Workload, Iterable[Union[Block, Instr]]]
    ) -> SimulationResult:
        """Execute ``workload`` from cold caches and collect results."""
        region_names: Dict[int, str] = {}
        if hasattr(workload, "instructions"):
            stream = workload.instructions(self.config)
            region_names = dict(getattr(workload, "region_names", {}) or {})
        else:
            stream = iter(workload)

        power = PowerAccumulator(self.config.power)
        truth = self.pipeline.run(stream, power)
        truth.region_names = region_names
        trace = power.finalize(truth.total_cycles)

        return SimulationResult(
            power_trace=trace,
            sample_rate_hz=self.config.sample_rate_hz,
            ground_truth=truth,
            config=self.config,
            stats=self.stats(),
        )

    def stats(self) -> Dict[str, float]:
        """This machine's cache, memory, prefetcher and TLB counters."""
        llc = self.hierarchy.llc
        return {
            "l1i_misses": float(self.hierarchy.l1i.misses),
            "l1d_misses": float(self.hierarchy.l1d.misses),
            "llc_misses": float(llc.misses),
            "llc_accesses": float(llc.accesses),
            "llc_miss_rate": llc.miss_rate(),
            "memory_accesses": float(self.memory.accesses),
            "refresh_blocked": float(self.memory.refresh_hits),
            "contention_hits": float(self.memory.contention_hits),
            "prefetches": float(self.prefetcher.issued) if self.prefetcher else 0.0,
            "tlb_misses": float(self.tlb.misses) if self.tlb else 0.0,
        }

    def reset(self) -> None:
        """Cold-restart caches and memory for an independent run."""
        self.hierarchy.flush()
        self.memory.reset()
        if self.prefetcher is not None:
            self.prefetcher.reset()
        if self.tlb is not None:
            self.tlb.flush()


def simulate(
    workload: Union[Workload, Iterable[Union[Block, Instr]]],
    config: Optional[MachineConfig] = None,
    seed: int = 0,
) -> SimulationResult:
    """One-shot convenience: build a Machine, run, return the result."""
    machine = Machine(config if config is not None else MachineConfig(), seed=seed)
    return machine.run(workload)
