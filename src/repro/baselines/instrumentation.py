"""On-device profiling instrumentation and its observer effect.

The paper's central claim is that EMPROF has *zero* observer effect:
it needs no interrupts, no instrumentation, no memory on the target
(Sections I and VII).  Counter-based profiling does: every sample is
an interrupt whose handler executes OS code and touches OS data,
polluting the caches the profiled program depends on - "increased
interrupt rate as well as binary software calls introduce overhead
and may distort the measurement" [11]-[13].

:class:`InstrumentedWorkload` makes that concrete: it wraps any
workload and injects a profiling-interrupt handler every
``period_instructions``, with a configurable code footprint and data
touch set.  Simulating the same program with and without the wrapper
measures exactly the two distortions the paper names:

* **overhead** - extra cycles spent in handlers,
* **measurement distortion** - the change in the *application's own*
  miss behaviour caused by handler cache pollution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator

import numpy as np

from ..sim.config import MachineConfig
from ..sim.isa import ALU, Block, LOAD, NO_CONSUMER, STORE, blocks, instruction_bytes
from ..sim.trace import GroundTruth
from ..workloads.base import Workload

_IB = instruction_bytes()

# Region id reserved for injected handler activity; far above anything
# workloads assign themselves.
INTERRUPT_REGION = 990

_HANDLER_PC = 0x7F00_0000
_HANDLER_DATA = 0x7E00_0000


@dataclass(frozen=True)
class InstrumentationConfig:
    """Profiling-interrupt model.

    Attributes:
        period_instructions: application instructions between
            interrupts (the sampling rate knob; smaller = finer
            attribution = more distortion).
        handler_instructions: dynamic length of one handler run
            (counter read, sample buffering, bookkeeping).
        handler_code_bytes: handler code footprint - evicts
            application lines from the I-cache.
        handler_data_lines: distinct data lines the handler touches
            per interrupt (sample buffer, task structs) - evicts
            application lines from the D-cache/LLC.
    """

    period_instructions: int = 10_000
    handler_instructions: int = 1_500
    handler_code_bytes: int = 4_096
    handler_data_lines: int = 32

    def __post_init__(self) -> None:
        if self.period_instructions <= 0:
            raise ValueError("sampling period must be positive")
        if self.handler_instructions <= 0:
            raise ValueError("handler length must be positive")
        if self.handler_code_bytes < _IB:
            raise ValueError("handler code footprint too small")
        if self.handler_data_lines < 0:
            raise ValueError("handler data lines cannot be negative")


class InstrumentedWorkload:
    """A workload with periodic profiling interrupts injected.

    The wrapped workload's stream is passed through unchanged except
    that after every ``period_instructions`` application instructions,
    one interrupt handler execution is inserted.  Handler data touches
    rotate through a buffer so repeated interrupts keep polluting
    fresh lines, as real sample buffers do.
    """

    def __init__(self, inner: Workload, config: InstrumentationConfig = None):
        self.inner = inner
        self.config = config if config is not None else InstrumentationConfig()
        self.name = f"{inner.name}+perf{self.config.period_instructions}"
        self.region_names: Dict[int, str] = dict(
            getattr(inner, "region_names", {}) or {}
        )
        self.region_names[INTERRUPT_REGION] = "profiler_interrupt"

    def _handler(self, invocation: int) -> Block:
        cfg = self.config
        code_instrs = cfg.handler_code_bytes // _IB
        data_base = _HANDLER_DATA + (
            (invocation * cfg.handler_data_lines) % 4096
        ) * 64
        n = cfg.handler_instructions
        j = np.arange(n)
        op = np.full(n, ALU)
        addr = np.zeros(n, dtype=np.int64)
        dep = np.full(n, NO_CONSUMER)
        weight = np.full(n, 0.12)
        # Interleave data touches through the handler body: every
        # ``step``-th instruction until the data lines are used up.
        step = max(1, n // max(1, cfg.handler_data_lines))
        touch = j[::step][: cfg.handler_data_lines]
        touched = np.arange(len(touch))
        is_store = touched % 2 == 1
        op[touch] = np.where(is_store, STORE, LOAD)
        addr[touch] = data_base + touched * 64
        dep[touch] = np.where(is_store, NO_CONSUMER, 4)
        weight[touch] = 0.15
        pc = _HANDLER_PC + (j % code_instrs) * _IB
        return Block(op, pc, addr, dep, weight, np.full(n, INTERRUPT_REGION))

    def instructions(self, config: MachineConfig) -> Iterator[Block]:
        """The wrapped stream with handlers injected."""
        period = self.config.period_instructions
        count = 0
        invocation = 0
        for block in blocks(self.inner.instructions(config)):
            at = 0
            while at < len(block):
                take = min(len(block) - at, period - count)
                yield block[at : at + take]
                at += take
                count += take
                if count >= period:
                    count = 0
                    yield self._handler(invocation)
                    invocation += 1


@dataclass(frozen=True)
class ObserverEffect:
    """Measured distortion of instrumented vs clean execution.

    Attributes:
        overhead_fraction: extra execution time / clean execution time.
        app_miss_delta: change in the application's own miss count
            (handler-region misses excluded) - nonzero means the
            profiler changed what it was measuring.
        handler_misses: misses caused by the handlers themselves.
        handler_cycles: cycles the target spent inside handlers.
    """

    overhead_fraction: float
    app_miss_delta: int
    handler_misses: int
    handler_cycles: int


def observer_effect(
    clean: GroundTruth, instrumented: GroundTruth
) -> ObserverEffect:
    """Quantify what the instrumentation did to the measured program."""
    if clean.total_cycles <= 0:
        raise ValueError("clean run has no execution time")
    app_misses_clean = int(np.count_nonzero(clean.miss_region != INTERRUPT_REGION))
    handler_misses = int(np.count_nonzero(instrumented.miss_region == INTERRUPT_REGION))
    app_misses_instr = instrumented.miss_count() - handler_misses
    handler_cycles = instrumented.region_cycles.get(INTERRUPT_REGION, 0)
    return ObserverEffect(
        overhead_fraction=(
            instrumented.total_cycles - clean.total_cycles
        )
        / clean.total_cycles,
        app_miss_delta=app_misses_instr - app_misses_clean,
        handler_misses=handler_misses,
        handler_cycles=handler_cycles,
    )
