"""Frozen per-instruction simulator for differential testing.

These are verbatim (minus obs instrumentation) copies of the simulator
as it existed before the columnar block stream replaced it:

* :class:`ReferencePipeline` - the one-instruction-at-a-time core loop
* :class:`ReferencePowerAccumulator` - list-backed bins, one
  ``add_issue`` per instruction
* the per-:class:`Instr` generators: :func:`tight_loop`,
  :func:`compute_block`, the SPEC phase emitters
  (:func:`reference_spec_instructions`), the microbenchmark
  (:func:`reference_micro_instructions`), the profiling-interrupt
  wrapper (:func:`reference_instrumented_instructions`)
* :func:`reference_save_trace` / :class:`ReferenceTraceWorkload` - the
  trace writer and the tuple-building replay

:func:`reference_simulate` runs a reference stream through the frozen
core on a freshly built :class:`~repro.sim.machine.Machine`'s caches,
DRAM, prefetcher and TLB (those components are unchanged).
``tests/test_sim_equivalence.py`` asserts the production simulator is
bit-identical to this.  Do not "improve" this module: its value is
being the frozen per-instruction semantics.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Union

import numpy as np

from repro.baselines.instrumentation import (
    INTERRUPT_REGION,
    InstrumentedWorkload,
    _HANDLER_DATA,
    _HANDLER_PC,
)
from repro.sim.cache import L1, LLC, MEM
from repro.sim.config import MachineConfig, PowerConfig
from repro.sim.isa import (
    ALU,
    BRANCH,
    DEFAULT_WEIGHTS,
    Instr,
    LOAD,
    MUL,
    NO_CONSUMER,
    STORE,
    instruction_bytes,
)
from repro.sim.machine import Machine
from repro.sim.trace import (
    CAUSE_DATA_MEM,
    CAUSE_IFETCH_MEM,
    CAUSE_LLC_HIT,
    CAUSE_MSHR_FULL,
    CAUSE_RUNAHEAD,
    CAUSE_STOREBUF,
    DLOAD,
    DSTORE,
    GroundTruth,
    IFETCH,
    MissRecord,
    StallRecord,
)
from repro.workloads.microbenchmark import (
    Microbenchmark,
    REGION_ACCESSES,
    REGION_BLANK_END,
    REGION_BLANK_START,
    REGION_PAGE_TOUCH,
    _ARRAY_BASE,
    _PAGE_SIZE,
    _PC_ACCESS,
    _PC_BLANK_A,
    _PC_BLANK_B,
    _PC_MICRO_FN,
    _PC_PAGE_TOUCH,
)
from repro.workloads.spec import (
    CHASE,
    CODESWEEP,
    COMPUTE,
    HOTCOLD,
    KB,
    MB,
    Phase,
    RANDOM,
    STREAM,
)

_IB = instruction_bytes()
_TRACE_FORMAT = "emprof-trace-v1"

PathLike = Union[str, Path]


# ---------------------------------------------------------------------------
# Core and power model.
# ---------------------------------------------------------------------------


class ReferencePipeline:
    """In-order superscalar core bound to a cache hierarchy and DRAM."""

    def __init__(
        self,
        core: CoreConfig,
        power_config: PowerConfig,
        hierarchy: CacheHierarchy,
        memory: MainMemory,
        prefetcher: Optional[StridePrefetcher] = None,
        llc_hit_latency: int = 20,
        line_bytes: int = 64,
        tlb=None,
        tlb_walk_cycles: int = 0,
    ):
        self.core = core
        self.power_config = power_config
        self.hierarchy = hierarchy
        self.memory = memory
        self.prefetcher = prefetcher
        self.llc_hit_latency = llc_hit_latency
        self.tlb = tlb
        self.tlb_walk_cycles = tlb_walk_cycles
        self._line_shift = line_bytes.bit_length() - 1

    def run(
        self, instructions: Iterable[Instr], power
    ) -> GroundTruth:
        """Execute the stream, filling ``power`` and returning ground truth."""
        core = self.core
        width = core.width
        runahead = core.runahead
        # An out-of-order back end does not block at a load's first
        # consumer; only its reorder window (runahead, acting as the
        # ROB size) and MSHR pool bind (Section II-B).
        in_order = not core.out_of_order
        mshr_limit = core.mshr_entries
        store_limit = max(1, core.store_buffer)
        fetch_drain = max(1, core.fetch_buffer // width)
        llc_lat = self.llc_hit_latency
        # Front-end LLC-hit penalty visible past the fetch buffer.
        llc_front_pen = max(0, llc_lat - fetch_drain)
        line_shift = self._line_shift

        lookup_i = self.hierarchy.lookup_instruction
        lookup_d = self.hierarchy.lookup_data
        mem_access = self.memory.access
        prefetcher = self.prefetcher
        tlb = self.tlb
        tlb_walk = self.tlb_walk_cycles
        add_issue = power.add_issue
        add_busy_span = power.add_busy_span
        fetch_share = self.power_config.fetch_level / width
        # Activity level while draining buffered work after an I-miss:
        # the back end is still completing instructions, a bit below
        # full-rate switching.
        drain_level = self.power_config.fetch_level + 0.4

        cur = 0  # current cycle
        slot = 0  # instructions already issued this cycle
        cur_line = -1  # last instruction-cache line touched
        # Outstanding data accesses: [ready_cycle, consumer_idx,
        # issue_idx, miss_id]; miss_id is None for LLC hits.
        pending: list = []
        store_q: list = []  # [ready_cycle, miss_id] outstanding store misses
        misses: list = []
        stalls: list = []
        region_cycles: dict = {}
        cur_region = 0
        region_mark = 0
        count = 0

        for i, ins in enumerate(instructions):
            op, pc, addr, dep, weight, region = ins
            count += 1

            if region != cur_region:
                region_cycles[cur_region] = (
                    region_cycles.get(cur_region, 0) + cur - region_mark
                )
                cur_region = region
                region_mark = cur

            # ---- instruction fetch --------------------------------------
            line = pc >> line_shift
            if line != cur_line:
                cur_line = line
                level = lookup_i(pc)
                if level is not L1:
                    if level is LLC:
                        if llc_front_pen:
                            stalls.append(
                                StallRecord(
                                    len(stalls),
                                    cur,
                                    cur + llc_front_pen,
                                    CAUSE_LLC_HIT,
                                    [],
                                    False,
                                    region,
                                )
                            )
                            cur += llc_front_pen
                            slot = 0
                    else:  # MEM: instruction line comes from DRAM
                        if prefetcher is not None:
                            prefetcher.on_llc_miss(pc)
                        resp = mem_access(cur, pc)
                        mid = len(misses)
                        misses.append(
                            MissRecord(
                                mid,
                                IFETCH,
                                pc,
                                cur,
                                resp.ready_cycle,
                                None,
                                resp.refresh_blocked,
                                region,
                            )
                        )
                        begin = cur + fetch_drain
                        if resp.ready_cycle > begin:
                            add_busy_span(cur, begin, drain_level)
                            contrib = [mid]
                            refresh = resp.refresh_blocked
                            for e in pending:
                                e_mid = e[3]
                                if e_mid is not None and e[0] > begin:
                                    contrib.append(e_mid)
                                    if misses[e_mid].refresh_blocked:
                                        refresh = True
                            sid = len(stalls)
                            stalls.append(
                                StallRecord(
                                    sid,
                                    begin,
                                    resp.ready_cycle,
                                    CAUSE_IFETCH_MEM,
                                    contrib,
                                    refresh,
                                    region,
                                )
                            )
                            for m in contrib:
                                if misses[m].stall_id is None:
                                    misses[m].stall_id = sid
                            cur = resp.ready_cycle
                            slot = 0

            # ---- resolve data-side blocking ------------------------------
            if pending:
                # Drop completed accesses.
                j = 0
                for e in pending:
                    if e[0] > cur:
                        pending[j] = e
                        j += 1
                del pending[j:]
                while pending:
                    block_end = 0
                    block_is_mem = False
                    oldest_issue = -1
                    oldest_entry = None
                    for e in pending:
                        if e[3] is not None and (
                            oldest_entry is None or e[2] < oldest_issue
                        ):
                            oldest_issue = e[2]
                            oldest_entry = e
                        if in_order and e[1] <= i and e[0] > block_end:
                            block_end = e[0]
                            block_is_mem = e[3] is not None
                    cause = CAUSE_DATA_MEM if block_is_mem else CAUSE_LLC_HIT
                    if (
                        block_end == 0
                        and oldest_entry is not None
                        and i - oldest_issue >= runahead
                    ):
                        block_end = oldest_entry[0]
                        cause = CAUSE_RUNAHEAD
                    if block_end <= cur:
                        break
                    sid = len(stalls)
                    if cause is CAUSE_LLC_HIT:
                        contrib = []
                        refresh = False
                    else:
                        contrib = [e[3] for e in pending if e[3] is not None]
                        refresh = any(misses[m].refresh_blocked for m in contrib)
                    stalls.append(
                        StallRecord(sid, cur, block_end, cause, contrib, refresh, region)
                    )
                    for m in contrib:
                        if misses[m].stall_id is None:
                            misses[m].stall_id = sid
                    cur = block_end
                    slot = 0
                    j = 0
                    for e in pending:
                        if e[0] > cur:
                            pending[j] = e
                            j += 1
                    del pending[j:]

            # ---- issue ----------------------------------------------------
            add_issue(cur, weight + fetch_share)
            slot += 1
            if slot >= width:
                cur += 1
                slot = 0

            # ---- data access ----------------------------------------------
            if op == LOAD:
                # Address translation first: a data-TLB miss delays the
                # access by the hardware page-walk latency.
                walk = 0
                if tlb is not None and not tlb.access(addr):
                    walk = tlb_walk
                level = lookup_d(addr)
                if level is L1:
                    if walk:
                        pending.append([cur + walk, i + 1 + dep, i, None])
                elif level is LLC:
                    pending.append([cur + llc_lat + walk, i + 1 + dep, i, None])
                elif level is MEM:
                    if prefetcher is not None:
                        prefetcher.on_llc_miss(addr)
                    # MSHR pressure: block until an entry frees.  The
                    # issue step may have advanced past some entries'
                    # ready cycles, so drop completed ones first.
                    while True:
                        j = 0
                        for e in pending:
                            if e[0] > cur:
                                pending[j] = e
                                j += 1
                        del pending[j:]
                        mem_entries = [e for e in pending if e[3] is not None]
                        if len(mem_entries) < mshr_limit:
                            break
                        free_at = min(e[0] for e in mem_entries)
                        contrib = [e[3] for e in mem_entries]
                        refresh = any(misses[m].refresh_blocked for m in contrib)
                        sid = len(stalls)
                        stalls.append(
                            StallRecord(
                                sid, cur, free_at, CAUSE_MSHR_FULL, contrib, refresh, region
                            )
                        )
                        for m in contrib:
                            if misses[m].stall_id is None:
                                misses[m].stall_id = sid
                        cur = free_at
                        slot = 0
                        j = 0
                        for e in pending:
                            if e[0] > cur:
                                pending[j] = e
                                j += 1
                        del pending[j:]
                    resp = mem_access(cur + walk, addr)
                    mid = len(misses)
                    misses.append(
                        MissRecord(
                            mid,
                            DLOAD,
                            addr,
                            cur,
                            resp.ready_cycle,
                            None,
                            resp.refresh_blocked,
                            region,
                        )
                    )
                    pending.append([resp.ready_cycle, i + 1 + dep, i, mid])
            elif op == STORE:
                walk = 0
                if tlb is not None and not tlb.access(addr):
                    walk = tlb_walk
                level = lookup_d(addr)
                if level is MEM:
                    if prefetcher is not None:
                        prefetcher.on_llc_miss(addr)
                    k = 0
                    for s in store_q:
                        if s[0] > cur:
                            store_q[k] = s
                            k += 1
                    del store_q[k:]
                    if len(store_q) >= store_limit:
                        free_at = min(s[0] for s in store_q)
                        contrib = [s[1] for s in store_q if s[0] <= free_at]
                        refresh = any(misses[m].refresh_blocked for m in contrib)
                        sid = len(stalls)
                        stalls.append(
                            StallRecord(
                                sid, cur, free_at, CAUSE_STOREBUF, contrib, refresh, region
                            )
                        )
                        for m in contrib:
                            if misses[m].stall_id is None:
                                misses[m].stall_id = sid
                        cur = free_at
                        slot = 0
                        store_q = [s for s in store_q if s[0] > cur]
                    resp = mem_access(cur + walk, addr)
                    mid = len(misses)
                    misses.append(
                        MissRecord(
                            mid,
                            DSTORE,
                            addr,
                            cur,
                            resp.ready_cycle,
                            None,
                            resp.refresh_blocked,
                            region,
                        )
                    )
                    store_q.append([resp.ready_cycle, mid])

        total_cycles = cur + (1 if slot else 0)
        region_cycles[cur_region] = (
            region_cycles.get(cur_region, 0) + total_cycles - region_mark
        )
        if total_cycles > 0:
            power.note_cycle(total_cycles - 1)
        return GroundTruth(
            misses=misses,
            stalls=stalls,
            total_cycles=total_cycles,
            total_instructions=count,
            region_cycles=region_cycles,
        )


class ReferencePowerAccumulator:
    """Builds the binned power trace during simulation.

    Written for a single forward pass through time: activity is folded
    into a growing list of bins indexed by ``cycle // bin_cycles``.
    Plain Python lists are used in the hot path (the pipeline calls
    :meth:`add_issue` once per instruction); the result is converted to
    a numpy array once at :meth:`finalize`.
    """

    def __init__(self, config: PowerConfig):
        self.config = config
        self._bin_cycles = config.bin_cycles
        self._bins: list = [0.0] * 4096
        self._max_cycle = 0

    def _ensure(self, bin_index: int) -> None:
        if bin_index >= len(self._bins):
            grow = max(len(self._bins), bin_index + 1 - len(self._bins))
            self._bins.extend([0.0] * grow)

    def add_issue(self, cycle: int, weight: float) -> None:
        """Record one instruction issued at ``cycle`` with ``weight``."""
        idx = cycle // self._bin_cycles
        bins = self._bins
        if idx >= len(bins):
            self._ensure(idx)
        bins[idx] += weight
        if cycle >= self._max_cycle:
            self._max_cycle = cycle + 1

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
        bins = self._bins
        if first == last:
            bins[first] += (end - begin) * level
        else:
            bins[first] += (bc * (first + 1) - begin) * level
            full = bc * level
            for idx in range(first + 1, last):
                bins[idx] += full
            bins[last] += (end - bc * last) * level
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
        instruction weight``.
        """
        if total_cycles < self._max_cycle:
            total_cycles = self._max_cycle
        nbins = max(1, -(-total_cycles // self._bin_cycles))
        self._ensure(nbins - 1)
        trace = np.asarray(self._bins[:nbins], dtype=np.float64) / self._bin_cycles
        return trace + self.config.idle_level

    @property
    def bin_cycles(self) -> int:
        """Width of one power sample, in cycles."""
        return self._bin_cycles


# ---------------------------------------------------------------------------
# Per-instruction generators.
# ---------------------------------------------------------------------------


def tight_loop(
    pc: int,
    iterations: int,
    body_alu: int = 3,
    region: int = 0,
    weight: float = DEFAULT_WEIGHTS[ALU],
) -> Iterator[Instr]:
    """A marker loop: ``body_alu`` ALU ops + a backward branch.

    The PCs repeat every iteration, so after the first pass the loop
    runs entirely from the L1 I-cache with no memory traffic - the
    "very stable signal pattern that can be easily recognized" the
    microbenchmark uses to delimit its measurement window (Sec. V-B).
    """
    if iterations < 0 or body_alu < 0:
        raise ValueError("iterations and body size cannot be negative")
    body = [
        Instr(ALU, pc + k * _IB, 0, NO_CONSUMER, weight, region)
        for k in range(body_alu)
    ]
    body.append(Instr(BRANCH, pc + body_alu * _IB, 0, NO_CONSUMER, 0.10, region))
    for _ in range(iterations):
        yield from body


def compute_block(
    pc: int,
    count: int,
    region: int = 0,
    mul_every: int = 5,
    pattern_period: int = 0,
    pattern_depth: float = 0.0,
) -> Iterator[Instr]:
    """Straight-line compute: ALU ops with MULs sprinkled in.

    ``pattern_period``/``pattern_depth`` superimpose a periodic weight
    modulation, giving the block a spectral line at
    ``issue_rate / pattern_period`` that attribution can key on.
    """
    if count < 0:
        raise ValueError("count cannot be negative")
    base_alu = DEFAULT_WEIGHTS[ALU]
    for k in range(count):
        # 1 KB code footprint: the block is an I-cache-resident loop,
        # not a straight-line sweep through cold code.
        addr_pc = pc + (k % 256) * _IB
        if mul_every and k % mul_every == mul_every - 1:
            op, w = MUL, DEFAULT_WEIGHTS[MUL]
        else:
            op, w = ALU, base_alu
        if pattern_period:
            w += pattern_depth * np.sin(2 * np.pi * (k % pattern_period) / pattern_period)
            w = max(0.02, float(w))
        yield Instr(op, addr_pc, 0, NO_CONSUMER, w, region)


def reference_spec_instructions(self, config: MachineConfig) -> Iterator[Instr]:
    """Yield the full phase sequence."""
    rng = np.random.default_rng(self.seed)
    data_base = 0x2000_0000
    pc_base = 0x0001_0000
    for phase in self.phases:
        rid = self._region_ids[phase.region]
        pc = pc_base
        pc_base += max(64 * KB, phase.footprint + 64 * KB)
        yield from _ref_emit(self, phase, rid, data_base, pc, rng, config)
        data_base += self._phase_span(phase) + MB


def _ref_phase_span(phase: Phase) -> int:
    """Bytes of address space a phase occupies."""
    return max(
        phase.bytes_total,
        phase.working_set,
        phase.hot_bytes + phase.cold_bytes,
        64 * KB,
    )


def _ref_emit(
    self,
    phase: Phase,
    rid: int,
    base: int,
    pc: int,
    rng: np.random.Generator,
    config: MachineConfig,
) -> Iterator[Instr]:
    line = config.line_bytes
    if phase.kind == COMPUTE:
        yield from _compute(pc, phase.n_instructions, rid)
    elif phase.kind == STREAM:
        yield from _stream(phase, rid, base, pc, rng)
    elif phase.kind == RANDOM:
        yield from _random(phase, rid, base, pc, rng, line)
    elif phase.kind == HOTCOLD:
        yield from _hotcold(phase, rid, base, pc, rng, line)
    elif phase.kind == CHASE:
        yield from _chase(phase, rid, base, pc, rng, line)
    elif phase.kind == CODESWEEP:
        yield from _codesweep(phase, rid, pc)


def _compute(pc: int, count: int, rid: int) -> Iterator[Instr]:
    for k in range(count):
        if k % 6 == 5:
            yield Instr(MUL, pc + (k % 128) * _IB, 0, NO_CONSUMER, 0.20, rid)
        else:
            yield Instr(ALU, pc + (k % 128) * _IB, 0, NO_CONSUMER, 0.12, rid)

def _access_loop_body(
    pc: int, wpa: int, rid: int
) -> List[Instr]:
    """Cached loop body (work instructions) reused for every access.

    PCs wrap every 128 instructions: the work is an inner loop over a
    512-byte code footprint, so it stays I-cache resident instead of
    sweeping ``wpa * 4`` bytes of cold code on every phase start.
    """
    body = []
    for j in range(wpa):
        if j % 5 == 4:
            body.append(Instr(MUL, pc + (j % 128) * _IB, 0, NO_CONSUMER, 0.20, rid))
        else:
            body.append(Instr(ALU, pc + (j % 128) * _IB, 0, NO_CONSUMER, 0.12, rid))
    return body

def _emit_accesses(
    addrs: np.ndarray,
    stores: Optional[np.ndarray],
    pc: int,
    wpa: int,
    dep: int,
    rid: int,
) -> Iterator[Instr]:
    """Common loop: work body + one memory access + loop branch."""
    body = _access_loop_body(pc, wpa, rid)
    # The access and loop branch sit just past the (wrapped) body
    # footprint, keeping the whole loop inside ~520 bytes of code.
    mem_pc = pc + 128 * _IB
    br_pc = pc + 129 * _IB
    branch = Instr(BRANCH, br_pc, 0, NO_CONSUMER, 0.10, rid)
    for k in range(len(addrs)):
        yield from body
        addr = int(addrs[k])
        if stores is not None and stores[k]:
            yield Instr(STORE, mem_pc, addr, NO_CONSUMER, 0.15, rid)
        else:
            yield Instr(LOAD, mem_pc, addr, dep, 0.16, rid)
        yield branch

def _stream(
    phase: Phase, rid: int, base: int, pc: int, rng: np.random.Generator
) -> Iterator[Instr]:
    n = max(1, phase.bytes_total // max(phase.stride, 1))
    offsets = np.arange(n, dtype=np.int64) * phase.stride
    if phase.shuffle:
        # Shuffled once: reuse across passes is preserved but the
        # access order defeats stride prefetching.
        offsets = rng.permutation(offsets)
    addrs = np.tile(base + offsets, max(1, phase.passes))
    stores = (
        rng.random(len(addrs)) < phase.store_ratio if phase.store_ratio else None
    )
    yield from _emit_accesses(addrs, stores, pc, phase.work_per_access, phase.dep, rid)

def _random(
    phase: Phase, rid: int, base: int, pc: int, rng: np.random.Generator, line: int
) -> Iterator[Instr]:
    n_lines = max(1, phase.working_set // line)
    addrs = base + rng.integers(0, n_lines, size=phase.accesses) * line
    stores = (
        rng.random(phase.accesses) < phase.store_ratio if phase.store_ratio else None
    )
    yield from _emit_accesses(addrs, stores, pc, phase.work_per_access, phase.dep, rid)

def _hotcold(
    phase: Phase, rid: int, base: int, pc: int, rng: np.random.Generator, line: int
) -> Iterator[Instr]:
    hot_lines = max(1, phase.hot_bytes // line)
    cold_lines = max(1, phase.cold_bytes // line)
    cold_base = base + hot_lines * line
    is_cold = rng.random(phase.accesses) < phase.cold_fraction
    hot = base + rng.integers(0, hot_lines, size=phase.accesses) * line
    cold = cold_base + rng.integers(0, cold_lines, size=phase.accesses) * line
    addrs = np.where(is_cold, cold, hot)
    stores = (
        rng.random(phase.accesses) < phase.store_ratio if phase.store_ratio else None
    )
    yield from _emit_accesses(addrs, stores, pc, phase.work_per_access, phase.dep, rid)

def _chase(
    phase: Phase, rid: int, base: int, pc: int, rng: np.random.Generator, line: int
) -> Iterator[Instr]:
    n_lines = max(2, phase.working_set // line)
    order = rng.permutation(n_lines)
    wpa = phase.work_per_access
    body = _access_loop_body(pc + _IB, wpa, rid)
    branch = Instr(BRANCH, pc + (1 + wpa) * _IB, 0, NO_CONSUMER, 0.10, rid)
    for k in range(phase.accesses):
        addr = base + int(order[k % n_lines]) * line
        # dep=0: the pointer is needed immediately - no MLP.
        yield Instr(LOAD, pc, addr, 0, 0.16, rid)
        yield from body
        yield branch

def _codesweep(phase: Phase, rid: int, pc: int) -> Iterator[Instr]:
    count = max(1, phase.footprint // _IB)
    for _ in range(max(1, phase.passes)):
        for k in range(count):
            yield Instr(ALU, pc + k * _IB, 0, NO_CONSUMER, 0.12, rid)


def reference_micro_instructions(self, config: MachineConfig) -> Iterator[Instr]:
    """Yield the full microbenchmark instruction stream."""
    line_bytes = config.line_bytes
    targets = self._target_addresses(line_bytes)
    gap = self.gap_instructions

    # 1. Page touch: load line 0 of every page, sequentially.
    for p in range(self.total_misses):
        addr = _ARRAY_BASE + p * _PAGE_SIZE
        yield Instr(ALU, _PC_PAGE_TOUCH, 0, NO_CONSUMER, 0.12, REGION_PAGE_TOUCH)
        yield Instr(
            LOAD, _PC_PAGE_TOUCH + _IB, addr, NO_CONSUMER, 0.16, REGION_PAGE_TOUCH
        )
        yield Instr(
            BRANCH, _PC_PAGE_TOUCH + 2 * _IB, 0, NO_CONSUMER, 0.10, REGION_PAGE_TOUCH
        )

    # 2. Start marker.
    yield from tight_loop(
        _PC_BLANK_A, self.blank_iterations, body_alu=3, region=REGION_BLANK_START
    )

    # 3. Access section: TM loads in groups of CM.
    for k in range(self.total_misses):
        # Address generation: the rand()+mul+add work between
        # loads.  MULs every few ops keep the busy level high so
        # the inter-miss gap is visible in the signal.
        # PCs wrap every 128 instructions: the address-generation
        # work is a small loop (rand() + arithmetic), not a cold
        # straight-line code sweep.
        for j in range(gap):
            op = MUL if j % 6 == 5 else ALU
            w = 0.20 if op == MUL else 0.12
            yield Instr(
                op, _PC_ACCESS + (j % 128) * _IB, 0, NO_CONSUMER, w, REGION_ACCESSES
            )
        # The engineered miss; its value feeds a checksum two
        # instructions later (dep=2).
        yield Instr(
            LOAD,
            _PC_ACCESS + gap * _IB,
            int(targets[k]),
            2,
            0.16,
            REGION_ACCESSES,
        )
        yield Instr(
            ALU, _PC_ACCESS + (gap + 1) * _IB, 0, NO_CONSUMER, 0.12, REGION_ACCESSES
        )
        yield Instr(
            ALU, _PC_ACCESS + (gap + 2) * _IB, 0, NO_CONSUMER, 0.12, REGION_ACCESSES
        )
        yield Instr(
            BRANCH, _PC_ACCESS + (gap + 3) * _IB, 0, NO_CONSUMER, 0.10, REGION_ACCESSES
        )
        # Micro function call after every CM misses.
        if (k + 1) % self.consecutive_misses == 0:
            yield from compute_block(
                _PC_MICRO_FN,
                self.micro_fn_instructions,
                region=REGION_ACCESSES,
                mul_every=7,
            )

    # 4. End marker.
    yield from tight_loop(
        _PC_BLANK_B, self.blank_iterations, body_alu=3, region=REGION_BLANK_END
    )


def _ref_handler(self, invocation: int) -> Iterator[Instr]:
    cfg = self.config
    code_instrs = cfg.handler_code_bytes // _IB
    data_base = _HANDLER_DATA + (
        (invocation * cfg.handler_data_lines) % 4096
    ) * 64
    touched = 0
    for j in range(cfg.handler_instructions):
        pc = _HANDLER_PC + (j % code_instrs) * _IB
        # Interleave data touches through the handler body.
        if touched < cfg.handler_data_lines and j % max(
            1, cfg.handler_instructions // max(1, cfg.handler_data_lines)
        ) == 0:
            addr = data_base + touched * 64
            op = STORE if touched % 2 else LOAD
            dep = NO_CONSUMER if op == STORE else 4
            yield Instr(op, pc, addr, dep, 0.15, INTERRUPT_REGION)
            touched += 1
        else:
            yield Instr(ALU, pc, 0, NO_CONSUMER, 0.12, INTERRUPT_REGION)


def reference_instrumented_instructions(self, config: MachineConfig) -> Iterator[Instr]:
    """The wrapped stream with handlers injected."""
    cfg = self.config
    count = 0
    invocation = 0
    for ins in reference_instructions(self.inner, config):
        yield ins
        count += 1
        if count >= cfg.period_instructions:
            count = 0
            yield from _ref_handler(self, invocation)
            invocation += 1


# ---------------------------------------------------------------------------
# Trace files.
# ---------------------------------------------------------------------------


def reference_save_trace(
    path: PathLike,
    instructions: Iterable[Instr],
    region_names: Optional[Dict[int, str]] = None,
    name: str = "trace",
) -> int:
    """Record an instruction stream to ``path``; returns the count."""
    ops, pcs, addrs, deps, weights, regions = [], [], [], [], [], []
    for ins in instructions:
        ops.append(ins.op)
        pcs.append(ins.pc)
        addrs.append(ins.addr)
        deps.append(ins.dep)
        weights.append(ins.weight)
        regions.append(ins.region)
    np.savez_compressed(
        path,
        format=_TRACE_FORMAT,
        name=name,
        op=np.asarray(ops, dtype=np.int8),
        pc=np.asarray(pcs, dtype=np.int64),
        addr=np.asarray(addrs, dtype=np.int64),
        dep=np.asarray(deps, dtype=np.int64),
        weight=np.asarray(weights, dtype=np.float64),
        region=np.asarray(regions, dtype=np.int32),
        region_names=json.dumps({str(k): v for k, v in (region_names or {}).items()}),
    )
    return len(ops)


class ReferenceTraceWorkload:
    """Replay a recorded trace through the simulator.

    The trace is loaded once into columnar numpy arrays;
    :meth:`instructions` materializes :class:`Instr` tuples lazily, so
    replay costs the same as generating the original stream.
    """

    def __init__(self, path: PathLike):
        with np.load(path, allow_pickle=False) as data:
            fmt = str(data["format"])
            if fmt != _TRACE_FORMAT:
                raise ValueError(f"not an EMPROF trace file (format={fmt!r})")
            self.name = str(data["name"])
            self._op = np.asarray(data["op"], dtype=np.int64)
            self._pc = np.asarray(data["pc"], dtype=np.int64)
            self._addr = np.asarray(data["addr"], dtype=np.int64)
            self._dep = np.asarray(data["dep"], dtype=np.int64)
            self._weight = np.asarray(data["weight"], dtype=np.float64)
            self._region = np.asarray(data["region"], dtype=np.int64)
            self.region_names: Dict[int, str] = {
                int(k): v for k, v in json.loads(str(data["region_names"])).items()
            }

    def __len__(self) -> int:
        return len(self._op)

    def instructions(self, config: MachineConfig) -> Iterator[Instr]:
        """Replay the recorded stream (``config`` is ignored: the trace
        is already concrete)."""
        op = self._op.tolist()
        pc = self._pc.tolist()
        addr = self._addr.tolist()
        dep = self._dep.tolist()
        weight = self._weight.tolist()
        region = self._region.tolist()
        for i in range(len(op)):
            yield Instr(op[i], pc[i], addr[i], dep[i], weight[i], region[i])


# ---------------------------------------------------------------------------
# Drivers.
# ---------------------------------------------------------------------------


def reference_instructions(workload, config: MachineConfig) -> Iterator[Instr]:
    """The per-:class:`Instr` stream the seed generators gave ``workload``.

    SPEC models, boot and random programs all run on a ``SpecWorkload``
    (directly or as ``_inner``); anything else with ``instructions``
    (``StreamWorkload``) already yields tuples.  Plain iterables pass
    through.
    """
    if isinstance(workload, Microbenchmark):
        return reference_micro_instructions(workload, config)
    if isinstance(workload, InstrumentedWorkload):
        return reference_instrumented_instructions(workload, config)
    if isinstance(workload, ReferenceTraceWorkload):
        return workload.instructions(config)
    inner = getattr(workload, "_inner", workload)
    if hasattr(inner, "phases") and hasattr(inner, "_region_ids"):
        return reference_spec_instructions(inner, config)
    if hasattr(workload, "instructions"):
        return iter(workload.instructions(config))
    return iter(workload)


def reference_simulate(workload, config: MachineConfig, seed: int = 0):
    """Run ``workload`` through the frozen core; returns ``(machine, trace, truth)``.

    ``machine`` is a fresh :class:`Machine` whose caches, DRAM,
    prefetcher and TLB carried the run, so their counters can be
    compared with a production run's.
    """
    machine = Machine(config, seed=seed)
    pipeline = ReferencePipeline(
        config.core,
        config.power,
        machine.hierarchy,
        machine.memory,
        machine.prefetcher,
        llc_hit_latency=config.llc.hit_latency,
        line_bytes=config.line_bytes,
        tlb=machine.tlb,
        tlb_walk_cycles=config.tlb_walk_cycles,
    )
    power = ReferencePowerAccumulator(config.power)
    truth = pipeline.run(reference_instructions(workload, config), power)
    truth.region_names = dict(getattr(workload, "region_names", {}) or {})
    return machine, power.finalize(truth.total_cycles), truth
