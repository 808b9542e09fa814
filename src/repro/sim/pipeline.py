"""Cycle-level 4-wide in-order core with full stall ground truth.

This is the timing heart of the substrate.  It executes an instruction
stream (see :mod:`repro.sim.isa`) against the cache hierarchy and DRAM
model and produces two artifacts, mirroring the paper's modified SESC
(Section V-C):

* a binned power trace (via :class:`repro.sim.power.PowerAccumulator`),
* a :class:`repro.sim.trace.GroundTruth` with every LLC miss (detect
  cycle, memory-ready cycle) and every fully-stalled interval (begin,
  end, cause, contributing misses).

Timing model
------------

The core issues up to ``width`` instructions per cycle, in order.  The
behaviours the paper depends on are modelled explicitly:

* **ILP past a miss** - a load miss does not stall the core; issue
  continues until (a) the load's first consumer is reached, (b) the
  in-order ``runahead`` window past the oldest outstanding miss is
  exhausted, or (c) MSHRs run out.  Misses whose latency is completely
  hidden produce *no* stall record (Fig. 3a).
* **MLP / overlapped misses** - several misses in flight that force one
  stall yield a single stall record listing all contributing miss ids
  (Fig. 3b).
* **Instruction-fetch misses** - on an I-side LLC miss the front end
  drains the fetch buffer (a short busy span) and then fully stalls
  until the line returns.
* **LLC hits** - an L1 miss that hits the LLC produces only a brief
  stall (Fig. 2a), recorded with a non-memory cause so validators can
  distinguish it from the long main-memory stalls EMPROF targets.
* **DRAM refresh** - a miss that lands in a refresh window is blocked,
  stretching its stall to a few microseconds (Fig. 5); such stalls are
  flagged ``refresh=True``.

Execution
---------

The stream arrives as :class:`~repro.sim.isa.Block` s.  Most
instructions are non-memory work whose timing depends only on the
issue slot, so the core advances a *run* of them in closed form: cycle
``cur + (slot + k) // width`` for the k-th, and one L1I hit counted per
I-line crossing (a hit changes no cache state, so residency is checked
up front).  A run ends before the next memory op, region change or
L1I-missing line, and before the first instruction at which an
outstanding access could block (its consumer, or the runahead limit of
the oldest miss).  That instruction, and every memory op, goes through
the scalar path one at a time and in program order, so random
replacement, DRAM contention and the prefetcher see exactly the same
calls as a one-instruction-at-a-time core would make.

Power is deposited once per block.  Issuing never changes
``cur * width + slot - index``; only a stall does.  So each run and each
scalar issue logs its first block index and that value, and at block
end one ``np.repeat`` gives every instruction's issue cycle for a single
``add_issues`` call.  The log is also flushed before every
``add_busy_span``, so each bin still sums its terms in issue order.
"""

from __future__ import annotations

from typing import Iterable, Optional, Union

import numpy as np

from .cache import CacheHierarchy, L1, LLC, MEM
from .config import CoreConfig, PowerConfig
from .dram import MainMemory
from .isa import Block, Instr, LOAD, STORE, blocks
from .prefetcher import StridePrefetcher
from .trace import (
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
)


class Pipeline:
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
        self, instructions: Iterable[Union[Block, Instr]], power
    ) -> GroundTruth:
        """Execute the stream, filling ``power`` and returning ground truth.

        ``instructions`` yields blocks or :class:`Instr` tuples (packed
        into blocks on the way in).  ``power`` is a
        :class:`~repro.sim.power.PowerAccumulator` or any object with
        ``add_issue``, ``add_busy_span`` and ``note_cycle``; the latter
        gets one ``add_issue`` per instruction, in issue order.

        The loop records each miss and stall fact once, as tuples; the
        returned truth's columns are built from them once, at the end
        (:func:`_truth_columns`), and no record object is made.
        """
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

        l1i = self.hierarchy.l1i
        l1i_ways = l1i.ways
        lookup_i = self.hierarchy.lookup_instruction
        lookup_d = self.hierarchy.lookup_data
        mem_access = self.memory.access
        prefetcher = self.prefetcher
        tlb = self.tlb
        tlb_walk = self.tlb_walk_cycles
        add_issue = power.add_issue
        add_issues = getattr(power, "add_issues", None)
        add_busy_span = power.add_busy_span
        fetch_share = self.power_config.fetch_level / width
        # Activity level while draining buffered work after an I-miss:
        # the back end is still completing instructions, a bit below
        # full-rate switching.
        drain_level = self.power_config.fetch_level + 0.4
        # Issue log of the current block: the k-th instruction of a
        # segment starting at seg_at[j] issues at cycle
        # (seg_at[j] + k + seg_pos[j]) // width.
        seg_at: list = []
        seg_pos: list = []

        def deposit(stop: int) -> None:
            """Deposit block instructions ``seg_at[0]:stop``; clear the log."""
            first = seg_at[0]
            starts = np.array(seg_at)
            offsets = np.repeat(np.array(seg_pos), np.diff(starts, append=stop))
            cycles = (np.arange(first, stop) + offsets) // width
            if add_issues is not None:
                add_issues(cycles, issued[first:stop])
            else:
                for c, w in zip(cycles.tolist(), issued[first:stop].tolist()):
                    add_issue(c, w)
            seg_at.clear()
            seg_pos.clear()

        cur = 0  # current cycle
        slot = 0  # instructions already issued this cycle
        cur_line = -1  # last instruction-cache line touched
        # Outstanding data accesses: [ready_cycle, consumer_idx,
        # issue_idx, miss_id]; miss_id is None for LLC hits.
        pending: list = []
        store_q: list = []  # [ready_cycle, miss_id] outstanding store misses
        # The run's primary facts: one (kind, addr, detect, ready,
        # refresh_blocked, region) per miss, one (begin, end, cause,
        # region, n) per stall, and each stall's n contributing miss
        # ids, one after another.
        misses: list = []
        stalls: list = []
        stall_misses: list = []
        region_cycles: dict = {}
        cur_region = 0
        region_mark = 0
        base = 0  # stream index of the current block's first instruction

        for block in blocks(instructions):
            n = len(block)
            op_a, pc_a, addr_a, dep_a, weight_a, region_a = block.columns()
            issued = weight_a + fetch_share
            # Scalar stops: memory ops and region changes.
            stop = (op_a == LOAD) | (op_a == STORE)
            stop[1:] |= region_a[1:] != region_a[:-1]
            stop[0] |= region_a.item(0) != cur_region
            stops = np.flatnonzero(stop).tolist()
            stops.append(n)
            # I-line crossings (the line of the previous instruction is
            # always ``cur_line``, whatever path issued it).
            lines = pc_a >> line_shift
            cross = np.empty(n, dtype=bool)
            cross[0] = lines.item(0) != cur_line
            cross[1:] = lines[1:] != lines[:-1]
            xpos = np.flatnonzero(cross)
            xset, xtag = l1i.locate(pc_a[xpos])
            xpos = xpos.tolist()
            xpos.append(n)
            si = 0
            xi = 0
            at = 0
            while at < n:
                end = stops[si]
                if at < end:
                    # ---- closed-form run of non-memory instructions ----
                    if pending:
                        # Drop completed accesses.  The run stops at the
                        # first index at which one still outstanding
                        # could block: its consumer (in order) or the
                        # runahead limit past a miss.
                        j = 0
                        for e in pending:
                            if e[0] > cur:
                                pending[j] = e
                                j += 1
                                if in_order and e[1] - base < end:
                                    end = e[1] - base
                                if e[3] is not None and e[2] + runahead - base < end:
                                    end = e[2] + runahead - base
                        del pending[j:]
                    hits = 0
                    while xpos[xi] < end:
                        if xtag[xi] in l1i_ways[xset[xi]]:
                            hits += 1
                            xi += 1
                        else:
                            end = xpos[xi]
                    if at < end:
                        l1i.hits += hits
                        seg_at.append(at)
                        seg_pos.append(cur * width + slot - at)
                        slot += end - at
                        cur += slot // width
                        slot %= width
                        cur_line = lines.item(end - 1)
                        at = end
                        continue

                # ---- scalar path: one instruction ------------------------
                i = base + at
                op = op_a.item(at)
                pc = pc_a.item(at)
                addr = addr_a.item(at)
                dep = dep_a.item(at)
                region = region_a.item(at)
                if stops[si] == at:
                    si += 1
                if region != cur_region:
                    region_cycles[cur_region] = (
                        region_cycles.get(cur_region, 0) + cur - region_mark
                    )
                    cur_region = region
                    region_mark = cur

                # ---- instruction fetch --------------------------------------
                if xpos[xi] == at:  # a new I-line
                    cur_line = xtag[xi]
                    if cur_line in l1i_ways[xset[xi]]:
                        l1i.hits += 1
                    elif lookup_i(pc) is LLC:
                        if llc_front_pen:
                            stalls.append(
                                (cur, cur + llc_front_pen, CAUSE_LLC_HIT, region, 0)
                            )
                            cur += llc_front_pen
                            slot = 0
                    else:  # MEM: instruction line comes from DRAM
                        if prefetcher is not None:
                            prefetcher.on_llc_miss(pc)
                        resp = mem_access(cur, pc)
                        mid = len(misses)
                        misses.append(
                            (IFETCH, pc, cur, resp.ready_cycle, resp.refresh_blocked, region)
                        )
                        begin = cur + fetch_drain
                        if resp.ready_cycle > begin:
                            if seg_at:  # earlier issues go first
                                deposit(at)
                            add_busy_span(cur, begin, drain_level)
                            contrib = [mid]
                            for e in pending:
                                if e[3] is not None and e[0] > begin:
                                    contrib.append(e[3])
                            stalls.append(
                                (begin, resp.ready_cycle, CAUSE_IFETCH_MEM, region, len(contrib))
                            )
                            stall_misses += contrib
                            cur = resp.ready_cycle
                            slot = 0
                    xi += 1

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
                        if cause is CAUSE_LLC_HIT:
                            contrib = []
                        else:
                            contrib = [e[3] for e in pending if e[3] is not None]
                        stalls.append((cur, block_end, cause, region, len(contrib)))
                        stall_misses += contrib
                        cur = block_end
                        slot = 0
                        j = 0
                        for e in pending:
                            if e[0] > cur:
                                pending[j] = e
                                j += 1
                        del pending[j:]

                # ---- issue ----------------------------------------------------
                seg_at.append(at)
                seg_pos.append(cur * width + slot - at)
                at += 1
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
                        # MSHR pressure: block until an entry frees.  With
                        # fewer accesses pending than MSHRs one is free;
                        # else the issue step may have advanced past some
                        # entries' ready cycles, so drop completed ones first.
                        while len(pending) >= mshr_limit:
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
                            stalls.append(
                                (cur, free_at, CAUSE_MSHR_FULL, region, len(mem_entries))
                            )
                            stall_misses += [e[3] for e in mem_entries]
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
                            (DLOAD, addr, cur, resp.ready_cycle, resp.refresh_blocked, region)
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
                            stalls.append((cur, free_at, CAUSE_STOREBUF, region, len(contrib)))
                            stall_misses += contrib
                            cur = free_at
                            slot = 0
                            store_q = [s for s in store_q if s[0] > cur]
                        resp = mem_access(cur + walk, addr)
                        mid = len(misses)
                        misses.append(
                            (DSTORE, addr, cur, resp.ready_cycle, resp.refresh_blocked, region)
                        )
                        store_q.append([resp.ready_cycle, mid])

            deposit(n)
            base += n

        total_cycles = cur + (1 if slot else 0)
        region_cycles[cur_region] = (
            region_cycles.get(cur_region, 0) + total_cycles - region_mark
        )
        if total_cycles > 0:
            power.note_cycle(total_cycles - 1)
        return GroundTruth.from_columns(
            _truth_columns(misses, stalls, stall_misses),
            total_cycles=total_cycles,
            total_instructions=base,
            region_cycles=region_cycles,
        )


def _truth_columns(misses: list, stalls: list, stall_misses: list) -> dict:
    """The ground-truth columns of one run's facts (see ``Pipeline.run``).

    Two columns are derived here rather than tracked in the core loop:
    a miss's ``miss_stall`` is the first stall that lists it (-1 for
    none), and a stall is refresh-blocked when any miss it lists is.
    """
    names = ("miss_kind", "miss_addr", "miss_detect", "miss_ready", "miss_refresh", "miss_region")
    columns = dict(zip(names, zip(*misses) if misses else [()] * 6))
    names = ("stall_begin", "stall_end", "stall_cause", "stall_region", "sizes")
    columns.update(zip(names, zip(*stalls) if stalls else [()] * 5))
    sizes = np.array(columns.pop("sizes"), dtype=np.int64)
    ids = np.array(stall_misses, dtype=np.int64)
    owner = np.repeat(np.arange(len(sizes)), sizes)  # the stall listing each id
    listed, first = np.unique(ids, return_index=True)
    columns["miss_stall"] = np.full(len(misses), -1)
    columns["miss_stall"][listed] = owner[first]
    columns["stall_refresh"] = np.zeros(len(sizes), dtype=bool)
    columns["stall_refresh"][owner[np.array(columns["miss_refresh"], dtype=bool)[ids]]] = True
    columns["stall_misses"] = ids
    columns["stall_offsets"] = np.concatenate(([0], np.cumsum(sizes)))
    return columns
