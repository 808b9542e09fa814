"""Synthetic SPEC CPU2000 memory-behaviour models.

The paper evaluates EMPROF on ten SPEC CPU2000 benchmarks (Table III,
Table IV, Figs. 11/12/14).  SPEC binaries and reference inputs cannot
run on the laptop-scale substrate, so each benchmark is modelled as a
sequence of *phases* whose memory behaviour reproduces the published
characterization of that benchmark:

* mcf - pointer chasing over a graph far larger than any LLC: fully
  dependent loads, no MLP, long stalls (the thick tail of Fig. 11);
* bzip2 / gzip - block-oriented compression: repeated passes over a
  block that fits a 1 MB LLC but not a 256 KB one (this is what gives
  the large-LLC Alcatel its much lower counts in Table IV);
* equake - sequential sweeps over a large sparse grid, prefetchable
  (this is where the Samsung's hardware prefetcher pays off);
* crafty / vpr - cache-resident compute with a small leak of cold
  accesses: very low miss density;
* parser - three distinct program regions (read_dictionary,
  init_randtable, batch_process) with very different miss densities,
  the substrate for the Table V / Fig. 14 attribution experiment;
* ammp / twolf / vortex - mixed hot/cold working sets of varying size.

Scale: runs are ~10^5-10^6 instructions (the paper's are billions), so
absolute miss counts are roughly 1/4000 of Table IV's; EXPERIMENTS.md
tracks measured-vs-paper per benchmark.  At this scale compulsory
(first-touch) misses matter, so footprints are sized to give each
benchmark its Table IV *relative* weight.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional

import numpy as np

from ..sim.config import MachineConfig
from ..sim.isa import (
    ALU,
    BLOCK_SIZE,
    BRANCH,
    Block,
    Instr,
    LOAD,
    MUL,
    NO_CONSUMER,
    instruction_bytes,
)
from .base import repeat

_IB = instruction_bytes()
KB = 1024
MB = 1024 * KB

# Phase kinds.
COMPUTE = "compute"
STREAM = "stream"
RANDOM = "random"
HOTCOLD = "hotcold"
CHASE = "chase"
CODESWEEP = "codesweep"

_KINDS = frozenset({COMPUTE, STREAM, RANDOM, HOTCOLD, CHASE, CODESWEEP})


@dataclass(frozen=True)
class Phase:
    """One program phase with homogeneous memory behaviour.

    Only the fields relevant to ``kind`` are read:

    * COMPUTE: n_instructions.
    * STREAM: bytes_total, stride, passes, shuffle, work_per_access,
      dep, store_ratio - sequential (or per-block shuffled) sweeps.
    * RANDOM: working_set, accesses, work_per_access, dep, store_ratio.
    * HOTCOLD: hot_bytes, cold_bytes, cold_fraction, accesses,
      work_per_access, dep - random accesses that fall in a small hot
      set except for a cold_fraction that roams a large cold set.
    * CHASE: working_set, accesses, work_per_access - dependent loads.
    * CODESWEEP: footprint, passes - straight-line code larger than
      the L1 I-cache.

    ``work_per_access`` doubles as the region's signal texture: it
    sets the loop period, hence the spectral line attribution sees.
    """

    region: str
    kind: str
    n_instructions: int = 0
    bytes_total: int = 0
    stride: int = 64
    passes: int = 1
    shuffle: bool = False
    working_set: int = 0
    hot_bytes: int = 0
    cold_bytes: int = 0
    cold_fraction: float = 0.0
    accesses: int = 0
    work_per_access: int = 10
    dep: int = 2
    store_ratio: float = 0.0
    footprint: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown phase kind {self.kind!r}")
        if not 0.0 <= self.cold_fraction <= 1.0:
            raise ValueError("cold_fraction must be in [0, 1]")
        if not 0.0 <= self.store_ratio <= 1.0:
            raise ValueError("store_ratio must be in [0, 1]")


class SpecWorkload:
    """A benchmark model: named phases over disjoint address spaces."""

    def __init__(self, name: str, phases: List[Phase], seed: int = 11):
        if not phases:
            raise ValueError("a workload needs at least one phase")
        self.name = name
        self.phases = list(phases)
        self.seed = seed
        # One region id per distinct region name, in first-use order.
        self.region_names: Dict[int, str] = {}
        self._region_ids: Dict[str, int] = {}
        for phase in self.phases:
            if phase.region not in self._region_ids:
                rid = len(self._region_ids) + 1
                self._region_ids[phase.region] = rid
                self.region_names[rid] = phase.region

    def region_id(self, region: str) -> int:
        """Region id assigned to ``region`` (raises for unknown names)."""
        return self._region_ids[region]

    def instructions(self, config: MachineConfig) -> Iterator[Block]:
        """Yield the full phase sequence as blocks."""
        rng = np.random.default_rng(self.seed)
        data_base = 0x2000_0000
        pc_base = 0x0001_0000
        for phase in self.phases:
            rid = self._region_ids[phase.region]
            pc = pc_base
            pc_base += max(64 * KB, phase.footprint + 64 * KB)
            yield from self._emit(phase, rid, data_base, pc, rng, config)
            data_base += self._phase_span(phase) + MB

    @staticmethod
    def _phase_span(phase: Phase) -> int:
        """Bytes of address space a phase occupies."""
        return max(
            phase.bytes_total,
            phase.working_set,
            phase.hot_bytes + phase.cold_bytes,
            64 * KB,
        )

    def _emit(
        self,
        phase: Phase,
        rid: int,
        base: int,
        pc: int,
        rng: np.random.Generator,
        config: MachineConfig,
    ) -> Iterator[Block]:
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


def _straight(pc: np.ndarray, rid: int, op=ALU, weight=0.12) -> Block:
    """Non-memory instructions at ``pc`` (ops/weights scalar or per-pc)."""
    n = len(pc)
    return Block(
        np.broadcast_to(op, n),
        pc,
        np.zeros(n),
        np.full(n, NO_CONSUMER),
        np.broadcast_to(weight, n),
        np.full(n, rid),
    )


def _compute(pc: int, count: int, rid: int) -> Iterator[Block]:
    for lo in range(0, count, BLOCK_SIZE):
        k = np.arange(lo, min(count, lo + BLOCK_SIZE))
        is_mul = k % 6 == 5
        yield _straight(
            pc + (k % 128) * _IB,
            rid,
            np.where(is_mul, MUL, ALU),
            np.where(is_mul, 0.20, 0.12),
        )


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
) -> Iterator[Block]:
    """Common loop: work body + one memory access + loop branch."""
    # The access and loop branch sit just past the (wrapped) body
    # footprint, keeping the whole loop inside ~520 bytes of code.
    body = _access_loop_body(pc, wpa, rid) + [
        Instr(LOAD, pc + 128 * _IB, 0, dep, 0.16, rid),
        Instr(BRANCH, pc + 129 * _IB, 0, NO_CONSUMER, 0.10, rid),
    ]
    return repeat(Block.from_instrs(body), len(addrs), addrs, stores)


def _stream(
    phase: Phase, rid: int, base: int, pc: int, rng: np.random.Generator
) -> Iterator[Block]:
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
    return _emit_accesses(addrs, stores, pc, phase.work_per_access, phase.dep, rid)


def _random(
    phase: Phase, rid: int, base: int, pc: int, rng: np.random.Generator, line: int
) -> Iterator[Block]:
    n_lines = max(1, phase.working_set // line)
    addrs = base + rng.integers(0, n_lines, size=phase.accesses) * line
    stores = (
        rng.random(phase.accesses) < phase.store_ratio if phase.store_ratio else None
    )
    return _emit_accesses(addrs, stores, pc, phase.work_per_access, phase.dep, rid)


def _hotcold(
    phase: Phase, rid: int, base: int, pc: int, rng: np.random.Generator, line: int
) -> Iterator[Block]:
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
    return _emit_accesses(addrs, stores, pc, phase.work_per_access, phase.dep, rid)


def _chase(
    phase: Phase, rid: int, base: int, pc: int, rng: np.random.Generator, line: int
) -> Iterator[Block]:
    n_lines = max(2, phase.working_set // line)
    order = rng.permutation(n_lines)
    wpa = phase.work_per_access
    # dep=0: the pointer is needed immediately - no MLP.
    body = (
        [Instr(LOAD, pc, 0, 0, 0.16, rid)]
        + _access_loop_body(pc + _IB, wpa, rid)
        + [Instr(BRANCH, pc + (1 + wpa) * _IB, 0, NO_CONSUMER, 0.10, rid)]
    )
    addrs = base + order[np.arange(phase.accesses) % n_lines] * line
    return repeat(Block.from_instrs(body), phase.accesses, addrs)


def _codesweep(phase: Phase, rid: int, pc: int) -> Iterator[Block]:
    count = max(1, phase.footprint // _IB)
    for _ in range(max(1, phase.passes)):
        for lo in range(0, count, BLOCK_SIZE):
            yield _straight(pc + np.arange(lo, min(count, lo + BLOCK_SIZE)) * _IB, rid)


# --------------------------------------------------------------------------
# Benchmark profiles.
#
# Footprints/pass counts encode each benchmark's Table IV signature:
# repeated passes over 256KB-1MB blocks separate the 1 MB-LLC Alcatel
# from the 256 KB devices; sequential strides mark the phases the
# Samsung prefetcher can cover; shuffled/chasing phases defeat it.
# --------------------------------------------------------------------------


def _ammp() -> List[Phase]:
    # Molecular dynamics: the nonbonded-force loop re-sweeps a ~480 KB
    # neighbour structure every timestep - heavy reuse, scattered order.
    return [
        Phase("setup", COMPUTE, n_instructions=90_000),
        Phase(
            "mm_fv_update_nonbon",
            STREAM,
            bytes_total=480 * KB,
            stride=8192,
            passes=5,
            shuffle=True,  # neighbour-list order defeats prefetching
            work_per_access=300,
            dep=4,
        ),
        Phase("tether", COMPUTE, n_instructions=150_000),
    ]


def _bzip2() -> List[Phase]:
    # Block compression: repeated passes over a ~400 KB block that fits
    # a 1 MB LLC but not a 256 KB one; the sort pass is sequential
    # (prefetchable), the MTF pass scattered.
    return [
        Phase("input", COMPUTE, n_instructions=60_000),
        Phase(
            "sortIt",
            STREAM,
            bytes_total=400 * KB,
            stride=1024,
            passes=3,
            shuffle=False,  # sequential: the Samsung prefetcher covers it
            work_per_access=330,
            dep=3,
            store_ratio=0.08,
        ),
        Phase(
            "generateMTFValues",
            STREAM,
            bytes_total=416 * KB,
            stride=1024,
            passes=2,
            shuffle=True,  # BWT output order is scattered
            work_per_access=300,
            dep=2,
        ),
    ]


def _crafty() -> List[Phase]:
    # Chess search: hash/eval tables mostly cache-resident, with a
    # modest transposition-table leak past the small LLCs.
    return [
        Phase("evaluate", RANDOM, working_set=8 * KB, accesses=1_200,
              work_per_access=260, dep=5),
        Phase(
            "search",
            STREAM,
            bytes_total=480 * KB,
            stride=4096,
            passes=2,
            shuffle=True,
            work_per_access=340,
            dep=5,
        ),
        Phase("repetition_check", COMPUTE, n_instructions=180_000),
    ]


def _equake() -> List[Phase]:
    # Sparse-matrix earthquake simulation: sequential sweeps over a
    # ~370 KB partition per timestep - highly prefetchable.
    return [
        Phase("mesh_init", COMPUTE, n_instructions=50_000),
        Phase(
            "smvp",
            STREAM,
            bytes_total=368 * KB,
            stride=1024,
            passes=3,
            shuffle=False,
            work_per_access=300,
            dep=2,
            store_ratio=0.06,
        ),
        Phase(
            "time_integration",
            STREAM,
            bytes_total=352 * KB,
            stride=1024,
            passes=2,
            shuffle=False,
            work_per_access=260,
            dep=2,
        ),
    ]


def _gzip() -> List[Phase]:
    # LZ77 over a 32 KB window: little capacity pressure; misses come
    # from marching the input/output buffers forward.
    return [
        Phase(
            "deflate",
            STREAM,
            bytes_total=416 * KB,
            stride=2048,
            passes=2,
            shuffle=False,
            work_per_access=400,
            dep=3,
            store_ratio=0.05,
        ),
        Phase("longest_match", RANDOM, working_set=8 * KB, accesses=1_500,
              work_per_access=260, dep=4),
        Phase("fill_window", COMPUTE, n_instructions=250_000),
    ]


def _mcf() -> List[Phase]:
    # Network simplex: pointer chasing over a node/arc graph far
    # larger than any LLC - fully dependent loads, no MLP.
    return [
        Phase(
            "refresh_potential",
            CHASE,
            working_set=2 * MB,
            accesses=330,
            work_per_access=160,
        ),
        Phase(
            "price_out_impl",
            STREAM,
            bytes_total=512 * KB,
            stride=4096,
            passes=2,
            shuffle=True,
            work_per_access=220,
            dep=1,
        ),
        Phase("primal_bea_mpp", COMPUTE, n_instructions=220_000),
    ]


def _parser() -> List[Phase]:
    # The Table V / Fig. 14 benchmark: three regions with very
    # different miss densities.
    return [
        Phase(
            "read_dictionary",
            STREAM,
            bytes_total=600 * KB,
            stride=2048,
            passes=1,
            shuffle=False,
            work_per_access=760,
            dep=3,
        ),
        Phase(
            "init_randtable",
            RANDOM,
            working_set=4 * KB,
            accesses=900,
            work_per_access=200,
            dep=2,
            store_ratio=0.5,
        ),
        Phase(
            "batch_process",
            STREAM,
            bytes_total=512 * KB,
            stride=2048,
            passes=4,
            shuffle=True,
            work_per_access=110,
            dep=2,
        ),
    ]


def _twolf() -> List[Phase]:
    # Standard-cell placement: scattered re-walks of a ~400 KB netlist.
    return [
        Phase(
            "new_dbox",
            STREAM,
            bytes_total=400 * KB,
            stride=4096,
            passes=3,
            shuffle=True,
            work_per_access=320,
            dep=4,
        ),
        Phase("ucxx2", COMPUTE, n_instructions=350_000),
    ]


def _vortex() -> List[Phase]:
    # OO database: object-tree walks with moderate reuse.
    return [
        Phase(
            "Tree_Lookup",
            STREAM,
            bytes_total=448 * KB,
            stride=2048,
            passes=2,
            shuffle=True,
            work_per_access=300,
            dep=3,
            store_ratio=0.06,
        ),
        Phase("Mem_GetWord", RANDOM, working_set=8 * KB, accesses=1_300,
              work_per_access=260, dep=3),
        Phase("OaGetObject", COMPUTE, n_instructions=200_000),
    ]


def _vpr() -> List[Phase]:
    # FPGA place-and-route: small resident routing structures; the
    # lowest miss density of the suite.
    return [
        Phase("place", COMPUTE, n_instructions=350_000),
        Phase(
            "route",
            STREAM,
            bytes_total=384 * KB,
            stride=8192,
            passes=2,
            shuffle=True,
            work_per_access=380,
            dep=5,
        ),
        Phase("check_route", RANDOM, working_set=8 * KB, accesses=1_300,
              work_per_access=280, dep=5),
    ]


_PROFILES = {
    "ammp": _ammp,
    "bzip2": _bzip2,
    "crafty": _crafty,
    "equake": _equake,
    "gzip": _gzip,
    "mcf": _mcf,
    "parser": _parser,
    "twolf": _twolf,
    "vortex": _vortex,
    "vpr": _vpr,
}

SPEC_BENCHMARKS = tuple(sorted(_PROFILES))


def spec_workload(name: str, seed: int = 11, scale: float = 1.0) -> SpecWorkload:
    """Build the model of one SPEC CPU2000 benchmark.

    Args:
        name: one of :data:`SPEC_BENCHMARKS`.
        seed: randomization seed (address choices).
        scale: shrinks/extends run length: compute and access counts
            scale directly and STREAM pass counts scale (min 1).  Note
            that scales well below 1 collapse the reuse structure that
            drives the cross-device capacity contrasts - run the
            Table IV experiments at scale 1.0.
    """
    try:
        profile = _PROFILES[name]
    except KeyError:
        raise ValueError(
            f"unknown SPEC benchmark {name!r}; expected one of {SPEC_BENCHMARKS}"
        ) from None
    if scale <= 0:
        raise ValueError("scale must be positive")
    phases = profile()
    # scale=1.0 is an exact "unscaled" sentinel, not a measured value.
    if scale != 1.0:  # emlint: disable=float-equality
        phases = [
            replace(
                p,
                n_instructions=int(p.n_instructions * scale),
                accesses=int(p.accesses * scale),
                passes=(
                    max(1, int(round(p.passes * scale)))
                    if p.kind == STREAM
                    else p.passes
                ),
            )
            for p in phases
        ]
    return SpecWorkload(name=name, phases=phases, seed=seed)


def all_spec_workloads(seed: int = 11, scale: float = 1.0) -> List[SpecWorkload]:
    """All ten benchmark models, in alphabetical order."""
    return [spec_workload(name, seed=seed, scale=scale) for name in SPEC_BENCHMARKS]
