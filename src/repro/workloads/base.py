"""Workload protocol and reusable block builders.

A workload is any object that can emit a dynamic instruction stream for
a given machine configuration.  Streams are emitted as columnar
:class:`~repro.sim.isa.Block` s of at most
:data:`~repro.sim.isa.BLOCK_SIZE` instructions.  The builders here are
the loop vocabulary the concrete workloads (microbenchmark, SPEC
models, boot sequence) are written in: a loop body repeated with fresh
memory addresses each iteration (:func:`repeat`), tight marker loops
and straight-line compute blocks.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Optional, Protocol, Union, runtime_checkable

import numpy as np

from ..sim.config import MachineConfig
from ..sim.isa import (
    ALU,
    BLOCK_SIZE,
    BRANCH,
    Block,
    DEFAULT_WEIGHTS,
    Instr,
    LOAD,
    MUL,
    NO_CONSUMER,
    STORE,
    instruction_bytes,
)

_IB = instruction_bytes()


@runtime_checkable
class Workload(Protocol):
    """Anything the simulator can execute.

    Attributes:
        name: short identifier used in reports.
        region_names: mapping from region ids used in the stream to
            human-readable names (function/loop labels).
    """

    name: str
    region_names: Dict[int, str]

    def instructions(self, config: MachineConfig) -> Iterable[Union[Block, Instr]]:
        """Yield the dynamic instruction stream for ``config``.

        Built-in workloads yield :class:`Block` s; plain :class:`Instr`
        items are accepted too and packed by the simulator.
        """
        ...  # pragma: no cover - protocol


def repeat(
    body: Block,
    iterations: int,
    addrs: Optional[np.ndarray] = None,
    stores: Optional[np.ndarray] = None,
) -> Iterator[Block]:
    """Run ``body`` ``iterations`` times, in blocks of whole iterations.

    ``body``'s memory instructions (its LOAD/STORE slots, in order) take
    their addresses from row ``k`` of ``addrs`` (shape ``(iterations,
    slots)``; 1-D when the body has one slot) in iteration ``k``.
    Where ``stores`` (same shape) is true, that access becomes a store:
    op STORE, no consumer, store weight.
    """
    size = len(body)
    if iterations <= 0 or size == 0:
        return
    slots = np.flatnonzero((body.op == LOAD) | (body.op == STORE))
    if addrs is not None:
        addrs = np.asarray(addrs, dtype=np.int64).reshape(iterations, len(slots))
    if stores is not None:
        stores = np.asarray(stores, dtype=bool).reshape(iterations, len(slots))
    per_block = max(1, BLOCK_SIZE // size)
    for lo in range(0, iterations, per_block):
        m = min(per_block, iterations - lo)
        op, pc, addr, dep, weight, region = (np.tile(c, m) for c in body.columns())
        where = (np.arange(m)[:, None] * size + slots).ravel()
        if addrs is not None:
            addr[where] = addrs[lo : lo + m].ravel()
        if stores is not None:
            st = where[stores[lo : lo + m].ravel()]
            op[st] = STORE
            dep[st] = NO_CONSUMER
            weight[st] = DEFAULT_WEIGHTS[STORE]
        yield Block(op, pc, addr, dep, weight, region)


def tight_loop(
    pc: int,
    iterations: int,
    body_alu: int = 3,
    region: int = 0,
    weight: float = DEFAULT_WEIGHTS[ALU],
) -> Iterator[Block]:
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
    return repeat(Block.from_instrs(body), iterations)


def compute_block(
    pc: int,
    count: int,
    region: int = 0,
    mul_every: int = 5,
    pattern_period: int = 0,
    pattern_depth: float = 0.0,
) -> Iterator[Block]:
    """Straight-line compute: ALU ops with MULs sprinkled in.

    ``pattern_period``/``pattern_depth`` superimpose a periodic weight
    modulation, giving the block a spectral line at
    ``issue_rate / pattern_period`` that attribution can key on.
    """
    if count < 0:
        raise ValueError("count cannot be negative")
    base_alu = DEFAULT_WEIGHTS[ALU]
    base_mul = DEFAULT_WEIGHTS[MUL]
    if pattern_period:
        # One weight per (op, phase), computed with the scalar formula.
        phase_w = [
            [
                max(0.02, float(w + pattern_depth * np.sin(2 * np.pi * j / pattern_period)))
                for j in range(pattern_period)
            ]
            for w in (base_alu, base_mul)
        ]
    for lo in range(0, count, BLOCK_SIZE):
        k = np.arange(lo, min(count, lo + BLOCK_SIZE))
        # 1 KB code footprint: the block is an I-cache-resident loop,
        # not a straight-line sweep through cold code.
        is_mul = k % mul_every == mul_every - 1 if mul_every else np.zeros(len(k), bool)
        if pattern_period:
            weight = np.asarray(phase_w)[is_mul.astype(np.int64), k % pattern_period]
        else:
            weight = np.where(is_mul, base_mul, base_alu)
        yield Block(
            np.where(is_mul, MUL, ALU),
            pc + (k % 256) * _IB,
            np.zeros(len(k)),
            np.full(len(k), NO_CONSUMER),
            weight,
            np.full(len(k), region),
        )


class StreamWorkload:
    """Adapter turning a prebuilt iterable factory into a Workload.

    ``factory`` is called with the machine config and must return an
    iterator of :class:`Instr` (or blocks); used by tests and ad-hoc
    experiments.
    """

    def __init__(self, name: str, factory, region_names: Dict[int, str] = None):
        self.name = name
        self._factory = factory
        self.region_names = dict(region_names or {})

    def instructions(self, config: MachineConfig) -> Iterable[Union[Block, Instr]]:
        """Delegate to the wrapped factory."""
        return self._factory(config)
