"""Instruction-stream model consumed by the cycle-level pipeline.

The simulator does not interpret a real ISA; what EMPROF's validation
needs from the substrate is the *timing-relevant* content of a program:
which instructions touch memory and where, how soon a load's value is
consumed (this bounds how long the core can keep busy past a miss), and
how much switching activity each instruction contributes to the power
side-channel.  An :class:`Instr` captures exactly that for one
instruction.

Workloads in :mod:`repro.workloads` emit their streams as
:class:`Block` s: the same six fields stored column-wise in NumPy
arrays, at most :data:`BLOCK_SIZE` instructions each, so a whole
program never sits in memory at once and the core can advance runs of
non-memory instructions without touching them one by one.  Plain
:class:`Instr` iterables (tests, ad-hoc streams) are packed into
blocks by :func:`blocks`.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, NamedTuple, Sequence, Union

import numpy as np

# Operation kinds.  Values are dense small ints so they can be used as
# array indices in power weight tables.
ALU = 0
LOAD = 1
STORE = 2
BRANCH = 3
MUL = 4
NOP = 5

OP_NAMES = {ALU: "alu", LOAD: "load", STORE: "store", BRANCH: "branch", MUL: "mul", NOP: "nop"}

# Per-op switching-activity weights (arbitrary units).  These set the
# texture of the busy-processor signal: different instruction mixes in
# different loops give each code region a distinct signal signature,
# which is what spectral attribution (Fig. 14) keys on.
DEFAULT_WEIGHTS = {
    ALU: 0.12,
    LOAD: 0.16,
    STORE: 0.15,
    BRANCH: 0.10,
    MUL: 0.20,
    NOP: 0.04,
}

# A load with NO_CONSUMER never directly blocks the pipeline; only the
# core's runahead limit or MSHR exhaustion can turn its miss into a
# stall (the Fig. 3a "miss with no attributable stall" case).
NO_CONSUMER = 1 << 30


class Instr(NamedTuple):
    """One dynamic instruction.

    Attributes:
        op: one of ALU/LOAD/STORE/BRANCH/MUL/NOP.
        pc: byte address of the instruction (drives the I-cache).
        addr: byte address touched by LOAD/STORE; 0 otherwise.
        dep: for LOAD - number of instructions after this one before
            its value is first consumed (0 means the very next
            instruction needs it).  Use NO_CONSUMER for dead loads.
        weight: switching-activity contribution of this instruction.
        region: small integer naming the code region (function/loop)
            this instruction belongs to, for attribution experiments.
    """

    op: int
    pc: int
    addr: int = 0
    dep: int = NO_CONSUMER
    weight: float = DEFAULT_WEIGHTS[ALU]
    region: int = 0


def alu(pc: int, region: int = 0, weight: float = DEFAULT_WEIGHTS[ALU]) -> Instr:
    """Build a plain integer-ALU instruction."""
    return Instr(ALU, pc, 0, NO_CONSUMER, weight, region)


def mul(pc: int, region: int = 0) -> Instr:
    """Build a multiply (higher switching activity than ALU)."""
    return Instr(MUL, pc, 0, NO_CONSUMER, DEFAULT_WEIGHTS[MUL], region)


def branch(pc: int, region: int = 0) -> Instr:
    """Build a (predicted-taken, zero-penalty) branch."""
    return Instr(BRANCH, pc, 0, NO_CONSUMER, DEFAULT_WEIGHTS[BRANCH], region)


def load(pc: int, addr: int, dep: int = 1, region: int = 0) -> Instr:
    """Build a load whose value is consumed ``dep`` instructions later."""
    if dep < 0:
        raise ValueError("dependency distance cannot be negative")
    return Instr(LOAD, pc, addr, dep, DEFAULT_WEIGHTS[LOAD], region)


def store(pc: int, addr: int, region: int = 0) -> Instr:
    """Build a store (non-blocking while the store buffer has room)."""
    return Instr(STORE, pc, addr, NO_CONSUMER, DEFAULT_WEIGHTS[STORE], region)


def nop(pc: int, region: int = 0) -> Instr:
    """Build a nop (minimal switching activity)."""
    return Instr(NOP, pc, 0, NO_CONSUMER, DEFAULT_WEIGHTS[NOP], region)


def instruction_bytes() -> int:
    """Size of one encoded instruction (fixed 4-byte, ARM-like)."""
    return 4


# Instructions per emitted block: large enough that per-block overhead
# vanishes, small enough that a long program (boot is ~1.5 M
# instructions) streams through a few MB instead of ~70 MB of columns.
BLOCK_SIZE = 1 << 15


class Block:
    """A bounded run of dynamic instructions, one NumPy column per field.

    The columns mirror :class:`Instr`: ``op``, ``pc``, ``addr``,
    ``dep`` and ``region`` are int64, ``weight`` is float64; all have
    the same length.
    """

    __slots__ = ("op", "pc", "addr", "dep", "weight", "region")

    def __init__(self, op, pc, addr, dep, weight, region):
        self.op = np.asarray(op, dtype=np.int64)
        self.pc = np.asarray(pc, dtype=np.int64)
        self.addr = np.asarray(addr, dtype=np.int64)
        self.dep = np.asarray(dep, dtype=np.int64)
        self.weight = np.asarray(weight, dtype=np.float64)
        self.region = np.asarray(region, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.op)

    def __getitem__(self, index: slice) -> "Block":
        """The instructions in ``index`` (a slice), as a block of views."""
        return Block(*(c[index] for c in self.columns()))

    def columns(self) -> tuple:
        """``(op, pc, addr, dep, weight, region)``."""
        return (self.op, self.pc, self.addr, self.dep, self.weight, self.region)

    @classmethod
    def from_instrs(cls, instrs: Sequence) -> "Block":
        """Pack a sequence of :class:`Instr` (or 6-tuples) into one block."""
        if not instrs:
            return cls(*([] for _ in range(6)))
        return cls(*zip(*instrs))

    @classmethod
    def concat(cls, parts: Sequence["Block"]) -> "Block":
        """Join blocks end to end (no size bound is applied)."""
        columns = zip(*(b.columns() for b in parts))
        return cls(*(np.concatenate(c) for c in columns))

    def instrs(self) -> Iterator[Instr]:
        """The block as :class:`Instr` tuples of plain Python scalars."""
        for row in zip(*(c.tolist() for c in self.columns())):
            yield Instr(*row)


def blocks(stream: Iterable[Union[Block, Instr]]) -> Iterator[Block]:
    """Normalize a stream to non-empty blocks of at most ``BLOCK_SIZE``.

    Blocks pass through unchanged; runs of :class:`Instr` (or any
    6-tuples) between them are packed, in order.
    """
    buf: List = []
    for item in stream:
        if isinstance(item, Block):
            if buf:
                yield Block.from_instrs(buf)
                buf = []
            if len(item):
                yield item
        else:
            buf.append(item)
            if len(buf) >= BLOCK_SIZE:
                yield Block.from_instrs(buf)
                buf = []
    if buf:
        yield Block.from_instrs(buf)


def unpack(stream: Iterable[Union[Block, Instr]]) -> Iterator[Instr]:
    """Flatten a block stream back into :class:`Instr` tuples."""
    for block in blocks(stream):
        yield from block.instrs()
