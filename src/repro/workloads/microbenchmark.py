"""The validation microbenchmark of Fig. 6.

Generates a known pattern of memory references leading to exactly *TM*
LLC misses arriving in groups of *CM*, with recognizable tight-loop
markers before and after the miss-generating section:

1. touch every page once (avoids page-fault noise in the real system;
   here it simply warms unrelated lines),
2. run a tight blank loop (the start marker),
3. perform TM cache-block-aligned loads at randomized page/line
   positions - each to a never-before-seen line, so each is an LLC
   miss by construction - inserting a micro function call after every
   CM misses,
4. run another blank loop (the end marker).

The randomization "defeats any stride-based pre-fetching that may be
present in the processor" (Section V-B): consecutive target lines are
drawn from a shuffled permutation, so no two consecutive misses have a
repeatable stride.
"""

from __future__ import annotations

from typing import Dict, Iterator

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
from .base import compute_block, repeat, tight_loop

_IB = instruction_bytes()

# Region ids (exported so experiments can slice ground truth by them).
REGION_PAGE_TOUCH = 1
REGION_BLANK_START = 2
REGION_ACCESSES = 3
REGION_BLANK_END = 4

REGION_NAMES: Dict[int, str] = {
    0: "startup",
    REGION_PAGE_TOUCH: "page_touch",
    REGION_BLANK_START: "blank_loop_start",
    REGION_ACCESSES: "memory_accesses",
    REGION_BLANK_END: "blank_loop_end",
}

# Disjoint PC areas so the marker loops, the access loop and the micro
# function each have their own I-cache footprint.
_PC_PAGE_TOUCH = 0x1000
_PC_BLANK_A = 0x2000
_PC_ACCESS = 0x3000
_PC_MICRO_FN = 0x4000
_PC_BLANK_B = 0x5000

_PAGE_SIZE = 4096
_ARRAY_BASE = 0x1000_0000


class Microbenchmark:
    """TM/CM microbenchmark with a-priori-known LLC miss count.

    Args:
        total_misses: TM - number of LLC misses the access section
            produces (each access targets a distinct, cold line).
        consecutive_misses: CM - group size; a micro function call is
            inserted after every CM accesses.
        gap_instructions: address-generation work between consecutive
            loads inside a group (the paper's ``rand()`` + address
            arithmetic); sets how separable the per-miss dips are.
        micro_fn_instructions: length of the micro function separating
            groups.
        blank_iterations: iterations of each marker loop.
        seed: randomization seed for page/line selection.
    """

    def __init__(
        self,
        total_misses: int = 1024,
        consecutive_misses: int = 10,
        gap_instructions: int = 120,
        micro_fn_instructions: int = 600,
        blank_iterations: int = 20_000,
        seed: int = 7,
    ):
        if total_misses <= 0:
            raise ValueError("total_misses must be positive")
        if consecutive_misses <= 0:
            raise ValueError("consecutive_misses must be positive")
        if consecutive_misses > total_misses:
            raise ValueError("consecutive_misses cannot exceed total_misses")
        if gap_instructions < 0 or micro_fn_instructions < 0:
            raise ValueError("instruction counts cannot be negative")
        self.total_misses = total_misses
        self.consecutive_misses = consecutive_misses
        self.gap_instructions = gap_instructions
        self.micro_fn_instructions = micro_fn_instructions
        self.blank_iterations = blank_iterations
        self.seed = seed
        self.name = f"micro_tm{total_misses}_cm{consecutive_misses}"
        self.region_names = dict(REGION_NAMES)

    def _target_addresses(self, line_bytes: int) -> np.ndarray:
        """Distinct cold line addresses: one per expected miss.

        Each target occupies its own page at a random non-zero line
        offset, so it cannot collide with the page-touch loads (which
        hit line 0 of each page), and the shuffled page order breaks
        any stride.
        """
        rng = np.random.default_rng(self.seed)
        lines_per_page = _PAGE_SIZE // line_bytes
        pages = rng.permutation(self.total_misses)
        line_offsets = rng.integers(1, lines_per_page, size=self.total_misses)
        return _ARRAY_BASE + pages * _PAGE_SIZE + line_offsets * line_bytes

    def instructions(self, config: MachineConfig) -> Iterator[Block]:
        """Yield the full microbenchmark instruction stream as blocks."""
        line_bytes = config.line_bytes
        targets = self._target_addresses(line_bytes)
        gap = self.gap_instructions
        cm = self.consecutive_misses

        # 1. Page touch: load line 0 of every page, sequentially.
        pt = REGION_PAGE_TOUCH
        touch = Block.from_instrs(
            [
                Instr(ALU, _PC_PAGE_TOUCH, 0, NO_CONSUMER, 0.12, pt),
                Instr(LOAD, _PC_PAGE_TOUCH + _IB, 0, NO_CONSUMER, 0.16, pt),
                Instr(BRANCH, _PC_PAGE_TOUCH + 2 * _IB, 0, NO_CONSUMER, 0.10, pt),
            ]
        )
        pages = _ARRAY_BASE + np.arange(self.total_misses, dtype=np.int64) * _PAGE_SIZE
        yield from repeat(touch, self.total_misses, pages)

        # 2. Start marker.
        yield from tight_loop(
            _PC_BLANK_A, self.blank_iterations, body_alu=3, region=REGION_BLANK_START
        )

        # 3. Access section: TM loads in groups of CM.
        # Address generation: the rand()+mul+add work between loads.
        # MULs every few ops keep the busy level high so the inter-miss
        # gap is visible in the signal.  PCs wrap every 128
        # instructions: the address-generation work is a small loop
        # (rand() + arithmetic), not a cold straight-line code sweep.
        ra = REGION_ACCESSES
        access = Block.from_instrs(
            [
                Instr(
                    MUL if j % 6 == 5 else ALU,
                    _PC_ACCESS + (j % 128) * _IB,
                    0,
                    NO_CONSUMER,
                    0.20 if j % 6 == 5 else 0.12,
                    ra,
                )
                for j in range(gap)
            ]
            + [
                # The engineered miss; its value feeds a checksum two
                # instructions later (dep=2).
                Instr(LOAD, _PC_ACCESS + gap * _IB, 0, 2, 0.16, ra),
                Instr(ALU, _PC_ACCESS + (gap + 1) * _IB, 0, NO_CONSUMER, 0.12, ra),
                Instr(ALU, _PC_ACCESS + (gap + 2) * _IB, 0, NO_CONSUMER, 0.12, ra),
                Instr(BRANCH, _PC_ACCESS + (gap + 3) * _IB, 0, NO_CONSUMER, 0.10, ra),
            ]
        )
        # Micro function call after every CM misses.
        micro_fn = list(
            compute_block(_PC_MICRO_FN, self.micro_fn_instructions, region=ra, mul_every=7)
        )
        groups, rest = divmod(self.total_misses, cm)
        if cm * len(access) + self.micro_fn_instructions <= BLOCK_SIZE:
            # Small groups: tile whole groups into each block.
            group = Block.concat([access] * cm + micro_fn)
            yield from repeat(group, groups, targets[: groups * cm])
        else:
            for g in range(groups):
                yield from repeat(access, cm, targets[g * cm : (g + 1) * cm])
                yield from micro_fn
        yield from repeat(access, rest, targets[groups * cm :])

        # 4. End marker.
        yield from tight_loop(
            _PC_BLANK_B, self.blank_iterations, body_alu=3, region=REGION_BLANK_END
        )

    def expected_misses(self) -> int:
        """A-priori miss count of the access section (= TM)."""
        return self.total_misses

    def expected_groups(self) -> int:
        """Number of CM-groups the access section produces."""
        return -(-self.total_misses // self.consecutive_misses)
