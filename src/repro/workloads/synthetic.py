"""Randomized workload generation for end-to-end robustness testing.

The calibrated workloads in this package have known shapes; a
measurement tool also has to hold up on programs nobody designed.
:class:`RandomWorkload` draws a program from a parameterized space -
random phase count, access patterns, working sets, miss densities,
dependency distances - so the fuzz tests in
``tests/test_end_to_end_fuzz.py`` can assert EMPROF's accuracy
envelope over *arbitrary* programs, not just the tuned ones.

The draw is fully determined by the seed, so any fuzz failure is
replayable by constructing ``RandomWorkload(seed=...)``.
"""

from __future__ import annotations

from typing import Dict, Iterator, List

import numpy as np

from ..sim.config import MachineConfig
from ..sim.isa import Block
from .spec import CHASE, COMPUTE, KB, MB, Phase, RANDOM, STREAM, SpecWorkload


class RandomWorkload:
    """A randomly drawn multi-phase program.

    Args:
        seed: fully determines the program.
        max_phases: upper bound on phase count (at least 2 are drawn).
        size: overall scale knob; roughly multiplies instruction and
            access counts (keep at 1.0 for ~10^5-instruction programs).

    The sampled space deliberately spans the regimes the detector must
    survive: dense and sparse misses, streams a prefetcher could eat,
    pointer chases, tiny resident sets, and long pure-compute
    stretches.
    """

    def __init__(self, seed: int = 0, max_phases: int = 5, size: float = 1.0):
        if max_phases < 2:
            raise ValueError("need room for at least two phases")
        if size <= 0:
            raise ValueError("size must be positive")
        self.seed = seed
        self.size = size
        rng = np.random.default_rng(seed)
        self.name = f"fuzz_{seed}"
        self._inner = SpecWorkload(
            name=self.name,
            phases=self._draw_phases(rng, max_phases),
            seed=int(rng.integers(0, 2**31)),
        )
        self.region_names: Dict[int, str] = self._inner.region_names

    def _draw_phases(self, rng: np.random.Generator, max_phases: int) -> List[Phase]:
        n_phases = int(rng.integers(2, max_phases + 1))
        phases: List[Phase] = []
        for k in range(n_phases):
            kind = rng.choice([COMPUTE, STREAM, RANDOM, CHASE], p=[0.25, 0.35, 0.25, 0.15])
            region = f"phase{k}_{kind}"
            if kind == COMPUTE:
                phases.append(
                    Phase(region, COMPUTE,
                          n_instructions=int(self.size * rng.integers(20_000, 120_000)))
                )
            elif kind == STREAM:
                phases.append(
                    Phase(
                        region,
                        STREAM,
                        bytes_total=int(rng.integers(64, 768)) * KB,
                        stride=int(2 ** rng.integers(7, 13)),
                        passes=int(rng.integers(1, 4)),
                        shuffle=bool(rng.random() < 0.5),
                        work_per_access=int(rng.integers(120, 500)),
                        dep=int(rng.integers(1, 8)),
                        store_ratio=float(rng.random() * 0.15),
                    )
                )
            elif kind == RANDOM:
                phases.append(
                    Phase(
                        region,
                        RANDOM,
                        working_set=int(rng.integers(4, 64)) * KB,
                        accesses=int(self.size * rng.integers(400, 2_500)),
                        work_per_access=int(rng.integers(120, 400)),
                        dep=int(rng.integers(1, 8)),
                    )
                )
            else:  # CHASE
                phases.append(
                    Phase(
                        region,
                        CHASE,
                        working_set=int(rng.integers(1, 4)) * MB,
                        accesses=int(self.size * rng.integers(80, 400)),
                        work_per_access=int(rng.integers(40, 200)),
                    )
                )
        return phases

    @property
    def phases(self) -> List[Phase]:
        """The drawn phases (replayable program description)."""
        return self._inner.phases

    def instructions(self, config: MachineConfig) -> Iterator[Block]:
        """Yield the drawn program's stream."""
        return self._inner.instructions(config)
