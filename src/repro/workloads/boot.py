"""Boot-sequence workload (Fig. 13).

"One of the most promising aspects of EMPROF is its ability to profile
hard-to-profile runs, such as the boot sequence of the device"
(Section VI-C).  No OS profiling support exists during boot, and even
hardware counters are uninitialized; EMPROF works because the EM
signal exists from the first fetch.

The model strings together the characteristic stages of an embedded
Linux boot on an A13-class board, each with its own miss intensity:

1. ``rom_stub`` - mask-ROM loader: tiny code, cold caches, bursty
   I-fetch misses;
2. ``bootloader`` - u-boot: DRAM init + sequential image copy (heavy
   streaming misses);
3. ``kernel_decompress`` - tight decompression loop sweeping a large
   image (sustained high miss rate);
4. ``kernel_init`` - driver probing: alternating compute and cold
   structure walks (spiky);
5. ``userspace_init`` - init + services: declining miss rate as the
   working set warms.

Run-to-run variation (the two distinct runs of Fig. 13) comes from the
seed: phase lengths jitter by a few percent and all address
randomization changes, like real boots differ in device-probe timing.
"""

from __future__ import annotations

from typing import Dict, Iterator, List

import numpy as np

from ..sim.config import MachineConfig
from ..sim.isa import Block
from .spec import (
    CHASE,
    CODESWEEP,
    COMPUTE,
    HOTCOLD,
    KB,
    MB,
    Phase,
    STREAM,
    SpecWorkload,
)


class BootWorkload:
    """One simulated boot of the IoT device.

    Args:
        seed: run identity; two different seeds are "two distinct
            runs" in the Fig. 13 sense.
        scale: multiplies phase lengths (1.0 is the bench default).
    """

    def __init__(self, seed: int = 0, scale: float = 1.0):
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.seed = seed
        self.scale = scale
        self.name = f"boot_run{seed}"
        self._inner = SpecWorkload(
            name=self.name, phases=self._phases(), seed=seed + 1000
        )
        self.region_names: Dict[int, str] = self._inner.region_names

    def _phases(self) -> List[Phase]:
        rng = np.random.default_rng(self.seed)

        def jitter(n: int) -> int:
            """+-8% run-to-run variation in phase length."""
            return max(1, int(n * self.scale * rng.uniform(0.92, 1.08)))

        return [
            Phase("rom_stub", CODESWEEP, footprint=24 * KB, passes=1),
            Phase(
                "bootloader",
                STREAM,
                bytes_total=jitter(320 * KB),
                stride=128,
                passes=1,
                work_per_access=6,
                dep=2,
                store_ratio=0.4,
            ),
            Phase(
                "kernel_decompress",
                STREAM,
                bytes_total=jitter(512 * KB),
                stride=128,
                passes=1,
                work_per_access=10,
                dep=2,
                store_ratio=0.5,
            ),
            Phase(
                "kernel_init",
                HOTCOLD,
                hot_bytes=128 * KB,
                cold_bytes=jitter(1 * MB),
                cold_fraction=0.25,
                accesses=jitter(4_000),
                work_per_access=14,
                dep=3,
            ),
            Phase(
                "driver_probe",
                CHASE,
                working_set=jitter(768 * KB),
                accesses=jitter(600),
                work_per_access=8,
            ),
            Phase(
                "userspace_init",
                HOTCOLD,
                hot_bytes=16 * KB,
                cold_bytes=jitter(384 * KB),
                cold_fraction=0.015,
                accesses=jitter(5_000),
                work_per_access=30,
                dep=4,
            ),
            Phase("idle_services", COMPUTE, n_instructions=jitter(1_200_000)),
        ]

    def instructions(self, config: MachineConfig) -> Iterator[Block]:
        """Yield the boot instruction stream."""
        return self._inner.instructions(config)
