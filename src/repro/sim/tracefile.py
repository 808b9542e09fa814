"""Instruction-trace recording and replay.

Workload generators are procedural; for reproducibility across
machines (and to feed the simulator from externally produced traces,
e.g. a binary-instrumentation run on real hardware), dynamic
instruction streams can be recorded to a columnar ``.npz`` file and
replayed later.  A :class:`TraceWorkload` replays a file through the
standard :class:`~repro.sim.machine.Machine` interface.

The file holds one array per :class:`~repro.sim.isa.Instr` field
(format ``emprof-trace-v1``), which is exactly the column layout of a
:class:`~repro.sim.isa.Block`: recording concatenates the stream's
blocks and replay hands out slices of the loaded arrays.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, Iterator, Optional, Union

import numpy as np

from .config import MachineConfig
from .isa import BLOCK_SIZE, Block, Instr, blocks

_TRACE_FORMAT = "emprof-trace-v1"

PathLike = Union[str, Path]


def save_trace(
    path: PathLike,
    instructions: Iterable[Union[Block, Instr]],
    region_names: Optional[Dict[int, str]] = None,
    name: str = "trace",
) -> int:
    """Record an instruction stream to ``path``; returns the count."""
    parts = list(blocks(instructions))
    whole = Block.concat(parts) if parts else Block.from_instrs([])
    np.savez_compressed(
        path,
        format=_TRACE_FORMAT,
        name=name,
        op=whole.op.astype(np.int8),
        pc=whole.pc,
        addr=whole.addr,
        dep=whole.dep,
        weight=whole.weight,
        region=whole.region.astype(np.int32),
        region_names=json.dumps({str(k): v for k, v in (region_names or {}).items()}),
    )
    return len(whole)


def record_workload(path: PathLike, workload, config: MachineConfig) -> int:
    """Record a workload's stream for ``config``; returns the count."""
    count = save_trace(
        path,
        workload.instructions(config),
        region_names=getattr(workload, "region_names", None),
        name=getattr(workload, "name", "trace"),
    )
    return count


class TraceWorkload:
    """Replay a recorded trace through the simulator.

    The trace is loaded once into one :class:`Block`;
    :meth:`instructions` yields it in ``BLOCK_SIZE`` slices (views, no
    copies), so replay costs no generation work.
    """

    def __init__(self, path: PathLike):
        with np.load(path, allow_pickle=False) as data:
            fmt = str(data["format"])
            if fmt != _TRACE_FORMAT:
                raise ValueError(f"not an EMPROF trace file (format={fmt!r})")
            self.name = str(data["name"])
            self._block = Block(
                *(data[key] for key in ("op", "pc", "addr", "dep", "weight", "region"))
            )
            self.region_names: Dict[int, str] = {
                int(k): v for k, v in json.loads(str(data["region_names"])).items()
            }

    def __len__(self) -> int:
        return len(self._block)

    def instructions(self, config: MachineConfig) -> Iterator[Block]:
        """Replay the recorded stream (``config`` is ignored: the trace
        is already concrete)."""
        for lo in range(0, len(self._block), BLOCK_SIZE):
            yield self._block[lo : lo + BLOCK_SIZE]
