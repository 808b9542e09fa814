"""Workloads that run on the simulated machine.

* :class:`Microbenchmark` - the TM/CM validation microbenchmark (Fig. 6)
* :mod:`repro.workloads.spec` - synthetic SPEC CPU2000 behaviour models
* :mod:`repro.workloads.boot` - device boot sequence (Fig. 13)
* :mod:`repro.workloads.base` - the Workload protocol + block builders
"""

from .base import (
    StreamWorkload,
    Workload,
    compute_block,
    repeat,
    tight_loop,
)
from .boot import BootWorkload
from .microbenchmark import Microbenchmark
from .synthetic import RandomWorkload
from .spec import (
    Phase,
    SPEC_BENCHMARKS,
    SpecWorkload,
    all_spec_workloads,
    spec_workload,
)

__all__ = [
    "BootWorkload",
    "Phase",
    "SPEC_BENCHMARKS",
    "SpecWorkload",
    "RandomWorkload",
    "all_spec_workloads",
    "spec_workload",
    "Workload",
    "StreamWorkload",
    "Microbenchmark",
    "repeat",
    "tight_loop",
    "compute_block",
]
