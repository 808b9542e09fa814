"""Workloads that run on the simulated machine.

* :class:`Microbenchmark` - the TM/CM validation microbenchmark (Fig. 6)
* :mod:`repro.workloads.spec` - synthetic SPEC CPU2000 behaviour models
* :mod:`repro.workloads.boot` - device boot sequence (Fig. 13)
* :mod:`repro.workloads.base` - the Workload protocol + block builders
* :func:`workload_by_name` - a workload from its command-line name
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



def workload_by_name(
    name: str, tm: int, cm: int, scale: float, seed: int
) -> Workload:
    """The workload a capture names: ``micro``, ``boot`` or a SPEC model.

    ``tm``/``cm`` size the microbenchmark and ``scale`` the boot and
    SPEC runs.  A SPEC model takes ``seed`` as its address seed, except
    that seed 0 keeps the model's stock seed 11, so a default capture
    runs the same model the tables do.

    Raises:
        ValueError: ``name`` is none of the above.
    """
    if name == "micro":
        return Microbenchmark(total_misses=tm, consecutive_misses=cm, seed=seed)
    if name == "boot":
        return BootWorkload(seed=seed, scale=scale)
    if name in SPEC_BENCHMARKS:
        return spec_workload(name, seed=seed or 11, scale=scale)
    raise ValueError(
        f"unknown workload {name!r}; expected 'micro', 'boot' or one of "
        f"{', '.join(SPEC_BENCHMARKS)}"
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
    "workload_by_name",
]
