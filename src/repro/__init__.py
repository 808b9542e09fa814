"""EMPROF reproduction: memory profiling via EM emanations (MICRO 2018).

The package is organized as the paper's system is:

* :mod:`repro.sim` - SESC-like cycle-level machine producing a power
  side-channel trace plus ground-truth miss/stall records.
* :mod:`repro.emsignal` - EM signal chain: emission synthesis, probe /
  channel distortions, bandwidth-limited receiver, DSP helpers.
* :mod:`repro.core` - EMPROF itself: normalization, stall detection,
  profiling reports, validation metrics.
* :mod:`repro.workloads` - microbenchmark, SPEC CPU2000 models, boot.
* :mod:`repro.attribution` - spectral code attribution (Table V).
* :mod:`repro.baselines` - perf-style sampled hardware counters.
* :mod:`repro.devices` - Alcatel / Samsung / Olimex presets (Table I).
* :mod:`repro.experiments` - drivers regenerating every table/figure.

Quickstart::

    from repro import Emprof, Microbenchmark, simulate
    from repro.devices import olimex

    result = simulate(Microbenchmark(total_misses=256, consecutive_misses=5),
                      olimex())
    profile = Emprof.from_simulation(result).profile()
    print(profile.summary())
"""

import importlib

__version__ = "1.0.0"

#: Quickstart name -> the module that defines it.  They load on first
#: use, so importing a light submodule (``repro.devtools.lint``, say)
#: does not pull in numpy and scipy.  Even a heavy one loads only
#: ``scipy.ndimage``: ``scipy.signal`` waits for the first DSP call
#: (``repro.emsignal.dsp``).
_LAZY = {
    "Emprof": ".core.profiler",
    "StreamingEmprof": ".core.streaming",
    "Machine": ".sim.machine",
    "SimulationResult": ".sim.machine",
    "simulate": ".sim.machine",
    "Microbenchmark": ".workloads.microbenchmark",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(_LAZY[name], __name__), name)

__all__ = [
    "Emprof",
    "StreamingEmprof",
    "Machine",
    "SimulationResult",
    "simulate",
    "Microbenchmark",
    "__version__",
]
