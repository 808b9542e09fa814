"""Experiment drivers regenerating every table and figure.

* :mod:`repro.experiments.runner` - the one simulate/measure/profile
  path (the Section V-B and V-C measurement paths, spectral
  attribution) plus retry-with-backoff acquisition.
* :mod:`repro.experiments.campaign` - checkpointed multi-run
  campaigns with resume: one supervised job queue, in-process at one
  worker and across forked workers beyond.
* :mod:`repro.experiments.service` - the ``repro-campaignd`` daemon:
  a fault-tolerant job queue over supervised campaigns.
* :mod:`repro.experiments.tables` - Tables I-V row generators plus the
  perf anecdote.
* :mod:`repro.experiments.figures` - Figs. 1-14 series generators.
* :mod:`repro.experiments.reportgen` - ``ARTIFACTS``, the one registry
  of archived artifacts, and ``results.md`` generation.

The table and figure drivers, and the daemon, are imported from their
modules; this package re-exports the campaign and runner surface only.
Re-exporting the daemon would load ``repro.experiments.service``
before ``python -m`` runs it, so it would run as a second copy.
"""

from .campaign import (
    Campaign,
    CampaignExecution,
    CampaignResult,
    RunOutcome,
    RunSpec,
)
from .runner import (
    ExperimentRun,
    RetryPolicy,
    SimulatedCaptureSource,
    acquire_with_retry,
    microbenchmark_window,
    run_device,
    run_simulator,
    window_cycles,
)

__all__ = [
    "ExperimentRun",
    "RetryPolicy",
    "SimulatedCaptureSource",
    "acquire_with_retry",
    "Campaign",
    "CampaignExecution",
    "CampaignResult",
    "RunOutcome",
    "RunSpec",
    "run_simulator",
    "run_device",
    "microbenchmark_window",
    "window_cycles",
]
