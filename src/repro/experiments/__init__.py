"""Experiment drivers regenerating every table and figure.

* :mod:`repro.experiments.runner` - shared simulate/measure/profile
  drivers (the Section V-B and V-C measurement paths) plus
  retry-with-backoff acquisition.
* :mod:`repro.experiments.campaign` - checkpointed multi-run
  campaigns with resume: one supervised job queue, in-process at one
  worker and across forked workers beyond.
* :mod:`repro.experiments.service` - the ``repro-campaignd`` daemon:
  a fault-tolerant job queue over supervised campaigns.
* :mod:`repro.experiments.tables` - Tables I-V row generators plus the
  perf anecdote.
* :mod:`repro.experiments.figures` - Figs. 1-14 series generators.
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
from .service import CampaignService, build_specs, expand_matrix
from .tables import (
    DEVICE_ORDER,
    MICRO_GRID,
    PerfAnecdote,
    Table2Row,
    Table3Row,
    Table4Row,
    format_table2,
    format_table3,
    format_table4,
    perf_anecdote,
    table1_rows,
    table2_rows,
    table3_micro_rows,
    table3_spec_rows,
    table4_rows,
    table5_rows,
)

__all__ = [
    "ExperimentRun",
    "RetryPolicy",
    "SimulatedCaptureSource",
    "acquire_with_retry",
    "Campaign",
    "CampaignExecution",
    "CampaignResult",
    "CampaignService",
    "RunOutcome",
    "RunSpec",
    "build_specs",
    "expand_matrix",
    "run_simulator",
    "run_device",
    "microbenchmark_window",
    "window_cycles",
    "DEVICE_ORDER",
    "MICRO_GRID",
    "table1_rows",
    "table2_rows",
    "table3_micro_rows",
    "table3_spec_rows",
    "table4_rows",
    "table5_rows",
    "perf_anecdote",
    "PerfAnecdote",
    "Table2Row",
    "Table3Row",
    "Table4Row",
    "format_table2",
    "format_table3",
    "format_table4",
]
