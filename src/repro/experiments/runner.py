"""Shared experiment drivers: workload -> signal -> profile.

Two measurement paths, matching the paper's methodology:

* :func:`run_simulator` - the Section V-C path: EMPROF analyzes the
  simulator's power trace directly (clean signal, ground truth
  attached).
* :func:`run_device` - the Section V-B / VI path: the power trace is
  pushed through the EM apparatus (emission model, probe channel,
  bandwidth-limited receiver) and EMPROF analyzes the received
  capture, exactly as it would a physical recording.

A physical bench fails in ways a simulator never does - the SDR
driver drops a buffer, USB hiccups, the probe gets bumped - so
acquisition is wrapped in :func:`acquire_with_retry`: transient
failures (:class:`repro.errors.AcquisitionError` with
``transient=True``) are retried with bounded exponential backoff,
permanent ones (missing hardware, corrupt files) fail fast.  Campaign
orchestration with checkpoint/resume lives in
:mod:`repro.experiments.campaign`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from ..core.markers import MarkerWindow, find_marker_window
from ..core.profiler import Emprof, EmprofConfig
from ..core.events import ProfileReport
from ..errors import AcquisitionError
from ..obs import metrics as _metrics, trace as _trace
from ..devices.models import default_channel
from ..emsignal.apparatus import Apparatus
from ..emsignal.channel import ChannelConfig
from ..emsignal.receiver import Capture, MHZ
from ..emsignal.synth import EmissionModel
from ..sim.config import MachineConfig
from ..sim.machine import Machine, SimulationResult
from ..workloads.base import Workload

_EXPERIMENT_RUNS = _metrics.counter(
    "experiment_runs_total", "run_simulator()/run_device() invocations"
)
_ACQUIRE_RETRIES = _metrics.counter(
    "acquisition_retries_total", "transient acquisition failures retried"
)
_ACQUIRE_FAILURES = _metrics.counter(
    "acquisition_failures_total", "acquisitions abandoned after all retries"
)
_RUN_WALL_TIME = _metrics.gauge(
    "experiment_wall_time_seconds", "last experiment driver's wall time"
)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry-with-backoff for transient acquisition failures.

    Attributes:
        max_attempts: total tries, including the first (1 = no retry).
        backoff_base_s: sleep before the first retry.
        backoff_factor: multiplier applied to the sleep per retry.
    """

    max_attempts: int = 3
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.backoff_base_s < 0:
            raise ValueError("backoff_base_s cannot be negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be at least 1")

    def delay(self, attempt: int) -> float:
        """Sleep before retry number ``attempt`` (1-based)."""
        return self.backoff_base_s * self.backoff_factor ** (attempt - 1)


def acquire_with_retry(
    source,
    policy: Optional[RetryPolicy] = None,
    sleep: Callable[[float], None] = time.sleep,
) -> Capture:
    """Acquire from ``source``, retrying transient failures.

    Only :class:`repro.errors.AcquisitionError` subclasses with
    ``transient=True`` (driver overruns, USB resets) are retried;
    permanent failures - :class:`repro.errors.HardwareMissingError`,
    :class:`repro.errors.CorruptCaptureError` - and non-acquisition
    exceptions propagate immediately.  ``sleep`` is injectable so
    tests (and event-loop integrations) can skip real waiting.
    """
    pol = policy if policy is not None else RetryPolicy()
    attempt = 1
    while True:
        try:
            return source.capture()
        except AcquisitionError as exc:
            if not exc.transient or attempt >= pol.max_attempts:
                _ACQUIRE_FAILURES.inc()
                raise
            _ACQUIRE_RETRIES.inc()
            sleep(pol.delay(attempt))
            attempt += 1


@dataclass(frozen=True)
class SimulatedCaptureSource:
    """A picklable ``SignalSource``: simulate a workload, measure it.

    The campaign daemon (:mod:`repro.experiments.service`) builds
    these from line-JSON ``submit`` payloads, so - unlike the ad-hoc
    lambdas tests use - every field is a plain scalar and the object
    survives pickling into any worker, not just fork-inherited ones.
    Mirrors the ``repro capture`` CLI path: workload -> simulator ->
    EM apparatus -> :class:`~repro.emsignal.receiver.Capture`.

    Attributes:
        workload: ``micro``, ``boot``, or a SPEC benchmark name.
        device: a :data:`repro.devices.DEVICE_NAMES` entry
            (``alcatel`` / ``samsung`` / ``olimex``).
        tm / cm: total / consecutive misses (micro workload only).
        scale: workload scale factor (boot / SPEC workloads).
        seed: simulation + channel seed.
        bandwidth_mhz: receiver bandwidth.

    Raises:
        ValueError: unknown workload or device name (at
            :meth:`capture` time, where the registries are consulted).
    """

    workload: str = "micro"
    device: str = "olimex"
    tm: int = 16
    cm: int = 16
    scale: float = 1.0
    seed: int = 0
    bandwidth_mhz: float = 40.0

    def _build_workload(self) -> Workload:
        from ..workloads import (
            BootWorkload,
            Microbenchmark,
            SPEC_BENCHMARKS,
            spec_workload,
        )

        if self.workload == "micro":
            return Microbenchmark(
                total_misses=self.tm,
                consecutive_misses=self.cm,
                seed=self.seed,
            )
        if self.workload == "boot":
            return BootWorkload(seed=self.seed, scale=self.scale)
        if self.workload in SPEC_BENCHMARKS:
            return spec_workload(
                self.workload, seed=self.seed or 11, scale=self.scale
            )
        raise ValueError(
            f"unknown workload {self.workload!r}; expected 'micro', "
            f"'boot' or one of {', '.join(SPEC_BENCHMARKS)}"
        )

    def capture(self) -> Capture:
        from ..devices import DEVICE_NAMES, by_name
        from ..emsignal import measure
        from ..sim.machine import simulate

        if self.device not in DEVICE_NAMES:
            raise ValueError(
                f"unknown device {self.device!r}; expected one of "
                f"{', '.join(DEVICE_NAMES)}"
            )
        device = by_name(self.device)
        result = simulate(self._build_workload(), device, seed=self.seed)
        return measure(
            result,
            bandwidth_hz=self.bandwidth_mhz * MHZ,
            channel=default_channel(device.name, seed=self.seed),
        )


@dataclass
class ExperimentRun:
    """Everything one measurement produced.

    Attributes:
        result: the simulation (power trace + ground truth).
        capture: the EM capture, when the device path was used.
        emprof: the configured profiler over whichever signal EMPROF
            analyzed.
        report: the whole-signal profile.
        wall_time_s: end-to-end driver wall time (simulate + measure +
            profile), fed into campaign telemetry and the run ledger.
    """

    result: SimulationResult
    capture: Optional[Capture]
    emprof: Emprof
    report: ProfileReport
    wall_time_s: float = 0.0

    @property
    def signal(self):
        """The magnitude signal EMPROF analyzed."""
        return self.emprof.signal

    @property
    def sample_period_cycles(self) -> float:
        """Processor cycles per analyzed sample."""
        return self.emprof.sample_period_cycles


def _experiment_done(run, _elapsed_s, _attrs):
    _EXPERIMENT_RUNS.inc()
    _RUN_WALL_TIME.set(run.wall_time_s)
    return {"stalls": len(run.report.stalls), "wall_time_s": run.wall_time_s}


@_trace.instrumented(
    "run_simulator",
    attrs=lambda workload, **_: {"workload": getattr(workload, "name", "?")},
    on_exit=_experiment_done,
    run_events=True,
)
def run_simulator(
    workload: Workload,
    config: Optional[MachineConfig] = None,
    emprof_config: Optional[EmprofConfig] = None,
    seed: int = 0,
) -> ExperimentRun:
    """Simulate and profile the raw power trace (Section V-C path)."""
    from ..devices.models import sesc

    begin = time.perf_counter()
    machine = Machine(config if config is not None else sesc(), seed=seed)
    result = machine.run(workload)
    emprof = Emprof.from_simulation(result, config=emprof_config)
    run = ExperimentRun(
        result=result, capture=None, emprof=emprof, report=emprof.profile()
    )
    run.wall_time_s = time.perf_counter() - begin
    return run


@_trace.instrumented(
    "run_device",
    attrs=lambda workload, device, bandwidth_hz, **_: {
        "workload": getattr(workload, "name", "?"),
        "device": device.name,
        "bandwidth_hz": bandwidth_hz,
    },
    on_exit=_experiment_done,
    run_events=True,
)
def run_device(
    workload: Workload,
    device: MachineConfig,
    bandwidth_hz: float = 40 * MHZ,
    channel: Optional[ChannelConfig] = None,
    emission: Optional[EmissionModel] = None,
    emprof_config: Optional[EmprofConfig] = None,
    seed: int = 0,
) -> ExperimentRun:
    """Simulate, measure through the EM apparatus, and profile.

    The channel defaults to the device's probe setup (see
    :func:`repro.devices.default_channel`).
    """
    begin = time.perf_counter()
    machine = Machine(device, seed=seed)
    result = machine.run(workload)
    apparatus = Apparatus(
        emission=emission if emission is not None else EmissionModel(),
        channel=(
            channel
            if channel is not None
            else default_channel(device.name, seed=seed)
        ),
        bandwidth_hz=bandwidth_hz,
    )
    capture = apparatus.measure(result)
    emprof = Emprof.from_capture(capture, config=emprof_config)
    run = ExperimentRun(
        result=result, capture=capture, emprof=emprof, report=emprof.profile()
    )
    run.wall_time_s = time.perf_counter() - begin
    return run


def microbenchmark_window(
    run: ExperimentRun, marker_min_samples: int = 200
) -> Tuple[ProfileReport, MarkerWindow]:
    """Isolate the marker-bracketed window and profile only it.

    This is how Table II counts are produced: the measurement window
    between the two blank loops is found *from the signal*, then
    detection is restricted to it.
    """
    window = find_marker_window(run.signal, marker_min_samples=marker_min_samples)
    report = run.emprof.profile_window(window.begin_sample, window.end_sample)
    return report, window


def window_cycles(run: ExperimentRun, window: MarkerWindow) -> Tuple[float, float]:
    """The marker window as (begin, end) cycles for validation."""
    period = run.sample_period_cycles
    return window.begin_sample * period, window.end_sample * period
