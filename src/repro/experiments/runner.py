"""Shared experiment drivers: workload -> signal -> profile.

Two measurement paths, matching the paper's methodology:

* :func:`run_simulator` - the Section V-C path: EMPROF analyzes the
  simulator's power trace directly (clean signal, ground truth
  attached).
* :func:`run_device` - the Section V-B / VI path: the power trace is
  pushed through the EM apparatus (emission model, probe channel,
  bandwidth-limited receiver) and EMPROF analyzes the received
  capture, exactly as it would a physical recording.  Its first half,
  :func:`simulate_and_measure`, is also what ``repro capture`` and
  :class:`SimulatedCaptureSource` run.

:func:`run_attributed` adds spectral code attribution on top of
:func:`run_device` (Table V, Fig. 14, ``repro attribute``).

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

from ..attribution.spectral import RegionTimeline, SpectralProfiler
from ..core.markers import MarkerWindow, find_marker_window
from ..core.profiler import Emprof, EmprofConfig
from ..core.events import ProfileReport
from ..errors import AcquisitionError
from ..obs import trace as _trace
from ..devices.models import by_name, default_channel
from ..emsignal.apparatus import measure
from ..emsignal.channel import ChannelConfig
from ..emsignal.receiver import Capture, MHZ
from ..emsignal.synth import EmissionModel
from ..sim.config import MachineConfig
from ..sim.machine import Machine, SimulationResult
from ..workloads import workload_by_name
from ..workloads.base import Workload
from ..workloads.spec import SpecWorkload

#: STFT window of the spectral attribution, in samples.
SPECTRAL_WINDOW_SAMPLES = 128


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
    tests (and event-loop integrations) can skip real waiting.  The
    ``acquire`` span records how many ``attempts`` were made.
    """
    pol = policy if policy is not None else RetryPolicy()
    attempt = 1
    with _trace.span("acquire") as span:
        while True:
            span.set_attr(attempts=attempt)
            try:
                return source.capture()
            except AcquisitionError as exc:
                if not exc.transient or attempt >= pol.max_attempts:
                    raise
            sleep(pol.delay(attempt))
            attempt += 1


def simulate_and_measure(
    workload: Workload,
    device: MachineConfig,
    bandwidth_hz: float = 40 * MHZ,
    channel: Optional[ChannelConfig] = None,
    emission: Optional[EmissionModel] = None,
    seed: int = 0,
) -> Tuple[SimulationResult, Capture]:
    """Run ``workload`` on ``device`` and record it through the EM apparatus.

    The channel defaults to the device's probe setup (see
    :func:`repro.devices.default_channel`).
    """
    result = Machine(device, seed=seed).run(workload)
    if channel is None:
        channel = default_channel(device.name, seed=seed)
    return result, measure(result, bandwidth_hz, channel, emission)


@dataclass(frozen=True)
class SimulatedCaptureSource:
    """A picklable ``SignalSource``: simulate a workload, measure it.

    The campaign daemon (:mod:`repro.experiments.service`) builds
    these from line-JSON ``submit`` payloads, so - unlike the ad-hoc
    lambdas tests use - every field is a plain scalar and the object
    survives pickling into any worker, not just fork-inherited ones.
    Runs the ``repro capture`` CLI path:
    :func:`repro.workloads.workload_by_name`, then
    :func:`simulate_and_measure`.

    Attributes:
        workload: ``micro``, ``boot``, or a SPEC benchmark name.
        device: a :data:`repro.devices.DEVICE_NAMES` entry
            (``alcatel`` / ``samsung`` / ``olimex``).
        tm / cm: total / consecutive misses (micro workload only).
        scale: workload scale factor (boot / SPEC workloads).
        seed: simulation + channel seed.
        bandwidth_mhz: receiver bandwidth.

    Raises:
        ValueError: at construction, for an unknown workload or device
            name, a ``tm``, ``cm``, ``scale`` or ``bandwidth_mhz`` that
            is not positive, or a microbenchmark whose ``cm`` exceeds
            its ``tm`` - so a bad campaign payload is refused when it
            is submitted, not in every worker that tries to run it.
    """

    workload: str = "micro"
    device: str = "olimex"
    tm: int = 16
    cm: int = 16
    scale: float = 1.0
    seed: int = 0
    bandwidth_mhz: float = 40.0

    def __post_init__(self) -> None:
        for name in ("tm", "cm", "scale", "bandwidth_mhz"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"{name} must be positive, not {value!r}")
        by_name(self.device)
        self._workload()

    def _workload(self) -> Workload:
        return workload_by_name(
            self.workload, self.tm, self.cm, self.scale, self.seed
        )

    def capture(self) -> Capture:
        _, capture = simulate_and_measure(
            self._workload(),
            by_name(self.device),
            bandwidth_hz=self.bandwidth_mhz * MHZ,
            seed=self.seed,
        )
        return capture


@dataclass
class ExperimentRun:
    """Everything one measurement produced.

    Attributes:
        result: the simulation (power trace + ground truth).
        capture: the EM capture, when the device path was used.
        emprof: the configured profiler over whichever signal EMPROF
            analyzed.
        report: the whole-signal profile.
    """

    result: SimulationResult
    capture: Optional[Capture]
    emprof: Emprof
    report: ProfileReport

    @property
    def signal(self):
        """The magnitude signal EMPROF analyzed."""
        return self.emprof.signal

    @property
    def sample_period_cycles(self) -> float:
        """Processor cycles per analyzed sample."""
        return self.emprof.sample_period_cycles


def _experiment_done(run, _elapsed_s, _attrs):
    return {"stalls": run.report.miss_count}


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

    machine = Machine(config if config is not None else sesc(), seed=seed)
    result = machine.run(workload)
    emprof = Emprof.from_simulation(result, config=emprof_config)
    return ExperimentRun(
        result=result, capture=None, emprof=emprof, report=emprof.profile()
    )


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

    See :func:`simulate_and_measure` for the defaults of ``channel`` and
    ``emission``.
    """
    result, capture = simulate_and_measure(
        workload, device, bandwidth_hz, channel, emission, seed
    )
    emprof = Emprof.from_capture(capture, config=emprof_config)
    return ExperimentRun(
        result=result, capture=capture, emprof=emprof, report=emprof.profile()
    )


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


def run_attributed(
    workload: SpecWorkload,
    device: MachineConfig,
    bandwidth_hz: float = 40 * MHZ,
    seed: int = 0,
) -> Tuple[ExperimentRun, RegionTimeline]:
    """Spectral-profiling attribution of ``workload`` (Table V, Fig. 14).

    Training captures come from running each phase alone on the same
    device; the whole workload then runs on the device path, and its
    signal is attributed to regions.
    """
    profiler = SpectralProfiler(
        window_samples=SPECTRAL_WINDOW_SAMPLES, overlap=0.5, smoothing_frames=7
    )
    for phase in workload.phases:
        solo = SpecWorkload(
            name=f"train_{phase.region}", phases=[phase], seed=workload.seed
        )
        train = run_device(solo, device, bandwidth_hz=bandwidth_hz, seed=seed)
        profiler.train(phase.region, train.signal, train.capture.sample_rate_hz)
    run = run_device(workload, device, bandwidth_hz=bandwidth_hz, seed=seed)
    return run, profiler.attribute(run.signal, run.capture.sample_rate_hz)
