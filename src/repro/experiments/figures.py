"""Series generators for every figure in the paper's evaluation.

Each ``figN_*`` function runs the experiment and returns the numeric
series the figure plots, plus the scalar facts the paper states about
it; bench code asserts those facts.  Nothing here draws - the series
are plain numpy arrays a notebook can plot directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..attribution.spectral import RegionTimeline
from ..core.normalize import moving_average
from ..core.profiler import Emprof
from ..core.refresh import refresh_stats
from ..core.stats import latency_histogram
from ..devices.models import alcatel, by_name, default_channel, olimex, sesc
from ..emsignal.apparatus import measure
from ..emsignal.memprobe import memory_probe_signal
from ..emsignal.receiver import MHZ, PAPER_BANDWIDTHS_HZ
from ..emsignal.spectrogram import Spectrogram, compute_spectrogram
from ..obs import trace as _trace
from ..sim.config import MachineConfig
from ..sim.isa import NO_CONSUMER, alu, branch, load
from ..sim.machine import Machine
from ..workloads.base import StreamWorkload
from ..workloads.boot import BootWorkload
from ..workloads.microbenchmark import Microbenchmark
from ..workloads.spec import spec_workload
from .runner import (
    SPECTRAL_WINDOW_SAMPLES,
    ExperimentRun,
    microbenchmark_window,
    run_attributed,
    run_device,
    run_simulator,
)
from .tables import DeviceRun, device_runs


@dataclass
class SignalFigure:
    """A signal excerpt with its axes and annotations.

    Attributes:
        signal: magnitude samples.
        sample_rate_hz: sampling rate of ``signal``.
        moving_avg: smoothed overlay (the red curve of Fig. 1).
        annotations: named scalar facts about the excerpt.
    """

    signal: np.ndarray
    sample_rate_hz: float
    moving_avg: Optional[np.ndarray] = None
    annotations: Dict[str, float] = field(default_factory=dict)


def _first_long_stall(
    run: ExperimentRun, min_cycles: float = 150.0, max_cycles: float = 800.0
):
    """A detected stall in an ordinary miss-latency band.

    The band excludes brief LLC-hit residue below and refresh
    collisions above; the search starts from the middle of the signal
    so the excerpt comes from steady-state execution (the prologue is
    a wall of page-touch stalls), showing a plain single-miss stall as
    Fig. 1 does.
    """
    half = len(run.signal) / 2
    for stall in run.report.stalls:
        if stall.begin_sample < half:
            continue
        if min_cycles <= stall.duration_cycles <= max_cycles:
            return stall
    for stall in run.report.stalls:
        if min_cycles <= stall.duration_cycles <= max_cycles:
            return stall
    raise RuntimeError("no stall in the requested duration band")


# -- Fig. 1: a stall dips the EM magnitude -----------------------------------


def fig1_stall_dip(
    tm: int = 64, seed: int = 0, context_samples: int = 120
) -> SignalFigure:
    """One LLC-miss stall in the Olimex EM signal, with moving average.

    The paper's Fig. 1: 40 MHz bandwidth around the 1.008 GHz clock;
    the dip between the dotted lines is the stall, whose duration
    times the clock frequency gives the stall cycle count.
    """
    workload = Microbenchmark(total_misses=tm, consecutive_misses=1,
                              blank_iterations=6000, gap_instructions=240)
    run = run_device(workload, olimex(), bandwidth_hz=40 * MHZ, seed=seed)
    stall = _first_long_stall(run)
    lo = max(0, int(stall.begin_sample) - context_samples)
    hi = min(len(run.signal), int(stall.end_sample) + context_samples)
    excerpt = run.signal[lo:hi]
    return SignalFigure(
        signal=excerpt,
        sample_rate_hz=run.emprof.sample_rate_hz,
        moving_avg=moving_average(excerpt, 9),
        annotations={
            "stall_begin_sample": stall.begin_sample - lo,
            "stall_end_sample": stall.end_sample - lo,
            "stall_cycles": stall.duration_cycles,
            "stall_seconds": stall.duration_cycles / run.emprof.clock_hz,
        },
    )


# -- Fig. 2: LLC-hit vs LLC-miss stalls in the simulator ----------------------


def _pointer_loop(n: int, resident: bool, line: int = 64) -> StreamWorkload:
    """The Section III-B probe loop: loads from array cache lines.

    ``resident=True`` is the small-array variant (Fig. 2a): the array
    is warmed once and stays LLC-resident, so each load is at worst an
    L1 miss serviced by the LLC.  ``resident=False`` is the big-array
    variant (Fig. 2b): every measured load targets a never-seen line
    and must go to main memory.
    """

    def factory(config):
        rng = np.random.default_rng(3)
        base = 0x4000_0000
        pc = 0x1000
        if resident:
            n_lines = max(2, (config.l1d.size_bytes * 4) // line)
            order = rng.permutation(n_lines)
            # Warm pass: bring the small array into the hierarchy.
            for k in range(n_lines):
                yield load(pc, base + int(order[k]) * line, dep=2, region=1)
                yield alu(pc + 4, region=1)
                yield branch(pc + 8, region=1)
            targets = [base + int(order[k % n_lines]) * line for k in range(n)]
        else:
            # Distinct pages: every measured load is a cold LLC miss.
            targets = [base + k * 8192 + line for k in range(n)]
        for addr in targets:
            # Enough address-generation work between loads that their
            # stall dips stay separable at 40 MHz on a 2-wide core.
            for j in range(240):
                yield alu(pc + 16 + 4 * (j % 8), region=2)
            yield load(pc + 48, addr, dep=2, region=2)
            yield branch(pc + 52, region=2)

    name = "llc_hit_loop" if resident else "llc_miss_loop"
    return StreamWorkload(name, factory, {1: "warm", 2: "measure"})


def fig2_hit_vs_miss(
    seed: int = 0, config: Optional[MachineConfig] = None
) -> Tuple[SignalFigure, SignalFigure]:
    """(LLC-hit signal, LLC-miss signal) from the simulator (Fig. 2).

    Same code, two array sizes: one fits the LLC (brief L1-miss
    stalls), one exceeds it (order-of-magnitude longer stalls).
    """
    cfg = config if config is not None else sesc()
    figures = []
    for resident in (True, False):
        run = run_simulator(_pointer_loop(60, resident), config=cfg, seed=seed)
        truth = run.result.ground_truth
        measure_id = 2
        stalls = [
            s for s in truth.memory_stalls() if s.region == measure_id
        ]
        brief = [
            s.duration
            for s in truth.stalls
            if not s.is_memory and s.region == measure_id
        ]
        # Excerpt: the tail of the signal (the measure loop runs last).
        tail = run.signal[-min(len(run.signal), 600):]
        figures.append(
            SignalFigure(
                signal=tail,
                sample_rate_hz=run.result.sample_rate_hz,
                annotations={
                    "memory_stalls": float(len(stalls)),
                    "mean_memory_stall_cycles": (
                        float(np.mean([s.duration for s in stalls]))
                        if stalls
                        else 0.0
                    ),
                    "mean_brief_stall_cycles": (
                        float(np.mean(brief)) if brief else 0.0
                    ),
                },
            )
        )
    return figures[0], figures[1]


# -- Fig. 3: hidden and overlapped misses --------------------------------------


@dataclass(frozen=True)
class Fig3Result:
    """Ground-truth accounting of hidden/overlapped misses.

    Attributes:
        total_misses: LLC misses issued.
        hidden_misses: misses that caused no stall (Fig. 3a).
        stalls: stall records produced.
        max_misses_per_stall: overlap degree (Fig. 3b).
        detected: stalls EMPROF found in the signal.
    """

    total_misses: int
    hidden_misses: int
    stalls: int
    max_misses_per_stall: int
    detected: int


def fig3a_hidden_misses(seed: int = 0) -> Fig3Result:
    """Dead loads under a large runahead window: misses with no stalls."""

    def factory(config):
        pc = 0x1000
        base = 0x5000_0000
        # Enough independent work after each dead load that the line
        # returns before MSHRs fill or any consumer appears.
        spacing = int(config.memory.access_latency * config.core.width * 0.4)
        for k in range(40):
            # Independent dead loads: nothing ever consumes them.
            yield load(pc, base + k * 4096 + 64, dep=NO_CONSUMER, region=1)
            for j in range(spacing):
                yield alu(pc + 8 + 4 * (j % 16), region=1)
            yield branch(pc + 4, region=1)

    return _fig3_result("hidden", factory, seed)


def fig3b_overlapped_misses(seed: int = 0) -> Fig3Result:
    """Simultaneous I-fetch and data LLC misses: one stall, two misses."""

    def factory(config):
        base = 0x6000_0000
        code = 0x0100_0000
        for k in range(30):
            # A data load targeting a cold line ...
            yield load(0x1000, base + k * 8192 + 128, dep=6, region=1)
            # ... immediately followed by a jump to cold code, so the
            # I-fetch miss overlaps the data miss in flight.
            for j in range(24):
                yield alu(code + k * 4096 + j * 4, region=1)
            # Fill time between overlap events from warm code.
            for j in range(300):
                yield alu(0x2000 + 4 * (j % 16), region=1)

    return _fig3_result("overlap", factory, seed)


def _fig3_result(name: str, factory, seed: int) -> Fig3Result:
    """Simulate one Fig. 3 stream (region 1, ``name``) and account it."""
    run = run_simulator(StreamWorkload(name, factory, {1: name}), seed=seed)
    truth = run.result.ground_truth
    mem_stalls = truth.memory_stalls()
    return Fig3Result(
        total_misses=truth.miss_count(),
        hidden_misses=truth.hidden_miss_count(),
        stalls=len(mem_stalls),
        max_misses_per_stall=max((len(s.miss_ids) for s in mem_stalls), default=0),
        detected=run.report.miss_count,
    )


# -- Fig. 4: hit vs miss on the physical path ----------------------------------


def fig4_physical_hit_vs_miss(seed: int = 0) -> Tuple[SignalFigure, SignalFigure]:
    """Fig. 2's experiment through the full EM chain on the Olimex model."""
    cfg = olimex()
    figures = []
    for resident in (True, False):
        run = run_device(
            _pointer_loop(60, resident), cfg, bandwidth_hz=40 * MHZ, seed=seed
        )
        half = len(run.signal) // 2
        durations = run.report.latencies_cycles()
        figures.append(
            SignalFigure(
                signal=run.signal[half:],
                sample_rate_hz=run.emprof.sample_rate_hz,
                annotations={
                    "detected_stalls": float(run.report.miss_count),
                    "mean_stall_ns": (
                        1e9 * float(durations.mean()) / cfg.clock_hz
                        if len(durations)
                        else 0.0
                    ),
                },
            )
        )
    return figures[0], figures[1]


# -- Fig. 5: refresh-coincident stalls ------------------------------------------


@dataclass(frozen=True)
class Fig5Result:
    """Refresh stall facts (Fig. 5 + Section III-C numbers)."""

    refresh_stalls: int
    mean_duration_us: float
    estimated_interval_us: Optional[float]
    excerpt: SignalFigure


def fig5_refresh(tm: int = 2000, seed: int = 0) -> Fig5Result:
    """Find refresh-coincident stalls on the Olimex model.

    The paper: such a stall lasts ~2-3 us and recurs at least every
    ~70 us while misses are flowing.
    """
    workload = Microbenchmark(
        total_misses=tm, consecutive_misses=tm, blank_iterations=8000,
        gap_instructions=2400,
    )
    run = run_device(workload, olimex(), bandwidth_hz=40 * MHZ, seed=seed)
    # Restrict to the marker-bracketed access window: the page-touch
    # prologue produces long MSHR blobs that are not refresh stalls.
    report, _ = microbenchmark_window(run)
    stats = refresh_stats(report.stalls)
    clock = run.emprof.clock_hz
    refresh = [s for s in report.stalls if s.is_refresh]
    if refresh:
        s = refresh[0]
        lo = max(0, int(s.begin_sample) - 80)
        hi = min(len(run.signal), int(s.end_sample) + 80)
        excerpt = SignalFigure(
            signal=run.signal[lo:hi],
            sample_rate_hz=run.emprof.sample_rate_hz,
            annotations={"duration_us": 1e6 * s.duration_cycles / clock},
        )
    else:
        excerpt = SignalFigure(
            signal=run.signal[:0], sample_rate_hz=run.emprof.sample_rate_hz
        )
    return Fig5Result(
        refresh_stalls=stats.count,
        mean_duration_us=1e6 * stats.mean_duration_cycles / clock,
        estimated_interval_us=(
            1e6 * stats.estimated_interval_cycles / clock
            if stats.estimated_interval_cycles
            else None
        ),
        excerpt=excerpt,
    )


# -- Fig. 7 / Fig. 8: microbenchmark signal, simulator vs device ---------------


@dataclass(frozen=True)
class Fig7Result:
    """Whole-run microbenchmark signal plus a CM-group zoom."""

    overview: SignalFigure
    zoom: SignalFigure
    detected_in_window: int
    expected: int


def _micro_run_figure(run: ExperimentRun, workload: Microbenchmark) -> Fig7Result:
    report, window = microbenchmark_window(run)
    stalls = report.stalls
    cm = workload.consecutive_misses
    if len(stalls) >= cm:
        lo = max(0, int(stalls[0].begin_sample) - 40)
        hi = min(len(run.signal), int(stalls[cm - 1].end_sample) + 40)
    else:
        lo, hi = window.begin_sample, min(window.begin_sample + 400, window.end_sample)
    return Fig7Result(
        overview=SignalFigure(
            signal=run.signal,
            sample_rate_hz=run.emprof.sample_rate_hz,
            annotations={
                "window_begin": float(window.begin_sample),
                "window_end": float(window.end_sample),
            },
        ),
        zoom=SignalFigure(
            signal=run.signal[lo:hi], sample_rate_hz=run.emprof.sample_rate_hz
        ),
        detected_in_window=report.miss_count,
        expected=workload.total_misses,
    )


def fig7_microbenchmark_signal(
    tm: int = 100, cm: int = 10, seed: int = 0
) -> Fig7Result:
    """The Fig. 7 capture: one microbenchmark run on the Olimex model."""
    workload = _fig7_workload(tm, cm)
    run = run_device(workload, olimex(), bandwidth_hz=40 * MHZ, seed=seed)
    return _micro_run_figure(run, workload)


def fig8_sim_vs_device(
    tm: int = 100, cm: int = 10, seed: int = 0
) -> Tuple[Fig7Result, Fig7Result]:
    """(simulator, device) signals of the Fig. 7 microbenchmark (Fig. 8)."""
    workload = _fig7_workload(tm, cm)
    sim = _micro_run_figure(run_simulator(workload, seed=seed), workload)
    return sim, fig7_microbenchmark_signal(tm, cm, seed)


def _fig7_workload(tm: int, cm: int) -> Microbenchmark:
    """The microbenchmark Figs. 7 and 8 capture."""
    return Microbenchmark(
        total_misses=tm, consecutive_misses=cm, blank_iterations=12_000,
        gap_instructions=120,
    )


# -- Fig. 10: dual probe --------------------------------------------------------


@dataclass(frozen=True)
class Fig10Result:
    """Simultaneous processor and memory signals (Fig. 10).

    ``coincidence`` is the fraction of detected processor-stall dips
    during which the memory probe shows activity - the check that
    dips really are memory accesses (Section V-D).
    """

    processor: SignalFigure
    memory: SignalFigure
    coincidence: float


def fig10_dual_probe(tm: int = 60, cm: int = 10, seed: int = 0) -> Fig10Result:
    """Processor + memory probes on the Olimex model, CM=10 groups."""
    workload = Microbenchmark(
        total_misses=tm, consecutive_misses=cm, blank_iterations=8_000,
        gap_instructions=160,
    )
    run = run_simulator(workload, config=olimex(), seed=seed)
    truth = run.result.ground_truth
    mem_signal = memory_probe_signal(
        truth,
        olimex().memory,
        clock_hz=run.result.config.clock_hz,
        bin_cycles=run.result.sample_period_cycles,
    )
    # Coincidence: every detected dip should overlap memory activity.
    threshold = 0.5 * (mem_signal.max() + mem_signal.min())
    hits = 0
    stalls = run.report.stalls
    for s in stalls:
        lo = max(0, int(s.begin_sample))
        hi = min(len(mem_signal), max(lo + 1, int(np.ceil(s.end_sample))))
        if np.any(mem_signal[lo:hi] > threshold):
            hits += 1
    coincidence = hits / len(stalls) if stalls else 0.0
    return Fig10Result(
        processor=SignalFigure(
            signal=run.signal, sample_rate_hz=run.result.sample_rate_hz
        ),
        memory=SignalFigure(
            signal=mem_signal, sample_rate_hz=run.result.sample_rate_hz
        ),
        coincidence=coincidence,
    )


# -- Fig. 11: stall-latency histograms ------------------------------------------


@dataclass(frozen=True)
class Fig11Result:
    """Latency histogram for one device."""

    device: str
    edges_cycles: np.ndarray
    counts: np.ndarray
    mean_cycles: float
    p99_cycles: float
    tail_fraction_600: float


#: Fig. 11's devices, in the paper's panel order.
FIG11_DEVICES = ("olimex", "alcatel", "samsung")


def fig11_latency_histograms(
    benchmark: str = "mcf",
    devices: Sequence[str] = FIG11_DEVICES,
    scale: float = 1.0,
    bin_cycles: float = 40.0,
    seed: int = 0,
) -> List[Fig11Result]:
    """Stall-latency histograms of mcf on the three devices (Fig. 11)."""
    runs = device_runs({}, (benchmark,), devices, scale, seed=seed)
    return fig11_view(runs, bin_cycles)


def fig11_view(
    runs: Sequence[DeviceRun], bin_cycles: float = 40.0
) -> List[Fig11Result]:
    """Fig. 11 histograms of :func:`repro.experiments.tables.device_runs` rows."""
    out = []
    for run in runs:
        lat = run.latencies_cycles
        edges, counts = latency_histogram(lat, bin_cycles=bin_cycles)
        out.append(
            Fig11Result(
                device=run.table4.device,
                edges_cycles=edges,
                counts=counts,
                mean_cycles=float(lat.mean()) if len(lat) else 0.0,
                p99_cycles=float(np.percentile(lat, 99)) if len(lat) else 0.0,
                tail_fraction_600=(
                    float(np.count_nonzero(lat >= 600)) / len(lat) if len(lat) else 0.0
                ),
            )
        )
    return out


# -- Fig. 12: measurement-bandwidth sweep ----------------------------------------


@dataclass(frozen=True)
class Fig12Point:
    """One bandwidth point for one device."""

    device: str
    bandwidth_hz: float
    detected_stalls: int
    mean_stall_cycles: float
    total_stall_cycles: float


def fig12_bandwidth_sweep(
    benchmark: str = "mcf",
    devices: Sequence[str] = ("alcatel", "olimex"),
    bandwidths_hz: Sequence[float] = PAPER_BANDWIDTHS_HZ,
    scale: float = 1.0,
    seed: int = 0,
) -> List[Fig12Point]:
    """Effect of 20-160 MHz measurement bandwidth (Fig. 12).

    Uses fine-grained power bins (5 cycles) so every bandwidth up to
    160 MHz is a true decimation of the source trace.  Each device runs
    the benchmark once; only the receiver differs between bandwidths.
    """
    points = []
    for name in devices:
        device = by_name(name, bin_cycles=5)
        channel = default_channel(name, seed=seed)
        with _trace.span("fig12_device", workload=benchmark, device=name):
            result = Machine(device, seed=seed).run(
                spec_workload(benchmark, scale=scale)
            )
            for bw in bandwidths_hz:
                capture = measure(result, bandwidth_hz=bw, channel=channel)
                report = Emprof.from_capture(capture).profile()
                lat = report.latencies_cycles()
                points.append(
                    Fig12Point(
                        device=name,
                        bandwidth_hz=float(bw),
                        detected_stalls=report.miss_count,
                        mean_stall_cycles=float(lat.mean()) if len(lat) else 0.0,
                        total_stall_cycles=float(lat.sum()) if len(lat) else 0.0,
                    )
                )
    return points


# -- Fig. 13: boot profile --------------------------------------------------------


@dataclass(frozen=True)
class Fig13Run:
    """Miss-rate timeline of one boot."""

    run_id: int
    time_ms: np.ndarray
    miss_rate: np.ndarray
    total_misses: int


def fig13_boot_profile(
    seeds: Sequence[int] = (0, 1),
    scale: float = 1.0,
    bin_ms: float = 0.05,
    seed: int = 0,
) -> List[Fig13Run]:
    """LLC miss rate over time for two boots of the IoT device."""
    runs = []
    cfg = olimex()
    for run_seed in seeds:
        run = run_device(
            BootWorkload(seed=run_seed, scale=scale), cfg,
            bandwidth_hz=40 * MHZ, seed=seed,
        )
        bin_cycles = bin_ms * 1e-3 * cfg.clock_hz
        starts, counts = run.report.miss_rate_timeline(bin_cycles)
        runs.append(
            Fig13Run(
                run_id=run_seed,
                time_ms=1e3 * starts / cfg.clock_hz,
                miss_rate=counts / bin_ms,  # misses per ms
                total_misses=run.report.miss_count,
            )
        )
    return runs


# -- Fig. 14: parser spectrogram ---------------------------------------------------


@dataclass(frozen=True)
class Fig14Result:
    """Spectrogram + attributed region timeline for parser."""

    spectrogram: Spectrogram
    timeline: RegionTimeline
    regions_found: Tuple[str, ...]


def fig14_parser_spectrogram(scale: float = 1.0, seed: int = 0) -> Fig14Result:
    """The Fig. 14 spectrogram with its three visible regions."""
    run, timeline = run_attributed(
        spec_workload("parser", scale=scale), olimex(),
        bandwidth_hz=40 * MHZ, seed=seed,
    )
    spectrogram = compute_spectrogram(
        run.signal, run.capture.sample_rate_hz, SPECTRAL_WINDOW_SAMPLES
    )
    found = tuple(dict.fromkeys(seg.region for seg in timeline.segments))
    return Fig14Result(
        spectrogram=spectrogram, timeline=timeline, regions_found=found
    )
