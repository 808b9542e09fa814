"""Row generators for every table in the paper's evaluation.

Each ``tableN_*`` function runs the experiment and returns structured
rows; ``format_*`` helpers render them the way the paper prints them.
The bench harness under ``benchmarks/`` calls these and asserts the
paper's qualitative claims.

Tables II and IV and Fig. 11 read one :func:`device_runs` memo, which
runs each (workload, device) pair once and keeps only a row of it; one
:mod:`repro.experiments.reportgen` report shares one memo.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..attribution.report import RegionReport, attribute_stalls
from ..core.validate import count_accuracy, validate_profile
from ..devices.models import by_name, olimex
from ..emsignal.receiver import MHZ
from ..sim.config import MachineConfig
from ..workloads.microbenchmark import Microbenchmark
from ..workloads.spec import SPEC_BENCHMARKS, spec_workload
from .runner import (
    microbenchmark_window,
    run_attributed,
    run_device,
    run_simulator,
    window_cycles,
)

# The TM/CM grid of Tables II and III.
MICRO_GRID: Tuple[Tuple[int, int], ...] = ((256, 1), (256, 5), (1024, 10), (4096, 50))

DEVICE_ORDER = ("alcatel", "samsung", "olimex")


def _micro(tm: int, cm: int, scale: float) -> Microbenchmark:
    return Microbenchmark(
        total_misses=max(8, int(tm * scale)),
        consecutive_misses=min(cm, max(1, int(tm * scale))),
        blank_iterations=max(4000, int(20_000 * min(1.0, scale * 4))),
        gap_instructions=120,
    )


# -- Device-path runs (Tables II and IV, Fig. 11) -----------------------------


@dataclass(frozen=True)
class DeviceRun:
    """What Tables II and IV and Fig. 11 read from one device-path run."""

    table4: Table4Row
    table2: Optional[Table2Row]  # microbenchmarks only
    latencies_cycles: np.ndarray  # each detected stall's latency (Fig. 11)


#: A memo of device-path runs, keyed by ``(name, device, scale,
#: bandwidth_hz, seed)``; a name is a ``(tm, cm)`` point or a SPEC name.
DeviceRuns = Dict[tuple, DeviceRun]


def device_runs(
    memo: DeviceRuns,
    names: Sequence[Union[Tuple[int, int], str]],
    devices: Sequence[str] = DEVICE_ORDER,
    scale: float = 1.0,
    bandwidth_hz: float = 40 * MHZ,
    seed: int = 0,
) -> List[DeviceRun]:
    """One row per (name, device), workload-major; each pair runs once.

    A pair not yet in ``memo`` runs through :func:`run_device` and is
    added to it.
    """
    rows = []
    for name in names:
        name = name if isinstance(name, str) else tuple(name)  # a memo key
        for device in devices:
            key = (name, device, scale, bandwidth_hz, seed)
            if key not in memo:
                memo[key] = _device_run(*key)
            rows.append(memo[key])
    return rows


def _device_run(name, device, scale, bandwidth_hz, seed) -> DeviceRun:
    micro = not isinstance(name, str)
    workload = _micro(*name, scale) if micro else spec_workload(name, scale=scale)
    run = run_device(workload, by_name(device), bandwidth_hz=bandwidth_hz, seed=seed)
    table2 = None
    if micro:
        report, _ = microbenchmark_window(run)
        expected = workload.total_misses
        table2 = Table2Row(
            tm=name[0],
            cm=name[1],
            device=device,
            expected=expected,
            detected=report.miss_count,
            accuracy=count_accuracy(report.miss_count, expected),
        )
    table4 = Table4Row(
        benchmark=workload.name,
        device=device,
        total_misses=run.report.miss_count,
        stall_percent=100.0 * run.report.stall_fraction,
        refresh_stalls=run.report.refresh_count,
    )
    return DeviceRun(table4, table2, run.report.latencies_cycles())


# -- Table I ----------------------------------------------------------------


@dataclass(frozen=True)
class DeviceSpecRow:
    """One column of Table I."""

    device: str
    frequency_hz: float
    llc_bytes: int
    issue_width: int
    prefetcher: bool


def table1_rows() -> List[DeviceSpecRow]:
    """Device specifications (Table I + Section VI-A facts)."""
    rows = []
    for name in DEVICE_ORDER:
        cfg = by_name(name)
        rows.append(
            DeviceSpecRow(
                device=name,
                frequency_hz=cfg.clock_hz,
                llc_bytes=cfg.llc.size_bytes,
                issue_width=cfg.core.width,
                prefetcher=cfg.prefetcher_enabled,
            )
        )
    return rows


# -- Table II ----------------------------------------------------------------


@dataclass(frozen=True)
class Table2Row:
    """EMPROF miss-count accuracy on one device for one TM/CM point."""

    tm: int
    cm: int
    device: str
    expected: int
    detected: int
    accuracy: float


def table2_rows(
    grid: Sequence[Tuple[int, int]] = MICRO_GRID,
    devices: Sequence[str] = DEVICE_ORDER,
    scale: float = 1.0,
    bandwidth_hz: float = 40 * MHZ,
    seed: int = 0,
) -> List[Table2Row]:
    """Microbenchmark accuracy on the physical-device path (Table II).

    The measurement window is isolated from the signal via the marker
    loops; detected stalls inside it are compared with the engineered
    TM.  ``scale`` shrinks TM for fast test runs.
    """
    runs = device_runs({}, grid, devices, scale, bandwidth_hz, seed)
    return [run.table2 for run in runs]


def format_table2(rows: List[Table2Row]) -> str:
    """Render like Table II: one row per TM/CM, one column per device."""
    devices = list(dict.fromkeys(r.device for r in rows))
    header = f"{'#TM':>6s} {'#CM':>4s} " + " ".join(f"{d:>9s}" for d in devices)
    lines = [header, "-" * len(header)]
    grid = list(dict.fromkeys((r.tm, r.cm) for r in rows))
    by_key = {(r.tm, r.cm, r.device): r for r in rows}
    for tm, cm in grid:
        cells = " ".join(
            f"{100 * by_key[(tm, cm, d)].accuracy:8.2f}%" for d in devices
        )
        lines.append(f"{tm:6d} {cm:4d} {cells}")
    return "\n".join(lines)


# -- Table III ----------------------------------------------------------------


@dataclass(frozen=True)
class Table3Row:
    """Accuracy vs. simulator ground truth for one benchmark."""

    benchmark: str
    true_misses: int
    detected: int
    miss_accuracy: float
    stall_accuracy: float


def table3_micro_rows(
    grid: Sequence[Tuple[int, int]] = MICRO_GRID,
    scale: float = 1.0,
    config: Optional[MachineConfig] = None,
    seed: int = 0,
) -> List[Table3Row]:
    """Microbenchmark half of Table III (simulator path).

    Accuracy is computed inside the marker window, against the
    engineered miss count, like the paper's microbenchmark validation.
    """
    rows = []
    for tm, cm in grid:
        workload = _micro(tm, cm, scale)
        run = run_simulator(workload, config=config, seed=seed)
        report, window = microbenchmark_window(run)
        v = validate_profile(
            run.report,
            run.result.ground_truth,
            window_cycles=window_cycles(run, window),
        )
        rows.append(
            Table3Row(
                benchmark=f"tm{tm}_cm{cm}",
                true_misses=workload.total_misses,
                detected=report.miss_count,
                miss_accuracy=count_accuracy(report.miss_count, workload.total_misses),
                stall_accuracy=v.stall_accuracy,
            )
        )
    return rows


def table3_spec_rows(
    benchmarks: Sequence[str] = SPEC_BENCHMARKS,
    scale: float = 1.0,
    config: Optional[MachineConfig] = None,
    seed: int = 0,
) -> List[Table3Row]:
    """SPEC half of Table III (simulator path, whole run)."""
    rows = []
    for name in benchmarks:
        run = run_simulator(spec_workload(name, scale=scale), config=config, seed=seed)
        truth = run.result.ground_truth
        v = validate_profile(run.report, truth)
        rows.append(
            Table3Row(
                benchmark=name,
                true_misses=truth.miss_count(),
                detected=v.detected_misses,
                miss_accuracy=v.miss_accuracy,
                stall_accuracy=v.stall_accuracy,
            )
        )
    return rows


def format_table3(rows: List[Table3Row]) -> str:
    """Render like Table III."""
    header = f"{'Benchmark':14s} {'Miss Acc (%)':>12s} {'Stall Acc (%)':>13s}"
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r.benchmark:14s} {100 * r.miss_accuracy:12.2f} {100 * r.stall_accuracy:13.2f}"
        )
    return "\n".join(lines)


# -- Table IV ----------------------------------------------------------------


@dataclass(frozen=True)
class Table4Row:
    """Per-benchmark, per-device profiling statistics."""

    benchmark: str
    device: str
    total_misses: int
    stall_percent: float
    refresh_stalls: int


def table4_rows(
    benchmarks: Sequence[str] = SPEC_BENCHMARKS,
    grid: Sequence[Tuple[int, int]] = MICRO_GRID,
    devices: Sequence[str] = DEVICE_ORDER,
    scale: float = 1.0,
    bandwidth_hz: float = 40 * MHZ,
    seed: int = 0,
) -> List[Table4Row]:
    """Total LLC misses and miss latency (% of time) - Table IV.

    All numbers come from EMPROF on the device path, like the paper's.
    """
    runs = device_runs({}, [*grid, *benchmarks], devices, scale, bandwidth_hz, seed)
    return [run.table4 for run in runs]


def format_table4(rows: List[Table4Row]) -> str:
    """Render like Table IV: counts then stall percentages."""
    devices = list(dict.fromkeys(r.device for r in rows))
    benchmarks = list(dict.fromkeys(r.benchmark for r in rows))
    by_key = {(r.benchmark, r.device): r for r in rows}
    head_counts = " ".join(f"{d:>9s}" for d in devices)
    head_pct = " ".join(f"{d:>7s}" for d in devices)
    lines = [f"{'Benchmark':16s} {head_counts}   | {head_pct}"]
    lines.append("-" * len(lines[0]))
    for b in benchmarks:
        counts = " ".join(f"{by_key[(b, d)].total_misses:9d}" for d in devices)
        pcts = " ".join(f"{by_key[(b, d)].stall_percent:7.2f}" for d in devices)
        lines.append(f"{b:16s} {counts}   | {pcts}")
    # Averages, as in the paper's last row.
    avg_counts = " ".join(
        f"{np.mean([by_key[(b, d)].total_misses for b in benchmarks]):9.1f}"
        for d in devices
    )
    avg_pct = " ".join(
        f"{np.mean([by_key[(b, d)].stall_percent for b in benchmarks]):7.2f}"
        for d in devices
    )
    lines.append(f"{'Average':16s} {avg_counts}   | {avg_pct}")
    return "\n".join(lines)


# -- Table V ----------------------------------------------------------------


def table5_rows(
    device: Optional[MachineConfig] = None,
    scale: float = 1.0,
    bandwidth_hz: float = 40 * MHZ,
    seed: int = 0,
) -> List[RegionReport]:
    """Per-function attribution for parser (Table V).

    Training captures come from running each parser phase alone on the
    same device (the Spectral Profiling training step); the test
    capture is the full parser run.
    """
    run, timeline = run_attributed(
        spec_workload("parser", scale=scale),
        device if device is not None else olimex(),
        bandwidth_hz=bandwidth_hz,
        seed=seed,
    )
    return attribute_stalls(run.report, timeline)


# -- The perf anecdote (Section V) -------------------------------------------


@dataclass(frozen=True)
class PerfAnecdote:
    """perf-reported statistics for the 1024-miss microbenchmark."""

    true_misses: int
    mean_reported: float
    std_reported: float
    runs: int


def perf_anecdote(
    true_misses: int = 1024,
    duration_s: float = 2.0e-3,
    runs: int = 200,
    seed: int = 0,
) -> PerfAnecdote:
    """Reproduce "an average of 32,768 and a standard deviation of 14,543"."""
    from ..baselines.perf_counters import PerfCounterConfig, PerfCounterModel

    model = PerfCounterModel(PerfCounterConfig(seed=seed))
    reports = model.report_runs(true_misses, duration_s, runs)
    return PerfAnecdote(
        true_misses=true_misses,
        mean_reported=float(reports.mean()),
        std_reported=float(reports.std()),
        runs=runs,
    )
