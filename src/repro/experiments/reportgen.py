"""The paper's artifacts, and the one command that writes them all.

:data:`ARTIFACTS` lists every table and figure statistic the
reproduction archives, each under its one name.  ``repro table N``
prints ``ARTIFACTS["tableN"]``; :func:`generate_report` renders every
entry (or a subset) into a self-contained ``results.md``, plus ``.npz``
series for the figures - the artifact a reviewer would ask for.  The
bench suite under ``benchmarks/`` asserts the claims; this module
*records* the numbers.

One report's renderers share one :data:`repro.experiments.tables.DeviceRuns`
memo, so Table II and Fig. 11 read Table IV's device runs; Table V
keeps its own parser run, since attribution needs the run's signal.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from ..attribution.report import format_region_table
from . import figures, tables

PathLike = Union[str, Path]

#: A figure's ``.npz`` series: file name and named arrays.
Series = Tuple[str, Dict[str, np.ndarray]]


@dataclass(frozen=True)
class Artifact:
    """One paper artifact: its ``results.md`` title and its renderer.

    ``render(scale, runs)`` runs the experiment at workload scale
    ``scale``, reading device-path runs through the ``runs`` memo, and
    returns the section body and, for a figure, its series.
    """

    title: str
    render: Callable[[float, tables.DeviceRuns], Tuple[str, Optional[Series]]]


def _table2(scale: float, runs: tables.DeviceRuns) -> Tuple[str, None]:
    micro = tables.device_runs(runs, tables.MICRO_GRID, scale=scale)
    rows = [run.table2 for run in micro]
    mean = float(np.mean([r.accuracy for r in rows]))
    body = tables.format_table2(rows)
    body += f"\n\nAverage accuracy: {100 * mean:.2f}% (paper: 99.52%)"
    return body, None


def _table3(scale: float, _runs: tables.DeviceRuns) -> Tuple[str, None]:
    micro = tables.table3_micro_rows(scale=scale)
    spec = tables.table3_spec_rows(scale=scale)
    body = tables.format_table3(micro + spec)
    miss = float(np.mean([r.miss_accuracy for r in spec]))
    stall = float(np.mean([r.stall_accuracy for r in spec]))
    body += (
        f"\n\nSPEC averages: miss {100 * miss:.2f}% (paper 98.5%), "
        f"stall {100 * stall:.2f}% (paper 99.5%)"
    )
    return body, None


def _table4(scale: float, runs: tables.DeviceRuns) -> Tuple[str, None]:
    names = [*tables.MICRO_GRID, *tables.SPEC_BENCHMARKS]
    rows = [run.table4 for run in tables.device_runs(runs, names, scale=scale)]
    return tables.format_table4(rows), None


def _table5(scale: float, _runs: tables.DeviceRuns) -> Tuple[str, None]:
    return format_region_table(tables.table5_rows(scale=scale)), None


def _perf(_scale: float, _runs: tables.DeviceRuns) -> Tuple[str, None]:
    pa = tables.perf_anecdote()
    body = (
        f"1024 engineered misses -> perf reports mean {pa.mean_reported:.0f}, "
        f"std {pa.std_reported:.0f} over {pa.runs} runs "
        f"(paper: 32768 / 14543)"
    )
    return body, None


def _fig5(_scale: float, _runs: tables.DeviceRuns) -> Tuple[str, None]:
    r = figures.fig5_refresh()
    interval = (
        f"{r.estimated_interval_us:.1f} us" if r.estimated_interval_us else "n/a"
    )
    body = (
        f"{r.refresh_stalls} refresh-coincident stalls, mean "
        f"{r.mean_duration_us:.2f} us (paper: 2-3 us), interval {interval} "
        f"(paper: >= ~70 us)"
    )
    return body, None


def _fig11(scale: float, runs: tables.DeviceRuns) -> Tuple[str, Series]:
    lines = []
    arrays = {}
    mcf = tables.device_runs(runs, ("mcf",), figures.FIG11_DEVICES, scale=scale)
    for r in figures.fig11_view(mcf):
        lines.append(
            f"{r.device:8s}: n={int(r.counts.sum()):5d} mean={r.mean_cycles:7.1f} "
            f"p99={r.p99_cycles:7.1f} tail(>=600cyc)={100 * r.tail_fraction_600:.2f}%"
        )
        arrays[f"{r.device}_edges"] = r.edges_cycles
        arrays[f"{r.device}_counts"] = r.counts
    return "\n".join(lines), ("fig11_histograms.npz", arrays)


def _fig12(scale: float, _runs: tables.DeviceRuns) -> Tuple[str, Series]:
    points = figures.fig12_bandwidth_sweep(scale=scale)
    body = "\n".join(
        f"{p.device:8s} {p.bandwidth_hz / 1e6:5.0f} MHz: stalls={p.detected_stalls:5d} "
        f"mean={p.mean_stall_cycles:7.1f} cyc"
        for p in points
    )
    arrays = {
        "device": np.array([p.device for p in points]),
        "bandwidth_hz": np.array([p.bandwidth_hz for p in points]),
        "detected": np.array([p.detected_stalls for p in points]),
        "mean_cycles": np.array([p.mean_stall_cycles for p in points]),
    }
    return body, ("fig12_sweep.npz", arrays)


def _fig13(scale: float, _runs: tables.DeviceRuns) -> Tuple[str, Series]:
    lines = []
    arrays = {}
    for r in figures.fig13_boot_profile(scale=scale):
        lines.append(
            f"run {r.run_id}: {r.total_misses} misses, "
            f"peak {r.miss_rate.max():.0f} misses/ms"
        )
        arrays[f"run{r.run_id}_time_ms"] = r.time_ms
        arrays[f"run{r.run_id}_rate"] = r.miss_rate
    return "\n".join(lines), ("fig13_boot.npz", arrays)


#: Every archived artifact, in ``results.md`` order.
ARTIFACTS: Dict[str, Artifact] = {
    "table2": Artifact("Table II - microbenchmark accuracy (device path)", _table2),
    "table3": Artifact("Table III - accuracy vs simulator ground truth", _table3),
    "table4": Artifact("Table IV - device profiles", _table4),
    "table5": Artifact("Table V - parser attribution", _table5),
    "perf": Artifact("perf baseline anecdote (Section V)", _perf),
    "fig5": Artifact("Fig. 5 - refresh collisions", _fig5),
    "fig11": Artifact("Fig. 11 - mcf stall-latency histograms", _fig11),
    "fig12": Artifact("Fig. 12 - measurement-bandwidth sweep (mcf)", _fig12),
    "fig13": Artifact("Fig. 13 - boot-sequence profiles", _fig13),
}


def generate_report(
    output_dir: PathLike,
    scale: float = 1.0,
    include: Optional[List[str]] = None,
) -> Path:
    """Regenerate results and write ``results.md`` under ``output_dir``.

    Args:
        output_dir: directory to create/fill.
        scale: workload scale (1.0 = bench scale); must be positive.
        include: optional subset of :data:`ARTIFACTS` keys to run; all
            when omitted.

    Returns:
        Path of the written ``results.md``.

    Raises:
        ValueError: ``include`` names an unknown artifact or ``scale``
            is not positive (checked before anything is written).
    """
    unknown = set(include or ()) - set(ARTIFACTS)
    if unknown:
        raise ValueError(f"unknown report sections: {sorted(unknown)}")
    if not (math.isfinite(scale) and scale > 0):
        raise ValueError(f"scale must be a positive number, not {scale!r}")
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)

    lines = [
        "# EMPROF reproduction - generated results",
        "",
        f"workload scale: {scale}",
        "",
    ]
    total = 0.0
    runs: tables.DeviceRuns = {}
    for key, artifact in ARTIFACTS.items():
        if include is not None and key not in include:
            continue
        begin = time.perf_counter()
        body, series = artifact.render(scale, runs)
        seconds = time.perf_counter() - begin
        total += seconds
        if series is not None:
            name, arrays = series
            np.savez_compressed(out / name, **arrays)
            body += f"\nseries -> {name}"
        lines += [
            f"## {artifact.title}",
            "",
            "```",
            body,
            "```",
            "",
            f"_generated in {seconds:.1f} s_",
            "",
        ]
    lines.append(f"---\ntotal generation time: {total:.1f} s")

    report_path = out / "results.md"
    report_path.write_text("\n".join(lines))
    return report_path
