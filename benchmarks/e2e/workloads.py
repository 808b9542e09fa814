"""The four benchmark workloads.

Every workload is closed-loop: one op at a time from a fixed op list, the
list repeated in passes.  ``--seed S`` derives every input: the
microbenchmark seed is ``7 + S``, the SPEC seed ``11 + S``, and the boot,
machine and channel seeds are ``S``, so ``S = 0`` gives the inputs of the
paper benches under ``benchmarks/``.

Each op runs untraced (``st is None``: the public end-to-end entry points
only) or traced (``st`` is a :class:`layers.Stages`: the same computation,
one layer call at a time).  Either way it returns the host seconds of its
timed part and one :class:`OpResult` per output, whose digest must not
depend on the mode.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import shutil
import tempfile
import time
from contextlib import nullcontext
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro import io as repro_io
from repro.acquire import FileSource
from repro.attribution.report import attribute_stalls
from repro.attribution.spectral import SpectralProfiler
from repro.core.profiler import Emprof
from repro.core.validate import count_accuracy, validate_profile
from repro.devices.models import by_name, default_channel, olimex, sesc
from repro.emsignal.apparatus import Apparatus
from repro.emsignal.receiver import MHZ, PAPER_BANDWIDTHS_HZ
from repro.experiments.campaign import Campaign, RunSpec
from repro.experiments.runner import (
    ExperimentRun,
    microbenchmark_window,
    run_device,
    run_simulator,
    window_cycles,
)
from repro.sim.machine import simulate
from repro.workloads import BootWorkload, Microbenchmark, spec_workload
from repro.workloads.spec import SpecWorkload

import layers
from layers import Stages

DEVICES = ("olimex", "samsung", "alcatel")
SPEC_PROGRAMS = ("mcf", "parser", "equake", "bzip2")
CAMPAIGN_RUNS = 48
#: Each pass runs the campaign runs as this many fresh campaigns per
#: worker count, so a run yields enough timed ops for a median.
CAMPAIGN_BATCHES = 4
#: Supervised campaign workers; the load stays within the machine.
CAMPAIGN_WORKERS = tuple(sorted({1, min(2, os.cpu_count() or 1)}))


@dataclasses.dataclass
class OpResult:
    """One checked output of an op."""

    label: str
    wall_s: float
    instructions: int
    samples: int
    digest: str
    miss_accuracy: Optional[float] = None
    stall_accuracy: Optional[float] = None
    error: Optional[str] = None
    chunk_latencies: List[float] = dataclasses.field(default_factory=list)
    #: Campaign runs only: the worker count of the pass and attempts made.
    workers: int = 0
    attempts: int = 1


Op = Callable[[Optional[Stages]], Tuple[float, List[OpResult]]]


def _stage(st: Optional[Stages], name: str):
    return nullcontext() if st is None else st.time(name)


def _simulate(workload, config, seed: int, st: Optional[Stages]):
    if st is None:
        return simulate(workload, config, seed=seed)
    return layers.simulate(workload, config, seed, st)


def _measure(result, apparatus: Apparatus, st: Optional[Stages]):
    if st is None:
        return apparatus.measure(result)
    return layers.measure(result, apparatus, st)


def _profile(emprof: Emprof, st: Optional[Stages]):
    return emprof.profile() if st is None else layers.profile(emprof, st)


def stall_rows(stalls) -> List[tuple]:
    return [dataclasses.astuple(s) for s in stalls]


def detection_rows(stalls) -> List[tuple]:
    """Stall tuples without ``low_confidence``, which only streaming sets."""
    return [dataclasses.astuple(dataclasses.replace(s, low_confidence=False)) for s in stalls]


def result_digest(result) -> bytes:
    """sha256 over the power trace and the ground-truth miss and stall tuples."""
    truth = result.ground_truth
    h = hashlib.sha256(result.power_trace.tobytes())
    h.update(repr([dataclasses.astuple(m) for m in truth.misses]).encode())
    h.update(repr([dataclasses.astuple(s) for s in truth.stalls]).encode())
    return h.digest()


def op_digest(result_part: bytes, magnitude, *row_lists) -> str:
    """Digest of one op: its simulation, capture magnitude and stall tuples."""
    h = hashlib.sha256(result_part)
    if magnitude is not None:
        h.update(magnitude.tobytes())
    for rows in row_lists:
        h.update(repr(rows).encode())
    return h.hexdigest()


class Workload:
    name = ""

    def setup(self, seed: int, st: Optional[Stages], workdir: Path) -> dict:
        raise NotImplementedError

    def ops(self, inputs: dict) -> List[Tuple[str, Op]]:
        raise NotImplementedError


class DeviceMicroBoot(Workload):
    """``run_device`` on the microbenchmarks and boot, on every device."""

    name = "device-micro-boot"

    def setup(self, seed, st, workdir):
        programs = [
            Microbenchmark(total_misses=1024, consecutive_misses=1, seed=7 + seed),
            Microbenchmark(total_misses=1024, consecutive_misses=10, seed=7 + seed),
            BootWorkload(seed=seed),
        ]
        return {
            "seed": seed,
            "items": [(p, by_name(d)) for p in programs for d in DEVICES],
        }

    def ops(self, inputs):
        return [
            (f"{cfg.name}/{program.name}", partial(self._op, inputs["seed"], program, cfg))
            for program, cfg in inputs["items"]
        ]

    @staticmethod
    def _op(seed, program, cfg, st):
        micro = isinstance(program, Microbenchmark)
        begin = time.perf_counter()
        if st is None:
            run = run_device(program, cfg, seed=seed)
        else:
            result = layers.simulate(program, cfg, seed, st)
            apparatus = Apparatus(
                channel=default_channel(cfg.name, seed=seed), bandwidth_hz=40 * MHZ
            )
            capture = layers.measure(result, apparatus, st)
            emprof = Emprof.from_capture(capture)
            run = ExperimentRun(result, capture, emprof, layers.profile(emprof, st))
        window = None
        reports = [run.report]
        if micro:
            with _stage(st, "core.window"):
                window_report, marker = microbenchmark_window(run)
            window = window_cycles(run, marker)
            reports.append(window_report)
        with _stage(st, "core.validate"):
            v = validate_profile(run.report, run.result.ground_truth, window_cycles=window)
        wall = time.perf_counter() - begin
        return wall, [
            OpResult(
                label=f"{cfg.name}/{program.name}",
                wall_s=wall,
                instructions=run.result.ground_truth.total_instructions,
                samples=len(run.capture.magnitude),
                digest=op_digest(
                    result_digest(run.result),
                    run.capture.magnitude,
                    *(stall_rows(r.stalls) for r in reports),
                ),
                miss_accuracy=(
                    count_accuracy(reports[1].miss_count, program.total_misses)
                    if micro
                    else None
                ),
                stall_accuracy=v.stall_accuracy,
            )
        ]


class SimSpec(Workload):
    """``run_simulator`` on four SPEC models (the Table III path)."""

    name = "sim-spec"

    def setup(self, seed, st, workdir):
        return {
            "seed": seed,
            "programs": [spec_workload(n, seed=11 + seed) for n in SPEC_PROGRAMS],
        }

    def ops(self, inputs):
        return [
            (program.name, partial(self._op, inputs["seed"], program))
            for program in inputs["programs"]
        ]

    @staticmethod
    def _op(seed, program, st):
        begin = time.perf_counter()
        if st is None:
            run = run_simulator(program, seed=seed)
            result, report = run.result, run.report
        else:
            result = layers.simulate(program, sesc(), seed, st)
            report = layers.profile(Emprof.from_simulation(result), st)
        with _stage(st, "core.validate"):
            v = validate_profile(report, result.ground_truth)
        wall = time.perf_counter() - begin
        return wall, [
            OpResult(
                label=program.name,
                wall_s=wall,
                instructions=result.ground_truth.total_instructions,
                samples=len(result.power_trace),
                digest=op_digest(result_digest(result), None, stall_rows(report.stalls)),
                miss_accuracy=v.miss_accuracy,
                stall_accuracy=v.stall_accuracy,
            )
        ]


def _replay_sources(seed: int, st: Optional[Stages]) -> dict:
    """Boot and parser simulated once on the Olimex model.

    Power bins of 5 cycles make every paper bandwidth up to 160 MHz a
    true decimation of the trace (as in the Fig. 12 generator).
    """
    config = olimex(bin_cycles=5)
    parser = spec_workload("parser", seed=11 + seed)
    results = {
        "boot": _simulate(BootWorkload(seed=seed), config, seed, st),
        "parser": _simulate(parser, config, seed, st),
    }
    return {
        "seed": seed,
        "config": config,
        "parser": parser,
        "results": results,
        "digests": {name: result_digest(r) for name, r in results.items()},
    }


def _apparatus(seed: int, bandwidth_hz: float) -> Apparatus:
    return Apparatus(
        channel=default_channel("olimex", seed=seed), bandwidth_hz=bandwidth_hz
    )


class SignalSweep(Workload):
    """The Fig. 12 bandwidth sweep plus Table V attribution, on fixed traces."""

    name = "signal-sweep"

    def setup(self, seed, st, workdir):
        inputs = _replay_sources(seed, st)
        parser = inputs["parser"]
        profiler = SpectralProfiler(window_samples=128, overlap=0.5, smoothing_frames=7)
        for phase in parser.phases:
            solo = SpecWorkload(
                name=f"train_{phase.region}", phases=[phase], seed=parser.seed
            )
            capture = _measure(
                _simulate(solo, inputs["config"], seed, st),
                _apparatus(seed, 40 * MHZ),
                st,
            )
            profiler.train(phase.region, capture.magnitude, capture.sample_rate_hz)
        inputs["profiler"] = profiler
        return inputs

    def ops(self, inputs):
        shared: Dict[str, tuple] = {}
        ops = [
            (
                f"{name}@{bw / MHZ:.0f}MHz",
                partial(self._sweep_op, inputs, name, bw, shared),
            )
            for name in ("boot", "parser")
            for bw in PAPER_BANDWIDTHS_HZ
        ]
        ops.append(("parser@40MHz/attribution", partial(self._attribution_op, inputs, shared)))
        return ops

    @staticmethod
    def _sweep_op(inputs, name, bw, shared, st):
        result = inputs["results"][name]
        begin = time.perf_counter()
        capture = _measure(result, _apparatus(inputs["seed"], bw), st)
        report = _profile(Emprof.from_capture(capture), st)
        latencies: List[float] = []
        streamed = layers.stream(capture, st, latencies)
        with _stage(st, "core.validate"):
            v = validate_profile(report, result.ground_truth)
        wall = time.perf_counter() - begin
        if name == "parser" and bw == 40 * MHZ:
            shared["attribution"] = (capture, report)
        rows = stall_rows(report.stalls)
        return wall, [
            OpResult(
                label=f"{name}@{bw / MHZ:.0f}MHz",
                wall_s=wall,
                instructions=result.ground_truth.total_instructions,
                samples=len(capture.magnitude),
                digest=op_digest(inputs["digests"][name], capture.magnitude, rows),
                miss_accuracy=v.miss_accuracy,
                stall_accuracy=v.stall_accuracy,
                error=(
                    None
                    if detection_rows(streamed) == detection_rows(report.stalls)
                    else "streaming != batch stalls"
                ),
                chunk_latencies=latencies,
            )
        ]

    @staticmethod
    def _attribution_op(inputs, shared, st):
        capture, report = shared["attribution"]
        begin = time.perf_counter()
        with _stage(st, "attribution.attribute"):
            timeline = inputs["profiler"].attribute(
                capture.magnitude, capture.sample_rate_hz
            )
            rows = attribute_stalls(report, timeline)
        wall = time.perf_counter() - begin
        if st is not None:
            st.counts["attribution.segments"] += len(timeline.segments)
        return wall, [
            OpResult(
                label="parser@40MHz/attribution",
                wall_s=wall,
                instructions=inputs["results"]["parser"].ground_truth.total_instructions,
                samples=len(capture.magnitude),
                digest=op_digest(
                    inputs["digests"]["parser"],
                    capture.magnitude,
                    [dataclasses.astuple(s) for s in timeline.segments],
                    [dataclasses.astuple(r) for r in rows],
                ),
            )
        ]


class CampaignReplay(Workload):
    """Saved captures replayed through ``Campaign.execute``."""

    name = "campaign-replay"

    def setup(self, seed, st, workdir):
        inputs = _replay_sources(seed, st)
        captures = []
        for name in ("boot", "parser"):
            for bw in (40 * MHZ, 160 * MHZ):
                capture = _measure(inputs["results"][name], _apparatus(seed, bw), st)
                path = workdir / f"{name}_{bw / MHZ:.0f}MHz.npz"
                repro_io.save_capture(path, capture)
                captures.append((name, path, capture))
        inputs["runs"] = [
            (f"run{i:02d}",) + captures[i % len(captures)] for i in range(CAMPAIGN_RUNS)
        ]
        inputs["workdir"] = workdir
        inputs["reference"] = {}
        return inputs

    def ops(self, inputs):
        size = CAMPAIGN_RUNS // CAMPAIGN_BATCHES
        return [
            (
                f"w{workers}/b{b}",
                partial(self._op, inputs, workers, inputs["runs"][b * size : (b + 1) * size]),
            )
            for workers in CAMPAIGN_WORKERS
            for b in range(CAMPAIGN_BATCHES)
        ]

    @classmethod
    def _op(cls, inputs, workers, runs, st):
        directory = Path(tempfile.mkdtemp(dir=inputs["workdir"]))
        try:
            if st is None:
                return cls._execute(inputs, workers, runs, directory)
            return cls._traced(inputs, workers, runs, directory, st)
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    @classmethod
    def _execute(cls, inputs, workers, runs, directory):
        campaign = Campaign(directory, workers=workers)
        specs = [
            RunSpec(name=run, source_factory=partial(FileSource, path))
            for run, _, path, _ in runs
        ]
        begin = time.perf_counter()
        outcomes = {o.name: o for o in campaign.execute(specs).outcomes}
        wall = time.perf_counter() - begin
        results = []
        for run, name, path, capture in runs:
            o = outcomes.get(run)
            if o is None or o.status != "done":
                status = None if o is None else o.status
                results.append(
                    OpResult(f"w{workers}/{run}", 0.0, 0, 0, "", error=f"run {status}")
                )
                continue
            report = campaign.load_report(run)
            result = cls._result(inputs, workers, run, name, capture, report, o.wall_time_s)
            result.attempts = o.attempts
            if stall_rows(report.stalls) != cls._reference(inputs, path, capture):
                result.error = "campaign report != Emprof.profile"
            results.append(result)
        return wall, results

    @classmethod
    def _traced(cls, inputs, workers, runs, directory, st):
        results = []
        total = 0.0
        for run, name, path, _ in runs:
            begin = time.perf_counter()
            with st.time("io.load_capture"):
                capture = repro_io.load_capture(path)
            report = layers.profile(Emprof.from_capture(capture), st)
            with st.time("io.save_report"):
                repro_io.save_report(directory / f"{run}.report.json", report)
            wall = time.perf_counter() - begin
            total += wall
            st.counts["io.bytes_read"] += path.stat().st_size
            results.append(cls._result(inputs, workers, run, name, capture, report, wall))
        return total, results

    @staticmethod
    def _reference(inputs, path, capture):
        """``Emprof.profile`` run directly on a capture (computed once)."""
        ref = inputs["reference"]
        if path not in ref:
            ref[path] = stall_rows(Emprof.from_capture(capture).profile().stalls)
        return ref[path]

    @staticmethod
    def _result(inputs, workers, run, name, capture, report, wall):
        truth = inputs["results"][name].ground_truth
        v = validate_profile(report, truth)
        return OpResult(
            label=f"w{workers}/{run}",
            wall_s=wall,
            instructions=truth.total_instructions,
            samples=len(capture.magnitude),
            digest=op_digest(
                inputs["digests"][name], capture.magnitude, stall_rows(report.stalls)
            ),
            miss_accuracy=v.miss_accuracy,
            stall_accuracy=v.stall_accuracy,
            workers=workers,
        )


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (DeviceMicroBoot(), SimSpec(), SignalSweep(), CampaignReplay())
}
