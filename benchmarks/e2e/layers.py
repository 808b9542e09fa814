"""Traced decomposition of the EMPROF pipeline, one layer call at a time.

The untraced benchmark calls the public end-to-end entry points
(``run_device``, ``run_simulator``, ``Emprof.profile``,
``StreamingEmprof``, ``Campaign.execute``).  The traced run makes the same
computation by calling each layer's public functions itself and timing
every call from outside, so no span lives inside the program.  Stage
names are ``<package>.<stage>`` after the ``src/repro`` package that owns
the call.

Each function here mirrors one entry point's body; if that body changes,
the digest check in ``run.py`` (traced output == untraced output) fails.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict, deque
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

import numpy as np

from repro.core.detect import detect_stalls
from repro.core.events import DetectedStall, ProfileReport
from repro.core.profiler import Emprof
from repro.core.streaming import StreamingEmprof
from repro.emsignal.apparatus import Apparatus
from repro.emsignal.channel import Channel
from repro.emsignal.receiver import Capture, Receiver
from repro.emsignal.synth import emitted_envelope
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine, SimulationResult
from repro.sim.power import PowerAccumulator

#: Samples per ``StreamingEmprof.process`` call in every streaming op.
CHUNK_SAMPLES = 4096


class Stages:
    """Host seconds and work counts per layer stage, measured from outside."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)

    @contextmanager
    def time(self, stage: str) -> Iterator[None]:
        begin = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[stage] += time.perf_counter() - begin


class _PowerCalls:
    """Records the pipeline's power-accumulator calls in issue order.

    Stored as flat typed arrays (a boot run makes ~1.5 M calls), so the
    replay loop pays for the calls and not for allocation.
    """

    ISSUE, BUSY, NOTE = 0, 1, 2

    def __init__(self) -> None:
        self.kind = array("b")
        self.a = array("q")
        self.b = array("q")
        self.level = array("d")

    def add_issue(self, cycle: int, weight: float) -> None:
        self.kind.append(self.ISSUE)
        self.a.append(cycle)
        self.b.append(0)
        self.level.append(weight)

    def add_busy_span(self, begin: int, end: int, level: float) -> None:
        self.kind.append(self.BUSY)
        self.a.append(begin)
        self.b.append(end)
        self.level.append(level)

    def note_cycle(self, cycle: int) -> None:
        self.kind.append(self.NOTE)
        self.a.append(cycle)
        self.b.append(0)
        self.level.append(0.0)

    def replay(self, power: PowerAccumulator) -> float:
        """Feed the calls into ``power``; host seconds of the calls alone."""
        issue, busy, note = power.add_issue, power.add_busy_span, power.note_cycle
        rows = zip(self.kind, self.a, self.b, self.level)
        begin = time.perf_counter()
        for kind, a, b, level in rows:
            if kind == 0:
                issue(a, level)
            elif kind == 1:
                busy(a, b, level)
            else:
                note(a)
        loaded = time.perf_counter() - begin
        rows = zip(self.kind, self.a, self.b, self.level)
        begin = time.perf_counter()
        for kind, a, b, level in rows:
            if kind == 0:
                pass
            elif kind == 1:
                pass
        empty = time.perf_counter() - begin
        return loaded - empty


def _machine_stats(machine: Machine) -> Dict[str, float]:
    """The ``SimulationResult.stats`` dict, from the machine's public parts."""
    llc = machine.hierarchy.llc
    return {
        "l1i_misses": float(machine.hierarchy.l1i.misses),
        "l1d_misses": float(machine.hierarchy.l1d.misses),
        "llc_misses": float(llc.misses),
        "llc_accesses": float(llc.accesses),
        "llc_miss_rate": llc.miss_rate(),
        "memory_accesses": float(machine.memory.accesses),
        "refresh_blocked": float(machine.memory.refresh_hits),
        "contention_hits": float(machine.memory.contention_hits),
        "prefetches": float(machine.prefetcher.issued) if machine.prefetcher else 0.0,
        "tlb_misses": float(machine.tlb.misses) if machine.tlb else 0.0,
    }


def simulate(
    workload, config: MachineConfig, seed: int, st: Stages
) -> SimulationResult:
    """``Machine(config, seed).run(workload)``, split into its layers.

    * ``workloads.gen``: draining ``workload.instructions(config)``
      without keeping it (materializing it would add allocation and GC);
    * ``sim.build``: constructing the machine;
    * ``sim.pipeline``: ``Pipeline.run`` on a fresh stream, minus the
      generation time it contains;
    * ``sim.power``: the pipeline's power-accumulator calls, recorded in
      an untimed pass and replayed into a fresh accumulator, minus an
      empty loop over the same calls (part of ``sim.pipeline``);
    * ``sim.finalize``: ``PowerAccumulator.finalize``.
    """
    begin = time.perf_counter()
    deque(workload.instructions(config), maxlen=0)
    gen_s = time.perf_counter() - begin
    st.seconds["workloads.gen"] += gen_s

    with st.time("sim.build"):
        machine = Machine(config, seed=seed)
    power = PowerAccumulator(config.power)
    begin = time.perf_counter()
    truth = machine.pipeline.run(workload.instructions(config), power)
    st.seconds["sim.pipeline"] += time.perf_counter() - begin - gen_s
    truth.region_names = dict(getattr(workload, "region_names", {}) or {})
    with st.time("sim.finalize"):
        trace = power.finalize(truth.total_cycles)

    calls = _PowerCalls()
    Machine(config, seed=seed).pipeline.run(workload.instructions(config), calls)
    replayed = PowerAccumulator(config.power)
    st.seconds["sim.power"] += calls.replay(replayed)
    if not np.array_equal(replayed.finalize(truth.total_cycles), trace):
        raise RuntimeError("replayed power calls do not reproduce the trace")

    stats = _machine_stats(machine)
    counts = st.counts
    counts["workloads.instructions"] += truth.total_instructions
    counts["sim.power_calls"] += len(calls.kind)
    counts["sim.cycles"] += truth.total_cycles
    counts["sim.llc_misses"] += stats["llc_misses"]
    counts["sim.llc_accesses"] += stats["llc_accesses"]
    counts["sim.stall_records"] += len(truth.stalls)
    counts["sim.memory_stall_cycles"] += truth.memory_stall_cycles()
    counts["sim.prefetches"] += stats["prefetches"]
    counts["sim.refresh_blocked"] += stats["refresh_blocked"]
    return SimulationResult(
        power_trace=trace,
        sample_rate_hz=config.sample_rate_hz,
        ground_truth=truth,
        config=config,
        stats=stats,
    )


def measure(result: SimulationResult, apparatus: Apparatus, st: Stages) -> Capture:
    """``Apparatus.measure``: emission, probe channel, receiver."""
    with st.time("emsignal.synth"):
        envelope = emitted_envelope(result.power_trace, apparatus.emission)
    with st.time("emsignal.channel"):
        distorted = Channel(apparatus.channel).apply(envelope, result.sample_rate_hz)
    with st.time("emsignal.receiver"):
        capture = Receiver(apparatus.bandwidth_hz).capture(
            distorted,
            rate_hz=result.sample_rate_hz,
            clock_hz=result.config.clock_hz,
            region_names=result.ground_truth.region_names,
        )
    st.counts["emsignal.samples"] += len(capture.magnitude)
    return capture


def profile(emprof: Emprof, st: Stages) -> ProfileReport:
    """``Emprof.profile``: normalization, then detection."""
    with st.time("core.normalize"):
        normalized = emprof.normalized()
    with st.time("core.detect"):
        stalls = detect_stalls(
            normalized, emprof.sample_period_cycles, emprof.config.detector
        )
        report = ProfileReport(
            stalls=stalls,
            total_cycles=len(emprof.signal) * emprof.sample_period_cycles,
            clock_hz=emprof.clock_hz,
            sample_period_cycles=emprof.sample_period_cycles,
            region_names=dict(emprof.region_names),
        )
    st.counts["core.samples"] += len(emprof.signal)
    st.counts["core.stalls"] += len(stalls)
    return report


def stream(
    capture: Capture, st: Optional[Stages] = None, latencies: Optional[List[float]] = None
) -> List[DetectedStall]:
    """Profile ``capture`` through ``StreamingEmprof`` in fixed chunks.

    Used by both runs: ``latencies`` collects per-chunk host seconds, and
    ``st`` (traced run) gets the whole stream as ``core.stream``.
    """
    begin = time.perf_counter()
    streamer = StreamingEmprof(
        capture.sample_rate_hz, capture.clock_hz, region_names=capture.region_names
    )
    magnitude = capture.magnitude
    for lo in range(0, len(magnitude), CHUNK_SAMPLES):
        chunk_begin = time.perf_counter()
        streamer.process(magnitude[lo : lo + CHUNK_SAMPLES])
        if latencies is not None:
            latencies.append(time.perf_counter() - chunk_begin)
    stalls = streamer.finish().stalls
    if st is not None:
        st.seconds["core.stream"] += time.perf_counter() - begin
        st.counts["core.stream_chunks"] += -(-len(magnitude) // CHUNK_SAMPLES)
    return stalls
