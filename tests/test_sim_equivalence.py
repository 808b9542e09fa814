"""Differential harness: the block simulator against the frozen reference.

``tests/reference_sim.py`` holds the per-instruction simulator as it
was before workloads emitted columnar blocks and the core advanced
non-memory runs in closed form.  Every test here runs the same program
through both and asserts bit identity of everything a run produces:

* the power-trace bytes;
* every miss and stall record, ``region_cycles``, ``total_cycles`` and
  ``total_instructions``;
* ``SimulationResult.stats`` and every cache, TLB, DRAM and prefetcher
  counter (which pins the order of random-replacement and
  DRAM-contention draws).

The matrix covers every workload family on the four device presets and
under each ablation knob.  Programs run at reduced scale in the matrix;
the benchmark programs also run at full scale.  A second part pins the
types ``SimulationResult`` hands to the signal chain.
"""

from __future__ import annotations

import dataclasses
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.instrumentation import InstrumentationConfig, InstrumentedWorkload
from repro.devices import alcatel, olimex, samsung, sesc
from repro.sim.config import (
    CacheConfig,
    CoreConfig,
    MachineConfig,
    MemoryConfig,
    PowerConfig,
)
from repro.sim.isa import ALU, BRANCH, Instr, LOAD, MUL, NO_CONSUMER, STORE, unpack
from repro.sim.machine import Machine
from repro.sim.trace import MissRecord, StallRecord
from repro.sim.tracefile import TraceWorkload, save_trace
from repro.workloads import (
    SPEC_BENCHMARKS,
    BootWorkload,
    Microbenchmark,
    RandomWorkload,
    spec_workload,
)
from repro.workloads.base import StreamWorkload
from tests.reference_sim import (
    ReferencePipeline,
    ReferenceTraceWorkload,
    reference_instructions,
    reference_save_trace,
    reference_simulate,
)

PRESETS = {"sesc": sesc, "olimex": olimex, "samsung": samsung, "alcatel": alcatel}


def _dvfs(cfg: MachineConfig) -> MachineConfig:
    """2x clock with the same DRAM nanoseconds (the DVFS ablation)."""
    mem = cfg.memory
    memory = replace(
        mem,
        access_latency=mem.access_latency * 2,
        bank_busy=mem.bank_busy * 2,
        refresh_interval=mem.refresh_interval * 2,
        refresh_duration=mem.refresh_duration * 2,
    )
    return replace(cfg, clock_hz=cfg.clock_hz * 2, memory=memory)


# Each ablation knob, applied to the Olimex preset.
KNOBS = {
    "prefetcher": lambda c: replace(c, prefetcher_enabled=True, prefetch_degree=3),
    "tlb": lambda c: replace(c, tlb_enabled=True, tlb_entries=16),
    "ooo": lambda c: replace(c, core=replace(c.core, out_of_order=True, runahead=64)),
    "rowbuffer": lambda c: replace(
        c, memory=replace(c.memory, row_buffer_enabled=True, row_hit_latency=110)
    ),
    "dvfs": _dvfs,
    "mshr1": lambda c: replace(c, core=replace(c.core, mshr_entries=1)),
    "bin5": lambda c: c.with_bandwidth_bins(5),
}

CONFIGS = {name: make() for name, make in PRESETS.items()}
CONFIGS.update({name: knob(olimex()) for name, knob in KNOBS.items()})


def _tiny_stream(config):
    """An ad-hoc StreamWorkload: loads with near consumers, stores, I-sweeps."""
    rng = np.random.default_rng(9)
    for k in range(1500):
        pc = 0x1000 + 4 * (k % 300)
        region = 1 + k // 500
        r = rng.random()
        if r < 0.03:
            addr = 0x400_0000 + 64 * int(rng.integers(0, 1 << 14))
            yield Instr(LOAD, pc, addr, int(rng.integers(0, 6)), 0.16, region)
        elif r < 0.05:
            yield Instr(STORE, pc, 0x800_0000 + 64 * k, NO_CONSUMER, 0.15, region)
        else:
            yield Instr(MUL if r > 0.9 else ALU, pc, 0, NO_CONSUMER, 0.12, region)


WORKLOADS = {
    **{f"spec-{b}": (lambda b=b: spec_workload(b, scale=0.25)) for b in SPEC_BENCHMARKS},
    "boot-0": lambda: BootWorkload(seed=0, scale=0.1),
    "boot-1": lambda: BootWorkload(seed=1, scale=0.1),
    "micro-cm1": lambda: Microbenchmark(256, 1, blank_iterations=2000),
    "micro-cm10": lambda: Microbenchmark(256, 10, blank_iterations=2000),
    # A CM group longer than one block: emitted group by group.
    "micro-cm64": lambda: Microbenchmark(
        64, 64, gap_instructions=600, micro_fn_instructions=900, blank_iterations=500
    ),
    "random": lambda: RandomWorkload(seed=4, size=0.3),
    "stream": lambda: StreamWorkload("tiny", _tiny_stream, {1: "a", 2: "b", 3: "c"}),
    "instrumented": lambda: InstrumentedWorkload(
        spec_workload("mcf", scale=0.25), InstrumentationConfig(period_instructions=7000)
    ),
}


def _counters(machine: Machine) -> dict:
    h, mem = machine.hierarchy, machine.memory
    out = {
        f"{name}.{field}": getattr(getattr(h, name), field)
        for name in ("l1i", "l1d", "llc")
        for field in ("hits", "misses")
    }
    out.update(
        accesses=mem.accesses,
        refresh_hits=mem.refresh_hits,
        contention_hits=mem.contention_hits,
        row_hits=mem.row_hits,
        busy_segments=list(mem.busy_segments),
    )
    if machine.prefetcher is not None:
        out.update(issued=machine.prefetcher.issued, hint=machine.prefetcher.useful_hint)
    if machine.tlb is not None:
        out.update(tlb_hits=machine.tlb.hits, tlb_misses=machine.tlb.misses)
    return out


def assert_identical(workload, config: MachineConfig, seed: int = 0, reference=None):
    """Run both simulators; assert every output and counter matches."""
    ref_machine, ref_trace, ref_truth = reference_simulate(
        workload if reference is None else reference, config, seed
    )
    machine = Machine(config, seed=seed)
    result = machine.run(workload)
    truth = result.ground_truth
    assert result.power_trace.dtype == ref_trace.dtype
    assert result.power_trace.tobytes() == ref_trace.tobytes()
    assert [dataclasses.astuple(m) for m in truth.misses] == [
        dataclasses.astuple(m) for m in ref_truth.misses
    ]
    assert [dataclasses.astuple(s) for s in truth.stalls] == [
        dataclasses.astuple(s) for s in ref_truth.stalls
    ]
    assert truth.region_cycles == ref_truth.region_cycles
    assert truth.total_cycles == ref_truth.total_cycles
    assert truth.total_instructions == ref_truth.total_instructions
    assert truth.region_names == ref_truth.region_names
    assert result.stats == ref_machine.stats()
    assert _counters(machine) == _counters(ref_machine)
    return result


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("workload_name", sorted(WORKLOADS))
def test_matrix(workload_name, config_name):
    assert_identical(WORKLOADS[workload_name](), CONFIGS[config_name])


@pytest.mark.parametrize(
    "workload, config",
    [
        (spec_workload("mcf", seed=11), sesc()),
        (spec_workload("parser", seed=11), sesc()),
        (spec_workload("equake", seed=11), sesc()),
        (spec_workload("bzip2", seed=11), sesc()),
        (Microbenchmark(1024, 1, seed=7), olimex()),
        (Microbenchmark(1024, 10, seed=7), samsung()),
        (BootWorkload(seed=0), olimex(bin_cycles=5)),
    ],
    ids=lambda v: getattr(v, "name", ""),
)
def test_benchmark_programs_full_scale(workload, config):
    assert_identical(workload, config)


def test_machine_seed_changes_nothing_but_the_draws():
    # A different machine seed reorders replacement and contention
    # draws; both simulators must follow it.
    assert_identical(spec_workload("vortex", scale=0.25), samsung(), seed=5)


def test_plain_instr_list():
    instrs = list(_tiny_stream(None))
    assert_identical(instrs, olimex())


def test_trace_replay_of_reference_file(tmp_path):
    cfg = alcatel()
    workload = BootWorkload(seed=1, scale=0.1)
    path = tmp_path / "boot.npz"
    count = reference_save_trace(
        path, reference_instructions(workload, cfg), workload.region_names, workload.name
    )
    replay = TraceWorkload(path)
    assert len(replay) == count
    assert replay.region_names == workload.region_names
    # The replayed file runs exactly like the generator it was taken from.
    assert_identical(replay, cfg, reference=workload)
    # And like the frozen tuple-building replay of the same file.
    assert_identical(replay, cfg, reference=ReferenceTraceWorkload(path))


def test_trace_writer_matches_reference(tmp_path):
    cfg = samsung()
    workload = Microbenchmark(64, 8, blank_iterations=100)
    names = workload.region_names
    save_trace(tmp_path / "new.npz", workload.instructions(cfg), names, "m")
    reference_save_trace(tmp_path / "ref.npz", reference_instructions(workload, cfg), names, "m")
    with np.load(tmp_path / "new.npz") as new, np.load(tmp_path / "ref.npz") as ref:
        assert sorted(new.files) == sorted(ref.files)
        for key in ref.files:
            assert new[key].dtype == ref[key].dtype, key
            assert np.array_equal(new[key], ref[key]), key


@pytest.mark.parametrize(
    "name", ["micro-cm10", "micro-cm64", "boot-0", "stream", "instrumented"]
)
def test_block_stream_unpacks_to_reference_stream(name):
    workload = WORKLOADS[name]()
    cfg = olimex()
    assert list(unpack(workload.instructions(cfg))) == list(
        reference_instructions(workload, cfg)
    )


class _PowerCalls:
    """A power sink with only the three per-instruction methods."""

    def __init__(self):
        self.calls = []

    def add_issue(self, cycle, weight):
        self.calls.append(("issue", cycle, weight))

    def add_busy_span(self, begin, end, level):
        self.calls.append(("busy", begin, end, level))

    def note_cycle(self, cycle):
        self.calls.append(("note", cycle))


@pytest.mark.parametrize("config_name", ["olimex", "ooo", "bin5"])
def test_foreign_power_sink_gets_per_instruction_calls(config_name):
    cfg = CONFIGS[config_name]
    workload = BootWorkload(seed=0, scale=0.05)
    calls = _PowerCalls()
    Machine(cfg, seed=2).pipeline.run(workload.instructions(cfg), calls)
    ref_calls = _PowerCalls()
    m = Machine(cfg, seed=2)
    ReferencePipeline(
        cfg.core, cfg.power, m.hierarchy, m.memory, m.prefetcher,
        llc_hit_latency=cfg.llc.hit_latency, line_bytes=cfg.line_bytes,
        tlb=m.tlb, tlb_walk_cycles=cfg.tlb_walk_cycles,
    ).run(reference_instructions(workload, cfg), ref_calls)
    assert calls.calls == ref_calls.calls
    assert all(type(c[1]) is int for c in calls.calls)
    # Busy spans land between issues, so the order check above covers
    # the deposit the pipeline makes before each span.
    kinds = [c[0] for c in calls.calls]
    assert any(
        kinds[k - 1 : k + 2] == ["issue", "busy", "issue"] for k in range(1, len(kinds) - 1)
    )


# Random programs on random small machines: short runahead windows,
# tiny caches (I-side misses), narrow and wide cores, OoO.
_program = st.lists(
    st.tuples(
        st.integers(0, 5), st.integers(0, 3), st.integers(0, 40), st.integers(0, 2)
    ),
    min_size=1,
    max_size=600,
)


def _decode(program):
    instrs = []
    for i, (kind, locality, dep, region) in enumerate(program):
        pc = 0x1000 + 4 * ((i * (1 + locality)) % 700)
        if kind == 3:
            offset = i * 8192 if locality == 3 else 64 * (i % 16)
            addr = 0x10_0000 + locality * 0x10_0000 + offset
            dep = dep if dep < 35 else NO_CONSUMER
            instrs.append(Instr(LOAD, pc, addr, dep, 0.16, region))
        elif kind == 4:
            addr = 0x50_0000 + locality * 0x10_0000 + 64 * i
            instrs.append(Instr(STORE, pc, addr, NO_CONSUMER, 0.15, region))
        else:
            op = (ALU, MUL, BRANCH, ALU)[kind if kind < 3 else 3]
            instrs.append(Instr(op, pc, 0, NO_CONSUMER, 0.1 + 0.01 * (i % 7), region))
    return instrs


@settings(max_examples=60, deadline=None)
@given(
    program=_program,
    width=st.integers(1, 4),
    mshr=st.integers(1, 4),
    runahead=st.sampled_from([0, 1, 3, 16, 64]),
    ooo=st.booleans(),
    store_buffer=st.integers(0, 3),
    bins=st.sampled_from([1, 5, 20]),
    seed=st.integers(0, 3),
)
def test_random_programs(program, width, mshr, runahead, ooo, store_buffer, bins, seed):
    cfg = MachineConfig(
        core=CoreConfig(
            width=width, mshr_entries=mshr, runahead=runahead, fetch_buffer=4,
            store_buffer=store_buffer, out_of_order=ooo,
        ),
        l1i=CacheConfig(1024, associativity=2),
        l1d=CacheConfig(1024, associativity=2),
        llc=CacheConfig(8192, associativity=4, hit_latency=12),
        memory=MemoryConfig(
            access_latency=90,
            refresh_interval=3000,
            refresh_duration=300,
            contention_prob=0.2,
        ),
        power=PowerConfig(bin_cycles=bins),
        prefetcher_enabled=seed % 2 == 1,
        tlb_enabled=seed >= 2,
        tlb_entries=4,
    )
    assert_identical(_decode(program), cfg, seed=seed)


class TestResultTypes:
    """What the signal chain and validators read from a result.

    ``Apparatus.measure`` and ``validate_profile`` consume
    ``SimulationResult`` directly; NumPy scalars in the records or a
    strided/borrowed power trace would slow every consumer down without
    changing a single value.
    """

    @pytest.fixture(scope="class")
    def result(self):
        return Machine(olimex(), seed=0).run(spec_workload("parser", scale=0.25))

    def test_power_trace_is_owning_contiguous_float64(self, result):
        trace = result.power_trace
        assert type(trace) is np.ndarray
        assert trace.dtype == np.float64
        assert trace.flags.c_contiguous
        assert trace.flags.owndata
        assert trace.flags.writeable

    def test_records_are_dataclass_lists(self, result):
        truth = result.ground_truth
        assert type(truth.misses) is list and type(truth.stalls) is list
        assert truth.misses and truth.stalls
        assert all(type(m) is MissRecord for m in truth.misses)
        assert all(type(s) is StallRecord for s in truth.stalls)

    def test_record_fields_are_plain_python(self, result):
        truth = result.ground_truth
        for m in truth.misses:
            for value in dataclasses.astuple(m):
                assert type(value) in (int, bool, str, type(None)), (m, value)
        for s in truth.stalls:
            assert type(s.miss_ids) is list
            assert all(type(x) is int for x in s.miss_ids)
            for value in dataclasses.astuple(s):
                assert type(value) in (int, bool, str, list), (s, value)
        assert type(truth.total_cycles) is int
        assert type(truth.total_instructions) is int
        assert all(
            type(k) is int and type(v) is int for k, v in truth.region_cycles.items()
        )

    def test_stats_are_python_floats(self, result):
        assert all(type(v) is float for v in result.stats.values())
