"""Tests for the profiling-instrumentation observer-effect model."""

import pytest

from repro.baselines.instrumentation import (
    INTERRUPT_REGION,
    InstrumentationConfig,
    InstrumentedWorkload,
    observer_effect,
)
from repro.devices import sesc
from repro.sim.machine import simulate
from repro.sim.trace import GroundTruth
from repro.workloads import Microbenchmark
from repro.workloads.base import StreamWorkload
from repro.sim.isa import alu, unpack


def tiny_workload(n=5000):
    def factory(config):
        for k in range(n):
            yield alu(0x100 + 4 * (k % 8), region=1)

    return StreamWorkload("tiny", factory, {1: "app"})


class TestInstrumentedWorkload:
    def test_injects_handlers(self):
        iw = InstrumentedWorkload(
            tiny_workload(), InstrumentationConfig(period_instructions=1000)
        )
        regions = [i.region for i in unpack(iw.instructions(sesc()))]
        assert INTERRUPT_REGION in regions
        assert regions.count(1) == 5000  # app stream untouched

    def test_handler_count_matches_period(self):
        cfg = InstrumentationConfig(
            period_instructions=1000, handler_instructions=100
        )
        iw = InstrumentedWorkload(tiny_workload(5000), cfg)
        stream = list(unpack(iw.instructions(sesc())))
        handler = sum(1 for i in stream if i.region == INTERRUPT_REGION)
        assert handler == 5 * 100

    def test_region_names_extended(self):
        iw = InstrumentedWorkload(tiny_workload())
        assert iw.region_names[INTERRUPT_REGION] == "profiler_interrupt"
        assert iw.region_names[1] == "app"

    def test_name_encodes_period(self):
        iw = InstrumentedWorkload(
            tiny_workload(), InstrumentationConfig(period_instructions=123)
        )
        assert "123" in iw.name

    def test_handlers_touch_memory(self):
        cfg = InstrumentationConfig(period_instructions=500, handler_data_lines=8)
        iw = InstrumentedWorkload(tiny_workload(2000), cfg)
        mem_ops = [
            i for i in unpack(iw.instructions(sesc()))
            if i.region == INTERRUPT_REGION and i.addr
        ]
        assert len(mem_ops) == 4 * 8

    def test_config_validation(self):
        with pytest.raises(ValueError):
            InstrumentationConfig(period_instructions=0)
        with pytest.raises(ValueError):
            InstrumentationConfig(handler_instructions=0)
        with pytest.raises(ValueError):
            InstrumentationConfig(handler_data_lines=-1)


class TestObserverEffect:
    @pytest.fixture(scope="class")
    def runs(self):
        workload = Microbenchmark(
            total_misses=64, consecutive_misses=8, blank_iterations=4000
        )
        clean = simulate(workload, sesc()).ground_truth
        instrumented = simulate(
            InstrumentedWorkload(
                workload, InstrumentationConfig(period_instructions=5_000)
            ),
            sesc(),
        ).ground_truth
        return clean, instrumented

    def test_overhead_positive(self, runs):
        clean, instrumented = runs
        effect = observer_effect(clean, instrumented)
        assert effect.overhead_fraction > 0.0
        assert effect.handler_cycles > 0

    def test_handler_misses_counted(self, runs):
        clean, instrumented = runs
        effect = observer_effect(clean, instrumented)
        assert effect.handler_misses > 0

    def test_app_misses_separated_from_handler_misses(self, runs):
        clean, instrumented = runs
        effect = observer_effect(clean, instrumented)
        app_instr = sum(
            1 for m in instrumented.misses if m.region != INTERRUPT_REGION
        )
        assert app_instr == clean.miss_count() + effect.app_miss_delta

    def test_identity_comparison_is_zero(self, runs):
        clean, _ = runs
        effect = observer_effect(clean, clean)
        assert effect.overhead_fraction == 0.0
        assert effect.app_miss_delta == 0
        assert effect.handler_misses == 0

    def test_rejects_empty_clean(self):
        with pytest.raises(ValueError):
            observer_effect(GroundTruth(), GroundTruth())
