"""Unit tests for the instruction model and the power accumulator."""

import numpy as np
import pytest

from repro.sim import isa
from repro.sim.config import PowerConfig
from repro.sim.power import PowerAccumulator


class TestInstructionBuilders:
    def test_alu(self):
        ins = isa.alu(0x100, region=3)
        assert ins.op == isa.ALU
        assert ins.pc == 0x100
        assert ins.region == 3
        assert ins.dep == isa.NO_CONSUMER

    def test_load_dep(self):
        ins = isa.load(0x100, 0x2000, dep=4)
        assert ins.op == isa.LOAD
        assert ins.addr == 0x2000
        assert ins.dep == 4

    def test_load_rejects_negative_dep(self):
        with pytest.raises(ValueError):
            isa.load(0x100, 0x2000, dep=-1)

    def test_store_never_blocks_directly(self):
        assert isa.store(0x100, 0x2000).dep == isa.NO_CONSUMER

    def test_weights_ordering(self):
        # A multiply switches more transistors than a nop.
        assert isa.DEFAULT_WEIGHTS[isa.MUL] > isa.DEFAULT_WEIGHTS[isa.ALU]
        assert isa.DEFAULT_WEIGHTS[isa.ALU] > isa.DEFAULT_WEIGHTS[isa.NOP]

    def test_op_names_cover_all(self):
        for op in (isa.ALU, isa.LOAD, isa.STORE, isa.BRANCH, isa.MUL, isa.NOP):
            assert op in isa.OP_NAMES


class TestPowerAccumulator:
    def make(self, bin_cycles=10, idle=0.1):
        return PowerAccumulator(PowerConfig(bin_cycles=bin_cycles, idle_level=idle))

    def test_idle_floor(self):
        acc = self.make()
        acc.note_cycle(99)
        trace = acc.finalize(100)
        assert len(trace) == 10
        assert np.allclose(trace, 0.1)

    def test_single_issue_lands_in_right_bin(self):
        acc = self.make()
        acc.add_issue(25, 1.0)
        trace = acc.finalize(100)
        assert trace[2] == pytest.approx(0.1 + 1.0 / 10)
        assert trace[0] == pytest.approx(0.1)

    def test_multiple_issues_accumulate(self):
        acc = self.make()
        acc.add_issue(5, 1.0)
        acc.add_issue(7, 2.0)
        trace = acc.finalize(10)
        assert trace[0] == pytest.approx(0.1 + 3.0 / 10)

    def test_busy_span_single_bin(self):
        acc = self.make()
        acc.add_busy_span(2, 6, 0.5)
        trace = acc.finalize(10)
        assert trace[0] == pytest.approx(0.1 + 4 * 0.5 / 10)

    def test_busy_span_multiple_bins(self):
        acc = self.make()
        acc.add_busy_span(5, 35, 1.0)
        trace = acc.finalize(40)
        # Bins: [5,10) -> 5 cycles, [10,20) -> 10, [20,30) -> 10, [30,35) -> 5
        assert trace[0] == pytest.approx(0.1 + 0.5)
        assert trace[1] == pytest.approx(0.1 + 1.0)
        assert trace[2] == pytest.approx(0.1 + 1.0)
        assert trace[3] == pytest.approx(0.1 + 0.5)

    def test_busy_span_empty_is_noop(self):
        acc = self.make()
        acc.add_busy_span(5, 5, 1.0)
        assert np.allclose(acc.finalize(10), 0.1)

    def test_growth_beyond_initial_capacity(self):
        acc = self.make(bin_cycles=1)
        acc.add_issue(100_000, 1.0)
        trace = acc.finalize(100_001)
        assert trace[100_000] == pytest.approx(0.1 + 1.0)

    def test_finalize_extends_to_total(self):
        acc = self.make()
        acc.add_issue(3, 1.0)
        assert len(acc.finalize(200)) == 20

    def test_finalize_covers_max_seen_cycle(self):
        acc = self.make()
        acc.add_issue(95, 1.0)
        assert len(acc.finalize(10)) == 10  # 96 cycles -> 10 bins

    def test_activity_conservation(self):
        # Total activity in the trace equals what was deposited.
        acc = self.make(idle=0.0)
        total = 0.0
        rng = np.random.default_rng(0)
        for _ in range(100):
            c = int(rng.integers(0, 500))
            w = float(rng.random())
            acc.add_issue(c, w)
            total += w
        trace = acc.finalize(500)
        assert trace.sum() * 10 == pytest.approx(total)
