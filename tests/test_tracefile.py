"""Tests for instruction-trace recording and replay."""

import numpy as np
import pytest

from repro.devices import sesc
from repro.sim.isa import Instr, alu, load, unpack
from repro.sim.machine import simulate
from repro.sim.tracefile import TraceWorkload, record_workload, save_trace
from repro.workloads import Microbenchmark


class TestSaveLoad:
    def test_roundtrip_preserves_instructions(self, tmp_path):
        instrs = [alu(0x100, region=2), load(0x104, 0x2000, dep=3, region=2)]
        path = tmp_path / "t.npz"
        n = save_trace(path, instrs, region_names={2: "main"}, name="mini")
        assert n == 2
        replay = TraceWorkload(path)
        assert replay.name == "mini"
        assert replay.region_names == {2: "main"}
        out = list(unpack(replay.instructions(sesc())))
        assert out == instrs

    def test_len(self, tmp_path):
        path = tmp_path / "t.npz"
        save_trace(path, [alu(0x100)] * 7)
        assert len(TraceWorkload(path)) == 7

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "t.npz"
        save_trace(path, [])
        replay = TraceWorkload(path)
        assert len(replay) == 0
        assert list(replay.instructions(sesc())) == []

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "x.npz"
        np.savez(path, format="something")
        with pytest.raises(ValueError):
            TraceWorkload(path)


class TestReplayEquivalence:
    def test_replay_simulates_identically(self, tmp_path):
        cfg = sesc()
        workload = Microbenchmark(
            total_misses=32, consecutive_misses=4, blank_iterations=2000
        )
        path = tmp_path / "micro.npz"
        count = record_workload(path, workload, cfg)
        assert count > 0

        direct = simulate(workload, cfg, seed=3)
        replayed = simulate(TraceWorkload(path), cfg, seed=3)

        assert (
            direct.ground_truth.total_cycles == replayed.ground_truth.total_cycles
        )
        assert direct.ground_truth.miss_count() == replayed.ground_truth.miss_count()
        np.testing.assert_array_equal(direct.power_trace, replayed.power_trace)

    def test_region_names_carried_to_result(self, tmp_path):
        cfg = sesc()
        workload = Microbenchmark(
            total_misses=16, consecutive_misses=4, blank_iterations=1000
        )
        path = tmp_path / "micro.npz"
        record_workload(path, workload, cfg)
        result = simulate(TraceWorkload(path), cfg)
        assert result.ground_truth.region_names == workload.region_names
