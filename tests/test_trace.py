"""Unit tests for ground-truth trace records and queries."""

import numpy as np
import pytest

from repro.sim.trace import (
    CAUSE_DATA_MEM,
    CAUSE_LLC_HIT,
    CAUSE_MSHR_FULL,
    DLOAD,
    GroundTruth,
    IFETCH,
    MissRecord,
    StallRecord,
)


def make_truth():
    misses = [
        MissRecord(0, DLOAD, 0x1000, 100, 380, stall_id=0, region=1),
        MissRecord(1, IFETCH, 0x2000, 500, 780, stall_id=1, region=2),
        MissRecord(2, DLOAD, 0x3000, 900, 1180, stall_id=None, region=1),
        MissRecord(3, DLOAD, 0x4000, 1500, 1790, stall_id=2, refresh_blocked=True, region=2),
    ]
    stalls = [
        StallRecord(0, 120, 380, CAUSE_DATA_MEM, [0], region=1),
        StallRecord(1, 510, 780, CAUSE_MSHR_FULL, [1], region=2),
        StallRecord(2, 1520, 1790, CAUSE_DATA_MEM, [3], refresh=True, region=2),
        StallRecord(3, 2000, 2018, CAUSE_LLC_HIT, [], region=1),
    ]
    return GroundTruth(
        misses=misses,
        stalls=stalls,
        total_cycles=2500,
        total_instructions=5000,
        region_names={1: "alpha", 2: "beta"},
        region_cycles={1: 1500, 2: 1000},
    )


class TestMissQueries:
    def test_miss_count(self):
        assert make_truth().miss_count() == 4

    def test_stalling_misses(self):
        assert make_truth().stalling_miss_count() == 3

    def test_hidden_misses(self):
        assert make_truth().hidden_miss_count() == 1

    def test_miss_latency_property(self):
        m = make_truth().misses[0]
        assert m.latency == 280


class TestStallQueries:
    def test_memory_stalls_exclude_llc_hits(self):
        truth = make_truth()
        assert truth.memory_stall_count() == 3
        assert all(s.is_memory for s in truth.memory_stalls())

    def test_memory_stall_cycles(self):
        assert make_truth().memory_stall_cycles() == 260 + 270 + 270

    def test_refresh_stall_count(self):
        assert make_truth().refresh_stall_count() == 1

    def test_stall_fraction(self):
        truth = make_truth()
        assert truth.stall_fraction() == pytest.approx(800 / 2500)

    def test_stall_fraction_empty(self):
        assert GroundTruth().stall_fraction() == 0.0

    def test_stall_intervals_shape(self):
        iv = make_truth().stall_intervals()
        assert iv.shape == (3, 2)
        assert (iv[:, 1] > iv[:, 0]).all()

    def test_stall_intervals_empty(self):
        assert GroundTruth().stall_intervals().shape == (0, 2)

    def test_stall_durations(self):
        np.testing.assert_array_equal(
            make_truth().stall_durations(), [260, 270, 270]
        )

    def test_stall_duration_property(self):
        assert make_truth().stalls[0].duration == 260


class TestRegionQueries:
    def test_misses_by_region(self):
        assert make_truth().misses_by_region() == {1: 2, 2: 2}

    def test_stall_cycles_by_region(self):
        assert make_truth().stall_cycles_by_region() == {1: 260, 2: 540}


class TestTimeline:
    def test_miss_rate_timeline_bins(self):
        # Misses detect at cycles 100, 500, 900 (bin 0) and 1500 (bin 1).
        starts, counts = make_truth().miss_rate_timeline(1000)
        assert len(starts) == 3
        np.testing.assert_array_equal(counts, [3, 1, 0])

    def test_timeline_rejects_bad_bin(self):
        with pytest.raises(ValueError):
            make_truth().miss_rate_timeline(0)

    def test_timeline_counts_total(self):
        _, counts = make_truth().miss_rate_timeline(100)
        assert counts.sum() == 4


class TestRowsBuiltOnRead:
    """A simulation, a save and a load build no record; reading builds each once."""

    @pytest.fixture()
    def built(self, monkeypatch):
        counts = {"miss": 0, "stall": 0}
        for key, cls in (("miss", MissRecord), ("stall", StallRecord)):
            init = cls.__init__

            def counting(self, *args, _init=init, _key=key, **kwargs):
                counts[_key] += 1
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        return counts

    def test_simulate_save_load_build_no_rows(self, built, tmp_path):
        from repro import io as repro_io
        from repro.core.validate import validate_profile
        from repro.devices import olimex
        from repro.experiments.runner import run_simulator
        from repro.workloads import spec_workload

        run = run_simulator(spec_workload("mcf", scale=0.1), config=olimex())
        truth = run.result.ground_truth
        validate_profile(run.report, truth, window_cycles=(0, truth.total_cycles / 2))
        path = tmp_path / "truth.npz"
        repro_io.save_ground_truth(path, truth)
        loaded = repro_io.load_ground_truth(path)
        for t in (truth, loaded):
            t.stall_cycles_by_region(), t.misses_by_region(), t.miss_rate_timeline(1000)
        assert built == {"miss": 0, "stall": 0}
        assert truth.miss_count() > 0 and truth.memory_stall_count() > 0
        assert truth.misses is truth.misses and truth.stalls is truth.stalls
        assert built == {"miss": truth.miss_count(), "stall": len(truth.stall_begin)}
