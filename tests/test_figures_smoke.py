"""Fast smoke tests for every figure driver.

The benches run the drivers at paper scale and assert the paper's
claims; these tests run them at reduced scale and defend the drivers'
*contracts* (shapes, annotation keys, basic sanity) so a refactor
cannot silently break a figure between bench runs.
"""

import numpy as np
import pytest

from repro.experiments import figures


class TestFig1:
    def test_contract(self):
        fig = figures.fig1_stall_dip(tm=24)
        assert len(fig.signal) > 50
        assert fig.moving_avg is not None and len(fig.moving_avg) == len(fig.signal)
        for key in ("stall_begin_sample", "stall_end_sample", "stall_cycles",
                    "stall_seconds"):
            assert key in fig.annotations
        assert fig.annotations["stall_end_sample"] > fig.annotations["stall_begin_sample"]


class TestFig2AndFig4:
    def test_fig2_contract(self):
        hit, miss = figures.fig2_hit_vs_miss()
        for fig in (hit, miss):
            assert fig.sample_rate_hz > 0
            assert len(fig.signal) > 0
        assert miss.annotations["memory_stalls"] > hit.annotations["memory_stalls"]

    def test_fig4_contract(self):
        hit, miss = figures.fig4_physical_hit_vs_miss()
        assert miss.annotations["detected_stalls"] > hit.annotations["detected_stalls"]
        assert miss.annotations["mean_stall_ns"] > 0


class TestFig5:
    def test_contract(self):
        r = figures.fig5_refresh(tm=600)
        assert r.refresh_stalls >= 1
        assert r.mean_duration_us > 0.5
        assert len(r.excerpt.signal) > 0


class TestFig7AndFig8:
    def test_fig7_contract(self):
        r = figures.fig7_microbenchmark_signal(tm=40, cm=5)
        assert r.expected == 40
        assert abs(r.detected_in_window - 40) <= 2
        assert len(r.zoom.signal) < len(r.overview.signal)

    def test_fig8_contract(self):
        sim, dev = figures.fig8_sim_vs_device(tm=40, cm=5)
        assert sim.expected == dev.expected == 40
        assert abs(sim.detected_in_window - dev.detected_in_window) <= 3


class TestFig11:
    def test_contract(self):
        results = figures.fig11_latency_histograms(
            benchmark="twolf", devices=("olimex",), scale=1.0
        )
        r = results[0]
        assert r.device == "olimex"
        assert len(r.edges_cycles) == len(r.counts) + 1
        assert r.counts.sum() > 0
        assert r.p99_cycles >= r.mean_cycles


class TestFig12:
    def test_contract(self):
        points = figures.fig12_bandwidth_sweep(
            benchmark="twolf",
            devices=("olimex",),
            bandwidths_hz=(20e6, 80e6),
            scale=1.0,
        )
        assert len(points) == 2
        assert {p.bandwidth_hz for p in points} == {20e6, 80e6}
        for p in points:
            assert p.detected_stalls >= 0
            assert p.total_stall_cycles >= p.mean_stall_cycles

    def test_simulates_once_per_device(self, monkeypatch):
        from repro.sim.machine import Machine

        calls = []
        run = Machine.run

        def counting_run(self, workload):
            calls.append(self.config.name)
            return run(self, workload)

        monkeypatch.setattr(Machine, "run", counting_run)
        points = figures.fig12_bandwidth_sweep(benchmark="twolf", scale=0.2)
        assert len(points) == 10  # 2 devices x 5 bandwidths
        assert calls == ["alcatel", "olimex"]

    def test_traces_one_span_per_device(self):
        from repro.obs import set_obs_enabled, trace

        previous = set_obs_enabled(True)
        trace.reset()
        try:
            figures.fig12_bandwidth_sweep(
                benchmark="twolf", bandwidths_hz=(20e6, 80e6), scale=0.2
            )
            spans = trace.records()
        finally:
            trace.reset()
            set_obs_enabled(previous)
        roots = [s for s in spans if s.name == "fig12_device"]
        assert [s.attrs["device"] for s in roots] == ["alcatel", "olimex"]
        captures = [s for s in spans if s.name == "receiver.capture"]
        assert len(captures) == 4
        assert {s.parent_id for s in captures} == {s.span_id for s in roots}


class TestFig13:
    def test_contract(self):
        runs = figures.fig13_boot_profile(seeds=(0,), scale=0.3)
        r = runs[0]
        assert len(r.time_ms) == len(r.miss_rate)
        assert r.total_misses > 0
        assert np.all(r.miss_rate >= 0)


class TestFig14:
    def test_contract(self):
        r = figures.fig14_parser_spectrogram(scale=0.6)
        assert r.spectrogram.n_frames > 5
        assert len(r.timeline.segments) >= 1
        assert len(r.regions_found) >= 2
