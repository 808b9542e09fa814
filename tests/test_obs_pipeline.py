"""Observability integrated with the pipeline and the CLI.

Covers the acceptance path end to end: an instrumented capture ->
profile run must produce a trace whose spans cover normalize, detect
and report correctly nested under profile, and whose per-name rollup
sums each stage's work (stalls, samples, instructions).  Also holds
the `profile_window` coordinate-shift regression test.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import obs
from repro.cli import main
from repro.core.events import DetectedStall, StallTable
from repro.core.profiler import Emprof
from repro.io import load_report
from repro.devices import olimex, sesc
from repro.experiments.runner import run_device, run_simulator
from repro.workloads import Microbenchmark


@pytest.fixture()
def obs_clean():
    """Observability on, global tracer cleared before and after."""
    previous = obs.set_obs_enabled(True)
    obs.trace.reset()
    yield
    obs.trace.reset()
    obs.set_obs_enabled(previous)


class TestPipelineInstrumentation:
    def test_device_run_records_span_tree_and_metrics(self, obs_clean):
        run = run_device(
            Microbenchmark(total_misses=32, consecutive_misses=4, seed=3),
            olimex(),
            bandwidth_hz=40e6,
        )
        names = {r.name for r in obs.trace.records()}
        assert {
            "run_device", "sim.run", "channel.apply", "receiver.capture",
            "profile", "normalize", "detect", "report",
        } <= names

        by_id = {r.span_id: r for r in obs.trace.records()}
        profile = obs.trace.by_name("profile")[0]
        for child in ("normalize", "detect", "report"):
            record = obs.trace.by_name(child)[0]
            assert by_id[record.parent_id].name == "profile"
        assert by_id[profile.parent_id].name == "run_device"

        rollup = obs.trace.aggregate()
        report, truth = run.report, run.result.ground_truth
        assert rollup["profile"]["sums"]["stalls"] == report.miss_count > 0
        assert rollup["report"]["sums"]["refresh"] == report.refresh_count
        assert rollup["report"]["sums"]["low_confidence"] == 0
        assert rollup["report"]["sums"]["dropped"] == 0
        assert rollup["detect"]["count"] == 1
        assert rollup["sim.run"]["sums"] == {
            "cycles": truth.total_cycles,
            "instructions": truth.total_instructions,
            "power_samples": len(run.result.power_trace),
        }
        assert rollup["receiver.capture"]["count"] == 1
        assert rollup["receiver.capture"]["sums"]["samples"] == len(
            run.capture.magnitude
        )

    def test_simulator_run_span_carries_stalls_not_a_second_duration(
        self, obs_clean
    ):
        # The span's own begin/end already time the run.
        run = run_simulator(
            Microbenchmark(total_misses=32, consecutive_misses=4, seed=3),
            config=sesc(),
        )
        (record,) = obs.trace.by_name("run_simulator")
        assert record.attrs["stalls"] == len(run.report.stalls) > 0
        assert "wall_time_s" not in record.attrs
        assert not hasattr(run, "wall_time_s")

    def test_disabled_run_records_nothing(self):
        previous = obs.set_obs_enabled(False)
        obs.trace.reset()
        try:
            run_device(
                Microbenchmark(total_misses=16, consecutive_misses=4, seed=3),
                olimex(),
            )
            assert obs.trace.records() == []
            assert obs.trace.aggregate() == {}
        finally:
            obs.set_obs_enabled(previous)

    def test_observability_does_not_change_results(self):
        """The watcher must not perturb the watched."""
        workload = Microbenchmark(total_misses=32, consecutive_misses=4, seed=5)
        previous = obs.set_obs_enabled(False)
        try:
            off = run_device(workload, olimex(), seed=1).report
            obs.set_obs_enabled(True)
            on = run_device(workload, olimex(), seed=1).report
        finally:
            obs.set_obs_enabled(previous)
        assert on.miss_count == off.miss_count
        assert on.stall_cycles == pytest.approx(off.stall_cycles)


class TestCliArtifacts:
    def test_profile_writes_trace_and_metrics(self, obs_clean, tmp_path, capsys):
        cap_path = tmp_path / "cap.npz"
        spans_path = tmp_path / "spans.json"
        report_path = tmp_path / "report.json"
        assert main(
            ["capture", "--workload", "micro", "--tm", "64", "--cm", "4",
             "-o", str(cap_path)]
        ) == 0
        assert main(
            ["profile", str(cap_path),
             "--trace-out", str(spans_path), "-o", str(report_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "trace (" in out

        trace_doc = json.loads(spans_path.read_text())
        assert trace_doc["format"] == "repro-obs-trace"
        rows = {row["name"]: row for row in trace_doc["spans"]}
        assert {"profile", "normalize", "detect", "report"} <= set(rows)
        for child in ("normalize", "detect", "report"):
            assert rows[child]["parent_id"] == rows["profile"]["span_id"]

        report = load_report(str(report_path))
        assert rows["profile"]["attrs"]["stalls"] == report.miss_count > 0
        assert rows["report"]["attrs"]["refresh"] == report.refresh_count

    def test_trace_out_auto_enables_obs(self, tmp_path):
        """--trace-out works without EMPROF_OBS being set."""
        cap_path = tmp_path / "cap.npz"
        spans_path = tmp_path / "spans.json"
        previous = obs.set_obs_enabled(False)
        obs.trace.reset()
        try:
            main(["capture", "--workload", "micro", "--tm", "32", "--cm", "4",
                  "-o", str(cap_path)])
            assert main(
                ["profile", str(cap_path), "--trace-out", str(spans_path)]
            ) == 0
            rows = json.loads(spans_path.read_text())["spans"]
            names = {row["name"] for row in rows}
            assert {"profile", "detect", "report"} <= names
        finally:
            obs.trace.reset()
            obs.set_obs_enabled(previous)

    def test_obs_subcommand_renders_artifacts(self, obs_clean, tmp_path, capsys):
        cap_path = tmp_path / "cap.npz"
        spans_path = tmp_path / "spans.json"
        main(["capture", "--workload", "micro", "--tm", "32", "--cm", "4",
              "-o", str(cap_path)])
        main(["profile", str(cap_path), "--trace-out", str(spans_path)])
        capsys.readouterr()
        assert main(["obs", "show", "--trace", str(spans_path)]) == 0
        out = capsys.readouterr().out
        assert "spans" in out
        # Each span name's row ends in its summed work attributes.
        profile_row = next(
            line for line in out.splitlines() if line.split()[0] == "profile"
        )
        assert "stalls=" in profile_row and "samples=" in profile_row

    def test_obs_show_needs_an_artifact(self, capsys):
        assert main(["obs", "show"]) == 2
        assert "show needs" in capsys.readouterr().err

    def test_obs_summarizes_version_2_trace_payloads(self, tmp_path, capsys):
        # A per-process trace file written before payload version 3.
        payload = {
            "format": "repro-obs-trace",
            "version": 2,
            "trace_id": "abcdabcdabcdabcd",
            "parent_span_id": "41:0",
            "pid": 42,
            "process": "worker0",
            "dropped": 1,
            "spans": [
                {"span_id": 0, "parent_id": None, "name": "campaign_worker",
                 "begin_s": 0.0, "end_s": 2.0, "duration_s": 2.0,
                 "depth": 0, "thread_id": 7, "attrs": {}},
                {"span_id": 1, "parent_id": 0, "name": "detect",
                 "begin_s": 0.5, "end_s": 1.0, "duration_s": 0.5,
                 "depth": 1, "thread_id": 7, "attrs": {}},
            ],
        }
        path = tmp_path / "worker0.trace.json"
        path.write_text(json.dumps(payload))
        assert main(["obs", "show", "--trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "2 spans (1 dropped)" in out
        assert "campaign_worker" in out and "500.000ms" in out

    def test_obs_subcommand_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["obs", "show", "--trace", str(bad)]) == 2
        assert capsys.readouterr().err

    def test_chrome_trace_format(self, obs_clean, tmp_path):
        cap_path = tmp_path / "cap.npz"
        chrome_path = tmp_path / "chrome.json"
        main(["capture", "--workload", "micro", "--tm", "32", "--cm", "4",
              "-o", str(cap_path)])
        assert main(
            ["profile", str(cap_path), "--trace-out", str(chrome_path),
             "--trace-format", "chrome"]
        ) == 0
        doc = json.loads(chrome_path.read_text())
        assert any(e["name"] == "detect" for e in doc["traceEvents"])

    def test_quiet_and_verbose_flags_parse(self, capsys):
        assert main(["-q", "devices"]) == 0
        capsys.readouterr()
        assert main(["-vv", "devices"]) == 0


class TestProfileWindowShift:
    def test_shifted_translates_only_positions(self):
        stall = DetectedStall(
            begin_sample=10.5, end_sample=12.25,
            begin_cycle=262.5, end_cycle=306.25,
            min_level=0.2, is_refresh=True, region=3,
        )
        moved = StallTable.from_stalls([stall]).shifted(100.0, 2500.0)[0]
        assert moved.begin_sample == pytest.approx(110.5)
        assert moved.end_sample == pytest.approx(112.25)
        assert moved.begin_cycle == pytest.approx(2762.5)
        assert moved.end_cycle == pytest.approx(2806.25)
        # Durations and classification survive the translation - the
        # regression a positional rebuild would scramble.
        assert moved.duration_samples == pytest.approx(stall.duration_samples)
        assert moved.duration_cycles == pytest.approx(stall.duration_cycles)
        assert moved.min_level == pytest.approx(stall.min_level)
        assert moved.is_refresh is True
        assert moved.region == 3

    def test_windowed_stalls_align_with_whole_signal(self, olimex_run):
        """profile_window must report whole-signal coordinates."""
        emprof = Emprof.from_simulation(olimex_run)
        whole = emprof.profile()
        assert whole.miss_count > 10
        begin = len(emprof.signal) // 4
        end = 3 * len(emprof.signal) // 4
        windowed = emprof.profile_window(begin, end)

        period = emprof.sample_period_cycles
        margin = 2.0  # samples of slack for window-edge effects
        interior = [
            s for s in whole.stalls
            if begin + margin < s.begin_sample and s.end_sample < end - margin
        ]
        assert interior, "window must contain interior stalls"
        windowed_begins = np.array([s.begin_sample for s in windowed.stalls])
        for s in interior:
            deltas = np.abs(windowed_begins - s.begin_sample)
            match = windowed.stalls[int(np.argmin(deltas))]
            assert match.begin_sample == pytest.approx(s.begin_sample, abs=1e-6)
            assert match.end_sample == pytest.approx(s.end_sample, abs=1e-6)
            assert match.begin_cycle == pytest.approx(
                match.begin_sample * period, abs=1e-6
            )
            assert match.is_refresh == s.is_refresh
            assert match.min_level == pytest.approx(s.min_level, abs=1e-9)


class TestStallCountersEveryMode:
    """Every profiling mode's rollup counts each reported stall once:
    the ``report`` span carries the final stall and refresh counts."""

    @staticmethod
    def _signal():
        from tests.conftest import make_dip_signal

        x = make_dip_signal(n=8000, seed=4)
        x[3000:3100] = 0.05  # a refresh-length dip (2000 cycles)
        return x

    @staticmethod
    def _counters():
        sums = obs.trace.aggregate()["report"]["sums"]
        return sums["stalls"], sums["refresh"]

    @staticmethod
    def _stream(x, cfg):
        from repro.core.streaming import StreamingEmprof

        streamer = StreamingEmprof(
            50e6, 1e9, normalizer=cfg.normalizer, detector=cfg.detector
        )
        for begin in range(0, len(x), 997):
            streamer.process(x[begin : begin + 997])
        return streamer.finish()

    @pytest.mark.parametrize(
        "mode", ["profile", "profile_chunked", "profile_window", "streaming"]
    )
    def test_counters_match_report(self, obs_clean, mode):
        from repro.core.normalize import NormalizerConfig
        from repro.core.profiler import EmprofConfig

        cfg = EmprofConfig(normalizer=NormalizerConfig(window_samples=301))
        x = self._signal()
        emprof = Emprof(x, 50e6, 1e9, config=cfg)
        emprof.normalized()  # the windowed run reuses the cached normalization
        obs.trace.reset()
        if mode == "profile":
            report = emprof.profile()
        elif mode == "profile_chunked":
            report = emprof.profile_chunked(chunk_samples=997)
        elif mode == "profile_window":
            report = emprof.profile_window(1000, 7000)
        else:
            report = self._stream(x, cfg)
        assert report.miss_count > 10
        assert report.refresh_count >= 1
        assert self._counters() == (report.miss_count, report.refresh_count)
