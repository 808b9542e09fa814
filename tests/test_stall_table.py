"""Stalls as columns: the profiler's stall table from engine to report file.

A campaign run profiles a capture, saves the report and summarizes it
for the ledger.  None of that may build a per-stall
:class:`DetectedStall`: ``report.stalls`` is a :class:`StallTable` on
every path, and its rows are built only when code iterates or indexes
it, once.  Nor may a streamed run build one.  Every report
aggregate read from the columns must equal its per-stall form bit for
bit, on the four captures the ``campaign-replay`` benchmark replays
(boot and parser on the Olimex model, at 40 and 160 MHz).
"""

from __future__ import annotations

import json
import math
from functools import partial

import numpy as np
import pytest

from repro import io as repro_io
from repro.acquire import FileSource
from repro.core.events import STALL_FIELDS, DetectedStall, ProfileReport, StallTable
from repro.core.profiler import Emprof
from repro.core.streaming import StreamingEmprof
from repro.core.validate import validate_profile
from repro.devices.models import default_channel, olimex
from repro.devtools.contracts import ContractViolation, check_stall_sequence
from repro.emsignal.apparatus import Apparatus
from repro.emsignal.receiver import MHZ
from repro.experiments.campaign import Campaign, RunSpec, _report_summary
from repro.faults.quality import QualityMonitor
from repro.obs.flight import FlightRecorder
from repro.sim.machine import simulate
from repro.workloads import BootWorkload, spec_workload

from tests.reference_quality import ReferenceQualityMonitor
from tests.test_quality_equivalence import CHUNK_SIZES, _pieces, _streamer
from tests.test_quality_equivalence import STREAMS as QUALITY_STREAMS


@pytest.fixture(scope="module")
def replay():
    """(name, capture, ground truth) for boot and parser at 40/160 MHz."""
    config = olimex(bin_cycles=5)
    results = {
        "boot": simulate(BootWorkload(seed=0), config, seed=0),
        "parser": simulate(spec_workload("parser", seed=11), config, seed=0),
    }
    out = []
    for name, result in results.items():
        for bandwidth in (40 * MHZ, 160 * MHZ):
            apparatus = Apparatus(
                channel=default_channel("olimex", seed=0), bandwidth_hz=bandwidth
            )
            out.append(
                (f"{name}@{bandwidth / MHZ:.0f}", apparatus.measure(result), result)
            )
    return out


@pytest.fixture()
def count_rows(monkeypatch):
    """A list whose length is the number of DetectedStall rows built."""
    built = []
    init = DetectedStall.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(DetectedStall, "__init__", counting_init)
    return built


def _streamed(capture):
    streamer = StreamingEmprof(
        capture.sample_rate_hz, capture.clock_hz, region_names=capture.region_names
    )
    magnitude = capture.magnitude
    for lo in range(0, len(magnitude), 4096):
        streamer.process(magnitude[lo : lo + 4096])
    return streamer.finish()


def _bits(value: float) -> str:
    return float(value).hex()


class TestNoRowsBuilt:
    def test_profile_save_summarize_build_no_stall(self, replay, count_rows, tmp_path):
        name, capture, result = replay[0]
        report = Emprof.from_capture(capture).profile()
        repro_io.save_report(tmp_path / "report.json", report)
        summary = _report_summary(report)
        validate_profile(report, result.ground_truth)
        report.validate()
        assert summary["miss_count"] == report.miss_count > 0
        assert count_rows == []
        # Iterating the stalls builds each row once.
        assert len(list(report.stalls)) == report.miss_count
        assert len(count_rows) == report.miss_count

    def test_loaded_report_builds_no_stall_until_read(self, replay, count_rows, tmp_path):
        _, capture, _ = replay[1]
        path = tmp_path / "report.json"
        repro_io.save_report(path, Emprof.from_capture(capture).profile())
        loaded = repro_io.load_report(path)
        _report_summary(loaded)
        assert count_rows == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_campaign_run_builds_no_stall(self, replay, tmp_path, monkeypatch, workers):
        """A forked worker inherits the patch: building a row fails the run."""

        def refuse(self, *args, **kwargs):
            raise AssertionError("a campaign run built a DetectedStall")

        specs = []
        for i, (name, capture, _) in enumerate(replay[:2]):
            path = tmp_path / f"cap{i}.npz"
            repro_io.save_capture(path, capture)
            specs.append(RunSpec(name=f"run{i}", source_factory=partial(FileSource, path)))
        monkeypatch.setattr(DetectedStall, "__init__", refuse)
        campaign = Campaign(tmp_path / "campaign", workers=workers, max_attempts=1)
        outcomes = campaign.execute(specs).outcomes
        assert [o.status for o in outcomes] == ["done", "done"]
        monkeypatch.undo()
        for outcome, (_, capture, _) in zip(outcomes, replay[:2]):
            assert outcome.report.stalls == Emprof.from_capture(capture).profile().stalls


def _v1_file(path, report):
    """``report`` saved as the v1 writer stored it: one object per stall."""
    payload = repro_io.report_to_dict(report)
    payload["format"] = "emprof-report-v1"
    payload["stalls"] = [
        {name: getattr(s, name) for name in STALL_FIELDS} for s in report.stalls
    ]
    path.write_text(json.dumps(payload))
    return path


class TestOneContainer:
    def test_every_producer_returns_a_table(self, replay, tmp_path):
        capture = replay[0][1]
        emprof = Emprof.from_capture(capture)
        report = emprof.profile()
        v2 = tmp_path / "v2.json"
        repro_io.save_report(v2, report)
        reports = {
            "profile": report,
            "profile_window": emprof.profile_window(1000, 20_000),
            "profile_chunked": emprof.profile_chunked(8192),
            "profile(flight=)": emprof.profile(flight=FlightRecorder()),
            "streaming": _streamed(capture),
            "load_report v1": repro_io.load_report(_v1_file(tmp_path / "v1.json", report)),
            "load_report v2": repro_io.load_report(v2),
            "list": ProfileReport([DetectedStall(1.0, 2.0, 20.0, 40.0, 0.1)], 100.0, 1e9, 20.0),
        }
        for path, got in reports.items():
            assert isinstance(got.stalls, StallTable), path
            assert got.miss_count > 0, path
        assert reports["list"].stalls.begin_cycle.tolist() == [20.0]
        for path in ("profile(flight=)", "load_report v1", "load_report v2"):
            assert reports[path].stalls == report.stalls.rows(), path

    def test_iterating_twice_builds_each_row_once(self, replay, count_rows):
        report = Emprof.from_capture(replay[0][1]).profile()
        first, second = list(report.stalls), list(report.stalls)
        assert len(count_rows) == report.miss_count > 0
        assert all(a is b for a, b in zip(first, second))
        assert report.stalls[3] is first[3]
        assert len(count_rows) == report.miss_count

    def test_streamed_run_builds_no_row_until_read(self, replay, count_rows):
        name, capture, _ = replay[2]
        assert name == "parser@40"
        report = _streamed(capture)
        stalls = report.stalls
        assert count_rows == []
        assert len(list(stalls)) == report.miss_count == len(count_rows) > 1000

    @pytest.mark.parametrize("size", CHUNK_SIZES)
    @pytest.mark.parametrize("name", sorted(QUALITY_STREAMS))
    def test_stalls_so_far_equals_the_reference_streamers(self, name, size):
        """The per-row ``stalls_so_far`` on the frozen monitor: every
        stall ``process`` returned, re-flagged by ``flag`` against the
        intervals known now."""
        build, quality = QUALITY_STREAMS[name]
        x, gaps = build()
        prod = _streamer(QualityMonitor, quality)
        ref = _streamer(ReferenceQualityMonitor, quality)
        returned = []
        for lo, hi, gap_before in _pieces(len(x), size, gaps):
            prod.process(x[lo:hi], gap_before=gap_before)
            returned.extend(ref.process(x[lo:hi], gap_before=gap_before))
            want = [ref.quality_monitor.flag(s) for s in returned]
            assert prod.stalls_so_far == want, (name, size, lo)
        assert want


class TestAggregatesBitIdentical:
    def test_every_aggregate_equals_its_per_stall_form(self, replay):
        for name, capture, result in replay:
            for report in (Emprof.from_capture(capture).profile(), _streamed(capture)):
                stalls = report.stalls
                total = sum(s.duration_cycles for s in stalls)
                assert report.miss_count == len(stalls), name
                assert report.refresh_count == sum(1 for s in stalls if s.is_refresh)
                assert report.low_confidence_count == sum(
                    1 for s in stalls if s.low_confidence
                )
                assert _bits(report.stall_cycles) == _bits(total), name
                assert _bits(report.stall_fraction) == _bits(
                    total / report.total_cycles
                )
                assert _bits(report.mean_latency_cycles) == _bits(total / len(stalls))
                np.testing.assert_array_equal(
                    report.latencies_cycles(),
                    np.array([s.duration_cycles for s in stalls], dtype=np.float64),
                )
                bin_cycles = report.total_cycles / 37.0
                starts, counts = report.miss_rate_timeline(bin_cycles)
                want = np.zeros(len(counts), dtype=np.int64)
                for s in stalls:
                    want[min(int(s.begin_cycle // bin_cycles), len(counts) - 1)] += 1
                assert counts.dtype == want.dtype
                np.testing.assert_array_equal(counts, want)
                v = validate_profile(report, result.ground_truth)
                assert _bits(v.detected_stall_cycles) == _bits(total)
                window = (0.25 * report.total_cycles, 0.75 * report.total_cycles)
                inside = [
                    s
                    for s in stalls
                    if window[0] <= 0.5 * (s.begin_cycle + s.end_cycle) < window[1]
                ]
                w = validate_profile(report, result.ground_truth, window_cycles=window)
                assert w.detected_misses == len(inside)
                assert _bits(w.detected_stall_cycles) == _bits(
                    float(sum(s.duration_cycles for s in inside))
                )

    def test_streamed_reports_carry_low_confidence_rows(self, replay):
        flagged = [_streamed(capture).low_confidence_count for _, capture, _ in replay]
        assert any(flagged)  # the low_confidence column is exercised


class TestContractsOnColumns:
    def _rows(self):
        stalls = [
            DetectedStall(float(b), b + 2.0, 20.0 * b, 20.0 * (b + 2), 0.1)
            for b in range(0, 40, 5)
        ]
        return StallTable.from_stalls(stalls).rows()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("begin_sample", math.nan),
            ("end_cycle", math.inf),
            ("min_level", -math.inf),
            ("end_sample", 0.5),  # inverted samples
            ("end_cycle", 1.0),  # inverted cycles
            ("begin_cycle", 10.0),  # out of order
        ],
    )
    def test_columns_raise_the_per_row_message(self, field, value):
        rows = self._rows()
        columns = StallTable.from_stalls(rows).to_dict()
        columns[field][3] = value
        table = StallTable.from_dict(columns)
        with pytest.raises(ContractViolation) as from_rows:
            check_stall_sequence(table.rows(), where="seq")
        with pytest.raises(ContractViolation) as from_columns:
            check_stall_sequence(table, where="seq")
        assert str(from_columns.value) == str(from_rows.value)
        assert str(from_columns.value).startswith("seq[3]: ")

    def test_clean_columns_pass_and_return_the_table(self):
        table = StallTable.from_stalls(self._rows())
        assert check_stall_sequence(table) is table
