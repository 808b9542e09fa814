"""Tests for capture/report/ground-truth serialization."""

import json
import zipfile
import zlib

import numpy as np
import pytest

from repro import io as repro_io
from repro.core.events import DetectedStall, ProfileReport
from repro.emsignal.receiver import Capture
from repro.errors import CorruptCaptureError
from repro.sim.trace import (
    CAUSE_DATA_MEM,
    DLOAD,
    GroundTruth,
    IFETCH,
    MissRecord,
    StallRecord,
)


@pytest.fixture()
def capture():
    rng = np.random.default_rng(0)
    return Capture(
        magnitude=rng.random(500),
        sample_rate_hz=40e6,
        clock_hz=1.008e9,
        bandwidth_hz=40e6,
        region_names={1: "main", 2: "loop"},
    )


@pytest.fixture()
def report():
    stalls = [
        DetectedStall(10.5, 24.25, 210.0, 485.0, 0.04, is_refresh=False, region=1),
        DetectedStall(100.0, 220.0, 2000.0, 4400.0, 0.02, is_refresh=True),
    ]
    return ProfileReport(
        stalls=stalls,
        total_cycles=50_000.0,
        clock_hz=1.008e9,
        sample_period_cycles=25.2,
        region_names={1: "main"},
    )


@pytest.fixture()
def truth():
    misses = [
        MissRecord(0, DLOAD, 0x1000, 100, 380, stall_id=0, region=1),
        MissRecord(1, IFETCH, 0x2000, 500, 780, stall_id=None,
                   refresh_blocked=True, region=2),
    ]
    stalls = [StallRecord(0, 120, 380, CAUSE_DATA_MEM, [0], False, 1)]
    return GroundTruth(
        misses=misses,
        stalls=stalls,
        total_cycles=1000,
        total_instructions=4000,
        region_names={1: "a", 2: "b"},
        region_cycles={1: 600, 2: 400},
    )


class TestCaptureRoundtrip:
    def test_roundtrip(self, capture, tmp_path):
        path = tmp_path / "cap.npz"
        repro_io.save_capture(path, capture)
        loaded = repro_io.load_capture(path)
        np.testing.assert_array_equal(loaded.magnitude, capture.magnitude)
        assert loaded.sample_rate_hz == capture.sample_rate_hz
        assert loaded.clock_hz == capture.clock_hz
        assert loaded.bandwidth_hz == capture.bandwidth_hz
        assert loaded.region_names == capture.region_names

    def test_rejects_foreign_npz(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, format="something-else", data=np.zeros(3))
        with pytest.raises(ValueError):
            repro_io.load_capture(path)


class TestReportRoundtrip:
    def test_roundtrip(self, report, tmp_path):
        path = tmp_path / "report.json"
        repro_io.save_report(path, report)
        loaded = repro_io.load_report(path)
        assert loaded.miss_count == report.miss_count
        assert loaded.total_cycles == report.total_cycles
        assert loaded.clock_hz == report.clock_hz
        assert loaded.region_names == report.region_names
        for a, b in zip(report.stalls, loaded.stalls):
            assert a == b

    def test_statistics_survive(self, report, tmp_path):
        path = tmp_path / "report.json"
        repro_io.save_report(path, report)
        loaded = repro_io.load_report(path)
        assert loaded.stall_cycles == pytest.approx(report.stall_cycles)
        assert loaded.refresh_count == report.refresh_count

    def test_dict_rejects_wrong_format(self):
        with pytest.raises(ValueError):
            repro_io.report_from_dict({"format": "nope", "stalls": []})

    def test_report_without_evidence_has_no_evidence_key(self, report):
        # A report profiled without a recorder keeps the pre-flight keys.
        assert "evidence" not in repro_io.report_to_dict(report)

    def test_evidence_round_trips(self, report, tmp_path):
        from dataclasses import replace

        from repro.obs.flight import FLIGHT_SCHEMA_VERSION, ReportEvidence

        evidence = ReportEvidence(
            schema_version=FLIGHT_SCHEMA_VERSION,
            threshold=0.45,
            recover_threshold=0.7,
            min_duration_cycles=70.0,
            min_duration_samples=4,
            total_events=12,
        )
        with_evidence = replace(report, evidence=evidence)
        path = tmp_path / "evidence.json"
        repro_io.save_report(path, with_evidence)
        loaded = repro_io.load_report(path)
        assert loaded.evidence == evidence


def _v1_payload(report):
    """``report`` as the v1 writer stored it: one object per stall."""
    payload = repro_io.report_to_dict(report)
    payload["format"] = "emprof-report-v1"
    payload["stalls"] = [
        {
            "begin_sample": s.begin_sample,
            "end_sample": s.end_sample,
            "begin_cycle": s.begin_cycle,
            "end_cycle": s.end_cycle,
            "min_level": s.min_level,
            "is_refresh": s.is_refresh,
            "region": s.region,
            "low_confidence": s.low_confidence,
        }
        for s in report.stalls
    ]
    return payload


class TestReportFormatV2:
    FIELDS = [
        "begin_sample", "end_sample", "begin_cycle", "end_cycle",
        "min_level", "is_refresh", "region", "low_confidence",
    ]

    def test_stalls_are_one_object_of_equal_length_lists(self, report, tmp_path):
        path = tmp_path / "report.json"
        repro_io.save_report(path, report)
        payload = json.loads(path.read_text())
        assert payload["format"] == "emprof-report-v2"
        stalls = payload["stalls"]
        assert list(stalls) == self.FIELDS
        assert all(isinstance(column, list) for column in stalls.values())
        assert {len(column) for column in stalls.values()} == {2}
        assert stalls["begin_sample"] == [10.5, 100.0]
        assert stalls["region"] == [1, None]
        assert stalls["is_refresh"] == [False, True]

    def test_floats_round_trip_exactly(self, tmp_path):
        values = [-0.0, 5e-324, 1e300, 0.1 + 0.2, 1 / 3, 2.0 ** 0.5]
        stalls = [
            DetectedStall(v, abs(v) + 1.0, v, abs(v) + 2.0, v) for v in values
        ]
        report = ProfileReport(stalls, 10.0, 1e9, 20.0)
        path = tmp_path / "report.json"
        repro_io.save_report(path, report)
        loaded = repro_io.load_report(path)
        for got, want in zip(loaded.stalls, stalls):
            for name in ("begin_sample", "end_sample", "begin_cycle", "min_level"):
                assert repr(getattr(got, name)) == repr(getattr(want, name))
        assert repr(loaded.stalls[0].begin_sample) == "-0.0"

    def test_python_types_come_back(self, tmp_path):
        stalls = [
            DetectedStall(1.0, 2.0, 20.0, 40.0, 0.1, True, 7, False),
            DetectedStall(3.0, 4.0, 60.0, 80.0, 0.2, False, None, True),
        ]
        path = tmp_path / "report.json"
        repro_io.save_report(path, ProfileReport(stalls, 100.0, 1e9, 20.0))
        loaded = repro_io.load_report(path).stalls
        assert loaded == stalls
        assert type(loaded[0].region) is int and loaded[1].region is None
        for stall in loaded:
            assert type(stall.is_refresh) is bool
            assert type(stall.low_confidence) is bool
            assert type(stall.begin_sample) is float

    def test_empty_report_round_trips(self, tmp_path):
        empty = ProfileReport([], 1000.0, 1e9, 20.0)
        path = tmp_path / "report.json"
        repro_io.save_report(path, empty)
        payload = json.loads(path.read_text())
        assert payload["stalls"] == {name: [] for name in self.FIELDS}
        loaded = repro_io.load_report(path)
        assert loaded == empty and loaded.stalls == []

    def test_v1_file_still_loads(self, report, tmp_path):
        from dataclasses import replace

        from repro.core.events import QualitySummary
        from repro.obs.flight import FLIGHT_SCHEMA_VERSION, ReportEvidence

        full = replace(
            report,
            quality=QualitySummary(gap_count=1, dropped_samples=5),
            evidence=ReportEvidence(
                schema_version=FLIGHT_SCHEMA_VERSION,
                threshold=0.45,
                recover_threshold=0.7,
                min_duration_cycles=70.0,
                min_duration_samples=4,
                total_events=3,
            ),
        )
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(_v1_payload(full)))
        loaded = repro_io.load_report(path)
        assert loaded == full
        assert loaded.quality == full.quality
        assert loaded.evidence == full.evidence
        assert repro_io.report_to_dict(loaded) == repro_io.report_to_dict(full)

    def test_v1_without_optional_fields(self, report):
        payload = _v1_payload(report)
        for stall in payload["stalls"]:
            del stall["region"], stall["low_confidence"]
        loaded = repro_io.report_from_dict(payload)
        assert [s.region for s in loaded.stalls] == [None, None]
        assert loaded.low_confidence_count == 0


class TestFlightSidecarIO:
    def test_save_and_load(self, tmp_path):
        from repro.obs.flight import (
            FLIGHT_SCHEMA_VERSION,
            FlightEvent,
            FlightRecorder,
        )

        recorder = FlightRecorder(capacity=8)
        recorder.record(
            FlightEvent(
                schema_version=FLIGHT_SCHEMA_VERSION, kind="finish", pos=9.0
            )
        )
        path = tmp_path / "run.flight"
        assert repro_io.save_flight(path, recorder, capture="cap.npz") == 1
        header, events = repro_io.load_flight(path)
        assert header["capture"] == "cap.npz"
        assert events[0].kind == "finish"

    def test_load_missing_is_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            repro_io.load_flight(tmp_path / "absent.flight")

    def test_load_garbage_is_corrupt_capture_error(self, tmp_path):
        path = tmp_path / "garbage.flight"
        path.write_text("not a flight sidecar\n")
        with pytest.raises(CorruptCaptureError, match="flight"):
            repro_io.load_flight(path)


class TestGroundTruthRoundtrip:
    def test_roundtrip(self, truth, tmp_path):
        path = tmp_path / "truth.npz"
        repro_io.save_ground_truth(path, truth)
        loaded = repro_io.load_ground_truth(path)
        assert loaded.total_cycles == truth.total_cycles
        assert loaded.total_instructions == truth.total_instructions
        assert loaded.region_names == truth.region_names
        assert loaded.region_cycles == truth.region_cycles
        assert loaded.miss_count() == truth.miss_count()
        for a, b in zip(truth.misses, loaded.misses):
            assert a == b
        for a, b in zip(truth.stalls, loaded.stalls):
            assert a == b

    def test_queries_survive(self, truth, tmp_path):
        path = tmp_path / "truth.npz"
        repro_io.save_ground_truth(path, truth)
        loaded = repro_io.load_ground_truth(path)
        assert loaded.memory_stall_cycles() == truth.memory_stall_cycles()
        assert loaded.hidden_miss_count() == truth.hidden_miss_count()

    def test_empty_truth(self, tmp_path):
        path = tmp_path / "empty.npz"
        repro_io.save_ground_truth(path, GroundTruth())
        loaded = repro_io.load_ground_truth(path)
        assert loaded.miss_count() == 0
        assert loaded.stalls == []

    def test_rejects_foreign_npz(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, format="emprof-capture-v1")
        with pytest.raises(ValueError):
            repro_io.load_ground_truth(path)

    def test_large_truth_reads_each_column_once(self, tmp_path, monkeypatch):
        # NpzFile[key] decompresses the whole member on every access, so
        # a per-record column read made loading quadratic in the misses.
        n = 3000
        misses = [
            MissRecord(i, DLOAD if i % 3 else IFETCH, 0x1000 + 64 * i,
                       10 * i, 10 * i + 280,
                       stall_id=None if i % 7 == 0 else i // 2,
                       refresh_blocked=i % 11 == 0, region=i % 4)
            for i in range(n)
        ]
        stalls = [
            StallRecord(j, 20 * j, 20 * j + 260, CAUSE_DATA_MEM,
                        [2 * j, 2 * j + 1], j % 5 == 0, j % 4)
            for j in range(n // 2)
        ]
        truth = GroundTruth(misses=misses, stalls=stalls,
                            total_cycles=10 * n + 300,
                            total_instructions=40 * n)
        path = tmp_path / "truth.npz"
        repro_io.save_ground_truth(path, truth)

        reads = {}
        getitem = np.lib.npyio.NpzFile.__getitem__

        def counting(self, key):
            reads[key] = reads.get(key, 0) + 1
            return getitem(self, key)

        monkeypatch.setattr(np.lib.npyio.NpzFile, "__getitem__", counting)
        loaded = repro_io.load_ground_truth(path)
        assert loaded.misses == truth.misses
        assert loaded.stalls == truth.stalls
        assert "miss_addr" in reads
        assert max(reads.values()) == 1, reads


class TestCorruptionDetection:
    """v2 checksum/length verification and typed corruption errors."""

    def save(self, capture, tmp_path, **overrides):
        path = tmp_path / "cap.npz"
        repro_io.save_capture(path, capture)
        if overrides:
            with np.load(path, allow_pickle=False) as data:
                fields = {k: data[k] for k in data.files}
            fields.update(overrides)
            np.savez_compressed(path, **fields)
        return path

    def test_error_names_the_file(self, capture, tmp_path):
        path = self.save(capture, tmp_path, checksum=np.int64(1))
        with pytest.raises(CorruptCaptureError) as excinfo:
            repro_io.load_capture(path)
        assert str(path) in str(excinfo.value)
        assert str(excinfo.value.path) == str(path)
        assert isinstance(excinfo.value, ValueError)  # back-compat

    def test_detects_bit_rot(self, capture, tmp_path):
        flipped = capture.magnitude.copy()
        flipped[100] += 1e-9
        path = self.save(capture, tmp_path, magnitude=flipped)
        with pytest.raises(CorruptCaptureError, match="checksum"):
            repro_io.load_capture(path)

    def test_detects_truncated_array(self, capture, tmp_path):
        path = self.save(capture, tmp_path, magnitude=capture.magnitude[:100])
        with pytest.raises(CorruptCaptureError, match="truncated"):
            repro_io.load_capture(path)

    def test_detects_truncated_file(self, capture, tmp_path):
        path = self.save(capture, tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(CorruptCaptureError):
            repro_io.load_capture(path)

    def test_rejects_non_npz_garbage(self, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"this is not a zip archive")
        with pytest.raises(CorruptCaptureError):
            repro_io.load_capture(path)

    def test_missing_field(self, capture, tmp_path):
        path = tmp_path / "cap.npz"
        np.savez(path, format="emprof-capture-v1",
                 magnitude=capture.magnitude)
        with pytest.raises(CorruptCaptureError, match="missing field"):
            repro_io.load_capture(path)

    def test_malformed_region_json(self, capture, tmp_path):
        path = self.save(
            capture, tmp_path, region_names="{not json"
        )
        with pytest.raises(CorruptCaptureError, match="region_names"):
            repro_io.load_capture(path)

    def test_non_dict_region_json(self, capture, tmp_path):
        path = self.save(capture, tmp_path, region_names="[1, 2]")
        with pytest.raises(CorruptCaptureError, match="region_names"):
            repro_io.load_capture(path)

    def test_missing_file_stays_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            repro_io.load_capture(tmp_path / "nope.npz")

    def test_v1_capture_without_checksum_loads(self, capture, tmp_path):
        path = tmp_path / "v1.npz"
        np.savez_compressed(
            path,
            format="emprof-capture-v1",
            magnitude=capture.magnitude,
            sample_rate_hz=capture.sample_rate_hz,
            clock_hz=capture.clock_hz,
            bandwidth_hz=capture.bandwidth_hz,
            region_names=json.dumps(
                {str(k): v for k, v in capture.region_names.items()}
            ),
        )
        loaded = repro_io.load_capture(path)
        np.testing.assert_array_equal(loaded.magnitude, capture.magnitude)
        assert loaded.region_names == capture.region_names

    def test_truth_checksum_mismatch(self, truth, tmp_path):
        path = tmp_path / "truth.npz"
        repro_io.save_ground_truth(path, truth)
        with np.load(path, allow_pickle=False) as data:
            fields = {k: data[k] for k in data.files}
        fields["miss_addr"] = np.asarray(fields["miss_addr"]) + 1
        np.savez_compressed(path, **fields)
        with pytest.raises(CorruptCaptureError, match="checksum"):
            repro_io.load_ground_truth(path)

    def test_truth_truncated_stalls(self, truth, tmp_path):
        path = tmp_path / "truth.npz"
        repro_io.save_ground_truth(path, truth)
        with np.load(path, allow_pickle=False) as data:
            fields = {k: data[k] for k in data.files}
        fields["n_stalls"] = np.int64(int(fields["n_stalls"]) + 2)
        np.savez_compressed(path, **fields)
        with pytest.raises(CorruptCaptureError, match="truncated"):
            repro_io.load_ground_truth(path)

    def test_truth_missing_file_stays_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            repro_io.load_ground_truth(tmp_path / "nope.npz")


class TestOnDiskContract:
    """What the files look like: stored capture members, compact report
    JSON, and captures written by earlier releases still loading."""

    def test_capture_members_are_stored_not_deflated(self, capture, tmp_path):
        path = tmp_path / "cap.npz"
        repro_io.save_capture(path, capture)
        with zipfile.ZipFile(path) as archive:
            members = archive.infolist()
        assert {m.filename for m in members} >= {"magnitude.npy", "checksum.npy"}
        assert all(m.compress_type == zipfile.ZIP_STORED for m in members)

    def test_deflated_v2_capture_still_loads(self, capture, tmp_path):
        # The layout save_capture wrote before it stopped deflating.
        path = tmp_path / "deflated.npz"
        np.savez_compressed(
            path,
            format="emprof-capture-v2",
            magnitude=capture.magnitude,
            n_samples=len(capture.magnitude),
            checksum=zlib.crc32(capture.magnitude.tobytes()),
            sample_rate_hz=capture.sample_rate_hz,
            clock_hz=capture.clock_hz,
            bandwidth_hz=capture.bandwidth_hz,
            region_names=json.dumps(
                {str(k): v for k, v in capture.region_names.items()}
            ),
        )
        loaded = repro_io.load_capture(path)
        assert loaded.magnitude.tobytes() == capture.magnitude.tobytes()
        assert loaded.sample_rate_hz == capture.sample_rate_hz
        assert loaded.clock_hz == capture.clock_hz
        assert loaded.bandwidth_hz == capture.bandwidth_hz
        assert loaded.region_names == capture.region_names

    @pytest.mark.parametrize("drop", [1, 64, 2048])
    def test_truncated_stored_capture_is_corrupt(self, capture, tmp_path, drop):
        path = tmp_path / "cap.npz"
        repro_io.save_capture(path, capture)
        path.write_bytes(path.read_bytes()[:-drop])
        with pytest.raises(CorruptCaptureError):
            repro_io.load_capture(path)

    def test_flipped_magnitude_byte_is_corrupt(self, capture, tmp_path):
        path = tmp_path / "cap.npz"
        repro_io.save_capture(path, capture)
        raw = bytearray(path.read_bytes())
        # Stored members keep the array's bytes verbatim in the file.
        offset = raw.find(capture.magnitude.tobytes())
        assert offset > 0
        raw[offset + 8 * 250 + 3] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptCaptureError):
            repro_io.load_capture(path)

    def test_report_file_is_compact_json(self, tmp_path):
        from dataclasses import replace

        from repro.core.events import QualitySummary
        from repro.core.profiler import Emprof, EmprofConfig
        from repro.core.normalize import NormalizerConfig
        from repro.obs.flight import FlightRecorder

        from tests.conftest import make_dip_signal

        profiled = Emprof(
            make_dip_signal(),
            50e6,
            1e9,
            config=EmprofConfig(normalizer=NormalizerConfig(window_samples=301)),
            region_names={1: "main"},
        ).profile(flight=FlightRecorder())
        assert profiled.stalls and profiled.evidence.stalls
        full = replace(
            profiled,
            quality=QualitySummary(
                gap_count=2,
                dropped_samples=17,
                clipped_samples=3,
                gain_steps=1,
                impaired_sample_spans=2,
                impaired_samples=40,
            ),
        )
        path = tmp_path / "report.json"
        repro_io.save_report(path, full)
        assert path.read_text() == json.dumps(repro_io.report_to_dict(full))
        assert repro_io.load_report(path) == full


class TestEndToEndPersistence:
    def test_simulated_capture_roundtrip(self, olimex_run, tmp_path):
        from repro.emsignal import measure

        cap = measure(olimex_run, bandwidth_hz=40e6)
        path = tmp_path / "run.npz"
        repro_io.save_capture(path, cap)
        loaded = repro_io.load_capture(path)

        from repro.core.profiler import Emprof

        a = Emprof.from_capture(cap).profile()
        b = Emprof.from_capture(loaded).profile()
        assert a.miss_count == b.miss_count
        assert a.stall_cycles == pytest.approx(b.stall_cycles)


@pytest.fixture(scope="module")
def parser_truth():
    from repro.devices import olimex
    from repro.sim.machine import Machine
    from repro.workloads import spec_workload

    return Machine(olimex(), seed=0).run(spec_workload("parser", scale=0.25)).ground_truth


def _record_columns(truth):
    """A truth's columns as the record-loop writer built them."""
    misses, stalls = truth.misses, truth.stalls
    return dict(
        total_cycles=truth.total_cycles,
        total_instructions=truth.total_instructions,
        region_names=json.dumps({str(k): v for k, v in truth.region_names.items()}),
        region_cycles=json.dumps({str(k): v for k, v in truth.region_cycles.items()}),
        miss_kind=np.array([m.kind for m in misses], dtype="U8"),
        miss_addr=np.array([m.addr for m in misses], dtype=np.int64),
        miss_detect=np.array([m.detect_cycle for m in misses], dtype=np.int64),
        miss_ready=np.array([m.ready_cycle for m in misses], dtype=np.int64),
        miss_stall=np.array(
            [-1 if m.stall_id is None else m.stall_id for m in misses], dtype=np.int64
        ),
        miss_refresh=np.array([m.refresh_blocked for m in misses], dtype=bool),
        miss_region=np.array([m.region for m in misses], dtype=np.int64),
        stall_begin=np.array([s.begin_cycle for s in stalls], dtype=np.int64),
        stall_end=np.array([s.end_cycle for s in stalls], dtype=np.int64),
        stall_cause=np.array([s.cause for s in stalls], dtype="U16"),
        stall_refresh=np.array([s.refresh for s in stalls], dtype=bool),
        stall_region=np.array([s.region for s in stalls], dtype=np.int64),
        stall_misses=json.dumps([s.miss_ids for s in stalls]),
    )


class TestTruthFilesFromEarlierReleases:
    """Truth files written by the record-loop writers still load."""

    def assert_same_truth(self, loaded, truth):
        assert loaded.misses == truth.misses and loaded.stalls == truth.stalls
        assert loaded.total_cycles == truth.total_cycles
        assert loaded.total_instructions == truth.total_instructions
        assert loaded.region_names == truth.region_names
        assert loaded.region_cycles == truth.region_cycles

    def test_v1_file_loads(self, parser_truth, tmp_path):
        # v1 had no n_misses, n_stalls or checksum.
        path = tmp_path / "v1.npz"
        np.savez_compressed(path, format="emprof-truth-v1", **_record_columns(parser_truth))
        self.assert_same_truth(repro_io.load_ground_truth(path), parser_truth)

    def test_record_loop_v2_file_loads(self, parser_truth, tmp_path):
        columns = _record_columns(parser_truth)
        path = tmp_path / "v2.npz"
        np.savez_compressed(
            path,
            format="emprof-truth-v2",
            n_misses=len(parser_truth.misses),
            n_stalls=len(parser_truth.stalls),
            checksum=zlib.crc32(
                b"".join(
                    columns[k].tobytes()
                    for k in ("miss_addr", "miss_detect", "stall_begin", "stall_end")
                )
            ),
            **columns,
        )
        self.assert_same_truth(repro_io.load_ground_truth(path), parser_truth)

    def test_saved_columns_are_the_record_loop_columns(self, parser_truth, tmp_path):
        path = tmp_path / "truth.npz"
        repro_io.save_ground_truth(path, parser_truth)
        with np.load(path, allow_pickle=False) as data:
            for name, want in _record_columns(parser_truth).items():
                got = data[name]
                assert got.dtype == np.asarray(want).dtype, name
                assert got.tobytes() == np.asarray(want).tobytes(), name


class TestTruthColumnChecks:
    """Every column has one entry per record and every id exists."""

    def saved(self, truth, tmp_path):
        """The fields of ``truth``'s file, as arrays."""
        path = tmp_path / "truth.npz"
        repro_io.save_ground_truth(path, truth)
        with np.load(path, allow_pickle=False) as data:
            return {k: data[k] for k in data.files}

    def resave(self, truth, tmp_path, v1=False, **overrides):
        fields = self.saved(truth, tmp_path)
        if v1:
            for key in ("n_misses", "n_stalls", "checksum"):
                del fields[key]
            fields["format"] = "emprof-truth-v1"
        fields.update(overrides)
        path = tmp_path / "truth.npz"
        np.savez_compressed(path, **fields)
        return path

    def stall_lists(self, truth):
        return [s.miss_ids for s in truth.stalls]

    @pytest.mark.parametrize("v1", [False, True], ids=["v2", "v1"])
    @pytest.mark.parametrize(
        "column", ["miss_kind", "miss_detect", "miss_ready", "miss_stall", "miss_refresh",
                   "miss_region", "stall_end", "stall_cause", "stall_refresh", "stall_region"],
    )
    def test_short_column(self, parser_truth, tmp_path, column, v1):
        short = self.saved(parser_truth, tmp_path)[column][:-1]
        path = self.resave(parser_truth, tmp_path, v1=v1, **{column: short})
        with pytest.raises(CorruptCaptureError, match=f"truncated ground truth: {column} "):
            repro_io.load_ground_truth(path)

    def test_one_stall_list_too_few(self, parser_truth, tmp_path):
        lists = self.stall_lists(parser_truth)[:-1]
        path = self.resave(parser_truth, tmp_path, stall_misses=json.dumps(lists))
        with pytest.raises(CorruptCaptureError, match="truncated ground truth: stall_misses "):
            repro_io.load_ground_truth(path)

    def test_miss_id_out_of_range(self, parser_truth, tmp_path):
        lists = self.stall_lists(parser_truth)
        lists[0] = [10**6]
        path = self.resave(parser_truth, tmp_path, stall_misses=json.dumps(lists))
        with pytest.raises(CorruptCaptureError, match="missing record"):
            repro_io.load_ground_truth(path)

    def test_stall_id_out_of_range(self, parser_truth, tmp_path):
        stall_of = self.saved(parser_truth, tmp_path)["miss_stall"]
        stall_of[0] = 10**6
        path = self.resave(parser_truth, tmp_path, miss_stall=stall_of)
        with pytest.raises(CorruptCaptureError, match="missing record"):
            repro_io.load_ground_truth(path)

    def test_stall_lists_not_lists(self, truth, tmp_path):
        path = self.resave(truth, tmp_path, stall_misses=json.dumps([1]))
        with pytest.raises(CorruptCaptureError, match="malformed stall_misses"):
            repro_io.load_ground_truth(path)
