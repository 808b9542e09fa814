"""Tests for the command-line interface."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro import io as repro_io


class TestDevices:
    def test_lists_all_devices(self, capsys):
        assert main(["devices"]) == 0
        out = capsys.readouterr().out
        for name in ("alcatel", "samsung", "olimex"):
            assert name in out


class TestCaptureAndProfile:
    def test_capture_writes_npz(self, tmp_path, capsys):
        out_path = tmp_path / "cap.npz"
        code = main(
            [
                "capture",
                "--device", "olimex",
                "--workload", "micro",
                "--tm", "64",
                "--cm", "4",
                "-o", str(out_path),
            ]
        )
        assert code == 0
        cap = repro_io.load_capture(out_path)
        assert len(cap.magnitude) > 100
        assert cap.clock_hz == pytest.approx(1.008e9)

    def test_capture_with_ground_truth(self, tmp_path):
        cap_path = tmp_path / "cap.npz"
        gt_path = tmp_path / "gt.npz"
        main(
            [
                "capture", "--workload", "micro", "--tm", "32", "--cm", "4",
                "-o", str(cap_path), "--ground-truth", str(gt_path),
            ]
        )
        truth = repro_io.load_ground_truth(gt_path)
        assert truth.miss_count() >= 32

    def test_profile_reads_capture_and_writes_report(self, tmp_path, capsys):
        cap_path = tmp_path / "cap.npz"
        rep_path = tmp_path / "report.json"
        main(["capture", "--workload", "micro", "--tm", "64", "--cm", "4",
              "-o", str(cap_path)])
        capsys.readouterr()
        code = main(
            ["profile", str(cap_path), "--isolate-window", "-o", str(rep_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "EMPROF profile" in out
        assert "classification" in out
        payload = json.loads(rep_path.read_text())
        assert payload["format"] == "emprof-report-v1"
        report = repro_io.load_report(rep_path)
        assert abs(report.miss_count - 64) <= 2

    def test_profile_custom_threshold(self, tmp_path, capsys):
        cap_path = tmp_path / "cap.npz"
        main(["capture", "--workload", "micro", "--tm", "32", "--cm", "4",
              "-o", str(cap_path)])
        capsys.readouterr()
        assert main(["profile", str(cap_path), "--threshold", "0.5"]) == 0

    def test_spec_workload_capture(self, tmp_path):
        cap_path = tmp_path / "vpr.npz"
        code = main(
            ["capture", "--workload", "vpr", "--scale", "0.3", "-o", str(cap_path)]
        )
        assert code == 0

    @pytest.mark.parametrize("workload", ["micro", "boot", "vpr"])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_capture_matches_the_campaign_source(self, tmp_path, workload, seed):
        from repro.experiments import SimulatedCaptureSource

        path = tmp_path / "cap.npz"
        main(
            [
                "capture", "--workload", workload, "--tm", "32", "--cm", "4",
                "--scale", "0.3", "--seed", str(seed), "-o", str(path),
            ]
        )
        source = SimulatedCaptureSource(
            workload=workload, tm=32, cm=4, scale=0.3, seed=seed
        )
        np.testing.assert_array_equal(
            repro_io.load_capture(path).magnitude, source.capture().magnitude
        )

    def test_unknown_workload_exits(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["capture", "--workload", "doom", "-o", str(tmp_path / "x.npz")])


class TestFaultsCommand:
    def capture_path(self, tmp_path):
        path = tmp_path / "cap.npz"
        main(
            [
                "capture", "--workload", "micro", "--tm", "64", "--cm", "4",
                "-o", str(path),
            ]
        )
        return path

    def test_faults_demo_compares_clean_and_impaired(self, tmp_path, capsys):
        path = self.capture_path(tmp_path)
        capsys.readouterr()
        assert main(["faults", str(path), "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "injected impairments" in out
        assert "clean profile" in out
        assert "impaired profile" in out
        assert "low-confidence" in out
        assert "miss-count drift" in out

    def test_faults_saves_impaired_capture(self, tmp_path, capsys):
        path = self.capture_path(tmp_path)
        out_path = tmp_path / "impaired.npz"
        assert main(["faults", str(path), "-o", str(out_path)]) == 0
        impaired = repro_io.load_capture(out_path)
        clean = repro_io.load_capture(path)
        assert len(impaired.magnitude) < len(clean.magnitude)  # dropouts

    def test_faults_requires_an_impairment(self, tmp_path):
        path = self.capture_path(tmp_path)
        with pytest.raises(SystemExit):
            main(
                [
                    "faults", str(path), "--dropout-rate", "0",
                    "--gain-steps", "0", "--clip-rate", "0",
                ]
            )


class TestSelftest:
    def test_selftest_passes_on_olimex(self, capsys):
        assert main(["selftest", "--tm", "128", "--cm", "4"]) == 0
        assert "selftest passed" in capsys.readouterr().out


class TestTableCommand:
    def test_table5_small(self, capsys):
        assert main(["table", "5", "--scale", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "batch_process" in out

    def test_rejects_unknown_table(self):
        with pytest.raises(SystemExit):
            main(["table", "7"])


class TestAttributeCommand:
    def test_attribute_parser_small(self, capsys):
        from repro.cli import main

        assert main(["attribute", "--benchmark", "parser", "--scale", "0.6"]) == 0
        out = capsys.readouterr().out
        assert "Region" in out
        assert "optimization target" in out
