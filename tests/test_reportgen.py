"""Tests for the one-command reproduction report generator."""

import numpy as np
import pytest

from repro.experiments.reportgen import ARTIFACTS, generate_report


class TestGenerateReport:
    def test_subset_writes_results_md(self, tmp_path):
        path = generate_report(tmp_path, include=["perf"])
        assert path.name == "results.md"
        text = path.read_text()
        assert "# EMPROF reproduction" in text
        assert "perf baseline anecdote" in text
        assert "32768 / 14543" in text

    def test_figure_sections_save_series(self, tmp_path):
        generate_report(tmp_path, scale=0.5, include=["fig12"])
        data = np.load(tmp_path / "fig12_sweep.npz")
        assert len(data["bandwidth_hz"]) == 10  # 2 devices x 5 bandwidths
        assert (data["detected"] >= 0).all()

    def test_table5_section(self, tmp_path):
        path = generate_report(tmp_path, include=["table5"])
        assert "batch_process" in path.read_text()

    def test_unknown_section_rejected(self, tmp_path):
        target = tmp_path / "out"
        with pytest.raises(ValueError):
            generate_report(target, include=["table9"])
        assert not target.exists()

    @pytest.mark.parametrize("scale", [0.0, -1.0, float("nan")])
    def test_non_positive_scale_rejected_before_writing(self, tmp_path, scale):
        target = tmp_path / "out"
        with pytest.raises(ValueError, match="scale must be a positive number"):
            generate_report(target, scale=scale, include=["perf"])
        assert not target.exists()

    def test_creates_missing_directory(self, tmp_path):
        target = tmp_path / "deep" / "dir"
        path = generate_report(target, include=["perf"])
        assert path.exists()

    def test_sections_record_timing(self, tmp_path):
        path = generate_report(tmp_path, include=["perf"])
        assert "generated in" in path.read_text()


class TestCliIntegration:
    def test_reproduce_subcommand(self, tmp_path, capsys):
        from repro.cli import main

        code = main(["reproduce", "-o", str(tmp_path), "--only", "perf"])
        assert code == 0
        assert (tmp_path / "results.md").exists()

    def test_reproduce_rejects_unknown_artifact_before_writing(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["reproduce", "-o", str(out), "--only", "perf,table9"])
        assert exc.value.code == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "table9" in err
        assert ", ".join(ARTIFACTS) in err

    def test_table_prints_its_results_md_section(self, capsys, monkeypatch):
        from repro.cli import main
        from tests.test_golden_report import count_machine_runs, golden_section

        calls = count_machine_runs(monkeypatch)
        # Each table simulates only its own runs: a report's shared
        # device runs do not leak into a single ``repro table``.
        simulations = {"table2": 12, "table3": 14, "table4": 42, "table5": 4}
        for key in (key for key in ARTIFACTS if key.startswith("table")):
            capsys.readouterr()
            calls.clear()
            assert main(["table", key.removeprefix("table"), "--scale", "1"]) == 0
            assert capsys.readouterr().out == golden_section(key) + "\n", key
            assert len(calls) == simulations[key], key

    @pytest.mark.parametrize("scale", ["0", "-1", "nan"])
    @pytest.mark.parametrize(
        "command",
        [["table", "2"], ["table", "3"], ["reproduce", "-o"], ["attribute"]],
    )
    def test_scale_must_be_positive(self, tmp_path, capsys, command, scale):
        from repro.cli import main

        out = tmp_path / "out"
        argv = command + [str(out)] if command[-1] == "-o" else command
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--scale", scale])
        assert exc.value.code == 2
        assert "scale must be positive" in capsys.readouterr().err
        assert not out.exists()

    def test_compare_subcommand(self, tmp_path, capsys):
        from repro import io as repro_io
        from repro.cli import main
        from repro.core.events import DetectedStall, ProfileReport

        def rep(stall_cycles, total):
            stalls = (
                [DetectedStall(0, stall_cycles / 20, 0, stall_cycles, 0.05)]
                if stall_cycles
                else []
            )
            return ProfileReport(stalls, total, 1e9, 20.0)

        before = tmp_path / "before.json"
        after = tmp_path / "after.json"
        repro_io.save_report(before, rep(5000, 10_000))
        repro_io.save_report(after, rep(1000, 6_500))
        code = main(["compare", str(before), str(after)])
        assert code == 0
        out = capsys.readouterr().out
        assert "improved" in out
        assert "speedup" in out
