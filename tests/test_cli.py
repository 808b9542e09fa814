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
        assert payload["format"] == "emprof-report-v2"
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


class TestUsageErrors:
    """Bad sizes are refused at parse time: exit 2, one line, no file."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["selftest", "--tm", "0"], "argument --tm: count must be positive"),
            (["selftest", "--cm", "-1"], "argument --cm: count must be positive"),
            (["selftest", "--tm", "x"], "argument --tm: invalid int value"),
            (["selftest", "--tm", "4"], "--cm 5 cannot exceed --tm 4"),
            (["capture", "--tm", "0"], "argument --tm: count must be positive"),
            (["capture", "--bandwidth-mhz", "-5"], "bandwidth must be positive"),
            (["capture", "--bandwidth-mhz", "0"], "bandwidth must be positive"),
            (["capture", "--bandwidth-mhz", "nan"], "bandwidth must be positive"),
            (["capture", "--bandwidth-mhz", "inf"], "bandwidth must be positive"),
            (["capture", "--tm", "4"], "--cm 5 cannot exceed --tm 4"),
        ],
    )
    def test_exits_2_without_a_traceback(self, tmp_path, capsys, argv, message):
        out = tmp_path / "cap.npz"
        if argv[0] == "capture":
            argv = argv + ["-o", str(out)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert not out.exists()


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


def _subcommands(parser):
    """The subcommand names a parser's (only) subparsers action offers."""
    import argparse

    (action,) = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return action.choices


class TestMountedTrees:
    """`repro obs` / `repro campaignd` are their entry points' trees."""

    @pytest.mark.parametrize(
        "command, module",
        [("obs", "repro.obs.cli"), ("campaignd", "repro.experiments.service")],
    )
    def test_same_subcommands_as_the_entry_point(self, command, module):
        import importlib

        from repro.cli import build_parser

        mounted = _subcommands(_subcommands(build_parser())[command])
        standalone = _subcommands(importlib.import_module(module).build_parser())
        assert list(mounted) == list(standalone)
        for name, parser in standalone.items():
            assert [a.dest for a in mounted[name]._actions] == [
                a.dest for a in parser._actions
            ]

    def test_obs_tree(self):
        from repro.obs.cli import build_parser

        assert list(_subcommands(build_parser())) == [
            "show", "demo", "ledger", "regress", "dashboard", "tail", "watch",
        ]

    def test_same_output_and_exit_code_both_ways(self, tmp_path, capsys):
        from repro.obs.cli import main as obs_main

        missing = str(tmp_path / "absent.jsonl")
        outputs = []
        for run in (main, obs_main):
            prefix = ["obs"] if run is main else []
            assert run(prefix + ["regress", missing, "--allow-missing"]) == 0
            assert run(prefix + ["ledger", missing]) == 2
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]

    def test_campaignd_client_reaches_its_verb(self, capsys):
        # A bad address fails in the client, after the verb parsed.
        assert main(["campaignd", "status", "--addr", "nowhere"]) == 2
        assert "bad address" in capsys.readouterr().err
