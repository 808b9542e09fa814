"""Ledger wiring: the profile CLI, the bench harness, and campaigns."""

import importlib.util
import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.core.detect import DetectorConfig
from repro.core.normalize import NormalizerConfig
from repro.core.profiler import EmprofConfig
from repro.emsignal.receiver import Capture
from repro.errors import HardwareMissingError
from repro.experiments import Campaign, RunSpec
from repro.obs.ledger import RunLedger

SMALL = EmprofConfig(
    normalizer=NormalizerConfig(window_samples=301),
    detector=DetectorConfig(),
)

BENCH_CONFTEST = (
    Path(__file__).resolve().parent.parent / "benchmarks" / "conftest.py"
)


class StaticSource:
    """A SignalSource returning a synthetic dip capture."""

    def capture(self):
        rng = np.random.default_rng(0)
        x = np.full(3000, 0.9) + rng.normal(0, 0.02, 3000)
        for s in range(200, 2800, 170):
            x[s : s + 13] = 0.1
        return Capture(
            magnitude=np.clip(x, 0.0, None),
            sample_rate_hz=50e6,
            clock_hz=1e9,
            bandwidth_hz=50e6,
            region_names={},
        )


class DeadSource:
    def capture(self):
        raise HardwareMissingError("probe unplugged")


class TestProfileCliLedger:
    def _capture(self, tmp_path):
        path = tmp_path / "cap.npz"
        main(
            ["capture", "--workload", "micro", "--tm", "64", "--cm", "4",
             "-o", str(path)]
        )
        return path

    def test_profile_appends_profile_record(self, tmp_path, capsys):
        cap = self._capture(tmp_path)
        ledger_path = tmp_path / "ledger.jsonl"
        code = main(["profile", str(cap), "--ledger", str(ledger_path)])
        assert code == 0
        assert "ledger +1" in capsys.readouterr().out
        records, bad = RunLedger(ledger_path).read_with_errors()
        assert bad == 0
        (entry,) = records
        assert entry.kind == "profile"
        assert entry.label == "cap"
        assert entry.wall_time_s > 0
        assert entry.config_fingerprint.startswith("sha256:")
        assert entry.extra["capture"] == str(cap)
        assert "miss_count" in entry.extra

    def test_two_profiles_make_two_entries(self, tmp_path):
        cap = self._capture(tmp_path)
        ledger_path = tmp_path / "ledger.jsonl"
        main(["profile", str(cap), "--ledger", str(ledger_path)])
        main(["profile", str(cap), "--ledger", str(ledger_path)])
        assert len(RunLedger(ledger_path)) == 2

    def test_no_ledger_flag_no_ledger_file(self, tmp_path):
        cap = self._capture(tmp_path)
        main(["profile", str(cap)])
        assert list(tmp_path.glob("*.jsonl")) == []

    def test_obs_subcommand_delegates_with_flags(self, tmp_path):
        # `repro obs regress ... --allow-missing` parses in the mounted
        # repro-obs tree.
        missing = str(tmp_path / "absent.jsonl")
        assert main(["obs", "regress", missing, "--allow-missing"]) == 0

    def test_obs_subcommand_exit_codes_pass_through(self, tmp_path):
        missing = str(tmp_path / "absent.jsonl")
        assert main(["obs", "regress", missing]) == 2
        assert main(["obs", "ledger", missing]) == 2

    def test_ledger_defaults_to_bounded_tail(self, tmp_path, capsys):
        # A long history must not flood the terminal by default: the
        # last 20 entries plus a banner, with --tail 0 opting into all.
        from repro.obs.ledger import record

        ledger_path = tmp_path / "long.jsonl"
        ledger = RunLedger(ledger_path, fsync=False)
        for i in range(25):
            ledger.append(
                record(kind="profile", label=f"cap{i:02d}", wall_time_s=0.01)
            )
        assert main(["obs", "ledger", str(ledger_path)]) == 0
        out = capsys.readouterr().out
        assert "showing last 20 of 25 entries" in out
        assert "--tail 0 for all" in out
        assert "cap04" not in out  # oldest five hidden
        assert "cap24" in out

        assert main(["obs", "ledger", str(ledger_path), "--tail", "0"]) == 0
        out = capsys.readouterr().out
        assert "showing last" not in out
        assert "cap00" in out and "cap24" in out


class TestCampaignTelemetry:
    def _specs(self, n=1, factory=StaticSource):
        return [
            RunSpec(name=f"r{i}", source_factory=factory, config=SMALL)
            for i in range(n)
        ]

    def test_ledger_gets_run_and_summary_records(self, tmp_path):
        ledger_path = tmp_path / "ledger.jsonl"
        campaign = Campaign(tmp_path / "camp", ledger=ledger_path)
        campaign.execute(self._specs(2))
        records = RunLedger(ledger_path).read()
        kinds = [r.kind for r in records]
        assert kinds == ["campaign-run", "campaign-run", "campaign"]
        run = records[0]
        assert run.label == "camp/r0"
        assert run.extra["status"] == "done"
        assert run.wall_time_s > 0
        assert run.extra["miss_count"] > 0  # report stats travel along
        summary = records[-1]
        assert summary.label == "camp"
        assert summary.extra["counts"]["done"] == 2
        assert summary.extra["completed"] is True

    def test_failed_run_recorded_with_error(self, tmp_path):
        ledger_path = tmp_path / "ledger.jsonl"
        campaign = Campaign(
            tmp_path / "camp", ledger=ledger_path, sleep=lambda _: None
        )
        campaign.execute(self._specs(1, factory=DeadSource))
        run, summary = RunLedger(ledger_path).read()
        assert run.extra["status"] == "failed"
        assert "HardwareMissingError" in run.extra["error"]
        assert summary.extra["counts"]["failed"] == 1

    def test_flight_sidecars_written_and_retained(self, tmp_path):
        campaign = Campaign(tmp_path / "camp", flight=True, flight_retain=2)
        campaign.execute(self._specs(4))
        sidecars = sorted(p.name for p in (tmp_path / "camp").glob("*.flight"))
        assert sidecars == ["r2.flight", "r3.flight"]  # newest two kept
        from repro import io as repro_io

        header, events = repro_io.load_flight(tmp_path / "camp" / "r3.flight")
        assert header["run"] == "r3"
        assert events
        # Saved reports carry the evidence too.
        report = repro_io.load_report(campaign.report_path("r3"))
        assert report.evidence is not None
        assert len(report.evidence.stalls) == len(report.stalls)

    def test_no_flight_by_default(self, tmp_path):
        from repro import io as repro_io

        campaign = Campaign(tmp_path / "camp")
        campaign.execute(self._specs(1))
        assert list((tmp_path / "camp").glob("*.flight")) == []
        assert repro_io.load_report(campaign.report_path("r0")).evidence is None

    def test_prune_skips_a_sidecar_a_sibling_just_deleted(
        self, tmp_path, monkeypatch
    ):
        campaign = Campaign(tmp_path / "camp", flight=True, flight_retain=1)
        for age, name in enumerate(["r0", "r1", "r2", "r3"]):
            sidecar = campaign.directory / f"{name}.flight"
            sidecar.write_text("x")
            os.utime(sidecar, (1000 + age, 1000 + age))
        vanishing = campaign.directory / "r1.flight"
        stat = Path.stat

        def racing_stat(self, *args, **kwargs):
            if self == vanishing:
                # A sibling worker unlinks it between glob() and stat().
                os.unlink(self)
            return stat(self, *args, **kwargs)

        monkeypatch.setattr(Path, "stat", racing_stat)
        campaign._prune_flights()
        monkeypatch.undo()
        remaining = sorted(p.name for p in campaign.directory.glob("*.flight"))
        assert remaining == ["r3.flight"]

    def test_flight_retain_validated(self, tmp_path):
        with pytest.raises(ValueError):
            Campaign(tmp_path / "camp", flight=True, flight_retain=0)

    def test_manifest_entries_carry_timing(self, tmp_path):
        campaign = Campaign(tmp_path / "camp")
        campaign.execute(self._specs(1))
        payload = json.loads(campaign.manifest_path.read_text())
        entry = payload["runs"]["r0"]
        assert entry["status"] == "done"
        assert entry["wall_time_s"] > 0
        assert entry["finished_unix_s"] > 0

    def test_heartbeat_progress(self, tmp_path):
        campaign = Campaign(tmp_path / "camp")
        assert campaign.load_progress() == {}  # fresh campaign
        campaign.execute(self._specs(3))
        progress = campaign.load_progress()
        assert progress["counts"] == {"done": 3, "failed": 0, "skipped": 0}
        assert progress["total_planned"] == 3
        assert progress["last_run"] == "r2"
        assert progress["updated_unix_s"] > 0

    def test_ledger_accepts_runledger_instance(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        campaign = Campaign(tmp_path / "camp", ledger=ledger)
        assert campaign.ledger is ledger

    def test_no_ledger_is_the_default(self, tmp_path):
        campaign = Campaign(tmp_path / "camp")
        result = campaign.execute(self._specs(1))
        assert result.completed
        assert campaign.ledger is None
        assert list(tmp_path.glob("*.jsonl")) == []

    def test_resume_skips_but_still_summarizes(self, tmp_path):
        ledger_path = tmp_path / "ledger.jsonl"
        Campaign(tmp_path / "camp", ledger=ledger_path).execute(self._specs(1))
        Campaign(tmp_path / "camp", ledger=ledger_path).execute(self._specs(1))
        records = RunLedger(ledger_path).read()
        # Second pass: everything skipped => no campaign-run record,
        # one more summary.
        assert [r.kind for r in records] == [
            "campaign-run", "campaign", "campaign",
        ]
        assert records[-1].extra["counts"]["skipped"] == 1


class TestBenchHarness:
    """The bench conftest's session hook, exercised in isolation."""

    @pytest.fixture()
    def bench_conftest(self, tmp_path, monkeypatch):
        spec = importlib.util.spec_from_file_location(
            "bench_conftest_under_test", BENCH_CONFTEST
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        monkeypatch.setattr(
            module, "_LEDGER_PATH", tmp_path / "LEDGER_obs.jsonl"
        )
        return module

    @staticmethod
    def _session(module, nodeid, wall):
        module._BENCH_RESULTS.clear()
        module._BENCH_RESULTS.append(
            {
                "benchmark": nodeid,
                "wall_time_s": wall,
                "spans": {"detect": {"count": 1, "total_s": wall, "mean_s": wall}},
            }
        )
        module.pytest_sessionfinish(session=None, exitstatus=0)

    def test_two_sessions_two_ledger_entries(self, bench_conftest):
        # The acceptance check: `make bench` twice appends two ledger
        # entries, and the ledger is the session's only output.
        self._session(bench_conftest, "benchmarks/test_a.py::test_a", 0.5)
        self._session(bench_conftest, "benchmarks/test_a.py::test_a", 0.6)
        records = RunLedger(bench_conftest._LEDGER_PATH).read()
        assert [r.kind for r in records] == ["bench", "bench"]
        assert [r.wall_time_s for r in records] == [0.5, 0.6]
        assert all(r.git_rev for r in records)
        assert [p.name for p in bench_conftest._LEDGER_PATH.parent.iterdir()] == [
            bench_conftest._LEDGER_PATH.name
        ]

    def test_no_results_no_files(self, bench_conftest):
        bench_conftest._BENCH_RESULTS.clear()
        bench_conftest.pytest_sessionfinish(session=None, exitstatus=0)
        assert not bench_conftest._LEDGER_PATH.exists()
