"""The run ledger: records, fingerprints, append-only JSONL storage."""

import ast
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs import ledger as obs_ledger
from repro.obs.ledger import (
    RUN_KINDS,
    RunLedger,
    RunRecord,
    atomic_write_json,
    config_fingerprint,
    git_rev,
    record,
)

SRC_OBS = Path(__file__).resolve().parent.parent / "src" / "repro" / "obs"


class TestRunRecord:
    def test_roundtrip(self):
        entry = record(
            kind="profile",
            label="capture_a",
            wall_time_s=1.25,
            config={"threshold": 0.5},
            spans={
                "detect": {
                    "count": 1, "total_s": 0.9, "mean_s": 0.9,
                    "sums": {"stalls": 12},
                }
            },
            quality={"gap_count": 0},
            extra={"capture": "a.npz"},
        )
        restored = RunRecord.from_dict(json.loads(json.dumps(entry.to_dict())))
        assert restored == entry

    def test_group_key(self):
        entry = record(kind="bench", label="test_x", wall_time_s=0.1)
        assert entry.group == "bench:test_x"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown run kind"):
            record(kind="mystery", label="x", wall_time_s=0.1)

    def test_every_declared_kind_accepted(self):
        for kind in RUN_KINDS:
            assert record(kind=kind, label="x", wall_time_s=0.1).kind == kind

    def test_from_dict_rejects_foreign_schema(self):
        with pytest.raises(ValueError, match="not a repro-obs-ledger"):
            RunRecord.from_dict({"schema": "something-else", "kind": "bench"})

    def test_from_dict_rejects_missing_identity(self):
        with pytest.raises(ValueError, match="malformed"):
            RunRecord.from_dict(
                {"schema": obs_ledger.SCHEMA, "kind": "bench", "label": "x"}
            )

    def test_records_are_schema_versioned(self):
        entry = record(kind="profile", label="x", wall_time_s=0.1)
        payload = entry.to_dict()
        assert payload["schema"] == "repro-obs-ledger"
        assert payload["schema_version"] == obs_ledger.SCHEMA_VERSION


class TestConfigFingerprint:
    def test_stable_across_key_order(self):
        a = config_fingerprint({"x": 1, "y": 2})
        b = config_fingerprint({"y": 2, "x": 1})
        assert a == b
        assert a.startswith("sha256:")

    def test_distinguishes_configs(self):
        assert config_fingerprint({"x": 1}) != config_fingerprint({"x": 2})

    def test_accepts_dataclasses(self):
        @dataclasses.dataclass
        class Cfg:
            window: int = 301

        assert config_fingerprint(Cfg()) == config_fingerprint(
            {"window": 301}
        )


class TestGitRev:
    def test_inside_repo(self, tmp_path):
        # A repository of its own, so the test also holds on an
        # exported tree that has no .git directory.
        identity = ["-c", "user.name=test", "-c", "user.email=test@example.invalid"]

        def git(*args):
            return subprocess.run(
                ["git", *identity, "-c", "commit.gpgsign=false", *args],
                cwd=tmp_path,
                check=True,
                capture_output=True,
                text=True,
            ).stdout.strip()

        git("init", "-q")
        git("commit", "-q", "--allow-empty", "-m", "first")
        head = git("rev-parse", "HEAD")
        rev = git_rev(tmp_path)
        assert len(rev) >= 7
        assert head.startswith(rev)

    def test_outside_repo_is_unknown(self, tmp_path):
        assert git_rev(tmp_path) == "unknown"

    def test_never_raises_on_missing_dir(self, tmp_path):
        assert git_rev(tmp_path / "nope") == "unknown"


#: A ``repro profile --ledger`` line as written before the span rollup
#: carried ``sums``: a metrics-registry snapshot under ``metrics`` and
#: span rows with float counts (trimmed to a few instruments).
_REGISTRY_ERA_LINE = json.dumps(
    {
        "schema": "repro-obs-ledger",
        "schema_version": 1,
        "kind": "profile",
        "label": "cap",
        "wall_time_s": 0.0099,
        "created_unix_s": 1792389334.25,
        "git_rev": "a067e9a",
        "config_fingerprint": "sha256:d16abf4c45c57d44",
        "metrics": {
            "counters": {
                "stalls_detected_total": {"labels": {}, "value": 34.0},
                "profile_runs_total": {"labels": {}, "value": 1.0},
            },
            "gauges": {
                "sim_cycles_per_second": {"labels": {}, "value": 0.0},
            },
            "histograms": {
                "detect_latency_seconds": {
                    "labels": {}, "count": 1, "sum": 0.00108,
                    "min": 0.00108, "max": 0.00108,
                    "percentiles": {"p50": 0.00108, "p95": 0.00108, "p99": 0.00108},
                    "buckets": [{"le": 0.001, "count": 0}, {"le": "+Inf", "count": 1}],
                },
            },
        },
        "spans": {
            "detect": {"count": 1.0, "mean_s": 0.00108, "total_s": 0.00108},
            "profile": {"count": 1.0, "mean_s": 0.00211, "total_s": 0.00211},
        },
        "quality": None,
        "accuracy": None,
        "extra": {"capture": "cap.npz", "miss_count": 34},
    },
    sort_keys=True,
)


class TestRegistryEraLines:
    def test_line_with_a_metrics_key_still_loads(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text(_REGISTRY_ERA_LINE + "\n")
        (entry,) = RunLedger(path).read()
        assert entry.group == "profile:cap"
        assert entry.spans["detect"]["total_s"] == 0.00108
        assert "metrics" not in entry.to_dict()

    def test_regress_and_dashboard_run_over_old_and_new_lines(
        self, tmp_path, capsys
    ):
        from repro.obs import cli as obs_cli

        path = tmp_path / "ledger.jsonl"
        path.write_text((_REGISTRY_ERA_LINE + "\n") * 4)
        RunLedger(path).append(
            record(
                kind="profile",
                label="cap",
                wall_time_s=0.0099,
                spans={
                    "detect": {
                        "count": 1, "mean_s": 0.00108, "total_s": 0.00108,
                        "sums": {"samples": 4096, "stalls": 34},
                    },
                    "profile": {
                        "count": 1, "mean_s": 0.00211, "total_s": 0.00211,
                        "sums": {"samples": 4096, "stalls": 34},
                    },
                },
            )
        )
        assert obs_cli.main(["regress", str(path)]) == obs_cli.EXIT_OK
        assert "unparseable" not in capsys.readouterr().out
        html = tmp_path / "dash.html"
        assert obs_cli.main(["dashboard", str(path), "-o", str(html)]) == 0
        assert "dashboard (5 entries)" in capsys.readouterr().out
        assert "profile:cap" in html.read_text()


class TestRunLedger:
    def test_append_and_read(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        assert not ledger.exists()
        assert ledger.read_with_errors() == ([], 0)
        ledger.append(record(kind="bench", label="a", wall_time_s=0.1))
        ledger.append(record(kind="bench", label="a", wall_time_s=0.2))
        records, bad = ledger.read_with_errors()
        assert bad == 0
        assert [r.wall_time_s for r in records] == [0.1, 0.2]
        assert len(ledger) == 2

    def test_append_only_grows_file(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        ledger.append(record(kind="bench", label="a", wall_time_s=0.1))
        size_before = ledger.path.stat().st_size
        ledger.append(record(kind="bench", label="a", wall_time_s=0.2))
        assert ledger.path.stat().st_size > size_before

    def test_torn_final_line_is_skipped_not_fatal(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        ledger.append(record(kind="bench", label="a", wall_time_s=0.1))
        with open(ledger.path, "a", encoding="utf-8") as handle:
            handle.write('{"schema": "repro-obs-led')  # torn mid-write
        records, bad = ledger.read_with_errors()
        assert len(records) == 1
        assert bad == 1

    def test_foreign_lines_counted_not_fatal(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        ledger.path.write_text('{"some": "other json"}\nnot json at all\n')
        ledger.append(record(kind="profile", label="x", wall_time_s=0.3))
        records, bad = ledger.read_with_errors()
        assert len(records) == 1
        assert bad == 2

    def test_read_filters(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        ledger.append_many(
            [
                record(kind="bench", label="a", wall_time_s=0.1),
                record(kind="bench", label="b", wall_time_s=0.2),
                record(kind="profile", label="a", wall_time_s=0.3),
            ]
        )
        assert len(ledger.read(kind="bench")) == 2
        assert len(ledger.read(kind="bench", label="a")) == 1
        assert len(ledger.read(label="a")) == 2

    def test_groups(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        ledger.append_many(
            [
                record(kind="bench", label="a", wall_time_s=0.1),
                record(kind="bench", label="a", wall_time_s=0.2),
                record(kind="profile", label="a", wall_time_s=0.3),
            ]
        )
        groups = ledger.groups()
        assert set(groups) == {"bench:a", "profile:a"}
        assert len(groups["bench:a"]) == 2

    def test_creates_parent_directories(self, tmp_path):
        ledger = RunLedger(tmp_path / "deep" / "nested" / "ledger.jsonl")
        ledger.append(record(kind="bench", label="a", wall_time_s=0.1))
        assert ledger.exists()


class TestAtomicWriteJson:
    def test_writes_parseable_json(self, tmp_path):
        out = atomic_write_json(tmp_path / "out.json", {"k": [1, 2]})
        assert json.loads(out.read_text()) == {"k": [1, 2]}

    def test_replaces_existing_file(self, tmp_path):
        target = tmp_path / "out.json"
        atomic_write_json(target, {"v": 1})
        atomic_write_json(target, {"v": 2})
        assert json.loads(target.read_text()) == {"v": 2}

    def test_sorts_keys(self, tmp_path):
        payload = {"b": {"d": 1, "c": 2}, "a": 0}
        out = atomic_write_json(tmp_path / "out.json", payload)
        assert out.read_text() == json.dumps(
            {"a": 0, "b": {"c": 2, "d": 1}}, indent=2
        ) + "\n"

    def test_leaves_no_temp_file(self, tmp_path):
        atomic_write_json(tmp_path / "out.json", {"v": 1})
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


class TestObsStaysLightweight:
    """The observatory must be importable on an air-gapped bench box.

    Module-level imports across ``repro.obs`` are restricted to the
    stdlib and the package itself - numpy, matplotlib, and friends may
    only ever appear behind function-local (lazy) imports.
    """

    @staticmethod
    def _module_level_imports(path):
        tree = ast.parse(path.read_text())
        names = set()
        for node in tree.body:  # top level only; lazy imports are fine
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                if node.level:  # relative: stays inside the package
                    continue
                if node.module:
                    names.add(node.module.split(".")[0])
        return names

    def test_obs_modules_import_only_stdlib(self):
        allowed = set(sys.stdlib_module_names) | {"repro"}
        offenders = {}
        for path in sorted(SRC_OBS.glob("*.py")):
            bad = self._module_level_imports(path) - allowed
            if bad:
                offenders[path.name] = sorted(bad)
        assert offenders == {}, (
            f"non-stdlib module-level imports in repro.obs: {offenders}"
        )

    def test_guard_covers_the_whole_package(self):
        # If the package moves, the guard must fail loudly, not
        # silently iterate over nothing.
        assert len(list(SRC_OBS.glob("*.py"))) >= 7


class TestFsyncPolicy:
    @pytest.fixture()
    def fsync_counter(self, monkeypatch):
        calls = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            obs_ledger.os, "fsync",
            lambda fd: (calls.append(fd), real_fsync(fd))[1],
        )
        return calls

    def _entry(self):
        return record("profile", "cap", 1.0)

    def test_default_fsyncs_every_append(self, tmp_path, fsync_counter):
        ledger = RunLedger(tmp_path / "l.jsonl")
        assert ledger.fsync is True
        ledger.append(self._entry())
        ledger.append(self._entry())
        assert len(fsync_counter) == 2

    def test_explicit_false_skips_fsync(self, tmp_path, fsync_counter):
        ledger = RunLedger(tmp_path / "l.jsonl", fsync=False)
        ledger.append(self._entry())
        assert fsync_counter == []
        # The record still lands on disk (page cache durability).
        assert len(ledger) == 1

    def test_env_var_disables_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv(obs_ledger.ENV_LEDGER_FSYNC, "0")
        assert RunLedger(tmp_path / "l.jsonl").fsync is False
        monkeypatch.setenv(obs_ledger.ENV_LEDGER_FSYNC, "off")
        assert RunLedger(tmp_path / "l.jsonl").fsync is False
        monkeypatch.setenv(obs_ledger.ENV_LEDGER_FSYNC, "1")
        assert RunLedger(tmp_path / "l.jsonl").fsync is True

    def test_explicit_true_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(obs_ledger.ENV_LEDGER_FSYNC, "0")
        assert RunLedger(tmp_path / "l.jsonl", fsync=True).fsync is True

    def test_appender_inherits_ledger_policy(self, tmp_path, fsync_counter):
        ledger = RunLedger(tmp_path / "l.jsonl", fsync=False)
        with ledger.appender() as appender:
            appender.append(self._entry())
            appender.append(self._entry())
        # No per-append fsync, and the deferred close fsync is also
        # skipped when the ledger policy is off.
        assert fsync_counter == []
        assert len(ledger) == 2

    def test_deferred_fsync_on_close_with_policy_on(
        self, tmp_path, fsync_counter
    ):
        ledger = RunLedger(tmp_path / "l.jsonl")
        with ledger.appender(fsync_each=False) as appender:
            appender.append(self._entry())
            appender.append(self._entry())
        assert len(fsync_counter) == 1
