"""The perf-regression observatory: statistics and the CI exit-code gate."""

import pytest

from repro.obs import cli as obs_cli
from repro.obs.ledger import RunLedger, record
from repro.obs.regress import (
    STATUS_INSUFFICIENT,
    STATUS_OK,
    STATUS_REGRESSION,
    RegressConfig,
    check_records,
)


def _history(label, times, kind="bench", spans_of=None):
    """Ledger-ordered records with the given wall times."""
    out = []
    for wall in times:
        spans = spans_of(wall) if spans_of is not None else None
        out.append(
            record(kind=kind, label=label, wall_time_s=wall, spans=spans)
        )
    return out


class TestRegressConfig:
    def test_defaults_are_valid(self):
        RegressConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"baseline_window": 0},
            {"min_history": 0},
            {"min_history": 9, "baseline_window": 5},
            {"mad_sigmas": 0.0},
            {"rel_slack": -0.1},
            {"abs_slack_s": -1.0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RegressConfig(**kwargs)


class TestCheckRecords:
    def test_insufficient_history_is_not_a_failure(self):
        report = check_records(_history("a", [1.0, 1.0]))
        assert report.ok
        assert [v.status for v in report.verdicts] == [STATUS_INSUFFICIENT]

    def test_stable_history_passes(self):
        report = check_records(
            _history("a", [1.0, 1.02, 0.98, 1.01, 0.99, 1.0])
        )
        assert report.ok
        wall = [v for v in report.verdicts if v.metric == "wall_time_s"]
        assert [v.status for v in wall] == [STATUS_OK]

    def test_three_x_slowdown_regresses(self):
        report = check_records(
            _history("a", [1.0, 1.02, 0.98, 1.01, 0.99, 3.0])
        )
        assert not report.ok
        (verdict,) = report.regressions
        assert verdict.metric == "wall_time_s"
        assert verdict.ratio > 2.5

    def test_speedup_never_gates(self):
        report = check_records(
            _history("a", [1.0, 1.02, 0.98, 1.01, 0.99, 0.2])
        )
        assert report.ok

    def test_rel_slack_floor_absorbs_jitter_free_history(self):
        # Identical history => MAD 0; only the relative floor keeps a
        # small wobble from gating.
        report = check_records(_history("a", [1.0, 1.0, 1.0, 1.0, 1.1]))
        assert report.ok

    def test_abs_slack_floor_ignores_microsecond_noise(self):
        report = check_records(
            _history("a", [1e-4, 1e-4, 1e-4, 1e-4, 3e-4])
        )
        assert report.ok  # 3x, but under the 5 ms absolute floor

    def test_single_outlier_in_history_does_not_poison_baseline(self):
        # Median-of-window: one historically slow run must not raise
        # the bar enough to hide a real regression.
        report = check_records(
            _history("a", [1.0, 1.0, 9.0, 1.0, 1.0, 3.0])
        )
        assert not report.ok

    def test_groups_judged_independently(self):
        records = _history("fast", [1.0, 1.0, 1.0, 1.0, 3.0]) + _history(
            "slow", [5.0, 5.0, 5.0, 5.0, 5.0]
        )
        report = check_records(records)
        assert [v.group for v in report.regressions] == ["bench:fast"]

    def test_span_metrics_judged(self):
        def spans_of(wall):
            return {"detect": {"count": 1, "total_s": wall * 0.5, "mean_s": wall * 0.5}}

        report = check_records(
            _history("a", [1.0, 1.0, 1.0, 1.0, 3.4], spans_of=spans_of)
        )
        metrics = {v.metric for v in report.regressions}
        assert metrics == {"wall_time_s", "span:detect"}

    def test_spans_can_be_disabled(self):
        def spans_of(wall):
            return {"detect": {"count": 1, "total_s": wall, "mean_s": wall}}

        report = check_records(
            _history("a", [1.0, 1.0, 1.0, 1.0, 3.4], spans_of=spans_of),
            RegressConfig(include_spans=False),
        )
        assert {v.metric for v in report.verdicts} == {"wall_time_s"}

    def test_baseline_window_slides(self):
        # Old slowness beyond the window must not excuse new slowness.
        times = [9.0, 9.0, 9.0] + [1.0] * 5 + [3.0]
        report = check_records(
            _history("a", times), RegressConfig(baseline_window=5)
        )
        assert not report.ok

    def test_empty_history_formats(self):
        report = check_records([])
        assert report.ok
        assert "no ledger history" in report.format()

    def test_format_names_the_offender(self):
        report = check_records(
            _history("hot_loop", [1.0, 1.0, 1.0, 1.0, 3.0])
        )
        text = report.format()
        assert "bench:hot_loop" in text
        assert "REGRESSION" in text
        assert "3.00x" in text


class TestRegressCliGate:
    """The exit-code contract `make regress` and CI rely on."""

    def _write(self, tmp_path, times):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        ledger.append_many(_history("a", times))
        return str(ledger.path)

    def test_stable_history_exits_zero(self, tmp_path, capsys):
        path = self._write(tmp_path, [1.0, 1.01, 0.99, 1.0, 1.02, 1.0])
        assert obs_cli.main(["regress", path]) == obs_cli.EXIT_OK
        assert "0 regression(s)" in capsys.readouterr().out

    def test_injected_slowdown_exits_three(self, tmp_path, capsys):
        path = self._write(tmp_path, [1.0, 1.01, 0.99, 1.0, 1.02, 3.0])
        assert obs_cli.main(["regress", path]) == obs_cli.EXIT_REGRESSION
        assert "REGRESSION" in capsys.readouterr().out

    def test_missing_ledger_exits_two(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.jsonl")
        assert obs_cli.main(["regress", missing]) == obs_cli.EXIT_BAD_INPUT
        assert "cannot read" in capsys.readouterr().err

    def test_allow_missing_exits_zero(self, tmp_path):
        missing = str(tmp_path / "absent.jsonl")
        code = obs_cli.main(["regress", missing, "--allow-missing"])
        assert code == obs_cli.EXIT_OK

    def test_invalid_config_exits_two(self, tmp_path, capsys):
        path = self._write(tmp_path, [1.0])
        code = obs_cli.main(["regress", path, "--window", "0"])
        assert code == obs_cli.EXIT_BAD_INPUT
        assert "invalid regression config" in capsys.readouterr().err

    def test_kind_filter(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        ledger.append_many(
            _history("a", [1.0, 1.0, 1.0, 1.0, 3.0], kind="bench")
        )
        ledger.append_many(
            _history("a", [1.0, 1.0, 1.0, 1.0, 1.0], kind="profile")
        )
        path = str(ledger.path)
        assert obs_cli.main(["regress", path]) == obs_cli.EXIT_REGRESSION
        code = obs_cli.main(["regress", path, "--kind", "profile"])
        assert code == obs_cli.EXIT_OK

    @pytest.mark.parametrize("subcommand", ["regress", "ledger"])
    def test_mistyped_kind_exits_two(self, tmp_path, capsys, subcommand):
        # A typo must not filter the ledger down to nothing and pass.
        path = self._write(tmp_path, [1.0, 1.0, 1.0, 1.0, 3.0])
        with pytest.raises(SystemExit) as exc:
            obs_cli.main([subcommand, path, "--kind", "benh"])
        assert exc.value.code == obs_cli.EXIT_BAD_INPUT
        assert "invalid choice: 'benh'" in capsys.readouterr().err
