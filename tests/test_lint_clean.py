"""Tier-1 gate: the source tree must be emlint-clean.

Runs the analyzer programmatically over ``src/`` and asserts zero
findings, so any regression (a new unit mix-up, a global RNG, an
unfrozen config, a float ``==``, a mutable default) fails pytest
immediately.  Also checks the CLI contract: exit 0 on the clean tree
(under the checked-in adopt-now baseline), exit 1 with a file:line
diagnostic on a seeded violation of each rule, and exit 2 on usage
errors — including ``--list-rules`` combined with an unknown
``--rules`` name.
"""

from pathlib import Path

import pytest

from repro.devtools.engine import analyze_paths
from repro.devtools.lint import main
from repro.devtools.rules import rule_names
from repro.devtools.xrules import cross_rule_names

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src" / "repro"

# One minimal violating module per rule, used to prove the gate trips.
VIOLATIONS = {
    "unit-safety": "total = duration_cycles + gap_samples\n",
    "determinism": "import numpy as np\nx = np.random.rand(4)\n",
    "config-immutability": (
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class DetectorConfig:\n"
        "    threshold: float = 0.5\n"
    ),
    "float-equality": "def f(a: float, b: float):\n    return a == b\n",
    "mutable-default-arg": "def f(items=[]):\n    return items\n",
    "silent-except": (
        "def f():\n"
        "    try:\n"
        "        return 1\n"
        "    except Exception:\n"
        "        pass\n"
    ),
}


def test_source_tree_is_lint_clean():
    result = analyze_paths([SRC], cross_rules=[])
    assert result.files_checked > 50
    details = "\n".join(f.format() for f in result.findings)
    assert result.findings == [], f"emlint regressions in src/:\n{details}"


def test_obs_package_is_lint_clean():
    """The observability layer holds to the same rules as the pipeline."""
    result = analyze_paths([SRC / "obs"], cross_rules=[])
    assert result.files_checked >= 6
    details = "\n".join(f.format() for f in result.findings)
    assert result.findings == [], f"emlint regressions in src/repro/obs:\n{details}"


def test_cli_exits_zero_on_clean_tree(capsys, monkeypatch):
    """The full analyzer (cross rules included) passes under the baseline."""
    monkeypatch.chdir(REPO_ROOT)  # baseline paths are repo-relative
    argv = [str(SRC), "--baseline", str(REPO_ROOT / ".emlint_baseline.json")]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert "0 findings" in captured.out
    assert "baselined" in captured.out
    assert "stale baseline" not in captured.err


@pytest.mark.parametrize("rule", sorted(VIOLATIONS))
def test_cli_flags_seeded_violation(rule, tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(VIOLATIONS[rule])
    assert main([str(bad)]) == 1
    out = capsys.readouterr().out
    # file:line diagnostics naming the violated rule
    assert f"{bad}:" in out
    assert rule in out


def test_cli_rejects_unknown_rule(tmp_path, capsys):
    assert main(["--rules", "no-such-rule", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "no-such-rule" in err
    # the diagnostic enumerates every known rule, cross rules included
    assert "hot-loop" in err


def test_cli_list_rules_with_unknown_rule_is_usage_error(capsys):
    # `--list-rules --rules bogus` must not exit 0 with a listing: the
    # command line is wrong and the caller must find out (exit 2).
    assert main(["--list-rules", "--rules", "bogus"]) == 2
    captured = capsys.readouterr()
    assert "unknown rule 'bogus'" in captured.err
    assert captured.out == ""


def test_cli_rejects_empty_rules(tmp_path, capsys):
    # `--rules ""` must not silently lint with zero rules.
    assert main(["--rules", "", str(tmp_path)]) == 2
    assert "at least one rule" in capsys.readouterr().err


def test_cli_rejects_missing_path(capsys):
    # A typo'd path must not pass as "0 findings in 0 files".
    assert main(["/no/such/path"]) == 2
    assert "does not exist" in capsys.readouterr().err


def test_cli_rejects_broken_baseline(tmp_path, capsys):
    bogus = tmp_path / "base.json"
    bogus.write_text("{broken")
    assert main(["--baseline", str(bogus), str(tmp_path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_cli_flags_syntax_error(tmp_path, capsys):
    bad = tmp_path / "broken.py"
    bad.write_text("def broken(:\n")
    assert main([str(bad)]) == 1
    assert "parse-error" in capsys.readouterr().out


def test_cli_lists_all_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for name in rule_names():
        assert f"{name} [per-file]" in out
    for name in cross_rule_names():
        assert f"{name} [cross-module]" in out


def test_cli_list_rules_honors_subset(capsys):
    assert main(["--list-rules", "--rules", "hot-loop,unit-safety"]) == 0
    out = capsys.readouterr().out
    assert "hot-loop" in out
    assert "unit-safety" in out
    assert "layering" not in out


def test_cli_write_baseline_roundtrip(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("def f(items=[]):\n    return items\n")
    baseline = tmp_path / "base.json"
    assert main([str(bad), "--write-baseline", str(baseline)]) == 0
    assert "wrote 1 baseline entry" in capsys.readouterr().out
    # The same tree now passes under the baseline it just wrote.
    assert main([str(bad), "--baseline", str(baseline)]) == 0
    assert "1 baselined" in capsys.readouterr().out
