"""Tier-1 gate: the source tree must be emlint-clean.

Runs the analyzer programmatically over ``src/`` and asserts zero
findings, so any regression (a new unit mix-up, a global RNG, an
unfrozen config, a float ``==``, a mutable default) fails pytest
immediately.  Also checks the CLI contract: exit 0 on the clean tree
(inline suppressions are the only way to silence a finding), exit 1
with a file:line
diagnostic on a seeded violation of each rule, and exit 2 on usage
errors — including ``--list-rules`` combined with an unknown
``--rules`` name.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.devtools.engine import Rule, analyze_paths
from repro.devtools.lint import main
from repro.devtools.rules import ALL_RULES

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src" / "repro"


def per_file_rules():
    return [cls() for cls in ALL_RULES if issubclass(cls, Rule)]


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
    result = analyze_paths([SRC], per_file_rules())
    assert result.files_checked > 50
    details = "\n".join(f.format() for f in result.findings)
    assert result.findings == [], f"emlint regressions in src/:\n{details}"


def test_obs_package_is_lint_clean():
    """The observability layer holds to the same rules as the pipeline."""
    result = analyze_paths([SRC / "obs"], per_file_rules())
    assert result.files_checked >= 6
    details = "\n".join(f.format() for f in result.findings)
    assert result.findings == [], f"emlint regressions in src/repro/obs:\n{details}"


def test_cli_exits_zero_on_clean_tree(capsys):
    """The full analyzer (cross rules included) passes on ``src/``."""
    assert main([str(SRC)]) == 0
    captured = capsys.readouterr()
    assert "0 findings" in captured.out
    assert captured.err == ""


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


def test_cli_flags_syntax_error(tmp_path, capsys):
    bad = tmp_path / "broken.py"
    bad.write_text("def broken(:\n")
    assert main([str(bad)]) == 1
    assert "parse-error" in capsys.readouterr().out


def test_cli_lists_all_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for cls in ALL_RULES:
        scope = "per-file" if issubclass(cls, Rule) else "cross-module"
        assert f"{cls.name} [{scope}]" in out


def test_cli_list_rules_honors_subset(capsys):
    assert main(["--list-rules", "--rules", "hot-loop,unit-safety"]) == 0
    out = capsys.readouterr().out
    assert "hot-loop" in out
    assert "unit-safety" in out
    assert "layering" not in out


LAZY_IMPORT_PROBE = """
import sys
import repro.devtools.lint
heavy = sorted({"numpy", "scipy"} & set(sys.modules))
from repro import Emprof, Microbenchmark, simulate
print(heavy, Emprof.__module__, Microbenchmark.__module__, simulate.__module__)
"""


def test_lint_import_loads_neither_numpy_nor_scipy():
    # The package root serves its quickstart names lazily, so the
    # linter (which needs neither library) does not pay for them.
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    out = subprocess.run(
        [sys.executable, "-c", LAZY_IMPORT_PROBE],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.split() == [
        "[]",
        "repro.core.profiler",
        "repro.workloads.microbenchmark",
        "repro.sim.machine",
    ]
