"""Whole-program driver: one pass per file, baseline, SARIF, the repo gate.

Covers the one-pass driver (each file parsed once, on the calling
thread, with repeatable results), the adopt-now baseline (suppress,
stale detection, regeneration), SARIF output shape, the pyproject <->
built-in layer-map sync promise, and the repository-level guarantee
that ``src/`` analyzes clean under the checked-in baseline.
"""

import ast
import json
from pathlib import Path

import pytest

from repro.devtools import engine
from repro.devtools.baseline import Baseline, write_baseline
from repro.devtools.engine import Finding, LintResult, analyze_paths
from repro.devtools.graph import DEFAULT_LAYER_CONFIG, load_layer_config
from repro.devtools.reporters import render_json, render_sarif
from repro.devtools.rules import ALL_RULES
from repro.devtools.xrules import ALL_CROSS_RULES, cross_rule_names

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
BASELINE = REPO_ROOT / ".emlint_baseline.json"

RULES = [cls() for cls in ALL_RULES]


def write_module(root: Path, name: str, source: str) -> Path:
    target = root / name
    target.write_text(source)
    return target


# -- one-pass driver --------------------------------------------------------


def test_cold_extraction_of_the_tree_is_repeatable(monkeypatch):
    # Concurrent ast.parse calls used to fail with "SystemError: AST
    # constructor recursion depth mismatch", but only when the whole
    # suite ran.  Pin the cause directly - every file is checked on the
    # calling thread - and run repeated cold passes over the real tree.
    import threading

    threads = set()
    passes = []
    check_file = engine._check_file

    def recording(path, rules, with_facts):
        threads.add(threading.get_ident())
        result, facts = check_file(path, rules, with_facts)
        passes[-1].append((str(path), result.findings, facts))
        return result, facts

    monkeypatch.setattr(engine, "_check_file", recording)
    for _ in range(2):
        passes.append([])
        analyze_paths([SRC], RULES, layers=DEFAULT_LAYER_CONFIG)
    assert threads == {threading.get_ident()}
    for outcomes in passes:
        assert len(outcomes) > 50
        assert all(facts is not None for _, _, facts in outcomes)
        assert not [
            f
            for _, findings, _ in outcomes
            for f in findings
            if f.rule == "parse-error"
        ]
    assert passes[1] == passes[0]


def test_analyze_paths_parses_each_file_once(tmp_path, monkeypatch):
    """Per-file rules and fact extraction share one parse per file."""
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    files = [
        write_module(pkg, "__init__.py", ""),
        write_module(pkg, "a.py", "def f(x=[]):\n    return x\n"),
        write_module(pkg, "b.py", "from .a import f\n"),
        write_module(pkg, "broken.py", "def broken(:\n"),
    ]
    parsed = []
    parse = ast.parse

    def counting(source, filename="<unknown>", *args, **kwargs):
        parsed.append(str(filename))
        return parse(source, filename, *args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting)
    result = analyze_paths([tmp_path], layers=DEFAULT_LAYER_CONFIG)
    assert result.files_checked == len(files)
    assert sorted(parsed) == sorted(str(f) for f in files)
    assert {f.rule for f in result.findings} >= {
        "mutable-default-arg",
        "parse-error",
    }


# -- baseline ---------------------------------------------------------------


def _finding(rule="hot-loop", path="pkg/mod.py", line=3, message="msg"):
    return Finding(path=path, line=line, col=1, rule=rule, message=message)


def test_baseline_suppresses_matching_finding(tmp_path):
    baseline_path = tmp_path / "base.json"
    write_baseline(baseline_path, [_finding()])
    baseline = Baseline.load(baseline_path)

    kept, suppressed = baseline.apply([_finding(), _finding(rule="layering")])
    assert suppressed == 1
    assert [f.rule for f in kept] == ["layering"]
    assert baseline.stale_entries() == []


def test_baseline_matches_independent_of_line_number(tmp_path):
    baseline_path = tmp_path / "base.json"
    write_baseline(baseline_path, [_finding(line=3)])
    baseline = Baseline.load(baseline_path)
    kept, suppressed = baseline.apply([_finding(line=99)])
    assert (kept, suppressed) == ([], 1)


def test_baseline_stale_entry_surfaced(tmp_path):
    baseline_path = tmp_path / "base.json"
    write_baseline(baseline_path, [_finding(), _finding(message="other")])
    baseline = Baseline.load(baseline_path)
    kept, suppressed = baseline.apply([_finding()])
    assert (kept, suppressed) == ([], 1)
    (stale,) = baseline.stale_entries()
    assert stale.message == "other"


def test_write_baseline_preserves_justifications(tmp_path):
    baseline_path = tmp_path / "base.json"
    write_baseline(baseline_path, [_finding()])
    payload = json.loads(baseline_path.read_text())
    payload["entries"][0]["justification"] = "reviewed: fine"
    baseline_path.write_text(json.dumps(payload))

    previous = Baseline.load(baseline_path)
    write_baseline(
        baseline_path, [_finding(), _finding(rule="layering")], previous
    )
    entries = {
        e["rule"]: e["justification"]
        for e in json.loads(baseline_path.read_text())["entries"]
    }
    assert entries["hot-loop"] == "reviewed: fine"
    assert entries["layering"] == "TODO: justify or fix"


def test_baseline_load_rejects_foreign_document(tmp_path):
    bogus = tmp_path / "base.json"
    bogus.write_text('{"schema": "something-else"}')
    with pytest.raises(ValueError, match="not an emlint-baseline"):
        Baseline.load(bogus)


def test_analyze_paths_reports_baseline_counters(tmp_path):
    pkg = tmp_path / "pkg" / "core"
    pkg.mkdir(parents=True)
    (tmp_path / "pkg" / "__init__.py").write_text("")
    (pkg / "__init__.py").write_text("")
    (pkg / "dsp.py").write_text(
        "import numpy as np\n"
        "def f(sig: np.ndarray):\n"
        "    for v in sig:\n"
        "        pass\n"
    )
    from repro.devtools.graph import LayerConfig

    layers = LayerConfig(layers={"core": ("pkg.core",)}, hot=("pkg.core",))
    unfiltered = analyze_paths([tmp_path], rules=[], layers=layers)
    assert [f.rule for f in unfiltered.findings] == ["hot-loop"]

    baseline_path = tmp_path / "base.json"
    write_baseline(baseline_path, unfiltered.findings)
    filtered = analyze_paths(
        [tmp_path],
        rules=[],
        layers=layers,
        baseline=Baseline.load(baseline_path),
    )
    assert filtered.findings == []
    assert filtered.baseline_suppressed == 1
    assert filtered.stale_baseline == []


# -- reporters --------------------------------------------------------------


def test_sarif_output_schema_sanity():
    result = LintResult(findings=[_finding()], files_checked=1)
    log = json.loads(render_sarif(result, {"hot-loop": "vectorize me"}))
    assert log["version"] == "2.1.0"
    assert log["$schema"].endswith("sarif-schema-2.1.0.json")
    (run,) = log["runs"]
    driver = run["tool"]["driver"]
    assert driver["name"] == "emlint"
    rules = {r["id"]: r["shortDescription"]["text"] for r in driver["rules"]}
    assert rules["hot-loop"] == "vectorize me"
    (res,) = run["results"]
    assert res["ruleId"] == "hot-loop"
    assert res["level"] == "error"
    assert res["message"]["text"] == "msg"
    location = res["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"] == "pkg/mod.py"
    assert location["region"] == {"startLine": 3, "startColumn": 1}


def test_sarif_rule_table_covers_unregistered_rules():
    result = LintResult(findings=[_finding(rule="parse-error")])
    log = json.loads(render_sarif(result))
    (run,) = log["runs"]
    ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
    assert "parse-error" in ids
    assert run["results"][0]["ruleIndex"] == ids.index("parse-error")


def test_json_report_carries_baseline_counters():
    result = LintResult(
        files_checked=3,
        baseline_suppressed=4,
        stale_baseline=["hot-loop::x.py::msg"],
    )
    payload = json.loads(render_json(result))
    assert payload["version"] == 3
    assert payload["baseline_suppressed"] == 4
    assert payload["stale_baseline"] == ["hot-loop::x.py::msg"]


# -- layer-map sync ---------------------------------------------------------


def test_pyproject_layer_map_matches_builtin_default():
    """pyproject.toml [tool.emlint] mirrors DEFAULT_LAYER_CONFIG.

    Both files promise this in comments; this is the test they cite.
    """
    config = load_layer_config(REPO_ROOT / "pyproject.toml")
    assert dict(config.layers) == dict(DEFAULT_LAYER_CONFIG.layers)
    assert dict(config.forbidden) == dict(DEFAULT_LAYER_CONFIG.forbidden)
    assert set(config.stdlib_only) == set(DEFAULT_LAYER_CONFIG.stdlib_only)
    assert set(config.hot) == set(DEFAULT_LAYER_CONFIG.hot)


# -- repository gate --------------------------------------------------------


def test_src_tree_clean_under_checked_in_baseline(monkeypatch):
    """The tentpole acceptance check: src/ passes the full analyzer."""
    monkeypatch.chdir(REPO_ROOT)  # baseline paths are repo-relative
    result = analyze_paths(
        [SRC],
        layers=load_layer_config(REPO_ROOT / "pyproject.toml"),
        baseline=Baseline.load(BASELINE),
    )
    assert result.findings == []
    assert result.baseline_suppressed > 0  # the adopt-now worklist
    assert result.stale_baseline == []  # no rotting entries


def test_every_baseline_entry_is_justified():
    """Adopt-now debt must carry a reviewed one-line justification."""
    payload = json.loads(BASELINE.read_text())
    for entry in payload["entries"]:
        justification = entry.get("justification", "")
        assert justification and not justification.startswith("TODO"), (
            f"baseline entry for {entry['rule']} at {entry['path']} "
            "has no justification"
        )


def test_cross_rule_registry_complete():
    names = set(cross_rule_names())
    assert names == {
        "layering",
        "import-cycle",
        "shared-mutable-state",
        "fork-unsafety",
        "unpicklable-target",
        "signal-handler",
        "hot-loop",
    }
    assert len(ALL_CROSS_RULES) == len(names)
