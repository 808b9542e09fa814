"""Whole-program driver: one pass per file, reports, the one layer map.

Covers the one-pass driver (each file parsed once, on the calling
thread, with repeatable results), the JSON and SARIF output shapes,
the one rule registry, the layer map covering every module of the
package, and the repository-level guarantee that ``src/`` analyzes
clean under the full analyzer.
"""

import ast
import json
from pathlib import Path

from repro.devtools import engine
from repro.devtools.engine import (
    Finding,
    LintResult,
    analyze_paths,
    iter_python_files,
)
from repro.devtools.facts import module_name_for
from repro.devtools.graph import DEFAULT_LAYER_CONFIG
from repro.devtools.reporters import render_json, render_sarif
from repro.devtools.rules import ALL_RULES
from repro.devtools.xrules import CrossRule

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"


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
        analyze_paths([SRC])
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
    result = analyze_paths([tmp_path])
    assert result.files_checked == len(files)
    assert sorted(parsed) == sorted(str(f) for f in files)
    assert {f.rule for f in result.findings} >= {
        "mutable-default-arg",
        "parse-error",
    }


def _finding(rule="hot-loop", path="pkg/mod.py", line=3, message="msg"):
    return Finding(path=path, line=line, col=1, rule=rule, message=message)


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


def test_json_report_shape():
    result = LintResult(findings=[_finding()], files_checked=3, suppressed_count=2)
    payload = json.loads(render_json(result))
    assert payload == {
        "version": 4,
        "files_checked": 3,
        "finding_count": 1,
        "suppressed_count": 2,
        "findings": [
            {
                "path": "pkg/mod.py",
                "line": 3,
                "col": 1,
                "rule": "hot-loop",
                "message": "msg",
            }
        ],
    }


# -- the one layer map and the one registry ---------------------------------


def test_every_package_module_has_a_layer():
    """A new top-level module cannot slip past ``layering`` unseen."""
    modules = [
        module_name_for(path) for path in iter_python_files([SRC / "repro"])
    ]
    assert len(modules) > 50
    unmapped = [
        module
        for module in modules
        if module != "repro" and DEFAULT_LAYER_CONFIG.layer_of(module) is None
    ]
    assert unmapped == [], f"add these modules to DEFAULT_LAYER_CONFIG: {unmapped}"


def test_cross_rule_registry_complete():
    names = {cls.name for cls in ALL_RULES if issubclass(cls, CrossRule)}
    assert names == {
        "layering",
        "import-cycle",
        "shared-mutable-state",
        "fork-unsafety",
        "unpicklable-target",
        "signal-handler",
        "hot-loop",
    }
    assert len({cls.name for cls in ALL_RULES}) == len(ALL_RULES) == 14


# -- repository gate --------------------------------------------------------


def test_src_tree_clean_under_full_analyzer():
    """The tentpole acceptance check: src/ passes the full analyzer."""
    result = analyze_paths([SRC])
    assert result.findings == []
    assert result.suppressed_count > 0  # inline, each with its reason
