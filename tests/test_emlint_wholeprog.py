"""Whole-program driver: cache, baseline, SARIF, and the repo gate.

Covers the incremental cache (hit/miss accounting, invalidation on
content change and on rule-set change, corrupt-cache tolerance), the
adopt-now baseline (suppress, stale detection, regeneration), SARIF
output shape, the pyproject <-> built-in layer-map sync promise, and
the repository-level guarantees: ``src/`` analyzes clean under the
checked-in baseline and a warm cached run stays within the tier-1
time budget.
"""

import json
import time
from pathlib import Path

import pytest

from repro.devtools.baseline import Baseline, write_baseline
from repro.devtools.cache import (
    DEFAULT_CACHE_NAME,
    FactCache,
    extract_outcomes,
    ruleset_signature,
)
from repro.devtools.engine import Finding, analyze_paths
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


# -- cache ------------------------------------------------------------------


def test_cold_extraction_of_the_tree_is_repeatable(monkeypatch):
    # Concurrent ast.parse calls used to fail with "SystemError: AST
    # constructor recursion depth mismatch", but only when the whole
    # suite ran.  Pin the cause directly - every file is parsed on the
    # calling thread - and run repeated cold passes over the real tree.
    import threading

    from repro.devtools import cache as cache_module

    threads = set()
    process_one = cache_module._process_one

    def recording(path, rules):
        threads.add(threading.get_ident())
        return process_one(path, rules)

    monkeypatch.setattr(cache_module, "_process_one", recording)
    passes = [extract_outcomes([SRC], RULES)[0] for _ in range(2)]
    assert threads == {threading.get_ident()}
    for outcomes in passes:
        assert len(outcomes) > 50
        assert not [
            f for o in outcomes for f in o.findings if f.rule == "parse-error"
        ]
    first = [(o.path, o.content_hash, o.findings) for o in passes[0]]
    for outcomes in passes[1:]:
        assert [(o.path, o.content_hash, o.findings) for o in outcomes] == first


def test_cache_warm_run_hits_everything(tmp_path):
    write_module(tmp_path, "a.py", "x = 1\n")
    cache_file = tmp_path / DEFAULT_CACHE_NAME

    _, hits, misses = extract_outcomes(
        [tmp_path], RULES, cache=FactCache(cache_file)
    )
    assert (hits, misses) == (0, 1)
    assert cache_file.is_file()

    _, hits, misses = extract_outcomes(
        [tmp_path], RULES, cache=FactCache(cache_file)
    )
    assert (hits, misses) == (1, 0)


def test_cache_invalidated_on_content_change(tmp_path):
    module = write_module(tmp_path, "a.py", "x = 1\n")
    cache_file = tmp_path / DEFAULT_CACHE_NAME
    extract_outcomes([tmp_path], RULES, cache=FactCache(cache_file))

    module.write_text("x = 2\n")
    outcomes, hits, misses = extract_outcomes(
        [tmp_path], RULES, cache=FactCache(cache_file)
    )
    assert (hits, misses) == (0, 1)
    assert not outcomes[0].from_cache

    # ... and the rewrite is itself cached for the next run.
    _, hits, misses = extract_outcomes(
        [tmp_path], RULES, cache=FactCache(cache_file)
    )
    assert (hits, misses) == (1, 0)


def test_cache_invalidated_on_ruleset_change(tmp_path):
    write_module(tmp_path, "a.py", "x = 1\n")
    cache_file = tmp_path / DEFAULT_CACHE_NAME
    extract_outcomes([tmp_path], RULES, cache=FactCache(cache_file))

    subset = RULES[:2]
    assert ruleset_signature(subset) != ruleset_signature(RULES)
    _, hits, misses = extract_outcomes(
        [tmp_path], subset, cache=FactCache(cache_file)
    )
    assert (hits, misses) == (0, 1)


def test_corrupt_cache_is_treated_as_empty(tmp_path):
    write_module(tmp_path, "a.py", "x = 1\n")
    cache_file = tmp_path / DEFAULT_CACHE_NAME
    cache_file.write_text("{not json")

    outcomes, hits, misses = extract_outcomes(
        [tmp_path], RULES, cache=FactCache(cache_file)
    )
    assert (hits, misses) == (0, 1)
    assert outcomes[0].facts is not None
    # The corrupt file was replaced by a valid document.
    payload = json.loads(cache_file.read_text())
    assert payload["schema"] == "emlint-cache"


def test_cache_prunes_deleted_files(tmp_path):
    keep = write_module(tmp_path, "keep.py", "x = 1\n")
    gone = write_module(tmp_path, "gone.py", "y = 2\n")
    cache_file = tmp_path / DEFAULT_CACHE_NAME
    extract_outcomes([tmp_path], RULES, cache=FactCache(cache_file))

    gone.unlink()
    extract_outcomes([tmp_path], RULES, cache=FactCache(cache_file))
    payload = json.loads(cache_file.read_text())
    assert set(payload["entries"]) == {str(keep)}


def test_cached_findings_identical_to_fresh(tmp_path):
    write_module(tmp_path, "a.py", "def f(x=[]):\n    return x\n")
    cache_file = tmp_path / DEFAULT_CACHE_NAME
    cold = analyze_paths(
        [tmp_path],
        cross_rules=[],
        layers=DEFAULT_LAYER_CONFIG,
        cache_path=cache_file,
    )
    warm = analyze_paths(
        [tmp_path],
        cross_rules=[],
        layers=DEFAULT_LAYER_CONFIG,
        cache_path=cache_file,
    )
    assert warm.cache_misses == 0
    assert warm.findings == cold.findings
    assert any(f.rule == "mutable-default-arg" for f in warm.findings)


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
    from repro.devtools.engine import LintResult

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
    from repro.devtools.engine import LintResult

    result = LintResult(findings=[_finding(rule="parse-error")])
    log = json.loads(render_sarif(result))
    (run,) = log["runs"]
    ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
    assert "parse-error" in ids
    assert run["results"][0]["ruleIndex"] == ids.index("parse-error")


def test_json_report_carries_cache_and_baseline_counters():
    from repro.devtools.engine import LintResult

    result = LintResult(
        files_checked=3,
        cache_hits=2,
        cache_misses=1,
        baseline_suppressed=4,
        stale_baseline=["hot-loop::x.py::msg"],
    )
    payload = json.loads(render_json(result))
    assert payload["version"] == 2
    assert payload["cache_hits"] == 2
    assert payload["cache_misses"] == 1
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


def test_src_tree_clean_under_checked_in_baseline(tmp_path, monkeypatch):
    """The tentpole acceptance check: src/ passes the full analyzer."""
    monkeypatch.chdir(REPO_ROOT)  # baseline paths are repo-relative
    result = analyze_paths(
        [SRC],
        layers=load_layer_config(REPO_ROOT / "pyproject.toml"),
        cache_path=tmp_path / DEFAULT_CACHE_NAME,
        baseline=Baseline.load(BASELINE),
    )
    assert result.findings == []
    assert result.baseline_suppressed > 0  # the adopt-now worklist
    assert result.stale_baseline == []  # no rotting entries


def test_warm_whole_repo_run_is_fast(tmp_path, monkeypatch):
    """Tier-1 budget guard: a warm cached run re-parses nothing.

    The budget is generous (CI machines vary wildly) but low enough to
    catch the failure mode that matters: the cache silently missing and
    every run paying the cold-parse cost.
    """
    monkeypatch.chdir(REPO_ROOT)
    cache_file = tmp_path / DEFAULT_CACHE_NAME
    analyze_paths([SRC], cache_path=cache_file)  # cold, populates cache

    start = time.perf_counter()
    warm = analyze_paths([SRC], cache_path=cache_file)
    elapsed = time.perf_counter() - start
    assert warm.cache_misses == 0
    assert warm.cache_hits == warm.files_checked
    assert elapsed < 5.0, f"warm whole-repo lint took {elapsed:.2f}s"


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
