"""Tests of the benchmark itself (not part of tier-1).

Run from the repository root with ``PYTHONPATH=src python -m pytest
benchmarks/e2e``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
from stats import percentile, quartiles, tail  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


def test_percentile_needs_ten_samples_beyond():
    values = list(range(100))
    assert percentile(values, 90) == 89
    assert percentile(values, 99) is None  # one sample beyond p99
    assert percentile(list(range(20)), 50) == 9
    assert percentile(list(range(19)), 50) is None
    assert tail(list(range(1000))) == ("p99", 989)
    assert tail(list(range(15))) == (None, None)
    assert quartiles([3.0]) == (3.0, 3.0, 3.0)


@pytest.mark.parametrize(
    "a, b, better, bound, expected",
    [
        ([10.0, 10.1, 9.9], [12.0, 12.1, 11.9], "lower", 0.1, "worse"),
        ([10.0, 10.1, 9.9], [12.0, 12.1, 11.9], "higher", 0.1, "better"),
        ([10.0, 10.1, 9.9], [10.5, 10.6, 10.4], "lower", 0.1, "within bound"),
        ([10.0, 10.0, 10.0], [10.0, 10.0, 10.0], "higher", 0.1, "within bound"),
        ([5.0, 10.0, 15.0], [5.0, 10.0, 15.0], "lower", 0.1, "unresolved"),
        ([5.0, 10.0, 15.0], [1.0, 2.0, 3.0], "lower", 0.1, "better"),
        ([1.0, 2.0], [9.0, 9.0], "lower", None, "-"),
    ],
)
def test_compare_verdicts(a, b, better, bound, expected):
    assert compare.verdict(a, b, better, bound) == expected


def test_compare_exits_nonzero_on_worse(tmp_path):
    def write(name, value):
        path = tmp_path / name
        path.write_text(json.dumps({
            "workload": "sim-spec",
            "metrics": {"instr_per_s": {"value": value, "unit": "instr/s"}},
        }))
        return str(path)

    base = [write("a1.json", 100.0), write("a2.json", 101.0)]
    slower = [write("b1.json", 70.0), write("b2.json", 71.0)]
    assert compare.main(base + ["--"] + slower) == 1
    assert compare.main(base + ["--"] + base) == 0


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_metric_names_match_benchmark_json(trace, section):
    out = _run("--workload", "sim-spec", "--seed", "3", "--seconds", "1",
               "--trace", str(trace))
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    units = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units


def test_workload_names_match_benchmark_json():
    import run
    import workloads

    names = [w["name"] for w in SPEC["workloads"]]
    assert list(run.WORKLOAD_NAMES) == names == list(workloads.WORKLOADS)


def test_signal_sweep_op_digest_is_the_same_traced(tmp_path):
    import workloads
    from layers import Stages
    from repro.devices.models import olimex
    from repro.emsignal.receiver import MHZ
    from repro.sim.machine import simulate
    from repro.workloads import spec_workload

    result = simulate(spec_workload("parser", seed=11), olimex(bin_cycles=5), seed=0)
    inputs = {
        "seed": 0,
        "results": {"parser": result},
        "digests": {"parser": workloads.result_digest(result)},
    }
    op = workloads.SignalSweep._sweep_op
    _, (untraced,) = op(inputs, "parser", 40 * MHZ, {}, None)
    st = Stages()
    _, (traced,) = op(inputs, "parser", 40 * MHZ, {}, st)
    assert untraced.error is None and traced.error is None
    assert traced.digest == untraced.digest
    assert st.seconds["core.stream"] > 0 and st.counts["core.stream_chunks"] > 0


def test_fails_without_the_program(tmp_path):
    """With only BENCHMARK.json and the benchmark, the run must fail."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    out = _run("--workload", "sim-spec", "--seed", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert not out.stdout.strip()
