"""Bench harness helpers.

Every bench regenerates one of the paper's tables or figures, prints
it in the paper's layout, and asserts its qualitative claims (who
wins, by roughly what factor, where the crossovers are).  Each bench
runs its experiment exactly once under pytest-benchmark timing.

Each run also executes with observability enabled against a clean
tracer, and the session appends one
:class:`repro.obs.ledger.RunRecord` (kind ``bench``: wall time, the
per-span rollup of time and work, git revision) per benchmark to
``LEDGER_obs.jsonl`` at the repo root, accumulating history across
sessions.  The ledger is the only bench output: ``repro obs ledger
--kind bench`` lists its rows, ``repro obs regress`` judges the
history and ``repro obs dashboard`` renders it.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Dict, List

import pytest

from repro import obs
from repro.obs import ledger as obs_ledger

_BENCH_RESULTS: List[Dict[str, Any]] = []
_REPO_ROOT = Path(__file__).resolve().parent.parent
_LEDGER_PATH = _REPO_ROOT / obs_ledger.DEFAULT_LEDGER_NAME


@pytest.fixture()
def once(benchmark, request):
    """Run an experiment exactly once under benchmark timing."""

    def runner(func, *args, **kwargs):
        previous = obs.set_obs_enabled(True)
        obs.trace.reset()
        t0 = time.perf_counter()
        try:
            return benchmark.pedantic(
                func, args=args, kwargs=kwargs, rounds=1, iterations=1
            )
        finally:
            elapsed = time.perf_counter() - t0
            _BENCH_RESULTS.append(
                {
                    "benchmark": request.node.nodeid,
                    "wall_time_s": elapsed,
                    "spans": obs.trace.aggregate(),
                }
            )
            obs.set_obs_enabled(previous)

    return runner


def pytest_sessionfinish(session, exitstatus):
    """Append one ledger record per benchmark that ran, if any did."""
    if not _BENCH_RESULTS:
        return
    records = [
        obs_ledger.record(
            kind="bench",
            label=entry["benchmark"],
            wall_time_s=entry["wall_time_s"],
            spans=entry["spans"],
        )
        for entry in _BENCH_RESULTS
    ]
    obs_ledger.RunLedger(_LEDGER_PATH).append_many(records)
