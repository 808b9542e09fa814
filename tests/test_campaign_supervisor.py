"""Chaos tests for the supervised campaign job queue.

Each test injects one real failure mode into a multi-worker pass -
SIGKILL mid-run, SIGSTOP (alive but silent), a poison spec that kills
every worker it touches, a run that hangs past its lease deadline -
and asserts the supervisor's invariants: every run completes exactly
once or is quarantined, nothing is lost, nothing is double-reported,
and every requeue/quarantine decision lands in the run ledger.
"""

import json
import os
import signal
import time

import numpy as np
import pytest

from repro.core.detect import DetectorConfig
from repro.core.normalize import NormalizerConfig
from repro.core.profiler import EmprofConfig
from repro.emsignal.receiver import Capture
from repro.experiments import Campaign, RunSpec
from repro.faults import CrashingSource, StallingSource
from repro.obs.ledger import RunLedger

SMALL = EmprofConfig(
    normalizer=NormalizerConfig(window_samples=301),
    detector=DetectorConfig(),
)


class SlowSource:
    """A deterministic dip capture that takes a while to acquire."""

    def __init__(self, delay_s=0.3, seed=0):
        self.delay_s = delay_s
        self.seed = seed

    def capture(self):
        time.sleep(self.delay_s)
        rng = np.random.default_rng(self.seed)
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


def slow_specs(n, delay_s=0.3):
    return [
        RunSpec(
            f"run{i}",
            (lambda i=i: SlowSource(delay_s, seed=i)),
            config=SMALL,
        )
        for i in range(n)
    ]


def wait_for_lease(execution, timeout_s=10.0):
    """Block until at least one run is leased; returns the snapshot."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        snap = execution.snapshot()
        if snap["leases"]:
            return snap
        time.sleep(0.02)
    raise AssertionError("no lease appeared in time")


def test_sigkill_mid_run_completes_every_run_exactly_once(tmp_path):
    campaign = Campaign(
        tmp_path / "camp",
        sleep=lambda _: None,
        ledger=RunLedger(tmp_path / "ledger.jsonl", fsync=False),
        workers=2,
        heartbeat_interval_s=0.05,
    )
    execution = campaign.start(slow_specs(4))
    try:
        snap = wait_for_lease(execution)
        victim = sorted(snap["leases"])[0]
        execution.processes[victim].kill()
    finally:
        result = execution.join(timeout_s=60.0)

    # No lost runs, no duplicates: one done outcome per spec.
    assert sorted(o.name for o in result.outcomes) == [
        f"run{i}" for i in range(4)
    ]
    assert result.counts() == {"done": 4, "failed": 0, "skipped": 0}
    assert result.completed
    # The killed worker's lease was requeued and re-executed.
    assert result.interrupted()
    assert all(n >= 2 for n in result.interrupted().values())
    manifest = json.loads((campaign.directory / "manifest.json").read_text())
    assert all(e["status"] == "done" for e in manifest["runs"].values())
    # Exactly one committed report per run.
    for i in range(4):
        assert campaign.report_path(f"run{i}").is_file()
    # The incident is on the durable record.
    records = RunLedger(tmp_path / "ledger.jsonl").read(kind="campaign-requeue")
    assert records
    assert all("died" in r.extra["reason"] for r in records)


def test_sigstopped_worker_is_detected_killed_and_requeued(tmp_path):
    campaign = Campaign(
        tmp_path / "camp",
        sleep=lambda _: None,
        ledger=RunLedger(tmp_path / "ledger.jsonl", fsync=False),
        workers=2,
        heartbeat_interval_s=0.05,
        heartbeat_timeout_s=0.6,
    )
    execution = campaign.start(slow_specs(3, delay_s=0.4))
    try:
        snap = wait_for_lease(execution)
        victim = sorted(snap["leases"])[0]
        # The process stays alive but stops heartbeating - the failure
        # mode is_alive() cannot see; only the watchdog can.
        os.kill(execution.processes[victim].pid, signal.SIGSTOP)
    finally:
        result = execution.join(timeout_s=60.0)

    assert result.counts() == {"done": 3, "failed": 0, "skipped": 0}
    assert result.completed
    assert result.interrupted()
    records = RunLedger(tmp_path / "ledger.jsonl").read(kind="campaign-requeue")
    assert any("no heartbeat" in r.extra["reason"] for r in records)


def test_poison_spec_quarantined_rest_complete(tmp_path):
    campaign = Campaign(
        tmp_path / "camp",
        sleep=lambda _: None,
        ledger=RunLedger(tmp_path / "ledger.jsonl", fsync=False),
        workers=2,
        heartbeat_interval_s=0.05,
        max_attempts=2,
    )
    specs = slow_specs(2, delay_s=0.1) + [
        RunSpec("poison", CrashingSource, config=SMALL)
    ]
    result = campaign.start(specs).join(timeout_s=60.0)

    statuses = {o.name: o.status for o in result.outcomes}
    assert statuses == {"run0": "done", "run1": "done", "poison": "poisoned"}
    assert not result.completed
    assert result.counts()["poisoned"] == 1
    poisoned = next(o for o in result.outcomes if o.name == "poison")
    assert poisoned.attempts == 2  # burned exactly max_attempts workers
    manifest = json.loads((campaign.directory / "manifest.json").read_text())
    assert manifest["runs"]["poison"]["status"] == "poisoned"
    assert manifest["runs"]["poison"]["attempts"] == 2
    ledger = RunLedger(tmp_path / "ledger.jsonl")
    assert ledger.read(kind="campaign-requeue")
    (quarantine,) = ledger.read(kind="campaign-quarantine")
    assert quarantine.label.endswith("/poison")

    # Quarantine is sticky: a second pass does not re-run the spec.
    again = Campaign(
        tmp_path / "camp",
        sleep=lambda _: None,
        workers=2,
        heartbeat_interval_s=0.05,
        max_attempts=2,
    ).execute(specs)
    statuses = {o.name: o.status for o in again.outcomes}
    assert statuses["poison"] == "poisoned"
    assert statuses["run0"] == "skipped"


def test_hung_run_hits_its_lease_deadline_and_quarantines(tmp_path):
    # The worker keeps heartbeating (its beat thread is independent of
    # the stuck capture), so only the per-run timeout can catch this.
    campaign = Campaign(
        tmp_path / "camp",
        sleep=lambda _: None,
        ledger=RunLedger(tmp_path / "ledger.jsonl", fsync=False),
        workers=2,
        heartbeat_interval_s=0.05,
        max_attempts=2,
    )
    specs = [
        RunSpec(
            "stuck",
            (lambda: StallingSource(hang_s=60.0)),
            config=SMALL,
            timeout_s=0.4,
        )
    ] + slow_specs(1, delay_s=0.1)
    result = campaign.start(specs).join(timeout_s=60.0)

    statuses = {o.name: o.status for o in result.outcomes}
    assert statuses == {"stuck": "poisoned", "run0": "done"}
    records = RunLedger(tmp_path / "ledger.jsonl").read(kind="campaign-requeue")
    assert any("timeout" in r.extra["reason"] for r in records)


def test_worker_exits_once_its_supervisor_end_is_gone(tmp_path):
    # Every forked worker must close the supervisor-side pipe ends it
    # inherited (its own and its siblings'); otherwise a worker whose
    # supervisor died would never read EOF and would linger forever.
    campaign = Campaign(
        tmp_path / "camp",
        sleep=lambda _: None,
        workers=2,
        heartbeat_interval_s=0.05,
    )
    execution = campaign.start(slow_specs(2, delay_s=0.2))
    try:
        # Drop the supervisor's end of worker0's pipe, as its death would.
        execution._channels.pop("worker0").close()
        worker0 = execution.processes["worker0"]
        worker0.join(10.0)
        assert worker0.exitcode == 0
    finally:
        result = execution.join(timeout_s=60.0)
    # Its run committed before the worker left, so nothing is lost.
    assert result.counts() == {"done": 2, "failed": 0, "skipped": 0}


def test_drain_finishes_leased_runs_only(tmp_path):
    campaign = Campaign(
        tmp_path / "camp",
        sleep=lambda _: None,
        workers=2,
        heartbeat_interval_s=0.05,
    )
    execution = campaign.start(slow_specs(6, delay_s=0.3))
    try:
        wait_for_lease(execution)
        execution.request_stop("drain")
    finally:
        result = execution.join(timeout_s=60.0)

    # Everything that was leased committed; nothing new was dispatched.
    assert 0 < len(result.outcomes) < 6
    assert all(o.status == "done" for o in result.outcomes)
    manifest = json.loads((campaign.directory / "manifest.json").read_text())
    done = [n for n, e in manifest["runs"].items() if e["status"] == "done"]
    assert sorted(done) == sorted(o.name for o in result.outcomes)

    # The next pass picks up exactly the undispatched remainder.
    resumed = Campaign(
        tmp_path / "camp",
        sleep=lambda _: None,
        workers=2,
        heartbeat_interval_s=0.05,
    ).execute(slow_specs(6, delay_s=0.05))
    assert resumed.completed
    skipped = {o.name for o in resumed.outcomes if o.status == "skipped"}
    assert skipped == set(done)


def test_cancel_marks_leases_interrupted_for_next_pass(tmp_path):
    campaign = Campaign(
        tmp_path / "camp",
        sleep=lambda _: None,
        workers=2,
        heartbeat_interval_s=0.05,
    )
    execution = campaign.start(slow_specs(4, delay_s=0.5))
    try:
        wait_for_lease(execution)
        execution.request_stop("cancel")
    finally:
        result = execution.join(timeout_s=60.0)

    interrupted = [o for o in result.outcomes if o.status == "interrupted"]
    assert interrupted
    manifest = json.loads((campaign.directory / "manifest.json").read_text())
    for outcome in interrupted:
        entry = manifest["runs"][outcome.name]
        assert entry["status"] == "interrupted"
        assert entry["attempts"] >= 1
