"""The live-telemetry acceptance scenario, end to end.

A multi-worker campaign runs inside a line-JSON status server over the
parent's event bus; a client queries it mid-flight from another
thread; one worker is killed mid-run; afterwards the pass's one trace
holds every finished run's spans under its campaign span and the event
file names the killed worker.  Forked workers send their events and
spans up their control pipes, so the parent's bus - its rollup, its
status server, the pass's one event file - sees every event, however
many there are, and the parent's tracer every finished run's spans.
"""

import json
import sys
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.detect import DetectorConfig
from repro.core.normalize import NormalizerConfig
from repro.core.profiler import EmprofConfig
from repro.emsignal.receiver import Capture
from repro.experiments import Campaign, RunSpec
from repro.obs import set_obs_enabled, trace
from repro.obs.events import bus, read_events
from repro.obs.ledger import RunLedger
from repro.obs.statusd import StatusServer, query

SMALL = EmprofConfig(
    normalizer=NormalizerConfig(window_samples=301),
    detector=DetectorConfig(),
)


class SlowSource:
    """A synthetic capture with ``stalls`` dips that takes a while -
    long enough to query the live campaign and to kill a worker
    mid-run."""

    def __init__(self, delay_s=0.4, stalls=16):
        self.delay_s = delay_s
        self.stalls = stalls

    def capture(self):
        time.sleep(self.delay_s)
        n = 280 + 170 * self.stalls
        rng = np.random.default_rng(0)
        x = np.full(n, 0.9) + rng.normal(0, 0.02, n)
        for s in range(200, n - 80, 170):
            x[s : s + 13] = 0.1
        return Capture(
            magnitude=np.clip(x, 0.0, None),
            sample_rate_hz=50e6,
            clock_hz=1e9,
            bandwidth_hz=50e6,
            region_names={},
        )


@pytest.fixture()
def obs_on():
    previous = set_obs_enabled(True)
    bus.reset()
    trace.reset()
    yield
    bus.reset()
    trace.reset()
    set_obs_enabled(previous)


def _specs(n, delay_s=0.4):
    return [
        RunSpec(f"run{i}", (lambda: SlowSource(delay_s)), config=SMALL)
        for i in range(n)
    ]


def test_live_campaign_query_kill_and_trace(tmp_path, obs_on):
    campaign = Campaign(
        tmp_path / "camp",
        sleep=lambda _: None,
        ledger=RunLedger(tmp_path / "ledger.jsonl", fsync=False),
        workers=2,
        heartbeat_interval_s=0.05,
    )
    with StatusServer(bus, tracer=trace) as server, \
            ThreadPoolExecutor(1) as pool:
        execution = campaign.start(_specs(4))
        # The supervisor runs inside join() and feeds the bus as it
        # reads the workers' pipes; like the campaign daemon, give it a
        # thread of its own and query the server from this one.
        joined = pool.submit(execution.join, timeout_s=30.0)
        host, port = server.address

        # -- mid-run: the status socket answers from another thread --
        deadline = time.monotonic() + 10.0
        status = None
        while time.monotonic() < deadline:
            status = query(host, port, {"req": "status"})
            beats = status["events"]["last_heartbeat_unix_s"]
            if {"worker0", "worker1"} <= set(beats):
                break
            time.sleep(0.05)
        assert status is not None
        assert {"worker0", "worker1"} <= set(
            status["events"]["last_heartbeat_unix_s"]
        ), "both workers should heartbeat while running"

        tail = query(host, port, {"req": "tail", "n": 50})
        assert any(e["kind"] == "heartbeat" for e in tail["events"])

        health = query(host, port, {"req": "health"})
        assert health["healthy"] is True

        # -- kill one worker mid-run ---------------------------------
        time.sleep(0.25)
        execution.processes["worker1"].kill()
        result = joined.result()

    # The supervisor requeues the killed worker's leased run on a
    # respawned worker: every run completes despite the SIGKILL.
    counts = result.counts()
    assert counts == {"done": 4, "failed": 0, "skipped": 0}, counts
    assert result.completed
    requeued = result.interrupted()
    assert requeued, "the killed worker's run must surface as interrupted"
    assert all(attempts >= 2 for attempts in requeued.values())
    manifest = json.loads((campaign.directory / "manifest.json").read_text())
    assert all(
        entry["status"] == "done" for entry in manifest["runs"].values()
    )

    # -- the pass is over, the events file survives ------------------
    events, bad = read_events(campaign.events_path)
    assert bad == 0
    sources = {e.source for e in events}
    assert {"main", "worker0", "worker1"} <= sources
    kinds = {e.kind for e in events}
    assert {"run_started", "run_finished", "heartbeat",
            "checkpoint_written", "worker_spawned", "worker_killed",
            "job_requeued"} <= kinds

    # The requeue incident is on the durable record.
    incident_ledger = RunLedger(tmp_path / "ledger.jsonl")
    requeue_records = incident_ledger.read(kind="campaign-requeue")
    assert requeue_records
    assert all(r.label.startswith("camp/") for r in requeue_records)

    # -- one trace: every finished run under the campaign span ------
    assert sorted(p.name for p in campaign.directory.glob("*trace*")) == [
        "trace.json"
    ]
    spans = json.loads(campaign.trace_path.read_text())["spans"]
    (root,) = [s for s in spans if s["name"] == "campaign"]
    runs = [s for s in spans if s["name"] == "campaign_run"]
    # The killed attempt never sent its spans; the rerun did.
    assert sorted(s["attrs"]["run"] for s in runs) == sorted(
        o.name for o in result.outcomes if o.status == "done"
    )
    assert all(s["parent_id"] == root["span_id"] for s in runs)
    assert all(s["worker"] in execution.processes for s in runs)
    # The profile stages hang under their run, on the run's worker.
    by_id = {s["span_id"]: s for s in spans}
    details = [s for s in spans if s["name"] in ("profile", "detect")]
    assert details
    for span in details:
        parent = by_id[span["parent_id"]]
        while parent["name"] != "campaign_run":
            parent = by_id[parent["parent_id"]]
        assert parent["worker"] == span["worker"]

    # -- the dead worker is on record --------------------------------
    killed = [e.attrs["worker"] for e in events if e.kind == "worker_killed"]
    assert "worker1" in killed
    assert "worker0" not in killed

    # The ledger summary bridges the bus rollup.
    ledger = RunLedger(tmp_path / "ledger.jsonl")
    summaries = ledger.read(kind="campaign")
    assert summaries
    bridged = summaries[-1].extra["events"]
    assert bridged["total"] > 0
    assert bridged["counts"]["worker_killed"] >= 1


def _pass_rollup(ledger_path):
    return RunLedger(ledger_path).read(kind="campaign")[-1].extra["events"]


def test_forked_pass_rollup_counts_worker_events(tmp_path, obs_on):
    # No status server: the pass's ledger record still rolls up what
    # the workers emitted, as it does at workers=1.
    campaign = Campaign(
        tmp_path / "camp",
        sleep=lambda _: None,
        ledger=RunLedger(tmp_path / "ledger.jsonl", fsync=False),
        workers=2,
        heartbeat_interval_s=0.05,
    )
    result = campaign.execute(_specs(6, delay_s=0.05))
    assert result.counts()["done"] == 6
    events, bad = read_events(campaign.events_path)
    assert bad == 0
    worker_lines = sum(1 for e in events if e.source != "main")
    assert worker_lines >= 96  # 16 stalls per run, plus the beats
    assert _pass_rollup(tmp_path / "ledger.jsonl")["total"] >= worker_lines


def _deliver_every_event_under_volume(tmp_path, workers):
    specs = [
        *_specs(2, delay_s=0.05),
        # One run's events outgrow a pipe buffer many times over, and
        # the old 4,096-event delivery queue twice over.
        RunSpec("big", (lambda: SlowSource(0.0, stalls=10_000)), config=SMALL),
    ]
    campaign = Campaign(
        tmp_path / "camp",
        sleep=lambda _: None,
        ledger=RunLedger(tmp_path / "ledger.jsonl", fsync=False),
        workers=workers,
        heartbeat_interval_s=0.05,
    )
    # More workers than a small machine has cores, and a short switch
    # interval (inherited at fork) to interleave each worker's beat and
    # job threads on the one send lock.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        execution = campaign.start(specs)
        result = execution.join(timeout_s=120.0)
    finally:
        sys.setswitchinterval(interval)
    assert result.counts()["done"] == 3
    stalls = {o.name: o.report.miss_count for o in result.outcomes}
    assert stalls["big"] >= 10_000

    events, bad = read_events(campaign.events_path)
    assert bad == 0
    emitted = Counter(e.source for e in events if e.kind == "stall_detected")
    reported = {
        label: sum(stalls[spec.name] for spec in leased)
        for label, leased in execution.assignments.items()
    }
    assert emitted == reported
    rollup = _pass_rollup(tmp_path / "ledger.jsonl")
    assert rollup["counts"]["stall_detected"] == sum(stalls.values())
    # Each process's events reach the file in the order it stamped them.
    for source in reported:
        seqs = [e.seq for e in events if e.source == source]
        assert seqs == sorted(seqs)
    # Every worker read its pipe dry and exited on its own.
    assert not any(e.kind == "worker_killed" for e in events)
    assert [p.exitcode for p in execution.processes.values()] == (
        [0] * len(execution.processes)
    )


def test_forked_workers_deliver_every_event_under_volume(tmp_path, obs_on):
    _deliver_every_event_under_volume(tmp_path, workers=3)


def test_in_process_worker_delivers_every_event_under_volume(
    tmp_path, obs_on
):
    _deliver_every_event_under_volume(tmp_path, workers=1)


def _run_trees(spans):
    """Each campaign_run's subtree as a sorted tuple of span names."""
    children = {}
    for span in spans:
        children.setdefault(span["parent_id"], []).append(span)

    def names(span):
        return [span["name"]] + [
            name for child in children.get(span["span_id"], [])
            for name in names(child)
        ]

    return sorted(
        tuple(sorted(names(s))) for s in spans if s["name"] == "campaign_run"
    )


def test_forked_and_in_process_passes_leave_the_same_span_tree(
    tmp_path, obs_on
):
    trees = {}
    for workers in (1, 2):
        trace.reset()
        campaign = Campaign(
            tmp_path / f"w{workers}", sleep=lambda _: None, workers=workers
        )
        assert campaign.execute(_specs(3, delay_s=0.0)).completed
        spans = json.loads(campaign.trace_path.read_text())["spans"]
        (root,) = [s for s in spans if s["name"] == "campaign"]
        runs = [s for s in spans if s["name"] == "campaign_run"]
        assert [s["parent_id"] for s in runs] == [root["span_id"]] * 3
        labels = {None} if workers == 1 else {"worker0", "worker1"}
        assert {s["worker"] for s in runs} <= labels
        trees[workers] = _run_trees(spans)
    assert len(trees[1]) == 3
    assert trees[1] == trees[2]


def test_obs_off_campaign_emits_no_events(tmp_path):
    previous = set_obs_enabled(False)
    bus.reset()
    try:
        campaign = Campaign(
            tmp_path / "camp",
            sleep=lambda _: None,
            workers=2,
            heartbeat_interval_s=0.05,
        )
        result = campaign.start(_specs(2, delay_s=0.05)).join(timeout_s=30.0)
        assert result.counts()["done"] == 2
        assert not campaign.events_path.exists()
        assert bus.stats()["total"] == 0
    finally:
        bus.reset()
        set_obs_enabled(previous)


def test_serial_campaign_still_observes(tmp_path, obs_on):
    # workers=1 keeps the in-process path; events must still flow.
    campaign = Campaign(tmp_path / "camp", sleep=lambda _: None)
    result = campaign.execute(_specs(2, delay_s=0.0))
    assert result.counts()["done"] == 2
    events, bad = read_events(campaign.events_path)
    assert bad == 0
    assert any(e.kind == "checkpoint_written" for e in events)
    assert any(e.kind == "run_started" for e in events)
