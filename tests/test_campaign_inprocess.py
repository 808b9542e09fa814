"""The single-worker campaign pass: the supervised queue without a fork.

``Campaign(workers=1)`` runs the same lease / outcome-checkpoint state
machine as the forked pool, with the calling thread as its only
worker.  These tests pin what that buys - per-run commit points,
adoption of runs that committed just before a crash, stop requests at
run boundaries, clean unwinding when a run raises - and that one and
two workers leave byte-identical reports and the same manifest.  They
also pin when a single worker must fork after all: any deadline, hang
timeout, or ``isolate=True`` needs a process the supervisor can kill.
"""

import json
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.detect import DetectorConfig
from repro.core.normalize import NormalizerConfig
from repro.core.profiler import EmprofConfig
from repro.emsignal.receiver import Capture
from repro.errors import CampaignError
from repro.experiments import Campaign, RunSpec
from repro.experiments.campaign import IN_PROCESS_WORKER
from repro.obs import set_obs_enabled, trace
from repro.obs.events import bus
from repro.obs.ledger import LedgerAppender, RunLedger
from tests.doubles import CrashingSource, StallingSource

SMALL = EmprofConfig(
    normalizer=NormalizerConfig(window_samples=301),
    detector=DetectorConfig(),
)


class CountingSource:
    """A deterministic dip capture that counts its acquisitions."""

    def __init__(self, seed=0):
        self.seed = seed
        self.captures = 0

    def capture(self):
        self.captures += 1
        rng = np.random.default_rng(self.seed)
        x = np.full(3000, 0.9) + rng.normal(0, 0.02, 3000)
        for s in range(200 + 7 * self.seed, 2800, 170):
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
    yield
    bus.reset()
    set_obs_enabled(previous)


def specs_for(sources):
    return [
        RunSpec(name, (lambda s=source: s), config=SMALL)
        for name, source in sources.items()
    ]


def manifest(campaign):
    return json.loads(campaign.manifest_path.read_text())["runs"]


def test_single_worker_leases_every_run_in_process(tmp_path):
    sources = {f"r{i}": CountingSource(i) for i in range(3)}
    campaign = Campaign(tmp_path / "camp", sleep=lambda _: None)
    execution = campaign.start(specs_for(sources))
    # Nothing forks and nothing runs until join() drives the queue.
    assert execution.processes == {}
    assert execution.alive() == [IN_PROCESS_WORKER]
    assert execution.snapshot()["pending"] == 3
    assert all(s.captures == 0 for s in sources.values())

    result = execution.join()
    assert result.counts() == {"done": 3, "failed": 0, "skipped": 0}
    assert [s.name for s in execution.assignments[IN_PROCESS_WORKER]] == [
        "r0", "r1", "r2"
    ]
    for name, source in sources.items():
        assert source.captures == 1
        checkpoint = json.loads(campaign.outcome_path(name).read_text())
        assert checkpoint["status"] == "done"
        assert checkpoint["attempts"] == 1
        assert checkpoint["worker"] == IN_PROCESS_WORKER
        entry = manifest(campaign)[name]
        assert entry["status"] == "done"
        assert entry["worker"] == IN_PROCESS_WORKER
    # The in-memory report is the persisted one.
    outcome = result.outcomes[0]
    assert outcome.report == campaign.load_report(outcome.name)


def test_runs_joined_on_another_thread_hang_under_the_campaign_span(
    tmp_path, obs_on
):
    # The threading pattern the daemon uses: start here, join there.
    trace.reset()
    campaign = Campaign(tmp_path / "camp", sleep=lambda _: None)
    execution = campaign.start(
        specs_for({f"r{i}": CountingSource(i) for i in range(3)})
    )
    with ThreadPoolExecutor(1) as pool:
        assert pool.submit(execution.join).result().counts()["done"] == 3
    spans = json.loads(campaign.trace_path.read_text())["spans"]
    trace.reset()
    (root,) = [s for s in spans if s["name"] == "campaign"]
    runs = [s for s in spans if s["name"] == "campaign_run"]
    assert len(runs) == 3
    assert all(s["parent_id"] == root["span_id"] for s in runs)
    assert all(s["worker"] is None for s in runs)


def test_each_pass_traces_only_its_own_spans(tmp_path, obs_on):
    # One long-lived process, two passes: the second trace must not
    # carry the first pass's campaign span or runs.
    trace.reset()
    first = Campaign(tmp_path / "first", sleep=lambda _: None)
    first.execute(specs_for({"r0": CountingSource(0)}))
    second = Campaign(tmp_path / "second", sleep=lambda _: None)
    second.execute(specs_for({"r1": CountingSource(1)}))
    trace.reset()
    for campaign, run in ((first, "r0"), (second, "r1")):
        spans = json.loads(campaign.trace_path.read_text())["spans"]
        (root,) = [s for s in spans if s["name"] == "campaign"]
        assert root["attrs"]["campaign"] == campaign.directory.name
        runs = [s for s in spans if s["name"] == "campaign_run"]
        assert [s["attrs"]["run"] for s in runs] == [run]


def test_run_committed_before_a_crash_is_adopted_not_rerun(tmp_path):
    sources = {f"r{i}": CountingSource(i) for i in range(3)}
    ledger_path = tmp_path / "ledger.jsonl"
    campaign = Campaign(tmp_path / "camp", sleep=lambda _: None)
    campaign.execute(specs_for(sources))

    # Rewind r1 to the state a kill -9 leaves between the worker's
    # outcome commit and the supervisor's manifest update.
    runs = manifest(campaign)
    runs["r1"] = {"status": "running", "attempts": 1, "worker": "main"}
    campaign._save_manifest(runs, progress={})

    resumed = Campaign(
        tmp_path / "camp",
        sleep=lambda _: None,
        ledger=RunLedger(ledger_path, fsync=False),
    )
    result = resumed.execute(specs_for(sources))
    statuses = {o.name: o.status for o in result.outcomes}
    assert statuses == {"r0": "skipped", "r1": "done", "r2": "skipped"}
    assert result.interrupted() == {}
    assert sources["r1"].captures == 1  # adopted, never re-executed
    assert manifest(resumed)["r1"]["status"] == "done"
    # The adopted run's ledger record is written by the pass that
    # finished its bookkeeping.
    runs_recorded = RunLedger(ledger_path).read(kind="campaign-run")
    assert [r.label for r in runs_recorded] == ["camp/r1"]


def test_checkpoint_of_another_attempt_is_not_adopted(tmp_path):
    sources = {"r0": CountingSource(0)}
    campaign = Campaign(tmp_path / "camp", sleep=lambda _: None)
    campaign.execute(specs_for(sources))
    # The manifest says attempt 2 was leased; the checkpoint on disk
    # belongs to attempt 1, so attempt 2 never committed.
    campaign._save_manifest(
        {"r0": {"status": "running", "attempts": 2}}, progress={}
    )
    result = campaign.execute(specs_for(sources))
    (outcome,) = result.outcomes
    assert outcome.status == "done"
    assert outcome.attempts == 3
    assert outcome.interrupted
    assert sources["r0"].captures == 2


@pytest.mark.parametrize("mode", ["drain", "cancel"])
def test_stop_request_takes_effect_at_the_next_run_boundary(tmp_path, mode):
    sources = {f"r{i}": CountingSource(i) for i in range(4)}
    campaign = Campaign(tmp_path / "camp", sleep=lambda _: None)
    holder = {}

    def stopping_factory():
        # The request lands mid-run; an in-process run cannot be
        # killed, so it commits and the queue stops behind it.
        holder["execution"].request_stop(mode)
        return sources["r1"]

    specs = specs_for(sources)
    specs[1] = RunSpec("r1", stopping_factory, config=SMALL)
    holder["execution"] = campaign.start(specs)
    result = holder["execution"].join()

    assert [(o.name, o.status) for o in result.outcomes] == [
        ("r0", "done"), ("r1", "done")
    ]
    assert set(manifest(campaign)) == {"r0", "r1"}
    assert sources["r2"].captures == 0

    resumed = Campaign(tmp_path / "camp", sleep=lambda _: None)
    again = resumed.execute(specs_for(sources))
    assert again.completed
    assert {o.name for o in again.outcomes if o.status == "skipped"} == {
        "r0", "r1"
    }


def test_expired_join_timeout_fails_unstarted_runs(tmp_path):
    sources = {f"r{i}": CountingSource(i) for i in range(2)}
    campaign = Campaign(tmp_path / "camp", sleep=lambda _: None)
    result = campaign.start(specs_for(sources)).join(timeout_s=0.0)
    assert result.counts() == {"done": 0, "failed": 2, "skipped": 0}
    assert all("timed out" in o.error for o in result.outcomes)
    assert all(s.captures == 0 for s in sources.values())
    assert manifest(campaign) == {}  # nothing was leased


def test_raising_run_unwinds_the_pass_and_tears_down(tmp_path, obs_on):
    class Boom(RuntimeError):
        pass

    def exploding():
        raise Boom("not an acquisition failure")

    ledger_path = tmp_path / "ledger.jsonl"
    campaign = Campaign(
        tmp_path / "camp",
        sleep=lambda _: None,
        ledger=RunLedger(ledger_path, fsync=False),
    )
    specs = [RunSpec("ok", CountingSource, config=SMALL),
             RunSpec("boom", exploding, config=SMALL)]
    with pytest.raises(Boom):
        campaign.execute(specs)
    # The event sink is detached and the ledger handle flushed: the
    # finished run's record survived the crash, the summary did not.
    assert campaign.events_path.exists()
    assert bus.sink_count == 0
    kinds = [r.kind for r in RunLedger(ledger_path).read()]
    assert kinds == ["campaign-run"]
    runs = manifest(campaign)
    assert runs["ok"]["status"] == "done"
    assert runs["boom"] == {
        "status": "running",
        "attempts": 1,
        "worker": IN_PROCESS_WORKER,
        "started_unix_s": runs["boom"]["started_unix_s"],
    }


def test_foreign_manifest_fails_before_serving_status(tmp_path, obs_on):
    directory = tmp_path / "camp"
    directory.mkdir()
    (directory / "manifest.json").write_text('{"format": "other"}')
    campaign = Campaign(directory)
    with pytest.raises(CampaignError):
        campaign.execute([RunSpec("a", CountingSource, config=SMALL)])
    assert bus.sink_count == 0
    assert not campaign.events_path.exists()


def test_one_and_two_workers_leave_identical_results(tmp_path):
    def run(workers):
        ledger_path = tmp_path / f"w{workers}.jsonl"
        campaign = Campaign(
            tmp_path / f"w{workers}",
            sleep=lambda _: None,
            ledger=RunLedger(ledger_path, fsync=False),
            workers=workers,
            heartbeat_interval_s=0.05,
        )
        specs = [
            RunSpec(f"r{i}", (lambda i=i: CountingSource(i)), config=SMALL)
            for i in range(4)
        ]
        result = campaign.execute(specs)
        reports = {
            o.name: campaign.report_path(o.name).read_bytes()
            for o in result.outcomes
        }
        states = {
            name: (entry["status"], entry["attempts"])
            for name, entry in manifest(campaign).items()
        }
        kinds = sorted(r.kind for r in RunLedger(ledger_path).read())
        return result.counts(), reports, states, kinds

    assert run(1) == run(2)


# -- when a single worker forks anyway ---------------------------------------


def test_run_deadline_at_one_worker_forks_and_is_enforced(tmp_path):
    # A wedged acquisition in the calling thread could never be
    # interrupted; a deadline makes the pass fork one supervised worker.
    ledger_path = tmp_path / "ledger.jsonl"
    campaign = Campaign(
        tmp_path / "camp",
        sleep=lambda _: None,
        ledger=RunLedger(ledger_path, fsync=False),
        heartbeat_interval_s=0.05,
        max_attempts=2,
    )
    specs = [
        RunSpec(
            "stuck",
            (lambda: StallingSource(hang_s=60.0)),
            config=SMALL,
            timeout_s=0.4,
        ),
        RunSpec("ok", CountingSource, config=SMALL),
    ]
    execution = campaign.start(specs)
    assert list(execution.processes) == ["worker0"]
    result = execution.join(timeout_s=60.0)

    statuses = {o.name: o.status for o in result.outcomes}
    assert statuses == {"stuck": "poisoned", "ok": "done"}
    requeues = RunLedger(ledger_path).read(kind="campaign-requeue")
    assert any("timeout" in r.extra["reason"] for r in requeues)
    assert manifest(campaign)["ok"]["worker"].startswith("worker")


@pytest.mark.parametrize(
    "knobs",
    [{"isolate": True}, {"job_timeout_s": 30.0}, {"heartbeat_timeout_s": 5.0}],
)
def test_supervision_knobs_fork_one_worker(tmp_path, knobs):
    campaign = Campaign(
        tmp_path / "camp",
        sleep=lambda _: None,
        heartbeat_interval_s=0.05,
        max_attempts=2,
        **knobs,
    )
    specs = [
        RunSpec("poison", CrashingSource, config=SMALL),
        RunSpec("ok", CountingSource, config=SMALL),
    ]
    # The crashing run kills its worker, not the calling process.
    result = campaign.start(specs).join(timeout_s=60.0)
    statuses = {o.name: o.status for o in result.outcomes}
    assert statuses == {"poison": "poisoned", "ok": "done"}
    assert manifest(campaign)["poison"]["attempts"] == 2


def test_incident_records_are_synced_when_written(tmp_path, monkeypatch):
    appended = []
    original = LedgerAppender.append

    def spying_append(self, entry, sync=False):
        appended.append((entry.kind, sync))
        return original(self, entry, sync=sync)

    monkeypatch.setattr(LedgerAppender, "append", spying_append)
    campaign = Campaign(
        tmp_path / "camp",
        sleep=lambda _: None,
        ledger=RunLedger(tmp_path / "ledger.jsonl", fsync=False),
        isolate=True,
        heartbeat_interval_s=0.05,
        max_attempts=2,
    )
    campaign.start(
        [
            RunSpec("poison", CrashingSource, config=SMALL),
            RunSpec("ok", CountingSource, config=SMALL),
        ]
    ).join(timeout_s=60.0)
    assert sorted(appended) == [
        ("campaign", False),
        ("campaign-quarantine", True),
        ("campaign-requeue", True),
        ("campaign-run", False),
    ]
