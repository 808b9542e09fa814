"""Tests for ``repro-campaignd``: the supervised campaign daemon.

Covers the protocol-extension seam in statusd (``extra_requests``),
the submit-payload builders, the in-process job-queue lifecycle
(submit / status / cancel / drain / shutdown), graceful SIGTERM in a
real subprocess, and the acceptance scenario: a 100-run campaign with
a worker kill -9'd mid-run while the daemon answers concurrent status
queries - every run still completes exactly once.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.errors import ServiceError
from repro.experiments.service import (
    CampaignService,
    build_specs,
    expand_matrix,
)
from repro.obs import statusd
from repro.obs.events import EventBus
from repro.obs.ledger import RunLedger

REPO = Path(__file__).resolve().parents[1]


def query(service, request, timeout_s=5.0):
    host, port = service.address
    return statusd.query(host, port, request, timeout_s=timeout_s)


def poll_status(service, predicate, timeout_s=60.0, interval_s=0.05):
    """Query ``status`` until ``predicate(response)`` is true."""
    deadline = time.monotonic() + timeout_s
    response = None
    while time.monotonic() < deadline:
        response = query(service, {"req": "status"})
        if predicate(response):
            return response
        time.sleep(interval_s)
    raise AssertionError(f"status condition never met; last: {response}")


def job_table(response):
    return {j["id"]: j for j in response["extra"]["service"]["jobs"]}


# -- submit payload builders ------------------------------------------------


def test_expand_matrix_cross_product_with_broadcast():
    runs = expand_matrix({"tm": [4, 8], "seed": [0, 1], "cm": 4})
    assert len(runs) == 4
    names = [r["name"] for r in runs]
    assert len(set(names)) == 4
    assert all(r["cm"] == 4 for r in runs)
    assert {(r["tm"], r["seed"]) for r in runs} == {
        (4, 0), (4, 1), (8, 0), (8, 1)
    }


def test_expand_matrix_rejects_unknown_key_and_empty_axis():
    with pytest.raises(ServiceError, match="unknown matrix key"):
        expand_matrix({"voltage": [1, 2]})
    with pytest.raises(ServiceError, match="axis 'tm' is empty"):
        expand_matrix({"tm": []})


def test_build_specs_happy_path_and_timeouts():
    specs = build_specs(
        [
            {"name": "a", "tm": 4, "cm": 4, "timeout_s": 9.0},
            {"name": "b", "seed": 3},
        ],
        default_timeout_s=2.0,
    )
    assert [s.name for s in specs] == ["a", "b"]
    assert specs[0].timeout_s == 9.0  # per-run override wins
    assert specs[1].timeout_s == 2.0
    source = specs[1].source_factory()
    assert source.seed == 3


def test_build_specs_validation_errors():
    with pytest.raises(ServiceError, match="non-empty list"):
        build_specs([])
    with pytest.raises(ServiceError, match="not a JSON object"):
        build_specs(["tm=4"])
    with pytest.raises(ServiceError, match="unknown keys: voltage"):
        build_specs([{"voltage": 3}])
    with pytest.raises(ServiceError, match="duplicate run name"):
        build_specs([{"name": "x"}, {"name": "x"}])
    with pytest.raises(ServiceError, match="not filesystem-safe"):
        build_specs([{"name": "../escape"}])
    # Payloads no worker could run are refused at submit, not poisoned
    # after every attempt's worker dies.
    with pytest.raises(ServiceError, match="unknown workload 'nope'"):
        build_specs([{"workload": "nope"}])
    with pytest.raises(ServiceError, match="unknown device 'nokia'"):
        build_specs([{"device": "nokia"}])
    with pytest.raises(ServiceError, match="tm must be positive"):
        build_specs([{"tm": -4}])
    with pytest.raises(ServiceError, match="cannot exceed"):
        build_specs([{"tm": 4}])


# -- the statusd protocol-extension seam ------------------------------------


def test_statusd_extra_request_verbs_dispatch():
    def ping(request):
        return {"ok": True, "pong": request.get("n", 0) + 1}

    def boom(request):
        raise RuntimeError("handler exploded")

    with statusd.StatusServer(
        EventBus(), extra_requests={"ping": ping, "boom": boom}
    ) as server:
        host, port = server.address
        assert statusd.query(host, port, {"req": "ping", "n": 41}) == {
            "ok": True,
            "pong": 42,
        }
        # A raising handler becomes an error response, and the server
        # keeps answering on the same port.
        failed = statusd.query(host, port, {"req": "boom"})
        assert failed["ok"] is False
        assert "RuntimeError: handler exploded" in failed["error"]
        unknown = statusd.query(host, port, {"req": "bogus"})
        assert unknown["ok"] is False
        # Extended verbs are advertised alongside the built-ins.
        assert "ping" in unknown["error"]
        assert "status" in unknown["error"]


# -- in-process daemon lifecycle --------------------------------------------


def small_service(tmp_path, **kw):
    kw.setdefault("workers", 2)
    kw.setdefault("heartbeat_interval_s", 0.05)
    return CampaignService(tmp_path / "svc", **kw)


def test_submitted_job_runs_to_completion(tmp_path):
    with small_service(tmp_path) as svc:
        reply = query(
            svc,
            {"req": "submit", "matrix": {"tm": [4, 8], "seed": [0, 1], "cm": 4}},
        )
        assert reply == {"ok": True, "job": "job0001", "runs": 4}
        done = poll_status(
            svc,
            lambda r: job_table(r).get("job0001", {}).get("state") == "done",
        )
        job = job_table(done)["job0001"]
        assert job["counts"]["done"] == 4
        assert job["completed"] is True
        manifest = json.loads(
            (tmp_path / "svc" / "job0001" / "manifest.json").read_text()
        )
        assert len(manifest["runs"]) == 4
        assert all(e["status"] == "done" for e in manifest["runs"].values())


def test_single_worker_daemon_still_forks_supervised_workers(tmp_path):
    # The daemon must survive any job, so even --workers 1 runs every
    # lease in a forked, supervised worker, never on its runner thread.
    with small_service(tmp_path, workers=1) as svc:
        query(svc, {"req": "submit", "matrix": {"seed": [0, 1]}})
        poll_status(
            svc,
            lambda r: job_table(r).get("job0001", {}).get("state") == "done",
        )
        manifest = json.loads(
            (tmp_path / "svc" / "job0001" / "manifest.json").read_text()
        )
        workers = {e["worker"] for e in manifest["runs"].values()}
        assert workers == {"worker0"}


def test_submit_refuses_a_run_no_worker_could_run(tmp_path):
    with small_service(tmp_path) as svc:
        reply = query(svc, {"req": "submit", "runs": [{"device": "nokia"}]})
        assert reply["ok"] is False
        assert "unknown device 'nokia'" in reply["error"]
        assert job_table(query(svc, {"req": "status"})) == {}


def test_submit_requires_exactly_one_payload_shape(tmp_path):
    with small_service(tmp_path) as svc:
        for request in (
            {"req": "submit"},
            {"req": "submit", "runs": [{}], "matrix": {"tm": 4}},
            {"req": "submit", "matrix": {"voltage": [1]}},
            {"req": "submit", "runs": [{}], "dir": "a/b"},
        ):
            reply = query(svc, request)
            assert reply["ok"] is False
        # Unknown verbs advertise the service extensions.
        unknown = query(svc, {"req": "bogus"})
        assert "submit" in unknown["error"]
        assert "shutdown" in unknown["error"]


def test_cancel_queued_job_and_drain(tmp_path):
    with small_service(tmp_path) as svc:
        first = query(
            svc, {"req": "submit", "matrix": {"seed": list(range(12))}}
        )
        second = query(svc, {"req": "submit", "runs": [{"name": "late"}]})
        assert first["ok"] and second["ok"]
        cancel = query(svc, {"req": "cancel", "job": second["job"]})
        assert cancel == {
            "ok": True,
            "job": second["job"],
            "state": "cancelled",
        }
        missing = query(svc, {"req": "cancel", "job": "job9999"})
        assert missing["ok"] is False
        drained = query(svc, {"req": "drain"})
        assert drained["ok"] is True
        rejected = query(svc, {"req": "submit", "runs": [{}]})
        assert rejected["ok"] is False
        assert "draining" in rejected["error"]
        assert svc.wait(timeout_s=60.0)
        final = svc._jobs
        assert final[first["job"]].state == "done"
        assert final[second["job"]].state == "cancelled"


def test_cancel_running_job_interrupts_leases(tmp_path):
    with small_service(tmp_path) as svc:
        reply = query(
            svc, {"req": "submit", "matrix": {"seed": list(range(40))}}
        )
        poll_status(
            svc,
            lambda r: job_table(r)[reply["job"]].get("queue", {}).get("leases"),
        )
        cancel = query(svc, {"req": "cancel", "job": reply["job"]})
        assert cancel["state"] == "cancelled"
        # The state flips to "cancelled" immediately; wait for the
        # execution to actually unwind before auditing the manifest.
        done = poll_status(
            svc,
            lambda r: "finished_unix_s" in job_table(r)[reply["job"]],
        )
        job = job_table(done)[reply["job"]]
        assert job["state"] == "cancelled"
        # Far fewer runs completed than were submitted, and the manifest
        # keeps the interrupted leases (attempts intact) for a resume.
        manifest = json.loads(
            (tmp_path / "svc" / reply["job"] / "manifest.json").read_text()
        )
        statuses = [e["status"] for e in manifest["runs"].values()]
        assert len(manifest["runs"]) < 40
        assert all(s in ("done", "interrupted") for s in statuses)


def test_shutdown_verb_cancels_queued_jobs_and_exits(tmp_path):
    with small_service(tmp_path) as svc:
        first = query(
            svc, {"req": "submit", "matrix": {"seed": list(range(8))}}
        )
        second = query(
            svc, {"req": "submit", "matrix": {"seed": list(range(8))}}
        )
        reply = query(svc, {"req": "shutdown"})
        assert reply == {"ok": True, "shutting_down": True}
        assert svc.wait(timeout_s=60.0)
        states = {jid: j.state for jid, j in svc._jobs.items()}
        assert states[second["job"]] == "cancelled"
        assert states[first["job"]] in ("done", "cancelled")


# -- graceful SIGTERM in a real daemon process ------------------------------


def _daemon_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def test_module_runs_once_under_python_m():
    # A package that imports the daemon before ``runpy`` runs it as
    # __main__ makes runpy warn, and the daemon runs as a second copy.
    done = subprocess.run(
        [
            sys.executable,
            "-W",
            "error::RuntimeWarning",
            "-m",
            "repro.experiments.service",
            "--help",
        ],
        env=_daemon_env(),
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    assert "serve" in done.stdout


def test_sigterm_drains_and_exits_zero(tmp_path):
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.experiments.service",
            "serve",
            "--dir",
            str(tmp_path / "svc"),
            "--port",
            "0",
            "--workers",
            "2",
            "--heartbeat-interval-s",
            "0.05",
        ],
        env=_daemon_env(),
        cwd=tmp_path,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        banner = json.loads(process.stdout.readline())
        assert banner["daemon"] == "repro-campaignd"
        host, port = statusd.parse_address(banner["address"])
        reply = statusd.query(
            host, port, {"req": "submit", "matrix": {"seed": [0, 1, 2, 3]}}
        )
        assert reply["ok"] is True
        process.send_signal(signal.SIGTERM)
        out, err = process.communicate(timeout=60)
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate()
    assert process.returncode == 0, err
    assert json.loads(out.splitlines()[-1]) == {"ok": True, "exited": True}


# -- acceptance: 100 runs, a kill -9, concurrent status queries --------------


def test_hundred_run_campaign_survives_worker_kill(tmp_path):
    svc = CampaignService(
        tmp_path / "svc", workers=3, heartbeat_interval_s=0.05
    ).start()
    status_failures = []
    running_seen = threading.Event()
    stop_polling = threading.Event()

    def hammer_status():
        # The acceptance bar: the daemon answers status queries *while*
        # the pass runs and while the supervisor is killing/respawning.
        while not stop_polling.is_set():
            try:
                response = query(svc, {"req": "status"})
                service = response["extra"]["service"]
                if not response.get("ok"):
                    status_failures.append(response)
                if service["active"] is not None:
                    running_seen.set()
            except Exception as exc:  # noqa: BLE001 - recorded, not raised
                status_failures.append(repr(exc))
            time.sleep(0.01)

    poller = threading.Thread(target=hammer_status, daemon=True)
    poller.start()
    try:
        reply = query(
            svc,
            {
                "req": "submit",
                "matrix": {
                    "tm": [2, 4, 8, 16, 32],
                    "seed": list(range(20)),
                    "cm": 2,
                },
            },
        )
        assert reply == {"ok": True, "job": "job0001", "runs": 100}

        # Kill a worker that holds a fresh lease, kill -9 style.
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            job = svc._jobs["job0001"]
            execution = job.execution
            if execution is not None:
                snap = execution.snapshot()
                if snap["leases"]:
                    victim = sorted(snap["leases"])[0]
                    os.kill(execution.processes[victim].pid, signal.SIGKILL)
                    break
            time.sleep(0.01)
        else:
            raise AssertionError("no lease to kill")

        done = poll_status(
            svc,
            lambda r: job_table(r)["job0001"]["state"] == "done",
            timeout_s=120.0,
        )
    finally:
        stop_polling.set()
        poller.join(timeout=5.0)
        query(svc, {"req": "shutdown"})
        assert svc.wait(timeout_s=60.0)
        svc.close()

    # Exactly-once: all 100 runs completed, none lost, none doubled.
    job = job_table(done)["job0001"]
    assert job["counts"] == {"done": 100, "failed": 0, "skipped": 0}
    assert job["completed"] is True
    manifest = json.loads(
        (tmp_path / "svc" / "job0001" / "manifest.json").read_text()
    )
    assert len(manifest["runs"]) == 100
    assert all(e["status"] == "done" for e in manifest["runs"].values())
    reports = list((tmp_path / "svc" / "job0001").glob("*.report.json"))
    assert len(reports) == 100

    # The daemon stayed responsive throughout.
    assert running_seen.is_set()
    assert not status_failures

    # The kill left an audit trail: a requeue incident in the ledger.
    ledger = RunLedger(tmp_path / "svc" / "LEDGER_obs.jsonl")
    requeues = ledger.read(kind="campaign-requeue")
    assert requeues
    assert all("died" in r.extra["reason"] for r in requeues)
    requeued_runs = {r.label.split("/", 1)[1] for r in requeues}
    assert all(
        manifest["runs"][name]["attempts"] >= 2 for name in requeued_runs
    )
