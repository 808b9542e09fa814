"""Each stage's work, read from the span rollup, survives the campaign fork.

A forked campaign worker sends its spans up its control pipe and the
supervisor's tracer adopts them, so the parent's rollup
(``trace.aggregate()``) counts the same pipeline work whether a pass
runs its leases in-process (``workers=1``) or in forked workers
(``workers=2``).  It must also agree with the bus's ``stall_detected``
count and with the reports themselves, and the status server's
``metrics`` request must serve that same rollup while the pass runs.
"""

import functools

import pytest

from repro.experiments import Campaign, RunSpec
from repro.experiments.runner import SimulatedCaptureSource
from repro.obs import set_obs_enabled, trace
from repro.obs.events import bus
from repro.obs.statusd import StatusServer, query


@pytest.fixture()
def obs_on():
    previous = set_obs_enabled(True)
    bus.reset()
    trace.reset()
    yield
    bus.reset()
    trace.reset()
    set_obs_enabled(previous)


def _specs():
    return [
        RunSpec(
            f"run{seed}",
            functools.partial(
                SimulatedCaptureSource,
                workload="micro", device="olimex", tm=64, cm=4, seed=seed,
            ),
        )
        for seed in range(2)
    ]


def _pass(directory, workers):
    """One campaign pass on a fresh bus and tracer: (result, rollup, stalls
    counted by the bus)."""
    bus.reset()
    trace.reset()
    result = Campaign(directory, sleep=lambda _: None, workers=workers).execute(
        _specs()
    )
    return result, trace.aggregate(), bus.stats()["counts"]["stall_detected"]


def _work(rollup):
    """The pipeline work in a rollup: counts and sums, not timings."""
    return {
        name: (rollup[name]["count"], rollup[name]["sums"])
        for name in ("sim.run", "receiver.capture", "acquire", "profile", "report")
    }


def test_forked_workers_count_as_much_work_as_in_process(tmp_path, obs_on):
    in_process, rollup_1, bus_stalls_1 = _pass(tmp_path / "w1", workers=1)
    forked, rollup_2, bus_stalls_2 = _pass(tmp_path / "w2", workers=2)

    assert in_process.counts() == forked.counts() == {
        "done": 2, "failed": 0, "skipped": 0
    }
    reported = sum(o.report.miss_count for o in in_process.outcomes)
    assert reported == sum(o.report.miss_count for o in forked.outcomes) > 0

    for rollup, bus_stalls in ((rollup_1, bus_stalls_1), (rollup_2, bus_stalls_2)):
        assert rollup["profile"]["count"] == 2
        assert rollup["profile"]["sums"]["stalls"] == bus_stalls == reported
        assert rollup["report"]["sums"]["stalls"] == reported
    assert _work(rollup_2) == _work(rollup_1)


def test_status_server_metrics_serve_the_forked_rollup(tmp_path, obs_on):
    with StatusServer(bus, tracer=trace) as server:
        execution = Campaign(
            tmp_path / "camp", sleep=lambda _: None, workers=2
        ).start(_specs())
        result = execution.join(timeout_s=60.0)
        reply = query(*server.address, {"req": "metrics"})

    assert reply["ok"] is True
    reported = sum(o.report.miss_count for o in result.outcomes)
    profile = reply["metrics"]["profile"]
    assert profile["count"] == 2
    assert profile["sums"]["stalls"] == reported > 0
    assert reply["metrics"]["sim.run"]["sums"]["instructions"] > 0
