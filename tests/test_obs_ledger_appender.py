"""The reusable ledger appender and its campaign integration.

:class:`repro.obs.ledger.LedgerAppender` keeps one append handle open
across a burst of appends (a campaign writing one record per run)
while preserving the ledger's contract: one write of one terminated
line per record, torn-line tolerance for readers, and fsync either
per-append or deferred to close.
"""

import json
from unittest import mock

from repro.obs.ledger import LedgerAppender, RunLedger, record


def make_record(label="run", wall_time_s=1.0):
    return record(kind="profile", label=label, wall_time_s=wall_time_s)


def test_appends_visible_to_readers(tmp_path):
    ledger = RunLedger(tmp_path / "ledger.jsonl")
    with ledger.appender() as sink:
        for i in range(5):
            sink.append(make_record(label=f"run{i}"))
    records = ledger.read()
    assert [r.label for r in records] == [f"run{i}" for i in range(5)]


def test_appender_interoperates_with_plain_append(tmp_path):
    # Records written before, through, and after an appender all land.
    ledger = RunLedger(tmp_path / "ledger.jsonl")
    ledger.append(make_record(label="before"))
    with ledger.appender() as sink:
        sink.append(make_record(label="during"))
    ledger.append(make_record(label="after"))
    assert [r.label for r in ledger.read()] == ["before", "during", "after"]


def test_each_record_is_one_flushed_line(tmp_path):
    # Readers must never depend on close(): every append is flushed, so
    # a record is visible (one complete line) the moment append returns.
    ledger = RunLedger(tmp_path / "ledger.jsonl")
    with ledger.appender(fsync_each=False) as sink:
        sink.append(make_record(label="early"))
        text = ledger.path.read_text()
        assert text.endswith("\n")
        assert json.loads(text.splitlines()[0])["label"] == "early"


def test_fsync_each_mode(tmp_path):
    ledger = RunLedger(tmp_path / "ledger.jsonl")
    with mock.patch("repro.obs.ledger.os.fsync") as fsync:
        with ledger.appender(fsync_each=True) as sink:
            sink.append(make_record())
            sink.append(make_record())
    assert fsync.call_count == 2


def test_deferred_fsync_happens_once_at_close(tmp_path):
    ledger = RunLedger(tmp_path / "ledger.jsonl")
    with mock.patch("repro.obs.ledger.os.fsync") as fsync:
        with ledger.appender(fsync_each=False) as sink:
            for _ in range(10):
                sink.append(make_record())
            assert fsync.call_count == 0
    assert fsync.call_count == 1


def test_synced_append_fsyncs_now_under_the_ledger_policy(tmp_path):
    with mock.patch("repro.obs.ledger.os.fsync") as fsync:
        ledger = RunLedger(tmp_path / "ledger.jsonl", fsync=True)
        with ledger.appender(fsync_each=False) as sink:
            sink.append(make_record())
            sink.append(make_record(), sync=True)
            assert fsync.call_count == 1
        quiet = RunLedger(tmp_path / "quiet.jsonl", fsync=False)
        with quiet.appender(fsync_each=False) as sink:
            sink.append(make_record(), sync=True)
    # One synced record, then the deferred close-time fsync; a ledger
    # whose policy is off never fsyncs.
    assert fsync.call_count == 2


def test_deferred_fsync_skipped_when_nothing_written(tmp_path):
    ledger = RunLedger(tmp_path / "ledger.jsonl")
    with mock.patch("repro.obs.ledger.os.fsync") as fsync:
        with ledger.appender(fsync_each=False):
            pass
    assert fsync.call_count == 0


def test_append_after_close_raises(tmp_path):
    ledger = RunLedger(tmp_path / "ledger.jsonl")
    sink = ledger.appender()
    sink.append(make_record())
    sink.close()
    assert sink.closed
    try:
        sink.append(make_record())
    except ValueError as exc:
        assert "closed" in str(exc)
    else:  # pragma: no cover - the assertion above must trip
        raise AssertionError("append after close did not raise")
    sink.close()  # idempotent


def test_torn_final_line_still_tolerated(tmp_path):
    # The appender preserves the reader contract: a torn trailing line
    # (simulated crash mid-write) is skipped and counted, earlier
    # records survive.
    ledger = RunLedger(tmp_path / "ledger.jsonl")
    with ledger.appender(fsync_each=False) as sink:
        sink.append(make_record(label="ok"))
    with open(ledger.path, "a", encoding="utf-8") as handle:
        handle.write('{"kind": "profile", "label": "torn')
    records, bad = ledger.read_with_errors()
    assert [r.label for r in records] == ["ok"]
    assert bad == 1


def test_appender_creates_parent_directory(tmp_path):
    ledger = RunLedger(tmp_path / "nested" / "dir" / "ledger.jsonl")
    with ledger.appender() as sink:
        sink.append(make_record())
    assert len(ledger) == 1


def test_constructor_type(tmp_path):
    sink = RunLedger(tmp_path / "l.jsonl").appender()
    assert isinstance(sink, LedgerAppender)
    sink.close()


# -- campaign integration ----------------------------------------------------


def _static_source(seed=0, n=3000):
    import numpy as np

    from repro.emsignal.receiver import Capture

    class StaticSource:
        def capture(self):
            rng = np.random.default_rng(seed)
            x = np.full(n, 0.9) + rng.normal(0, 0.02, n)
            for s in range(200, n - 200, 170):
                x[s : s + 13] = 0.1
            return Capture(
                magnitude=np.clip(x, 0.0, None),
                sample_rate_hz=50e6,
                clock_hz=1e9,
                bandwidth_hz=50e6,
                region_names={},
            )

    return StaticSource()


def test_campaign_uses_one_appender_for_all_runs(tmp_path, monkeypatch):
    """A campaign's per-run records go through one reusable handle."""
    from repro.core.detect import DetectorConfig
    from repro.core.normalize import NormalizerConfig
    from repro.core.profiler import EmprofConfig
    from repro.experiments import Campaign, RunSpec

    config = EmprofConfig(
        normalizer=NormalizerConfig(window_samples=301),
        detector=DetectorConfig(),
    )
    ledger = RunLedger(tmp_path / "ledger.jsonl")
    opened = []
    original = RunLedger.appender

    def spying_appender(self, fsync_each=True):
        sink = original(self, fsync_each=fsync_each)
        opened.append(sink)
        return sink

    monkeypatch.setattr(RunLedger, "appender", spying_appender)

    campaign = Campaign(tmp_path / "camp", sleep=lambda _: None, ledger=ledger)
    specs = [
        RunSpec(f"r{i}", (lambda s=i: _static_source(seed=s)), config=config)
        for i in range(4)
    ]
    result = campaign.execute(specs)
    assert result.completed

    # One appender for the whole campaign, deferred-fsync mode, closed.
    assert len(opened) == 1
    assert opened[0].fsync_each is False
    assert opened[0].closed

    # One campaign-run record per run plus the campaign summary.
    records = ledger.read()
    assert len(records) == 5
    assert [r.kind for r in records].count("campaign-run") == 4
    assert records[-1].kind == "campaign"
