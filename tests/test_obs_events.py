"""The event bus: schema, gating, delivery on emit, sinks."""

import json
import threading

import pytest

from repro.obs import set_obs_enabled
from repro.obs.events import (
    EVENT_KINDS,
    Event,
    EventBus,
    NDJSONFileSink,
    read_events,
)
from tests.doubles import InMemorySink


@pytest.fixture()
def obs_on():
    previous = set_obs_enabled(True)
    yield
    set_obs_enabled(previous)


@pytest.fixture()
def obs_off():
    previous = set_obs_enabled(False)
    yield
    set_obs_enabled(previous)


class TestEventSchema:
    def test_round_trip(self):
        event = Event(
            kind="chunk_processed",
            t_unix_s=12.5,
            seq=7,
            pid=4242,
            source="worker0",
            attrs={"samples": 1024},
        )
        parsed = Event.from_dict(event.to_dict())
        assert parsed == event
        assert json.loads(json.dumps(event.to_dict())) == event.to_dict()

    def test_reads_lines_that_still_carry_trace_id(self):
        # Event files written before the key was dropped stay readable.
        line = {
            "schema": "repro-obs-event",
            "schema_version": 1,
            "kind": "heartbeat",
            "t_unix_s": 3.0,
            "seq": 2,
            "pid": 77,
            "source": "worker1",
            "trace_id": "cafe0123cafe0123",
            "attrs": {"worker": "worker1"},
        }
        event = Event.from_dict(line)
        assert (event.kind, event.source, event.attrs) == (
            "heartbeat", "worker1", {"worker": "worker1"}
        )
        assert "trace_id" not in event.to_dict()

    def test_rejects_wrong_schema(self):
        payload = Event(kind="heartbeat", t_unix_s=0.0, seq=0, pid=1).to_dict()
        payload["schema"] = "something-else"
        with pytest.raises(ValueError):
            Event.from_dict(payload)

    def test_rejects_unknown_kind(self):
        payload = Event(kind="heartbeat", t_unix_s=0.0, seq=0, pid=1).to_dict()
        payload["kind"] = "explosion"
        with pytest.raises(ValueError):
            Event.from_dict(payload)

    def test_kind_catalogue_is_pinned(self):
        assert EVENT_KINDS == (
            "run_started",
            "run_finished",
            "chunk_processed",
            "stall_detected",
            "quality_flag",
            "checkpoint_written",
            "heartbeat",
            "worker_spawned",
            "worker_killed",
            "job_requeued",
            "job_quarantined",
        )


class TestEmitGating:
    def test_disabled_emit_is_a_no_op(self, obs_off):
        bus = EventBus()
        sink = InMemorySink()
        bus.add_sink(sink)
        bus.emit("heartbeat")
        assert sink.events == []
        assert bus.stats()["total"] == 0

    def test_enabled_emit_reaches_sinks(self, obs_on):
        bus = EventBus()
        sink = InMemorySink()
        bus.add_sink(sink)
        bus.emit("run_started", op="test")
        (event,) = sink.events
        assert event.kind == "run_started"
        assert event.attrs["op"] == "test"

    def test_unknown_kind_raises_when_enabled(self, obs_on):
        bus = EventBus()
        with pytest.raises(ValueError):
            bus.emit("not_a_kind")

    def test_ingest_is_not_gated(self, obs_off):
        # Aggregators (the status server) accept foreign events even
        # when local production is off - ingest is an explicit opt-in.
        bus = EventBus()
        payload = Event(
            kind="heartbeat", t_unix_s=1.0, seq=3, pid=99, source="w0"
        ).to_dict()
        bus.ingest(payload)
        assert bus.stats()["total"] == 1
        assert bus.tail(1)[0].source == "w0"


class TestBoundedDelivery:
    def test_tail_ring_eviction_is_not_a_drop(self, obs_on):
        bus = EventBus(tail_capacity=4)
        for index in range(10):
            bus.emit("heartbeat", n=index)
        tail = bus.tail(100)
        assert [e.attrs["n"] for e in tail] == [6, 7, 8, 9]
        assert bus.stats()["total"] == 10

    def test_every_sink_sees_every_event_in_seq_order(self, obs_on):
        bus = EventBus()
        sinks = [bus.add_sink(InMemorySink()) for _ in range(2)]
        for _ in range(5000):
            bus.emit("heartbeat")
        for sink in sinks:
            assert [e.seq for e in sink.events] == list(range(1, 5001))

    def test_sink_errors_are_counted_not_raised(self, obs_on):
        class Broken:
            def write(self, event):
                raise RuntimeError("sink on fire")

        bus = EventBus()
        bus.add_sink(Broken())
        sink = bus.add_sink(InMemorySink())
        bus.emit("heartbeat")
        assert bus.stats()["sink_errors"] == 1
        assert len(sink.events) == 1


class TestStats:
    def test_chunk_attrs_roll_up(self, obs_on):
        bus = EventBus()
        bus.emit("chunk_processed", samples=100, stalls=3, latency_s=0.01)
        bus.emit("chunk_processed", samples=50, stalls=1, latency_s=0.02)
        bus.emit("quality_flag", flag="gap")
        stats = bus.stats()
        # Counts only: a chunk's work is summed by the span rollup.
        assert "samples_total" not in stats and "stalls_total" not in stats
        assert stats["counts"] == {"chunk_processed": 2, "quality_flag": 1}
        assert stats["total"] == 3

    def test_heartbeats_tracked_per_source(self, obs_on):
        bus = EventBus()
        bus.set_source("w3")
        bus.emit("heartbeat")
        assert "w3" in bus.stats()["last_heartbeat_unix_s"]

    def test_reset_clears_counters_and_sinks(self, obs_on):
        bus = EventBus()
        bus.add_sink(InMemorySink())
        bus.emit("heartbeat")
        bus.reset()
        stats = bus.stats()
        assert stats["total"] == 0
        assert bus.tail(10) == []
        # Post-reset the bus is usable again (the fork-child path).
        sink = InMemorySink()
        bus.add_sink(sink)
        bus.emit("heartbeat")
        assert len(sink.events) == 1


class TestNDJSONFile:
    def test_write_and_read_back(self, obs_on, tmp_path):
        path = tmp_path / "events.ndjsonl"
        bus = EventBus()
        sink = bus.add_sink(NDJSONFileSink(path))
        bus.emit("run_started", op="x")
        bus.emit("run_finished", op="x")
        sink.close()
        events, bad = read_events(path)
        assert [e.kind for e in events] == ["run_started", "run_finished"]
        assert bad == 0

    def test_torn_and_foreign_lines_are_counted(self, obs_on, tmp_path):
        path = tmp_path / "events.ndjsonl"
        bus = EventBus()
        sink = bus.add_sink(NDJSONFileSink(path))
        bus.emit("heartbeat")
        sink.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"torn": \n')
            handle.write('{"schema": "foreign", "kind": "heartbeat"}\n')
        events, bad = read_events(path)
        assert len(events) == 1
        assert bad == 2

    def test_missing_file_reads_empty(self, tmp_path):
        events, bad = read_events(tmp_path / "never-written.ndjsonl")
        assert events == [] and bad == 0


class TestConcurrency:
    def test_many_producers_one_consumer(self, obs_on, tmp_path):
        path = tmp_path / "events.ndjsonl"
        bus = EventBus()
        sink = bus.add_sink(NDJSONFileSink(path))
        n_threads, per_thread = 8, 2500

        def produce(thread):
            for index in range(per_thread):
                bus.emit("heartbeat", thread=thread, n=index)

        threads = [
            threading.Thread(target=produce, args=(thread,))
            for thread in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        sink.close()
        events, bad = read_events(path)
        assert bad == 0
        assert len(events) == n_threads * per_thread
        # One bus stamps one contiguous seq run, written in seq order,
        # and each producer's events keep the order it emitted them.
        assert {e.source for e in events} == {"main"}
        assert [e.seq for e in events] == list(range(1, len(events) + 1))
        for thread in range(n_threads):
            mine = [e.attrs["n"] for e in events
                    if e.attrs["thread"] == thread]
            assert mine == list(range(per_thread))
