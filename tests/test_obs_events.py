"""The event bus: schema, gating, bounded delivery, sinks."""

import json
import threading

import pytest

from repro.obs import set_obs_enabled
from repro.obs.events import (
    DEFAULT_CAPACITY,
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
        bus = EventBus(auto_drain=False)
        sink = InMemorySink()
        bus.add_sink(sink)
        bus.emit("heartbeat")
        bus.drain()
        assert sink.events == []
        assert bus.stats()["total"] == 0

    def test_enabled_emit_reaches_sinks(self, obs_on):
        bus = EventBus(auto_drain=False)
        sink = InMemorySink()
        bus.add_sink(sink)
        bus.emit("run_started", op="test")
        assert bus.drain() == 1
        (event,) = sink.events
        assert event.kind == "run_started"
        assert event.attrs["op"] == "test"

    def test_unknown_kind_raises_when_enabled(self, obs_on):
        bus = EventBus(auto_drain=False)
        with pytest.raises(ValueError):
            bus.emit("not_a_kind")

    def test_ingest_is_not_gated(self, obs_off):
        # Aggregators (the status server) accept foreign events even
        # when local production is off - ingest is an explicit opt-in.
        bus = EventBus(auto_drain=False)
        payload = Event(
            kind="heartbeat", t_unix_s=1.0, seq=3, pid=99, source="w0"
        ).to_dict()
        bus.ingest(payload)
        assert bus.stats()["total"] == 1
        assert bus.tail(1)[0].source == "w0"


class TestBoundedDelivery:
    def test_overflow_counts_dropped_events(self, obs_on):
        bus = EventBus(capacity=8, auto_drain=False)
        bus.add_sink(InMemorySink())
        for _ in range(8 + 5):
            bus.emit("heartbeat")
        stats = bus.stats()
        assert stats["dropped_events"] == 5
        # The admitted events still deliver in full.
        assert bus.drain() == 8

    def test_tail_ring_eviction_is_not_a_drop(self, obs_on):
        bus = EventBus(capacity=DEFAULT_CAPACITY, tail_capacity=4,
                       auto_drain=False)
        for index in range(10):
            bus.emit("heartbeat", n=index)
        tail = bus.tail(100)
        assert [e.attrs["n"] for e in tail] == [6, 7, 8, 9]
        assert bus.stats()["dropped_events"] == 0
        assert bus.stats()["total"] == 10

    def test_auto_drain_delivers_without_manual_drain(self, obs_on):
        bus = EventBus()
        sink = InMemorySink()
        bus.add_sink(sink)
        try:
            bus.emit("quality_flag", flag="gap")
            assert bus.flush(timeout_s=5.0)
            assert [e.kind for e in sink.events] == ["quality_flag"]
        finally:
            bus.close()

    def test_sink_errors_are_counted_not_raised(self, obs_on):
        class Broken:
            def write(self, event):
                raise RuntimeError("sink on fire")

        bus = EventBus(auto_drain=False)
        bus.add_sink(Broken())
        bus.emit("heartbeat")
        bus.drain()
        assert bus.stats()["sink_errors"] == 1


class TestStats:
    def test_chunk_attrs_roll_up(self, obs_on):
        bus = EventBus(auto_drain=False)
        bus.emit("chunk_processed", samples=100, stalls=3, latency_s=0.01)
        bus.emit("chunk_processed", samples=50, stalls=1, latency_s=0.02)
        bus.emit("quality_flag", flag="gap")
        stats = bus.stats()
        assert stats["samples_total"] == 150
        assert stats["stalls_total"] == 4
        assert stats["quality_flags_total"] == 1
        assert stats["counts"]["chunk_processed"] == 2

    def test_heartbeats_tracked_per_source(self, obs_on):
        bus = EventBus(auto_drain=False)
        bus.set_source("w3")
        bus.emit("heartbeat")
        assert "w3" in bus.stats()["last_heartbeat_unix_s"]

    def test_reset_clears_counters_and_sinks(self, obs_on):
        bus = EventBus(auto_drain=False)
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
        bus.drain()
        assert len(sink.events) == 1


class TestBusGauges:
    def test_stats_carry_queue_depth_and_sinks(self, obs_on):
        bus = EventBus(auto_drain=False)
        bus.add_sink(InMemorySink())
        bus.emit("heartbeat")
        bus.emit("heartbeat")
        stats = bus.stats()
        assert stats["queue_depth"] == 2
        assert stats["sinks"] == 1
        assert bus.queue_depth == 2
        assert bus.sink_count == 1
        bus.drain()
        assert bus.queue_depth == 0

    def test_export_gauges_publishes_bus_health(self, obs_on):
        from repro.obs.events import export_gauges
        from repro.obs.metrics import MetricsRegistry

        bus = EventBus(auto_drain=False, capacity=2)
        bus.add_sink(InMemorySink())
        for _ in range(5):
            bus.emit("heartbeat")
        registry = MetricsRegistry()
        export_gauges(registry=registry, source=bus)
        gauges = registry.snapshot()["gauges"]
        assert gauges["eventbus_dropped_events"]["value"] == 3.0
        assert gauges["eventbus_queue_depth"]["value"] == 2.0
        assert gauges["eventbus_sinks"]["value"] == 1.0
        assert gauges["eventbus_sink_errors"]["value"] == 0.0

    def test_export_gauges_lands_in_prometheus_text(self, obs_on):
        from repro.obs.events import export_gauges
        from repro.obs.metrics import MetricsRegistry

        bus = EventBus(auto_drain=False)
        registry = MetricsRegistry()
        export_gauges(registry=registry, source=bus)
        text = registry.to_prometheus()
        assert "eventbus_dropped_events" in text
        assert "eventbus_queue_depth" in text


class TestNDJSONFile:
    def test_write_and_read_back(self, obs_on, tmp_path):
        path = tmp_path / "events.ndjsonl"
        bus = EventBus(auto_drain=False)
        bus.add_sink(NDJSONFileSink(path))
        bus.emit("run_started", op="x")
        bus.emit("run_finished", op="x")
        bus.drain()
        bus.close()
        events, bad = read_events(path)
        assert [e.kind for e in events] == ["run_started", "run_finished"]
        assert bad == 0

    def test_torn_and_foreign_lines_are_counted(self, obs_on, tmp_path):
        path = tmp_path / "events.ndjsonl"
        bus = EventBus(auto_drain=False)
        bus.add_sink(NDJSONFileSink(path))
        bus.emit("heartbeat")
        bus.drain()
        bus.close()
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
    def test_many_producers_one_consumer(self, obs_on):
        bus = EventBus(capacity=100_000, auto_drain=False)
        sink = InMemorySink()
        bus.add_sink(sink)
        n_threads, per_thread = 8, 250

        def produce():
            for _ in range(per_thread):
                bus.emit("heartbeat")

        threads = [threading.Thread(target=produce) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        bus.drain()
        assert len(sink.events) == n_threads * per_thread
        # seq numbers are unique: no two producers shared a slot.
        seqs = {e.seq for e in sink.events}
        assert len(seqs) == n_threads * per_thread
