"""The line-JSON status server: queries and errors."""

import json
import socket

import pytest

from repro.obs import set_obs_enabled
from repro.obs.events import EventBus
from repro.obs.statusd import StatusServer, parse_address, query
from repro.obs.trace import Tracer


@pytest.fixture()
def obs_on():
    previous = set_obs_enabled(True)
    yield
    set_obs_enabled(previous)


@pytest.fixture()
def server():
    bus = EventBus()
    status = StatusServer(bus, port=0)
    status.start()
    yield status, bus
    status.close()


class TestQueries:
    def test_status_reports_protocol_and_bus_stats(self, obs_on, server):
        status, bus = server
        bus.emit("chunk_processed", samples=64, stalls=2, latency_s=0.01)
        reply = query("127.0.0.1", status.port, {"req": "status"})
        assert reply["ok"] is True
        assert reply["protocol"] == "repro-obs-statusd"
        assert "trace_id" not in reply
        assert "samples_total" not in reply["events"]
        assert reply["events"]["counts"]["chunk_processed"] == 1

    def test_metrics_serves_the_span_rollup(self, obs_on):
        tracer = Tracer()
        with tracer.span("profile", stalls=3, workload="micro"):
            pass
        with StatusServer(EventBus(), tracer=tracer) as status:
            reply = query("127.0.0.1", status.port, {"req": "metrics"})
        assert reply["ok"] is True
        assert reply["metrics"]["profile"]["count"] == 1
        assert reply["metrics"]["profile"]["sums"] == {"stalls": 3}

    def test_metrics_without_a_tracer_is_null(self, obs_on, server):
        status, _ = server
        reply = query("127.0.0.1", status.port, {"req": "metrics"})
        assert reply == {"ok": True, "metrics": None}

    def test_tail_returns_newest_events(self, obs_on, server):
        status, bus = server
        for index in range(5):
            bus.emit("heartbeat", n=index)
        reply = query("127.0.0.1", status.port, {"req": "tail", "n": 2})
        assert reply["ok"] is True
        assert [e["attrs"]["n"] for e in reply["events"]] == [3, 4]

    def test_health_healthy_after_recent_event(self, obs_on, server):
        status, bus = server
        bus.emit("heartbeat")
        reply = query("127.0.0.1", status.port, {"req": "health"})
        assert reply["ok"] is True
        assert reply["healthy"] is True
        assert reply["stalled"] is False

    def test_unknown_request_names_the_catalogue(self, obs_on, server):
        status, _ = server
        reply = query("127.0.0.1", status.port, {"req": "frobnicate"})
        assert reply["ok"] is False
        assert "status" in reply["error"]

    def test_emit_is_an_unknown_request(self, obs_on, server):
        # The protocol only reads the bus; nothing pushes events into it.
        status, bus = server
        reply = query("127.0.0.1", status.port, {"req": "emit"})
        assert reply["ok"] is False
        assert "unknown request 'emit'" in reply["error"]
        assert bus.stats()["total"] == 0

    def test_watch_is_an_unknown_request(self, obs_on, server):
        # Live progress is polled through `status`; nothing streams.
        status, _ = server
        reply = query("127.0.0.1", status.port, {"req": "watch"})
        assert reply["ok"] is False
        assert reply["error"].endswith(
            "expected one of: status, metrics, tail, health"
        )

    def test_malformed_json_yields_error_not_hangup(self, obs_on, server):
        status, _ = server
        with socket.create_connection(("127.0.0.1", status.port), 5) as sock:
            sock.sendall(b"this is not json\n")
            reply = json.loads(sock.makefile().readline())
        assert reply["ok"] is False

    def test_extra_status_callback_is_merged(self, obs_on):
        bus = EventBus()
        status = StatusServer(
            bus, port=0, extra_status=lambda: {"campaign": "night"}
        )
        status.start()
        try:
            reply = query("127.0.0.1", status.port, {"req": "status"})
            assert reply["extra"]["campaign"] == "night"
        finally:
            status.close()

    def test_extra_status_errors_are_contained(self, obs_on):
        def broken():
            raise RuntimeError("status source on fire")

        bus = EventBus()
        status = StatusServer(bus, port=0, extra_status=broken)
        status.start()
        try:
            reply = query("127.0.0.1", status.port, {"req": "status"})
            assert reply["ok"] is True
            assert "on fire" in reply["extra"]["error"]
        finally:
            status.close()


class TestParseAddress:
    def test_host_port(self):
        assert parse_address("10.0.0.5:9000") == ("10.0.0.5", 9000)

    def test_bare_port_defaults_to_loopback(self):
        assert parse_address("9000") == ("127.0.0.1", 9000)

    def test_garbage_raises(self):
        with pytest.raises(ValueError):
            parse_address("not-an-address")
