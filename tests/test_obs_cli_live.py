"""The repro-obs live subcommands: serve, tail, watch."""

import threading

import pytest

from repro.obs import cli as obs_cli
from repro.obs import set_obs_enabled
from repro.obs.cli import EXIT_BAD_INPUT, EXIT_OK
from repro.obs.events import Event, EventBus, NDJSONFileSink
from repro.obs.statusd import StatusServer, query


@pytest.fixture()
def obs_on():
    previous = set_obs_enabled(True)
    yield
    set_obs_enabled(previous)


def _write_events(path, sources=("main", "worker0")):
    bus = EventBus(auto_drain=False)
    bus.add_sink(NDJSONFileSink(path))
    for index, source in enumerate(sources * 4):
        bus.ingest(
            Event(kind="heartbeat", t_unix_s=0.1 * index, seq=index,
                  pid=10 + index, source=source).to_dict()
        )
    bus.drain()
    bus.close()


class TestServeAndTail:
    def test_serve_preloads_events_and_tail_reads_them(
        self, tmp_path, capsys, obs_on
    ):
        events_path = tmp_path / "events.ndjsonl"
        _write_events(events_path)

        # serve --duration in a thread; grab the advertised port.
        ready = threading.Event()
        ports = []

        original = StatusServer.start

        def patched(self):
            result = original(self)
            ports.append(self.port)
            ready.set()
            return result

        StatusServer.start = patched
        try:
            server_thread = threading.Thread(
                target=obs_cli.main,
                args=(
                    ["serve", "--port", "0", "--events", str(events_path),
                     "--duration", "4"],
                ),
                daemon=True,
            )
            server_thread.start()
            assert ready.wait(5.0)
            reply = query("127.0.0.1", ports[0], {"req": "status"})
            assert reply["events"]["counts"]["heartbeat"] == 8

            code = obs_cli.main(["tail", f"127.0.0.1:{ports[0]}", "-n", "3"])
            output = capsys.readouterr().out
            assert code == EXIT_OK
            assert output.count("heartbeat") >= 3
        finally:
            StatusServer.start = original

    def test_tail_against_dead_server_is_bad_input(self, capsys):
        assert obs_cli.main(["tail", "127.0.0.1:1"]) == EXIT_BAD_INPUT


class TestWatchDemo:
    def test_demo_runs_standalone_and_prints_rates(self, capsys):
        code = obs_cli.main(
            ["watch", "--demo", "--duration", "1.2", "--interval", "0.3"]
        )
        output = capsys.readouterr().out
        assert code == EXIT_OK
        assert "chunks/s" in output
        assert "samples/s" in output

    def test_watch_without_address_or_demo_is_bad_input(self, capsys):
        assert obs_cli.main(["watch"]) == EXIT_BAD_INPUT


class TestFormatEvent:
    def test_line_contains_source_kind_and_attrs(self):
        event = Event(
            kind="quality_flag", t_unix_s=1754690000.0, seq=1, pid=1,
            source="worker2", attrs={"flag": "gap", "dropped": 3},
        )
        line = obs_cli.format_event(event)
        assert "worker2" in line
        assert "quality_flag" in line
        assert "flag=gap" in line
