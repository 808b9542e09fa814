"""The repro-obs live subcommands: tail, watch, demo."""

import pytest

from repro.obs import cli as obs_cli
from repro.obs import set_obs_enabled
from repro.obs.cli import EXIT_BAD_INPUT, EXIT_OK
from repro.obs.events import Event, EventBus, NDJSONFileSink
from repro.obs.statusd import StatusServer


@pytest.fixture()
def obs_on():
    previous = set_obs_enabled(True)
    yield
    set_obs_enabled(previous)


def _heartbeats(sources=("main", "worker0")):
    return [
        Event(kind="heartbeat", t_unix_s=0.1 * index, seq=index,
              pid=10 + index, source=source)
        for index, source in enumerate(sources * 4)
    ]


def _write_events(path):
    bus = EventBus()
    sink = bus.add_sink(NDJSONFileSink(path))
    for event in _heartbeats():
        bus.ingest(event.to_dict())
    sink.close()


class TestTail:
    def test_tail_reads_an_events_file(self, tmp_path, capsys):
        events_path = tmp_path / "events.ndjsonl"
        _write_events(events_path)
        with open(events_path, "a", encoding="utf-8") as handle:
            handle.write('{"torn": \n')

        code = obs_cli.main(["tail", str(events_path), "-n", "3"])
        output = capsys.readouterr().out
        assert code == EXIT_OK
        assert output.count("heartbeat") == 3
        assert "worker0" in output
        assert "3 event(s) (1 unparseable lines skipped)" in output

    def test_tail_queries_a_live_server(self, tmp_path, capsys, obs_on):
        bus = EventBus()
        for event in _heartbeats():
            bus.ingest(event.to_dict())
        with StatusServer(bus) as server:
            code = obs_cli.main(["tail", f"127.0.0.1:{server.port}", "-n", "3"])
        output = capsys.readouterr().out
        assert code == EXIT_OK
        assert output.count("heartbeat") == 3
        assert "3 event(s)" in output

    def test_tail_against_dead_server_is_bad_input(self, capsys):
        assert obs_cli.main(["tail", "127.0.0.1:1"]) == EXIT_BAD_INPUT

    def test_tail_of_a_missing_file_is_bad_input(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.ndjsonl")
        assert obs_cli.main(["tail", missing]) == EXIT_BAD_INPUT
        assert "neither an events file nor HOST:PORT" in capsys.readouterr().err


class TestWatchDemo:
    def test_demo_runs_standalone_and_prints_rates(self, capsys):
        code = obs_cli.main(["demo"])
        output = capsys.readouterr().out
        assert code == EXIT_OK
        assert "chunks/s" in output and "stalls/s" in output
        # Then the run's span rollup, with each stage's summed work.
        chunk_row = next(
            line for line in output.splitlines()
            if line.split()[:1] == ["streaming.chunk"]
        )
        assert "samples=" in chunk_row and "stalls=" in chunk_row

    def test_watch_line_rates_batch_stalls(self):
        # A batch run emits one stall_detected per stall and no
        # chunk_processed events: its stalls still show as a rate.
        before = {"counts": {"stall_detected": 10}}
        after = {"counts": {"stall_detected": 40, "quality_flag": 2}}
        line = obs_cli._watch_line(before, after, 2.0)
        assert "0.0 chunks/s" in line
        assert "15.0 stalls/s" in line
        assert "2 quality flags" in line

    def test_watch_without_address_is_bad_input(self, capsys):
        with pytest.raises(SystemExit) as exc:
            obs_cli.main(["watch"])
        assert exc.value.code == EXIT_BAD_INPUT


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
