"""Unit tests for the span tracer (`repro.obs.trace`)."""

from __future__ import annotations

import json
import os
import threading

import pytest

from repro.obs import set_obs_enabled
from repro.obs.trace import DEFAULT_MAX_SPANS, Tracer, _NULL_SPAN


@pytest.fixture()
def obs_on():
    """Enable observability for one test, restoring the prior state."""
    previous = set_obs_enabled(True)
    yield
    set_obs_enabled(previous)


@pytest.fixture()
def tracer():
    """A private tracer so tests never touch the global one."""
    return Tracer()


class TestDisabledPath:
    def test_span_returns_shared_null_span(self, tracer):
        previous = set_obs_enabled(False)
        try:
            span = tracer.span("x", samples=3)
            assert span is _NULL_SPAN
            with span as s:
                s.set_attr(anything=1)
            assert tracer.records() == []
        finally:
            set_obs_enabled(previous)

    def test_wrap_is_late_bound(self, tracer):
        """A decorator applied while disabled still traces once enabled."""
        previous = set_obs_enabled(False)
        try:

            @tracer.instrumented("stage")
            def stage(x):
                return x + 1

            assert stage(1) == 2
            assert tracer.records() == []
            set_obs_enabled(True)
            assert stage(2) == 3
            assert [r.name for r in tracer.records()] == ["stage"]
        finally:
            set_obs_enabled(previous)


class TestInstrumented:
    def test_attrs_hook_and_run_events(self, obs_on, tracer):
        """Bound call arguments feed the span, the exit hook's result is
        added to it, and run events bracket the call with the same
        attributes."""
        from repro.obs.events import bus

        seen = []

        def done(result, elapsed_s, attrs):
            seen.append((result, elapsed_s >= 0.0, dict(attrs)))
            return {"out": result}

        @tracer.instrumented(
            "stage",
            attrs=lambda x, scale: {"x": x, "scale": scale},
            on_exit=done,
            run_events=True,
        )
        def stage(x, scale=2):
            return x * scale

        bus.reset()
        try:
            assert stage(3) == 6
            events = [e for e in bus.tail(10) if e.attrs.get("op") == "stage"]
        finally:
            bus.reset()
        assert seen == [(6, True, {"x": 3, "scale": 2})]
        (record,) = tracer.records()
        assert record.name == "stage"
        assert record.attrs == {"x": 3, "scale": 2, "out": 6}
        assert [e.kind for e in events] == ["run_started", "run_finished"]
        assert events[0].attrs == {"op": "stage", "x": 3, "scale": 2}
        assert events[1].attrs == {"op": "stage", "x": 3, "scale": 2, "out": 6}

    def test_disabled_skips_hooks(self, tracer):
        previous = set_obs_enabled(False)
        calls = []
        try:

            @tracer.instrumented(
                "stage",
                attrs=lambda x: calls.append("attrs") or {},
                on_exit=lambda *a: calls.append("exit"),
            )
            def stage(x):
                return x

            assert stage(5) == 5
        finally:
            set_obs_enabled(previous)
        assert calls == []
        assert tracer.records() == []


class TestRecording:
    def test_nesting_parent_and_depth(self, obs_on, tracer):
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner, outer = tracer.by_name("inner")[0], tracer.by_name("outer")[0]
        assert inner.parent_id == outer.span_id
        assert inner.depth == 1
        assert outer.parent_id is None
        assert outer.depth == 0
        # Child completes first but is contained in the parent's window.
        assert outer.begin_s <= inner.begin_s
        assert inner.end_s <= outer.end_s
        assert inner.duration_s >= 0.0

    def test_sibling_spans_share_parent(self, obs_on, tracer):
        with tracer.span("root"):
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        root = tracer.by_name("root")[0]
        assert tracer.by_name("a")[0].parent_id == root.span_id
        assert tracer.by_name("b")[0].parent_id == root.span_id
        assert tracer.by_name("b")[0].depth == 1

    def test_attrs_cleaned_and_updatable(self, obs_on, tracer):
        class Weird:
            def __str__(self):
                return "weird"

        with tracer.span("s", samples=4, tag=Weird()) as span:
            span.set_attr(stalls=2)
        record = tracer.records()[0]
        assert record.attrs == {"samples": 4, "tag": "weird", "stalls": 2}

    def test_threads_get_independent_stacks(self, obs_on, tracer):
        ready = threading.Barrier(2)

        def work(name):
            ready.wait()
            with tracer.span(name):
                pass

        threads = [threading.Thread(target=work, args=(f"t{i}",)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        records = tracer.records()
        assert len(records) == 2
        # Both are roots: neither thread sees the other's open span.
        assert all(r.parent_id is None and r.depth == 0 for r in records)
        assert len({r.thread_id for r in records}) == 2

    def test_max_spans_drops_not_grows(self, obs_on):
        small = Tracer(max_spans=3)
        for i in range(5):
            with small.span(f"s{i}"):
                pass
        assert len(small.records()) == 3
        assert small.dropped == 2
        assert small.to_payload()["dropped"] == 2

    def test_reset_clears_everything(self, obs_on, tracer):
        with tracer.span("s"):
            pass
        tracer.reset()
        assert tracer.records() == []
        assert tracer.dropped == 0
        with tracer.span("again"):
            pass
        assert tracer.records()[0].span_id == 0

    def test_rejects_bad_max_spans(self):
        with pytest.raises(ValueError):
            Tracer(max_spans=0)
        assert Tracer().max_spans == DEFAULT_MAX_SPANS


class TestAdoption:
    """A forked worker's drained spans join the supervisor's tracer."""

    def _worker_spans(self, tracer):
        with tracer.span("campaign_run", run="r0"):
            with tracer.span("profile"):
                with tracer.span("detect"):
                    pass
        return tracer.drain()

    def test_drain_takes_spans_and_keeps_counting(self, obs_on):
        small = Tracer(max_spans=1)
        for name in ("a", "b"):
            with small.span(name):
                pass
        records, dropped = small.drain()
        assert [r.name for r in records] == ["a"]
        assert dropped == 1
        assert small.records() == [] and small.dropped == 0
        with small.span("c"):
            pass
        assert small.records()[0].span_id == 2

    def test_reset_keeps_the_time_origin(self, obs_on, tracer):
        origin = tracer._origin
        tracer.reset()
        assert tracer._origin == origin

    def test_adopt_reids_and_hangs_roots_under_parent(self, obs_on, tracer):
        records, _ = self._worker_spans(Tracer())
        with tracer.span("campaign") as campaign:
            tracer.adopt(records, campaign.span_id, "worker0", 2)
        rows = {r.name: r for r in tracer.records()}
        assert len({r.span_id for r in rows.values()}) == 4
        assert rows["campaign_run"].parent_id == rows["campaign"].span_id
        assert rows["profile"].parent_id == rows["campaign_run"].span_id
        assert rows["detect"].parent_id == rows["profile"].span_id
        assert {r.worker for r in rows.values()} == {None, "worker0"}
        assert rows["campaign"].worker is None
        assert rows["detect"].begin_s == records[0].begin_s  # no shift
        assert tracer.dropped == 2
        assert tracer.to_payload()["spans"][0]["worker"] == "worker0"

    def test_adopt_respects_max_spans(self, obs_on):
        records, _ = self._worker_spans(Tracer())
        small = Tracer(max_spans=2)
        small.adopt(records, None, "worker1", 0)
        assert len(small.records()) == 2
        assert small.dropped == 1

    def test_within_parents_spans_on_another_thread(self, obs_on, tracer):
        with tracer.span("campaign") as campaign:
            def run():
                with tracer.within(campaign):
                    with tracer.span("campaign_run"):
                        pass

            thread = threading.Thread(target=run)
            thread.start()
            thread.join()
            # Already innermost here: no second level.
            with tracer.within(campaign):
                with tracer.span("local"):
                    pass
        rows = {r.name: r for r in tracer.records()}
        assert rows["campaign_run"].parent_id == rows["campaign"].span_id
        assert rows["local"].parent_id == rows["campaign"].span_id
        assert rows["local"].depth == 1

    def test_within_a_disabled_span_changes_nothing(self, obs_on, tracer):
        with tracer.within(_NULL_SPAN):
            with tracer.span("s"):
                pass
        assert tracer.records()[0].parent_id is None


class TestExporters:
    def test_json_round_trip(self, obs_on, tracer):
        with tracer.span("profile", samples=10):
            with tracer.span("detect"):
                pass
        payload = json.loads(tracer.export_json())
        assert payload["format"] == "repro-obs-trace"
        assert payload["version"] == 3
        assert payload == tracer.to_payload()
        rows = {row["name"]: row for row in payload["spans"]}
        assert rows["detect"]["parent_id"] == rows["profile"]["span_id"]
        assert rows["profile"]["attrs"] == {"samples": 10}
        assert rows["profile"]["duration_s"] == pytest.approx(
            rows["profile"]["end_s"] - rows["profile"]["begin_s"]
        )

    def test_chrome_export_shape(self, obs_on, tracer):
        with tracer.span("sim.run", cycles=100):
            pass
        doc = json.loads(tracer.export_chrome())
        (event,) = doc["traceEvents"]
        assert event["name"] == "sim.run"
        assert event["ph"] == "X"
        assert event["pid"] == os.getpid()
        assert event["args"] == {"cycles": 100}
        record = tracer.records()[0]
        assert event["ts"] == pytest.approx(record.begin_s * 1e6)
        assert event["dur"] == pytest.approx(record.duration_s * 1e6)

    def test_chrome_gives_each_worker_its_own_track(self, obs_on, tracer):
        # A forked worker's main thread has the supervisor's ident.
        worker = Tracer()
        with worker.span("campaign_run"):
            pass
        records, _ = worker.drain()
        with tracer.span("campaign") as campaign:
            tracer.adopt(records, campaign.span_id, "worker0", 0)
            tracer.adopt(records, campaign.span_id, "worker1", 0)
        events = json.loads(tracer.export_chrome())["traceEvents"]
        spans = {}
        for event in events:
            if event["ph"] == "X":
                spans.setdefault(event["name"], []).append(event["tid"])
        names = {
            e["tid"]: e["args"]["name"] for e in events if e["ph"] == "M"
        }
        assert spans["campaign"] == [threading.get_ident()]
        assert sorted(names[tid] for tid in spans["campaign_run"]) == [
            "worker0", "worker1"
        ]
        assert threading.get_ident() not in names

    def test_write_both_formats(self, obs_on, tracer, tmp_path):
        with tracer.span("s"):
            pass
        json_path = tmp_path / "spans.json"
        chrome_path = tmp_path / "chrome.json"
        tracer.write(str(json_path), fmt="json")
        tracer.write(str(chrome_path), fmt="chrome")
        assert json.loads(json_path.read_text())["spans"]
        assert json.loads(chrome_path.read_text())["traceEvents"]
        with pytest.raises(ValueError):
            tracer.write(str(json_path), fmt="xml")

    def test_aggregate_rollup(self, obs_on, tracer):
        for _ in range(3):
            with tracer.span("detect"):
                pass
        agg = tracer.aggregate()
        assert agg["detect"]["count"] == 3
        assert agg["detect"]["mean_s"] == pytest.approx(
            agg["detect"]["total_s"] / 3
        )

    def test_aggregate_sums_integer_attributes(self, obs_on, tracer):
        with tracer.span("profile", stalls=3, samples=100, refresh=True):
            pass
        with tracer.span("profile", stalls=4, rate_hz=5e6, workload="mcf") as s:
            s.set_attr(samples=50)
        row = tracer.aggregate()["profile"]
        assert row["count"] == 2
        # Bools, floats and strings are attributes, not work to sum.
        assert row["sums"] == {"stalls": 7, "samples": 150}

    def test_aggregate_without_spans_or_attrs(self, obs_on, tracer):
        assert tracer.aggregate() == {}
        with tracer.span("s"):
            pass
        assert tracer.aggregate()["s"]["sums"] == {}
