"""Tests for streaming EMPROF: batch equivalence and chunk handling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.detect import DetectorConfig, detect_stalls
from repro.core.normalize import NormalizerConfig, normalize
from repro.core.profiler import Emprof
from repro.core.engine import ChunkDetector, ChunkNormalizer
from repro.core.streaming import StreamingEmprof, profile_chunks
from tests.doubles import InMemorySink

NORM_CFG = NormalizerConfig(window_samples=301)
DET_CFG = DetectorConfig()


def dip_signal(n=5000, seed=0, dip_every=170, dip_len=13):
    rng = np.random.default_rng(seed)
    x = np.full(n, 0.9) + rng.normal(0, 0.02, n)
    for s in range(200, n - 200, dip_every):
        x[s : s + dip_len] = 0.1 + rng.normal(0, 0.01, dip_len)
    return np.clip(x, 0.0, None)


def stream_normalize(x, chunks, cfg=NORM_CFG):
    on = ChunkNormalizer(cfg)
    parts = [on.push(c) for c in np.array_split(x, chunks)]
    parts.append(on.flush())
    return np.concatenate([p for p in parts if len(p)])


class TestOnlineNormalizer:
    @pytest.mark.parametrize("chunks", [1, 7, 53, 499])
    def test_matches_batch_any_chunking(self, chunks):
        x = dip_signal()
        batch = normalize(x, NORM_CFG)
        stream = stream_normalize(x, chunks)
        np.testing.assert_allclose(stream, batch, atol=1e-12)

    def test_latency_is_half_window(self):
        on = ChunkNormalizer(NORM_CFG)
        assert on.latency_samples == 150
        out = on.push(np.full(150, 0.5))
        assert len(out) == 0  # nothing determined yet
        out = on.push(np.full(1, 0.5))
        assert len(out) == 1  # position 0 now has full right context

    def test_flush_emits_everything(self):
        x = dip_signal(n=800)
        on = ChunkNormalizer(NORM_CFG)
        emitted = len(on.push(x)) + len(on.flush())
        assert emitted == len(x)

    def test_rejects_smoothing(self):
        with pytest.raises(ValueError):
            ChunkNormalizer(NormalizerConfig(window_samples=101, smooth_samples=3))

    def test_single_sample_pushes(self):
        x = dip_signal(n=700)
        on = ChunkNormalizer(NORM_CFG)
        parts = [on.push(np.array([v])) for v in x]
        parts.append(on.flush())
        stream = np.concatenate([p for p in parts if len(p)])
        np.testing.assert_allclose(stream, normalize(x, NORM_CFG), atol=1e-12)


class TestStreamingDetector:
    def run_stream(self, normalized, chunks, cfg=DET_CFG):
        det = ChunkDetector(20.0, cfg)
        stalls = []
        for c in np.array_split(normalized, chunks):
            stalls.extend(det.push(c))
        stalls.extend(det.finish())
        return stalls

    @pytest.mark.parametrize("chunks", [1, 5, 61])
    def test_matches_batch_detector(self, chunks):
        norm = normalize(dip_signal(), NORM_CFG)
        batch = detect_stalls(norm, 20.0, DET_CFG)
        stream = self.run_stream(norm, chunks)
        assert len(stream) == len(batch)
        for a, b in zip(batch, stream):
            assert a.begin_sample == pytest.approx(b.begin_sample, abs=1e-9)
            assert a.end_sample == pytest.approx(b.end_sample, abs=1e-9)
            assert a.is_refresh == b.is_refresh
            assert a.min_level == pytest.approx(b.min_level, abs=1e-12)

    def test_dip_split_across_chunks(self):
        x = np.full(400, 0.95)
        x[195:215] = 0.05  # a dip straddling the 200-sample chunk border
        det = ChunkDetector(20.0, DET_CFG)
        stalls = list(det.push(x[:200]))
        stalls += det.push(x[200:])
        stalls += det.finish()
        assert len(stalls) == 1
        assert stalls[0].begin_sample == pytest.approx(194.5, abs=0.6)

    def test_open_dip_at_end_finalized(self):
        x = np.full(300, 0.95)
        x[280:] = 0.05
        det = ChunkDetector(20.0, DET_CFG)
        stalls = list(det.push(x))
        assert stalls == []  # not final until finish()
        stalls = det.finish()
        assert len(stalls) == 1
        assert stalls[0].end_sample == pytest.approx(300, abs=0.01)

    def test_hysteresis_across_chunks(self):
        x = np.full(400, 0.95)
        x[100:120] = 0.05
        x[120] = 0.55  # above threshold, below recover -> must merge
        x[121:140] = 0.05
        det = ChunkDetector(20.0, DET_CFG)
        stalls = list(det.push(x[:121]))  # chunk ends inside the gap
        stalls += det.push(x[121:])
        stalls += det.finish()
        assert len(stalls) == 1

    def test_rejects_bad_period(self):
        with pytest.raises(ValueError):
            ChunkDetector(0.0, DET_CFG)


class TestStreamingEmprof:
    @pytest.mark.parametrize("chunks", [3, 29])
    def test_matches_batch_profiler(self, chunks):
        x = dip_signal()
        batch = Emprof(x, 50e6, 1e9).profile()
        stream = profile_chunks(
            np.array_split(x, chunks), 50e6, 1e9, normalizer=NORM_CFG
        )
        # The batch profiler uses the same normalizer defaults except
        # window; align by re-running batch with the same config.
        from repro.core.profiler import EmprofConfig

        batch = Emprof(
            x, 50e6, 1e9, config=EmprofConfig(normalizer=NORM_CFG)
        ).profile()
        assert stream.miss_count == batch.miss_count
        assert stream.stall_cycles == pytest.approx(batch.stall_cycles)
        assert stream.total_cycles == pytest.approx(batch.total_cycles)

    def test_incremental_results_monotone(self):
        x = dip_signal()
        streamer = StreamingEmprof(50e6, 1e9, normalizer=NORM_CFG)
        seen = 0
        for c in np.array_split(x, 10):
            streamer.process(c)
            assert len(streamer.stalls_so_far) >= seen
            seen = len(streamer.stalls_so_far)
        report = streamer.finish()
        assert report.miss_count >= seen

    def test_process_after_finish_rejected(self):
        streamer = StreamingEmprof(50e6, 1e9)
        streamer.finish()
        with pytest.raises(RuntimeError):
            streamer.process(np.zeros(10))

    def test_repeated_finish_is_idempotent(self):
        """A second finish() returns an equal report and records nothing:
        no flight events, no counts, no bus events."""
        from repro import obs
        from repro.obs.events import bus
        from repro.obs.flight import FlightRecorder

        x = dip_signal()
        dip = 200 + 3 * 170  # a gap lands inside this dip
        recorder = FlightRecorder()
        previous = obs.set_obs_enabled(True)
        obs.trace.reset()
        bus.reset()
        sink = InMemorySink()
        bus.add_sink(sink)
        try:
            streamer = StreamingEmprof(
                50e6, 1e9, normalizer=NORM_CFG, flight=recorder
            )
            streamer.process(x[: dip + 6])
            streamer.process(x[dip + 6 :], gap_before=5)
            first = streamer.finish()
            flight_events = len(recorder.events())
            rollup = obs.trace.aggregate()
            bus_events = len(sink.events)
            second = streamer.finish()
            assert len(recorder.events()) == flight_events
            assert obs.trace.aggregate() == rollup
            assert len(sink.events) == bus_events
        finally:
            bus.remove_sink(sink)
            bus.reset()
            obs.trace.reset()
            obs.set_obs_enabled(previous)
        assert second == first
        assert first.low_confidence_count >= 1
        assert rollup["report"]["count"] == 1
        assert rollup["report"]["sums"]["low_confidence"] == (
            first.low_confidence_count
        )
        assert rollup["report"]["sums"]["dropped"] == 5

    def test_rejects_2d_chunk(self):
        streamer = StreamingEmprof(50e6, 1e9)
        with pytest.raises(ValueError):
            streamer.process(np.zeros((2, 2)))

    def test_on_simulated_capture(self, olimex_run):
        # Stream the real device power trace in small chunks and match
        # the batch profiler on it.
        from repro.core.profiler import EmprofConfig

        x = olimex_run.power_trace
        rate = olimex_run.sample_rate_hz
        clock = olimex_run.config.clock_hz
        batch = Emprof(
            x, rate, clock, config=EmprofConfig(normalizer=NORM_CFG)
        ).profile()
        stream = profile_chunks(
            np.array_split(x, 17), rate, clock, normalizer=NORM_CFG
        )
        assert stream.miss_count == batch.miss_count
        assert stream.stall_cycles == pytest.approx(batch.stall_cycles)


@given(
    data=st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        min_size=30,
        max_size=300,
    ),
    chunks=st.integers(min_value=1, max_value=12),
)
@settings(max_examples=60, deadline=None)
def test_streaming_equals_batch_property(data, chunks):
    """For any signal and any chunking, streaming == batch."""
    x = np.array(data)
    cfg_n = NormalizerConfig(window_samples=21)
    cfg_d = DetectorConfig(
        min_duration_cycles=30.0, min_duration_samples=2, refresh_min_cycles=100.0
    )
    norm = normalize(x, cfg_n)
    batch = detect_stalls(norm, 20.0, cfg_d)
    stream_report = profile_chunks(
        np.array_split(x, chunks), 50e6, 1e9, normalizer=cfg_n, detector=cfg_d
    )
    assert stream_report.miss_count == len(batch)
    for a, b in zip(batch, stream_report.stalls):
        assert abs(a.begin_sample - b.begin_sample) < 1e-9
        assert abs(a.end_sample - b.end_sample) < 1e-9
