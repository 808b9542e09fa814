"""Differential harness: the vectorized engine vs the frozen seed.

The engine rewrite (``repro.core.engine``) replaced the numerical
heart of both the batch and streaming pipelines; this suite is the
proof it changed *nothing observable*.  Every test compares the
production pipeline bit-for-bit (``==`` on floats, not ``approx``)
against the frozen seed implementations in
``tests/reference_pipeline.py``:

* batch detection vs the seed run/merge/refine passes,
* chunked detection across adversarial chunkings (size 1, primes,
  dip-straddling boundaries, whole-signal) vs both seeds,
* the full streaming facade - stall lists, quality summaries, and
  the serialized report JSON - across every fault family,
* the chunked normalizer vs the seed monotonic-deque normalizer,
* the vectorized validators vs the seed greedy sweeps,
* Hypothesis property sweeps over random signals and chunkings.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.detect import DetectorConfig, detect_stalls
from repro.core.engine import ChunkDetector, ChunkNormalizer, detect_all
from repro.core.events import DetectedStall
from repro.core.normalize import NormalizerConfig, normalize
from repro.core.streaming import StreamingEmprof
from repro.core.validate import match_stalls, merge_intervals
from repro.faults import applied_clip_level, iter_chunks
from repro.faults.quality import QualityConfig
from repro.io import report_to_dict

from tests.conftest import (
    CHUNK_SIZES,
    CHUNKING_NAMES,
    FAULT_FAMILIES,
    chunk_plan,
    make_dip_signal,
    make_fault_injector,
)
from tests.reference_pipeline import (
    ReferenceOnlineNormalizer,
    ReferenceStreamingDetector,
    ReferenceStreamingEmprof,
    reference_detect_stalls,
    reference_match_stalls,
    reference_merge_intervals,
)

RATE_HZ = 50e6
CLOCK_HZ = 1e9
PERIOD = CLOCK_HZ / RATE_HZ  # 20 cycles per sample

NORM_CFG = NormalizerConfig(window_samples=301)
DET_CFG = DetectorConfig()


def stall_tuple(s):
    """Every observable field of a stall, for exact comparison."""
    return (
        s.begin_sample,
        s.end_sample,
        s.begin_cycle,
        s.end_cycle,
        s.min_level,
        s.is_refresh,
        s.low_confidence,
        s.region,
    )


def assert_stalls_identical(got, want):
    assert [stall_tuple(s) for s in got] == [stall_tuple(s) for s in want]


# ---------------------------------------------------------------------------
# detector: chunked engine vs seed batch and seed streaming
# ---------------------------------------------------------------------------


class TestDetectorEquivalence:
    @pytest.mark.parametrize("chunking", CHUNKING_NAMES)
    def test_chunked_engine_matches_seed_batch(self, chunking):
        norm = normalize(make_dip_signal(n=20000, seed=3), NORM_CFG)
        want = reference_detect_stalls(norm, PERIOD, DET_CFG)
        engine = ChunkDetector(PERIOD, DET_CFG)
        got = []
        for chunk in chunk_plan(norm, chunking):
            got.extend(engine.push(chunk))
        got.extend(engine.finish())
        assert len(want) > 10  # the harness must exercise real dips
        assert_stalls_identical(got, want)

    @pytest.mark.parametrize("chunking", CHUNKING_NAMES)
    def test_chunked_engine_matches_seed_streaming(self, chunking):
        norm = normalize(make_dip_signal(n=20000, seed=5), NORM_CFG)
        reference = ReferenceStreamingDetector(PERIOD, DET_CFG)
        want = []
        for chunk in chunk_plan(norm, chunking):
            want.extend(reference.push(chunk))
        want.extend(reference.finish())
        got = detect_all(norm, PERIOD, DET_CFG)
        assert_stalls_identical(got, want)

    @pytest.mark.parametrize("merge_gap", [0, 1, 2, 5])
    def test_merge_gap_variants(self, merge_gap):
        cfg = DetectorConfig(merge_gap_samples=merge_gap)
        norm = normalize(make_dip_signal(n=12000, seed=9, dip_every=60, dip_len=9), NORM_CFG)
        want = reference_detect_stalls(norm, PERIOD, cfg)
        for chunking in ("prime-7", "size-4096", "whole"):
            engine = ChunkDetector(PERIOD, cfg)
            got = []
            for chunk in chunk_plan(norm, chunking):
                got.extend(engine.push(chunk))
            got.extend(engine.finish())
            assert_stalls_identical(got, want)

    def test_production_batch_matches_seed_batch(self):
        norm = normalize(make_dip_signal(n=20000, seed=3), NORM_CFG)
        assert_stalls_identical(
            detect_stalls(norm, PERIOD, DET_CFG),
            reference_detect_stalls(norm, PERIOD, DET_CFG),
        )

    def test_resync_matches_seed(self):
        norm = normalize(make_dip_signal(n=6000, seed=2), NORM_CFG)
        pieces = np.array_split(norm, [1500, 1510, 4000])
        engine = ChunkDetector(PERIOD, DET_CFG)
        reference = ReferenceStreamingDetector(PERIOD, DET_CFG)
        got, want = [], []
        for i, piece in enumerate(pieces):
            if i:
                got.extend(engine.resync())
                want.extend(reference.resync())
            got.extend(engine.push(piece))
            want.extend(reference.push(piece))
        got.extend(engine.finish())
        want.extend(reference.finish())
        assert_stalls_identical(got, want)


# ---------------------------------------------------------------------------
# normalizer: chunked engine vs seed monotonic-deque implementation
# ---------------------------------------------------------------------------


class TestNormalizerEquivalence:
    @pytest.mark.parametrize("chunking", CHUNKING_NAMES)
    def test_bit_identical_any_chunking(self, chunking):
        x = make_dip_signal(n=9000, seed=4)
        reference = ReferenceOnlineNormalizer(NORM_CFG)
        engine = ChunkNormalizer(NORM_CFG)
        for chunk in chunk_plan(x, chunking):
            np.testing.assert_array_equal(engine.push(chunk), reference.push(chunk))
        np.testing.assert_array_equal(engine.flush(), reference.flush())

    def test_matches_batch_normalize_exactly(self):
        x = make_dip_signal(n=9000, seed=6)
        engine = ChunkNormalizer(NORM_CFG)
        parts = [engine.push(c) for c in np.array_split(x, 13)]
        parts.append(engine.flush())
        np.testing.assert_array_equal(
            np.concatenate(parts), normalize(x, NORM_CFG)
        )


# ---------------------------------------------------------------------------
# full streaming facade: every fault family x chunk sizes
# ---------------------------------------------------------------------------


def quality_config(impaired):
    """Pin the clip level from ground truth, like the chaos suite does."""
    level = applied_clip_level(impaired.log)
    return QualityConfig(clip_level=level) if level is not None else None


def run_pair(impaired, chunk_samples):
    """Feed identical (chunk, gap_before) pairs to engine and seed."""
    size = chunk_samples or max(1, len(impaired.signal))
    quality = quality_config(impaired)
    engine = StreamingEmprof(
        RATE_HZ, CLOCK_HZ, normalizer=NORM_CFG, detector=DET_CFG, quality=quality
    )
    reference = ReferenceStreamingEmprof(
        RATE_HZ, CLOCK_HZ, normalizer=NORM_CFG, detector=DET_CFG, quality=quality
    )
    for chunk, gap in iter_chunks(impaired, size):
        engine.process(chunk, gap_before=gap)
        reference.process(chunk, gap_before=gap)
    return engine.finish(), reference.finish()


class TestStreamingFacadeEquivalence:
    @pytest.mark.parametrize("family", FAULT_FAMILIES)
    @pytest.mark.parametrize("chunk_samples", CHUNK_SIZES)
    def test_report_json_bit_identical(self, family, chunk_samples):
        x = make_dip_signal(n=9000, seed=8)
        impaired = make_fault_injector(family, seed=1).apply(x)
        got, want = run_pair(impaired, chunk_samples)
        assert_stalls_identical(got.stalls, want.stalls)
        assert report_to_dict(got) == report_to_dict(want)

    @pytest.mark.parametrize("chunk_samples", [1, 64, 4096])
    def test_non_finite_runs_bit_identical(self, chunk_samples):
        x = make_dip_signal(n=6000, seed=10)
        x[700:720] = np.nan
        x[2001] = np.inf
        x[4090:4100] = -np.inf
        engine = StreamingEmprof(
            RATE_HZ, CLOCK_HZ, normalizer=NORM_CFG, detector=DET_CFG
        )
        reference = ReferenceStreamingEmprof(
            RATE_HZ, CLOCK_HZ, normalizer=NORM_CFG, detector=DET_CFG
        )
        for chunk in np.array_split(x, np.arange(chunk_samples, len(x), chunk_samples)):
            engine.process(chunk)
            reference.process(chunk)
        got, want = engine.finish(), reference.finish()
        assert_stalls_identical(got.stalls, want.stalls)
        assert report_to_dict(got) == report_to_dict(want)

    def test_quality_summary_identical(self):
        x = make_dip_signal(n=9000, seed=12)
        impaired = make_fault_injector("mixed", seed=2).apply(x)
        got, want = run_pair(impaired, 256)
        assert (got.quality is None) == (want.quality is None)
        if got.quality is not None:
            assert got.quality == want.quality


# ---------------------------------------------------------------------------
# batch facade: profile() vs profile_chunked()
# ---------------------------------------------------------------------------


class TestProfileChunked:
    @pytest.mark.parametrize("chunk_samples", [1, 7, 64, 4096, 10**9])
    def test_bit_identical_to_profile(self, chunk_samples):
        from repro.core.profiler import Emprof, EmprofConfig

        x = make_dip_signal(n=9000, seed=14)
        prof = Emprof(
            x, RATE_HZ, CLOCK_HZ, config=EmprofConfig(normalizer=NORM_CFG)
        )
        whole = prof.profile()
        chunked = prof.profile_chunked(chunk_samples=chunk_samples)
        assert len(whole.stalls) > 5
        assert_stalls_identical(chunked.stalls, whole.stalls)
        assert report_to_dict(chunked) == report_to_dict(whole)

    def test_rejects_bad_chunk_size(self):
        from repro.core.profiler import Emprof

        with pytest.raises(ValueError):
            Emprof(make_dip_signal(n=500), RATE_HZ, CLOCK_HZ).profile_chunked(0)


# ---------------------------------------------------------------------------
# validators: vectorized vs seed greedy sweeps
# ---------------------------------------------------------------------------


class TestValidatorEquivalence:
    def test_merge_intervals_random(self):
        rng = np.random.default_rng(42)
        for trial in range(50):
            k = int(rng.integers(0, 40))
            begins = rng.uniform(0, 1000, k)
            ends = begins + rng.uniform(0, 80, k)
            iv = np.column_stack((begins, ends)) if k else np.empty((0, 2))
            gap = float(rng.uniform(0, 30))
            np.testing.assert_array_equal(
                merge_intervals(iv, gap), reference_merge_intervals(iv, gap)
            )

    def test_match_stalls_random(self):
        rng = np.random.default_rng(43)
        norm = normalize(make_dip_signal(n=9000, seed=16), NORM_CFG)
        stalls = detect_stalls(norm, PERIOD, DET_CFG)
        for trial in range(30):
            k = int(rng.integers(0, 25))
            begins = np.sort(rng.uniform(0, 9000 * PERIOD, k))
            ends = begins + rng.uniform(1, 4000, k)
            truth = np.column_stack((begins, ends)) if k else np.empty((0, 2))
            tol = float(rng.uniform(0, 2 * PERIOD))
            got = match_stalls(stalls, truth, tolerance_cycles=tol)
            want = reference_match_stalls(stalls, truth, tolerance_cycles=tol)
            assert got.true_positives == want.true_positives
            assert got.false_positives == want.false_positives
            assert got.false_negatives == want.false_negatives
            assert got.precision == want.precision
            assert got.recall == want.recall
            np.testing.assert_array_equal(
                got.duration_errors, want.duration_errors
            )

    def test_match_stalls_long_truth_spans_later_short_ones(self):
        # Truth ends out of order: the running maximum of ends (what
        # the matcher searches) differs from the raw ends only here.
        truth = np.array(
            [[0.0, 10000.0], [100.0, 150.0], [300.0, 340.0], [20000.0, 20050.0]]
        )
        det = [
            DetectedStall(b / PERIOD, e / PERIOD, b, e, 0.1)
            for b, e in [
                (120.0, 140.0),
                (200.0, 260.0),
                (320.0, 330.0),
                (12000.0, 12040.0),
                (20010.0, 20030.0),
            ]
        ]
        for tol in (0.0, 15.0, 60.0):
            got = match_stalls(det, truth, tolerance_cycles=tol)
            want = reference_match_stalls(det, truth, tolerance_cycles=tol)
            assert (
                got.true_positives,
                got.false_positives,
                got.false_negatives,
                got.precision,
                got.recall,
            ) == (
                want.true_positives,
                want.false_positives,
                want.false_negatives,
                want.precision,
                want.recall,
            )
            np.testing.assert_array_equal(
                got.duration_errors, want.duration_errors
            )

    def test_match_stalls_empty_sides(self):
        norm = normalize(make_dip_signal(n=5000, seed=17), NORM_CFG)
        stalls = detect_stalls(norm, PERIOD, DET_CFG)
        empty = np.empty((0, 2))
        for det, truth in [([], empty), (stalls, empty), ([], np.array([[0.0, 50.0]]))]:
            got = match_stalls(det, truth, tolerance_cycles=PERIOD)
            want = reference_match_stalls(det, truth, tolerance_cycles=PERIOD)
            assert (
                got.true_positives,
                got.false_positives,
                got.false_negatives,
                got.precision,
                got.recall,
            ) == (
                want.true_positives,
                want.false_positives,
                want.false_negatives,
                want.precision,
                want.recall,
            )


# ---------------------------------------------------------------------------
# Hypothesis property sweeps
# ---------------------------------------------------------------------------


LEVELS = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, width=64)


class TestPropertySweeps:
    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_detector_any_signal_any_chunking(self, data):
        values = data.draw(st.lists(LEVELS, min_size=0, max_size=300))
        merge_gap = data.draw(st.integers(min_value=0, max_value=3))
        arr = np.asarray(values, dtype=np.float64)
        cfg = DetectorConfig(
            threshold=0.5,
            recover_threshold=0.7,
            min_duration_cycles=30.0,
            min_duration_samples=2,
            merge_gap_samples=merge_gap,
            refresh_min_cycles=100.0,
        )
        cuts = sorted(
            data.draw(
                st.lists(
                    st.integers(min_value=0, max_value=max(0, len(arr))),
                    max_size=6,
                )
            )
        )
        reference = ReferenceStreamingDetector(PERIOD, cfg)
        want = reference.push(arr) + reference.finish()
        engine = ChunkDetector(PERIOD, cfg)
        got = []
        for chunk in np.split(arr, cuts):
            got.extend(engine.push(chunk))
        got.extend(engine.finish())
        assert_stalls_identical(got, want)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_normalizer_any_signal_any_chunking(self, data):
        values = data.draw(
            st.lists(
                st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
                min_size=0,
                max_size=200,
            )
        )
        arr = np.asarray(values, dtype=np.float64)
        cuts = sorted(
            data.draw(
                st.lists(
                    st.integers(min_value=0, max_value=max(0, len(arr))),
                    max_size=5,
                )
            )
        )
        cfg = NormalizerConfig(window_samples=21)
        reference = ReferenceOnlineNormalizer(cfg)
        engine = ChunkNormalizer(cfg)
        got, want = [], []
        for chunk in np.split(arr, cuts):
            got.append(engine.push(chunk))
            want.append(reference.push(chunk))
        got.append(engine.flush())
        want.append(reference.flush())
        np.testing.assert_array_equal(
            np.concatenate(got) if got else np.empty(0),
            np.concatenate([np.asarray(w, dtype=np.float64) for w in want])
            if want
            else np.empty(0),
        )
