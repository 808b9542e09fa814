"""Differential harness: the quality monitor vs its frozen reference.

``tests/reference_quality.py`` holds :class:`QualityMonitor` as it was
before level tracking took one median pass per chunk and
``is_impaired`` bisected the merged spans.  Every stream here runs
through two :class:`StreamingEmprof` instances, one on the production
monitor and one on the reference, at chunk sizes 97, 1000 and 4096,
and asserts bit identity (``==``, not ``approx``) of:

* the stalls every ``process()`` call returns, with their
  ``low_confidence`` flags;
* the final report's stalls and quality summary;
* the monitor's merged intervals, ``summary()`` and ``gain_steps``;
* ``is_impaired`` at every interval edge and in between.

The streams cover a clean capture and each impairment the monitor
watches for: a gain step up and down, interference bursts, a
saturation plateau, reported sample gaps and non-finite runs.  A
last part is two Hypothesis properties: the level tracker and the clip
detector do not depend on where the chunk boundaries fall, and the
vectorized ``impaired_mask`` the pipeline flags whole stall tables
with answers ``is_impaired`` for every stall.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import streaming as streaming_module
from repro.core.normalize import NormalizerConfig
from repro.core.streaming import StreamingEmprof
from repro.faults.quality import QualityConfig, QualityMonitor, impaired_mask

from tests.reference_quality import ReferenceQualityMonitor, reference_overlaps

NORM = NormalizerConfig(window_samples=301)
RATE, CLOCK = 50e6, 1e9  # period = 20 cycles/sample
N_SAMPLES = 12_000
CHUNK_SIZES = (97, 1000, 4096)


def dip_signal(n=N_SAMPLES, seed=0, dip_every=170, dip_len=13):
    rng = np.random.default_rng(seed)
    x = np.full(n, 0.9) + rng.normal(0, 0.02, n)
    for s in range(200, n - 200, dip_every):
        x[s : s + dip_len] = 0.1 + rng.normal(0, 0.01, dip_len)
    return np.clip(x, 0.0, None)


def _gain_up():
    x = dip_signal(seed=1)
    x[6000:] *= 1.8
    return x, {}


def _gain_down():
    x = dip_signal(seed=2)
    x[4100:] *= 0.5
    return x, {}


def _bursts():
    x = dip_signal(seed=3)
    x[3000:3006] = 8.0
    x[7500:7503] = 9.0
    x[9000] = 10.0  # one spiky sample: noise, not a burst
    return x, {}


def _plateau():
    x = dip_signal(seed=4)
    x[5090:5132] = 1.2  # bit-identical run at the running maximum, up to a dip
    return x, {}


def _gaps():
    return dip_signal(seed=5), {3275: 40, 8035: 500}


def _nan_runs():
    x = dip_signal(seed=6)
    x[4458:4478] = np.nan
    x[10065] = np.inf
    return x, {}


def _mixed():
    x = dip_signal(seed=7)
    x[2000:] *= 1.6
    x[5000:5004] = 12.0
    x[6200:6230] = 1.6
    x[7000:7010] = np.nan
    x[9500:9520] = 1.75
    return x, {1234: 16, 8888: 3}


CLIP = QualityConfig(clip_level=1.7)
ODD_BLOCKS = QualityConfig(clip_level=1.7, level_block_samples=37)

STREAMS = {
    "clean": (lambda: (dip_signal(), {}), None),
    "gain-up": (_gain_up, None),
    "gain-down": (_gain_down, None),
    "burst": (_bursts, None),
    "plateau": (_plateau, None),
    "gap": (_gaps, None),
    "nan-run": (_nan_runs, None),
    "mixed-clip": (_mixed, CLIP),
    "mixed-odd-blocks": (_mixed, ODD_BLOCKS),
}


def _streamer(monitor_class, quality):
    with mock.patch.object(streaming_module, "QualityMonitor", monitor_class):
        streamer = StreamingEmprof(RATE, CLOCK, normalizer=NORM, quality=quality)
    assert type(streamer.quality_monitor) is monitor_class
    return streamer


def _pieces(n, size, gaps):
    """(lo, hi, gap_before) pieces: ``size``-sample chunks, split at gaps."""
    bounds = sorted(set(range(0, n, size)) | set(gaps) | {n})
    return [(lo, hi, gaps.get(lo, 0)) for lo, hi in zip(bounds, bounds[1:])]


def _probes(intervals):
    """Query spans at, just inside and just outside every interval edge."""
    probes = [(0.0, 0.0), (-5.0, -1.0), (1e9, 2e9)]
    for begin, end in intervals:
        for edge in (begin, end):
            for d in (-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5):
                probes.append((edge + d, edge + d))
                probes.append((edge + d, edge + d + 3.0))
        probes.append((begin - 10.0, end + 10.0))
    for (_, end), (begin, _) in zip(intervals, intervals[1:]):
        mid = 0.5 * (end + begin)
        probes.append((mid, mid))
    return probes


def _assert_same_monitor(got, want):
    assert got.intervals() == want.intervals()
    assert got.summary() == want.summary()
    assert got.gain_steps == want.gain_steps
    for begin, end in _probes(want.intervals()):
        assert got.is_impaired(begin, end) == want.is_impaired(begin, end), (
            begin,
            end,
        )


@pytest.mark.parametrize("size", CHUNK_SIZES)
@pytest.mark.parametrize("name", sorted(STREAMS))
def test_streaming_matches_reference_monitor(name, size):
    build, quality = STREAMS[name]
    x, gaps = build()
    prod = _streamer(QualityMonitor, quality)
    ref = _streamer(ReferenceQualityMonitor, quality)
    for lo, hi, gap_before in _pieces(len(x), size, gaps):
        got = prod.process(x[lo:hi], gap_before=gap_before)
        want = ref.process(x[lo:hi], gap_before=gap_before)
        assert got == want, (name, size, lo)
        assert prod.stalls_so_far == ref.stalls_so_far
    got_report, want_report = prod.finish(), ref.finish()
    assert got_report.stalls == want_report.stalls
    assert got_report.quality == want_report.quality
    _assert_same_monitor(prod.quality_monitor, ref.quality_monitor)


def test_impaired_streams_exercise_every_detector():
    """The matrix is only worth something if the detectors fire."""
    fired = {}
    for name, (build, quality) in STREAMS.items():
        x, gaps = build()
        streamer = _streamer(QualityMonitor, quality)
        for lo, hi, gap_before in _pieces(len(x), 1000, gaps):
            streamer.process(x[lo:hi], gap_before=gap_before)
        report = streamer.finish()
        fired[name] = (streamer.quality_monitor.summary(), report)
    assert fired["clean"][0].any_impairment is False
    assert fired["gain-up"][0].gain_steps >= 1
    assert fired["gain-down"][0].gain_steps >= 1
    assert fired["burst"][0].burst_samples == 9
    assert fired["plateau"][0].clipped_samples == 42
    assert fired["gap"][0].gap_count == 2
    assert fired["nan-run"][0].gap_count == 2
    assert fired["mixed-clip"][0].clipped_samples >= 20
    for summary, report in fired.values():
        if summary.any_impairment:
            assert report.low_confidence_count > 0


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_direct_observe_matches_reference(dtype):
    """Ragged chunks, gaps between them and float32 input."""
    rng = np.random.default_rng(11)
    x = _mixed()[0]
    x = x[np.isfinite(x)].astype(dtype)
    cfg = QualityConfig(clip_level=1.7, level_block_samples=64)
    got = QualityMonitor(cfg, gain_guard_samples=50)
    want = ReferenceQualityMonitor(cfg, gain_guard_samples=50)
    lo, position = 0, 0
    while lo < len(x):
        hi = min(len(x), lo + int(rng.integers(1, 300)))
        got.observe(x[lo:hi], position)
        want.observe(x[lo:hi], position)
        position += hi - lo
        if rng.random() < 0.05:
            got.mark_gap(position, 9)
            want.mark_gap(position, 9)
        lo = hi
    _assert_same_monitor(got, want)


# -- chunking invariance -----------------------------------------------------

# The burst and plateau detectors judge each chunk against the state
# from before it, so where the boundaries fall is part of their input.
# The level tracker (gain steps) and the clip detector see samples only
# by stream position, so their output must not depend on it.
LEVEL_AND_CLIP = QualityConfig(
    clip_level=1.7,
    plateau_run_samples=0,
    burst_factor=0.0,
    level_block_samples=32,
)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    steps=st.lists(
        st.tuples(st.integers(0, 2999), st.floats(0.3, 3.0)), max_size=4
    ),
    cuts=st.lists(st.integers(1, 2999), max_size=12),
)
def test_level_tracking_is_chunking_invariant(seed, steps, cuts):
    rng = np.random.default_rng(seed)
    x = 0.9 + 0.05 * rng.standard_normal(3000)
    for at, gain in steps:
        x[at:] *= gain
    whole = QualityMonitor(LEVEL_AND_CLIP, gain_guard_samples=40)
    whole.observe(x, 0)
    chunked = QualityMonitor(LEVEL_AND_CLIP, gain_guard_samples=40)
    bounds = sorted(set(cuts) | {0, len(x)})
    for lo, hi in zip(bounds, bounds[1:]):
        chunked.observe(x[lo:hi], lo)
    assert chunked.intervals() == whole.intervals()
    assert chunked.summary() == whole.summary()
    assert chunked.gain_steps == whole.gain_steps


# -- the vectorized impaired mask ---------------------------------------------

# Endpoints on a coarse grid, so intervals touch, nest and share edges,
# and stall spans start and end exactly on interval edges.
_EDGE = st.integers(0, 40).map(lambda k: k * 0.5)


@settings(max_examples=200, deadline=None)
@given(
    intervals=st.lists(st.tuples(_EDGE, _EDGE).map(sorted), max_size=8),
    spans=st.lists(st.tuples(_EDGE, _EDGE).map(sorted), min_size=1, max_size=12),
)
def test_impaired_mask_equals_is_impaired_per_stall(intervals, spans):
    monitor = QualityMonitor()
    for begin, end in intervals:
        monitor._mark(begin, end)
    begin = np.array([b for b, _ in spans])
    end = np.array([e for _, e in spans])
    merged = impaired_mask(monitor.intervals(), begin, end)
    assert merged.tolist() == [monitor.is_impaired(b, e) for b, e in spans]
    # Unmerged, sorted spans (the batch flag_low_confidence input).
    raw = sorted(intervals)
    assert impaired_mask(raw, begin, end).tolist() == [
        reference_overlaps(raw, b, e) for b, e in spans
    ]
