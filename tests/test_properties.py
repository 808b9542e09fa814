"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.detect import DetectorConfig, detect_stalls
from repro.core.normalize import NormalizerConfig, normalize
from repro.core.validate import count_accuracy, merge_intervals
from repro.emsignal.dsp import resample_to_rate
from repro.sim.cache import Cache
from repro.sim.config import CacheConfig, MemoryConfig, PowerConfig
from repro.sim.dram import MainMemory
from repro.sim.power import PowerAccumulator

# -- cache invariants ----------------------------------------------------------

addresses = st.lists(st.integers(min_value=0, max_value=1 << 22), min_size=1, max_size=300)


@given(addresses)
@settings(max_examples=50, deadline=None)
def test_cache_occupancy_never_exceeds_capacity(addrs):
    cache = Cache(CacheConfig(2048, line_bytes=64, associativity=2),
                  np.random.default_rng(0))
    for a in addrs:
        cache.access(a)
    assert cache.occupancy <= 2048 // 64


@given(addresses)
@settings(max_examples=50, deadline=None)
def test_cache_access_after_access_hits(addrs):
    cache = Cache(CacheConfig(64 * 1024, associativity=8), np.random.default_rng(0))
    for a in addrs:
        cache.access(a)
        assert cache.probe(a)  # just-inserted line is resident


@given(addresses)
@settings(max_examples=50, deadline=None)
def test_cache_hit_miss_partition(addrs):
    cache = Cache(CacheConfig(2048, associativity=2), np.random.default_rng(0))
    for a in addrs:
        cache.access(a)
    assert cache.hits + cache.misses == len(addrs)


@given(addresses)
@settings(max_examples=30, deadline=None)
def test_compulsory_misses_bound(addrs):
    cache = Cache(CacheConfig(2048, associativity=2), np.random.default_rng(0))
    for a in addrs:
        cache.access(a)
    # The first access to every distinct line is necessarily a miss.
    distinct = len({a >> 6 for a in addrs})
    assert cache.misses >= distinct


# -- DRAM invariants -------------------------------------------------------------


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=10_000),
            st.integers(min_value=0, max_value=1 << 20),
        ),
        min_size=1,
        max_size=100,
    )
)
@settings(max_examples=50, deadline=None)
def test_dram_ready_always_after_request(reqs):
    mem = MainMemory(MemoryConfig(access_latency=100))
    cycle = 0
    for dt, addr in reqs:
        cycle += dt
        resp = mem.access(cycle, addr)
        assert resp.ready_cycle >= cycle + 100
        assert resp.latency == resp.ready_cycle - cycle


@given(st.integers(min_value=1, max_value=10**7))
@settings(max_examples=100, deadline=None)
def test_dram_refresh_windows_ordered_and_bounded(k):
    mem = MainMemory(MemoryConfig(refresh_interval=10_000, refresh_duration=400))
    start, end = mem.refresh_window(k)
    assert k * 10_000 <= start < (k + 1) * 10_000
    assert end == start + 400


@st.composite
def refresh_probes(draw):
    """A memory config (refresh on or off) and a cycle near its windows."""
    interval = draw(st.integers(min_value=2, max_value=40_000))
    # Durations close to the interval let a window run into the next
    # interval, where the next window may already have started.
    duration = draw(
        st.one_of(
            st.integers(min_value=1, max_value=interval - 1),
            st.integers(min_value=max(1, interval - 3), max_value=interval - 1),
        )
    )
    config = MemoryConfig(
        refresh_interval=interval,
        refresh_duration=duration,
        refresh_enabled=draw(st.booleans()),
    )
    k = draw(st.integers(min_value=0, max_value=300))
    return config, k * interval + draw(st.integers(min_value=0, max_value=interval - 1))


@given(refresh_probes())
@settings(max_examples=300, deadline=None)
def test_dram_refresh_wait_matches_window_scan(probe):
    config, cycle = probe
    mem = MainMemory(config)
    expected = 0
    if config.refresh_enabled:
        # Wait out every window holding the cycle; overlapping windows
        # release the request at the latest end.
        for k in range(1, cycle // config.refresh_interval + 2):
            start, end = mem.refresh_window(k)
            if start <= cycle < end:
                expected = max(expected, end - cycle)
    assert mem._refresh_wait(cycle) == expected


# -- power accumulator conservation ------------------------------------------------


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5_000),
            st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
        ),
        max_size=200,
    )
)
@settings(max_examples=50, deadline=None)
def test_power_activity_conserved(events):
    acc = PowerAccumulator(PowerConfig(bin_cycles=16, idle_level=0.0))
    total = 0.0
    for cycle, weight in events:
        acc.add_issue(cycle, weight)
        total += weight
    trace = acc.finalize(5_001)
    assert trace.sum() * 16 == pytest.approx(total, rel=1e-9, abs=1e-9)


# -- normalization invariants --------------------------------------------------------


signals = st.lists(
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    min_size=5,
    max_size=400,
)


@given(signals)
@settings(max_examples=50, deadline=None)
def test_normalize_output_in_unit_interval(values):
    y = normalize(np.array(values), NormalizerConfig(window_samples=21))
    assert np.all(y >= 0.0)
    assert np.all(y <= 1.0)


# No subnormals: 5e-324 * 0.5 underflows to 0, which turns a trace with
# one nonzero sample into a truly flat one.  A normal float times a gain
# of at least 0.1 stays nonzero (the smallest, 2.2e-308, still matches).
@given(
    st.lists(
        st.floats(
            min_value=0.0, max_value=10.0, allow_nan=False,
            allow_subnormal=False,
        ),
        min_size=5,
        max_size=400,
    ),
    st.floats(min_value=0.1, max_value=100.0, allow_nan=False),
)
@settings(max_examples=50, deadline=None)
def test_normalize_gain_invariant(values, gain):
    cfg = NormalizerConfig(window_samples=21)
    a = normalize(np.array(values), cfg)
    b = normalize(np.array(values) * gain, cfg)
    np.testing.assert_allclose(a, b, atol=1e-9)


# -- detection invariants ---------------------------------------------------------------


@given(signals)
@settings(max_examples=50, deadline=None)
def test_detected_stalls_disjoint_ordered_in_bounds(values):
    x = np.clip(np.array(values) / 10.0, 0.0, 1.0)
    cfg = DetectorConfig(min_duration_cycles=30.0, min_duration_samples=2,
                         refresh_min_cycles=100.0)
    stalls = detect_stalls(x, 20.0, cfg)
    prev_end = -1.0
    for s in stalls:
        assert 0.0 <= s.begin_sample < s.end_sample <= len(x)
        assert s.begin_sample >= prev_end
        prev_end = s.end_sample
        assert s.duration_cycles >= 30.0


# -- interval merging invariants ------------------------------------------------------------


intervals = st.lists(
    st.tuples(
        st.floats(min_value=0, max_value=1e6, allow_nan=False),
        st.floats(min_value=1, max_value=1e4, allow_nan=False),
    ),
    max_size=100,
)


@given(intervals, st.floats(min_value=0, max_value=1e4, allow_nan=False))
@settings(max_examples=50, deadline=None)
def test_merge_intervals_invariants(pairs, gap):
    iv = np.array([[b, b + d] for b, d in pairs]).reshape(-1, 2)
    out = merge_intervals(iv, max_gap=gap)
    # Sorted, disjoint beyond the gap, and coverage is preserved.
    assert np.all(np.diff(out[:, 0]) >= 0) if len(out) > 1 else True
    for j in range(1, len(out)):
        assert out[j, 0] - out[j - 1, 1] > gap
    if len(iv):
        assert out[:, 0].min() == iv[:, 0].min()
        assert out[:, 1].max() == iv[:, 1].max()
        assert len(out) <= len(iv)


@given(
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=100, deadline=None)
def test_count_accuracy_bounds(reported, expected):
    acc = count_accuracy(reported, expected)
    assert 0.0 <= acc <= 1.0
    if reported == expected:
        assert acc == 1.0


# -- resampling invariants -----------------------------------------------------------------


@given(
    st.integers(min_value=32, max_value=500),
    st.sampled_from([10e6, 20e6, 25e6, 40e6, 50e6]),
    st.sampled_from([10e6, 20e6, 25e6, 40e6, 50e6]),
)
@settings(max_examples=40, deadline=None)
def test_resample_length_matches_ratio(n, rate_in, rate_out):
    x = np.linspace(0.0, 1.0, n)
    y = resample_to_rate(x, rate_in, rate_out)
    assert len(y) == pytest.approx(n * rate_out / rate_in, abs=2)
