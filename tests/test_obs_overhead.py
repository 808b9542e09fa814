"""The observability overhead guard.

With ``EMPROF_OBS`` unset, every instrumented public function must be
one flag check away from the undecorated code.  This test times
`Emprof.profile` (disabled-observability wrapper path) against the raw
engine (`ChunkNormalizer` push plus flush, then `detect_all`, called
directly) on a ~1M-sample signal and holds the wrapper within 10 %.
Both sides are timed in process CPU time, so a busy neighbour process
on a shared machine cannot stretch one side's rounds, and compared by
the median of interleaved rounds, so one unusually fast round cannot
decide the ratio.

Runtime contracts are switched off for both paths so the comparison
isolates the observability layer.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np
import pytest

from repro.core.detect import DetectorConfig
from repro.core.engine import ChunkNormalizer, detect_all
from repro.core.normalize import NormalizerConfig
from repro.core.profiler import Emprof
from repro.devtools.contracts import set_contracts_enabled
from repro.obs import set_obs_enabled
from tests.doubles import InMemorySink

N_SAMPLES = 1_000_000
SAMPLE_RATE_HZ = 40e6
CLOCK_HZ = 1e9
# Each guard compares two allocation-heavy paths, interleaved over
# this many rounds.  Now and then one round runs ~20 % faster than the
# rest, so each side's minimum is set by a single outlying round; the
# median of the rounds is not.
FLIGHT_ROUNDS = 9


@pytest.fixture(scope="module")
def big_signal():
    """~1M samples of busy level with periodic stall dips."""
    rng = np.random.default_rng(42)
    signal = 1.0 + 0.02 * rng.standard_normal(N_SAMPLES)
    for start in range(5_000, N_SAMPLES - 40, 10_000):
        signal[start:start + 12] *= 0.1
    return np.maximum(signal, 0.0)


def _timed_without_gc(func):
    """One call's CPU time with the garbage collector held off.

    Collections are triggered by allocation, so they land on whichever
    side allocates more; collect first, then keep them out of the
    timed call.  CPU time rather than wall time: time spent waiting
    for a CPU that another process holds is not charged to the call.
    """
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.process_time()
        func()
        return time.process_time() - t0
    finally:
        if was_enabled:
            gc.enable()


def _median_times(first, second):
    """Median CPU time of each side over interleaved rounds.

    Interleaving makes drift hit both sides equally.
    """
    first_times, second_times = [], []
    for _ in range(FLIGHT_ROUNDS):
        first_times.append(_timed_without_gc(first))
        second_times.append(_timed_without_gc(second))
    return statistics.median(first_times), statistics.median(second_times)


def test_disabled_obs_overhead_within_ten_percent(big_signal):
    normalizer_cfg = NormalizerConfig()
    detector_cfg = DetectorConfig()

    def baseline():
        engine = ChunkNormalizer(normalizer_cfg)
        norm = np.concatenate((engine.push(big_signal), engine.flush()))
        return detect_all(norm, CLOCK_HZ / SAMPLE_RATE_HZ, detector_cfg)

    def instrumented():
        emprof = Emprof(big_signal, SAMPLE_RATE_HZ, CLOCK_HZ)
        return emprof.profile()

    obs_previous = set_obs_enabled(False)
    contracts_previous = set_contracts_enabled(False)
    try:
        # Sanity: both paths see the same stalls.
        assert len(instrumented().stalls) == len(baseline()) > 50

        baseline_s, instrumented_s = _median_times(baseline, instrumented)
    finally:
        set_contracts_enabled(contracts_previous)
        set_obs_enabled(obs_previous)

    ratio = instrumented_s / baseline_s
    assert ratio < 1.10, (
        f"disabled-observability profile() is {ratio:.3f}x the raw "
        f"pipeline ({instrumented_s * 1e3:.1f}ms vs "
        f"{baseline_s * 1e3:.1f}ms CPU)"
    )


def test_flight_recording_overhead_within_ten_percent(big_signal):
    """Recording the engine's decisions may cost at most 10 % on the
    ~1M-sample signal — the recorder only reads state the engine
    already computed, so the hooks must stay cheap."""
    from repro.obs.flight import FlightRecorder

    def plain():
        return Emprof(big_signal, SAMPLE_RATE_HZ, CLOCK_HZ).profile()

    def recorded():
        return Emprof(big_signal, SAMPLE_RATE_HZ, CLOCK_HZ).profile(
            flight=FlightRecorder()
        )

    obs_previous = set_obs_enabled(False)
    contracts_previous = set_contracts_enabled(False)
    try:
        # Sanity: recording changes nothing observable.
        assert len(recorded().stalls) == len(plain().stalls) > 50

        plain_s, recorded_s = _median_times(plain, recorded)
    finally:
        set_contracts_enabled(contracts_previous)
        set_obs_enabled(obs_previous)

    ratio = recorded_s / plain_s
    assert ratio < 1.10, (
        f"flight-recorded profile() is {ratio:.3f}x the unrecorded one "
        f"({recorded_s * 1e3:.1f}ms vs {plain_s * 1e3:.1f}ms CPU)"
    )


def test_recorder_off_means_no_recorder_objects(big_signal):
    """Without a recorder the engine must not allocate flight state -
    the off path is a single `is not None` test per decision site."""
    emprof = Emprof(big_signal[:100_000], SAMPLE_RATE_HZ, CLOCK_HZ)
    report = emprof.profile()
    assert report.evidence is None


def test_disabled_obs_emits_zero_events(big_signal):
    """EMPROF_OBS off means the event bus sees *nothing* — not merely
    cheap events, zero events."""
    from repro.core.streaming import StreamingEmprof
    from repro.obs.events import bus

    obs_previous = set_obs_enabled(False)
    contracts_previous = set_contracts_enabled(False)
    bus.reset()
    sink = InMemorySink()
    bus.add_sink(sink)
    try:
        emprof = Emprof(big_signal[:100_000], SAMPLE_RATE_HZ, CLOCK_HZ)
        emprof.profile()

        streaming = StreamingEmprof(SAMPLE_RATE_HZ, CLOCK_HZ)
        for begin in range(0, 100_000, 20_000):
            streaming.process(big_signal[begin:begin + 20_000])
        streaming.finish()

        stats = bus.stats()
    finally:
        bus.remove_sink(sink)
        bus.reset()
        set_contracts_enabled(contracts_previous)
        set_obs_enabled(obs_previous)

    assert sink.events == []
    assert stats["total"] == 0
