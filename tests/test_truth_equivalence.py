"""Differential harness: columnar ground truth against the frozen record loops.

``tests/reference_truth.py`` holds the ``GroundTruth`` queries and the
truth-reading part of ``validate_profile`` as they were while the truth
was two lists of records.  Every test here builds both from the same
records and asserts that every query returns the same values with the
same types (``int``, ``float``, ``dict`` in the same key order, int64
arrays of the same shape), on random record lists and on simulated
runs.  A second part pins ``memory_probe_signal`` against the per-miss
marking loop it replaced.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import DetectedStall, ProfileReport
from repro.core.validate import validate_profile
from repro.devices import olimex, samsung
from repro.emsignal.memprobe import MemProbeConfig, memory_probe_signal
from repro.sim.config import MemoryConfig
from repro.sim.machine import Machine
from repro.sim.trace import (
    CAUSE_DATA_MEM,
    CAUSE_IFETCH_MEM,
    CAUSE_LLC_HIT,
    CAUSE_MSHR_FULL,
    CAUSE_RUNAHEAD,
    CAUSE_STOREBUF,
    DLOAD,
    DSTORE,
    IFETCH,
    GroundTruth,
    MissRecord,
    StallRecord,
)
from repro.workloads import BootWorkload, spec_workload
from tests.reference_truth import ReferenceGroundTruth, reference_validate_profile

CAUSES = [CAUSE_DATA_MEM, CAUSE_IFETCH_MEM, CAUSE_LLC_HIT, CAUSE_MSHR_FULL,
          CAUSE_RUNAHEAD, CAUSE_STOREBUF]

QUERIES = [
    "miss_count", "stalling_miss_count", "hidden_miss_count", "memory_stalls",
    "memory_stall_count", "memory_stall_cycles", "refresh_stall_count",
    "stall_fraction", "stall_intervals", "stall_durations", "misses_by_region",
    "stall_cycles_by_region",
]


def assert_same(got, want):
    """Equal values of the same types, recursively; arrays bit for bit."""
    assert type(got) is type(want), (got, want)
    if isinstance(got, np.ndarray):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    elif isinstance(got, (list, tuple)):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert_same(a, b)
    elif isinstance(got, dict):
        assert list(got) == list(want)
        for key in got:
            assert_same(key, next(k for k in want if k == key))
            assert_same(got[key], want[key])
    elif dataclasses.is_dataclass(got):
        for f in dataclasses.fields(got):
            assert_same(getattr(got, f.name), getattr(want, f.name))
    else:
        assert got == want or (got != got and want != want), (got, want)


def assert_queries_match(records: dict, bins=(1, 97, 1000)):
    truth = GroundTruth(**records)
    reference = ReferenceGroundTruth(**records)
    for name in QUERIES:
        assert_same(getattr(truth, name)(), getattr(reference, name)())
    for width in bins:
        assert_same(truth.miss_rate_timeline(width), reference.miss_rate_timeline(width))
    return truth, reference


@st.composite
def records(draw):
    """Dense-id record lists with consistent cross-references."""
    n_stalls = draw(st.integers(0, 12))
    n_misses = draw(st.integers(0, 25))
    regions = st.integers(0, 4)
    misses = [
        MissRecord(
            i,
            draw(st.sampled_from([IFETCH, DLOAD, DSTORE])),
            draw(st.integers(0, 1 << 40)),
            detect := draw(st.integers(0, 5_000)),
            detect + draw(st.integers(0, 600)),
            draw(st.none() | st.integers(0, n_stalls - 1)) if n_stalls else None,
            draw(st.booleans()),
            draw(regions),
        )
        for i in range(n_misses)
    ]
    ids = st.lists(st.integers(0, n_misses - 1), max_size=4) if n_misses else st.just([])
    stalls = [
        StallRecord(
            j,
            begin := draw(st.integers(0, 5_000)),
            begin + draw(st.integers(0, 700)),
            draw(st.sampled_from(CAUSES)),
            draw(ids),
            draw(st.booleans()),
            draw(regions),
        )
        for j in range(n_stalls)
    ]
    return {
        "misses": misses,
        "stalls": stalls,
        "total_cycles": draw(st.integers(0, 6_000)),
        "total_instructions": draw(st.integers(0, 20_000)),
    }


def _report(draw_stalls, period: float) -> ProfileReport:
    return ProfileReport(
        stalls=[
            DetectedStall(b / period, (b + d) / period, float(b), float(b + d), 0.1)
            for b, d in draw_stalls
        ],
        total_cycles=6_000.0,
        clock_hz=1e9,
        sample_period_cycles=period,
    )


class TestRandomRecords:
    @settings(max_examples=300, deadline=None)
    @given(records=records(), bins=st.lists(st.integers(1, 7_000), min_size=1, max_size=3))
    def test_every_query_matches(self, records, bins):
        truth, _ = assert_queries_match(records, bins)
        assert_same(truth.misses, records["misses"])
        assert_same(truth.stalls, records["stalls"])

    @settings(max_examples=200, deadline=None)
    @given(
        records=records(),
        detected=st.lists(st.tuples(st.integers(0, 5_000), st.integers(1, 700)), max_size=8),
        window=st.none() | st.tuples(st.integers(0, 3_000), st.integers(0, 6_000)),
        period=st.sampled_from([1.0, 25.2, 400.0]),
    )
    def test_validate_profile_matches(self, records, detected, window, period):
        report = _report(sorted(detected), period)
        assert_same(
            validate_profile(report, GroundTruth(**records), window_cycles=window),
            reference_validate_profile(
                report, ReferenceGroundTruth(**records), window_cycles=window
            ),
        )

    def test_empty_truth(self):
        assert_queries_match({"misses": [], "stalls": []})

    def test_stalls_with_no_misses(self):
        stalls = [StallRecord(j, 10 * j, 10 * j + 5, c, [], j % 2 == 0, j)
                  for j, c in enumerate(CAUSES)]
        truth, _ = assert_queries_match({"stalls": stalls, "total_cycles": 100})
        assert truth.stall_misses.size == 0
        assert truth.stall_offsets.tolist() == [0] * (len(CAUSES) + 1)


def _records_of(truth: GroundTruth) -> dict:
    return {
        "misses": truth.misses,
        "stalls": truth.stalls,
        "total_cycles": truth.total_cycles,
        "total_instructions": truth.total_instructions,
        "region_names": truth.region_names,
        "region_cycles": truth.region_cycles,
    }


@pytest.fixture(scope="module", params=["olimex-mcf", "samsung-boot"])
def simulated(request):
    if request.param == "olimex-mcf":
        return Machine(olimex(), seed=0).run(spec_workload("mcf", scale=0.25))
    return Machine(samsung(), seed=0).run(BootWorkload(seed=0, scale=0.1))


class TestSimulatedRuns:
    def test_every_query_matches(self, simulated):
        truth = simulated.ground_truth
        assert truth.miss_count() > 100 and truth.memory_stall_count() > 0
        assert_queries_match(_records_of(truth), bins=(1, 5_000, 10**6))

    def test_validate_profile_matches(self, simulated):
        truth = simulated.ground_truth
        reference = ReferenceGroundTruth(**_records_of(truth))
        begin, end = truth.stall_intervals()[::3].T.tolist()
        report = _report([(b + 7, e - b) for b, e in zip(begin, end)], 25.2)
        for window in (None, (0, truth.total_cycles / 2), (1_000, truth.total_cycles)):
            assert_same(
                validate_profile(report, truth, window_cycles=window),
                reference_validate_profile(report, reference, window_cycles=window),
            )


def reference_activity(truth, memory_config, bin_cycles, service_cycles):
    """The per-miss ``mark`` loop of ``memory_probe_signal``, frozen."""
    total_cycles = max(truth.total_cycles, 1)
    nbins = -(-total_cycles // bin_cycles)
    activity = np.zeros(nbins, dtype=np.float64)
    for miss in truth.misses:
        lo = max(0, int((miss.ready_cycle - service_cycles) // bin_cycles))
        hi = min(nbins, int(np.ceil(miss.ready_cycle / bin_cycles)))
        if hi > lo:
            activity[lo:hi] = 1.0
    return activity


class TestMemoryProbe:
    @pytest.mark.parametrize("bin_cycles, service", [(20, 60), (7, 3), (500, 60)])
    def test_miss_bursts_match_the_marking_loop(self, simulated, bin_cycles, service):
        truth = simulated.ground_truth
        quiet = MemoryConfig(refresh_enabled=False)
        cfg = MemProbeConfig(idle_level=0.0, burst_level=1.0, service_cycles=service,
                             dma_rate_per_s=0.0)
        got = memory_probe_signal(truth, quiet, 1e9, bin_cycles=bin_cycles, config=cfg)
        want = reference_activity(truth, quiet, bin_cycles, service)
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(records=records(), bin_cycles=st.integers(1, 300), service=st.integers(1, 900))
    def test_random_records(self, records, bin_cycles, service):
        truth = GroundTruth(**records)
        quiet = MemoryConfig(refresh_enabled=False)
        cfg = MemProbeConfig(idle_level=0.0, burst_level=1.0, service_cycles=service,
                             dma_rate_per_s=0.0)
        got = memory_probe_signal(truth, quiet, 1e9, bin_cycles=bin_cycles, config=cfg)
        assert got.tobytes() == reference_activity(truth, quiet, bin_cycles, service).tobytes()
