"""Boundary-refinement edge cases for the detector, plus the runtime
contracts (devtools.contracts) guarding the event invariants.

Covers the cases the batch detector's interpolation has to fall back
on: dips touching the first/last sample of the trace, a dip exactly at
``min_duration_samples``, and the recover-threshold hysteresis split.
Every detection result is additionally pushed through the contract
checks, and the streaming detector must agree sample-for-sample.
"""

import dataclasses
import math
import re

import numpy as np
import pytest

from repro.core.detect import DetectorConfig, detect_stalls
from repro.core.events import DetectedStall, ProfileReport
from repro.core.engine import ChunkDetector
from repro.devtools.contracts import (
    ContractViolation,
    check_report,
    check_stall,
    check_stall_sequence,
    check_unit_interval,
    contracts_enabled,
    set_contracts_enabled,
)

PERIOD = 20.0

CFG = DetectorConfig(
    threshold=0.5,
    recover_threshold=0.8,
    min_duration_cycles=10.0,
    min_duration_samples=4,
    merge_gap_samples=0,
    refresh_min_cycles=1000.0,
)


def stream_detect(normalized, chunk=3):
    """Run the streaming detector over ``normalized`` in small chunks."""
    det = ChunkDetector(PERIOD, CFG)
    out = []
    for i in range(0, len(normalized), chunk):
        out.extend(det.push(normalized[i : i + chunk]))
    out.extend(det.finish())
    return out


def assert_batch_stream_agree(normalized):
    batch = detect_stalls(normalized, PERIOD, CFG)
    streamed = stream_detect(normalized)
    assert len(batch) == len(streamed)
    for b, s in zip(batch, streamed):
        assert b.begin_sample == pytest.approx(s.begin_sample)
        assert b.end_sample == pytest.approx(s.end_sample)
        assert b.is_refresh == s.is_refresh
    return batch


# -- boundary refinement edge cases ------------------------------------------


def test_dip_touching_first_sample_falls_back_to_integer_edge():
    x = np.array([0.1] * 6 + [1.0] * 10)
    stalls = assert_batch_stream_agree(x)
    assert len(stalls) == 1
    stall = stalls[0]
    # No sample precedes the trace: the entry edge cannot interpolate.
    assert stall.begin_sample == 0.0
    # The exit edge interpolates between samples 5 (0.1) and 6 (1.0).
    assert 5.0 < stall.end_sample < 6.0
    assert stall.end_sample == pytest.approx(5.0 + (0.5 - 0.1) / (1.0 - 0.1))
    check_stall_sequence(stalls)


def test_dip_touching_last_sample_falls_back_to_integer_edge():
    x = np.array([1.0] * 10 + [0.1] * 6)
    stalls = assert_batch_stream_agree(x)
    assert len(stalls) == 1
    stall = stalls[0]
    assert 9.0 < stall.begin_sample < 10.0
    # The trace ends mid-dip: exit edge is the trace end, uninterpolated.
    assert stall.end_sample == float(len(x))
    check_stall_sequence(stalls)


def test_dip_spanning_entire_trace():
    x = np.full(12, 0.1)
    stalls = assert_batch_stream_agree(x)
    assert len(stalls) == 1
    assert stalls[0].begin_sample == 0.0
    assert stalls[0].end_sample == float(len(x))
    check_stall_sequence(stalls)


def test_dip_exactly_at_min_duration_samples_is_kept():
    x = np.array([1.0] * 5 + [0.1] * CFG.min_duration_samples + [1.0] * 5)
    stalls = assert_batch_stream_agree(x)
    assert len(stalls) == 1
    check_stall(stalls[0])


def test_dip_one_sample_short_of_min_duration_is_dropped():
    x = np.array([1.0] * 5 + [0.1] * (CFG.min_duration_samples - 1) + [1.0] * 5)
    assert assert_batch_stream_agree(x) == []


def test_hysteresis_merges_shallow_recovery():
    # The gap peaks at 0.6: above threshold but below recover_threshold,
    # so the two dips are one stall (a noisy sample cannot split it).
    x = np.array([1.0] * 4 + [0.1] * 5 + [0.6] * 3 + [0.1] * 5 + [1.0] * 4)
    stalls = assert_batch_stream_agree(x)
    assert len(stalls) == 1
    assert stalls[0].duration_samples > 10.0
    check_stall_sequence(stalls)


def test_hysteresis_splits_full_recovery():
    # Same shape, but the gap recovers to 0.9 >= recover_threshold:
    # a genuine busy period separates two stalls.
    x = np.array([1.0] * 4 + [0.1] * 5 + [0.9] * 3 + [0.1] * 5 + [1.0] * 4)
    stalls = assert_batch_stream_agree(x)
    assert len(stalls) == 2
    assert stalls[0].end_sample <= stalls[1].begin_sample
    check_stall_sequence(stalls)


# -- contract checks ---------------------------------------------------------


def make_stall(begin=0.0, end=5.0, period=PERIOD, **kwargs):
    return DetectedStall(
        begin_sample=begin,
        end_sample=end,
        begin_cycle=begin * period,
        end_cycle=end * period,
        min_level=kwargs.pop("min_level", 0.1),
        **kwargs,
    )


def test_check_stall_rejects_inverted_interval():
    with pytest.raises(ContractViolation):
        check_stall(make_stall(begin=6.0, end=5.0))


def test_check_stall_rejects_non_finite_fields():
    with pytest.raises(ContractViolation):
        check_stall(make_stall(begin=float("nan")))


def test_check_stall_sequence_rejects_out_of_order():
    stalls = [make_stall(begin=10.0, end=12.0), make_stall(begin=0.0, end=5.0)]
    with pytest.raises(ContractViolation):
        check_stall_sequence(stalls)


def _flawed(kind):
    """A stall breaking one rule, placed after ``make_stall(begin=20)``."""
    good = make_stall(begin=30.0, end=32.0)
    if kind == "order":
        return make_stall(begin=10.0, end=12.0), "begin_cycle 200.0 precedes 400.0"
    if kind == "samples":
        return make_stall(begin=31.0, end=30.0), "begin_sample 31.0 > end_sample 30.0"
    if kind == "cycles":
        flawed = dataclasses.replace(good, end_cycle=good.begin_cycle - 1.0)
        return flawed, "begin_cycle 600.0 > end_cycle 599.0"
    return dataclasses.replace(good, **{kind: math.inf}), f"{kind} is not finite (inf)"


@pytest.mark.parametrize(
    "kind",
    ["order", "samples", "cycles", "begin_sample", "end_sample", "begin_cycle",
     "end_cycle", "min_level"],
)
def test_check_stall_sequence_names_the_first_offender(kind):
    flawed, message = _flawed(kind)
    stalls = [make_stall(begin=float(b), end=float(b) + 1.0) for b in range(0, 20, 5)]
    stalls += [make_stall(begin=20.0, end=21.0), flawed, flawed]
    with pytest.raises(ContractViolation) as info:
        check_stall_sequence(stalls, where="seq")
    assert str(info.value).startswith(f"seq[5]: {message}")
    # The stall on its own fails its own check the same way (order aside).
    if kind != "order":
        with pytest.raises(ContractViolation, match=re.escape(f"one: {message}")):
            check_stall(flawed, where="one")


def test_check_stall_sequence_honours_min_begin_cycle():
    stalls = [make_stall(begin=1.0, end=2.0)]
    assert check_stall_sequence(stalls, min_begin_cycle=20.0) is stalls
    with pytest.raises(ContractViolation, match=r"^s\[0\]: begin_cycle 20.0 precedes 21.0"):
        check_stall_sequence(stalls, min_begin_cycle=21.0, where="s")
    assert check_stall_sequence([]) == []


def test_check_unit_interval():
    check_unit_interval(np.array([0.0, 0.5, 1.0]))
    check_unit_interval(np.array([]))
    with pytest.raises(ContractViolation):
        check_unit_interval(np.array([0.0, 1.5]))
    with pytest.raises(ContractViolation):
        check_unit_interval(np.array([np.nan]))


def test_report_validate_passes_on_detector_output():
    x = np.array([1.0] * 5 + [0.1] * 6 + [1.0] * 5)
    stalls = detect_stalls(x, PERIOD, CFG)
    report = ProfileReport(
        stalls=stalls,
        total_cycles=len(x) * PERIOD,
        clock_hz=1e9,
        sample_period_cycles=PERIOD,
    )
    assert report.validate() is report


def test_report_validate_rejects_bad_reports():
    good = make_stall()
    with pytest.raises(ContractViolation):
        check_report(
            ProfileReport(
                stalls=[good],
                total_cycles=-1.0,
                clock_hz=1e9,
                sample_period_cycles=PERIOD,
            )
        )
    with pytest.raises(ContractViolation):
        ProfileReport(
            stalls=[make_stall(begin=3.0, end=1.0)],
            total_cycles=100.0,
            clock_hz=1e9,
            sample_period_cycles=PERIOD,
        ).validate()


def test_streaming_detector_contract_spans_push_calls():
    # The monotonicity contract threads a high-water mark across calls;
    # a healthy stream never trips it.
    x = np.array(
        [1.0] * 4 + [0.1] * 5 + [1.0] * 4 + [0.1] * 5 + [1.0] * 4
    )
    stalls = stream_detect(x, chunk=2)
    assert len(stalls) == 2
    check_stall_sequence(stalls)


def test_contracts_can_be_disabled_and_restored():
    assert contracts_enabled()
    previous = set_contracts_enabled(False)
    try:
        assert previous is True
        assert not contracts_enabled()
        # With contracts off, even a malformed report passes validate-free
        # construction paths (validate() itself still checks explicitly
        # via check_* functions only when invoked through decorators).
        det = ChunkDetector(PERIOD, CFG)
        det.push(np.array([1.0, 0.1, 0.1, 0.1, 0.1, 1.0]))
        det.finish()
    finally:
        set_contracts_enabled(True)
    assert contracts_enabled()
