#!/usr/bin/env python3
"""Calibrate EMPROF for a new target from one engineered capture.

Section IV chooses the dip-duration threshold from device facts; in a
real campaign those facts are discovered by calibration: record the
TM/CM microbenchmark (known miss count) once, then search the detector
parameter grid for the configuration that recovers it best.

This example deliberately starts from a *bad* situation - a noisy
probe position on the Samsung phone - and shows the calibration
recovering a working configuration, plus the sensitivity profile that
says which knobs actually matter on this target.
"""

from repro.core.calibrate import calibrate_detector, sensitivity
from repro.core.markers import find_marker_window
from repro.core.profiler import Emprof
from repro.devices import samsung
from repro.emsignal.channel import ChannelConfig
from repro.experiments.runner import simulate_and_measure
from repro.workloads import Microbenchmark


def main() -> None:
    device = samsung()
    workload = Microbenchmark(total_misses=256, consecutive_misses=8)
    # A mediocre probe position: low-ish SNR, noticeable drift.
    channel = ChannelConfig(probe_gain=0.4, snr_db=18.0, drift_amplitude=0.1,
                            seed=7)
    _, capture = simulate_and_measure(workload, device, channel=channel, seed=7)
    print(f"calibration capture: {len(capture.magnitude)} samples on "
          f"{device.name} (SNR 18 dB, 10% drift)")

    result = calibrate_detector(
        capture,
        expected_misses=workload.total_misses,
        thresholds=(0.30, 0.38, 0.45, 0.52, 0.60),
        min_durations=(40.0, 70.0, 100.0),
        windows=(801, 2001),
    )
    best = result.best
    print(f"\nsearched {len(result.points)} parameter combinations")
    print(f"best: threshold={best.threshold:.2f}, "
          f"min_duration={best.min_duration_cycles:.0f} cycles, "
          f"window={best.window_samples} samples")
    print(f"accuracy: {100 * result.accuracy:.2f}% "
          f"({best.detected} / {result.expected} engineered misses)")

    print("\nsensitivity (mean accuracy per setting):")
    for knob, profile in sensitivity(result.points).items():
        cells = "  ".join(f"{v:g}:{100 * acc:.1f}%" for v, acc in profile.items())
        print(f"  {knob:22s} {cells}")

    # Use the calibrated configuration on a fresh capture.
    _, fresh = simulate_and_measure(workload, device, channel=channel, seed=8)
    profiler = Emprof.from_capture(fresh, config=result.config)
    window = find_marker_window(profiler.signal, marker_min_samples=200)
    report = profiler.profile_window(window.begin_sample, window.end_sample)
    print(f"\nfresh capture with the calibrated config: "
          f"{report.miss_count} / {workload.total_misses} detected")


if __name__ == "__main__":
    main()
