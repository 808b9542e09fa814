"""Bandwidth-limited receiver (spectrum analyzer / SDR model).

The paper's apparatus captures a band of ``bandwidth`` Hz centered on
the processor clock (Keysight N9020A MXA for short runs, ThinkRF
WSA5000 + Signatec PX14400 digitizers for long ones) and studies how
the measurement bandwidth - 20/40/60/80/160 MHz - affects profiling
quality (Fig. 12).

At complex baseband, a capture bandwidth of B yields a complex sample
rate of B, so the magnitude signal EMPROF sees has one sample every
``clock_hz / B`` processor cycles.  The receiver model therefore:

1. anti-alias low-pass filters the incoming envelope at B/2, which is
   what physically smears out stalls shorter than a couple of samples
   (the reason 20 MHz captures miss most stalls on the Alcatel phone),
2. resamples it to B samples/s,
3. returns a :class:`Capture` carrying the magnitude plus the metadata
   the profiler needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from ..obs import trace as _trace
from .dsp import lowpass, resample_to_rate

MHZ = 1e6

# The measurement bandwidths swept in Section VI-B.
PAPER_BANDWIDTHS_HZ = (20 * MHZ, 40 * MHZ, 60 * MHZ, 80 * MHZ, 160 * MHZ)


@dataclass(frozen=True)
class Capture:
    """One recorded magnitude trace.

    Attributes:
        magnitude: received envelope magnitude samples.
        sample_rate_hz: sampling rate (equals the capture bandwidth).
        clock_hz: profiled processor's clock (the carrier frequency).
        bandwidth_hz: configured measurement bandwidth.
        region_names: optional region map forwarded from the workload.
    """

    magnitude: np.ndarray
    sample_rate_hz: float
    clock_hz: float
    bandwidth_hz: float
    region_names: Dict[int, str] = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        """Capture length in seconds."""
        return len(self.magnitude) / self.sample_rate_hz

    @property
    def sample_period_cycles(self) -> float:
        """Processor cycles per magnitude sample."""
        return self.clock_hz / self.sample_rate_hz


class Receiver:
    """Captures an envelope through a finite measurement bandwidth."""

    def __init__(self, bandwidth_hz: float = 40 * MHZ):
        if bandwidth_hz <= 0:
            raise ValueError("bandwidth must be positive")
        self.bandwidth_hz = float(bandwidth_hz)

    def capture(
        self,
        envelope: np.ndarray,
        rate_hz: float,
        clock_hz: float,
        region_names: Optional[Dict[int, str]] = None,
    ) -> Capture:
        """Record ``envelope`` (sampled at ``rate_hz``) through this receiver.

        When the requested bandwidth exceeds the source rate the signal
        is upsampled; that adds no information (the simulator trace is
        the physical truth) but keeps sweep code uniform.
        """
        if rate_hz <= 0 or clock_hz <= 0:
            raise ValueError("rates must be positive")
        with _trace.span(
            "receiver.capture", bandwidth_hz=self.bandwidth_hz
        ) as span:
            x = np.asarray(envelope, dtype=np.float64)
            target_rate = self.bandwidth_hz
            if target_rate < rate_hz:
                # Anti-aliasing at the capture bandwidth's Nyquist edge.
                x = lowpass(x, cutoff_hz=target_rate / 2.0, rate_hz=rate_hz)
            y = resample_to_rate(x, rate_hz, target_rate)
            y = np.maximum(y, 0.0)
            span.set_attr(samples=len(y))
        return Capture(
            magnitude=y,
            sample_rate_hz=target_rate,
            clock_hz=clock_hz,
            bandwidth_hz=self.bandwidth_hz,
            region_names=dict(region_names or {}),
        )
