"""Probe and propagation channel: gain, drift, noise.

Section IV enumerates exactly the distortions EMPROF's normalization
exists to survive:

* "even small changes in probe/antenna position can dramatically change
  the overall magnitude of the received signal ... largely ... a
  constant multiplicative factor" -> ``probe_gain``;
* "the voltage provided by the profiled system's power supply vary over
  time.  The impact ... is largely that signal strength changes in
  magnitude over time" -> a slow multiplicative ``drift``;
* plus measurement noise from the probe/LNA/digitizer chain -> AWGN at
  a configurable SNR.

The channel is where experiments turn the knobs: moving the probe away
is a gain/SNR change, a sagging supply is a drift change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..obs import trace as _trace
from .dsp import rms


@dataclass(frozen=True)
class ChannelConfig:
    """Probe + environment distortion parameters.

    Attributes:
        probe_gain: constant multiplicative factor from probe position.
        snr_db: signal-to-noise ratio of the received magnitude; noise
            power is set relative to the *dynamic* (AC) signal power so
            the difficulty of detection does not depend on the
            arbitrary absolute gain.
        drift_amplitude: peak relative magnitude change from supply
            variation (e.g. 0.1 = +-10%).
        drift_period_s: period of the dominant supply-drift component.
        interference_level: amplitude of additive emissions from
            *other* switching circuitry near the probe - sibling cores
            on a multi-core SoC, the GPU, radios.  Expressed relative
            to the profiled core's busy-level emission; 0 disables.
        interference_duty: fraction of time the interfering circuitry
            is active (bursts of activity, not a constant tone).
        interference_burst_s: mean duration of one interference burst.
        seed: noise generator seed.
    """

    probe_gain: float = 1.0
    snr_db: float = 25.0
    drift_amplitude: float = 0.05
    drift_period_s: float = 1e-3
    interference_level: float = 0.0
    interference_duty: float = 0.2
    interference_burst_s: float = 20e-6
    seed: int = 0

    def __post_init__(self) -> None:
        if self.probe_gain <= 0:
            raise ValueError("probe gain must be positive")
        if not 0.0 <= self.drift_amplitude < 1.0:
            raise ValueError("drift amplitude must be in [0, 1)")
        if self.drift_period_s <= 0:
            raise ValueError("drift period must be positive")
        if self.interference_level < 0:
            raise ValueError("interference level cannot be negative")
        if not 0.0 <= self.interference_duty <= 1.0:
            raise ValueError("interference duty must be in [0, 1]")
        if self.interference_burst_s <= 0:
            raise ValueError("interference burst length must be positive")


class Channel:
    """Applies probe gain, supply drift, interference and noise."""

    def __init__(self, config: Optional[ChannelConfig] = None):
        self.config = config if config is not None else ChannelConfig()

    def _interference(
        self, n: int, rate_hz: float, rng: np.random.Generator
    ) -> np.ndarray:
        """Bursty additive activity from neighbouring circuitry."""
        cfg = self.config
        burst_samples = max(1, int(cfg.interference_burst_s * rate_hz))
        out = np.zeros(n)
        if cfg.interference_duty <= 0.0:
            return out
        # Mean gap sized so active samples ~= duty fraction.
        mean_gap = burst_samples * (1.0 - cfg.interference_duty) / max(
            cfg.interference_duty, 1e-9
        )
        # Draw all burst placements first (the number of draws is
        # data-dependent, so the loop is over scalars only), then paint
        # the bursts in one pass.  The draw order matches the historical
        # per-burst loop exactly, keeping seeded captures bit-stable.
        bursts = []
        pos = int(rng.exponential(mean_gap)) if mean_gap > 0 else 0
        while pos < n:
            length = max(1, int(rng.exponential(burst_samples)))
            end = min(n, pos + length)
            bursts.append((pos, end, cfg.interference_level * rng.uniform(0.6, 1.0)))
            pos = end + (int(rng.exponential(mean_gap)) if mean_gap > 0 else 1)
        for begin, end, level in bursts:
            out[begin:end] = level
        return out

    @_trace.instrumented(
        "channel.apply",
        attrs=lambda self, envelope, rate_hz: {
            "samples": len(np.atleast_1d(envelope))
        },
    )
    def apply(self, envelope: np.ndarray, rate_hz: float) -> np.ndarray:
        """Distort an emitted envelope sampled at ``rate_hz``.

        The output is clipped at zero: a magnitude cannot be negative,
        and deep noise excursions rectify in a real envelope detector.
        """
        if rate_hz <= 0:
            raise ValueError("sample rate must be positive")
        cfg = self.config
        x = np.asarray(envelope, dtype=np.float64)
        if len(x) == 0:
            return x.copy()
        rng = np.random.default_rng(cfg.seed)

        t = np.arange(len(x)) / rate_hz
        phase = rng.uniform(0, 2 * np.pi)
        drift = 1.0 + cfg.drift_amplitude * np.sin(
            2 * np.pi * t / cfg.drift_period_s + phase
        )
        y = cfg.probe_gain * drift * x

        # Additive emissions from neighbouring circuitry (sibling
        # cores, GPU): bursts of extra magnitude that are uncorrelated
        # with the profiled core's stalls - these partially "fill in"
        # the dips and are the main robustness hazard on multi-core
        # parts.
        if cfg.interference_level > 0.0:
            y = y + cfg.probe_gain * self._interference(len(x), rate_hz, rng)

        # Noise scaled to the AC content of the distorted signal: the
        # busy/stall contrast is what carries information, so SNR is
        # defined against it.
        ac = y - y.mean()
        ac_rms = rms(ac)
        if ac_rms <= 0.0:
            ac_rms = rms(y)
        noise_rms = ac_rms / np.sqrt(10.0 ** (cfg.snr_db / 10.0))
        y = y + rng.normal(0.0, noise_rms, size=len(y))
        return np.maximum(y, 0.0)
