"""Spectrogram computation (Fig. 14) built on the STFT helper.

A spectrogram of the received magnitude reveals the per-region signal
texture: each loop's instruction mix modulates activity with its own
periodicity, producing distinct spectral lines.  Spectral-Profiling-
style attribution (:mod:`repro.attribution`) classifies frames of this
spectrogram against trained per-region spectra.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dsp import stft_magnitude


@dataclass(frozen=True)
class Spectrogram:
    """STFT magnitude with its axes.

    Attributes:
        freqs_hz: frequency axis (n_freqs).
        times_s: frame-center times (n_frames).
        magnitude: (n_freqs, n_frames) non-negative array.
        rate_hz: sampling rate of the analyzed signal.
    """

    freqs_hz: np.ndarray
    times_s: np.ndarray
    magnitude: np.ndarray
    rate_hz: float

    @property
    def n_frames(self) -> int:
        """Number of time frames."""
        return self.magnitude.shape[1]

    def mean_spectrum(self) -> np.ndarray:
        """Average spectrum across all frames."""
        if self.n_frames == 0:
            return np.zeros(self.magnitude.shape[0])
        return self.magnitude.mean(axis=1)

    def frame_time_bounds(self, index: int):
        """(begin_s, end_s) wall-time span of frame ``index``."""
        if self.n_frames == 0:
            raise ValueError("empty spectrogram")
        if self.n_frames == 1:
            half = 0.5 * (self.times_s[0] if self.times_s[0] > 0 else 1.0)
        else:
            half = 0.5 * (self.times_s[1] - self.times_s[0])
        t = self.times_s[index]
        return t - half, t + half


def compute_spectrogram(
    signal: np.ndarray,
    rate_hz: float,
    window_samples: int = 256,
    overlap: float = 0.5,
) -> Spectrogram:
    """Spectrogram of a magnitude signal.

    The DC bin is zeroed: region discrimination must come from the
    activity *texture*, not the mean level (the mean is what EMPROF's
    dip detector already uses, and it is heavily distorted by stalls).
    """
    freqs, times, mag = stft_magnitude(signal, rate_hz, window_samples, overlap)
    mag = mag.copy()
    if mag.shape[0] > 0:
        mag[0, :] = 0.0
    return Spectrogram(
        freqs_hz=np.asarray(freqs),
        times_s=np.asarray(times),
        magnitude=mag,
        rate_hz=float(rate_hz),
    )
