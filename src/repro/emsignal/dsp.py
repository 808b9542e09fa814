"""DSP helpers shared by the signal chain and attribution code.

``scipy.signal`` costs a fresh process 0.7-1.3 s and about 47 MB, so
each function that needs it imports it in its body: the simulator and
capture-profiling paths, which never filter, never load it, and the EM
path loads it once, on its first receiver call.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Tuple

import numpy as np


def resample_to_rate(
    x: np.ndarray, rate_in: float, rate_out: float, max_denominator: int = 256
) -> np.ndarray:
    """Rational-ratio resampling of ``x`` from ``rate_in`` to ``rate_out``.

    Uses polyphase filtering (``scipy.signal.resample_poly``), which
    applies the appropriate anti-aliasing low-pass - the same job the
    receiver's decimation filter does in a real SDR front end.
    """
    if rate_in <= 0 or rate_out <= 0:
        raise ValueError("rates must be positive")
    x = np.asarray(x, dtype=np.float64)
    if len(x) == 0:
        return x.copy()
    ratio = Fraction(rate_out / rate_in).limit_denominator(max_denominator)
    up, down = ratio.numerator, ratio.denominator
    if up == down:
        return x.copy()
    from scipy import signal as sps

    return sps.resample_poly(x, up, down)


def lowpass(x: np.ndarray, cutoff_hz: float, rate_hz: float, order: int = 5) -> np.ndarray:
    """Zero-phase Butterworth low-pass of ``x``.

    ``cutoff_hz`` at or above Nyquist returns the input unchanged.
    """
    if cutoff_hz <= 0 or rate_hz <= 0:
        raise ValueError("frequencies must be positive")
    x = np.asarray(x, dtype=np.float64)
    nyq = rate_hz / 2.0
    if cutoff_hz >= nyq or len(x) < 3 * (order + 1):
        return x.copy()
    from scipy import signal as sps

    sos = sps.butter(order, cutoff_hz / nyq, output="sos")
    return sps.sosfiltfilt(sos, x)


def stft_magnitude(
    x: np.ndarray,
    rate_hz: float,
    window_samples: int = 256,
    overlap: float = 0.5,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Short-time Fourier magnitude of a real signal.

    Returns:
        (frequencies_hz, frame_times_s, magnitude) where ``magnitude``
        has shape (n_freqs, n_frames).  This is the spectrogram used
        for Fig. 14 and for Spectral-Profiling-style attribution.
    """
    if not 0.0 <= overlap < 1.0:
        raise ValueError("overlap must be in [0, 1)")
    if window_samples < 8:
        raise ValueError("window must be at least 8 samples")
    x = np.asarray(x, dtype=np.float64)
    noverlap = int(window_samples * overlap)
    from scipy import signal as sps

    freqs, times, z = sps.stft(
        x,
        fs=rate_hz,
        nperseg=window_samples,
        noverlap=noverlap,
        detrend="constant",
        padded=False,
        boundary=None,
    )
    return freqs, times, np.abs(z)


def rms(x: np.ndarray) -> float:
    """Root-mean-square of a signal (0.0 for empty input)."""
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        return 0.0
    return float(np.sqrt(np.mean(x * x)))


def db_to_linear_power(db: float) -> float:
    """Convert a decibel power ratio to linear."""
    return 10.0 ** (db / 10.0)
