"""Signal-magnitude normalization via moving minimum/maximum.

Section IV of the paper: probe position changes the received magnitude
by a roughly constant multiplicative factor, and supply-voltage
variation makes signal strength drift over time.  "EMPROF compensates
for these effects by tracking a moving minimum and maximum of the
signal's magnitude and using them to normalize the signal's magnitude
to a range between 0 ... and 1."

The implementation adds one guard the paper implies but does not spell
out: inside a window with *no* stall the min-max range collapses to the
busy-signal ripple, and naive normalization would amplify that ripple
into fake dips.  A window whose range is below ``min_range_ratio`` of
its moving maximum is therefore treated as dip-free (normalized to 1).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.ndimage import maximum_filter1d, minimum_filter1d, uniform_filter1d

from ..devtools.contracts import unit_interval_result
from ..obs import trace as _trace


@dataclass(frozen=True)
class NormalizerConfig:
    """Moving min/max normalization parameters.

    Attributes:
        window_samples: width of the moving min/max window.  Must span
            at least one full stall plus surrounding busy activity;
            tens of microseconds of signal is typical.
        min_range_ratio: minimum (max - min) range, as a fraction of
            the moving maximum, for normalization to engage.
        smooth_samples: optional pre-smoothing (moving average) applied
            to the magnitude before min/max tracking; 1 disables it.
    """

    window_samples: int = 2001
    min_range_ratio: float = 0.35
    smooth_samples: int = 1

    def __post_init__(self) -> None:
        if self.window_samples < 3:
            raise ValueError("window must be at least 3 samples")
        if not 0.0 <= self.min_range_ratio < 1.0:
            raise ValueError("min_range_ratio must be in [0, 1)")
        if self.smooth_samples < 1:
            raise ValueError("smooth_samples must be at least 1")


def moving_average(signal: np.ndarray, window: int) -> np.ndarray:
    """Centered moving average (the solid red curve of Fig. 1)."""
    if window < 1:
        raise ValueError("window must be at least 1")
    x = np.asarray(signal, dtype=np.float64)
    if window == 1:
        return x.copy()
    return uniform_filter1d(x, size=window, mode="nearest")


def moving_extrema(signal: np.ndarray, window: int):
    """(moving_min, moving_max) over a centered window."""
    if window < 1:
        raise ValueError("window must be at least 1")
    x = np.asarray(signal, dtype=np.float64)
    mmin = minimum_filter1d(x, size=window, mode="nearest")
    mmax = maximum_filter1d(x, size=window, mode="nearest")
    return mmin, mmax


def presmooth(signal: np.ndarray, config: NormalizerConfig):
    """Apply ``config``'s pre-smoothing up front.

    Returns the (possibly smoothed) signal and the config with
    smoothing switched off - the form the chunked normalizer accepts.
    """
    x = np.asarray(signal, dtype=np.float64)
    if config.smooth_samples == 1:
        return x, config
    return moving_average(x, config.smooth_samples), replace(config, smooth_samples=1)


@unit_interval_result
@_trace.instrumented(
    "normalize",
    attrs=lambda signal, config: {"samples": int(np.size(signal))},
)
def normalize(signal: np.ndarray, config: NormalizerConfig = None) -> np.ndarray:
    """Normalize magnitude to [0, 1] against moving extrema.

    0 corresponds to the moving minimum (a stalled processor), 1 to the
    moving maximum (full-rate switching).  Windows whose dynamic range
    is too small to contain a stall are returned as 1 everywhere (see
    module docstring).  The whole signal goes through the chunked
    engine's normalizer as one push plus flush, so batch and streaming
    share one normalization expression.
    """
    from .engine import ChunkNormalizer  # the engine imports this module

    x = np.asarray(signal, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("signal must be one-dimensional")
    x, cfg = presmooth(x, config if config is not None else NormalizerConfig())
    engine = ChunkNormalizer(cfg)
    return np.concatenate((engine.push(x), engine.flush()))
