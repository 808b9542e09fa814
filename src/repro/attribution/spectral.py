"""Spectral-Profiling-style code attribution.

Section VI-D: EMPROF locates stalls in the timeline, but developers
want to know *which code* suffered them.  Spectral Profiling [16]
recognizes loop-granularity code regions by comparing short-time
spectra of the EM signal against spectra recorded during training.
Combining the two on the same signal attributes every detected stall
to a code region (Table V).

The trainer records each region's average STFT spectrum from a
training capture where the region boundaries are known (in a real
deployment: instrumented training runs on a lab device; here: the
simulator's region ground truth).  The classifier then labels each
frame of a test capture with the nearest trained spectrum by cosine
similarity, and smooths the frame labels into contiguous region
segments, like the (manually marked) horizontal bands of Fig. 14.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..emsignal.spectrogram import Spectrogram, compute_spectrogram


@dataclass(frozen=True)
class RegionSegment:
    """One contiguous stretch of the timeline attributed to a region."""

    region: str
    begin_sample: float
    end_sample: float

    @property
    def width(self) -> float:
        """Segment length in signal samples."""
        return self.end_sample - self.begin_sample


@dataclass
class RegionTimeline:
    """Attribution of a whole capture to code regions.

    Attributes:
        segments: contiguous region segments in time order.
        sample_rate_hz: signal sampling rate the sample positions
            refer to.
    """

    segments: List[RegionSegment]
    sample_rate_hz: float

    def region_at(self, sample: float) -> Optional[str]:
        """Region name covering ``sample``, or None outside all."""
        for seg in self.segments:
            if seg.begin_sample <= sample < seg.end_sample:
                return seg.region
        return None

    def samples_per_region(self) -> Dict[str, float]:
        """Total samples attributed to each region."""
        totals: Dict[str, float] = {}
        for seg in self.segments:
            totals[seg.region] = totals.get(seg.region, 0.0) + seg.width
        return totals


def _normalize_spectrum(spectrum: np.ndarray) -> np.ndarray:
    norm = float(np.linalg.norm(spectrum))
    if norm <= 0.0:
        return spectrum
    return spectrum / norm


class SpectralProfiler:
    """Train-then-classify attribution over STFT frames.

    Args:
        window_samples: STFT window; shorter windows give finer
            boundaries but noisier spectra.
        overlap: STFT frame overlap fraction.
        smoothing_frames: median-style majority smoothing width (odd),
            suppressing single-frame misclassifications inside a
            region.
    """

    def __init__(
        self,
        window_samples: int = 256,
        overlap: float = 0.5,
        smoothing_frames: int = 5,
    ):
        if smoothing_frames < 1 or smoothing_frames % 2 == 0:
            raise ValueError("smoothing_frames must be odd and positive")
        self.window_samples = window_samples
        self.overlap = overlap
        self.smoothing_frames = smoothing_frames
        self._templates: Dict[str, np.ndarray] = {}

    # -- training ----------------------------------------------------------

    def train(self, region: str, signal: np.ndarray, rate_hz: float) -> None:
        """Record the average spectrum of one region's training signal."""
        signal = np.asarray(signal, dtype=np.float64)
        if len(signal) < self.window_samples:
            raise ValueError(
                f"training signal for region {region!r} is shorter than one "
                f"STFT window ({self.window_samples} samples)"
            )
        spec = compute_spectrogram(
            signal,
            rate_hz,
            self.window_samples,
            self.overlap,
        )
        if spec.n_frames == 0:
            raise ValueError(
                f"training signal for region {region!r} is shorter than one "
                f"STFT window ({self.window_samples} samples)"
            )
        self._templates[region] = _normalize_spectrum(spec.mean_spectrum())

    def train_many(
        self, regions: Dict[str, np.ndarray], rate_hz: float
    ) -> None:
        """Train several regions at once."""
        for region, signal in regions.items():
            self.train(region, signal, rate_hz)

    @property
    def regions(self) -> Tuple[str, ...]:
        """Names of all trained regions."""
        return tuple(self._templates)

    # -- classification ------------------------------------------------------

    def classify_frames(
        self, signal: np.ndarray, rate_hz: float
    ) -> Tuple[Spectrogram, List[str]]:
        """Label every STFT frame with the best-matching region."""
        if not self._templates:
            raise RuntimeError("no trained regions; call train() first")
        spec = compute_spectrogram(
            np.asarray(signal, dtype=np.float64),
            rate_hz,
            self.window_samples,
            self.overlap,
        )
        names = list(self._templates)
        templates = np.stack([self._templates[n] for n in names])  # (R, F)
        frames = spec.magnitude  # (F, T)
        norms = np.linalg.norm(frames, axis=0)
        norms[norms <= 0.0] = 1.0
        similarity = templates @ (frames / norms)  # (R, T)
        labels = [names[i] for i in np.argmax(similarity, axis=0)]
        return spec, self._smooth(labels)

    def _smooth(self, labels: List[str]) -> List[str]:
        """Majority vote over a sliding window of frames.

        A tie goes to the label seen first in the window, so the vote
        does not depend on string hashing (``PYTHONHASHSEED``).
        """
        k = self.smoothing_frames
        if k == 1 or len(labels) <= 2:
            return labels
        half = k // 2
        smoothed = []
        for i in range(len(labels)):
            lo = max(0, i - half)
            hi = min(len(labels), i + half + 1)
            window = labels[lo:hi]
            smoothed.append(Counter(window).most_common(1)[0][0])
        return smoothed

    def attribute(self, signal: np.ndarray, rate_hz: float) -> RegionTimeline:
        """Segment a capture's timeline into code regions."""
        spec, labels = self.classify_frames(signal, rate_hz)
        segments: List[RegionSegment] = []
        if not labels:
            return RegionTimeline(segments=segments, sample_rate_hz=rate_hz)
        hop = self.window_samples * (1.0 - self.overlap)
        start = 0
        for i in range(1, len(labels) + 1):
            if i == len(labels) or labels[i] != labels[start]:
                begin = start * hop
                end = i * hop + (self.window_samples - hop)
                segments.append(RegionSegment(labels[start], begin, end))
                start = i
        # Make segments contiguous (frame overlap makes them abut).
        for j in range(1, len(segments)):
            boundary = 0.5 * (segments[j - 1].end_sample + segments[j].begin_sample)
            segments[j - 1] = RegionSegment(
                segments[j - 1].region, segments[j - 1].begin_sample, boundary
            )
            segments[j] = RegionSegment(
                segments[j].region, boundary, segments[j].end_sample
            )
        return RegionTimeline(segments=segments, sample_rate_hz=rate_hz)


def timeline_accuracy(
    timeline: RegionTimeline,
    true_segments: Sequence[Tuple[str, float, float]],
) -> float:
    """Fraction of the timeline labelled with the correct region.

    ``true_segments`` is (region, begin_sample, end_sample) ground
    truth; evaluation samples the midpoint of fixed slices.
    """
    if not true_segments:
        raise ValueError("need at least one true segment")
    total = 0.0
    correct = 0.0
    for region, begin, end in true_segments:
        n = max(1, int((end - begin) / 64))
        for k in range(n):
            pos = begin + (k + 0.5) * (end - begin) / n
            total += 1
            if timeline.region_at(pos) == region:
                correct += 1
    return correct / total if total else 0.0
