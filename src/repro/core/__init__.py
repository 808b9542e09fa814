"""EMPROF core: the paper's contribution.

Signal in, profile out:

1. :mod:`repro.core.normalize` - moving min/max magnitude normalization
2. :mod:`repro.core.detect` - dip detection with a duration threshold
3. :mod:`repro.core.refresh` - refresh-coincident stall accounting
4. :mod:`repro.core.profiler` - the :class:`Emprof` facade
5. :mod:`repro.core.stats` - latency histograms and summaries
6. :mod:`repro.core.markers` - microbenchmark window isolation
7. :mod:`repro.core.validate` - accuracy metrics vs. ground truth

Every profiling mode - batch, windowed, chunked and streaming - is a
use of one :class:`~repro.core.pipeline.ProfilePipeline` over the
vectorized chunked core, :mod:`repro.core.engine` (see
``docs/engine.md``).
"""

from .calibrate import (
    CalibrationPoint,
    CalibrationResult,
    calibrate_detector,
    sensitivity,
)
from .detect import DetectorConfig, detect_stalls
from .engine import ChunkDetector, ChunkNormalizer, SampleRing, finite_segments
from .events import DetectedStall, ProfileReport, StallTable
from .markers import MarkerWindow, find_marker_window
from .normalize import NormalizerConfig, moving_average, moving_extrema, normalize
from .pipeline import ProfilePipeline
from .profiler import Emprof, EmprofConfig
from .refresh import RefreshStats, refresh_stats, split_by_refresh
from .streaming import StreamingEmprof, profile_chunks
from .stats import LatencySummary, latency_histogram, stalls_summary, tail_fraction
from .validate import (
    MatchResult,
    ValidationResult,
    count_accuracy,
    match_stalls,
    merge_intervals,
    validate_profile,
)

__all__ = [
    "Emprof",
    "StreamingEmprof",
    "ProfilePipeline",
    "profile_chunks",
    "ChunkDetector",
    "ChunkNormalizer",
    "SampleRing",
    "finite_segments",
    "CalibrationPoint",
    "CalibrationResult",
    "calibrate_detector",
    "sensitivity",
    "EmprofConfig",
    "DetectorConfig",
    "NormalizerConfig",
    "DetectedStall",
    "ProfileReport",
    "StallTable",
    "detect_stalls",
    "normalize",
    "moving_average",
    "moving_extrema",
    "MarkerWindow",
    "find_marker_window",
    "RefreshStats",
    "refresh_stats",
    "split_by_refresh",
    "LatencySummary",
    "latency_histogram",
    "stalls_summary",
    "tail_fraction",
    "MatchResult",
    "ValidationResult",
    "count_accuracy",
    "match_stalls",
    "merge_intervals",
    "validate_profile",
]
