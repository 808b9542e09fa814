"""ZOP-style time-domain signal matching (fine-grain attribution).

The paper contrasts two signal-to-code attribution families (Sections
II-A and VI-D): spectral matching (coarse, cheap - what Table V uses)
and ZOP [27], which matches the *time-domain* signal against
per-path template waveforms to reconstruct execution at fine
granularity, "albeit that requires much more computation so it may not
be feasible for long stretches of execution".

:class:`ZopMatcher` implements that idea at block granularity: each
code block contributes a template waveform (recorded in training);
matching walks the signal left to right, testing every template at the
current position (the "multiple hypotheses about which path ... was
taken") and committing to the best-scoring one.  The comparison count
is tracked so benches can demonstrate the cost argument against the
spectral approach.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class ZopSegment:
    """One matched stretch of the signal.

    Attributes:
        block: template (code block) name.
        begin_sample / end_sample: matched span.
        distance: normalized mean-squared distance of the match (0 is
            a perfect template hit).
    """

    block: str
    begin_sample: int
    end_sample: int
    distance: float


@dataclass
class ZopResult:
    """Output of one matching pass.

    Attributes:
        segments: the reconstructed block sequence.
        comparisons: template-sample comparisons performed - the cost
            metric behind the paper's "very high computational cost"
            remark.
        coverage: fraction of the signal attributed to some block.
    """

    segments: List[ZopSegment]
    comparisons: int
    coverage: float

    def sequence(self) -> List[str]:
        """Just the block names, in execution order."""
        return [s.block for s in self.segments]


def _normalize_template(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    std = x.std()
    if std <= 0:
        return x - x.mean()
    return (x - x.mean()) / std


class ZopMatcher:
    """Greedy time-domain path reconstruction from block templates.

    Args:
        max_distance: matches scoring above this normalized distance
            are rejected; the position is skipped as unattributable
            (e.g. a stall not present in any template).
    """

    def __init__(self, max_distance: float = 0.6):
        if max_distance <= 0:
            raise ValueError("max distance must be positive")
        self.max_distance = max_distance
        self._templates: Dict[str, np.ndarray] = {}

    def add_template(self, block: str, waveform: np.ndarray) -> None:
        """Register a block's template waveform (>= 8 samples)."""
        w = np.asarray(waveform, dtype=np.float64)
        if len(w) < 8:
            raise ValueError("templates need at least 8 samples")
        self._templates[block] = _normalize_template(w)

    @property
    def blocks(self) -> Tuple[str, ...]:
        """Registered template names."""
        return tuple(self._templates)

    def _score(self, signal: np.ndarray, pos: int, template: np.ndarray) -> Optional[float]:
        end = pos + len(template)
        if end > len(signal):
            return None
        window = _normalize_template(signal[pos:end])
        return float(np.mean((window - template) ** 2))

    def match(self, signal: np.ndarray, max_segments: int = 100_000) -> ZopResult:
        """Reconstruct the executed block sequence over ``signal``."""
        if not self._templates:
            raise RuntimeError("no templates registered; call add_template()")
        x = np.asarray(signal, dtype=np.float64)
        segments: List[ZopSegment] = []
        comparisons = 0
        covered = 0
        pos = 0
        min_len = min(len(t) for t in self._templates.values())
        while pos + min_len <= len(x) and len(segments) < max_segments:
            best_name = None
            best_dist = np.inf
            best_len = 0
            for name, template in self._templates.items():
                dist = self._score(x, pos, template)
                if dist is None:
                    continue
                comparisons += len(template)
                if dist < best_dist:
                    best_name, best_dist, best_len = name, dist, len(template)
            if best_name is not None and best_dist <= self.max_distance:
                segments.append(
                    ZopSegment(best_name, pos, pos + best_len, best_dist)
                )
                covered += best_len
                pos += best_len
            else:
                pos += 1  # unattributable sample; re-hypothesize next
        coverage = covered / len(x) if len(x) else 0.0
        return ZopResult(segments=segments, comparisons=comparisons, coverage=coverage)


def sequence_accuracy(result: ZopResult, expected: Sequence[str]) -> float:
    """Fraction of the expected block sequence recovered in order.

    Longest-common-subsequence ratio between the matched and expected
    sequences; 1.0 means the whole path was reconstructed.
    """
    got = result.sequence()
    if not expected:
        return 1.0 if not got else 0.0
    # Bit-parallel LCS length (Hyyro 2004): bit i of ``row`` is cleared
    # once got[i] is matched; each expected block updates the whole row
    # with a few big-integer operations instead of a row of DP cells.
    masks: Dict[str, int] = {}
    for i, block in enumerate(got):
        masks[block] = masks.get(block, 0) | (1 << i)
    full = (1 << len(got)) - 1
    row = full
    for block in expected:
        matched = row & masks.get(block, 0)
        row = ((row + matched) | (row - matched)) & full
    return (len(got) - bin(row).count("1")) / len(expected)
