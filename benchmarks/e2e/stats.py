"""Order statistics shared by ``run.py``, ``compare.py`` and the tests."""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence, Tuple

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank ``q``-th percentile, or None when the sample is too small.

    The value at rank ``ceil(q/100 * n)`` is returned only when at least
    :data:`MIN_BEYOND` samples lie above that rank, so a tail figure is
    never read off one or two outliers.
    """
    if not 0 < q < 100:
        raise ValueError("q must lie strictly between 0 and 100")
    n = len(values)
    rank = math.ceil(q / 100.0 * n)
    if n == 0 or n - rank < MIN_BEYOND:
        return None
    return sorted(values)[rank - 1]


def tail(values: Sequence[float]) -> Tuple[Optional[str], Optional[float]]:
    """The highest of p99.9, p99 and p90 that the sample supports."""
    for q, name in ((99.9, "p99.9"), (99.0, "p99"), (90.0, "p90")):
        value = percentile(values, q)
        if value is not None:
            return name, value
    return None, None


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile), as ``statistics`` gives them."""
    if not values:
        raise ValueError("no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else math.inf
