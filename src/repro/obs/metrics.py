"""Metrics: counters, gauges, and histograms with two exporters.

The registry is the pipeline's scoreboard: detection increments
``stalls_detected_total`` and ``refresh_stalls_total``, the simulator
reports cycles and instructions, the streaming profiler records a
per-chunk latency histogram.  Everything is zero-dependency (stdlib
only) and exports as:

* JSON - a single document mirroring :meth:`MetricsRegistry.snapshot`
  exactly, so ``json.loads(registry.to_json()) == registry.snapshot()``
  round-trips.  It carries values, labels and histogram percentiles
  but no help text, so a ledger row does not repeat the catalogue's
  descriptions;
* Prometheus text exposition format - counters/gauges/histograms with
  ``# HELP`` / ``# TYPE`` headers and escaped label values, suitable
  for a textfile collector.

Like the tracer, every mutation is gated on the ``EMPROF_OBS`` flag:
``counter.inc()`` with observability disabled is one attribute check
and a return.  Instruments register at import time (get-or-create by
name), so a snapshot always lists the full catalogue even when a
metric has not fired yet.
"""

from __future__ import annotations

import bisect
import json
import math
import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple

from . import runtime

#: Default histogram bucket upper bounds, in seconds: spans five
#: decades of latency from a microsecond to ten seconds.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    1e-6, 2e-6, 5e-6,
    1e-5, 2e-5, 5e-5,
    1e-4, 2e-4, 5e-4,
    1e-3, 2e-3, 5e-3,
    1e-2, 2e-2, 5e-2,
    1e-1, 2e-1, 5e-1,
    1.0, 2.0, 5.0, 10.0,
)


def _escape_help(text: str) -> str:
    """Escape a HELP line per the Prometheus text format."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(text: str) -> str:
    """Escape a label value per the Prometheus text format."""
    return (
        text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_labels(labels: Dict[str, str], extra: Optional[Tuple[str, str]] = None) -> str:
    """``{a="x",le="0.5"}`` or the empty string."""
    pairs = [(k, v) for k, v in labels.items()]
    if extra is not None:
        pairs.append(extra)
    if not pairs:
        return ""
    body = ",".join(f'{k}="{_escape_label_value(str(v))}"' for k, v in pairs)
    return "{" + body + "}"


def _format_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return f"{value:g}"


class _Instrument:
    """Shared bookkeeping for all metric kinds."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str, labels: Optional[Dict[str, str]]):
        self.name = name
        self.help = help_text
        self.labels: Dict[str, str] = dict(labels or {})
        self._lock = threading.Lock()


class Counter(_Instrument):
    """A monotonically increasing count (events, samples, stalls)."""

    kind = "counter"

    def __init__(self, name: str, help_text: str = "", labels: Optional[Dict[str, str]] = None):
        super().__init__(name, help_text, labels)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative); no-op when disabled."""
        if not runtime._enabled:
            return
        if amount < 0:
            raise ValueError("counters only go up; use a gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        """Current count."""
        return self._value

    def zero(self) -> None:
        """Reset to zero (registry reset; not part of normal use)."""
        with self._lock:
            self._value = 0.0

    def snapshot(self) -> Dict[str, Any]:
        """JSON-pure state."""
        return {"labels": dict(self.labels), "value": self._value}

    def prometheus_lines(self) -> List[str]:
        """Text-exposition lines for this instrument."""
        return [
            f"# HELP {self.name} {_escape_help(self.help)}",
            f"# TYPE {self.name} counter",
            f"{self.name}{_format_labels(self.labels)} {_format_value(self._value)}",
        ]


class Gauge(_Instrument):
    """A value that goes up and down (rates, levels, sizes)."""

    kind = "gauge"

    def __init__(self, name: str, help_text: str = "", labels: Optional[Dict[str, str]] = None):
        super().__init__(name, help_text, labels)
        self._value = 0.0

    def set(self, value: float) -> None:
        """Record the current level; no-op when disabled."""
        if not runtime._enabled:
            return
        with self._lock:
            self._value = float(value)

    def add(self, amount: float) -> None:
        """Adjust by ``amount`` (either sign); no-op when disabled."""
        if not runtime._enabled:
            return
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        """Current level."""
        return self._value

    def zero(self) -> None:
        """Reset to zero (registry reset)."""
        with self._lock:
            self._value = 0.0

    def snapshot(self) -> Dict[str, Any]:
        """JSON-pure state."""
        return {"labels": dict(self.labels), "value": self._value}

    def prometheus_lines(self) -> List[str]:
        """Text-exposition lines for this instrument."""
        return [
            f"# HELP {self.name} {_escape_help(self.help)}",
            f"# TYPE {self.name} gauge",
            f"{self.name}{_format_labels(self.labels)} {_format_value(self._value)}",
        ]


class Histogram(_Instrument):
    """Fixed-bucket distribution with streaming min/max/sum.

    Buckets are cumulative-upper-bound style (Prometheus ``le``), with
    an implicit ``+Inf`` overflow bucket.  Quantiles are estimated by
    linear interpolation inside the containing bucket, clamped to the
    observed min/max, which is exact enough for latency dashboards and
    entirely deterministic.
    """

    kind = "histogram"

    #: The quantiles every export carries, as (suffix, q) pairs.
    EXPORT_QUANTILES: Tuple[Tuple[str, float], ...] = (
        ("p50", 0.50),
        ("p95", 0.95),
        ("p99", 0.99),
    )

    def __init__(
        self,
        name: str,
        help_text: str = "",
        buckets: Optional[Sequence[float]] = None,
        labels: Optional[Dict[str, str]] = None,
    ):
        super().__init__(name, help_text, labels)
        bounds = tuple(float(b) for b in (buckets if buckets is not None else DEFAULT_LATENCY_BUCKETS))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("bucket bounds must be strictly increasing")
        if any(math.isinf(b) for b in bounds):
            raise ValueError("the +Inf bucket is implicit; use finite bounds")
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    def observe(self, value: float) -> None:
        """Record one observation; no-op when disabled."""
        if not runtime._enabled:
            return
        v = float(value)
        index = bisect.bisect_left(self.bounds, v)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += v
            if v < self._min:
                self._min = v
            if v > self._max:
                self._max = v

    @property
    def count(self) -> int:
        """Total observations."""
        return self._count

    @property
    def sum(self) -> float:
        """Sum of all observations."""
        return self._sum

    @property
    def mean(self) -> float:
        """Mean observation, 0.0 when empty."""
        return self._sum / self._count if self._count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (q in [0, 1]); 0.0 when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        with self._lock:
            return self._quantile_locked(q)

    def _quantile_locked(self, q: float) -> float:
        """Quantile body; caller must hold ``self._lock``."""
        total = self._count
        if total == 0:
            return 0.0
        target = q * total
        cumulative = 0
        for index, bucket_count in enumerate(self._counts):
            cumulative += bucket_count
            if cumulative >= target and bucket_count > 0:
                lower = self._bucket_lower(index)
                upper = self._bucket_upper(index)
                inside = target - (cumulative - bucket_count)
                frac = min(max(inside / bucket_count, 0.0), 1.0)
                return lower + frac * (upper - lower)
        return self._max

    def _bucket_lower(self, index: int) -> float:
        lower = self.bounds[index - 1] if index > 0 else -math.inf
        return max(lower, self._min)

    def _bucket_upper(self, index: int) -> float:
        upper = self.bounds[index] if index < len(self.bounds) else math.inf
        return min(upper, self._max)

    def zero(self) -> None:
        """Reset all state (registry reset)."""
        with self._lock:
            self._counts = [0] * (len(self.bounds) + 1)
            self._count = 0
            self._sum = 0.0
            self._min = math.inf
            self._max = -math.inf

    def snapshot(self) -> Dict[str, Any]:
        """JSON-pure state; the overflow bucket's ``le`` is "+Inf"."""
        with self._lock:
            cumulative = 0
            buckets = []
            for index, bucket_count in enumerate(self._counts):
                cumulative += bucket_count
                le: Any = self.bounds[index] if index < len(self.bounds) else "+Inf"
                buckets.append({"le": le, "count": cumulative})
            percentiles = {
                suffix: (self._quantile_locked(q) if self._count else None)
                for suffix, q in self.EXPORT_QUANTILES
            }
            return {
                "labels": dict(self.labels),
                "count": self._count,
                "sum": self._sum,
                "min": self._min if self._count else None,
                "max": self._max if self._count else None,
                "percentiles": percentiles,
                "buckets": buckets,
            }

    def prometheus_lines(self) -> List[str]:
        """Text-exposition lines for this instrument."""
        lines = [
            f"# HELP {self.name} {_escape_help(self.help)}",
            f"# TYPE {self.name} histogram",
        ]
        cumulative = 0
        for index, bucket_count in enumerate(self._counts):
            cumulative += bucket_count
            bound = self.bounds[index] if index < len(self.bounds) else math.inf
            le = _format_value(bound)
            lines.append(
                f"{self.name}_bucket"
                f"{_format_labels(self.labels, extra=('le', le))} {cumulative}"
            )
        lines.append(
            f"{self.name}_sum{_format_labels(self.labels)} {_format_value(self._sum)}"
        )
        lines.append(f"{self.name}_count{_format_labels(self.labels)} {self._count}")
        # Estimated quantiles as derived gauges (`_p50`/`_p95`/`_p99`):
        # the Prometheus histogram type has no native quantile samples,
        # and computing them scrape-side needs a query engine a textfile
        # collector does not have.
        with self._lock:
            estimates = [
                (suffix, self._quantile_locked(q))
                for suffix, q in self.EXPORT_QUANTILES
            ]
        for suffix, value in estimates:
            series = f"{self.name}_{suffix}"
            lines.append(f"# TYPE {series} gauge")
            lines.append(
                f"{series}{_format_labels(self.labels)} {_format_value(value)}"
            )
        return lines


class MetricsRegistry:
    """Name-keyed instrument store with get-or-create semantics.

    One process-global instance lives at :data:`repro.obs.metrics`.
    Re-requesting an existing name returns the existing instrument
    (help text is kept from the first non-empty registration);
    requesting an existing name as a different kind raises.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[str, _Instrument] = {}

    def _get_or_create(self, cls: type, name: str, **kwargs: Any) -> Any:
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind}"
                    )
                if not existing.help and kwargs.get("help_text"):
                    existing.help = kwargs["help_text"]
                return existing
            instrument = cls(name, **kwargs)
            self._instruments[name] = instrument
            return instrument

    def counter(
        self, name: str, help_text: str = "", labels: Optional[Dict[str, str]] = None
    ) -> Counter:
        """Get or create the counter ``name``."""
        return self._get_or_create(Counter, name, help_text=help_text, labels=labels)

    def gauge(
        self, name: str, help_text: str = "", labels: Optional[Dict[str, str]] = None
    ) -> Gauge:
        """Get or create the gauge ``name``."""
        return self._get_or_create(Gauge, name, help_text=help_text, labels=labels)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        buckets: Optional[Sequence[float]] = None,
        labels: Optional[Dict[str, str]] = None,
    ) -> Histogram:
        """Get or create the histogram ``name``."""
        with self._lock:
            existing = self._instruments.get(name)
        if existing is not None:
            if not isinstance(existing, Histogram):
                raise ValueError(f"metric {name!r} already registered as {existing.kind}")
            if not existing.help and help_text:
                existing.help = help_text
            return existing
        return self._get_or_create(
            Histogram, name, help_text=help_text, buckets=buckets, labels=labels
        )

    def get(self, name: str) -> Optional[_Instrument]:
        """The instrument registered under ``name``, or None."""
        with self._lock:
            return self._instruments.get(name)

    def names(self) -> List[str]:
        """Registered names, in registration order."""
        with self._lock:
            return list(self._instruments)

    def reset(self) -> None:
        """Zero every instrument's state; registrations persist.

        Module-level instrument handles stay valid across a reset -
        this deliberately does *not* unregister, so cached references
        in instrumented code keep feeding the same registry.
        """
        with self._lock:
            instruments = list(self._instruments.values())
        for instrument in instruments:
            instrument.zero()

    # -- exporters ---------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """JSON-pure state of every instrument, grouped by kind."""
        with self._lock:
            instruments = list(self._instruments.values())
        out: Dict[str, Any] = {"counters": {}, "gauges": {}, "histograms": {}}
        for instrument in instruments:
            out[instrument.kind + "s"][instrument.name] = instrument.snapshot()
        return out

    def to_json(self, indent: Optional[int] = 2) -> str:
        """JSON document; ``json.loads`` of it equals :meth:`snapshot`."""
        return json.dumps(self.snapshot(), indent=indent)

    def to_prometheus(self) -> str:
        """Prometheus text exposition of every instrument."""
        with self._lock:
            instruments = list(self._instruments.values())
        lines: List[str] = []
        for instrument in instruments:
            lines.extend(instrument.prometheus_lines())
        return "\n".join(lines) + ("\n" if lines else "")

    def write(self, path: str, fmt: str = "json") -> None:
        """Write the registry to ``path`` in ``fmt`` ('json' or 'prom')."""
        if fmt == "json":
            payload = self.to_json()
        elif fmt in ("prom", "prometheus"):
            payload = self.to_prometheus()
        else:
            raise ValueError(f"unknown metrics format {fmt!r}; use 'json' or 'prom'")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(payload)
