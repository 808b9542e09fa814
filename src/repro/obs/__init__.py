"""Observability for the EMPROF reproduction: traces, events, logs.

EMPROF's pitch is profiling with zero observer effect; this package
holds the reproduction to the same bar by making the profiler itself
observable *without* perturbing it.  Three primitives, all stdlib-only:

* :data:`trace` - a process-global span :class:`~repro.obs.trace.Tracer`
  (``with trace.span("detect", samples=n): ...``), thread-safe and
  nestable, exporting JSON and Chrome ``chrome://tracing`` format.
  Each fact is recorded once, as a span attribute:
  :meth:`~repro.obs.trace.Tracer.aggregate` rolls the spans up per
  name, and its ``sums`` (``profile``'s ``stalls``, ``sim.run``'s
  ``instructions``) say how much work each stage did;
* :data:`bus` - the process-global :class:`~repro.obs.events.EventBus`
  of live telemetry events, each written to every sink as it is
  emitted, in ``seq`` order;
* :func:`~repro.obs.logbridge.get_logger` - stdlib logging under the
  ``repro`` namespace, wired to the CLI's ``--quiet``/``--verbose``.

On top of those primitives sits the **run observatory**:

* :mod:`repro.obs.ledger` - an append-only JSONL run ledger
  (:class:`~repro.obs.ledger.RunLedger` /
  :class:`~repro.obs.ledger.RunRecord`), written by ``repro profile
  --ledger``, the bench harness, and measurement campaigns;
* :mod:`repro.obs.regress` - statistical baseline comparison over
  ledger history (``repro obs regress``);
* :mod:`repro.obs.dashboard` - a self-contained HTML report over the
  same history (``repro obs dashboard``).

Everything is inert unless ``EMPROF_OBS=1`` is set in the environment
(mirroring ``EMPROF_CONTRACTS``) or :func:`set_obs_enabled` is called:
a disabled span or event costs one attribute check per call, which is
what lets the hot loops stay instrumented permanently.  The overhead guard
in ``tests/test_obs_overhead.py`` enforces that bound.

See ``docs/observability.md`` for the span catalogue and the exporter
formats.
"""

from __future__ import annotations

from .events import Event, EventBus, bus
from .ledger import RunLedger, RunRecord
from .logbridge import configure_logging, get_logger, level_for_verbosity
from .runtime import obs_enabled, set_obs_enabled
from .trace import SpanRecord, Tracer

#: Process-global tracer; import as ``from repro.obs import trace``.
trace = Tracer()

__all__ = [
    "Event",
    "EventBus",
    "RunLedger",
    "RunRecord",
    "SpanRecord",
    "Tracer",
    "bus",
    "configure_logging",
    "get_logger",
    "level_for_verbosity",
    "obs_enabled",
    "set_obs_enabled",
    "trace",
]
