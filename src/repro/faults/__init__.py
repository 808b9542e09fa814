"""Acquisition fault injection and signal-quality monitoring.

Real captures (near-field probe -> ThinkRF WSA5000 -> PX14400,
Sections V-B/VI of the paper) are not pristine: digitizers drop
samples, ADCs clip, AGC steps the gain mid-capture, and nearby
transmitters burst into the measurement band.  This package provides
both halves of the robustness story:

* :mod:`repro.faults.inject` - a deterministic, seeded fault-injection
  layer that applies composable impairments to a signal, records every
  injected event in an :class:`~repro.faults.inject.ImpairmentLog`, so
  tests know ground truth, and splits the result into the chunk stream
  the streaming engine consumes (:func:`~repro.faults.inject.iter_chunks`);
* :mod:`repro.faults.quality` - the runtime monitors the hardened
  streaming pipeline uses to *detect* impairments in an unknown
  capture and quality-gate the stalls it reports
  (``DetectedStall.low_confidence``).

See ``docs/robustness.md`` for the fault model and gating semantics.
The test doubles built on this package (faulty, flaky, crashing and
stalling sources) live in ``tests/doubles.py``.
"""

from .inject import (
    BurstFault,
    ClippingFault,
    DcDriftFault,
    DropoutFault,
    FaultInjector,
    GainStepFault,
    ImpairedSignal,
    ImpairmentEvent,
    ImpairmentLog,
    applied_clip_level,
    iter_chunks,
)
from .quality import QualityConfig, QualityMonitor

__all__ = [
    "BurstFault",
    "applied_clip_level",
    "ClippingFault",
    "DcDriftFault",
    "DropoutFault",
    "FaultInjector",
    "GainStepFault",
    "ImpairedSignal",
    "ImpairmentEvent",
    "ImpairmentLog",
    "QualityConfig",
    "QualityMonitor",
    "iter_chunks",
]
