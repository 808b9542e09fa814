"""The observability master switch.

EMPROF's core argument is zero observer effect; the reproduction holds
itself to the same standard.  Every span, counter, and histogram in
:mod:`repro.obs` is gated on one process-wide flag so that with
``EMPROF_OBS`` unset (the default) instrumented hot paths pay at most
a cheap attribute check - no timestamps, no allocations, no locks.

The flag mirrors :mod:`repro.devtools.contracts`' ``EMPROF_CONTRACTS``
toggle, with the opposite default: contracts defend correctness and
default *on*; observability is a diagnostic aid and defaults *off*.

Set ``EMPROF_OBS=1`` in the environment (read once at import), or call
:func:`set_obs_enabled` at runtime.
"""

from __future__ import annotations

import os

_ENV_FLAG = "EMPROF_OBS"

_enabled = os.environ.get(_ENV_FLAG, "0").strip().lower() in (
    "1",
    "true",
    "on",
    "yes",
)


def obs_enabled() -> bool:
    """Whether observability instrumentation is currently active."""
    return _enabled


def set_obs_enabled(enabled: bool) -> bool:
    """Enable/disable observability; returns the previous setting."""
    global _enabled
    previous = _enabled
    # A process-wide feature flag flipped before worker threads start;
    # a lock would not change observable behavior.
    _enabled = bool(enabled)  # emlint: disable=shared-mutable-state
    return previous
