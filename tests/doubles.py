"""Test doubles: signal sources that fail on purpose, and an event sink.

The source wrappers model the ways a physical acquisition goes wrong,
so the retry policy, the campaign supervisor and the daemon can be
driven through them:

* :class:`FaultySource` - every capture runs a
  :class:`~repro.faults.inject.FaultInjector` mix;
* :class:`FlakySource` - the first captures raise transiently;
* :class:`CrashingSource` - the capture kills its own process;
* :class:`StallingSource` - the capture never returns.

:class:`InMemorySink` collects :mod:`repro.obs.events` events in a
list, so a test can read what a bus delivered.
"""

import dataclasses
import os
import threading
import time
from dataclasses import dataclass
from typing import List, Optional

from repro.errors import TransientAcquisitionError
from repro.faults.inject import FaultInjector, ImpairedSignal, ImpairmentLog
from repro.obs.events import Event


class FaultySource:
    """A :class:`~repro.acquire.SignalSource` whose captures are impaired.

    Wraps any source; every ``capture()`` runs the injected fault mix
    over the underlying magnitude.  The last ground-truth log is kept
    on :attr:`last_log` (and the full :class:`ImpairedSignal` on
    :attr:`last_impaired`) for validation flows.
    """

    def __init__(self, source, injector: FaultInjector):
        self.source = source
        self.injector = injector
        self.last_log: Optional[ImpairmentLog] = None
        self.last_impaired: Optional[ImpairedSignal] = None

    def capture(self):
        clean = self.source.capture()
        impaired = self.injector.apply(clean.magnitude)
        self.last_impaired = impaired
        self.last_log = impaired.log
        return dataclasses.replace(clean, magnitude=impaired.signal)


class FlakySource:
    """A source whose first ``failures`` captures raise transiently.

    Models digitizer overruns/timeouts for exercising retry policies;
    deterministic, no randomness.
    """

    def __init__(self, source, failures: int = 1, exc: Optional[Exception] = None):
        self.source = source
        self.failures = int(failures)
        self.exc = exc
        self.attempts = 0

    def capture(self):
        self.attempts += 1
        if self.attempts <= self.failures:
            if self.exc is not None:
                raise self.exc
            raise TransientAcquisitionError(
                f"injected transient failure {self.attempts}/{self.failures}"
            )
        return self.source.capture()


@dataclass(frozen=True)
class CrashingSource:
    """A poison source: kills its own process mid-capture.

    ``os._exit`` (not ``sys.exit``) so no ``finally`` blocks, atexit
    hooks, or buffered writes run - the closest a test can get to a
    segfault or an OOM kill inside a campaign worker.  The supervisor
    must observe only the vanished process, requeue the run, and
    quarantine it once the spec has burned ``max_attempts`` workers.
    Picklable (plain scalars only) so it survives any start method.

    Attributes:
        exit_code: the status the dying process reports.
        delay_s: how long the capture pretends to work first, so the
            ``started`` control message and a heartbeat or two get out
            before the lights go off.
    """

    exit_code: int = 13
    delay_s: float = 0.05

    def capture(self):
        time.sleep(self.delay_s)
        os._exit(self.exit_code)


@dataclass(frozen=True)
class StallingSource:
    """A hung source: the process stays alive but stops making progress.

    Models a wedged SDR driver ioctl - the worker's acquisition call
    never returns, but the process is healthy as far as the OS is
    concerned (it even keeps heartbeating, since the worker's beat
    thread is independent of the capture).  Only the per-job lease
    deadline (``RunSpec.timeout_s`` / ``Campaign.job_timeout_s``) can
    catch it; heartbeat silence is the *SIGSTOP* failure mode, which
    the chaos tests drive directly.  Picklable.

    Attributes:
        hang_s: how long the capture sleeps; pick it far beyond the
            campaign's heartbeat/job timeout so the watchdog always
            fires first.
    """

    hang_s: float = 3600.0

    def capture(self):
        time.sleep(self.hang_s)
        raise TransientAcquisitionError("stalling source woke up")


class InMemorySink:
    """Collects the events a bus delivers in a list."""

    def __init__(self) -> None:
        self.events: List[Event] = []
        self._lock = threading.Lock()

    def write(self, event: Event) -> None:
        """Record one event."""
        with self._lock:
            self.events.append(event)

    def close(self) -> None:
        """No-op (memory only)."""
