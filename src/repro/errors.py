"""Typed exception hierarchy for acquisition and capture handling.

Real measurement campaigns fail in qualitatively different ways - the
probe is unplugged (permanent), the digitizer overruns (transient), a
capture file on disk is truncated (corrupt) - and callers need to
branch on *which* happened: retry transient failures, skip permanent
ones, quarantine corrupt files.  Bare ``RuntimeError``/``KeyError``
leaking out of :mod:`repro.io` or a signal source makes that
impossible, so every acquisition-path failure is wrapped in one of the
classes below.

The hierarchy deliberately multiple-inherits from the builtin types
the previous code raised (``NotImplementedError`` for the missing SDR
adapter, ``ValueError`` for format mismatches) so that pre-existing
``except`` clauses keep working while new code branches on the typed
classes.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union


class EmprofError(Exception):
    """Base class for all typed EMPROF errors."""


class AcquisitionError(EmprofError, RuntimeError):
    """A capture could not be acquired (hardware, driver, or file).

    Subclasses distinguish *permanent* failures (missing hardware,
    corrupt files - retrying cannot help) from *transient* ones
    (overruns, timeouts - a bounded retry is the right response).
    The :attr:`transient` flag is what retry policies branch on.
    """

    #: Whether retrying the acquisition can plausibly succeed.
    transient: bool = False


class HardwareMissingError(AcquisitionError, NotImplementedError):
    """No physical receiver / driver is available (permanent).

    Inherits ``NotImplementedError`` because that is what the
    driverless :class:`repro.acquire.SdrSource` historically raised.
    """

    transient = False


class TransientAcquisitionError(AcquisitionError):
    """The source failed in a way a retry may fix (overrun, timeout)."""

    transient = True


class CorruptCaptureError(AcquisitionError, ValueError):
    """A capture/ground-truth file is truncated, corrupt, or malformed.

    Attributes:
        path: the offending file, when known.

    Inherits ``ValueError`` because format mismatches historically
    raised that; callers catching ``ValueError`` still work.
    """

    transient = False

    def __init__(
        self, message: str, path: Optional[Union[str, Path]] = None
    ):
        self.path = None if path is None else str(path)
        if self.path is not None and self.path not in message:
            message = f"{message} (file: {self.path})"
        super().__init__(message)


class CampaignError(EmprofError, RuntimeError):
    """An experiment campaign's checkpoint state is unusable."""


class ServiceError(EmprofError, RuntimeError):
    """The campaign daemon was misused or handed an unusable request.

    Raised by :mod:`repro.experiments.service` for conditions the
    *caller* must fix: submitting after a drain was requested, a job
    payload naming an unknown workload or device, starting a service
    twice.  Protocol handlers catch it and turn it into an
    ``{"ok": false, "error": ...}`` response instead of dropping the
    connection.
    """

