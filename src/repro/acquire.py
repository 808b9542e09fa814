"""Signal sources: where captures come from.

EMPROF only needs a :class:`~repro.emsignal.receiver.Capture`; a
:class:`SignalSource` is anything whose ``capture()`` returns one, so
analysis code is agnostic to the acquisition path:

* :class:`repro.experiments.runner.SimulatedCaptureSource` - the
  repository's laptop-scale apparatus (machine model + EM chain), the
  source ``repro capture`` and the campaign daemon run;
* :class:`FileSource` - a previously recorded ``.npz`` capture (from
  this library, or converted from a real measurement);
* :class:`SdrSource` - the seam for physical hardware.  The paper's
  bench (near-field probe -> ThinkRF WSA5000 -> PX14400 digitizers)
  or any SoapySDR-compatible receiver slots in here; since this
  repository ships no hardware drivers, instantiating it raises with
  instructions for writing the adapter.

All sources are deterministic given their construction arguments
(the simulated source takes an explicit seed), so an analysis over any
source is reproducible.
"""

from __future__ import annotations

from pathlib import Path
from typing import Protocol, Union, runtime_checkable

from . import io as repro_io
from .errors import HardwareMissingError
from .emsignal.receiver import Capture


@runtime_checkable
class SignalSource(Protocol):
    """Anything that can produce a capture."""

    def capture(self) -> Capture:
        """Acquire (or load, or synthesize) one capture."""
        ...  # pragma: no cover - protocol


class FileSource:
    """Capture loaded from a saved ``.npz`` file."""

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)

    def capture(self) -> Capture:
        """Load the capture from disk."""
        return repro_io.load_capture(self.path)


class SdrSource:
    """Placeholder for a physical SDR front end.

    A real adapter must tune to the target's clock frequency, capture
    ``bandwidth_hz`` of complex baseband, compute the magnitude, and
    return a :class:`Capture` with ``sample_rate_hz == bandwidth_hz``.
    This repository is hardware-free, so construction always raises
    :class:`repro.errors.HardwareMissingError` - a *permanent*
    acquisition failure, so retry policies
    (:func:`repro.experiments.runner.acquire_with_retry`) fail fast on
    it instead of retrying, unlike
    :class:`repro.errors.TransientAcquisitionError`.
    """

    ADAPTER_HINT = (
        "no SDR driver is bundled; implement SignalSource.capture() over "
        "your receiver (e.g. SoapySDR: tune to clock_hz, stream "
        "bandwidth_hz of CF32, take np.abs, wrap in "
        "repro.emsignal.receiver.Capture) and pass that object wherever a "
        "SignalSource is accepted"
    )

    def __init__(self, *args, **kwargs):
        raise HardwareMissingError(SdrSource.ADAPTER_HINT)

