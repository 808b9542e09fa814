"""Runtime contracts for the EMPROF event pipeline.

The static pass (:mod:`repro.devtools.lint`) catches unit mix-ups and
nondeterminism at review time; this module catches *value* invariant
violations at run time, at the pipeline's trust boundaries:

* every stall satisfies ``begin <= end`` in both samples and cycles;
* a stall sequence is monotonically non-decreasing in ``begin_cycle``
  (time order is what attribution and the timeline plots rely on);
* normalized magnitude lies in [0, 1].

The checks are cheap (O(n) numpy reductions, O(k) per stall batch) and
enabled by default; set ``EMPROF_CONTRACTS=0`` in the environment or
call :func:`set_contracts_enabled` to turn them off for production
throughput runs.  Violations raise :class:`ContractViolation`, an
``AssertionError`` subclass, so they read as what they are: internal
invariant failures, not user input errors.

The module deliberately imports nothing from :mod:`repro.core` (it
duck-types stall objects) so that core modules can apply the
decorators without an import cycle.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import os
from typing import Any, Callable, Iterable, Optional, Sequence, TypeVar

import numpy as np

_ENV_FLAG = "EMPROF_CONTRACTS"

_enabled = os.environ.get(_ENV_FLAG, "1").strip().lower() not in (
    "0",
    "false",
    "off",
    "no",
)

F = TypeVar("F", bound=Callable[..., Any])


class ContractViolation(AssertionError):
    """An internal pipeline invariant does not hold."""


def contracts_enabled() -> bool:
    """Whether runtime contracts are currently active."""
    return _enabled


def set_contracts_enabled(enabled: bool) -> bool:
    """Enable/disable contracts; returns the previous setting."""
    global _enabled
    previous = _enabled
    # A process-wide feature flag flipped before worker threads start;
    # a lock would not change observable behavior.
    _enabled = bool(enabled)  # emlint: disable=shared-mutable-state
    return previous


# ---------------------------------------------------------------------------
# check functions
# ---------------------------------------------------------------------------


def check_stall(stall: Any, where: str = "stall") -> Any:
    """Assert one stall event is well-formed; returns the stall."""
    begin_sample = stall.begin_sample
    end_sample = stall.end_sample
    begin_cycle = stall.begin_cycle
    end_cycle = stall.end_cycle
    for label, value in (
        ("begin_sample", begin_sample),
        ("end_sample", end_sample),
        ("begin_cycle", begin_cycle),
        ("end_cycle", end_cycle),
        ("min_level", stall.min_level),
    ):
        if not math.isfinite(value):
            raise ContractViolation(f"{where}: {label} is not finite ({value!r})")
    if begin_sample > end_sample:
        raise ContractViolation(
            f"{where}: begin_sample {begin_sample} > end_sample {end_sample}"
        )
    if begin_cycle > end_cycle:
        raise ContractViolation(
            f"{where}: begin_cycle {begin_cycle} > end_cycle {end_cycle}"
        )
    return stall


_CHECKED_FIELDS = ("begin_sample", "end_sample", "begin_cycle", "end_cycle", "min_level")
_stall_fields = operator.attrgetter(*_CHECKED_FIELDS)


def _checked_columns(stalls: Sequence[Any]) -> Sequence[np.ndarray]:
    """The five checked fields of ``stalls`` as float64 columns.

    A stall table (:class:`repro.core.events.StallTable`) exposes each
    field as a column already; a sequence of stall objects is gathered
    in one ``fromiter`` pass.
    """
    if isinstance(getattr(stalls, "begin_cycle", None), np.ndarray):
        return [getattr(stalls, name) for name in _CHECKED_FIELDS]
    n = len(stalls)
    fields = np.fromiter(
        itertools.chain.from_iterable(map(_stall_fields, stalls)),
        np.float64,
        5 * n,
    ).reshape(n, 5)
    return list(fields.T)


def _last_begin_cycle(stalls: Sequence[Any]) -> float:
    cycles = getattr(stalls, "begin_cycle", None)
    if isinstance(cycles, np.ndarray):
        return float(cycles[-1])
    return stalls[-1].begin_cycle


def check_stall_sequence(
    stalls: Sequence[Any],
    min_begin_cycle: float = -math.inf,
    where: str = "stall sequence",
) -> Sequence[Any]:
    """Assert each stall is well-formed and time order is non-decreasing.

    ``stalls`` is a sequence of stall objects or a stall table.  One
    NumPy pass over the five checked fields finds the first stall that
    breaks a rule; only that stall is looked at one field at a time,
    so an offender gets the per-stall message of :func:`check_stall`.
    """
    n = len(stalls)
    if not n:
        return stalls
    begin_sample, end_sample, begin_cycle, end_cycle, min_level = _checked_columns(
        stalls
    )
    previous = np.empty(n)
    previous[0] = min_begin_cycle
    previous[1:] = begin_cycle[:-1]
    suspect = ~(
        np.isfinite(begin_sample)
        & np.isfinite(end_sample)
        & np.isfinite(begin_cycle)
        & np.isfinite(end_cycle)
        & np.isfinite(min_level)
    )
    suspect |= begin_sample > end_sample
    suspect |= begin_cycle > end_cycle
    suspect |= begin_cycle < previous
    if not suspect.any():
        return stalls
    index = int(suspect.argmax())
    stall = stalls[index]
    check_stall(stall, where=f"{where}[{index}]")
    before = min_begin_cycle if index == 0 else stalls[index - 1].begin_cycle
    raise ContractViolation(
        f"{where}[{index}]: begin_cycle {stall.begin_cycle} precedes "
        f"{before}; stalls must be monotonically non-decreasing"
    )


def check_unit_interval(
    values: np.ndarray, what: str = "normalized magnitude"
) -> np.ndarray:
    """Assert every value lies in [0, 1] (and is finite)."""
    arr = np.asarray(values)
    if arr.size == 0:
        return values
    if not np.all(np.isfinite(arr)):
        raise ContractViolation(f"{what} contains non-finite values")
    low = float(arr.min())
    high = float(arr.max())
    if low < 0.0 or high > 1.0:
        raise ContractViolation(
            f"{what} outside [0, 1]: observed range [{low}, {high}]"
        )
    return values


def check_report(report: Any, where: str = "profile report") -> Any:
    """Assert a :class:`ProfileReport`-shaped object is internally consistent."""
    if report.total_cycles < 0:
        raise ContractViolation(f"{where}: negative total_cycles")
    if report.clock_hz <= 0:
        raise ContractViolation(f"{where}: clock_hz must be positive")
    if report.sample_period_cycles <= 0:
        raise ContractViolation(f"{where}: sample_period_cycles must be positive")
    check_stall_sequence(report.stalls, where=f"{where}.stalls")
    return report


# ---------------------------------------------------------------------------
# decorators
# ---------------------------------------------------------------------------


def stall_sequence_result(func: F) -> F:
    """The decorated callable returns a time-ordered stall sequence."""

    @functools.wraps(func)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        result = func(*args, **kwargs)
        if _enabled:
            check_stall_sequence(result, where=func.__qualname__)
        return result

    return wrapper  # type: ignore[return-value]


def monotonic_stall_stream(method: F) -> F:
    """Method contract: stalls emitted across *all* calls stay in order.

    For streaming detectors, each call returns the stalls finalized by
    that call; the contract threads a per-instance high-water mark so
    ordering is enforced across the whole stream, not just per batch.
    """

    @functools.wraps(method)
    def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
        result = method(self, *args, **kwargs)
        if _enabled:
            previous = getattr(self, "_contract_prev_begin_cycle", -math.inf)
            check_stall_sequence(
                result,
                min_begin_cycle=previous,
                where=method.__qualname__,
            )
            if len(result):
                self._contract_prev_begin_cycle = _last_begin_cycle(result)
        return result

    return wrapper  # type: ignore[return-value]


def unit_interval_result(func: F) -> F:
    """The decorated callable returns values in [0, 1]."""

    @functools.wraps(func)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        result = func(*args, **kwargs)
        if _enabled:
            check_unit_interval(result, what=f"{func.__qualname__} output")
        return result

    return wrapper  # type: ignore[return-value]


def report_result(func: F) -> F:
    """The decorated callable returns a consistent profile report."""

    @functools.wraps(func)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        result = func(*args, **kwargs)
        if _enabled:
            check_report(result, where=f"{func.__qualname__} result")
        return result

    return wrapper  # type: ignore[return-value]
