"""Live telemetry: a thread-safe event bus with NDJSON sinks.

Everything else in :mod:`repro.obs` is *post-hoc* - spans, metric
snapshots and ledger records exist only after a run exits.  EMPROF's
whole premise is continuous, zero-observer-effect monitoring of a
*live* system, so this module gives the reproduction's own pipeline
the same property: producers (the streaming profiler, the experiment
drivers, campaign workers) ``emit()`` small schema-versioned events
while they run, and consumers (the :mod:`repro.obs.statusd` status
server, NDJSON files, terminal watchers) observe them mid-flight.
Another process's events join a bus through :meth:`EventBus.ingest`:
a forked campaign worker sends its events up its control pipe and the
supervisor ingests them, so one process writes each event file.

Design rules, in priority order:

* **Zero cost when off.**  ``emit()`` with ``EMPROF_OBS`` unset is one
  flag check and a return - zero events, zero allocations (the
  overhead guard pins this).
* **Every event reaches every sink.**  With observability on,
  ``emit()`` updates the counters, appends to the ``tail`` ring and
  writes the event to each sink, all on the emitting thread under one
  lock, so each sink sees the events in ``seq`` order.  A sink that
  raises is counted in ``sink_errors`` and never raised; a slow sink
  slows its producers rather than losing their events.  The ``tail``
  ring is fixed-size: old events are evicted from it by design.
* **Schema-versioned line JSON.**  Every event serializes to one JSON
  object (``schema``/``schema_version``/``kind``/``attrs``), one per
  line in NDJSON sinks, and readers skip-and-count torn or foreign
  lines - the same discipline as the run ledger.

The process-global bus lives at :data:`bus`; instrumented code uses
it exactly like the global tracer.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Deque, Dict, List, Optional, Tuple, Union

from . import runtime

SCHEMA = "repro-obs-event"
SCHEMA_VERSION = 1

#: The telemetry vocabulary.  Producers must use one of these kinds;
#: the set is deliberately closed so consumers (status server, watch
#: clients, the ledger rollup) can rely on it.
EVENT_KINDS = (
    "run_started",
    "run_finished",
    "chunk_processed",
    "stall_detected",
    "quality_flag",
    "checkpoint_written",
    "heartbeat",
    "worker_spawned",
    "worker_killed",
    "job_requeued",
    "job_quarantined",
)

#: Default size of the in-memory ``tail`` ring.
DEFAULT_TAIL_CAPACITY = 512

_ATTR_TYPES = (str, int, float, bool)


def _clean_attrs(attrs: Dict[str, Any]) -> Dict[str, Any]:
    """Coerce attribute values to JSON-safe scalars (drop None)."""
    return {
        key: value if isinstance(value, _ATTR_TYPES) else str(value)
        for key, value in attrs.items()
        if value is not None
    }


@dataclass(frozen=True)
class Event:
    """One telemetry event.

    Attributes:
        kind: one of :data:`EVENT_KINDS`.
        t_unix_s: wall-clock emission time (``time.time()``).
        seq: sequence number stamped by the emitting process's bus;
            every sink sees one bus's events in ``seq`` order.
        pid: emitting process id.
        source: emitting process label (``main``, ``worker0`` ...).
        attrs: small JSON-safe payload (counts, names, rates).
    """

    kind: str
    t_unix_s: float
    seq: int
    pid: int
    source: str = "main"
    attrs: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-pure representation (one NDJSON line, unserialized)."""
        return {
            "schema": SCHEMA,
            "schema_version": SCHEMA_VERSION,
            "kind": self.kind,
            "t_unix_s": self.t_unix_s,
            "seq": self.seq,
            "pid": self.pid,
            "source": self.source,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Event":
        """Parse one event line's JSON object.

        Keys outside the schema are ignored, so lines written before
        ``trace_id`` was dropped (it was always nullable) still parse.

        Raises:
            ValueError: not an event object (wrong schema, unknown
                kind, missing fields).
        """
        if not isinstance(payload, dict):
            raise ValueError("event line is not a JSON object")
        if payload.get("schema") != SCHEMA:
            raise ValueError(
                f"not a {SCHEMA} record (schema={payload.get('schema')!r})"
            )
        kind = payload.get("kind")
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {kind!r}")
        try:
            t_unix_s = float(payload["t_unix_s"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed event: {exc}") from exc
        return cls(
            kind=str(kind),
            t_unix_s=t_unix_s,
            seq=int(payload.get("seq", 0)),
            pid=int(payload.get("pid", 0)),
            source=str(payload.get("source", "main")),
            attrs=dict(payload.get("attrs") or {}),
        )


# ---------------------------------------------------------------------------
# sinks
# ---------------------------------------------------------------------------


class NDJSONFileSink:
    """Appends one JSON line per event to a file.

    The file is opened lazily in append mode; every event is one
    newline-terminated line, flushed immediately (no fsync - this is
    telemetry, not the ledger), so a reader following a live file sees
    whole lines and tolerates at most a torn tail.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._handle = None
        self._lock = threading.Lock()

    def write(self, event: Event) -> None:
        """Append one event line, flushing the stream."""
        line = json.dumps(event.to_dict(), sort_keys=True) + "\n"
        with self._lock:
            if self._handle is None:
                if self.path.parent != Path("."):
                    self.path.parent.mkdir(parents=True, exist_ok=True)
                self._handle = open(self.path, "a", encoding="utf-8")
            self._handle.write(line)
            self._handle.flush()

    def close(self) -> None:
        """Release the file handle (further writes reopen)."""
        with self._lock:
            if self._handle is not None:
                handle, self._handle = self._handle, None
                handle.close()


# ---------------------------------------------------------------------------
# the bus
# ---------------------------------------------------------------------------


class EventBus:
    """Thread-safe fan-out point for telemetry events.

    One process-global instance lives at :data:`bus`.  Private buses
    (tests, isolated campaigns) are cheap.

    Each admitted event goes to every sink on the emitting thread,
    under the bus lock, so every sink sees the events in ``seq`` order
    and none is lost.  The lock order is bus, then sink; a sink must
    never emit (the bus lock is not reentrant).

    Args:
        tail_capacity: size of the in-memory ring served by
            :meth:`tail` (old events are evicted by design).
        source: label stamped on emitted events (``main``,
            ``worker3`` ...); see :meth:`set_source`.
    """

    def __init__(
        self,
        tail_capacity: int = DEFAULT_TAIL_CAPACITY,
        source: str = "main",
    ):
        if tail_capacity < 1:
            raise ValueError("tail_capacity must be at least 1")
        self._default_source = source
        self._source = source
        self._lock = threading.Lock()
        self._recent: Deque[Event] = deque(maxlen=int(tail_capacity))
        self._sinks: List[Any] = []
        self._sink_errors = 0
        self._seq = 0
        self._counts: Dict[str, int] = {}
        self._started_unix_s = time.time()
        self._last_event_unix_s = 0.0
        self._last_heartbeat: Dict[str, float] = {}

    # -- producing -----------------------------------------------------------

    def set_source(self, source: str) -> str:
        """Relabel the emitting process; returns the previous label."""
        with self._lock:
            previous, self._source = self._source, str(source)
        return previous

    def emit(self, kind: str, **attrs: Any) -> Optional[Event]:
        """Emit one event; returns it, or None when obs is disabled.

        Raises:
            ValueError: ``kind`` is not in :data:`EVENT_KINDS` (the
                schema is closed; typos must not mint new kinds).
        """
        if not runtime._enabled:
            return None
        if kind not in EVENT_KINDS:
            raise ValueError(
                f"unknown event kind {kind!r}; expected one of "
                f"{', '.join(EVENT_KINDS)}"
            )
        event = Event(
            kind=kind,
            t_unix_s=time.time(),
            seq=0,  # replaced under the lock below
            pid=os.getpid(),
            source=self._source,
            attrs=_clean_attrs(attrs),
        )
        return self._admit(event, stamp_seq=True)

    def ingest(self, payload: Dict[str, Any]) -> Event:
        """Accept one already-serialized event (a campaign worker's
        piped event, a replayed NDJSON line).

        Deliberately *not* gated on ``EMPROF_OBS``: running an
        aggregator is an explicit opt-in, and the emitting process
        already paid its own gate.  The event keeps its original
        ``seq``/``pid``/``source``.

        Raises:
            ValueError: the payload is not a valid event object.
        """
        return self._admit(Event.from_dict(payload), stamp_seq=False)

    def _admit(self, event: Event, stamp_seq: bool) -> Event:
        with self._lock:
            if stamp_seq:
                self._seq += 1
                event = Event(
                    kind=event.kind,
                    t_unix_s=event.t_unix_s,
                    seq=self._seq,
                    pid=event.pid,
                    source=event.source,
                    attrs=event.attrs,
                )
            self._counts[event.kind] = self._counts.get(event.kind, 0) + 1
            self._last_event_unix_s = event.t_unix_s
            if event.kind == "heartbeat":
                self._last_heartbeat[event.source] = event.t_unix_s
            self._recent.append(event)
            for sink in self._sinks:
                try:
                    sink.write(event)
                except Exception:
                    # A sink must never take the bus down; errors are
                    # counted and delivery continues.
                    self._sink_errors += 1
        return event

    # -- sinks ---------------------------------------------------------------

    def add_sink(self, sink: Any) -> Any:
        """Attach a sink (anything with ``write(event)``); returns it."""
        with self._lock:
            self._sinks.append(sink)
        return sink

    def remove_sink(self, sink: Any) -> None:
        """Detach a sink; unknown sinks are ignored."""
        with self._lock:
            try:
                self._sinks.remove(sink)
            except ValueError:
                pass

    # -- observing -----------------------------------------------------------

    @property
    def sink_errors(self) -> int:
        """Exceptions swallowed from sink ``write`` calls."""
        with self._lock:
            return self._sink_errors

    @property
    def sink_count(self) -> int:
        """Sinks currently attached."""
        with self._lock:
            return len(self._sinks)

    def tail(self, n: int = 20) -> List[Event]:
        """The most recent ``n`` events (oldest first)."""
        if n < 0:
            raise ValueError("n cannot be negative")
        with self._lock:
            recent = list(self._recent)
        return recent[-n:] if n else []

    def stats(self) -> Dict[str, Any]:
        """JSON-pure rollup: counts by kind, their total, sink errors.

        This is what the status server's ``status`` response carries;
        keeping it cheap (no iteration over retained events) is what
        lets a live query never perturb the producers.
        """
        with self._lock:
            counts = dict(self._counts)
            return {
                "counts": counts,
                "total": sum(counts.values()),
                "sink_errors": self._sink_errors,
                "sinks": len(self._sinks),
                "started_unix_s": self._started_unix_s,
                "last_event_unix_s": self._last_event_unix_s,
                "last_heartbeat_unix_s": dict(self._last_heartbeat),
            }

    def reset(self) -> None:
        """Forget all events, counters, and sinks (tests, fork children).

        Sinks are dropped *without* closing them: after ``fork`` the
        child shares file descriptors with the parent, and closing
        them here would yank the parent's sinks out from under it.
        The lock is rebuilt outright - a forked child can inherit it
        held by a parent thread that does not exist in the child, and
        keeping it would wedge the child's bus permanently.
        """
        self._lock = threading.Lock()
        with self._lock:
            self._recent.clear()
            self._sinks = []
            self._sink_errors = 0
            self._seq = 0
            self._counts = {}
            self._started_unix_s = time.time()
            self._last_event_unix_s = 0.0
            self._last_heartbeat = {}
            self._source = self._default_source


def read_events(path: Union[str, Path]) -> Tuple[List[Event], int]:
    """Read an NDJSON event file; returns (events, bad_line_count).

    Missing files read as empty.  Torn or foreign lines are skipped
    and counted, never raised - a live producer may still be appending.
    """
    source = Path(path)
    if not source.is_file():
        return [], 0
    events: List[Event] = []
    bad_lines = 0
    with open(source, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                events.append(Event.from_dict(json.loads(line)))
            except (json.JSONDecodeError, ValueError):
                bad_lines += 1
    return events, bad_lines


#: Process-global event bus; import as ``from repro.obs import events``
#: and emit via ``events.bus.emit("chunk_processed", samples=n)``.
bus = EventBus()
