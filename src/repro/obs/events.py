"""Live telemetry: a bounded, thread-safe event bus with NDJSON sinks.

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

* **Never block the hot path.**  ``emit()`` with ``EMPROF_OBS`` unset
  is one flag check and a return - zero events, zero allocations (the
  overhead guard pins this).  With observability on, ``emit()`` does
  bounded work under one lock: update counters, append to a ring, and
  enqueue for sink delivery.  Sink I/O happens on a drainer thread.
* **Bounded everywhere.**  The sink-delivery queue holds at most
  ``capacity`` events; when it is full the event is *dropped* and the
  explicit :attr:`EventBus.dropped_events` counter is incremented -
  the producer is never made to wait.  The ``tail`` ring is a fixed
  ring (old events are evicted by design; eviction is not a drop).
* **Schema-versioned line JSON.**  Every event serializes to one JSON
  object (``schema``/``schema_version``/``kind``/``attrs``), one per
  line in NDJSON sinks, and readers skip-and-count torn or foreign
  lines - the same discipline as the run ledger.

The process-global bus lives at :data:`bus`; instrumented code uses
it exactly like the global tracer and metrics registry.
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

#: Default bound on the sink-delivery queue.
DEFAULT_CAPACITY = 4096

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
        seq: per-bus sequence number (gaps reveal drops).
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


class InMemorySink:
    """Collects events in a list; the test double and demo consumer."""

    def __init__(self) -> None:
        self.events: List[Event] = []
        self._lock = threading.Lock()

    def write(self, event: Event) -> None:
        """Record one event."""
        with self._lock:
            self.events.append(event)

    def close(self) -> None:
        """No-op (memory only)."""


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
    """Thread-safe, bounded fan-out point for telemetry events.

    One process-global instance lives at :data:`bus`.  Private buses
    (tests, isolated campaigns) are cheap.

    Args:
        capacity: bound on the sink-delivery queue.  When full, new
            events are counted in :attr:`dropped_events` and discarded
            rather than blocking the producer.
        tail_capacity: size of the in-memory ring served by
            :meth:`tail` (eviction from the ring is by design and not
            counted as a drop).
        auto_drain: start a daemon drainer thread when the first sink
            is attached.  Pass False for deterministic tests and call
            :meth:`drain` manually.
        source: label stamped on emitted events (``main``,
            ``worker3`` ...); see :meth:`set_source`.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        tail_capacity: int = DEFAULT_TAIL_CAPACITY,
        auto_drain: bool = True,
        source: str = "main",
    ):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        if tail_capacity < 1:
            raise ValueError("tail_capacity must be at least 1")
        self.capacity = int(capacity)
        self.auto_drain = bool(auto_drain)
        self._default_source = source
        self._source = source
        self._cond = threading.Condition()
        self._pending: Deque[Event] = deque()
        self._recent: Deque[Event] = deque(maxlen=int(tail_capacity))
        self._sinks: List[Any] = []
        self._dropped = 0
        self._sink_errors = 0
        self._seq = 0
        self._counts: Dict[str, int] = {}
        self._samples_total = 0
        self._stalls_total = 0
        self._started_unix_s = time.time()
        self._last_event_unix_s = 0.0
        self._last_heartbeat: Dict[str, float] = {}
        self._drainer: Optional[threading.Thread] = None
        self._draining = False
        self._closed = False

    # -- producing -----------------------------------------------------------

    def set_source(self, source: str) -> str:
        """Relabel the emitting process; returns the previous label."""
        with self._cond:
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
        with self._cond:
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
            if event.kind == "chunk_processed":
                self._samples_total += int(event.attrs.get("samples", 0) or 0)
                self._stalls_total += int(event.attrs.get("stalls", 0) or 0)
            elif event.kind == "heartbeat":
                self._last_heartbeat[event.source] = event.t_unix_s
            self._recent.append(event)
            if self._sinks:
                if len(self._pending) >= self.capacity:
                    self._dropped += 1
                else:
                    self._pending.append(event)
                    self._cond.notify_all()
        return event

    # -- sinks ---------------------------------------------------------------

    def add_sink(self, sink: Any) -> Any:
        """Attach a sink (anything with ``write(event)``); returns it."""
        with self._cond:
            self._sinks.append(sink)
            start = (
                self.auto_drain and self._drainer is None and not self._closed
            )
            if start:
                self._drainer = threading.Thread(
                    target=self._drain_loop,
                    name="repro-obs-eventbus",
                    daemon=True,
                )
                self._drainer.start()
        return sink

    def remove_sink(self, sink: Any) -> None:
        """Detach a sink; unknown sinks are ignored."""
        with self._cond:
            try:
                self._sinks.remove(sink)
            except ValueError:
                pass

    def _drain_loop(self) -> None:
        # Capture the condition once: reset() replaces self._cond (so a
        # forked child gets a clean lock), and mixing the old lock with
        # the new attribute mid-iteration would wait on an un-acquired
        # lock.  A reset also orphans this drainer on purpose - noticing
        # the swap is its signal to retire.
        cond = self._cond
        while True:
            with cond:
                if cond is not self._cond:
                    return
                while not self._pending and not self._closed:
                    cond.wait(timeout=0.5)
                    if cond is not self._cond:
                        return
                if self._closed and not self._pending:
                    return
                batch = list(self._pending)
                self._pending.clear()
                sinks = list(self._sinks)
                self._draining = True
            try:
                self._deliver(batch, sinks)
            finally:
                with cond:
                    self._draining = False
                    cond.notify_all()

    def _deliver(self, batch: List[Event], sinks: List[Any]) -> None:
        for sink in sinks:
            for event in batch:
                try:
                    sink.write(event)
                except Exception:
                    # A sink must never take the bus down; errors are
                    # counted and the batch continues.
                    with self._cond:
                        self._sink_errors += 1

    def drain(self) -> int:
        """Deliver pending events synchronously; returns how many.

        The manual-drain counterpart of the drainer thread, for
        ``auto_drain=False`` buses (deterministic tests, one-shot
        flushes at process exit).
        """
        with self._cond:
            batch = list(self._pending)
            self._pending.clear()
            sinks = list(self._sinks)
        if batch and sinks:
            self._deliver(batch, sinks)
        return len(batch)

    def flush(self, timeout_s: float = 5.0) -> bool:
        """Wait until the delivery queue is empty; True on success."""
        if self._drainer is None:
            self.drain()
            return True
        deadline = time.monotonic() + timeout_s
        with self._cond:
            while self._pending or self._draining:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._cond.wait(timeout=remaining)
        return True

    def close(self) -> None:
        """Flush, stop the drainer, and close closeable sinks."""
        self.flush()
        with self._cond:
            self._closed = True
            self._cond.notify_all()
            drainer, self._drainer = self._drainer, None
            sinks = list(self._sinks)
            self._sinks = []
        if drainer is not None:
            drainer.join(timeout=2.0)
        for sink in sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                try:
                    close()
                except Exception:  # pragma: no cover - close best-effort
                    with self._cond:
                        self._sink_errors += 1

    # -- observing -----------------------------------------------------------

    @property
    def dropped_events(self) -> int:
        """Events discarded because the delivery queue was full."""
        with self._cond:
            return self._dropped

    @property
    def sink_errors(self) -> int:
        """Exceptions swallowed from sink ``write`` calls."""
        with self._cond:
            return self._sink_errors

    @property
    def queue_depth(self) -> int:
        """Events admitted but not yet delivered to the sinks.

        The delivery queue is shared by every sink (one drainer fans
        each batch out to all of them), so this is the bus's single
        backlog figure — a depth stuck near ``capacity`` means some
        sink is too slow and drops are imminent.
        """
        with self._cond:
            return len(self._pending)

    @property
    def sink_count(self) -> int:
        """Sinks currently attached."""
        with self._cond:
            return len(self._sinks)

    def tail(self, n: int = 20) -> List[Event]:
        """The most recent ``n`` events (oldest first)."""
        if n < 0:
            raise ValueError("n cannot be negative")
        with self._cond:
            recent = list(self._recent)
        return recent[-n:] if n else []

    def stats(self) -> Dict[str, Any]:
        """JSON-pure rollup: counts by kind, totals, drop accounting.

        This is what the status server's ``status`` response carries;
        keeping it cheap (no iteration over retained events) is what
        lets a live query never perturb the producers.
        """
        with self._cond:
            counts = dict(self._counts)
            return {
                "counts": counts,
                "total": sum(counts.values()),
                "dropped_events": self._dropped,
                "sink_errors": self._sink_errors,
                "queue_depth": len(self._pending),
                "sinks": len(self._sinks),
                "samples_total": self._samples_total,
                "stalls_total": self._stalls_total,
                "quality_flags_total": counts.get("quality_flag", 0),
                "started_unix_s": self._started_unix_s,
                "last_event_unix_s": self._last_event_unix_s,
                "last_heartbeat_unix_s": dict(self._last_heartbeat),
            }

    def reset(self) -> None:
        """Forget all events, counters, and sinks (tests, fork children).

        Sinks are dropped *without* closing them: after ``fork`` the
        child shares file descriptors with the parent, and closing
        them here would yank the parent's sinks out from under it.
        The threading state is rebuilt outright - a forked child
        inherits the parent's drainer as a dead Thread object (and,
        worst case, a lock an unforked thread held), and keeping
        either would wedge the child's bus permanently.
        """
        self._cond = threading.Condition()
        with self._cond:
            self._pending.clear()
            self._recent.clear()
            self._sinks = []
            self._dropped = 0
            self._sink_errors = 0
            self._seq = 0
            self._counts = {}
            self._samples_total = 0
            self._stalls_total = 0
            self._started_unix_s = time.time()
            self._last_event_unix_s = 0.0
            self._last_heartbeat = {}
            self._source = self._default_source
            self._drainer = None
            self._draining = False
            self._closed = False


def export_gauges(registry=None, source: Optional[EventBus] = None) -> None:
    """Publish the bus's health counters as metrics gauges.

    Called at export time (``repro profile --metrics-out``/``--ledger``,
    the obs snapshot commands) rather than on every emit, so the hot
    path never touches the metrics registry.  The gauges land in both
    exporters (Prometheus text and JSON snapshots) and from there in
    the dashboard's bus-health tiles:

    * ``eventbus_dropped_events`` — events discarded because the
      delivery queue was full (producers are never blocked).
    * ``eventbus_queue_depth`` — current sink-delivery backlog (the
      queue is shared by all sinks; see :attr:`EventBus.queue_depth`).
    * ``eventbus_sink_errors`` — exceptions swallowed from sink writes.
    * ``eventbus_sinks`` — sinks currently attached.
    """
    if registry is None:
        from . import metrics as registry  # the process-global registry
    b = source if source is not None else bus
    registry.gauge(
        "eventbus_dropped_events",
        "events discarded because the sink-delivery queue was full",
    ).set(float(b.dropped_events))
    registry.gauge(
        "eventbus_queue_depth",
        "events admitted but not yet delivered to sinks (shared queue)",
    ).set(float(b.queue_depth))
    registry.gauge(
        "eventbus_sink_errors", "exceptions swallowed from sink writes"
    ).set(float(b.sink_errors))
    registry.gauge(
        "eventbus_sinks", "sinks currently attached to the bus"
    ).set(float(b.sink_count))


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
