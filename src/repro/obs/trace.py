"""Span-based tracing for the EMPROF pipeline.

A *span* is one timed, named region of execution (``normalize``,
``detect``, ``sim.run`` ...) with optional attributes (sample counts,
stall counts).  Spans nest: the tracer keeps a per-thread stack, so a
``detect`` span entered while a ``profile`` span is open records
``profile`` as its parent.  The result is a flat list of records that
exports losslessly to JSON and to the Chrome ``chrome://tracing`` /
Perfetto event format.

The tracer is process-global (:data:`repro.obs.trace`), thread-safe,
and - like everything in this package - inert unless ``EMPROF_OBS``
is enabled: :meth:`Tracer.span` returns a shared do-nothing context
manager, so instrumented code pays one flag check and nothing else.

Usage::

    from repro.obs import trace

    with trace.span("detect", samples=len(x)):
        ...

    @trace.instrumented("experiment")  # late-binding decorator form
    def run_experiment(...): ...
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import inspect
import json
import os
import threading
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    TypeVar,
)

from . import runtime
from .events import bus

F = TypeVar("F", bound=Callable[..., Any])

#: Hard cap on retained spans; beyond it new spans are counted but
#: dropped, so an unbounded streaming run cannot exhaust memory.
DEFAULT_MAX_SPANS = 200_000

_ATTR_TYPES = (str, int, float, bool)


def _clean_attrs(attrs: Dict[str, Any]) -> Dict[str, Any]:
    """Coerce attribute values to JSON-safe scalars."""
    return {
        key: value if isinstance(value, _ATTR_TYPES) else str(value)
        for key, value in attrs.items()
    }


def rollup(
    spans: Iterable[Tuple[str, float, Dict[str, Any]]]
) -> Dict[str, Dict[str, Any]]:
    """Per-name rollup of ``(name, duration_s, attrs)`` spans.

    Each row holds ``count``, ``total_s``, ``mean_s`` and ``sums``: the
    total of every integer-valued attribute (bools excluded) across
    the name's spans, e.g. ``profile``'s ``stalls`` or ``sim.run``'s
    ``instructions`` - how much work each stage did.
    """
    out: Dict[str, Dict[str, Any]] = {}
    for name, duration_s, attrs in spans:
        row = out.get(name)
        if row is None:
            row = out[name] = {"count": 0, "total_s": 0.0, "sums": {}}
        row["count"] += 1
        row["total_s"] += duration_s
        sums = row["sums"]
        for key, value in attrs.items():
            if type(value) is int:
                sums[key] = sums.get(key, 0) + value
    for row in out.values():
        row["mean_s"] = row["total_s"] / row["count"]
    return out


@dataclass(frozen=True)
class SpanRecord:
    """One completed span.

    Attributes:
        span_id: unique id within the tracer's lifetime.
        parent_id: id of the enclosing span on the same thread, or
            None for a root span.
        name: the region's name.
        begin_s / end_s: seconds since the tracer's origin (a
            monotonic clock; wall-clock anchoring is deliberately not
            attempted).
        depth: nesting depth on its thread (0 for roots).
        thread_id: ``threading.get_ident()`` of the recording thread.
        attrs: user-supplied attributes.
        worker: label of the forked campaign worker that recorded the
            span (see :meth:`Tracer.adopt`), or None for this process.
    """

    span_id: int
    parent_id: Optional[int]
    name: str
    begin_s: float
    end_s: float
    depth: int
    thread_id: int
    attrs: Dict[str, Any] = field(default_factory=dict)
    worker: Optional[str] = None

    @property
    def duration_s(self) -> float:
        """Span length in seconds."""
        return self.end_s - self.begin_s

    def to_dict(self) -> Dict[str, Any]:
        """JSON-pure representation (the JSON exporter's row format)."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "begin_s": self.begin_s,
            "end_s": self.end_s,
            "duration_s": self.duration_s,
            "depth": self.depth,
            "thread_id": self.thread_id,
            "attrs": dict(self.attrs),
            "worker": self.worker,
        }


class _NullSpan:
    """Shared no-op span: the disabled fast path."""

    __slots__ = ()

    #: A disabled span has no id for children to hang under.
    span_id = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        return False

    def set_attr(self, **attrs: Any) -> None:
        """Ignore attributes (tracing is disabled)."""


_NULL_SPAN = _NullSpan()


class _ActiveSpan:
    """An open span; created only when tracing is enabled."""

    __slots__ = (
        "_tracer",
        "_name",
        "_attrs",
        "_begin_s",
        "_span_id",
        "_parent_id",
        "_depth",
        "_mem_begin",
    )

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]):
        self._tracer = tracer
        self._name = name
        self._attrs = attrs

    @property
    def span_id(self) -> Optional[int]:
        """The span's id once entered (what children record as parent)."""
        return getattr(self, "_span_id", None)

    def set_attr(self, **attrs: Any) -> None:
        """Attach attributes discovered mid-span (e.g. result counts)."""
        self._attrs.update(attrs)

    def __enter__(self) -> "_ActiveSpan":
        tracer = self._tracer
        stack = tracer._stack()
        self._parent_id = stack[-1][0] if stack else None
        self._depth = len(stack)
        self._span_id = tracer._allocate_id()
        stack.append((self._span_id, self._name))
        if tracer.capture_memory and tracemalloc.is_tracing():
            # Per-span high-water: reset the shared peak on entry, so
            # the peak read on exit is "since this span began".  Note
            # the caveat: nested spans share tracemalloc's single peak
            # counter, so an inner span's entry re-anchors the outer
            # span's window too (documented in profilehooks).
            tracemalloc.reset_peak()
            self._mem_begin = tracemalloc.get_traced_memory()[0]
        else:
            self._mem_begin = None
        self._begin_s = time.perf_counter() - tracer._origin
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        tracer = self._tracer
        end = time.perf_counter() - tracer._origin
        if self._mem_begin is not None and tracemalloc.is_tracing():
            current, peak = tracemalloc.get_traced_memory()
            self._attrs["mem_peak_bytes"] = int(peak)
            self._attrs["mem_alloc_bytes"] = int(current - self._mem_begin)
        stack = tracer._stack()
        if stack and stack[-1][0] == self._span_id:
            stack.pop()
        tracer._record(
            SpanRecord(
                span_id=self._span_id,
                parent_id=self._parent_id,
                name=self._name,
                begin_s=self._begin_s,
                end_s=end,
                depth=self._depth,
                thread_id=threading.get_ident(),
                attrs=_clean_attrs(self._attrs),
            )
        )
        return False


class Tracer:
    """Thread-safe span collector with JSON and Chrome exporters.

    One process-global instance lives at :data:`repro.obs.trace`;
    constructing private tracers (for tests, or to trace one workload
    in isolation) is supported and cheap.
    """

    def __init__(self, max_spans: int = DEFAULT_MAX_SPANS):
        if max_spans < 1:
            raise ValueError("max_spans must be at least 1")
        self.max_spans = int(max_spans)
        #: When True (see :mod:`repro.obs.profilehooks`), every span
        #: records tracemalloc high-water marks into its attrs.
        self.capture_memory = False
        self._lock = threading.Lock()
        self._local = threading.local()
        self._spans: List[SpanRecord] = []
        self._dropped = 0
        self._next_id = 0
        self._origin = time.perf_counter()

    # -- recording ---------------------------------------------------------

    def _stack(self) -> List[Tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _allocate_id(self) -> int:
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        return span_id

    def _record(self, record: SpanRecord) -> None:
        with self._lock:
            if len(self._spans) >= self.max_spans:
                self._dropped += 1
            else:
                self._spans.append(record)

    def drain(self) -> Tuple[List[SpanRecord], int]:
        """Take the completed spans and the dropped count, clearing both.

        A forked campaign worker drains after each run and sends the
        result to its supervisor, whose tracer :meth:`adopt`-s it.
        """
        with self._lock:
            spans, self._spans = self._spans, []
            dropped, self._dropped = self._dropped, 0
        return spans, dropped

    def adopt(
        self,
        records: List[SpanRecord],
        parent_id: Optional[int],
        worker: str,
        dropped: int,
    ) -> None:
        """Record another process's drained spans as this tracer's own.

        Each span gets a fresh id; spans whose parent is not among
        ``records`` (the other process's roots) hang under
        ``parent_id``; every span is tagged with ``worker``.  The
        sender must share this tracer's time origin, as a forked child
        does (:meth:`reset` keeps it), so times need no shifting.
        ``dropped`` adds the sender's own overflow count.
        """
        with self._lock:
            self._dropped += dropped
            ids: Dict[int, int] = {}
            for record in records:
                ids[record.span_id] = self._next_id
                self._next_id += 1
            for record in records:
                if len(self._spans) >= self.max_spans:
                    self._dropped += 1
                    continue
                self._spans.append(
                    dataclasses.replace(
                        record,
                        span_id=ids[record.span_id],
                        parent_id=ids.get(record.parent_id, parent_id),
                        worker=worker,
                    )
                )

    @contextlib.contextmanager
    def within(self, span: Any) -> Iterator[None]:
        """Open this thread's spans under ``span``, entered on any thread.

        Spans nest per thread, so a span opened on one thread is not
        the parent of spans opened on another.  Inside this block it
        is, unless it is already this thread's innermost span.  A
        disabled (null) span changes nothing.
        """
        stack = self._stack()
        if span.span_id is None or (stack and stack[-1][0] == span.span_id):
            yield
            return
        stack.append((span.span_id, span._name))
        try:
            yield
        finally:
            stack.pop()

    def span(self, name: str, **attrs: Any):
        """Open a span; use as ``with trace.span("detect", samples=n):``.

        Returns the shared no-op span when observability is disabled,
        so the call costs one flag check on the hot path.
        """
        if not runtime._enabled:
            return _NULL_SPAN
        return _ActiveSpan(self, name, dict(attrs))

    def instrumented(
        self,
        name: Optional[str] = None,
        attrs: Optional[Callable[..., Dict[str, Any]]] = None,
        on_exit: Optional[Callable[..., Optional[Dict[str, Any]]]] = None,
        run_events: bool = False,
    ) -> Callable[[F], F]:
        """Decorator owning one entry point's span and run events.

        The enabled flag is consulted at each call (late binding), so
        instrumentation toggled on after import still takes effect;
        disabled, a call costs one flag check.  Enabled, a call:

        * opens the span ``name`` (default: the function's qualified
          name) with ``attrs(**arguments)`` as its attributes, where
          ``arguments`` are the call's bound arguments;
        * on return, calls ``on_exit(result, elapsed_s, attributes)``;
          the attributes it returns (result counts) are added to the
          span;
        * with ``run_events``, brackets the call with ``run_started``
          and ``run_finished`` bus events (``op=name``) carrying the
          span's attributes.
        """

        def decorate(func: F) -> F:
            span_name = name if name is not None else func.__qualname__
            signature = inspect.signature(func) if attrs is not None else None

            @functools.wraps(func)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                if not runtime._enabled:
                    return func(*args, **kwargs)
                fields: Dict[str, Any] = {}
                if signature is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    fields = attrs(**bound.arguments)
                if run_events:
                    bus.emit("run_started", op=span_name, **fields)
                begin = time.perf_counter()
                with self.span(span_name, **fields) as span:
                    result = func(*args, **kwargs)
                    if on_exit is not None:
                        extra = on_exit(result, time.perf_counter() - begin, fields)
                        if extra:
                            span.set_attr(**extra)
                            fields = {**fields, **extra}
                if run_events:
                    bus.emit("run_finished", op=span_name, **fields)
                return result

            return wrapper  # type: ignore[return-value]

        return decorate

    # -- inspection --------------------------------------------------------

    def records(self) -> List[SpanRecord]:
        """Completed spans, in completion order (a copy)."""
        with self._lock:
            return list(self._spans)

    @property
    def dropped(self) -> int:
        """Spans discarded because ``max_spans`` was reached."""
        with self._lock:
            return self._dropped

    def by_name(self, name: str) -> List[SpanRecord]:
        """Completed spans named ``name``."""
        return [r for r in self.records() if r.name == name]

    def subtree(self, span_id: int) -> "Tracer":
        """A detached tracer holding span ``span_id`` and its descendants.

        It shares this tracer's time origin and dropped count, so
        writing it gives the trace of one region of a long-lived
        process - a campaign pass - without the spans recorded before
        or beside it.
        """
        records = self.records()
        children: Dict[Optional[int], List[int]] = {}
        for record in records:
            children.setdefault(record.parent_id, []).append(record.span_id)
        keep = {span_id}
        frontier = [span_id]
        while frontier:
            for child in children.get(frontier.pop(), ()):
                keep.add(child)
                frontier.append(child)
        out = Tracer(self.max_spans)
        out._origin = self._origin
        out._dropped = self.dropped
        out._spans = [r for r in records if r.span_id in keep]
        return out

    def aggregate(self) -> Dict[str, Dict[str, Any]]:
        """Per-name rollup of the completed spans (see :func:`rollup`)."""
        return rollup((r.name, r.duration_s, r.attrs) for r in self.records())

    def reset(self) -> None:
        """Discard all spans and open-span stacks and restart ids.

        The time origin is kept, so a forked campaign worker that
        resets still records on its supervisor's clock.  The stacks
        are rebuilt because such a worker inherits the parent's open
        spans (the campaign span is active at fork time), and its
        fresh root span must not take a stale parent from them.
        """
        with self._lock:
            self._spans = []
            self._dropped = 0
            self._next_id = 0
            self._local = threading.local()

    # -- exporters ---------------------------------------------------------

    def to_payload(self) -> Dict[str, Any]:
        """The JSON exporter's document (a JSON-pure dict).

        Version 3 drops version 2's per-process identity block (a
        campaign pass now writes one trace holding its workers' spans)
        and adds each span row's ``worker``.  Readers that use only
        ``spans``/``dropped`` read all three versions.
        """
        with self._lock:
            spans = list(self._spans)
            dropped = self._dropped
        return {
            "format": "repro-obs-trace",
            "version": 3,
            "dropped": dropped,
            "spans": [r.to_dict() for r in spans],
        }

    def export_json(self, indent: Optional[int] = 2) -> str:
        """Serialize all spans as the native JSON document."""
        return json.dumps(self.to_payload(), indent=indent)

    def export_chrome(self, indent: Optional[int] = None) -> str:
        """Serialize as Chrome ``chrome://tracing`` JSON.

        Load the file via chrome://tracing "Load" or https://ui.perfetto.dev;
        spans appear as complete ("ph": "X") events, one track per thread.
        Each forked worker's adopted spans get a track of their own,
        named after the worker: its main thread shares the supervisor's
        thread ident, so ``thread_id`` alone would merge the two.
        """
        pid = os.getpid()
        events: List[Dict[str, Any]] = []
        worker_tids: Dict[str, int] = {}
        for record in self.records():
            tid = record.thread_id
            if record.worker is not None:
                if record.worker not in worker_tids:
                    # Small ids: no clash with pthread idents (addresses).
                    worker_tids[record.worker] = len(worker_tids) + 1
                    events.append(
                        {
                            "name": "thread_name",
                            "ph": "M",
                            "pid": pid,
                            "tid": worker_tids[record.worker],
                            "args": {"name": record.worker},
                        }
                    )
                tid = worker_tids[record.worker]
            events.append(
                {
                    "name": record.name,
                    "ph": "X",
                    "ts": record.begin_s * 1e6,
                    "dur": record.duration_s * 1e6,
                    "pid": pid,
                    "tid": tid,
                    "args": dict(record.attrs),
                }
            )
        return json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}, indent=indent)

    def write(self, path: str, fmt: str = "json") -> None:
        """Write the trace to ``path`` in ``fmt`` ('json' or 'chrome')."""
        if fmt == "json":
            payload = self.export_json()
        elif fmt == "chrome":
            payload = self.export_chrome()
        else:
            raise ValueError(f"unknown trace format {fmt!r}; use 'json' or 'chrome'")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(payload)
