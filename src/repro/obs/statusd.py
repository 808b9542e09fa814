"""``statusd``: a line-JSON status server over the live event bus.

The ROADMAP's campaign daemon speaks an ``eab``-style protocol: one
JSON object per line, request in, response out, over a plain TCP
socket.  This module implements the observability half of that
protocol against a live :class:`repro.obs.events.EventBus`, so an
in-flight profiling run can be interrogated from another thread,
process, or machine without touching the producer:

=============  ==========================================================
request        response
=============  ==========================================================
``status``     bus rollup (event counts, heartbeats) + process
               identity (pid, uptime) + producer-supplied
               extras (the campaign daemon's jobs)
``metrics``    the process's span rollup (:meth:`Tracer.aggregate`):
               each stage's count, time and summed work attributes
``tail``       the last ``n`` events (``{"req": "tail", "n": 10}``)
``health``     liveness verdict: ``healthy`` plus seconds since the
               last event
=============  ==========================================================

Every response carries ``"ok": true/false``; malformed requests get
``{"ok": false, "error": ...}`` rather than a dropped connection.
All stdlib (:mod:`socketserver`, daemon threads); binding port 0
picks an ephemeral port, published as :attr:`StatusServer.port`.
"""

from __future__ import annotations

import json
import os
import socket
import socketserver
import threading
import time
from typing import Any, Callable, Dict, Optional, Tuple

from .events import EventBus
from .trace import Tracer

PROTOCOL = "repro-obs-statusd"
PROTOCOL_VERSION = 1

#: ``health`` reports unhealthy once the bus has been silent this long
#: (after having seen at least one event).
DEFAULT_STALL_AFTER_S = 10.0

_MAX_TAIL = 1000


class _Handler(socketserver.StreamRequestHandler):
    """One connection: read request lines, write response lines."""

    server: "_TCPServer"

    def handle(self) -> None:
        while True:
            try:
                raw = self.rfile.readline()
            except OSError:
                return
            if not raw:
                return
            line = raw.decode("utf-8", errors="replace").strip()
            if not line:
                continue
            try:
                request = json.loads(line)
            except json.JSONDecodeError as exc:
                if not self._respond({"ok": False, "error": f"bad JSON: {exc}"}):
                    return
                continue
            if not isinstance(request, dict):
                if not self._respond(
                    {"ok": False, "error": "request must be a JSON object"}
                ):
                    return
                continue
            response = self.server.owner.answer(request)
            if not self._respond(response):
                return

    def _respond(self, payload: Dict[str, Any]) -> bool:
        try:
            self.wfile.write(
                (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
            )
            return True
        except OSError:
            return False


class _TCPServer(socketserver.ThreadingTCPServer):
    daemon_threads = True
    allow_reuse_address = True
    owner: "StatusServer"


class StatusServer:
    """Serve line-JSON status queries against a live bus.

    Args:
        bus: the event bus to observe.
        tracer: a :class:`repro.obs.trace.Tracer` whose
            :meth:`~repro.obs.trace.Tracer.aggregate` the ``metrics``
            request serves, or None to omit.
        host / port: bind address; port 0 picks an ephemeral port.
        extra_status: optional zero-argument callable whose dict is
            merged into the ``status`` response under ``"extra"`` -
            the campaign daemon wires its job table here.
        extra_requests: optional map of extra request verbs to
            handlers (``request dict -> response dict``); consulted
            after the built-in verbs miss, so a producer can extend
            the protocol (the campaign daemon adds ``submit`` /
            ``cancel`` / ``drain`` / ``shutdown`` this way) without
            subclassing.  A handler that raises becomes an
            ``{"ok": false, "error": ...}`` response.
        stall_after_s: silence threshold for the ``health`` verdict.

    Use as a context manager, or call :meth:`start` / :meth:`close`.
    """

    def __init__(
        self,
        bus: EventBus,
        tracer: Optional[Tracer] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        extra_status: Optional[Callable[[], Dict[str, Any]]] = None,
        extra_requests: Optional[
            Dict[str, Callable[[Dict[str, Any]], Dict[str, Any]]]
        ] = None,
        stall_after_s: float = DEFAULT_STALL_AFTER_S,
    ):
        self.bus = bus
        self.tracer = tracer
        self.host = host
        self._requested_port = int(port)
        self.extra_status = extra_status
        self.extra_requests = dict(extra_requests or {})
        self.stall_after_s = float(stall_after_s)
        self.started_unix_s = 0.0
        self._server: Optional[_TCPServer] = None
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle -----------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (meaningful after :meth:`start`)."""
        if self._server is not None:
            return self._server.server_address[1]
        return self._requested_port

    @property
    def address(self) -> Tuple[str, int]:
        """``(host, port)`` clients should connect to."""
        return (self.host, self.port)

    def start(self) -> "StatusServer":
        """Bind and serve on a daemon thread; returns self."""
        if self._server is not None:
            return self
        self._server = _TCPServer((self.host, self._requested_port), _Handler)
        self._server.owner = self
        self.started_unix_s = time.time()
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-obs-statusd",
            daemon=True,
        )
        self._thread.start()
        return self

    def close(self) -> None:
        """Stop serving and release the socket."""
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None

    def __enter__(self) -> "StatusServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- request dispatch ----------------------------------------------------

    def answer(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """The response object for one request."""
        req = request.get("req")
        if req == "status":
            return self._status()
        if req == "metrics":
            rollup = self.tracer.aggregate() if self.tracer is not None else None
            return {"ok": True, "metrics": rollup}
        if req == "tail":
            try:
                n = int(request.get("n", 20))
            except (TypeError, ValueError):
                return {"ok": False, "error": "tail n must be an integer"}
            if n < 0:
                return {"ok": False, "error": "tail n cannot be negative"}
            events = self.bus.tail(min(n, _MAX_TAIL))
            return {"ok": True, "events": [e.to_dict() for e in events]}
        if req == "health":
            return self._health()
        handler = self.extra_requests.get(req)
        if handler is not None:
            try:
                return handler(request)
            except Exception as exc:
                # A producer-supplied verb must not be able to take
                # down the server thread or drop the connection.
                return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        verbs = ", ".join(
            ["status", "metrics", "tail", "health"]
            + sorted(self.extra_requests)
        )
        return {
            "ok": False,
            "error": f"unknown request {req!r}; expected one of: {verbs}",
        }

    def _status(self) -> Dict[str, Any]:
        response: Dict[str, Any] = {
            "ok": True,
            "protocol": PROTOCOL,
            "protocol_version": PROTOCOL_VERSION,
            "pid": os.getpid(),
            "uptime_s": max(0.0, time.time() - self.started_unix_s),
            "events": self.bus.stats(),
        }
        if self.extra_status is not None:
            try:
                response["extra"] = dict(self.extra_status())
            except Exception as exc:
                # The producer's status hook must not be able to take
                # down a status query; report the failure instead.
                response["extra"] = {"error": str(exc)}
        return response

    def _health(self) -> Dict[str, Any]:
        stats = self.bus.stats()
        last = float(stats.get("last_event_unix_s") or 0.0)
        now = time.time()
        since_last = now - last if last > 0 else None
        stalled = bool(
            since_last is not None and since_last > self.stall_after_s
        )
        return {
            "ok": True,
            "healthy": not stalled,
            "stalled": stalled,
            "since_last_event_s": since_last,
            "events_total": stats.get("total", 0),
        }


# ---------------------------------------------------------------------------
# clients
# ---------------------------------------------------------------------------


def query(
    host: str, port: int, request: Dict[str, Any], timeout_s: float = 5.0
) -> Dict[str, Any]:
    """One request/response round trip; returns the response object.

    Raises:
        OSError: connection problems (no server, refused, timeout).
        ValueError: the server's response line was not valid JSON.
    """
    with socket.create_connection((host, int(port)), timeout=timeout_s) as sock:
        sock.sendall(
            (json.dumps(request, sort_keys=True) + "\n").encode("utf-8")
        )
        reader = sock.makefile("r", encoding="utf-8")
        line = reader.readline()
    if not line.strip():
        raise ValueError("status server closed the connection mid-response")
    payload = json.loads(line)
    if not isinstance(payload, dict):
        raise ValueError("status server response is not a JSON object")
    return payload


def parse_address(address: str, default_port: int = 0) -> Tuple[str, int]:
    """Parse ``HOST:PORT`` (or bare ``PORT``) into ``(host, port)``.

    Raises:
        ValueError: the port is missing or not an integer.
    """
    text = address.strip()
    if ":" in text:
        host, _, port_text = text.rpartition(":")
    else:
        host, port_text = "", text
    try:
        port = int(port_text)
    except ValueError as exc:
        raise ValueError(f"bad address {address!r}; expected HOST:PORT") from exc
    return (host or "127.0.0.1", port)
