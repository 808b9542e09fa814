"""``repro-campaignd``: profiling-as-a-service over supervised campaigns.

The ROADMAP's item 1 end state: a long-running daemon that accepts
measurement jobs over the :mod:`repro.obs.statusd` line-JSON protocol,
executes each as a supervised multi-worker :class:`Campaign` pass
(worker watchdog, requeue, quarantine - see ``docs/service.md``), and
answers concurrent ``status`` queries while a pass runs.  One JSON
object per line, request in, response out, over plain TCP - the same
``eab``-style protocol shape the status server already speaks, which
this module *extends* with four verbs rather than reimplementing:

=============  ==========================================================
request        response
=============  ==========================================================
``submit``     enqueue a job: ``{"req": "submit", "runs": [...]}`` or
               ``{"req": "submit", "matrix": {...}}`` (cross product);
               replies ``{"ok": true, "job": "job0001", "runs": N}``
``status``     the standard status document plus a ``service`` block:
               job table, active job's live queue snapshot, drain flag
``cancel``     ``{"req": "cancel", "job": "job0001"}``: a queued job is
               dropped; a running one has its leased workers killed and
               their runs persisted as ``interrupted`` for a later pass
``drain``      stop accepting submits, finish every accepted job, exit
``shutdown``   stop accepting submits, finish only currently *leased*
               runs (checkpointing the rest), cancel queued jobs, exit
=============  ==========================================================

``SIGTERM`` is a graceful shutdown: the handler only sets a flag (no
locks, no I/O - the emlint signal-handler rule enforces this shape),
a watcher thread performs the actual drain, and the process exits 0
with every in-flight run either committed or checkpointed as
``interrupted`` in its job's manifest.

Durability is the campaign layer's: each job runs in its own
subdirectory (reusable via ``"dir"`` for resume), every run commits
through the manifest/outcome-file discipline, and requeue/quarantine
incidents land in the service's run ledger as they happen.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import signal
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

from ..errors import ServiceError
from ..obs import ledger as obs_ledger
from ..obs import statusd
from ..obs import trace as _trace
from ..obs.events import bus as _event_bus
from .campaign import Campaign, CampaignExecution, RunSpec
from .runner import RetryPolicy, SimulatedCaptureSource

#: Run-payload keys understood by :func:`build_specs` /
#: :func:`expand_matrix` (everything but ``name``/``timeout_s`` maps
#: onto a :class:`SimulatedCaptureSource` field).
RUN_KEYS = (
    "workload",
    "device",
    "tm",
    "cm",
    "scale",
    "seed",
    "bandwidth_mhz",
)

_JOB_STATES = ("queued", "running", "done", "failed", "cancelled")


def expand_matrix(matrix: Mapping[str, Any]) -> List[Dict[str, Any]]:
    """Cross-product a ``submit`` matrix into one run payload per cell.

    List-valued fields become axes; scalars are broadcast.  Each cell
    gets a deterministic filesystem-safe ``name`` built from its
    coordinates.

    Raises:
        ServiceError: unknown key or an empty axis.
    """
    allowed = RUN_KEYS + ("timeout_s",)
    keys: List[str] = []
    axes: List[List[Any]] = []
    for key, value in matrix.items():
        if key not in allowed:
            raise ServiceError(
                f"unknown matrix key {key!r}; expected one of "
                f"{', '.join(allowed)}"
            )
        values = list(value) if isinstance(value, (list, tuple)) else [value]
        if not values:
            raise ServiceError(f"matrix axis {key!r} is empty")
        keys.append(key)
        axes.append(values)
    runs: List[Dict[str, Any]] = []
    for combo in itertools.product(*axes):
        run: Dict[str, Any] = dict(zip(keys, combo))
        cell = "-".join(f"{k}{v}" for k, v in zip(keys, combo))
        run["name"] = cell.replace("/", "_").replace(" ", "_") or "run"
        runs.append(run)
    return runs


def build_specs(
    runs: List[Mapping[str, Any]],
    default_timeout_s: Optional[float] = None,
) -> List[RunSpec]:
    """Turn ``submit`` run payloads into picklable :class:`RunSpec`.

    Every source is a :class:`SimulatedCaptureSource` built via
    ``functools.partial`` from plain scalars, so specs survive any
    worker start method, not just fork inheritance.

    Raises:
        ServiceError: malformed payloads (wrong types, duplicate or
            unsafe names, unknown keys).
    """
    if not isinstance(runs, (list, tuple)) or not runs:
        raise ServiceError("submit needs a non-empty list of runs")
    specs: List[RunSpec] = []
    seen: set = set()
    for index, payload in enumerate(runs):
        if not isinstance(payload, Mapping):
            raise ServiceError(f"run #{index} is not a JSON object")
        unknown = set(payload) - set(RUN_KEYS) - {"name", "timeout_s"}
        if unknown:
            raise ServiceError(
                f"run #{index} has unknown keys: {', '.join(sorted(unknown))}"
            )
        name = str(payload.get("name") or f"run{index:04d}")
        if "/" in name or name in (".", ".."):
            raise ServiceError(f"run name {name!r} is not filesystem-safe")
        if name in seen:
            raise ServiceError(f"duplicate run name {name!r}")
        seen.add(name)
        try:
            factory = functools.partial(
                SimulatedCaptureSource,
                workload=str(payload.get("workload", "micro")),
                device=str(payload.get("device", "olimex")),
                tm=int(payload.get("tm", 16)),
                cm=int(payload.get("cm", 16)),
                scale=float(payload.get("scale", 1.0)),
                seed=int(payload.get("seed", 0)),
                bandwidth_mhz=float(payload.get("bandwidth_mhz", 40.0)),
            )
            timeout = payload.get("timeout_s", default_timeout_s)
            timeout_s = None if timeout is None else float(timeout)
        except (TypeError, ValueError) as exc:
            raise ServiceError(f"run {name!r}: {exc}") from exc
        specs.append(
            RunSpec(name=name, source_factory=factory, timeout_s=timeout_s)
        )
    return specs


@dataclass
class Job:
    """One submitted campaign pass and its lifecycle bookkeeping."""

    id: str
    name: str
    directory: str
    specs: List[RunSpec]
    state: str = "queued"  # one of _JOB_STATES
    submitted_unix_s: float = field(default_factory=time.time)
    started_unix_s: Optional[float] = None
    finished_unix_s: Optional[float] = None
    counts: Optional[Dict[str, int]] = None
    completed: Optional[bool] = None
    error: Optional[str] = None
    execution: Optional[CampaignExecution] = None

    def summary(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "id": self.id,
            "name": self.name,
            "dir": self.directory,
            "state": self.state,
            "runs": len(self.specs),
            "submitted_unix_s": self.submitted_unix_s,
        }
        for key in ("started_unix_s", "finished_unix_s", "counts",
                    "completed", "error"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        if self.execution is not None:
            out["queue"] = self.execution.snapshot()
        return out


class CampaignService:
    """The daemon: a job queue of supervised campaign passes.

    One worker thread executes jobs FIFO (each job itself fans out
    across ``workers`` forked processes under the campaign
    supervisor); the embedded :class:`repro.obs.statusd.StatusServer`
    answers protocol requests concurrently, including while a pass is
    mid-flight.  All verb handlers run on server threads and only
    touch state under the service lock, so a wedged campaign can still
    be interrogated and cancelled.

    Args:
        directory: service root; each job runs in a subdirectory.
        host / port: bind address for the protocol socket (port 0
            picks an ephemeral port, published as :attr:`address`).
        workers: forked workers per campaign pass (at least one even
            at ``workers=1``: passes always run isolated).
        retry / max_attempts / job_timeout_s / heartbeat_interval_s /
            heartbeat_timeout_s: supervisor knobs, passed through to
            every :class:`Campaign` (see its docstring).
        ledger: run-ledger path; defaults to ``LEDGER_obs.jsonl``
            inside ``directory``.
        flight / flight_retain: per-run flight recording and sidecar
            retention cap, passed through to every :class:`Campaign`.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        retry: Optional[RetryPolicy] = None,
        max_attempts: int = 3,
        job_timeout_s: Optional[float] = None,
        heartbeat_interval_s: float = 0.25,
        heartbeat_timeout_s: Optional[float] = None,
        ledger: Optional[Union[str, Path]] = None,
        flight: bool = False,
        flight_retain: Optional[int] = None,
    ):
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.host = host
        self._requested_port = int(port)
        self.workers = int(workers)
        self.retry = retry
        self.max_attempts = int(max_attempts)
        self.job_timeout_s = job_timeout_s
        self.heartbeat_interval_s = float(heartbeat_interval_s)
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.flight = bool(flight)
        self.flight_retain = flight_retain
        self.ledger_path = Path(
            ledger
            if ledger is not None
            else self.directory / obs_ledger.DEFAULT_LEDGER_NAME
        )
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._jobs: Dict[str, Job] = {}
        self._order: List[str] = []
        self._active: Optional[Job] = None
        self._next_job = 1
        self._draining = False
        self._shutdown = False
        self._sigterm = threading.Event()
        self._exited = threading.Event()
        self._server: Optional[statusd.StatusServer] = None
        self._runner: Optional[threading.Thread] = None
        self._watcher: Optional[threading.Thread] = None

    # -- lifecycle -----------------------------------------------------------

    @property
    def address(self):
        """``(host, port)`` clients should connect to (after start)."""
        if self._server is None:
            return (self.host, self._requested_port)
        return self._server.address

    def start(self) -> "CampaignService":
        """Bind the protocol socket and start the job runner thread."""
        if self._server is not None:
            raise ServiceError("service already started")
        self._server = statusd.StatusServer(
            _event_bus,
            tracer=_trace,
            host=self.host,
            port=self._requested_port,
            extra_status=self._service_status,
            extra_requests={
                "submit": self._req_submit,
                "cancel": self._req_cancel,
                "drain": self._req_drain,
                "shutdown": self._req_shutdown,
            },
        ).start()
        self._runner = threading.Thread(
            target=self._run_loop, name="campaignd-runner", daemon=True
        )
        self._runner.start()
        self._watcher = threading.Thread(
            target=self._signal_watch, name="campaignd-sigwatch", daemon=True
        )
        self._watcher.start()
        return self

    def install_signal_handlers(self) -> None:
        """Route SIGTERM/SIGINT to a graceful shutdown (main thread only).

        The handlers only set an Event - no locks, no allocation, no
        I/O - and the ``campaignd-sigwatch`` thread does the real work.
        """
        signal.signal(signal.SIGTERM, self._on_signal)
        signal.signal(signal.SIGINT, self._on_signal)

    def _on_signal(self, signum, frame) -> None:
        self._sigterm.set()

    def _signal_watch(self) -> None:
        while not self._exited.is_set():
            if self._sigterm.wait(timeout=0.1):
                self.begin_shutdown()
                return

    def wait(self, timeout_s: Optional[float] = None) -> bool:
        """Block until the runner exits (after drain/shutdown).

        Waits in short slices rather than one indefinite ``wait``: a
        process-directed SIGTERM may be picked up by *any* thread's C
        handler, and the Python-level handler only runs once the main
        thread re-enters the eval loop - a main thread parked forever
        in ``sem_wait`` would never process it and the daemon would
        ignore the signal.
        """
        deadline = (
            None if timeout_s is None else time.monotonic() + timeout_s
        )
        while True:
            if deadline is None:
                step = 0.2
            else:
                step = min(0.2, deadline - time.monotonic())
                if step <= 0:
                    return self._exited.is_set()
            if self._exited.wait(timeout=step):
                return True

    def close(self) -> None:
        """Tear down the socket (idempotent); does not wait for jobs."""
        # Swap-then-close under the lock: the runner thread's exit path
        # and the owner's close() may race, and StatusServer.close is
        # not safe to enter twice concurrently.
        with self._lock:
            server, self._server = self._server, None
        if server is not None:
            server.close()

    def __enter__(self) -> "CampaignService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.begin_shutdown()
        self.wait(timeout_s=60.0)
        self.close()

    # -- the job runner ------------------------------------------------------

    def _run_loop(self) -> None:
        try:
            while True:
                job: Optional[Job] = None
                with self._wake:
                    while True:
                        if self._shutdown:
                            break
                        job = self._next_queued_locked()
                        if job is not None:
                            job.state = "running"
                            job.started_unix_s = time.time()
                            self._active = job
                            break
                        if self._draining:
                            break
                        self._wake.wait(timeout=0.2)
                if job is None:
                    return
                self._execute(job)
        finally:
            self._cancel_queued("service exited")
            self._exited.set()
            self.close()

    def _next_queued_locked(self) -> Optional[Job]:
        for job_id in self._order:
            if self._jobs[job_id].state == "queued":
                return self._jobs[job_id]
        return None

    def _execute(self, job: Job) -> None:
        campaign = Campaign(
            self.directory / job.directory,
            retry=self.retry,
            ledger=obs_ledger.RunLedger(self.ledger_path),
            workers=self.workers,
            isolate=True,  # a crashing or wedged run must not take us down
            heartbeat_interval_s=self.heartbeat_interval_s,
            heartbeat_timeout_s=self.heartbeat_timeout_s,
            job_timeout_s=self.job_timeout_s,
            max_attempts=self.max_attempts,
            flight=self.flight,
            flight_retain=self.flight_retain,
        )
        cancelled = False
        try:
            execution = campaign.start(job.specs)
            with self._lock:
                job.execution = execution
                # A cancel/shutdown that raced the launch still lands.
                if job.state == "cancelled":
                    execution.request_stop("cancel")
                    cancelled = True
                elif self._shutdown:
                    execution.request_stop("drain")
            result = execution.join()
            with self._wake:
                cancelled = cancelled or job.state == "cancelled"
                job.counts = result.counts()
                job.completed = result.completed
                job.state = "cancelled" if cancelled else "done"
        except Exception as exc:  # noqa: BLE001 - daemon must survive any job
            with self._wake:
                job.state = "failed"
                job.error = f"{type(exc).__name__}: {exc}"
        finally:
            with self._wake:
                job.execution = None
                job.finished_unix_s = time.time()
                self._active = None
                self._wake.notify_all()

    def _cancel_queued(self, reason: str) -> None:
        with self._wake:
            for job_id in self._order:
                job = self._jobs[job_id]
                if job.state == "queued":
                    job.state = "cancelled"
                    job.error = reason
                    job.finished_unix_s = time.time()
            self._wake.notify_all()

    def begin_shutdown(self) -> None:
        """The SIGTERM / ``shutdown``-verb path (runs on any thread).

        Refuses new submits, cancels queued jobs, asks the active
        pass to finish only its leased runs, and lets the runner exit.
        """
        with self._wake:
            self._draining = True
            self._shutdown = True
            active = self._active
            self._wake.notify_all()
        self._cancel_queued("cancelled by shutdown")
        if active is not None and active.execution is not None:
            active.execution.request_stop("drain")

    # -- protocol verbs (run on status-server threads) -----------------------

    def _service_status(self) -> Dict[str, Any]:
        with self._lock:
            jobs = [self._jobs[job_id].summary() for job_id in self._order]
            active = self._active.id if self._active is not None else None
        return {
            "service": {
                "directory": str(self.directory),
                "workers": self.workers,
                "jobs": jobs,
                "active": active,
                "draining": self._draining,
                "shutting_down": self._shutdown,
                "exited": self._exited.is_set(),
            }
        }

    def _req_submit(self, request: Dict[str, Any]) -> Dict[str, Any]:
        runs = request.get("runs")
        matrix = request.get("matrix")
        if (runs is None) == (matrix is None):
            raise ServiceError(
                "submit needs exactly one of 'runs' (a list) or "
                "'matrix' (an object of axes)"
            )
        if matrix is not None:
            if not isinstance(matrix, Mapping):
                raise ServiceError("matrix must be a JSON object")
            runs = expand_matrix(matrix)
        timeout = request.get("timeout_s", self.job_timeout_s)
        specs = build_specs(runs, default_timeout_s=timeout)
        with self._wake:
            if self._draining or self._shutdown:
                raise ServiceError(
                    "service is draining; not accepting new jobs"
                )
            job_id = f"job{self._next_job:04d}"
            self._next_job += 1
            job = Job(
                id=job_id,
                name=str(request.get("name") or job_id),
                directory=str(request.get("dir") or job_id),
                specs=specs,
            )
            if "/" in job.directory or job.directory in (".", ".."):
                raise ServiceError(
                    f"job dir {job.directory!r} is not filesystem-safe"
                )
            self._jobs[job_id] = job
            self._order.append(job_id)
            self._wake.notify_all()
        return {"ok": True, "job": job_id, "runs": len(specs)}

    def _req_cancel(self, request: Dict[str, Any]) -> Dict[str, Any]:
        job_id = request.get("job")
        with self._wake:
            job = self._jobs.get(str(job_id))
            if job is None:
                raise ServiceError(f"unknown job {job_id!r}")
            if job.state in ("done", "failed", "cancelled"):
                return {
                    "ok": True,
                    "job": job.id,
                    "state": job.state,
                    "note": "already finished",
                }
            was_running = job.state == "running"
            job.state = "cancelled"
            execution = job.execution
            self._wake.notify_all()
        if was_running and execution is not None:
            # Kills leased workers; their runs persist as
            # "interrupted" (attempts intact) for a later pass.
            execution.request_stop("cancel")
        return {"ok": True, "job": job.id, "state": "cancelled"}

    def _req_drain(self, request: Dict[str, Any]) -> Dict[str, Any]:
        with self._wake:
            self._draining = True
            queued = sum(
                1 for j in self._jobs.values() if j.state == "queued"
            )
            self._wake.notify_all()
        return {"ok": True, "draining": True, "queued": queued}

    def _req_shutdown(self, request: Dict[str, Any]) -> Dict[str, Any]:
        self.begin_shutdown()
        return {"ok": True, "shutting_down": True}


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _serve(args: argparse.Namespace) -> int:
    retry = RetryPolicy(
        max_attempts=args.retry_attempts,
        backoff_base_s=args.retry_backoff_s,
    )
    service = CampaignService(
        args.dir,
        host=args.host,
        port=args.port,
        workers=args.workers,
        retry=retry,
        max_attempts=args.max_attempts,
        job_timeout_s=args.job_timeout_s,
        heartbeat_interval_s=args.heartbeat_interval_s,
        heartbeat_timeout_s=args.heartbeat_timeout_s,
        ledger=args.ledger,
        flight=args.flight,
        flight_retain=args.flight_retain,
    )
    service.start()
    service.install_signal_handlers()
    host, port = service.address
    print(
        json.dumps(
            {
                "ok": True,
                "daemon": "repro-campaignd",
                "address": f"{host}:{port}",
                "dir": str(service.directory),
                "workers": service.workers,
            },
            sort_keys=True,
        ),
        flush=True,
    )
    service.wait()
    print(json.dumps({"ok": True, "exited": True}, sort_keys=True))
    return 0


def _client(args: argparse.Namespace) -> int:
    try:
        host, port = statusd.parse_address(args.addr)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    request: Dict[str, Any] = {"req": args.verb}
    if args.verb == "submit":
        try:
            payload = json.loads(args.json)
        except json.JSONDecodeError as exc:
            print(f"bad --json payload: {exc}", file=sys.stderr)
            return 2
        if not isinstance(payload, dict):
            print("--json payload must be a JSON object", file=sys.stderr)
            return 2
        request.update(payload)
    if args.job is not None:
        request["job"] = args.job
    try:
        response = statusd.query(host, port, request, timeout_s=args.timeout)
    except (OSError, ValueError) as exc:
        print(f"cannot reach {host}:{port}: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(response, sort_keys=True, indent=2))
    return 0 if response.get("ok") else 1


DESCRIPTION = (
    "supervised campaign daemon: submit/status/cancel/drain/shutdown "
    "over line JSON"
)


def add_subcommands(parser: argparse.ArgumentParser) -> None:
    """Mount the daemon and its protocol clients on ``parser``.

    ``repro-campaignd`` (:func:`build_parser`) and ``repro campaignd``
    (the main CLI) both call this, so the two spellings are one tree.
    """
    sub = parser.add_subparsers(dest="verb", required=True)

    serve = sub.add_parser("serve", help="run the daemon")
    serve.add_argument("--dir", default="campaignd", help="service root")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="0 picks an ephemeral port (printed on stdout)")
    serve.add_argument("--workers", type=int, default=2,
                       help="forked, supervised workers per pass")
    serve.add_argument("--max-attempts", type=int, default=3,
                       help="execution starts before a run is quarantined")
    serve.add_argument("--job-timeout-s", type=float, default=None,
                       help="per-attempt budget for one leased run")
    serve.add_argument("--heartbeat-interval-s", type=float, default=0.25)
    serve.add_argument("--heartbeat-timeout-s", type=float, default=None)
    serve.add_argument("--retry-attempts", type=int, default=3,
                       help="acquisition retries inside one run")
    serve.add_argument("--retry-backoff-s", type=float, default=0.05)
    serve.add_argument("--ledger", default=None,
                       help="run-ledger path (default: <dir>/LEDGER_obs.jsonl)")
    serve.add_argument("--flight", action="store_true",
                       help="flight-record every run: reports carry "
                       "per-stall evidence and a <run>.flight sidecar is "
                       "spilled (see `repro explain`)")
    serve.add_argument("--flight-retain", type=int, default=None,
                       help="keep at most N .flight sidecars per campaign "
                       "directory (oldest pruned; default: keep all)")
    serve.set_defaults(func=_serve)

    for verb, description in (
        ("submit", "enqueue a job (--json carries runs/matrix)"),
        ("status", "query the daemon"),
        ("cancel", "cancel a job (--job)"),
        ("drain", "finish accepted jobs, then exit"),
        ("shutdown", "finish leased runs only, then exit"),
    ):
        client = sub.add_parser(verb, help=description)
        client.add_argument("--addr", required=True, help="HOST:PORT")
        client.add_argument("--timeout", type=float, default=5.0)
        client.add_argument("--job", default=None)
        if verb == "submit":
            client.add_argument(
                "--json",
                required=True,
                help='e.g. \'{"matrix": {"tm": [8, 16], "seed": [0, 1]}}\'',
            )
        client.set_defaults(func=_client)


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-campaignd`` parser."""
    parser = argparse.ArgumentParser(
        prog="repro-campaignd", description=DESCRIPTION
    )
    add_subcommands(parser)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
