"""Resilient measurement campaigns: one supervised, checkpointed job queue.

A campaign is a named list of runs (acquire a capture, profile it,
persist the report).  Physical campaigns are long - hours of bench
time - and die for reasons unrelated to the science: a wedged SDR
driver, a full disk, someone tripping over the probe.  Every pass,
whatever its worker count, runs the one state machine in
:class:`CampaignExecution`, which makes a killed campaign cheap to
restart:

* every run is **isolated** - one run failing (typed
  :class:`repro.errors.AcquisitionError` /
  :class:`repro.errors.CorruptCaptureError`) is recorded and the
  campaign moves on; transient failures are retried per
  :class:`repro.experiments.runner.RetryPolicy` first;
* runs are **leased** one at a time.  The manifest pre-marks each
  lease (``running`` + attempts); the worker persists the report and
  then an atomic ``<name>.outcome.json``, the run's one commit point;
  only then does the supervisor mark the run finished.  The manifest
  is replaced atomically, so ``kill -9`` leaves the old or the new
  state, never a torn one, and :meth:`Campaign.execute` on the same
  directory skips ``done`` runs, adopts runs that committed just
  before the last pass died, and re-attempts the rest;
* workers are **forked and supervised**: a dead, hung (heartbeat
  silence), or overdue (per-job timeout) worker is killed and
  respawned and its run *requeued* with backoff, and a run
  interrupted ``max_attempts`` times is quarantined as ``poisoned``.
  A ``workers=1`` pass that asks for no supervision (no isolation,
  deadline, or hang timeout) leases to the calling thread instead:
  same leases, same commit point, no fork;
* execution is **observable** - every manifest update carries a
  ``progress`` heartbeat, and ``ledger=...`` appends one
  ``campaign-run`` record per finished run plus a ``campaign`` summary
  per pass (``repro obs ledger``/``dashboard``).  With observability
  on, forked workers send their events and, after each run, their
  spans to the supervisor over their control pipes, so every event of
  the pass lands on the parent's bus and from there in the one
  ``events.ndjsonl`` writer, and every span in the pass's one
  ``trace.json``.

Manifest run states: ``done`` / ``failed`` (the run itself failed;
not requeued) / ``running`` (leased at the time of the last
checkpoint) / ``interrupted`` (its worker died or hung; will be
re-leased) / ``poisoned`` (quarantined).  The manifest
(``manifest.json``) is deliberately human-readable: a campaign's
state can be audited, or a poisoned run forced to re-execute by
deleting its entry, with a text editor.  ``docs/service.md`` has the
state diagram and the lease/requeue invariants.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import multiprocessing
import multiprocessing.connection
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from .. import io as repro_io
from ..core.events import ProfileReport
from ..core.profiler import Emprof, EmprofConfig
from ..errors import AcquisitionError, CampaignError
from ..obs import trace as _trace
from ..obs import ledger as obs_ledger
from ..obs.events import Event, NDJSONFileSink, bus as _event_bus
from ..obs.runtime import obs_enabled
from .runner import RetryPolicy, acquire_with_retry

_MANIFEST_NAME = "manifest.json"
_MANIFEST_FORMAT = "emprof-campaign-v1"
_EVENTS_NAME = "events.ndjsonl"
_TRACE_NAME = "trace.json"

#: Worker label of the in-process worker a ``workers=1`` pass leases to.
IN_PROCESS_WORKER = "main"

#: Cadence of campaign worker ``heartbeat`` events.
DEFAULT_HEARTBEAT_INTERVAL_S = 0.25


@dataclass(frozen=True)
class RunSpec:
    """One planned measurement: a name plus a capture source factory.

    Attributes:
        name: unique within the campaign; doubles as the report's
            filename stem, so keep it filesystem-safe.
        source_factory: zero-argument callable returning a fresh
            ``SignalSource``; called once per *attempt* so a flaky
            source is rebuilt rather than reused mid-failure.
        config: profiler configuration for this run.
        timeout_s: supervised-execution budget for one attempt of this
            run; overrides ``Campaign.job_timeout_s``.  A leased run
            past its deadline gets its worker killed and is requeued.
            None defers to the campaign-wide default (which may also
            be None: no deadline).
    """

    name: str
    source_factory: Callable[[], object]
    config: Optional[EmprofConfig] = None
    timeout_s: Optional[float] = None


_UNREAD = object()  # a RunOutcome report still on disk


class _StoredReport:
    """``RunOutcome.report``: held in memory, or read on first access.

    An outcome built with a ``report_path`` and no report parses that
    file the first time ``report`` is read and caches the result
    (None when the file is unreadable).
    """

    def __get__(self, outcome, owner=None):
        if outcome is None:
            return None  # the dataclass default
        if outcome._report is _UNREAD:
            outcome._report = None
            with contextlib.suppress(OSError, ValueError):
                outcome._report = repro_io.load_report(outcome.report_path)
        return outcome._report

    def __set__(self, outcome, report) -> None:
        outcome._report = report


@dataclass
class RunOutcome:
    """What happened to one run during :meth:`Campaign.execute`.

    Attributes:
        status: ``done`` / ``failed`` / ``skipped``, plus the
            supervised states ``poisoned`` (quarantined after
            ``max_attempts``) and ``interrupted`` (cancelled while
            leased; will be re-attempted by the next pass).
        report: the run's report.  A run profiled in this process
            holds it; a forked worker's run is read from
            ``report_path`` on first access, then cached, and is None
            if that file is unreadable.
        attempts: how many times execution of this run has *started*,
            including interrupted starts from earlier passes.
        interrupted: True when an earlier attempt of this run was cut
            short by a dead/hung worker - i.e. this outcome resumes
            (or quarantines) an interrupted run rather than a fresh
            one.
        report_path: where a run that is ``report``-less at
            construction reads its report from.
    """

    name: str
    status: str
    report: Optional[ProfileReport] = _StoredReport()
    error: Optional[str] = None
    wall_time_s: float = 0.0
    attempts: int = 1
    interrupted: bool = False
    report_path: Optional[Path] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self._report is None and self.report_path is not None:
            self._report = _UNREAD


@dataclass
class CampaignResult:
    """Aggregate outcome of one :meth:`Campaign.execute` pass."""

    outcomes: List[RunOutcome] = field(default_factory=list)

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {"done": 0, "failed": 0, "skipped": 0}
        for outcome in self.outcomes:
            out[outcome.status] = out.get(outcome.status, 0) + 1
        return out

    def interrupted(self) -> Dict[str, int]:
        """Runs that resumed (or quarantined) an interrupted attempt.

        Maps run name to its persisted ``attempts`` counter - the
        supervised-execution audit trail a fleet operator reads to spot
        specs that keep killing workers.
        """
        return {
            o.name: o.attempts for o in self.outcomes if o.interrupted
        }

    @property
    def completed(self) -> bool:
        """True when every run has a persisted report (done or skipped)."""
        return all(o.status in ("done", "skipped") for o in self.outcomes)


class Campaign:
    """Checkpointed executor for a list of :class:`RunSpec`.

    Args:
        directory: campaign state directory; created if missing.  The
            manifest and one ``<run>.report.json`` per completed run
            live here.
        retry: retry policy for transient acquisition failures (and
            the backoff of requeued runs).
        sleep: injectable backoff sleep (see
            :func:`repro.experiments.runner.acquire_with_retry`).
        ledger: optional run ledger (path or
            :class:`repro.obs.ledger.RunLedger`); when given, every
            finished run appends a ``campaign-run`` record, every
            requeue/quarantine an incident record, and each
            :meth:`execute` pass a ``campaign`` summary.
        workers: how many runs execute at once, each in a forked,
            supervised worker (see :class:`CampaignExecution`).  The
            exception is a ``workers=1`` pass with nothing to
            supervise - ``isolate`` off and no ``job_timeout_s``,
            ``heartbeat_timeout_s`` or ``RunSpec.timeout_s`` set: it
            leases every run to the calling thread, so nothing forks
            and a crash inside a run is the caller's crash.
        isolate: fork a supervised worker even at ``workers=1``, so a
            crashing or wedged run cannot take the caller down with it
            (the campaign daemon always sets this).
        heartbeat_interval_s: cadence of forked workers' ``heartbeat``
            events and control-channel liveness beats.
        heartbeat_timeout_s: how long a *leased* forked worker may go
            without a beat before it is declared hung, killed, and its
            run requeued.  None derives a default from the interval
            (``max(10 * heartbeat_interval_s, 2.0)``).
        job_timeout_s: campaign-wide per-attempt budget for a run
            leased to a forked worker (overridable per spec via
            ``RunSpec.timeout_s``); None means no deadline.
        max_attempts: total execution starts a run is allowed before
            an interrupted run is quarantined as ``poisoned``.
        flight: when True, every run is profiled with an engine flight
            recorder attached: the persisted report carries per-stall
            evidence (``repro explain <run>.report.json`` works on it)
            and the raw decision events are spilled next to it as
            ``<run>.flight``.
        flight_retain: cap on how many ``.flight`` sidecars the
            campaign directory keeps (oldest deleted first); None
            keeps all.  Reports always keep their evidence — only the
            raw event sidecars are pruned.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        retry: Optional[RetryPolicy] = None,
        sleep=None,
        ledger: Optional[Union[str, Path, obs_ledger.RunLedger]] = None,
        workers: int = 1,
        isolate: bool = False,
        heartbeat_interval_s: float = DEFAULT_HEARTBEAT_INTERVAL_S,
        heartbeat_timeout_s: Optional[float] = None,
        job_timeout_s: Optional[float] = None,
        max_attempts: int = 3,
        flight: bool = False,
        flight_retain: Optional[int] = None,
    ):
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if flight_retain is not None and flight_retain < 1:
            raise ValueError("flight_retain must be at least 1")
        if heartbeat_interval_s <= 0:
            raise ValueError("heartbeat_interval_s must be positive")
        if heartbeat_timeout_s is not None and heartbeat_timeout_s <= 0:
            raise ValueError("heartbeat_timeout_s must be positive")
        if job_timeout_s is not None and job_timeout_s <= 0:
            raise ValueError("job_timeout_s must be positive")
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        self.directory = Path(directory)
        self.retry = retry if retry is not None else RetryPolicy()
        self._sleep = sleep
        if ledger is None or isinstance(ledger, obs_ledger.RunLedger):
            self.ledger = ledger
        else:
            self.ledger = obs_ledger.RunLedger(ledger)
        self.workers = int(workers)
        self.isolate = bool(isolate)
        self.heartbeat_interval_s = float(heartbeat_interval_s)
        self.heartbeat_timeout_s = (
            None if heartbeat_timeout_s is None else float(heartbeat_timeout_s)
        )
        self.job_timeout_s = (
            None if job_timeout_s is None else float(job_timeout_s)
        )
        self.max_attempts = int(max_attempts)
        self.flight = bool(flight)
        self.flight_retain = (
            None if flight_retain is None else int(flight_retain)
        )
        self.directory.mkdir(parents=True, exist_ok=True)

    @property
    def effective_heartbeat_timeout_s(self) -> float:
        """The hang deadline the supervisor actually enforces."""
        if self.heartbeat_timeout_s is not None:
            return self.heartbeat_timeout_s
        return max(10.0 * self.heartbeat_interval_s, 2.0)

    # -- manifest and per-run files ------------------------------------------

    @property
    def manifest_path(self) -> Path:
        return self.directory / _MANIFEST_NAME

    @property
    def events_path(self) -> Path:
        """The campaign's NDJSON event stream (every process's events)."""
        return self.directory / _EVENTS_NAME

    @property
    def trace_path(self) -> Path:
        """The span trace each pass writes (every process's spans)."""
        return self.directory / _TRACE_NAME

    def outcome_path(self, name: str) -> Path:
        """A run's commit-point checkpoint file."""
        return self.directory / f"{name}.outcome.json"

    def report_path(self, name: str) -> Path:
        return self.directory / f"{name}.report.json"

    def flight_path(self, name: str) -> Path:
        """A run's spilled flight-recording sidecar (``flight=True``)."""
        return self.directory / f"{name}.flight"

    def _read_manifest(self) -> Dict[str, object]:
        """The raw manifest document; empty when the campaign is fresh."""
        if not self.manifest_path.exists():
            return {}
        try:
            return json.loads(self.manifest_path.read_text())
        except json.JSONDecodeError as exc:
            raise CampaignError(
                f"unreadable campaign manifest {self.manifest_path}: {exc}"
            ) from exc

    def load_manifest(self) -> Dict[str, dict]:
        """Per-run state map; empty when the campaign is fresh."""
        payload = self._read_manifest()
        if payload and payload.get("format") != _MANIFEST_FORMAT:
            raise CampaignError(
                f"not an EMPROF campaign manifest: {self.manifest_path}"
            )
        return payload.get("runs", {})

    def load_progress(self) -> Dict[str, object]:
        """The manifest's heartbeat record; empty for fresh campaigns.

        Keys (when present): ``updated_unix_s``, ``counts`` (done /
        failed / skipped so far this pass), ``total_planned``, and
        ``last_run``.  An external watcher can poll this to tell a
        live campaign from a wedged one without signalling the
        process.
        """
        progress = self._read_manifest().get("progress", {})
        return progress if isinstance(progress, dict) else {}

    def _save_manifest(
        self, runs: Dict[str, dict], progress: Dict[str, object]
    ) -> None:
        """Atomically replace the manifest (sorted keys, tmp + rename)."""
        obs_ledger.atomic_write_json(
            self.manifest_path,
            {"format": _MANIFEST_FORMAT, "runs": runs, "progress": progress},
        )

    def _prune_flights(self) -> None:
        """Enforce ``flight_retain``: drop the oldest ``.flight`` files.

        Best-effort: concurrent workers may race to delete the same
        file, so a path that vanishes between the listing, its ``stat``
        and its ``unlink`` is skipped, not an error.
        """
        if self.flight_retain is None:
            return
        aged = []
        for sidecar in self.directory.glob("*.flight"):
            with contextlib.suppress(FileNotFoundError):
                aged.append((sidecar.stat().st_mtime, sidecar))
        aged.sort(key=lambda pair: pair[0], reverse=True)
        for _, stale in aged[self.flight_retain:]:
            with contextlib.suppress(FileNotFoundError):
                stale.unlink()

    def load_report(self, name: str) -> ProfileReport:
        """Load the persisted report of a completed run."""
        return repro_io.load_report(self.report_path(name))

    # -- execution -----------------------------------------------------------

    def execute(self, specs: List[RunSpec]) -> CampaignResult:
        """Run every spec, resuming from the manifest.

        Runs already marked ``done`` with their report file present
        are skipped; everything else (fresh, previously failed, or
        interrupted mid-run) is attempted.  A failing run never stops
        the campaign - its error is recorded in the manifest and the
        outcome list.  This is ``self.start(specs).join()``.
        """
        return self.start(specs).join()

    def start(self, specs: List[RunSpec]) -> "CampaignExecution":
        """Plan the pass and launch its workers; returns immediately.

        Call :meth:`CampaignExecution.join` for the merged result.
        Forked workers start leasing runs at once; their events reach
        the parent's event bus as ``join``'s supervision loop reads
        their pipes.  A worker whose pipe is full waits for that read,
        so a forked pass makes progress only while ``join`` runs, and
        a caller that wants to watch the pass live runs
        ``join`` on one thread inside its own
        :class:`repro.obs.statusd.StatusServer` over that bus, as the
        campaign daemon does.  An in-process pass (see ``workers``)
        executes its runs inside ``join``, on the thread that calls it.
        """
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise CampaignError("run names must be unique within a campaign")
        return CampaignExecution(self, list(specs)).start()

    @contextlib.contextmanager
    def _observation(self, total_planned: int):
        """Event scaffolding around one execute pass.

        Attaches an NDJSON sink for the campaign's event file (when
        observability is on) and brackets the pass in
        ``run_started``/``run_finished`` events; the sink is detached
        when the pass ends.  With observability off this is a no-op.
        """
        sink = None
        if obs_enabled():
            sink = _event_bus.add_sink(NDJSONFileSink(self.events_path))
        _event_bus.emit(
            "run_started",
            op="campaign",
            campaign=self.directory.name,
            total_planned=total_planned,
            workers=self.workers,
        )
        try:
            yield
        finally:
            _event_bus.emit(
                "run_finished", op="campaign", campaign=self.directory.name
            )
            if sink is not None:
                _event_bus.remove_sink(sink)
                sink.close()

    def _run_and_commit(
        self, spec: RunSpec, label: str, attempt: int, interrupted: bool
    ) -> RunOutcome:
        """One lease's work: acquire, profile, persist, commit.

        The body every worker - forked or in-process - runs per lease.
        Acquisition failures are absorbed into a ``failed`` outcome.
        After the atomic ``<name>.outcome.json`` write the run is
        finished no matter what happens to the executing process.
        """
        begin = time.perf_counter()
        report = error = None
        with _trace.span("campaign_run", run=spec.name, attempt=attempt):
            try:
                capture = acquire_with_retry(
                    spec.source_factory(),
                    policy=self.retry,
                    **({} if self._sleep is None else {"sleep": self._sleep}),
                )
                recorder = None
                if self.flight:
                    from ..obs.flight import FlightRecorder

                    recorder = FlightRecorder()
                report = Emprof.from_capture(
                    capture, config=spec.config
                ).profile(flight=recorder)
            except AcquisitionError as exc:
                error = f"{type(exc).__name__}: {exc}"
            else:
                # Persist the report before the checkpoint commits the
                # run: a crash between the two writes re-runs the run,
                # never trusts a missing report.
                repro_io.save_report(self.report_path(spec.name), report)
                if recorder is not None:
                    repro_io.save_flight(
                        self.flight_path(spec.name), recorder, run=spec.name
                    )
                    self._prune_flights()
        outcome = RunOutcome(
            name=spec.name,
            status="failed" if report is None else "done",
            report=report,
            error=error,
            wall_time_s=time.perf_counter() - begin,
            attempts=attempt,
            interrupted=interrupted,
        )
        # The checkpoint carries the report's ledger fields, so the
        # supervisor settles a forked run without parsing its report.
        obs_ledger.atomic_write_json(
            self.outcome_path(spec.name),
            {
                "name": spec.name,
                "status": outcome.status,
                "error": error,
                "wall_time_s": outcome.wall_time_s,
                "attempts": attempt,
                "finished_unix_s": time.time(),
                "worker": label,
                "summary": _report_summary(report),
            },
        )
        _event_bus.emit(
            "checkpoint_written",
            target="outcome",
            run=spec.name,
            status=outcome.status,
        )
        return outcome


def _report_summary(report: Optional[ProfileReport]) -> Dict[str, Any]:
    """The ``campaign-run`` ledger fields ``report`` yields, JSON-ready."""
    if report is None:
        return {}
    return {
        "miss_count": report.miss_count,
        "low_confidence_count": report.low_confidence_count,
        "stall_fraction": report.stall_fraction,
        "quality": (
            None
            if report.quality is None
            else dataclasses.asdict(report.quality)
        ),
    }


# ---------------------------------------------------------------------------
# the supervised job queue
# ---------------------------------------------------------------------------


@dataclass
class _Job:
    """One attempt of one run: queued, then leased to exactly one worker.

    While leased, jobs are keyed by worker label, so when a worker dies
    the supervisor knows precisely which run it was holding - the
    invariant that makes requeue exact (docs/service.md).
    """

    index: int  # into CampaignExecution.specs
    name: str
    attempt: int
    interrupted: bool  # this attempt resumes an interrupted run
    not_before: float = 0.0  # monotonic; requeue backoff gate
    leased_at: float = 0.0  # monotonic
    deadline: Optional[float] = None  # monotonic; None = no per-job timeout


class CampaignExecution:
    """A launched pass; :meth:`join` runs the supervisor.

    Created by :meth:`Campaign.start`.  The parent owns the open
    ``campaign`` span, the pass's event sink, the pass's one ledger
    handle, and all scheduling state: a pending queue of jobs and one
    lease per busy worker.

    An unsupervised ``workers=1`` pass (see :class:`Campaign`) has one
    worker, :data:`IN_PROCESS_WORKER`, the thread running
    :meth:`join`: a lease executes synchronously and is finalized
    through the same path as a forked worker's committed run.
    Otherwise each forked worker has a private pipe to the supervisor
    (jobs in; ``beat``, ``started``, ``done`` and, with observability
    on, ``event`` and ``spans`` out - the supervisor ingests each event
    into its own bus and adopts each run's spans into its own tracer
    under the ``campaign`` span, and reads a pipe dry before closing
    it); a dead worker
    (``is_alive()`` false), a hung worker (no beat within
    ``Campaign.effective_heartbeat_timeout_s``), or an overdue
    job (``RunSpec.timeout_s`` / ``Campaign.job_timeout_s``) gets the
    worker killed and replaced and the run requeued with backoff
    (``Campaign.retry.delay``).  A run interrupted
    ``Campaign.max_attempts`` times is quarantined as ``poisoned``.

    The exactly-once discipline: a run's *only* commit point is its
    ``<name>.outcome.json`` checkpoint, written atomically by the
    worker after the report.  Before requeueing a revoked lease - and
    before re-running a run the manifest still shows ``running`` from
    a pass that died - the supervisor re-reads that checkpoint, so a
    run that committed is never executed twice.

    Attributes:
        processes: worker label -> :class:`multiprocessing.Process`,
            including dead/replaced workers (exposed so callers - and
            the chaos tests - can signal individual workers).  Empty
            for an in-process pass.
        assignments: worker label -> specs it was handed over its
            lifetime (dispatch history, not a static partition).
    """

    #: Supervisor wake-up cadence (worker-channel poll timeout).
    _TICK_S = 0.05

    def __init__(self, campaign: Campaign, specs: List[RunSpec]):
        self.campaign = campaign
        self.specs = specs
        self.processes: Dict[str, multiprocessing.process.BaseProcess] = {}
        self.assignments: Dict[str, List[RunSpec]] = {}
        self.result: Optional[CampaignResult] = None
        # Supervision needs a process to kill, so any isolation,
        # deadline or hang timeout forks even a single worker.
        self._in_process = campaign.workers == 1 and not (
            campaign.isolate
            or campaign.job_timeout_s is not None
            or campaign.heartbeat_timeout_s is not None
            or any(spec.timeout_s is not None for spec in specs)
        )
        self._mp = multiprocessing.get_context("fork")
        self._pending: List[_Job] = []
        self._leases: Dict[str, _Job] = {}
        self._channels: Dict[str, multiprocessing.connection.Connection] = {}
        self._last_beat: Dict[str, float] = {}
        self._outcomes: Dict[str, RunOutcome] = {}
        self._runs: Dict[str, dict] = {}
        self._next_worker = 0
        self._stop_mode: Optional[str] = None  # None | "drain" | "cancel"
        self._pass_begin = 0.0
        self._exit = contextlib.ExitStack()
        self._ledger_sink: Optional[obs_ledger.LedgerAppender] = None
        self._span: Any = None  # the open ``campaign`` span

    # -- launch --------------------------------------------------------------

    def start(self) -> "CampaignExecution":
        """Plan the queue and launch the workers; returns immediately."""
        campaign = self.campaign
        # Read the manifest before any side effect: a foreign or torn
        # manifest must fail the pass without touching the event file.
        self._runs = campaign.load_manifest()
        self._pass_begin = time.perf_counter()
        try:
            # Unwound in reverse when join() (or a failed start) exits
            # the stack: span, trace file, ledger handle, then the event
            # sink.
            self._exit.enter_context(campaign._observation(len(self.specs)))
            if campaign.ledger is not None:
                # One handle for the whole pass.  The manifest stays the
                # crash-recovery source of truth for runs, so their
                # records' fsync is deferred to pass end; incidents are
                # fsynced as they are written (see _ledger).
                self._ledger_sink = self._exit.enter_context(
                    campaign.ledger.appender(fsync_each=False)
                )
            self._exit.callback(self._write_trace)
            self._span = self._exit.enter_context(
                _trace.span(
                    "campaign",
                    campaign=campaign.directory.name,
                    workers=campaign.workers,
                )
            )
            self._plan()
            if self._in_process:
                self.assignments[IN_PROCESS_WORKER] = []
            else:
                # Load the DSP backend once, before the first fork, so
                # each worker inherits it instead of paying the import
                # on its first receiver call, where its heartbeats and
                # job_timeout_s would see it.
                import scipy.signal  # noqa: F401

                for _ in range(min(campaign.workers, len(self._pending))):
                    self._spawn_worker()
                self._dispatch_ready()
        except BaseException:
            self._shutdown_workers()
            self._exit.close()
            raise
        return self

    def _plan(self) -> None:
        """Sort every spec into skipped / poisoned / adopted / pending."""
        campaign = self.campaign
        for index, spec in enumerate(self.specs):
            state = self._runs.get(spec.name, {})
            status = state.get("status")
            attempts = int(state.get("attempts", 0) or 0)
            if status == "done" and campaign.report_path(spec.name).exists():
                self._outcomes[spec.name] = RunOutcome(spec.name, "skipped")
                continue
            if status == "poisoned":
                # Quarantine is sticky across passes; delete the
                # manifest entry to force a re-run.
                self._outcomes[spec.name] = RunOutcome(
                    spec.name,
                    "poisoned",
                    error=state.get("error"),
                    attempts=attempts,
                    interrupted=True,
                )
                continue
            if status == "running" and self._finalize_from_checkpoint(
                _Job(index, spec.name, attempts, False),
                state.get("worker", IN_PROCESS_WORKER),
            ):
                continue  # committed just before the last pass died
            # A stale outcome file from an earlier pass must not
            # masquerade as this pass's result.
            with contextlib.suppress(FileNotFoundError):
                campaign.outcome_path(spec.name).unlink()
            # A run left "running" by a killed pass is an interrupted
            # run, not a fresh one: its attempts counter carries over.
            interrupted = status in ("running", "interrupted")
            if interrupted and attempts >= campaign.max_attempts:
                self._quarantine(
                    _Job(index, spec.name, attempts, True),
                    f"quarantined after {attempts} interrupted attempts",
                    state.get("worker"),
                )
            else:
                self._pending.append(
                    _Job(index, spec.name, attempts + 1, interrupted)
                )
        self._checkpoint(last_run="")

    def _spawn_worker(self) -> str:
        """Fork one worker with an empty job queue."""
        campaign = self.campaign
        label = f"worker{self._next_worker}"
        self._next_worker += 1
        # A private pipe per worker, never a shared queue: a worker
        # killed mid-message breaks only its own channel, whereas a
        # shared queue's cross-process write lock dies held and
        # silences every other worker.
        channel, worker_end = self._mp.Pipe()
        # Fork, not spawn: RunSpec factories are arbitrary callables
        # (closures, lambdas) that only survive by inheritance.
        process = self._mp.Process(
            target=_worker_main,
            name=label,
            args=(
                campaign,
                self.specs,
                label,
                worker_end,
                [channel, *self._channels.values()],
            ),
            daemon=True,
        )
        process.start()
        worker_end.close()  # so the worker's death reads as EOF here
        self.processes[label] = process
        self.assignments[label] = []
        self._channels[label] = channel
        self._last_beat[label] = time.monotonic()
        _event_bus.emit(
            "worker_spawned",
            worker=label,
            pid=process.pid,
            campaign=campaign.directory.name,
        )
        return label

    # -- scheduling ----------------------------------------------------------

    def _dispatch_ready(self) -> int:
        """Lease ready jobs to idle workers; returns how many."""
        now = time.monotonic()
        dispatched = 0
        for label in self.alive():
            if label in self._leases:
                continue
            job = next((j for j in self._pending if j.not_before <= now), None)
            if job is None:
                break
            self._pending.remove(job)
            self._lease(label, job)
            dispatched += 1
        return dispatched

    def _lease(self, label: str, job: _Job) -> None:
        spec = self.specs[job.index]
        timeout = (
            spec.timeout_s
            if spec.timeout_s is not None
            else self.campaign.job_timeout_s
        )
        job.leased_at = time.monotonic()
        job.deadline = None if timeout is None else job.leased_at + timeout
        self._leases[label] = job
        # Pre-mark the lease so a parent kill -9 leaves "running" +
        # attempts behind for the next pass to surface as interrupted.
        self._mark(
            job, "running", worker=label, started_unix_s=time.time()
        )
        self._checkpoint(spec.name)
        self.assignments[label].append(spec)
        if not self._in_process:
            # A worker that died just now is caught by the liveness check.
            with contextlib.suppress(OSError):
                self._channels[label].send(
                    ("run", job.index, job.attempt, job.interrupted)
                )
            return
        # The worker is this thread.  A foreign exception unwinds the
        # pass like a crash would, leaving the pre-mark behind.  The
        # run's spans hang under the campaign span even when this
        # thread is not the one that opened it.
        with _trace.within(self._span):
            outcome = self.campaign._run_and_commit(
                spec, label, job.attempt, job.interrupted
            )
        del self._leases[label]
        self._finalize(job, label, outcome, _report_summary(outcome.report))

    def _mark(self, job: _Job, status: str, **fields) -> None:
        """Replace a run's manifest entry (saved by the next checkpoint)."""
        self._runs[job.name] = {
            "status": status, "attempts": job.attempt, **fields
        }

    def _checkpoint(self, last_run: str) -> None:
        """Persist the manifest with a fresh ``progress`` heartbeat."""
        counts = CampaignResult(list(self._outcomes.values())).counts()
        self.campaign._save_manifest(
            self._runs,
            progress={
                "updated_unix_s": time.time(),
                "counts": counts,
                "total_planned": len(self.specs),
                "last_run": last_run,
            },
        )

    # -- supervision ---------------------------------------------------------

    def alive(self) -> List[str]:
        """Labels of workers still running."""
        if self._in_process:
            return [IN_PROCESS_WORKER]
        # A copy: status threads call this while the supervisor spawns.
        return [
            label
            for label, process in list(self.processes.items())
            if label in self._channels and process.is_alive()
        ]

    def request_stop(self, mode: str = "drain") -> None:
        """Ask the supervisor to wind down (thread-safe, returns fast).

        ``drain`` lets leased runs finish but dispatches nothing new;
        ``cancel`` kills leased workers and marks their runs
        ``interrupted`` (attempts persisted) for the next pass.  In
        both cases undispatched pending runs keep their prior manifest
        state.  Takes effect inside :meth:`join`'s supervision loop;
        an in-process run cannot be killed, so there both modes let
        the current run commit and stop before the next lease.
        """
        if mode not in ("drain", "cancel"):
            raise ValueError("stop mode must be 'drain' or 'cancel'")
        self._stop_mode = mode

    def snapshot(self) -> Dict[str, object]:
        """A cheap live view of the queue for status endpoints."""
        now = time.monotonic()
        return {
            "pending": len(self._pending),
            "leases": {
                label: {
                    "run": job.name,
                    "attempt": job.attempt,
                    "age_s": round(now - job.leased_at, 3),
                }
                for label, job in list(self._leases.items())
            },
            "workers_alive": self.alive(),
            "finalized": len(self._outcomes),
            "total": len(self.specs),
            "stop_mode": self._stop_mode,
        }

    def join(self, timeout_s: Optional[float] = None) -> CampaignResult:
        """Run the supervision loop to completion and merge the result.

        ``timeout_s`` (None = no limit) bounds the whole pass: on
        expiry every worker is killed, leased runs are recorded as
        failed (and left ``interrupted`` in the manifest for the next
        pass), and undispatched runs are recorded as failed without a
        manifest change.  An in-process pass checks the limit between
        runs.
        """
        deadline = (
            None if timeout_s is None else time.monotonic() + timeout_s
        )
        with self._exit:
            try:
                self._supervise(deadline)
            finally:
                self._shutdown_workers()
            result = CampaignResult(
                [
                    self._outcomes[spec.name]
                    for spec in self.specs
                    if spec.name in self._outcomes
                ]
            )
            self._checkpoint(
                result.outcomes[-1].name if result.outcomes else ""
            )
            _event_bus.emit(
                "checkpoint_written",
                target="manifest",
                campaign=self.campaign.directory.name,
            )
            extra: Dict[str, object] = {
                "counts": result.counts(),
                "completed": result.completed,
            }
            if obs_enabled():
                # Bridge the live-telemetry rollup into the post-hoc
                # record: the dashboard's "final" numbers can be checked
                # against what the bus saw while the pass was in flight.
                stats = _event_bus.stats()
                extra["events"] = {
                    "total": stats["total"], "counts": stats["counts"]
                }
            self._ledger(
                "campaign",
                "",
                time.perf_counter() - self._pass_begin,
                extra=extra,
            )
        self.result = result
        return result

    def _write_trace(self) -> None:
        # Runs after the campaign span closes and every worker pipe is
        # read dry, so the file holds the whole pass - and only it: the
        # process may have traced earlier passes.
        span_id = self._span.span_id if self._span is not None else None
        if obs_enabled() and span_id is not None:
            with contextlib.suppress(OSError):
                _trace.subtree(span_id).write(str(self.campaign.trace_path))

    def _supervise(self, deadline: Optional[float]) -> None:
        while self._pending or self._leases:
            if deadline is not None and time.monotonic() > deadline:
                self._stop_leases("failed")
                return
            if self._stop_mode == "cancel":
                self._stop_leases("interrupted")
                return
            if self._stop_mode == "drain":
                # Undispatched runs keep their prior manifest state and
                # get no outcome; the next pass re-attempts them.
                self._pending.clear()
            if self._in_process:
                # One run per iteration, so deadline and stop requests
                # are honoured between runs; nothing ready means a
                # requeued run is waiting out its backoff.
                if not self._dispatch_ready():
                    time.sleep(self._TICK_S)
                continue
            want = min(
                self.campaign.workers, len(self._pending) + len(self._leases)
            )
            for _ in range(want - len(self.alive())):
                self._spawn_worker()
            self._dispatch_ready()
            self._pump_control()
            self._check_liveness()

    def _pump_control(self, timeout_s: float = _TICK_S) -> None:
        """Handle worker messages; wait up to ``timeout_s`` for the first."""
        labels = {channel: label for label, channel in self._channels.items()}
        for channel in multiprocessing.connection.wait(labels, timeout_s):
            self._read_channel(labels[channel])

    def _read_channel(self, label: str) -> None:
        """Handle every message ``label``'s pipe holds; close it at EOF."""
        channel = self._channels[label]
        while True:
            try:
                if not channel.poll():
                    return
                message = channel.recv()
            except (EOFError, OSError):
                # The worker is gone; the liveness check settles
                # whatever it was holding.
                channel.close()
                del self._channels[label]
                return
            self._handle_message(message)

    def _handle_message(self, message: Tuple[str, str, Any]) -> None:
        label, verb, payload = message
        self._last_beat[label] = time.monotonic()
        if verb == "event":
            _event_bus.ingest(payload)
            return
        if verb == "spans":
            records, dropped = payload
            _trace.adopt(records, self._span.span_id, label, dropped)
            return
        if verb != "done":
            return  # "beat" / "started": liveness only
        name = payload
        job = self._leases.get(label)
        if job is None or job.name != name:
            return  # stale message from a revoked lease
        del self._leases[label]
        if not self._finalize_from_checkpoint(job, label):
            # The worker claimed "done" but its checkpoint is missing
            # or torn - treat exactly like a death while leased.
            self._requeue_or_quarantine(
                job,
                label,
                f"worker {label} reported run {name!r} finished "
                "but left no readable outcome checkpoint",
            )

    def _check_liveness(self) -> None:
        now = time.monotonic()
        hang_after = self.campaign.effective_heartbeat_timeout_s
        for label in list(self._leases):
            job = self._leases[label]
            process = self.processes[label]
            beat_age = now - self._last_beat.get(label, now)
            if not process.is_alive():
                reason = (
                    f"worker {label} died (exit code {process.exitcode}) "
                    f"during run {job.name!r}"
                )
            elif beat_age > hang_after:
                reason = (
                    f"worker {label} hung: no heartbeat for "
                    f"{beat_age:.2f}s during run {job.name!r}"
                )
            elif job.deadline is not None and now > job.deadline:
                reason = (
                    f"run {job.name!r} exceeded its "
                    f"{job.deadline - job.leased_at:.2f}s timeout on "
                    f"worker {label}"
                )
            else:
                continue
            self._kill(label, reason)
            # The worker may have committed the run's checkpoint before
            # it died; a committed run is finished, never re-executed.
            if not self._finalize_from_checkpoint(job, label):
                self._requeue_or_quarantine(job, label, reason)

    def _kill(self, label: str, reason: str) -> _Job:
        """Release ``label``'s lease and make sure its worker is dead."""
        job = self._leases.pop(label)
        process = self.processes[label]
        if process.is_alive():
            process.kill()
        process.join(2.0)
        if label in self._channels:
            # Keep what the worker sent before it died: its last beats
            # and events are the evidence of how it went.
            self._read_channel(label)
        channel = self._channels.pop(label, None)
        if channel is not None:
            channel.close()
        _event_bus.emit(
            "worker_killed",
            worker=label,
            run=job.name,
            reason=reason,
            campaign=self.campaign.directory.name,
        )
        return job

    def _requeue_or_quarantine(
        self, job: _Job, label: str, reason: str
    ) -> None:
        campaign = self.campaign
        wall = time.monotonic() - job.leased_at
        if job.attempt >= campaign.max_attempts:
            self._quarantine(
                job,
                f"quarantined after {job.attempt} attempts; last: {reason}",
                label,
                wall,
            )
            self._checkpoint(job.name)
            return
        delay = campaign.retry.delay(job.attempt)
        self._pending.append(
            _Job(
                job.index,
                job.name,
                job.attempt + 1,
                True,
                not_before=time.monotonic() + delay,
            )
        )
        self._mark(
            job,
            "interrupted",
            error=reason,
            worker=label,
            interrupted_unix_s=time.time(),
        )
        self._checkpoint(job.name)
        _event_bus.emit(
            "job_requeued",
            run=job.name,
            attempts=job.attempt,
            backoff_s=delay,
            reason=reason,
            campaign=campaign.directory.name,
        )
        self._ledger(
            "campaign-requeue",
            job.name,
            wall,
            extra={"attempts": job.attempt, "reason": reason, "worker": label},
        )

    def _quarantine(
        self,
        job: _Job,
        reason: str,
        worker: Optional[str],
        wall_time_s: float = 0.0,
    ) -> None:
        """Poison one run: manifest entry, outcome, event, ledger record.

        ``job.attempt`` is the attempt that was cut short.  Like every
        incident, the ledger record is written when the supervisor
        acts, not at pass end, so a kill -9 of the *parent* keeps it.
        """
        self._mark(job, "poisoned", error=reason, finished_unix_s=time.time())
        _event_bus.emit(
            "job_quarantined",
            run=job.name,
            attempts=job.attempt,
            reason=reason,
            campaign=self.campaign.directory.name,
        )
        self._outcomes[job.name] = RunOutcome(
            job.name,
            "poisoned",
            error=reason,
            attempts=job.attempt,
            interrupted=True,
        )
        self._ledger(
            "campaign-quarantine",
            job.name,
            wall_time_s,
            extra={
                "attempts": job.attempt, "reason": reason, "worker": worker
            },
        )

    def _finalize_from_checkpoint(self, job: _Job, label: str) -> bool:
        """Commit a lease from its run's outcome file, if one exists.

        The checkpoint alone settles the run: its ledger fields come
        from the checkpoint, and the outcome's report stays on disk
        until someone reads ``RunOutcome.report``, so the supervisor
        leases the worker its next run without parsing this one's
        report.  Returns False when the checkpoint is absent,
        unreadable, or belongs to another attempt (the run did not
        finish); the caller decides requeue vs quarantine.
        """
        campaign = self.campaign
        try:
            payload = json.loads(campaign.outcome_path(job.name).read_text())
        except (OSError, json.JSONDecodeError):
            return False
        status = payload.get("status")
        if (
            payload.get("name") != job.name
            or payload.get("attempts") != job.attempt
            or status not in ("done", "failed")
        ):
            return False
        self._finalize(
            job,
            label,
            RunOutcome(
                name=job.name,
                status=status,
                error=payload.get("error"),
                wall_time_s=float(payload.get("wall_time_s", 0.0)),
                attempts=job.attempt,
                interrupted=job.interrupted,
                report_path=(
                    campaign.report_path(job.name)
                    if status == "done"
                    else None
                ),
            ),
            payload.get("summary", {}),
        )
        return True

    def _finalize(
        self,
        job: _Job,
        label: str,
        outcome: RunOutcome,
        summary: Dict[str, Any],
    ) -> None:
        """Mark a committed run ``done``/``failed`` and settle it.

        The manifest entry is updated in memory only: the next lease or
        the end of the pass saves it, and until then the run's outcome
        checkpoint is the record a resuming pass adopts.
        """
        error = {} if outcome.error is None else {"error": outcome.error}
        self._mark(
            job,
            outcome.status,
            wall_time_s=outcome.wall_time_s,
            finished_unix_s=time.time(),
            worker=label,
            **error,
        )
        self._settle(job, outcome, summary)

    def _settle(
        self,
        job: _Job,
        outcome: RunOutcome,
        summary: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Record a run's final outcome for this pass (once per run).

        A run that executed (or was cut short) gets its
        ``campaign-run`` ledger record now, so a later parent crash
        cannot lose it.  ``summary`` holds the report's ledger fields
        (:func:`_report_summary`); a run without a report has none.
        """
        self._outcomes[job.name] = outcome
        summary = summary or {}
        extra: Dict[str, object] = {"status": outcome.status}
        if outcome.error is not None:
            extra["error"] = outcome.error
        extra.update((k, v) for k, v in summary.items() if k != "quality")
        self._ledger(
            "campaign-run",
            job.name,
            outcome.wall_time_s,
            config=self.specs[job.index].config,
            quality=summary.get("quality"),
            extra=extra,
        )

    def _ledger(
        self, kind: str, name: str, wall_time_s: float, **fields
    ) -> None:
        """Append one record for ``name`` ("" = the campaign) if wired.

        Requeue and quarantine records are supervisor decisions with no
        other durable trace, so they are fsynced on the spot (under the
        ledger's fsync policy) rather than at pass end.
        """
        if self._ledger_sink is None:
            return
        label = self.campaign.directory.name + (f"/{name}" if name else "")
        self._ledger_sink.append(
            obs_ledger.record(
                kind=kind, label=label, wall_time_s=wall_time_s, **fields
            ),
            sync=kind in ("campaign-requeue", "campaign-quarantine"),
        )

    # -- shutdown paths ------------------------------------------------------

    def _stop_leases(self, status: str) -> None:
        """Kill every leased worker and drop the queue.

        ``interrupted`` is a cancel: uncommitted leases persist as
        ``interrupted`` for the next pass.  ``failed`` is an expired
        ``join(timeout_s)``: uncommitted leases are recorded as failed
        (left ``interrupted`` in the manifest), and so are runs that
        never started (manifest unchanged).
        """
        cancel = status == "interrupted"
        for label in list(self._leases):
            job = self._kill(label, "cancelled" if cancel else "timed out")
            if self._finalize_from_checkpoint(job, label):
                continue
            if cancel:
                error = "cancelled while leased"
            else:
                error = (
                    f"worker {label} (exit code "
                    f"{self.processes[label].exitcode}) did not finish "
                    "this run before the campaign timeout"
                )
            self._mark(
                job,
                "interrupted",
                error=error,
                worker=label,
                interrupted_unix_s=time.time(),
            )
            self._settle(
                job,
                RunOutcome(
                    job.name,
                    status,
                    error=error,
                    attempts=job.attempt,
                    interrupted=job.interrupted or cancel,
                ),
            )
        if not cancel:
            for job in self._pending:
                self._settle(
                    job,
                    RunOutcome(
                        job.name,
                        "failed",
                        error="campaign timed out before this run started",
                        attempts=max(
                            1, job.attempt - (0 if job.interrupted else 1)
                        ),
                        interrupted=job.interrupted,
                    ),
                )
        self._pending.clear()

    def _shutdown_workers(self) -> None:
        for channel in self._channels.values():
            with contextlib.suppress(OSError):
                channel.send(("stop",))
        deadline = time.monotonic() + 5.0
        # Read every pipe to EOF instead of joining blind: a worker
        # sending its last events waits on a full pipe.
        while self._channels:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            self._pump_control(min(remaining, self._TICK_S))
        for process in self.processes.values():
            process.join(max(0.0, deadline - time.monotonic()))
        for process in self.processes.values():
            if process.is_alive():
                process.kill()
                process.join(1.0)
        for channel in self._channels.values():
            channel.close()
        self._channels.clear()


class _PipeSink:
    """A forked worker's event sink: each event goes up its pipe."""

    def __init__(self, send: Callable[[str, Any], None]):
        self._send = send

    def write(self, event: Event) -> None:
        self._send("event", event.to_dict())


def _worker_main(
    campaign: Campaign,
    specs: List[RunSpec],
    label: str,
    channel,
    supervisor_ends: List[multiprocessing.connection.Connection],
) -> None:
    """A forked supervised worker's whole life.

    Runs in the child process.  The forked copies of the global
    tracer/bus still hold the parent's spans, sinks, and counters, so
    the first job is to shed that inherited state (without closing the
    parent's file descriptors).  The inherited supervisor ends of this
    worker's and its siblings' pipes are closed, so the supervisor's
    death reads as EOF on ``channel`` and the worker exits.  Then the
    worker loops on its channel: one ``("run", index, attempt,
    interrupted)`` lease at a time, run by
    :meth:`Campaign._run_and_commit` before the ``done`` message - the
    manifest is never touched from here.  A
    daemon thread beats on the same channel at
    ``heartbeat_interval_s`` (always, independent of ``EMPROF_OBS``)
    so the supervisor can tell a long-running job from a hung worker;
    with observability on the same beat also lands on the event bus,
    whose one sink sends every event up the same channel, and the
    spans of each run go up it as one ``spans`` message before
    ``done``.
    """
    for end in supervisor_ends:
        end.close()
    _trace.reset()
    _event_bus.reset()
    _event_bus.set_source(label)
    stop = threading.Event()
    send_lock = threading.Lock()

    def send(verb: str, payload: Any = None) -> None:
        # The beat thread and the job loop both send, each event on
        # the thread that emits it; the lock keeps each message whole.
        # A vanished supervisor is not an error.
        with send_lock, contextlib.suppress(OSError):
            channel.send((label, verb, payload))

    if obs_enabled():
        # The supervisor ingests these into its own bus, whose sinks
        # (the campaign's event file, any status server) see them.
        _event_bus.add_sink(_PipeSink(send))
        _event_bus.emit("heartbeat", worker=label, phase="start")

    def _beat() -> None:
        while not stop.wait(campaign.heartbeat_interval_s):
            send("beat")
            _event_bus.emit("heartbeat", worker=label)

    threading.Thread(
        target=_beat, name=f"{label}-heartbeat", daemon=True
    ).start()
    try:
        while True:
            if not channel.poll(0.5):
                continue  # the parent owns this worker's lifetime
            try:
                message = channel.recv()
            except (EOFError, OSError):
                break  # the supervisor is gone (EOF or reset)
            if message[0] != "run":
                break
            _, index, attempt, interrupted = message
            spec = specs[index]
            send("started", spec.name)
            campaign._run_and_commit(spec, label, attempt, interrupted)
            if obs_enabled():
                send("spans", _trace.drain())
            send("done", spec.name)
    finally:
        stop.set()
        if obs_enabled():
            _event_bus.emit("heartbeat", worker=label, phase="end")
