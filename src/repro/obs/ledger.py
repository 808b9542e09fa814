"""The run ledger: an append-only JSONL history of pipeline runs.

EMPROF's pitch is durable, zero-observer-effect visibility into a
running system; the reproduction's own runs deserve the same.  Every
``repro profile`` invocation (with ``--ledger``), every ``make bench``
session, and every :class:`repro.experiments.campaign.Campaign` item
can append one schema-versioned :class:`RunRecord` to a shared JSONL
file - by default ``LEDGER_obs.jsonl`` at the repository root - and
nothing ever rewrites or truncates that file.  The accumulated
history is what :mod:`repro.obs.regress` judges new runs against and
what :mod:`repro.obs.dashboard` renders.

Design rules:

* **Append-only.**  One JSON object per line, written with a single
  ``write`` + ``flush`` + ``fsync``, so an interrupted run can at
  worst leave one torn final line - which readers skip and count
  rather than crash on.
* **Self-describing.**  Every record carries ``schema`` /
  ``schema_version``, the run kind, a config fingerprint, and the git
  revision, so ledgers survive tool upgrades and mixed histories.
* **Stdlib only.**  Importing this module must never pull numpy,
  matplotlib, or any other heavy dependency (a test pins this), and
  nothing here runs unless explicitly invoked - the ``EMPROF_OBS``
  zero-cost-when-off guarantee is untouched.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import subprocess
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

SCHEMA = "repro-obs-ledger"
SCHEMA_VERSION = 1

#: Default ledger filename, conventionally at the repository root.
DEFAULT_LEDGER_NAME = "LEDGER_obs.jsonl"

#: The run kinds the observatory understands.  ``profile`` is one CLI
#: profiling run, ``bench`` one benchmark node, ``campaign-run`` one
#: item of a measurement campaign, ``campaign`` the campaign summary,
#: ``campaign-requeue`` a supervised run re-leased after its worker
#: died or hung, and ``campaign-quarantine`` a run poisoned after
#: exhausting its attempts.
RUN_KINDS = (
    "profile",
    "bench",
    "campaign-run",
    "campaign",
    "campaign-requeue",
    "campaign-quarantine",
)

PathLike = Union[str, Path]

#: Environment variable controlling the default fsync policy.  Set to
#: ``0`` / ``false`` / ``no`` / ``off`` to skip the per-append fsync
#: (e.g. on CI runners with slow fsync or tmpfs-backed workspaces).
#: Anything else - including unset - keeps the durable default.
ENV_LEDGER_FSYNC = "EMPROF_LEDGER_FSYNC"

_FALSEY = ("0", "false", "no", "off")


def fsync_default() -> bool:
    """The process-environment fsync policy, read at call time.

    ``EMPROF_LEDGER_FSYNC=0`` (or ``false``/``no``/``off``, any case)
    disables per-append fsync for ledgers that do not pin a policy
    explicitly; every other value - including unset - enables it.
    """
    raw = os.environ.get(ENV_LEDGER_FSYNC)
    if raw is None:
        return True
    return raw.strip().lower() not in _FALSEY


_GIT_REV_CACHE: Dict[str, str] = {}
_GIT_REV_LOCK = threading.Lock()


def git_rev(cwd: Optional[PathLike] = None) -> str:
    """Short git revision of ``cwd`` (default: process cwd).

    Never raises: outside a repository, without git installed, or on
    any subprocess failure it returns ``"unknown"``.  Results are
    cached per directory - the revision cannot change mid-process in
    a way this module needs to observe.  The cache is lock-protected
    so concurrent campaign workers cannot race the first fill.
    """
    key = str(cwd) if cwd is not None else ""
    with _GIT_REV_LOCK:
        cached = _GIT_REV_CACHE.get(key)
    if cached is not None:
        return cached
    rev = "unknown"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=str(cwd) if cwd is not None else None,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if proc.returncode == 0 and proc.stdout.strip():
            rev = proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        rev = "unknown"
    with _GIT_REV_LOCK:
        _GIT_REV_CACHE[key] = rev
    return rev


def config_fingerprint(payload: Any) -> str:
    """Stable short fingerprint of a configuration object.

    Dataclasses are converted via :func:`dataclasses.asdict`; anything
    JSON can't express is stringified.  Two runs share a fingerprint
    exactly when their canonical JSON forms match, so ledger history
    can be partitioned by configuration without storing the config.
    """
    if dataclasses.is_dataclass(payload) and not isinstance(payload, type):
        payload = dataclasses.asdict(payload)
    canonical = json.dumps(payload, sort_keys=True, default=str)
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    return f"sha256:{digest[:16]}"


@dataclass(frozen=True)
class RunRecord:
    """One ledger entry: what ran, under what, and what it measured.

    Attributes:
        kind: one of :data:`RUN_KINDS`.
        label: stable identity of the run within its kind (capture
            stem, benchmark nodeid, ``campaign/run`` name); regression
            baselines group on ``(kind, label)``.
        wall_time_s: run wall time in seconds.
        created_unix_s: wall-clock creation time (``time.time()``).
        git_rev: short git revision the run executed at.
        config_fingerprint: :func:`config_fingerprint` of the run's
            configuration, or ``""`` when not applicable.
        spans: a :meth:`Tracer.aggregate` rollup, or None.  Lines
            written before the rollup carried ``sums`` also hold a
            ``metrics`` registry snapshot; it is ignored on read.
        quality: a signal-quality summary dict, or None.
        accuracy: accuracy statistics (detected vs. ground truth), or
            None when no ground truth existed.
        extra: free-form small JSON-safe context (status, paths,
            counts).
    """

    kind: str
    label: str
    wall_time_s: float
    created_unix_s: float
    git_rev: str = "unknown"
    config_fingerprint: str = ""
    schema_version: int = SCHEMA_VERSION
    spans: Optional[Dict[str, Any]] = None
    quality: Optional[Dict[str, Any]] = None
    accuracy: Optional[Dict[str, Any]] = None
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def group(self) -> str:
        """The regression-baseline grouping key, ``kind:label``."""
        return f"{self.kind}:{self.label}"

    def to_dict(self) -> Dict[str, Any]:
        """JSON-pure representation (one ledger line, unserialized)."""
        return {
            "schema": SCHEMA,
            "schema_version": self.schema_version,
            "kind": self.kind,
            "label": self.label,
            "wall_time_s": self.wall_time_s,
            "created_unix_s": self.created_unix_s,
            "git_rev": self.git_rev,
            "config_fingerprint": self.config_fingerprint,
            "spans": self.spans,
            "quality": self.quality,
            "accuracy": self.accuracy,
            "extra": dict(self.extra),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "RunRecord":
        """Parse one ledger line's JSON object.

        Raises:
            ValueError: the object is not a ledger record (wrong or
                missing schema, missing identity fields).
        """
        if not isinstance(payload, dict):
            raise ValueError("ledger line is not a JSON object")
        if payload.get("schema") != SCHEMA:
            raise ValueError(
                f"not a {SCHEMA} record (schema={payload.get('schema')!r})"
            )
        try:
            kind = str(payload["kind"])
            label = str(payload["label"])
            wall_time_s = float(payload["wall_time_s"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed ledger record: {exc}") from exc
        return cls(
            kind=kind,
            label=label,
            wall_time_s=wall_time_s,
            created_unix_s=float(payload.get("created_unix_s", 0.0)),
            git_rev=str(payload.get("git_rev", "unknown")),
            config_fingerprint=str(payload.get("config_fingerprint", "")),
            schema_version=int(payload.get("schema_version", 1)),
            spans=payload.get("spans"),
            quality=payload.get("quality"),
            accuracy=payload.get("accuracy"),
            extra=dict(payload.get("extra") or {}),
        )


def record(
    kind: str,
    label: str,
    wall_time_s: float,
    config: Any = None,
    spans: Optional[Dict[str, Any]] = None,
    quality: Optional[Dict[str, Any]] = None,
    accuracy: Optional[Dict[str, Any]] = None,
    extra: Optional[Dict[str, Any]] = None,
    cwd: Optional[PathLike] = None,
) -> RunRecord:
    """Build a :class:`RunRecord`, stamping time and git revision.

    Raises:
        ValueError: ``kind`` is not one of :data:`RUN_KINDS`.
    """
    if kind not in RUN_KINDS:
        raise ValueError(
            f"unknown run kind {kind!r}; expected one of {', '.join(RUN_KINDS)}"
        )
    return RunRecord(
        kind=kind,
        label=label,
        wall_time_s=float(wall_time_s),
        created_unix_s=time.time(),
        git_rev=git_rev(cwd),
        config_fingerprint=(
            config_fingerprint(config) if config is not None else ""
        ),
        spans=spans,
        quality=quality,
        accuracy=accuracy,
        extra=dict(extra or {}),
    )


class RunLedger:
    """Append-only JSONL store of :class:`RunRecord` entries.

    The ledger file never shrinks: :meth:`append` only ever adds one
    line, and readers tolerate (and count) torn or foreign lines so a
    crash mid-write cannot poison the history.

    ``fsync`` pins the durability policy for this ledger: ``True``
    fsyncs every :meth:`append` (the historical behaviour), ``False``
    relies on the OS page cache, and ``None`` (the default) defers to
    the :data:`ENV_LEDGER_FSYNC` environment variable - read once at
    construction - which itself defaults to ``True``.
    """

    def __init__(self, path: PathLike, fsync: Optional[bool] = None):
        self.path = Path(path)
        self.fsync = fsync_default() if fsync is None else bool(fsync)

    def exists(self) -> bool:
        """Whether the ledger file is present on disk."""
        return self.path.is_file()

    def append(self, entry: RunRecord) -> RunRecord:
        """Append one record (single write + flush, fsync per policy)."""
        if self.path.parent != Path("."):
            self.path.parent.mkdir(parents=True, exist_ok=True)
        line = json.dumps(entry.to_dict(), sort_keys=True)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())
        return entry

    def append_many(self, entries: List[RunRecord]) -> int:
        """Append several records; returns how many were written."""
        for entry in entries:
            self.append(entry)
        return len(entries)

    def appender(
        self, fsync_each: Optional[bool] = None
    ) -> "LedgerAppender":
        """A reusable append handle (see :class:`LedgerAppender`).

        Use as a context manager around a burst of appends — e.g. a
        100-run campaign — so each record does not pay the open/close
        (and, with ``fsync_each=False``, fsync) cost of
        :meth:`append`.  ``fsync_each=None`` inherits the ledger's
        :attr:`fsync` policy.
        """
        return LedgerAppender(
            self, fsync_each=self.fsync if fsync_each is None else fsync_each
        )

    def read_with_errors(self) -> Tuple[List[RunRecord], int]:
        """All parseable records, in file order, plus a bad-line count.

        A missing file reads as an empty history (no error) - the
        first run of a fresh checkout has nothing to compare against,
        which is a normal state, not a failure.
        """
        if not self.path.is_file():
            return [], 0
        records: List[RunRecord] = []
        bad_lines = 0
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(RunRecord.from_dict(json.loads(line)))
                except (json.JSONDecodeError, ValueError):
                    bad_lines += 1
        return records, bad_lines

    def read(
        self, kind: Optional[str] = None, label: Optional[str] = None
    ) -> List[RunRecord]:
        """Parseable records, optionally filtered by kind and label."""
        records, _ = self.read_with_errors()
        if kind is not None:
            records = [r for r in records if r.kind == kind]
        if label is not None:
            records = [r for r in records if r.label == label]
        return records

    def groups(self) -> Dict[str, List[RunRecord]]:
        """Records bucketed by :attr:`RunRecord.group`, file order kept."""
        out: Dict[str, List[RunRecord]] = {}
        for entry in self.read():
            out.setdefault(entry.group, []).append(entry)
        return out

    def __len__(self) -> int:
        records, _ = self.read_with_errors()
        return len(records)


class LedgerAppender:
    """Reusable append handle over one :class:`RunLedger`.

    :meth:`RunLedger.append` opens, writes, flushes, fsyncs, and
    closes the file for every record — the right discipline for a
    single record, but measurable churn for a campaign appending
    hundreds.  The appender keeps one ``O_APPEND`` handle open across
    appends while preserving the ledger's durability contract:

    * **Single-append semantics.**  Each record is still exactly one
      ``write`` of one ``\\n``-terminated line, immediately flushed,
      so readers never see an interleaved or torn *parsed* record —
      at worst one torn final line, which they already skip and count.
    * **Durability.**  With ``fsync_each=True`` every record is
      fsynced exactly as :meth:`RunLedger.append` does.
      ``fsync_each=False`` defers the fsync to :meth:`close` — the
      mode :class:`repro.experiments.campaign.Campaign` uses, since
      its crash-recovery source of truth is the manifest, not the
      ledger.  Even that deferred fsync is skipped when the owning
      ledger's :attr:`RunLedger.fsync` policy is off.

    Use as a context manager; appending after close raises
    ``ValueError``.
    """

    def __init__(self, ledger: RunLedger, fsync_each: bool = True):
        self.ledger = ledger
        self.fsync_each = fsync_each
        if ledger.path.parent != Path("."):
            ledger.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(ledger.path, "a", encoding="utf-8")
        self._wrote = False

    def append(self, entry: RunRecord, sync: bool = False) -> RunRecord:
        """Append one record through the persistent handle.

        ``sync=True`` fsyncs this record now even when ``fsync_each``
        is off - unless the ledger's fsync policy is off, exactly as
        :meth:`RunLedger.append` would.
        """
        if self._handle is None:
            raise ValueError("appender is closed")
        line = json.dumps(entry.to_dict(), sort_keys=True)
        self._handle.write(line + "\n")
        self._handle.flush()
        self._wrote = True
        if self.fsync_each or (sync and self.ledger.fsync):
            os.fsync(self._handle.fileno())
        return entry

    def close(self) -> None:
        """Flush (and, if deferred, fsync) then release the handle."""
        if self._handle is None:
            return
        try:
            self._handle.flush()
            if self._wrote and not self.fsync_each and self.ledger.fsync:
                os.fsync(self._handle.fileno())
        finally:
            handle, self._handle = self._handle, None
            handle.close()

    @property
    def closed(self) -> bool:
        return self._handle is None

    def __enter__(self) -> "LedgerAppender":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def atomic_write_json(path: PathLike, payload: Any, indent: int = 2) -> Path:
    """Write ``payload`` as key-sorted JSON via temp-file + ``os.replace``.

    An interrupted writer leaves either the previous file or the new
    one, never a torn hybrid; the campaign manifest and each run's
    outcome checkpoint are written this way.  Returns the destination
    path.
    """
    destination = Path(path)
    tmp = destination.with_name(destination.name + ".tmp")
    text = json.dumps(payload, indent=indent, sort_keys=True)
    tmp.write_text(text + "\n", encoding="utf-8")
    os.replace(tmp, destination)
    return destination
