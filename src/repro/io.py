"""Serialization of captures, profiles and ground truth.

A measurement campaign records captures once and analyzes them many
times; these helpers give the repository a stable on-disk format:

* captures -> ``.npz`` (magnitude array + acquisition metadata),
  its members stored rather than deflated: deflate saves ~8% of a
  float64 noise capture's bytes at ~50x the write time,
* profile reports -> compact ``.json`` (format v2: the stalls as one
  object of eight equal-length field lists, plus the accounting and,
  when the run was flight-recorded, the per-stall ``evidence`` block),
  written without ``indent`` so ``json`` keeps its C encoder;
  ``python -m json.tool`` pretty-prints one and
  ``jq '.stalls.begin_sample'`` reads one column.  Floats are written
  as ``repr`` and read back bit for bit.  v1 reports (one object per
  stall) are still read,
* ground-truth traces -> ``.npz`` (columnar miss/stall records),
* flight recordings -> ``.flight`` (NDJSON decision-event sidecars,
  see :mod:`repro.obs.flight`).

All formats are versioned with a ``format`` field so future layouts
can be detected rather than mis-parsed.  The current (v2) ``.npz``
layouts additionally carry array-length fields and a CRC-32 content
checksum, so a capture truncated by a dying disk or an interrupted
copy is *detected* (:class:`repro.errors.CorruptCaptureError`, naming
the file) instead of silently profiling garbage; v1 files (no
checksum) are still read.  Every malformed-file failure mode -
not-a-zip, missing keys, undecodable region JSON - raises the same
typed error rather than leaking ``KeyError``/``JSONDecodeError`` from
the internals.  Captures written deflated by earlier releases load
unchanged: ``np.load`` reads stored and deflated members alike.
"""

from __future__ import annotations

import json
import operator
import zipfile
import zlib
from pathlib import Path
from typing import Union

import numpy as np

from .core.events import STALL_FIELDS, ProfileReport, QualitySummary, StallTable
from .emsignal.receiver import Capture
from .errors import CorruptCaptureError
from .obs.flight import FlightRecorder, ReportEvidence, read_flight
from .sim.trace import GroundTruth, MissRecord, StallRecord

_CAPTURE_FORMAT = "emprof-capture-v2"
_CAPTURE_FORMAT_V1 = "emprof-capture-v1"
_REPORT_FORMAT = "emprof-report-v2"
_REPORT_FORMAT_V1 = "emprof-report-v1"
_TRUTH_FORMAT = "emprof-truth-v2"
_TRUTH_FORMAT_V1 = "emprof-truth-v1"

PathLike = Union[str, Path]

#: Errors np.load / zipfile / field coercion can raise on a damaged
#: file.  FileNotFoundError is deliberately NOT wrapped: a missing
#: file is a caller mistake, not a corrupt capture.
_READ_ERRORS = (zipfile.BadZipFile, EOFError, OSError, ValueError, KeyError)


def _checksum(*arrays: np.ndarray) -> int:
    """CRC-32 over the raw bytes of ``arrays``, in order."""
    crc = 0
    for arr in arrays:
        crc = zlib.crc32(np.ascontiguousarray(arr).tobytes(), crc)
    return crc


def _decode_region_names(raw: str, path: PathLike) -> dict:
    """Parse a ``{"id": "name"}`` JSON mapping, typed-error wrapped."""
    try:
        decoded = json.loads(raw)
        return {int(k): str(v) for k, v in decoded.items()}
    except (json.JSONDecodeError, ValueError, TypeError, AttributeError) as exc:
        raise CorruptCaptureError(
            f"malformed region_names mapping: {exc}", path=path
        ) from exc


# -- captures -----------------------------------------------------------------


def save_capture(path: PathLike, capture: Capture) -> None:
    """Write a capture to ``path`` (.npz, format v2 with checksum)."""
    magnitude = np.asarray(capture.magnitude, dtype=np.float64)
    np.savez(
        path,
        format=_CAPTURE_FORMAT,
        magnitude=magnitude,
        n_samples=len(magnitude),
        checksum=_checksum(magnitude),
        sample_rate_hz=capture.sample_rate_hz,
        clock_hz=capture.clock_hz,
        bandwidth_hz=capture.bandwidth_hz,
        region_names=json.dumps(
            {str(k): v for k, v in capture.region_names.items()}
        ),
    )


def load_capture(path: PathLike) -> Capture:
    """Read a capture written by :func:`save_capture` (v1 or v2).

    Raises:
        CorruptCaptureError: wrong format, missing fields, malformed
            region JSON, truncated array, or checksum mismatch.
        FileNotFoundError: the path does not exist.
    """
    try:
        with np.load(path, allow_pickle=False) as data:
            if "format" not in data:
                raise CorruptCaptureError(
                    "no 'format' field; not an EMPROF capture file", path=path
                )
            fmt = str(data["format"])
            if fmt not in (_CAPTURE_FORMAT, _CAPTURE_FORMAT_V1):
                raise CorruptCaptureError(
                    f"not an EMPROF capture file (format={fmt!r})", path=path
                )
            try:
                magnitude = np.asarray(data["magnitude"], dtype=np.float64)
                sample_rate_hz = float(data["sample_rate_hz"])
                clock_hz = float(data["clock_hz"])
                bandwidth_hz = float(data["bandwidth_hz"])
                regions_raw = str(data["region_names"])
            except KeyError as exc:
                raise CorruptCaptureError(
                    f"capture file is missing field {exc}", path=path
                ) from exc
            regions = _decode_region_names(regions_raw, path)
            if fmt == _CAPTURE_FORMAT:
                _verify_lengths_and_checksum(
                    path,
                    expected_n=int(data["n_samples"]),
                    actual_n=len(magnitude),
                    expected_crc=int(data["checksum"]),
                    arrays=(magnitude,),
                    what="capture",
                )
            return Capture(
                magnitude=magnitude,
                sample_rate_hz=sample_rate_hz,
                clock_hz=clock_hz,
                bandwidth_hz=bandwidth_hz,
                region_names=regions,
            )
    except (CorruptCaptureError, FileNotFoundError):
        raise
    except _READ_ERRORS as exc:
        raise CorruptCaptureError(
            f"unreadable capture file: {exc}", path=path
        ) from exc


def _verify_lengths_and_checksum(
    path: PathLike,
    expected_n: int,
    actual_n: int,
    expected_crc: int,
    arrays,
    what: str,
) -> None:
    """Raise :class:`CorruptCaptureError` on truncation or bit rot."""
    if expected_n != actual_n:
        raise CorruptCaptureError(
            f"truncated {what}: header promises {expected_n} records, "
            f"file holds {actual_n}",
            path=path,
        )
    actual_crc = _checksum(*arrays)
    if actual_crc != expected_crc:
        raise CorruptCaptureError(
            f"{what} checksum mismatch: stored {expected_crc:#010x}, "
            f"computed {actual_crc:#010x} (bit rot or partial write)",
            path=path,
        )


# -- profile reports ------------------------------------------------------------


def report_to_dict(report: ProfileReport) -> dict:
    """JSON-ready representation of a profile report."""
    payload = {
        "format": _REPORT_FORMAT,
        "clock_hz": report.clock_hz,
        "sample_period_cycles": report.sample_period_cycles,
        "total_cycles": report.total_cycles,
        "region_names": {str(k): v for k, v in report.region_names.items()},
        "stalls": report.table.to_dict(),
    }
    if report.quality is not None:
        q = report.quality
        payload["quality"] = {
            "gap_count": q.gap_count,
            "dropped_samples": q.dropped_samples,
            "clipped_samples": q.clipped_samples,
            "burst_samples": q.burst_samples,
            "gain_steps": q.gain_steps,
            "impaired_sample_spans": q.impaired_sample_spans,
            "impaired_samples": q.impaired_samples,
        }
    if report.evidence is not None:
        # Only present on flight-recorded runs, so a report profiled
        # without a recorder has the same keys as before evidence existed.
        payload["evidence"] = report.evidence.to_dict()
    return payload


def _v1_stalls(records: list) -> StallTable:
    """A v1 report's per-stall objects as columns, in one pass."""
    if not records:
        return StallTable.empty()
    required = operator.itemgetter(*STALL_FIELDS[:6])
    return StallTable(
        *zip(
            *(
                required(s) + (s.get("region"), s.get("low_confidence", False))
                for s in records
            )
        )
    )


def report_from_dict(payload: dict) -> ProfileReport:
    """Inverse of :func:`report_to_dict`; also reads v1 payloads."""
    fmt = payload.get("format")
    if fmt == _REPORT_FORMAT:
        stalls = StallTable.from_dict(payload["stalls"])
    elif fmt == _REPORT_FORMAT_V1:
        stalls = _v1_stalls(payload["stalls"])
    else:
        raise ValueError(f"not an EMPROF report payload (format={fmt!r})")
    quality = None
    if payload.get("quality"):
        quality = QualitySummary(**payload["quality"])
    evidence = None
    if payload.get("evidence"):
        evidence = ReportEvidence.from_dict(payload["evidence"])
    return ProfileReport(
        stalls=stalls,
        total_cycles=payload["total_cycles"],
        clock_hz=payload["clock_hz"],
        sample_period_cycles=payload["sample_period_cycles"],
        region_names={int(k): v for k, v in payload.get("region_names", {}).items()},
        quality=quality,
        evidence=evidence,
    )


def save_report(path: PathLike, report: ProfileReport) -> None:
    """Write a profile report to ``path`` (.json)."""
    Path(path).write_text(json.dumps(report_to_dict(report)))


def load_report(path: PathLike) -> ProfileReport:
    """Read a report written by :func:`save_report` (v1 or v2)."""
    return report_from_dict(json.loads(Path(path).read_text()))


# -- flight sidecars ----------------------------------------------------------


def save_flight(path: PathLike, recorder: FlightRecorder, **meta) -> int:
    """Spill a flight recorder's events to ``path`` (NDJSON sidecar).

    ``meta`` key/values land in the sidecar header (capture path,
    campaign run name, ...).  Returns the number of events written.
    """
    return recorder.spill(path, meta=meta or None)


def load_flight(path: PathLike):
    """Read a ``.flight`` sidecar written by :func:`save_flight`.

    Returns ``(header, events)`` where ``events`` is a list of
    :class:`repro.obs.flight.FlightEvent`.

    Raises:
        CorruptCaptureError: empty file, foreign/malformed header, or
            a malformed event line.
        FileNotFoundError: the path does not exist.
    """
    try:
        return read_flight(path)
    except FileNotFoundError:
        raise
    except _READ_ERRORS as exc:
        raise CorruptCaptureError(
            f"unreadable flight sidecar: {exc}", path=path
        ) from exc


# -- ground truth ------------------------------------------------------------------


def save_ground_truth(path: PathLike, truth: GroundTruth) -> None:
    """Write a ground-truth trace to ``path`` (.npz, columnar, v2)."""
    misses = truth.misses
    stalls = truth.stalls
    miss_addr = np.array([m.addr for m in misses], dtype=np.int64)
    miss_detect = np.array([m.detect_cycle for m in misses], dtype=np.int64)
    stall_begin = np.array([s.begin_cycle for s in stalls], dtype=np.int64)
    stall_end = np.array([s.end_cycle for s in stalls], dtype=np.int64)
    np.savez_compressed(
        path,
        format=_TRUTH_FORMAT,
        total_cycles=truth.total_cycles,
        total_instructions=truth.total_instructions,
        n_misses=len(misses),
        n_stalls=len(stalls),
        checksum=_checksum(miss_addr, miss_detect, stall_begin, stall_end),
        region_names=json.dumps({str(k): v for k, v in truth.region_names.items()}),
        region_cycles=json.dumps({str(k): v for k, v in truth.region_cycles.items()}),
        miss_kind=np.array([m.kind for m in misses], dtype="U8"),
        miss_addr=miss_addr,
        miss_detect=miss_detect,
        miss_ready=np.array([m.ready_cycle for m in misses], dtype=np.int64),
        miss_stall=np.array(
            [-1 if m.stall_id is None else m.stall_id for m in misses], dtype=np.int64
        ),
        miss_refresh=np.array([m.refresh_blocked for m in misses], dtype=bool),
        miss_region=np.array([m.region for m in misses], dtype=np.int64),
        stall_begin=stall_begin,
        stall_end=stall_end,
        stall_cause=np.array([s.cause for s in stalls], dtype="U16"),
        stall_refresh=np.array([s.refresh for s in stalls], dtype=bool),
        stall_region=np.array([s.region for s in stalls], dtype=np.int64),
        stall_misses=json.dumps([s.miss_ids for s in stalls]),
    )


def load_ground_truth(path: PathLike) -> GroundTruth:
    """Read a trace written by :func:`save_ground_truth` (v1 or v2).

    Raises:
        CorruptCaptureError: wrong format, missing/truncated columns,
            malformed JSON fields, or checksum mismatch.
        FileNotFoundError: the path does not exist.
    """
    try:
        with np.load(path, allow_pickle=False) as data:
            if "format" not in data:
                raise CorruptCaptureError(
                    "no 'format' field; not an EMPROF ground-truth file",
                    path=path,
                )
            fmt = str(data["format"])
            if fmt not in (_TRUTH_FORMAT, _TRUTH_FORMAT_V1):
                raise CorruptCaptureError(
                    f"not an EMPROF ground-truth file (format={fmt!r})",
                    path=path,
                )
            try:
                return _decode_ground_truth(data, fmt, path)
            except KeyError as exc:
                raise CorruptCaptureError(
                    f"ground-truth file is missing field {exc}", path=path
                ) from exc
    except (CorruptCaptureError, FileNotFoundError):
        raise
    except _READ_ERRORS as exc:
        raise CorruptCaptureError(
            f"unreadable ground-truth file: {exc}", path=path
        ) from exc


def _decode_ground_truth(data, fmt: str, path: PathLike) -> GroundTruth:
    """Decode the columnar arrays of one ground-truth npz.

    Each ``data[key]`` decompresses its whole member again, so every
    column is read exactly once.
    """
    miss_addr = data["miss_addr"]
    miss_detect = data["miss_detect"]
    stall_begin = data["stall_begin"]
    stall_end = data["stall_end"]
    n_miss = len(miss_addr)
    n_stall = len(stall_begin)
    if fmt == _TRUTH_FORMAT:
        _verify_lengths_and_checksum(
            path,
            expected_n=int(data["n_misses"]),
            actual_n=n_miss,
            expected_crc=int(data["checksum"]),
            arrays=(
                np.asarray(miss_addr, dtype=np.int64),
                np.asarray(miss_detect, dtype=np.int64),
                np.asarray(stall_begin, dtype=np.int64),
                np.asarray(stall_end, dtype=np.int64),
            ),
            what="ground truth",
        )
        n_stalls_header = int(data["n_stalls"])
        if n_stalls_header != n_stall:
            raise CorruptCaptureError(
                f"truncated ground truth: header promises "
                f"{n_stalls_header} stalls, file holds {n_stall}",
                path=path,
            )
    kind = data["miss_kind"].tolist()
    addr = miss_addr.tolist()
    detect = miss_detect.tolist()
    ready = data["miss_ready"].tolist()
    miss_stall = data["miss_stall"].tolist()
    miss_refresh = data["miss_refresh"].tolist()
    miss_region = data["miss_region"].tolist()
    misses = [
        MissRecord(
            miss_id=i,
            kind=str(kind[i]),
            addr=int(addr[i]),
            detect_cycle=int(detect[i]),
            ready_cycle=int(ready[i]),
            stall_id=None if int(miss_stall[i]) < 0 else int(miss_stall[i]),
            refresh_blocked=bool(miss_refresh[i]),
            region=int(miss_region[i]),
        )
        for i in range(n_miss)
    ]
    try:
        miss_lists = json.loads(str(data["stall_misses"]))
    except json.JSONDecodeError as exc:
        raise CorruptCaptureError(
            f"malformed stall_misses JSON: {exc}", path=path
        ) from exc
    begin = stall_begin.tolist()
    end = stall_end.tolist()
    cause = data["stall_cause"].tolist()
    stall_refresh = data["stall_refresh"].tolist()
    stall_region = data["stall_region"].tolist()
    stalls = [
        StallRecord(
            stall_id=i,
            begin_cycle=int(begin[i]),
            end_cycle=int(end[i]),
            cause=str(cause[i]),
            miss_ids=list(miss_lists[i]),
            refresh=bool(stall_refresh[i]),
            region=int(stall_region[i]),
        )
        for i in range(n_stall)
    ]
    try:
        region_names = {
            int(k): v for k, v in json.loads(str(data["region_names"])).items()
        }
        region_cycles = {
            int(k): int(v)
            for k, v in json.loads(str(data["region_cycles"])).items()
        }
    except (json.JSONDecodeError, ValueError, AttributeError) as exc:
        raise CorruptCaptureError(
            f"malformed region mapping JSON: {exc}", path=path
        ) from exc
    return GroundTruth(
        misses=misses,
        stalls=stalls,
        total_cycles=int(data["total_cycles"]),
        total_instructions=int(data["total_instructions"]),
        region_names=region_names,
        region_cycles=region_cycles,
    )
