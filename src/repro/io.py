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
* ground-truth traces -> ``.npz`` (the miss and stall columns),
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

import itertools
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
from .sim.trace import MISS_COLUMNS, STALL_COLUMNS, GroundTruth

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
        "stalls": report.stalls.to_dict(),
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
    """Write a ground-truth trace to ``path`` (.npz, v2).

    The file holds the truth's miss and stall columns, each stall's
    contributing miss ids as one JSON list per stall
    (``stall_misses``), the miss and stall counts and a CRC-32 over the
    address and cycle columns.
    """
    columns = {name: getattr(truth, name) for name in (*MISS_COLUMNS, *STALL_COLUMNS)}
    columns["miss_kind"] = truth.miss_kind.astype("U8")
    columns["stall_cause"] = truth.stall_cause.astype("U16")
    ids = truth.stall_misses.tolist()
    at = truth.stall_offsets.tolist()
    np.savez_compressed(
        path,
        format=_TRUTH_FORMAT,
        total_cycles=truth.total_cycles,
        total_instructions=truth.total_instructions,
        n_misses=truth.miss_count(),
        n_stalls=len(truth.stall_begin),
        checksum=_checksum(truth.miss_addr, truth.miss_detect, truth.stall_begin, truth.stall_end),
        region_names=json.dumps({str(k): v for k, v in truth.region_names.items()}),
        region_cycles=json.dumps({str(k): v for k, v in truth.region_cycles.items()}),
        stall_misses=json.dumps([ids[i:j] for i, j in zip(at, at[1:])]),
        **columns,
    )


def load_ground_truth(path: PathLike) -> GroundTruth:
    """Read a trace written by :func:`save_ground_truth` (v1 or v2).

    The stored columns become the :class:`GroundTruth`'s columns; no
    miss or stall record is built until code reads ``.misses`` or
    ``.stalls``.  v1 files carry no counts or checksum.

    Raises:
        CorruptCaptureError: wrong format, missing columns, a column of
            the wrong length, an out-of-range miss or stall id,
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
    """The columns of one ground-truth npz, checked and handed over whole.

    Each ``data[key]`` decompresses its whole member again, so every
    column is read exactly once.  Every miss column must hold one entry
    per miss and every stall column one per stall (the v2 header's
    counts, else the first column's length), and the stall and miss ids
    the columns cross-reference must exist.
    """
    columns = {name: data[name] for name in (*MISS_COLUMNS, *STALL_COLUMNS)}
    n_miss, n_stall = len(columns["miss_addr"]), len(columns["stall_begin"])
    if fmt == _TRUTH_FORMAT:
        n_miss, n_stall = int(data["n_misses"]), int(data["n_stalls"])
    try:
        miss_lists = json.loads(str(data["stall_misses"]))
        sizes = np.fromiter(map(len, miss_lists), dtype=np.int64)
        ids = np.fromiter(itertools.chain.from_iterable(miss_lists), dtype=np.int64)
    except (ValueError, TypeError) as exc:
        raise CorruptCaptureError(
            f"malformed stall_misses JSON: {exc}", path=path
        ) from exc
    for name, column in (*columns.items(), ("stall_misses", sizes)):
        n = n_miss if name.startswith("miss_") else n_stall
        if np.shape(column) != (n,):
            raise CorruptCaptureError(
                f"truncated ground truth: {name} has shape {np.shape(column)}, "
                f"expected ({n},)",
                path=path,
            )
    stall_of = columns["miss_stall"]
    if (ids.size and not 0 <= ids.min() <= ids.max() < n_miss) or (
        stall_of.size and not -1 <= stall_of.min() <= stall_of.max() < n_stall
    ):
        raise CorruptCaptureError(
            f"ground truth cross-references a missing record: miss ids must lie "
            f"in [0, {n_miss}) and stall ids in [-1, {n_stall})",
            path=path,
        )
    if fmt == _TRUTH_FORMAT:
        crc = _checksum(
            *(np.asarray(columns[name], dtype=np.int64)
              for name in ("miss_addr", "miss_detect", "stall_begin", "stall_end"))
        )
        if crc != int(data["checksum"]):
            raise CorruptCaptureError(
                "ground truth checksum mismatch (bit rot or partial write)", path=path
            )
    columns["stall_misses"] = ids
    columns["stall_offsets"] = np.concatenate(([0], np.cumsum(sizes)))
    try:
        cycles = json.loads(str(data["region_cycles"]))
        region_cycles = {int(k): int(v) for k, v in cycles.items()}
    except (ValueError, TypeError, AttributeError) as exc:
        raise CorruptCaptureError(
            f"malformed region_cycles mapping: {exc}", path=path
        ) from exc
    return GroundTruth.from_columns(
        columns,
        total_cycles=int(data["total_cycles"]),
        total_instructions=int(data["total_instructions"]),
        region_names=_decode_region_names(str(data["region_names"]), path),
        region_cycles=region_cycles,
    )
