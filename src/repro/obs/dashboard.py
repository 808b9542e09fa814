"""Self-contained HTML dashboard over the run ledger.

``render_dashboard`` turns ledger history (:mod:`repro.obs.ledger`)
into **one** HTML file with zero external references: styles are an
inline ``<style>`` block, charts are inline SVG sparklines and plain
CSS bars, and there is no ``<script>``, no network fetch, and no
third-party import anywhere - the file opens identically on an
air-gapped bench machine, which is where EM-measurement campaigns
actually run.

Sections:

* headline tiles - entries, groups, regression verdicts, revisions;
* one card per ``(kind, label)`` group - wall-time trend sparkline,
  latest vs. baseline, and the observatory's verdict for that group;
* per-span timing breakdown of each group's latest entry (bars);
* work sparklines - each span's summed attributes (the rollup's
  ``sums``: stalls, samples, instructions) across ledger history;
* quality/fault overlay - signal-quality accounting and failed runs
  from campaign telemetry.

Verdict coloring follows the status convention (good/critical) and is
always paired with a text label, never color alone.
"""

from __future__ import annotations

import html
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .ledger import PathLike, RunRecord
from .regress import RegressConfig, RegressionReport, check_records

#: Sparkline geometry (CSS pixels).
_SPARK_WIDTH = 220
_SPARK_HEIGHT = 44
_SPARK_PAD = 4

#: Most spans / work sums shown per card before folding the tail.
_MAX_SPAN_ROWS = 8
_MAX_WORK_CHARTS = 6

_CSS = """
:root { color-scheme: light dark; }
body.viz-root {
  margin: 0; padding: 24px;
  background: var(--surface-1); color: var(--text-primary);
  font: 14px/1.5 system-ui, -apple-system, "Segoe UI", sans-serif;
  --surface-1: #fcfcfb; --surface-2: #f1f0ec;
  --text-primary: #0b0b0b; --text-secondary: #52514e;
  --grid: #dddcd6; --series-1: #2a78d6;
  --status-good: #0ca30c; --status-critical: #d03b3b;
}
@media (prefers-color-scheme: dark) {
  body.viz-root {
    --surface-1: #1a1a19; --surface-2: #242423;
    --text-primary: #ffffff; --text-secondary: #c3c2b7;
    --grid: #3a3a38; --series-1: #3987e5;
    --status-good: #0ca30c; --status-critical: #d03b3b;
  }
}
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 15px; margin: 28px 0 10px; }
.meta { color: var(--text-secondary); margin: 0 0 18px; }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; }
.tile {
  background: var(--surface-2); border-radius: 8px;
  padding: 10px 16px; min-width: 110px;
}
.tile .value { font-size: 22px; font-weight: 600; }
.tile .label { color: var(--text-secondary); font-size: 12px; }
.cards { display: flex; flex-wrap: wrap; gap: 14px; }
.card {
  background: var(--surface-2); border-radius: 8px;
  padding: 12px 16px; width: 300px;
}
.card .name { font-weight: 600; word-break: break-all; }
.card .sub { color: var(--text-secondary); font-size: 12px; margin-bottom: 6px; }
.spark line.mid { stroke: var(--grid); stroke-width: 1; }
.spark polyline {
  fill: none; stroke: var(--series-1);
  stroke-width: 2; stroke-linejoin: round; stroke-linecap: round;
}
.spark circle { fill: var(--series-1); }
.spark text { fill: var(--text-secondary); font-size: 10px; }
.badge {
  display: inline-block; border-radius: 10px; padding: 0 8px;
  font-size: 12px; font-weight: 600; color: #ffffff;
}
.badge.ok { background: var(--status-good); }
.badge.regression { background: var(--status-critical); }
.badge.pending { background: var(--text-secondary); }
.bar-row { display: flex; align-items: center; gap: 8px; margin: 2px 0; }
.bar-row .bar-label {
  width: 150px; font-size: 12px; color: var(--text-secondary);
  overflow: hidden; text-overflow: ellipsis; white-space: nowrap;
}
.bar-row .bar-track { flex: 1; background: var(--surface-1); border-radius: 4px; }
.bar-row .bar-fill {
  height: 10px; border-radius: 4px; background: var(--series-1);
  min-width: 2px;
}
.bar-row .bar-value { width: 80px; font-size: 12px; text-align: right; }
table.quality { border-collapse: collapse; font-size: 13px; }
table.quality th, table.quality td {
  text-align: right; padding: 4px 10px;
  border-bottom: 1px solid var(--grid);
}
table.quality th { color: var(--text-secondary); font-weight: 500; }
table.quality td.name, table.quality th.name { text-align: left; }
footer { margin-top: 28px; color: var(--text-secondary); font-size: 12px; }
"""


def _esc(value: Any) -> str:
    return html.escape(str(value), quote=True)


def _fmt_duration(seconds: float) -> str:
    """Human duration: picks s / ms / µs by magnitude."""
    magnitude = abs(seconds)
    if magnitude >= 1.0:
        return f"{seconds:.2f} s"
    if magnitude >= 1e-3:
        return f"{seconds * 1e3:.2f} ms"
    return f"{seconds * 1e6:.0f} µs"


def _fmt_when(unix_s: float) -> str:
    if unix_s <= 0:
        return "-"
    return time.strftime("%Y-%m-%d %H:%M:%S", time.gmtime(unix_s)) + " UTC"


def _sparkline(values: Sequence[float], latest_label: str = "") -> str:
    """Inline-SVG trend line with a dot on the newest point."""
    if not values:
        return ""
    width, height, pad = _SPARK_WIDTH, _SPARK_HEIGHT, _SPARK_PAD
    lowest = min(values)
    highest = max(values)
    value_span = highest - lowest
    points: List[Tuple[float, float]] = []
    n = len(values)
    for index, value in enumerate(values):
        x = pad + (width - 2 * pad) * (index / (n - 1) if n > 1 else 0.5)
        if value_span <= 0:
            y = height / 2
        else:
            y = (height - pad) - (height - 2 * pad) * (
                (value - lowest) / value_span
            )
        points.append((x, y))
    polyline = " ".join(f"{x:.1f},{y:.1f}" for x, y in points)
    last_x, last_y = points[-1]
    label = (
        f'<text x="{width - 2:.0f}" y="10" text-anchor="end">'
        f"{_esc(latest_label)}</text>"
        if latest_label
        else ""
    )
    return (
        f'<svg class="spark" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" role="img" '
        f'aria-label="trend, latest {_esc(latest_label)}">'
        f'<line class="mid" x1="{pad}" y1="{height / 2:.1f}" '
        f'x2="{width - pad}" y2="{height / 2:.1f}"/>'
        f'<polyline points="{polyline}"/>'
        f'<circle cx="{last_x:.1f}" cy="{last_y:.1f}" r="3"/>'
        f"{label}</svg>"
    )


def _badge(status: str) -> str:
    if status == "regression":
        return '<span class="badge regression">REGRESSION</span>'
    if status == "ok":
        return '<span class="badge ok">ok</span>'
    return '<span class="badge pending">gathering history</span>'


def _tile(value: str, label: str) -> str:
    return (
        f'<div class="tile"><div class="value">{_esc(value)}</div>'
        f'<div class="label">{_esc(label)}</div></div>'
    )


def _group_status(report: RegressionReport) -> Dict[str, str]:
    """Worst verdict per group: regression > ok > insufficient."""
    rank = {"regression": 2, "ok": 1}
    out: Dict[str, str] = {}
    for verdict in report.verdicts:
        current = out.get(verdict.group)
        if current is None or rank.get(verdict.status, 0) > rank.get(current, 0):
            out[verdict.group] = verdict.status
    return out


def _group_cards(
    groups: Dict[str, List[RunRecord]], status_by_group: Dict[str, str]
) -> List[str]:
    parts: List[str] = []
    for group in sorted(groups):
        entries = groups[group]
        walls = [e.wall_time_s for e in entries]
        latest = entries[-1]
        status = status_by_group.get(group, "insufficient-history")
        parts.append(
            '<div class="card">'
            f'<div class="name">{_esc(group)}</div>'
            f'<div class="sub">{len(entries)} entries · latest '
            f"{_fmt_duration(latest.wall_time_s)} · rev "
            f"{_esc(latest.git_rev)} · {_fmt_when(latest.created_unix_s)}"
            f"</div>"
            + _sparkline(walls, _fmt_duration(latest.wall_time_s))
            + f"<div>wall time {_badge(status)}</div>"
            "</div>"
        )
    return parts


def _span_section(groups: Dict[str, List[RunRecord]]) -> List[str]:
    parts: List[str] = []
    for group in sorted(groups):
        latest = groups[group][-1]
        if not latest.spans:
            continue
        rows: List[Tuple[str, float, float]] = []
        for name, rollup in latest.spans.items():
            if not isinstance(rollup, dict):
                continue
            try:
                total = float(rollup["total_s"])
                count = float(rollup.get("count", 0))
            except (KeyError, TypeError, ValueError):
                continue
            rows.append((name, total, count))
        if not rows:
            continue
        rows.sort(key=lambda r: -r[1])
        shown = rows[:_MAX_SPAN_ROWS]
        folded = rows[_MAX_SPAN_ROWS:]
        top = shown[0][1]
        bar_rows = []
        for name, total, count in shown:
            pct = 100.0 * total / top if top > 0 else 0.0
            bar_rows.append(
                '<div class="bar-row">'
                f'<div class="bar-label" title="{_esc(name)}">{_esc(name)}'
                f" ×{count:.0f}</div>"
                f'<div class="bar-track"><div class="bar-fill" '
                f'style="width:{pct:.1f}%"></div></div>'
                f'<div class="bar-value">{_fmt_duration(total)}</div>'
                "</div>"
            )
        if folded:
            rest = sum(total for _, total, _ in folded)
            bar_rows.append(
                f'<div class="sub">+ {len(folded)} more spans, '
                f"{_fmt_duration(rest)}</div>"
            )
        parts.append(
            f'<div class="card" style="width:520px">'
            f'<div class="name">{_esc(group)}</div>'
            f'<div class="sub">latest entry, spans by total time</div>'
            + "".join(bar_rows)
            + "</div>"
        )
    return parts


def _sum_value(entry: RunRecord, span: str, key: str) -> Optional[float]:
    row = (entry.spans or {}).get(span)
    value = row.get("sums", {}).get(key) if isinstance(row, dict) else None
    return float(value) if isinstance(value, (int, float)) else None


def _work_section(groups: Dict[str, List[RunRecord]]) -> List[str]:
    """Sparklines of each span's summed attributes across history."""
    parts: List[str] = []
    for group in sorted(groups):
        entries = groups[group]
        names = sorted(
            (span, key)
            for span, row in (entries[-1].spans or {}).items()
            if isinstance(row, dict)
            for key in row.get("sums", {})
        )
        charts: List[str] = []
        for span, key in names:
            series = [
                value
                for value in (_sum_value(e, span, key) for e in entries)
                if value is not None
            ]
            if len(series) < 2 or max(series) <= 0:
                continue
            name = f"{span}.{key}"
            charts.append(
                '<div class="card">'
                f'<div class="sub" title="{_esc(name)}">{_esc(name)}</div>'
                + _sparkline(series, f"{series[-1]:g}")
                + "</div>"
            )
            if len(charts) >= _MAX_WORK_CHARTS:
                break
        if charts:
            parts.append(
                f"<h2>work · {_esc(group)}</h2>"
                f'<div class="cards">{"".join(charts)}</div>'
            )
    return parts


#: Supervisor incident records surfaced alongside quality trouble.
_INCIDENT_KINDS = {
    "campaign-requeue": "requeued",
    "campaign-quarantine": "quarantined",
}

#: Run statuses that belong on the fault table even without quality
#: accounting: the run failed, its worker died/hung mid-lease, or the
#: supervisor quarantined it as a poison spec.
_TROUBLE_STATUSES = ("failed", "interrupted", "poisoned")


def _quality_section(records: Sequence[RunRecord]) -> str:
    rows: List[str] = []
    for entry in records:
        status = str(entry.extra.get("status", ""))
        incident = _INCIDENT_KINDS.get(entry.kind)
        if (
            entry.quality is None
            and status not in _TROUBLE_STATUSES
            and incident is None
        ):
            continue
        quality = entry.quality or {}
        shown = incident or status or "done"
        detail = str(entry.extra.get("reason", "") or "")
        attempts = entry.extra.get("attempts", "")
        rows.append(
            "<tr>"
            f'<td class="name">{_esc(entry.group)}</td>'
            f"<td>{_fmt_when(entry.created_unix_s)}</td>"
            f'<td>{_esc(shown)}</td>'
            f"<td>{_esc(str(attempts))}</td>"
            f"<td>{quality.get('gap_count', 0)}</td>"
            f"<td>{quality.get('dropped_samples', 0)}</td>"
            f"<td>{quality.get('clipped_samples', 0)}</td>"
            f"<td>{quality.get('gain_steps', 0)}</td>"
            f"<td>{quality.get('impaired_sample_spans', 0)}</td>"
            f"<td>{entry.extra.get('low_confidence_count', 0)}</td>"
            f'<td class="name">{_esc(detail)}</td>'
            "</tr>"
        )
    if not rows:
        return ""
    return (
        "<h2>quality &amp; faults</h2>"
        '<table class="quality"><thead><tr>'
        '<th class="name">run</th><th>when</th><th>status</th>'
        "<th>attempts</th>"
        "<th>gaps</th><th>dropped</th><th>clipped</th>"
        "<th>gain steps</th><th>impaired spans</th><th>low-conf</th>"
        '<th class="name">detail</th>'
        "</tr></thead><tbody>"
        + "".join(rows)
        + "</tbody></table>"
    )


def render_dashboard(
    records: Sequence[RunRecord],
    title: str = "EMPROF run observatory",
    regress_config: Optional[RegressConfig] = None,
) -> str:
    """Render ledger history as one self-contained HTML document."""
    groups: Dict[str, List[RunRecord]] = {}
    for entry in records:
        groups.setdefault(entry.group, []).append(entry)
    report = check_records(records, regress_config)
    status_by_group = _group_status(report)
    revisions = sorted({e.git_rev for e in records})

    tiles = [
        _tile(str(len(records)), "ledger entries"),
        _tile(str(len(groups)), "run groups"),
        _tile(str(len(report.regressions)), "regressions"),
        _tile(str(len(revisions)), "git revisions"),
    ]
    body: List[str] = [
        f"<header><h1>{_esc(title)}</h1>",
        f'<p class="meta">generated {_fmt_when(time.time())} · '
        f"schema repro-obs-ledger v1 · wall-time gate: median-of-window "
        f"baseline with MAD slack</p></header>",
        f'<section class="tiles">{"".join(tiles)}</section>',
    ]
    if groups:
        body.append("<h2>wall-time trends</h2>")
        body.append(
            '<div class="cards">'
            + "".join(_group_cards(groups, status_by_group))
            + "</div>"
        )
        span_cards = _span_section(groups)
        if span_cards:
            body.append("<h2>span breakdown (latest entries)</h2>")
            body.append(f'<div class="cards">{"".join(span_cards)}</div>')
        body.extend(_work_section(groups))
        quality = _quality_section(records)
        if quality:
            body.append(quality)
    else:
        body.append(
            '<p class="meta">The ledger is empty. Run '
            "<code>make bench</code>, <code>repro profile --ledger</code>, "
            "or a campaign to start accumulating history.</p>"
        )
    body.append(
        "<footer>EMPROF reproduction · repro.obs.dashboard · "
        "single-file report, no scripts, no network</footer>"
    )
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">'
        f"<title>{_esc(title)}</title>"
        f"<style>{_CSS}</style></head>"
        '<body class="viz-root">' + "".join(body) + "</body></html>\n"
    )


def write_dashboard(
    path: PathLike,
    records: Sequence[RunRecord],
    title: str = "EMPROF run observatory",
    regress_config: Optional[RegressConfig] = None,
) -> Path:
    """Render and write the dashboard; returns the output path."""
    destination = Path(path)
    if destination.parent != Path("."):
        destination.parent.mkdir(parents=True, exist_ok=True)
    destination.write_text(
        render_dashboard(records, title=title, regress_config=regress_config),
        encoding="utf-8",
    )
    return destination
