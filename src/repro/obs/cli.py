"""``repro obs`` / ``repro-obs``: inspect observability artifacts.

One command tree, mounted by both entry points
(:func:`add_subcommands`):

* ``show --trace SPANS_JSON`` - the per-name span rollup (count,
  time, summed work attributes) of a trace written by ``repro profile
  --trace-out``, or of a campaign pass's ``trace.json``, which holds
  its forked workers' spans too (trace payload versions 1 to 3 all
  read);
* ``demo`` - a self-contained live demo: a synthetic streaming
  producer, the status server and the ``watch`` loop in one process,
  then the run's span rollup;
* ``ledger LEDGER.jsonl`` - list run-ledger entries;
* ``regress LEDGER.jsonl`` - judge the latest run of every group
  against its history (:mod:`repro.obs.regress`);
* ``dashboard LEDGER.jsonl -o out.html`` - write the self-contained
  HTML dashboard (:mod:`repro.obs.dashboard`);
* ``tail TARGET`` - print recent events, read from an NDJSON events
  file (a campaign's ``events.ndjsonl``) or queried from a live
  status server (:mod:`repro.obs.statusd`) at ``HOST:PORT``;
* ``watch HOST:PORT`` - poll a live server and render streaming
  progress (chunks/s, stall rate, quality flags).

Exit codes (CI contract, pinned by tests):

* ``0`` - success; for ``regress``, no regression detected
  (insufficient history is success);
* ``2`` - invalid input: a named file is missing or unreadable, or the
  arguments do not parse;
* ``3`` - ``regress`` found at least one regression.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Any, Dict, Optional, Sequence

from .ledger import RUN_KINDS, RunLedger
from .trace import rollup

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_REGRESSION = 3

DESCRIPTION = (
    "EMPROF observability: span rollup printer, run "
    "ledger, regression gate, HTML dashboard and live event tools"
)


def format_trace_summary(payload: Dict[str, Any]) -> str:
    """The per-name rollup of a native-format trace document.

    One row per span name, busiest first: count, total and mean time,
    then the summed integer attributes - how much work each stage did.
    """
    spans = payload.get("spans", [])
    if not spans:
        return "(no spans recorded)"
    rows = rollup(
        (span["name"], span.get("duration_s", 0.0), span.get("attrs") or {})
        for span in spans
    )
    width = max(len(name) for name in rows)
    lines = [f"{len(spans)} spans ({payload.get('dropped', 0)} dropped)"]
    lines.append(
        f"  {'span':<{width}}  {'count':>7}  {'total':>10}  {'mean':>10}  sums"
    )
    for name in sorted(rows, key=lambda n: -rows[n]["total_s"]):
        row = rows[name]
        sums = " ".join(f"{k}={v}" for k, v in sorted(row["sums"].items()))
        lines.append(
            f"  {name:<{width}}  {row['count']:>7}  "
            f"{row['total_s'] * 1e3:>8.3f}ms  {row['mean_s'] * 1e3:>8.3f}ms  "
            f"{sums}".rstrip()
        )
    return "\n".join(lines)


def _read_json(path: str) -> Optional[Dict[str, Any]]:
    """The JSON object in ``path``, or None after printing why not."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"repro-obs: cannot read {path}: {exc}", file=sys.stderr)
        return None
    if not isinstance(document, dict):
        print(f"repro-obs: cannot read {path}: not a JSON object", file=sys.stderr)
        return None
    return document


def cmd_show(args: argparse.Namespace) -> int:
    """Print the per-name rollup of a span trace."""
    if not args.trace:
        print("repro-obs: show needs --trace SPANS_JSON", file=sys.stderr)
        return EXIT_BAD_INPUT
    document = _read_json(args.trace)
    if document is None:
        return EXIT_BAD_INPUT
    print(format_trace_summary(document))
    return EXIT_OK


# -- ledger-backed subcommands ----------------------------------------------


def _load_ledger(path: str, allow_missing: bool = False):
    """Open and read a ledger, or return an exit code on bad input.

    Returns ``(records, bad_lines)`` on success and an ``int`` exit
    code on failure, so callers can ``return`` it directly.
    """
    ledger = RunLedger(path)
    if not ledger.exists():
        if allow_missing:
            print(f"repro-obs: no ledger at {path} yet; nothing to check")
            return EXIT_OK
        print(f"repro-obs: cannot read {path}: no such file", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        return ledger.read_with_errors()
    except OSError as exc:
        print(f"repro-obs: cannot read {path}: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


def cmd_ledger(args: argparse.Namespace) -> int:
    """List ledger entries (newest last, like the file itself)."""
    loaded = _load_ledger(args.ledger)
    if isinstance(loaded, int):
        return loaded
    records, bad_lines = loaded
    if args.kind:
        records = [r for r in records if r.kind == args.kind]
    selected = len(records)
    if args.tail > 0:
        records = records[-args.tail:]
    if not records:
        print("(empty ledger)")
        return EXIT_OK
    hidden = selected - len(records)
    if hidden > 0:
        print(
            f"(showing last {len(records)} of {selected} entries; "
            f"--tail 0 for all)"
        )
    group_width = max(len(r.group) for r in records)
    print(
        f"{'run':<{group_width}}  {'wall':>10}  {'rev':>9}  "
        f"{'fingerprint':>24}  schema"
    )
    for entry in records:
        print(
            f"{entry.group:<{group_width}}  "
            f"{entry.wall_time_s * 1e3:>8.2f}ms  {entry.git_rev:>9}  "
            f"{entry.config_fingerprint or '-':>24}  v{entry.schema_version}"
        )
    summary = f"{len(records)} entries"
    if bad_lines:
        summary += f" ({bad_lines} unparseable lines skipped)"
    print(summary)
    return EXIT_OK


def cmd_regress(args: argparse.Namespace) -> int:
    """Judge the latest run of every group against its history."""
    from .regress import RegressConfig, check_records

    loaded = _load_ledger(args.ledger, allow_missing=args.allow_missing)
    if isinstance(loaded, int):
        return loaded
    records, bad_lines = loaded
    if args.kind:
        records = [r for r in records if r.kind == args.kind]
    try:
        config = RegressConfig(
            baseline_window=args.window,
            min_history=args.min_history,
            mad_sigmas=args.sigmas,
            rel_slack=args.rel_slack,
            include_spans=not args.no_spans,
        )
    except ValueError as exc:
        print(f"repro-obs: invalid regression config: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    report = check_records(records, config)
    print(report.format())
    if bad_lines:
        print(f"({bad_lines} unparseable ledger lines skipped)")
    return EXIT_OK if report.ok else EXIT_REGRESSION


def cmd_dashboard(args: argparse.Namespace) -> int:
    """Write the self-contained HTML dashboard from ledger history."""
    from .dashboard import write_dashboard

    loaded = _load_ledger(args.ledger)
    if isinstance(loaded, int):
        return loaded
    records, bad_lines = loaded
    destination = write_dashboard(args.output, records, title=args.title)
    note = f" ({bad_lines} unparseable lines skipped)" if bad_lines else ""
    print(f"dashboard ({len(records)} entries) -> {destination}{note}")
    return EXIT_OK


# -- live subcommands --------------------------------------------------------


def format_event(event) -> str:
    """One-line terminal rendering of an event."""
    stamp = time.strftime("%H:%M:%S", time.localtime(event.t_unix_s))
    attrs = " ".join(
        f"{key}={value}" for key, value in sorted(event.attrs.items())
    )
    return f"{stamp}  {event.source:<8} {event.kind:<19} {attrs}".rstrip()


def cmd_tail(args: argparse.Namespace) -> int:
    """Print recent events from an events file or a live server."""
    from . import statusd
    from .events import Event, read_events

    note = ""
    if Path(args.target).is_file():
        events, bad_lines = read_events(args.target)
        events = events[-args.n:] if args.n > 0 else []
        if bad_lines:
            note = f" ({bad_lines} unparseable lines skipped)"
    else:
        try:
            host, port = statusd.parse_address(args.target)
        except ValueError:
            print(
                f"repro-obs: {args.target} is neither an events file "
                "nor HOST:PORT",
                file=sys.stderr,
            )
            return EXIT_BAD_INPUT
        try:
            response = statusd.query(host, port, {"req": "tail", "n": args.n})
        except (OSError, ValueError) as exc:
            print(f"repro-obs: cannot query {host}:{port}: {exc}", file=sys.stderr)
            return EXIT_BAD_INPUT
        if not response.get("ok"):
            print(f"repro-obs: server error: {response.get('error')}", file=sys.stderr)
            return EXIT_BAD_INPUT
        events = []
        for payload in response.get("events", []):
            try:
                events.append(Event.from_dict(payload))
            except ValueError:
                continue
    for event in events:
        print(format_event(event))
    print(f"{len(events)} event(s){note}")
    return EXIT_OK


def _watch_line(previous: Dict[str, Any], stats: Dict[str, Any], dt: float) -> str:
    """One progress line from two successive ``status`` rollups.

    Rates come from the per-kind event counts, which every profiling
    mode feeds: a batch run emits no ``chunk_processed`` events but one
    ``stall_detected`` per stall.
    """
    def count_rate(kind: str) -> float:
        now = stats.get("counts", {}).get(kind, 0)
        before = previous.get("counts", {}).get(kind, 0)
        return max(0.0, (now - before) / dt)

    alive = len(stats.get("last_heartbeat_unix_s", {}))
    flags = stats.get("counts", {}).get("quality_flag", 0)
    return (
        f"{count_rate('chunk_processed'):>8.1f} chunks/s  "
        f"{count_rate('stall_detected'):>8.1f} stalls/s  "
        f"{flags:>4} quality flags  "
        f"{alive:>2} source(s)"
    )


#: Ceiling on the watch client's reconnect backoff between probes.
_RECONNECT_CAP_S = 2.0


def _watch_loop(
    host: str,
    port: int,
    interval_s: float,
    duration_s: Optional[float],
    reconnect_timeout_s: float = 10.0,
) -> int:
    """Poll ``status`` and render progress until duration (or error).

    A server that was *never* reachable is a bad address: fail fast
    with :data:`EXIT_BAD_INPUT`.  A server that drops mid-stream (a
    campaign pass ended, ``repro-campaignd`` restarted) is retried
    with capped exponential backoff for up to ``reconnect_timeout_s``
    before the watcher gives up; on reconnect the rate baseline is
    reset, since a restarted server's counters restart from zero.
    ``reconnect_timeout_s=0`` disables retrying (one strike and out).
    """
    from . import statusd

    previous: Optional[Dict[str, Any]] = None
    previous_t = time.monotonic()
    deadline = (
        None if duration_s is None else time.monotonic() + duration_s
    )
    ever_connected = False
    lost_at: Optional[float] = None
    backoff_s = 0.0
    while True:
        try:
            response = statusd.query(host, port, {"req": "status"})
        except (OSError, ValueError) as exc:
            if not ever_connected:
                print(
                    f"repro-obs: cannot query {host}:{port}: {exc}",
                    file=sys.stderr,
                )
                return EXIT_BAD_INPUT
            now = time.monotonic()
            if lost_at is None:
                lost_at = now
                backoff_s = min(max(interval_s, 0.05), _RECONNECT_CAP_S)
                if reconnect_timeout_s > 0:
                    print(
                        f"(connection lost; retrying for up to "
                        f"{reconnect_timeout_s:.0f}s)"
                    )
            if (
                reconnect_timeout_s <= 0
                or now - lost_at >= reconnect_timeout_s
            ):
                print("(server went away)")
                return EXIT_OK
            if deadline is not None and now >= deadline:
                return EXIT_OK
            try:
                time.sleep(backoff_s)
            except KeyboardInterrupt:  # pragma: no cover - interactive
                return EXIT_OK
            backoff_s = min(backoff_s * 2.0, _RECONNECT_CAP_S)
            continue
        ever_connected = True
        if lost_at is not None:
            lost_at = None
            previous = None  # restarted counters: drop the baseline
            print("(reconnected; rate baseline reset)")
        stats = response.get("events", {})
        now = time.monotonic()
        if previous is not None:
            print(_watch_line(previous, stats, max(now - previous_t, 1e-9)))
        previous, previous_t = stats, now
        if deadline is not None and now >= deadline:
            return EXIT_OK
        try:
            time.sleep(interval_s)
        except KeyboardInterrupt:  # pragma: no cover - interactive stop
            return EXIT_OK


#: How long ``demo`` streams before it prints its span rollup.
_DEMO_DURATION_S = 2.0


def cmd_demo(args: argparse.Namespace) -> int:
    """Self-contained live demo: producer + status server + watcher.

    Streams a synthetic dip signal through :class:`StreamingEmprof` on
    a background thread (emitting per-chunk events and heartbeats),
    serves the bus on an ephemeral port and runs the watch loop
    against it, then prints the run's span rollup - one process, no
    arguments, bounded runtime.  This is what ``make watch-demo``
    runs.
    """
    import threading

    import numpy as np

    from . import set_obs_enabled, statusd, trace
    from .events import bus
    from ..core.streaming import StreamingEmprof

    previous_enabled = set_obs_enabled(True)
    bus.reset()
    trace.reset()
    previous_source = bus.set_source("demo")
    stop = threading.Event()

    def _produce() -> None:
        rng = np.random.default_rng(0)
        streamer = StreamingEmprof(sample_rate_hz=50e6, clock_hz=1e9)
        while not stop.is_set():
            chunk = 0.9 + rng.normal(0, 0.02, 5000)
            for start in range(400, 4600, 700):
                chunk[start : start + 13] = 0.1
            streamer.process(np.clip(chunk, 0.0, None))
            bus.emit("heartbeat", worker="demo")
            if stop.wait(0.05):
                break
        streamer.finish()

    server = statusd.StatusServer(bus).start()
    producer = threading.Thread(
        target=_produce, name="obs-demo-producer", daemon=True
    )
    producer.start()
    print(
        f"demo: streaming profile on {server.host}:{server.port} "
        f"for {_DEMO_DURATION_S:.0f}s"
    )
    try:
        code = _watch_loop(server.host, server.port, 0.25, _DEMO_DURATION_S)
    finally:
        stop.set()
        producer.join(timeout=2.0)
        server.close()
        bus.reset()
        bus.set_source(previous_source)
        set_obs_enabled(previous_enabled)
    print()
    print(format_trace_summary(trace.to_payload()))
    return code


def cmd_watch(args: argparse.Namespace) -> int:
    """Render live progress from a status server."""
    from . import statusd

    try:
        host, port = statusd.parse_address(args.address)
    except ValueError as exc:
        print(f"repro-obs: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    return _watch_loop(
        host,
        port,
        args.interval,
        args.duration,
        reconnect_timeout_s=args.reconnect_timeout,
    )


def add_subcommands(parser: argparse.ArgumentParser) -> None:
    """Mount the obs command tree on ``parser``.

    ``repro-obs`` (:func:`build_parser`) and ``repro obs`` (the main
    CLI) both call this, so the two spellings are one tree.
    """
    sub = parser.add_subparsers(dest="subcommand", required=True)

    show = sub.add_parser(
        "show", help="print the per-name rollup of a span trace"
    )
    show.add_argument(
        "--trace",
        metavar="SPANS_JSON",
        help="span trace to roll up (from `repro profile --trace-out` "
        "or a campaign pass's trace.json)",
    )
    show.set_defaults(func=cmd_show)

    sub.add_parser(
        "demo",
        help="live demo: streaming producer, status server and watch "
        "loop in one process, then the run's span rollup",
    ).set_defaults(func=cmd_demo)

    led = sub.add_parser("ledger", help="list run-ledger entries")
    led.add_argument("ledger", help="ledger .jsonl path")
    led.add_argument(
        "--kind", choices=RUN_KINDS, help="only entries of this run kind"
    )
    led.add_argument(
        "--tail",
        type=int,
        default=20,
        help="only the last N entries (default 20, so campaign-scale "
        "ledgers stay readable; 0 lists everything)",
    )
    led.set_defaults(func=cmd_ledger)

    reg = sub.add_parser(
        "regress", help="compare the latest runs against ledger history"
    )
    reg.add_argument("ledger", help="ledger .jsonl path")
    reg.add_argument(
        "--kind", choices=RUN_KINDS, help="only judge entries of this run kind"
    )
    reg.add_argument(
        "--window", type=int, default=5, help="baseline window size"
    )
    reg.add_argument(
        "--min-history", type=int, default=3,
        help="prior entries required before a group is judged",
    )
    reg.add_argument(
        "--sigmas", type=float, default=4.0, help="MAD-sigma slack multiplier"
    )
    reg.add_argument(
        "--rel-slack", type=float, default=0.25, help="relative slack floor"
    )
    reg.add_argument(
        "--no-spans", action="store_true",
        help="judge wall time only, not per-span totals",
    )
    reg.add_argument(
        "--allow-missing", action="store_true",
        help="exit 0 when the ledger does not exist yet (fresh checkout)",
    )
    reg.set_defaults(func=cmd_regress)

    dash = sub.add_parser(
        "dashboard", help="write the self-contained HTML dashboard"
    )
    dash.add_argument("ledger", help="ledger .jsonl path")
    dash.add_argument(
        "-o", "--output", default="dashboard_obs.html",
        help="output HTML path (default: dashboard_obs.html)",
    )
    dash.add_argument(
        "--title", default="EMPROF run observatory", help="report title"
    )
    dash.set_defaults(func=cmd_dashboard)

    tail = sub.add_parser(
        "tail", help="print recent events from an events file or a server"
    )
    tail.add_argument(
        "target",
        metavar="TARGET",
        help="an NDJSON events file (e.g. a campaign's events.ndjsonl), "
        "or HOST:PORT of a live status server",
    )
    tail.add_argument(
        "-n", type=int, default=20, help="events to show (default: 20)"
    )
    tail.set_defaults(func=cmd_tail)

    watch = sub.add_parser(
        "watch", help="render live progress from a status server"
    )
    watch.add_argument("address", help="HOST:PORT of a status server")
    watch.add_argument(
        "--interval", type=float, default=1.0,
        help="seconds between progress lines (default: 1)",
    )
    watch.add_argument(
        "--duration", type=float, default=None,
        help="stop after this many seconds (default: until interrupted)",
    )
    watch.add_argument(
        "--reconnect-timeout", type=float, default=10.0, metavar="S",
        help="keep retrying a dropped server for this long with capped "
        "exponential backoff; 0 gives up on the first miss "
        "(default: 10)",
    )
    watch.set_defaults(func=cmd_watch)


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-obs`` parser."""
    parser = argparse.ArgumentParser(prog="repro-obs", description=DESCRIPTION)
    add_subcommands(parser)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
