"""``repro-obs``: inspect observability artifacts from the terminal.

Two layers of interface, one exit-code contract:

**Snapshot forms** (the original surface):

* ``repro-obs metrics.json`` - pretty-print a metrics snapshot written
  by ``repro profile --metrics-out``;
* ``repro-obs --trace spans.json`` - summarize a span trace: one
  written by ``repro profile --trace-out``, or a campaign pass's
  ``trace.json``, which holds its forked workers' spans too (trace
  payload versions 1 to 3 all read);
* ``repro-obs --live`` (or no arguments) - run a small synthetic
  capture+profile with observability enabled and print the result.

**Observatory subcommands** (over the run ledger):

* ``repro-obs ledger LEDGER.jsonl`` - list ledger entries;
* ``repro-obs regress LEDGER.jsonl`` - judge the latest run of every
  group against its history (:mod:`repro.obs.regress`);
* ``repro-obs dashboard LEDGER.jsonl -o out.html`` - write the
  self-contained HTML dashboard (:mod:`repro.obs.dashboard`).

**Live subcommands** (over the event bus / status protocol):

* ``repro-obs serve`` - serve the line-JSON status protocol
  (:mod:`repro.obs.statusd`) over this process's event bus,
  optionally pre-loading an NDJSON event file;
* ``repro-obs tail HOST:PORT`` - print a live server's recent events;
* ``repro-obs watch HOST:PORT`` - poll a live server and render
  streaming progress (chunks/s, samples/s, stall rate, quality
  flags); ``repro-obs watch --demo`` runs a self-contained demo
  (producer + server + watcher in one process).

Exit codes (CI contract, pinned by tests):

* ``0`` - success; for ``regress``, no regression detected
  (insufficient history is success);
* ``2`` - invalid input: a named file is missing or unreadable;
* ``3`` - ``regress`` found at least one regression.

Also reachable as ``repro obs ...`` from the main CLI.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from .ledger import RunLedger

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_REGRESSION = 3

_SUBCOMMANDS = (
    "ledger",
    "regress",
    "dashboard",
    "serve",
    "tail",
    "watch",
)

_QUANTILES = (0.5, 0.9, 0.99)


def format_metrics_snapshot(snapshot: Dict[str, Any]) -> str:
    """Human-readable rendering of a registry snapshot document."""
    lines: List[str] = []
    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})
    histograms = snapshot.get("histograms", {})

    if counters:
        lines.append("counters:")
        width = max(len(name) for name in counters)
        for name in sorted(counters):
            lines.append(f"  {name:<{width}}  {counters[name]['value']:g}")
    if gauges:
        lines.append("gauges:")
        width = max(len(name) for name in gauges)
        for name in sorted(gauges):
            lines.append(f"  {name:<{width}}  {gauges[name]['value']:g}")
    if histograms:
        lines.append("histograms:")
        for name in sorted(histograms):
            hist = histograms[name]
            count = hist.get("count", 0)
            lines.append(f"  {name}:")
            lines.append(
                f"    count {count}   sum {hist.get('sum', 0.0):g}   "
                f"min {hist.get('min')}   max {hist.get('max')}"
            )
            if count:
                quants = "   ".join(
                    f"p{int(q * 100)} {_snapshot_quantile(hist, q):.3g}"
                    for q in _QUANTILES
                )
                lines.append(f"    {quants}")
    if not lines:
        lines.append("(no metrics recorded)")
    return "\n".join(lines)


def _snapshot_quantile(hist: Dict[str, Any], q: float) -> float:
    """Quantile estimate from a snapshot's cumulative buckets."""
    buckets = hist.get("buckets", [])
    total = hist.get("count", 0)
    if not total or not buckets:
        return 0.0
    target = q * total
    low = hist.get("min")
    previous_cumulative = 0
    previous_bound = low if isinstance(low, (int, float)) else 0.0
    for bucket in buckets:
        cumulative = bucket["count"]
        in_bucket = cumulative - previous_cumulative
        bound = bucket["le"]
        upper = (
            float(bound)
            if isinstance(bound, (int, float))
            else hist.get("max") or previous_bound
        )
        if cumulative >= target and in_bucket > 0:
            frac = min(max((target - previous_cumulative) / in_bucket, 0.0), 1.0)
            return previous_bound + frac * (upper - previous_bound)
        if in_bucket > 0:
            previous_bound = upper
        previous_cumulative = cumulative
    maximum = hist.get("max")
    return float(maximum) if isinstance(maximum, (int, float)) else previous_bound


def format_trace_summary(payload: Dict[str, Any]) -> str:
    """Per-span-name rollup of a native-format trace document."""
    spans = payload.get("spans", [])
    if not spans:
        return "(no spans recorded)"
    rollup: Dict[str, Dict[str, float]] = {}
    for span in spans:
        row = rollup.setdefault(span["name"], {"count": 0.0, "total_s": 0.0})
        row["count"] += 1.0
        row["total_s"] += span.get("duration_s", 0.0)
    width = max(len(name) for name in rollup)
    lines = [f"{len(spans)} spans ({payload.get('dropped', 0)} dropped)"]
    lines.append(f"  {'span':<{width}}  {'count':>7}  {'total':>10}  {'mean':>10}")
    for name in sorted(rollup, key=lambda n: -rollup[n]["total_s"]):
        row = rollup[name]
        mean_s = row["total_s"] / row["count"]
        lines.append(
            f"  {name:<{width}}  {int(row['count']):>7}  "
            f"{row['total_s'] * 1e3:>8.3f}ms  {mean_s * 1e3:>8.3f}ms"
        )
    return "\n".join(lines)


def run_live_demo() -> str:
    """Capture+profile a tiny synthetic workload with obs enabled.

    Returns the pretty-printed metric snapshot plus a trace summary.
    Imports the heavy pipeline lazily so ``repro-obs`` on a file stays
    instant.
    """
    from . import metrics, set_obs_enabled, trace
    from ..core.profiler import Emprof
    from ..devices import olimex
    from ..experiments.runner import run_device
    from ..workloads import Microbenchmark

    previous = set_obs_enabled(True)
    trace.reset()
    metrics.reset()
    try:
        workload = Microbenchmark(total_misses=64, consecutive_misses=4)
        run = run_device(workload, olimex(), bandwidth_hz=40e6, seed=0)
        # A second, streaming-free profile over the same capture keeps
        # the demo deterministic and exercises profile() spans too.
        Emprof.from_capture(run.capture).profile()
    finally:
        set_obs_enabled(previous)
    parts = [
        "live demo: micro workload on olimex @ 40 MHz",
        "",
        format_metrics_snapshot(metrics.snapshot()),
        "",
        format_trace_summary(trace.to_payload()),
    ]
    return "\n".join(parts)


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


def _parse_target(address: str):
    """``(host, port)`` or an exit code, printable-error included."""
    from . import statusd

    try:
        return statusd.parse_address(address)
    except ValueError as exc:
        print(f"repro-obs: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve the status protocol over this process's event bus."""
    from . import metrics, statusd
    from .events import bus, read_events

    if args.events:
        events, bad_lines = read_events(args.events)
        if not events and not Path(args.events).is_file():
            print(
                f"repro-obs: cannot read {args.events}: no such file",
                file=sys.stderr,
            )
            return EXIT_BAD_INPUT
        for event in events:
            bus.ingest(event.to_dict())
        note = f" ({bad_lines} unparseable lines skipped)" if bad_lines else ""
        print(f"loaded {len(events)} event(s) from {args.events}{note}")
    server = statusd.StatusServer(
        bus, metrics=metrics, host=args.host, port=args.port
    ).start()
    print(
        f"serving line-JSON status on {server.host}:{server.port} "
        "(status / metrics / tail N / health / watch)"
    )
    try:
        if args.duration is not None:
            time.sleep(args.duration)
        else:  # pragma: no cover - interactive foreground serve
            while True:
                time.sleep(3600)
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        pass
    finally:
        server.close()
    return EXIT_OK


def cmd_tail(args: argparse.Namespace) -> int:
    """Print a live server's most recent events."""
    from . import statusd
    from .events import Event

    target = _parse_target(args.address)
    if isinstance(target, int):
        return target
    host, port = target
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
    print(f"{len(events)} event(s)")
    return EXIT_OK


def _watch_line(previous: Dict[str, Any], stats: Dict[str, Any], dt: float) -> str:
    """One progress line from two successive ``status`` rollups."""
    def rate(key: str) -> float:
        return max(0.0, (stats.get(key, 0) - previous.get(key, 0)) / dt)

    def count_rate(kind: str) -> float:
        now = stats.get("counts", {}).get(kind, 0)
        before = previous.get("counts", {}).get(kind, 0)
        return max(0.0, (now - before) / dt)

    alive = len(stats.get("last_heartbeat_unix_s", {}))
    return (
        f"{count_rate('chunk_processed'):>8.1f} chunks/s  "
        f"{rate('samples_total'):>12.0f} samples/s  "
        f"{rate('stalls_total'):>8.1f} stalls/s  "
        f"{stats.get('quality_flags_total', 0):>4} quality flags  "
        f"{stats.get('dropped_events', 0):>4} dropped  "
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


def run_watch_demo(
    duration_s: float = 2.0, interval_s: float = 0.25
) -> int:
    """Self-contained live demo: producer + status server + watcher.

    Streams a synthetic dip signal through :class:`StreamingEmprof` on
    a background thread (emitting per-chunk events and heartbeats),
    serves the bus on an ephemeral port, and runs the watch loop
    against it - one process, no arguments, bounded runtime.  This is
    what ``make watch-demo`` runs.
    """
    import threading

    import numpy as np

    from . import set_obs_enabled, statusd
    from .events import bus
    from ..core.streaming import StreamingEmprof

    previous_enabled = set_obs_enabled(True)
    bus.reset()
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
        target=_produce, name="watch-demo-producer", daemon=True
    )
    producer.start()
    print(
        f"watch demo: streaming profile on {server.host}:{server.port} "
        f"for {duration_s:.0f}s"
    )
    try:
        return _watch_loop(server.host, server.port, interval_s, duration_s)
    finally:
        stop.set()
        producer.join(timeout=2.0)
        server.close()
        bus.reset()
        bus.set_source(previous_source)
        set_obs_enabled(previous_enabled)


def cmd_watch(args: argparse.Namespace) -> int:
    """Render live progress from a status server (or run the demo)."""
    if args.demo:
        duration = args.duration if args.duration is not None else 3.0
        return run_watch_demo(duration_s=duration, interval_s=args.interval)
    if not args.address:
        print(
            "repro-obs: watch needs HOST:PORT (or --demo)", file=sys.stderr
        )
        return EXIT_BAD_INPUT
    target = _parse_target(args.address)
    if isinstance(target, int):
        return target
    host, port = target
    return _watch_loop(
        host,
        port,
        args.interval,
        args.duration,
        reconnect_timeout_s=args.reconnect_timeout,
    )


def _build_sub_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-obs",
        description="EMPROF run-ledger observatory",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    led = sub.add_parser("ledger", help="list run-ledger entries")
    led.add_argument("ledger", help="ledger .jsonl path")
    led.add_argument("--kind", help="only entries of this run kind")
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
    reg.add_argument("--kind", help="only judge entries of this run kind")
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

    serve = sub.add_parser(
        "serve", help="serve the line-JSON status protocol"
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    serve.add_argument(
        "--port", type=int, default=0,
        help="bind port (default: 0 = ephemeral, printed at startup)",
    )
    serve.add_argument(
        "--events", help="pre-load an NDJSON event file into the bus"
    )
    serve.add_argument(
        "--duration", type=float, default=None,
        help="serve for this many seconds then exit (default: forever)",
    )
    serve.set_defaults(func=cmd_serve)

    tail = sub.add_parser(
        "tail", help="print a live status server's recent events"
    )
    tail.add_argument("address", help="HOST:PORT of a status server")
    tail.add_argument(
        "-n", type=int, default=20, help="events to fetch (default: 20)"
    )
    tail.set_defaults(func=cmd_tail)

    watch = sub.add_parser(
        "watch", help="render live progress from a status server"
    )
    watch.add_argument(
        "address", nargs="?", help="HOST:PORT of a status server"
    )
    watch.add_argument(
        "--interval", type=float, default=1.0,
        help="seconds between progress lines (default: 1)",
    )
    watch.add_argument(
        "--duration", type=float, default=None,
        help="stop after this many seconds (default: until interrupted)",
    )
    watch.add_argument(
        "--demo", action="store_true",
        help="run a self-contained producer+server+watcher demo",
    )
    watch.add_argument(
        "--reconnect-timeout", type=float, default=10.0, metavar="S",
        help="keep retrying a dropped server for this long with capped "
        "exponential backoff; 0 gives up on the first miss "
        "(default: 10)",
    )
    watch.set_defaults(func=cmd_watch)

    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-obs",
        description=(
            "pretty-print EMPROF observability artifacts; see also the "
            "'ledger', 'regress' and 'dashboard' subcommands"
        ),
    )
    parser.add_argument(
        "metrics",
        nargs="?",
        help="metrics snapshot .json (from `repro profile --metrics-out`)",
    )
    parser.add_argument(
        "--trace",
        metavar="SPANS_JSON",
        help="summarize a span trace (from `repro profile --trace-out` "
        "or a campaign pass's trace.json)",
    )
    parser.add_argument(
        "--live",
        action="store_true",
        help="run a small synthetic workload with observability on",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in _SUBCOMMANDS:
        args = _build_sub_parser().parse_args(argv)
        return args.func(args)

    parser = build_parser()
    args = parser.parse_args(argv)

    if not args.metrics and not args.trace and not args.live:
        print(run_live_demo())
        return EXIT_OK

    if args.live:
        print(run_live_demo())
    if args.metrics:
        try:
            with open(args.metrics, "r", encoding="utf-8") as handle:
                snapshot = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"repro-obs: cannot read {args.metrics}: {exc}", file=sys.stderr)
            return EXIT_BAD_INPUT
        print(format_metrics_snapshot(snapshot))
    if args.trace:
        try:
            with open(args.trace, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"repro-obs: cannot read {args.trace}: {exc}", file=sys.stderr)
            return EXIT_BAD_INPUT
        print(format_trace_summary(payload))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
