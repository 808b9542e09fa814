"""Command-line interface: ``python -m repro <command>``.

Mirrors a real measurement campaign's workflow:

* ``devices``    - list the modelled targets and their parameters;
* ``capture``    - run a workload on a device model through the EM
  apparatus and save the capture (.npz);
* ``profile``    - run EMPROF over a saved capture and save/print the
  report (.json);
* ``explain``    - decision-level provenance: why was each stall
  reported (and why was nothing reported elsewhere)?  Re-profiles a
  capture with the engine flight recorder attached; renders text or
  self-contained HTML cards, diffs two runs;
* ``selftest``   - engineered-microbenchmark accuracy check (the
  Table II experiment at one grid point);
* ``table``      - regenerate one of the paper's tables;
* ``reproduce``  - regenerate every artifact into ``results.md``.  Both
  read the one artifact registry,
  :data:`repro.experiments.reportgen.ARTIFACTS`;
* ``faults``     - chaos demo: inject impairments into a capture and
  compare the hardened streaming profile against the clean one;
* ``obs``        - the ``repro-obs`` command tree (show, demo, ledger,
  regress, dashboard, tail, watch), mounted from
  :func:`repro.obs.cli.add_subcommands`; see ``docs/observability.md``;
* ``campaignd``  - the ``repro-campaignd`` command tree: the supervised
  campaign daemon and its protocol clients
  (submit/status/cancel/drain/shutdown), mounted from
  :func:`repro.experiments.service.add_subcommands`; see
  ``docs/service.md``.

Global ``--quiet`` / ``--verbose`` flags control the stdlib-logging
bridge (:mod:`repro.obs.logbridge`); ``profile --trace-out`` exports
the spans of an instrumented run.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import List, Optional

from . import io as repro_io
from . import obs
from .analysis import boundedness, speedup_headroom
from .core.detect import DetectorConfig
from .core.markers import find_marker_window
from .core.normalize import NormalizerConfig
from .core.profiler import Emprof, EmprofConfig
from .core.validate import count_accuracy
from .devices import DEVICE_NAMES, by_name
from .workloads import (
    Microbenchmark,
    SPEC_BENCHMARKS,
    spec_workload,
    workload_by_name,
)


def cmd_devices(_args: argparse.Namespace) -> int:
    print(f"{'device':10s} {'clock':>9s} {'LLC':>7s} {'width':>5s} "
          f"{'mem lat':>8s} {'prefetch':>8s}")
    for name in DEVICE_NAMES:
        cfg = by_name(name)
        print(
            f"{name:10s} {cfg.clock_hz / 1e9:7.3f}G {cfg.llc.size_bytes // 1024:5d}KB "
            f"{cfg.core.width:5d} {cfg.memory.access_latency:6d}cy "
            f"{'yes' if cfg.prefetcher_enabled else 'no':>8s}"
        )
    return 0


def _check_micro_sizes(args: argparse.Namespace) -> None:
    """Refuse a microbenchmark whose ``--cm`` exceeds its ``--tm``."""
    if args.cm > args.tm:
        raise argparse.ArgumentError(
            None, f"--cm {args.cm} cannot exceed --tm {args.tm}"
        )


def cmd_capture(args: argparse.Namespace) -> int:
    from .experiments.runner import simulate_and_measure

    if args.workload == "micro":
        _check_micro_sizes(args)
    device = by_name(args.device)
    try:
        workload = workload_by_name(
            args.workload, args.tm, args.cm, args.scale, args.seed
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    print(f"simulating {workload.name} on {device.name} ...")
    result, capture = simulate_and_measure(
        workload, device, bandwidth_hz=args.bandwidth_mhz * 1e6, seed=args.seed
    )
    repro_io.save_capture(args.output, capture)
    truth = result.ground_truth
    print(
        f"captured {len(capture.magnitude)} samples "
        f"({capture.duration_s * 1e3:.2f} ms at {args.bandwidth_mhz:.0f} MHz) "
        f"-> {args.output}"
    )
    if args.ground_truth:
        repro_io.save_ground_truth(args.ground_truth, truth)
        print(f"ground truth ({truth.miss_count()} misses) -> {args.ground_truth}")
    return 0


def _emprof_config(args: argparse.Namespace) -> EmprofConfig:
    """The profiler settings ``--window/--threshold/--min-duration`` name."""
    return EmprofConfig(
        normalizer=NormalizerConfig(window_samples=args.window),
        detector=DetectorConfig(
            threshold=args.threshold, min_duration_cycles=args.min_duration
        ),
    )


def cmd_profile(args: argparse.Namespace) -> int:
    import contextlib as _contextlib
    import time as _time

    log = obs.get_logger("cli")
    wants_obs = bool(
        args.trace_out
        or args.ledger
        or args.profile_out
        or args.span_memory
    )
    if wants_obs and not obs.obs_enabled():
        # Exporting implies instrumenting: turn the obs layer on for
        # this command rather than silently writing empty artifacts.
        obs.set_obs_enabled(True)
        log.info(
            "observability enabled for this run "
            "(--trace-out/--ledger/--profile-out)"
        )
    run_begin = _time.perf_counter()
    capture = repro_io.load_capture(args.capture)
    config = _emprof_config(args)
    profiler = Emprof.from_capture(capture, config=config)
    from .obs import profilehooks

    memory_ctx = (
        profilehooks.span_memory()
        if args.span_memory
        else _contextlib.nullcontext()
    )
    flight = None
    if args.flight_out:
        if args.isolate_window:
            raise SystemExit(
                "--flight-out is not supported with --isolate-window "
                "(windowed stalls are shifted away from their decision "
                "positions); use `repro explain` on the full capture"
            )
        from .obs.flight import FlightRecorder

        flight = FlightRecorder()
    with profilehooks.profiled(args.profile_out), memory_ctx:
        if args.isolate_window:
            window = find_marker_window(profiler.signal, marker_min_samples=200)
            report = profiler.profile_window(window.begin_sample, window.end_sample)
            print(f"marker window: samples [{window.begin_sample}, {window.end_sample})")
        else:
            report = profiler.profile(flight=flight)
    if flight is not None:
        count = repro_io.save_flight(
            args.flight_out, flight, capture=str(args.capture)
        )
        print(f"flight recording ({count} events) -> {args.flight_out}")
    if args.profile_out:
        print(f"cProfile stats -> {args.profile_out} (+ .txt table)")
    if args.plot:
        from .render import report_panel

        print(report_panel(report, signal=profiler.signal))
    else:
        print(report.summary())

    verdict = boundedness(report)
    print(f"classification : {verdict.label} "
          f"({100 * verdict.stall_fraction:.1f}% stalled)")
    if verdict.stall_fraction < 1.0:
        print(f"Amdahl headroom: {speedup_headroom(report):.2f}x if all "
              f"miss stalls were eliminated")
    if args.output:
        repro_io.save_report(args.output, report)
        print(f"report -> {args.output}")
    if args.trace_out:
        obs.trace.write(args.trace_out, fmt=args.trace_format)
        print(f"trace ({len(obs.trace.records())} spans) -> {args.trace_out}")
    if args.ledger:
        import dataclasses
        from pathlib import Path

        from .obs import ledger as obs_ledger

        entry = obs_ledger.record(
            kind="profile",
            label=Path(args.capture).stem,
            wall_time_s=_time.perf_counter() - run_begin,
            config=config,
            spans=obs.trace.aggregate(),
            quality=(
                dataclasses.asdict(report.quality)
                if report.quality is not None
                else None
            ),
            extra={
                "capture": str(args.capture),
                "miss_count": report.miss_count,
                "low_confidence_count": report.low_confidence_count,
                "stall_fraction": report.stall_fraction,
                **(
                    {"flight": str(args.flight_out)}
                    if args.flight_out
                    else {}
                ),
            },
        )
        obs_ledger.RunLedger(args.ledger).append(entry)
        print(f"ledger +1 ({entry.group}) -> {args.ledger}")
    return 0


def _explained_report(path: str, args: argparse.Namespace):
    """Load a report (.json, must carry evidence) or re-profile a capture.

    Returns ``(report, recorder)``; ``recorder`` is ``None`` when the
    evidence came from a saved report rather than a fresh run.
    """
    from .obs.flight import FlightRecorder

    if str(path).endswith(".json"):
        report = repro_io.load_report(path)
        if report.evidence is None:
            raise SystemExit(
                f"{path}: report carries no evidence; run "
                f"`repro explain` on the capture instead (it re-profiles "
                f"with a flight recorder), or profile with --flight-out"
            )
        return report, None
    capture = repro_io.load_capture(path)
    recorder = FlightRecorder(capacity=args.flight_capacity)
    profiler = Emprof.from_capture(capture, config=_emprof_config(args))
    report = profiler.profile(flight=recorder)
    return report, recorder


def _parse_sample_range(spec: str) -> tuple:
    """Parse the ``--at BEGIN:END`` sample-range syntax."""
    try:
        begin_s, _, end_s = spec.partition(":")
        begin, end = float(begin_s), float(end_s)
    except ValueError:
        raise SystemExit(f"--at expects BEGIN:END sample range, got {spec!r}")
    if end < begin:
        raise SystemExit(f"--at range is inverted: {spec!r}")
    return begin, end


def cmd_explain(args: argparse.Namespace) -> int:
    from .obs.explain import diff_reports, near_miss_line, near_misses_between
    from .render import diff_text, explain_html, explain_text

    report, recorder = _explained_report(args.capture, args)
    diff = None
    if args.diff:
        other, _ = _explained_report(args.diff, args)
        diff = diff_reports(report, other)

    print(explain_text(report))
    if args.at:
        begin, end = _parse_sample_range(args.at)
        print()
        print(f"window [{begin:g}, {end:g}):")
        overlapping = [
            e
            for e in report.evidence.stalls
            if e.begin_sample <= end and e.end_sample >= begin
        ]
        for e in overlapping:
            print(f"  - stall #{e.index} reported "
                  f"[{e.begin_sample:.3f}, {e.end_sample:.3f})")
        misses = near_misses_between(report.evidence, begin, end)
        for m in misses:
            print(f"  - {near_miss_line(m)}")
        if not overlapping and not misses:
            print("  - nothing reported and no candidate rejected: the "
                  "signal never crossed the threshold here")
    if diff is not None:
        print()
        print(f"diff vs {args.diff}:")
        print(diff_text(diff))
    if args.html:
        html = explain_html(
            report,
            title=f"EMPROF stall provenance — {args.capture}",
            diff=diff,
        )
        with open(args.html, "w", encoding="utf-8") as fh:
            fh.write(html)
        print(f"\nprovenance report -> {args.html}")
    if args.flight_out:
        if recorder is None:
            raise SystemExit(
                "--flight-out needs a capture input (saved reports carry "
                "evidence but not the raw event stream)"
            )
        count = repro_io.save_flight(
            args.flight_out, recorder, capture=str(args.capture)
        )
        print(f"flight recording ({count} events) -> {args.flight_out}")
    return 0


def cmd_selftest(args: argparse.Namespace) -> int:
    from .experiments.runner import microbenchmark_window, run_device

    _check_micro_sizes(args)
    device = by_name(args.device)
    workload = Microbenchmark(total_misses=args.tm, consecutive_misses=args.cm)
    run = run_device(workload, device, bandwidth_hz=40e6, seed=args.seed)
    report, _ = microbenchmark_window(run)
    acc = count_accuracy(report.miss_count, workload.total_misses)
    print(
        f"{device.name}: detected {report.miss_count} / {workload.total_misses} "
        f"engineered misses ({100 * acc:.2f}%)"
    )
    if acc < 0.97:
        print("SELFTEST FAILED (expected >= 97%)")
        return 1
    print("selftest passed")
    return 0


def cmd_reproduce(args: argparse.Namespace) -> int:
    from .experiments.reportgen import generate_report

    path = generate_report(args.output, scale=args.scale, include=args.only)
    print(f"results -> {path}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from .analysis import compare_reports

    before = repro_io.load_report(args.before)
    after = repro_io.load_report(args.after)
    delta = compare_reports(before, after)
    print(f"misses        : {before.miss_count} -> {after.miss_count} "
          f"({delta.miss_delta:+d})")
    print(f"stall cycles  : {before.stall_cycles:.0f} -> {after.stall_cycles:.0f} "
          f"({delta.stall_cycle_delta:+.0f})")
    print(f"stall fraction: {100 * delta.stall_fraction_before:.2f}% -> "
          f"{100 * delta.stall_fraction_after:.2f}%")
    print(f"time speedup  : {delta.time_speedup:.3f}x")
    print("verdict       : " + ("improved" if delta.improved else "not improved"))
    return 0


def cmd_attribute(args: argparse.Namespace) -> int:
    from .attribution.report import attribute_stalls, format_region_table
    from .experiments.runner import run_attributed

    device = by_name(args.device)
    print(f"training region spectra for {args.benchmark} on {device.name} ...")
    run, timeline = run_attributed(
        spec_workload(args.benchmark, scale=args.scale),
        device,
        bandwidth_hz=40e6,
        seed=args.seed,
    )
    rows = attribute_stalls(run.report, timeline)
    print(format_region_table(rows))
    worst = max(rows, key=lambda r: r.stall_percent)
    print(f"=> optimization target: {worst.region!r} "
          f"({worst.stall_percent:.1f}% of its time stalled)")
    return 0


def cmd_faults(args: argparse.Namespace) -> int:
    import dataclasses

    from .core.streaming import profile_chunks
    from .faults import (
        ClippingFault,
        DropoutFault,
        FaultInjector,
        GainStepFault,
        QualityConfig,
        applied_clip_level,
        iter_chunks,
    )

    capture = repro_io.load_capture(args.capture)
    faults = []
    if args.dropout_rate > 0:
        faults.append(DropoutFault(rate=args.dropout_rate))
    if args.gain_steps > 0:
        faults.append(GainStepFault(steps=args.gain_steps))
    if args.clip_rate > 0:
        faults.append(ClippingFault(rate=args.clip_rate))
    if not faults:
        raise SystemExit("no impairments selected; see --dropout-rate, "
                         "--gain-steps, --clip-rate")
    injector = FaultInjector(faults, seed=args.seed)
    impaired = injector.apply(capture.magnitude)

    clean = profile_chunks(
        [capture.magnitude],
        sample_rate_hz=capture.sample_rate_hz,
        clock_hz=capture.clock_hz,
    )
    quality = QualityConfig(clip_level=applied_clip_level(impaired.log))
    chunks = list(iter_chunks(impaired, chunk_samples=args.chunk))
    report = profile_chunks(
        chunks,
        sample_rate_hz=capture.sample_rate_hz,
        clock_hz=capture.clock_hz,
        quality=quality,
    )

    print("injected impairments:")
    for line in impaired.log.summary().splitlines():
        print(f"  {line}")
    print(f"clean profile   : {clean.miss_count} misses")
    print(f"impaired profile: {report.miss_count} misses "
          f"({report.low_confidence_count} low-confidence)")
    if report.quality is not None:
        q = report.quality
        print(f"quality monitor : {q.gap_count} gaps "
              f"({q.dropped_samples} samples lost), "
              f"{q.clipped_samples} clipped, {q.gain_steps} gain steps, "
              f"{q.impaired_samples} samples in {q.impaired_sample_spans} "
              f"impaired spans")
    if clean.miss_count:
        drift = abs(report.miss_count - clean.miss_count) / clean.miss_count
        print(f"miss-count drift: {100 * drift:.2f}%")
    if args.output:
        repro_io.save_capture(
            args.output,
            dataclasses.replace(capture, magnitude=impaired.signal),
        )
        print(f"impaired capture -> {args.output}")
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    from .experiments.reportgen import ARTIFACTS

    body, _ = ARTIFACTS[f"table{args.which}"].render(args.scale, {})
    print(body)
    return 0


def _positive_arg(parse, name: str):
    """An argparse type: ``parse(text)`` if positive and finite, else a
    usage error naming ``name``."""

    def positive(text: str):
        value = parse(text)
        if not (math.isfinite(value) and value > 0):
            raise argparse.ArgumentTypeError(
                f"{name} must be positive and finite, not {text}"
            )
        return value

    # argparse names the type in its "invalid int value" message.
    positive.__name__ = parse.__name__
    return positive


_scale_arg = _positive_arg(float, "scale")
_count_arg = _positive_arg(int, "count")
_bandwidth_arg = _positive_arg(float, "bandwidth")


def _artifact_names(text: str) -> List[str]:
    """Parse ``reproduce --only``: comma-separated ``ARTIFACTS`` keys."""
    from .experiments.reportgen import ARTIFACTS

    names = text.split(",")
    unknown = [name for name in names if name not in ARTIFACTS]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown artifact(s) {', '.join(unknown)}; "
            f"choose from {', '.join(ARTIFACTS)}"
        )
    return names


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser."""
    from .experiments import service
    from .experiments.reportgen import ARTIFACTS
    from .obs import cli as obs_cli

    parser = argparse.ArgumentParser(
        prog="repro",
        description="EMPROF reproduction - EM-emanation memory profiling",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="increase log verbosity (-v info, -vv debug)",
    )
    parser.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        help="only log errors (overrides --verbose)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("devices", help="list modelled devices").set_defaults(
        func=cmd_devices
    )

    cap = sub.add_parser("capture", help="record an EM capture of a workload")
    cap.add_argument("--device", default="olimex", choices=list(DEVICE_NAMES))
    cap.add_argument(
        "--workload",
        default="micro",
        help="'micro', 'boot', or a SPEC name: " + ", ".join(SPEC_BENCHMARKS),
    )
    cap.add_argument("--tm", type=_count_arg, default=256, help="microbenchmark TM")
    cap.add_argument("--cm", type=_count_arg, default=5, help="microbenchmark CM")
    cap.add_argument("--scale", type=_scale_arg, default=1.0, help="workload scale")
    cap.add_argument("--bandwidth-mhz", type=_bandwidth_arg, default=40.0)
    cap.add_argument("--seed", type=int, default=0)
    cap.add_argument("-o", "--output", required=True, help="capture .npz path")
    cap.add_argument("--ground-truth", help="also save ground truth (.npz)")
    cap.set_defaults(func=cmd_capture)

    prof = sub.add_parser("profile", help="run EMPROF over a saved capture")
    prof.add_argument("capture", help="capture .npz path")
    prof.add_argument("-o", "--output", help="report .json path")
    prof.add_argument("--threshold", type=float, default=0.45)
    prof.add_argument("--window", type=int, default=2001)
    prof.add_argument("--min-duration", type=float, default=70.0)
    prof.add_argument(
        "--isolate-window",
        action="store_true",
        help="restrict to the marker-loop window (microbenchmark captures)",
    )
    prof.add_argument(
        "--plot",
        action="store_true",
        help="render the signal and latency histogram as ASCII art",
    )
    prof.add_argument(
        "--trace-out",
        metavar="SPANS_JSON",
        help="write the run's span trace (implies observability on)",
    )
    prof.add_argument(
        "--trace-format",
        choices=("json", "chrome"),
        default="json",
        help="trace file format: native JSON or chrome://tracing",
    )
    prof.add_argument(
        "--ledger",
        metavar="LEDGER_JSONL",
        help="append this run to an append-only run ledger (.jsonl; "
        "implies observability on); see `repro obs regress`",
    )
    prof.add_argument(
        "--profile-out",
        metavar="PSTATS",
        help="capture cProfile stats of the run (binary pstats + .txt "
        "table; implies observability on)",
    )
    prof.add_argument(
        "--span-memory",
        action="store_true",
        help="record per-span tracemalloc high-water marks in the trace "
        "(implies observability on)",
    )
    prof.add_argument(
        "--flight-out",
        metavar="FLIGHT",
        help="record engine decisions and spill them as an NDJSON "
        ".flight sidecar; the saved report then carries per-stall "
        "evidence (see `repro explain`)",
    )
    prof.set_defaults(func=cmd_profile)

    exp = sub.add_parser(
        "explain",
        help="per-stall provenance: why was each stall reported (or not)?",
        description=(
            "Re-profiles a capture with the engine flight recorder "
            "attached (or reads a report .json that already carries "
            "evidence) and renders one provenance card per stall: "
            "trigger sample, depth margin vs threshold, hysteresis "
            "merge chain, carry provenance, quality overlaps — plus "
            "the near-miss log of rejected dip candidates.  "
            "See docs/observability.md."
        ),
    )
    exp.add_argument("capture", help="capture .npz (re-profiled) or report .json")
    exp.add_argument("--threshold", type=float, default=0.45)
    exp.add_argument("--window", type=int, default=2001)
    exp.add_argument("--min-duration", type=float, default=70.0)
    exp.add_argument(
        "--diff",
        metavar="OTHER",
        help="second capture/report: align stall sets and attribute every "
        "difference to the first diverging decision",
    )
    exp.add_argument(
        "--at",
        metavar="BEGIN:END",
        help="sample range to interrogate: what was reported or rejected "
        "there, and why?",
    )
    exp.add_argument("--html", metavar="OUT_HTML", help="write a self-contained HTML report")
    exp.add_argument(
        "--flight-out",
        metavar="FLIGHT",
        help="spill the raw decision events as an NDJSON .flight sidecar",
    )
    exp.add_argument(
        "--flight-capacity",
        type=int,
        default=16384,
        help="flight-ring capacity (oldest events overwritten beyond this)",
    )
    exp.set_defaults(func=cmd_explain)

    st = sub.add_parser("selftest", help="engineered-miss accuracy check")
    st.add_argument("--device", default="olimex", choices=list(DEVICE_NAMES))
    st.add_argument("--tm", type=_count_arg, default=256)
    st.add_argument("--cm", type=_count_arg, default=5)
    st.add_argument("--seed", type=int, default=0)
    st.set_defaults(func=cmd_selftest)

    att = sub.add_parser(
        "attribute", help="per-region memory profile of a SPEC model (Table V style)"
    )
    att.add_argument("--benchmark", default="parser", choices=list(SPEC_BENCHMARKS))
    att.add_argument("--device", default="olimex", choices=list(DEVICE_NAMES))
    att.add_argument("--scale", type=_scale_arg, default=1.0)
    att.add_argument("--seed", type=int, default=0)
    att.set_defaults(func=cmd_attribute)

    rep = sub.add_parser(
        "reproduce", help="regenerate results and write results.md"
    )
    rep.add_argument("-o", "--output", required=True, help="output directory")
    rep.add_argument("--scale", type=_scale_arg, default=1.0)
    rep.add_argument(
        "--only",
        type=_artifact_names,
        help="comma-separated subset: " + ",".join(ARTIFACTS),
    )
    rep.set_defaults(func=cmd_reproduce)

    cmp_ = sub.add_parser(
        "compare", help="before/after comparison of two report .json files"
    )
    cmp_.add_argument("before")
    cmp_.add_argument("after")
    cmp_.set_defaults(func=cmd_compare)

    flt = sub.add_parser(
        "faults",
        help="inject impairments into a capture and profile it hardened",
    )
    flt.add_argument("capture", help="capture .npz path")
    flt.add_argument("--seed", type=int, default=0, help="injection seed")
    flt.add_argument(
        "--dropout-rate", type=float, default=0.02,
        help="fraction of samples lost to dropouts (0 disables)",
    )
    flt.add_argument(
        "--gain-steps", type=int, default=2,
        help="number of AGC gain steps (0 disables)",
    )
    flt.add_argument(
        "--clip-rate", type=float, default=0.01,
        help="fraction of samples saturated (0 disables)",
    )
    flt.add_argument(
        "--chunk", type=int, default=4096, help="streaming chunk size"
    )
    flt.add_argument("-o", "--output", help="save the impaired capture (.npz)")
    flt.set_defaults(func=cmd_faults)

    tab = sub.add_parser("table", help="regenerate one of the paper's tables")
    tab.add_argument(
        "which",
        type=int,
        choices=[
            int(key.removeprefix("table"))
            for key in ARTIFACTS
            if key.startswith("table")
        ],
    )
    tab.add_argument("--scale", type=_scale_arg, default=1.0)
    tab.set_defaults(func=cmd_table)

    obs_cli.add_subcommands(
        sub.add_parser(
            "obs",
            help="observability tools: snapshot and trace printer, run "
            "ledger, regression gate, HTML dashboard, live events",
            description=obs_cli.DESCRIPTION,
        )
    )
    service.add_subcommands(
        sub.add_parser(
            "campaignd",
            help="supervised campaign daemon and its protocol clients",
            description=service.DESCRIPTION,
        )
    )

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    verbosity = -1 if args.quiet else args.verbose
    obs.configure_logging(verbosity)
    try:
        return args.func(args)
    except argparse.ArgumentError as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
