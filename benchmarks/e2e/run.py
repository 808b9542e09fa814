"""End-to-end and per-layer benchmark of the EMPROF reproduction.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --workload NAME --seed S [--seconds N]
                                  [--trace 0|1] [--out FILE]

Each invocation measures one workload of ``BENCHMARK.json`` in fresh
child processes, one at a time: ``SETUP_REPEATS - 1`` children only set
up (``setup_s`` is the median over every set-up of the run), then one
child sets up again and measures for ``--seconds``.  Children run with
observability off, one BLAS/OpenMP thread and a fixed hash seed.

``--trace 0`` times the public end-to-end entry points and prints the
``end_to_end`` metrics.  ``--trace 1`` runs one untraced reference pass,
then the same computation one layer call at a time (see ``layers.py``),
checks that both give the same output digests, and prints the
``per_layer`` metrics.  Either way the last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK = HERE / ".work"
WORKLOAD_NAMES = ("device-micro-boot", "sim-spec", "signal-sweep", "campaign-replay")
SETUP_REPEATS = 3
#: Every child must have exited by then; the run as a whole gets 180 s.
DEADLINE_S = 170.0

# Layer stages whose seconds add up to the traced run's layer time.
# ``sim.power`` is not among them: it is a part of ``sim.pipeline``.
SUM_STAGES = (
    "workloads.gen",
    "sim.build",
    "sim.pipeline",
    "sim.finalize",
    "emsignal.synth",
    "emsignal.channel",
    "emsignal.receiver",
    "core.normalize",
    "core.detect",
    "core.window",
    "core.stream",
    "core.validate",
    "attribution.attribute",
    "io.load_capture",
    "io.save_report",
)
# Stages that only some workloads run are reported as their share of the
# layer time, so a workload that skips one reads 0 and not a time.
SHARE_STAGES = tuple(
    s for s in SUM_STAGES
    if s not in ("workloads.gen", "sim.build", "sim.pipeline", "sim.finalize",
                 "core.normalize", "core.detect")
)
COUNTS = {
    "workloads.instructions": "instr",
    "sim.power_calls": "count",
    "sim.cycles": "cycles",
    "sim.llc_misses": "count",
    "sim.stall_records": "count",
    "sim.memory_stall_cycles": "cycles",
    "sim.prefetches": "count",
    "sim.refresh_blocked": "count",
    "emsignal.samples": "samples",
    "core.samples": "samples",
    "core.stalls": "count",
    "core.stream_chunks": "count",
    "attribution.segments": "count",
    "io.bytes_read": "bytes",
}


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["EMPROF_OBS"] = "0"
    env["EMPROF_CONTRACTS"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(args: argparse.Namespace, role: str, deadline: float) -> dict:
    """Run one child to completion; its last stdout line is its JSON."""
    env = _child_env()
    env["E2E_SPAWN_TIME"] = repr(time.time())
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--role", role,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{role} child exceeded the {DEADLINE_S:.0f} s deadline")
    if proc.returncode != 0:
        raise RuntimeError(f"{role} child exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _parent(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_REPEATS - 1):
                setups.append(_spawn(args, "setup", deadline)["setup_s"])
        result = _spawn(args, "measure", deadline)
    except (RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    metrics = result["metrics"]
    samples = result["samples"]
    if not args.trace:
        setups.append(result["setup_s"])
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        samples["setup_s"] = len(setups)
    _print_report(args, result, samples)
    final = {k: result[k] for k in ("correct", "attempted", "failed")}
    final["metrics"] = metrics
    if args.out:
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "digest": result["digest"], "samples": samples,
                  "notes": result["notes"]}
        record.update(final)
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(final))
    return 0


def _print_report(args, result, samples) -> None:
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {result['passes']}  ops {result['attempted']}  failed {result['failed']}")
    for name, m in sorted(result["metrics"].items()):
        n = samples.get(name)
        print(f"  {name:42s} {m['value']:>16.6g} {m['unit']:<12s}" + (f" n={n}" if n else ""))
    for line in result["notes"]:
        print(f"  {line}")
    print(f"  correct {result['correct']}  digest {result['digest'][:16]}")


# -- child side ---------------------------------------------------------------


class Call(NamedTuple):
    """One op of a pass: host seconds of its timed part and its outputs."""

    label: str
    wall_s: float
    results: list  # workloads.OpResult


class Pass(NamedTuple):
    calls: List[Call]
    stages: object  # layers.Stages of a traced pass, else None

    @property
    def results(self) -> list:
        return [r for c in self.calls for r in c.results]


def _run_pass(ops, st=None) -> Pass:
    from workloads import OpResult

    calls = []
    for label, op in ops:
        try:
            wall, out = op(st)
        except Exception as exc:  # an op that raises counts as failed
            traceback.print_exc(file=sys.stderr)
            wall = 0.0
            out = [OpResult(label, 0.0, 0, 0, "", error=f"{type(exc).__name__}: {exc}")]
        calls.append(Call(label, wall, out))
    return Pass(calls, st)


def _repeat(ops, seconds: float, stages=None) -> List[Pass]:
    """Repeat whole passes while the next one still fits in ``seconds``."""
    begin = time.perf_counter()
    passes = []
    while True:
        start = time.perf_counter()
        passes.append(_run_pass(ops, stages() if stages else None))
        now = time.perf_counter()
        if now - begin + (now - start) > seconds:
            return passes


def _check(passes: List[Pass], reference: Pass) -> None:
    """Fail every result whose digest differs from the reference pass."""
    expected = {r.label: r.digest for r in reference.results}
    for p in passes:
        for r in p.results:
            if r.error is None and r.digest != expected.get(r.label):
                r.error = "output digest differs from the reference pass"


def _mean(values) -> Optional[float]:
    values = [v for v in values if v is not None]
    return statistics.fmean(values) if values else None


def _end_to_end(passes: List[Pass]):
    """Throughput of one pass with every op timed at its median over the
    run's passes (a burst of host noise during one pass does not move
    it); accuracies are exact for a seed."""
    from stats import tail

    calls = [c for p in passes for c in p.calls if all(r.error is None for r in c.results)]
    by_label: Dict[str, list] = {}
    for c in calls:
        by_label.setdefault(c.label, []).append(c)
    pass_s = sum(statistics.median(c.wall_s for c in cs) for cs in by_label.values())
    one_pass = [cs[0] for cs in by_label.values()]
    first = passes[0].results
    metrics = {
        "instr_per_s": (
            sum(r.instructions for c in one_pass for r in c.results) / pass_s, "instr/s"),
        "samples_per_s": (
            sum(r.samples for c in one_pass for r in c.results) / pass_s, "samples/s"),
        "miss_accuracy_mean": (_mean(r.miss_accuracy for r in first), "fraction"),
        "stall_accuracy_mean": (_mean(r.stall_accuracy for r in first), "fraction"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    samples = {
        "instr_per_s": len(calls),
        "samples_per_s": len(calls),
        "miss_accuracy_mean": sum(r.miss_accuracy is not None for r in first),
        "stall_accuracy_mean": sum(r.stall_accuracy is not None for r in first),
    }
    notes = []
    ok = [r for c in calls for r in c.results]
    for what, values in (
        ("op latency", [c.wall_s for c in calls]),
        ("stream chunk latency", [x for r in ok for x in r.chunk_latencies]),
    ):
        if values:
            name, value = tail(values)
            extra = f", {name} {value:.6g} s" if name else ""
            notes.append(
                f"{what}: p50 {statistics.median(values):.6g} s{extra}, n={len(values)}"
            )
    return metrics, samples, notes


def _per_layer(setup_st, passes: List[Pass], reference: Pass):
    """Layer metrics of one traced pass plus the traced set-up it needs."""

    def seconds(stage):
        return setup_st.seconds.get(stage, 0.0) + statistics.median(
            p.stages.seconds.get(stage, 0.0) for p in passes
        )

    sec = {s: seconds(s) for s in SUM_STAGES + ("sim.power",)}
    counts = {
        c: setup_st.counts.get(c, 0.0) + passes[0].stages.counts.get(c, 0.0)
        for c in list(COUNTS) + ["sim.llc_accesses"]
    }
    layer_s = sum(sec[s] for s in SUM_STAGES)
    metrics = {
        "workloads.gen_s": (sec["workloads.gen"], "s"),
        "workloads.instr_per_s": (
            counts["workloads.instructions"] / sec["workloads.gen"], "instr/s"),
        "sim.build_s": (sec["sim.build"], "s"),
        "sim.pipeline_s": (sec["sim.pipeline"], "s"),
        "sim.power_s": (sec["sim.power"], "s"),
        "sim.core_s": (sec["sim.pipeline"] - sec["sim.power"], "s"),
        "sim.finalize_s": (sec["sim.finalize"], "s"),
        "sim.cpi": (counts["sim.cycles"] / counts["workloads.instructions"], "cycles/instr"),
        "sim.llc_miss_rate": (counts["sim.llc_misses"] / counts["sim.llc_accesses"], "fraction"),
        "core.normalize_s": (sec["core.normalize"], "s"),
        "core.detect_s": (sec["core.detect"], "s"),
        "trace.layer_s": (layer_s, "s"),
    }
    for s in SHARE_STAGES:
        metrics[f"{s}_frac"] = (sec[s] / layer_s, "fraction")
    for c, unit in COUNTS.items():
        metrics[c] = (counts[c], unit)

    # Supervision share of Campaign.execute at k workers: its wall minus
    # each run's own time spread over the workers, over its wall.
    for k in (1, 2):
        calls = [c for c in reference.calls if c.results and c.results[0].workers == k]
        wall = sum(c.wall_s for c in calls)
        runs = sum(r.wall_s for c in calls for r in c.results)
        share = (wall - runs / k) / wall if calls else 0.0
        metrics[f"experiments.campaign_overhead_frac_w{k}"] = (share, "fraction")
    metrics["experiments.campaign_attempts"] = (
        float(sum(r.attempts for r in reference.results if r.workers)), "count")

    traced = statistics.median(
        sum(p.stages.seconds.get(s, 0.0) for s in SUM_STAGES) for p in passes
    )
    own = sum(r.wall_s for r in reference.results)
    metrics["trace.overhead_frac"] = (traced / own - 1.0, "fraction")
    return metrics, {"trace.overhead_frac": len(passes)}, []


def _child(args: argparse.Namespace) -> int:
    spawned = float(os.environ["E2E_SPAWN_TIME"])
    import repro

    if Path(repro.__file__).resolve().parents[1] != ROOT / "src":
        print(f"error: repro imported from {repro.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    from layers import Stages
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        setup_st = Stages() if args.trace else None
        inputs = workload.setup(args.seed, setup_st, workdir)
        setup_s = time.time() - spawned
        if args.role == "setup":
            print(json.dumps({"setup_s": setup_s}))
            return 0
        ops = workload.ops(inputs)
        if args.trace:
            reference = _run_pass(ops)
            passes = _repeat(ops, args.seconds, Stages)
            _check(passes, reference)
            measured = [reference] + passes
            metrics, samples, notes = _per_layer(setup_st, passes, reference)
        else:
            passes = _repeat(ops, args.seconds)
            reference = passes[0]
            _check(passes, reference)
            measured = passes
            metrics, samples, notes = _end_to_end(passes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    results = [r for p in measured for r in p.results]
    failed = [r for r in results if r.error is not None]
    notes += [f"FAILED {r.label}: {r.error}" for r in failed]
    digest = hashlib.sha256("".join(r.digest for r in reference.results).encode())
    print(json.dumps({
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "samples": samples,
        "notes": notes,
        "passes": len(passes),
        "digest": digest.hexdigest(),
        "setup_s": setup_s,
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the result, with sample counts, here")
    parser.add_argument("--role", choices=("parent", "setup", "measure"), default="parent",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return _parent(args) if args.role == "parent" else _child(args)


if __name__ == "__main__":
    sys.exit(main())
