"""Compare two sets of benchmark results under the bounds of BENCHMARK.json.

Usage (from the repository root)::

    python3 benchmarks/e2e/compare.py A1.json A2.json ... -- B1.json B2.json ...

Each file is a result written by ``run.py --out``.  Side A is the
baseline (the parent commit), side B the change.  One row is printed per
workload and metric, with both sides' medians and quartiles and a
verdict:

* ``better`` / ``worse``: the medians differ by more than the spread of
  either side, and for ``worse`` by more than the metric's bound;
* ``within bound``: the change is no worse than the bound allows;
* ``unresolved``: a side's spread (interquartile distance over median)
  exceeds the bound, so the runs cannot tell; still ``better`` when
  every B run beats every A run.

Per-layer metrics have no bound and get no verdict.  The exit code is 1
when any row is ``worse``, else 0.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from stats import quartiles, relative_spread

ROOT = Path(__file__).resolve().parents[2]


def verdict(
    a: Sequence[float], b: Sequence[float], better: str, bound: Optional[float]
) -> str:
    """Judge B against A for one metric (see the module docstring)."""
    if bound is None:
        return "-"
    sign = 1.0 if better == "lower" else -1.0
    med_a = quartiles(a)[1]
    med_b = quartiles(b)[1]
    worsening = sign * (med_b - med_a) / abs(med_a)
    spread = max(relative_spread(a), relative_spread(b))
    if better == "lower":
        all_better = max(b) < min(a)
    else:
        all_better = min(b) > max(a)
    if spread > bound:
        return "better" if all_better else "unresolved"
    if worsening > bound:
        return "worse"
    if -worsening > spread:
        return "better"
    return "within bound"


def _load(paths: List[str]) -> Dict[str, Dict[str, List[float]]]:
    """workload -> metric -> values, over the given result files."""
    out: Dict[str, Dict[str, List[float]]] = {}
    for path in paths:
        record = json.loads(Path(path).read_text())
        per_metric = out.setdefault(record["workload"], {})
        for name, metric in record["metrics"].items():
            per_metric.setdefault(name, []).append(float(metric["value"]))
    return out


def compare(a_paths: List[str], b_paths: List[str], spec: dict) -> List[dict]:
    """One row per workload and metric present on both sides."""
    metrics = {m["name"]: dict(m) for m in spec["end_to_end"] + spec["per_layer"]}
    a, b = _load(a_paths), _load(b_paths)
    rows = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for name, meta in metrics.items():
            va = a.get(workload, {}).get(name)
            vb = b.get(workload, {}).get(name)
            if not va or not vb:
                continue
            rows.append({
                "workload": workload,
                "metric": name,
                "unit": meta["unit"],
                "a": quartiles(va),
                "b": quartiles(vb),
                "n": (len(va), len(vb)),
                "bound": meta.get("bound"),
                "verdict": verdict(va, vb, meta["better"], meta.get("bound")),
            })
    return rows


def _fmt(q) -> str:
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    cut = argv.index("--")
    a_paths, b_paths = argv[:cut], argv[cut + 1 :]
    if not a_paths or not b_paths:
        print("error: need result files on both sides of --", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(a_paths, b_paths, spec)
    print(f"{'workload':18s} {'metric':40s} {'A median [q1, q3]':>36s} "
          f"{'B median [q1, q3]':>36s} {'n':>7s} {'bound':>6s}  verdict")
    for r in rows:
        bound = "" if r["bound"] is None else f"{100 * r['bound']:.0f}%"
        print(f"{r['workload']:18s} {r['metric']:40s} {_fmt(r['a']):>36s} "
              f"{_fmt(r['b']):>36s} {r['n'][0]:>3d}/{r['n'][1]:<3d} {bound:>6s}  {r['verdict']}")
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
