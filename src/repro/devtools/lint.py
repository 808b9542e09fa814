"""emlint command line: ``python -m repro.devtools.lint [paths...]``.

Runs the two-phase whole-program analyzer: per-file rules plus the
cross-module rule families (layering, concurrency safety, hot loops).
Exit codes: 0 clean, 1 findings reported, 2 usage error (unknown rule
names, missing paths, broken baseline/config — always a diagnostic on
stderr, never a traceback).  Also installed as the ``repro-lint``
console script.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from .baseline import Baseline, write_baseline
from .engine import LintResult, Rule, analyze_paths
from .graph import load_layer_config
from .reporters import render_json, render_sarif, render_text
from .rules import ALL_RULES, rules_by_name
from .xrules import ALL_CROSS_RULES, CrossRule, cross_rules_by_name

def all_rule_names() -> List[str]:
    """Every registered rule id: per-file rules then cross rules."""
    return [cls.name for cls in ALL_RULES] + [
        cls.name for cls in ALL_CROSS_RULES
    ]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "emlint: whole-program static analysis for the EMPROF "
            "reproduction — per-file domain invariants (unit safety, "
            "determinism, config immutability, ...) plus cross-module "
            "rules (architecture layering, concurrency safety, hot-loop "
            "vectorization)"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to analyze (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--rules",
        default=None,
        metavar="NAME[,NAME...]",
        help="comma-separated subset of rules to run (default: all; "
        "see --list-rules)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list the registered rules and exit (honors --rules)",
    )
    parser.add_argument(
        "--no-cross",
        action="store_true",
        help="skip the cross-module phase (per-file rules only)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help="adopt-now baseline file; matching findings are suppressed "
        "and stale entries reported",
    )
    parser.add_argument(
        "--write-baseline",
        default=None,
        metavar="FILE",
        help="write the current findings to FILE as a baseline and exit 0 "
        "(carries justifications over from --baseline when given)",
    )
    parser.add_argument(
        "--config",
        default=None,
        metavar="PYPROJECT",
        help="pyproject.toml holding the [tool.emlint] layer map "
        "(default: ./pyproject.toml, falling back to the built-in map)",
    )
    return parser


def _split_rule_names(raw: str) -> List[str]:
    return [name.strip() for name in raw.split(",") if name.strip()]


def _select_rules(
    names: Optional[List[str]],
) -> "tuple[List[Rule], List[CrossRule]]":
    """Instantiate (per-file, cross) rules for ``names`` (None = all).

    Raises:
        KeyError: a name matches no registered rule.
    """
    if names is None:
        return [cls() for cls in ALL_RULES], [cls() for cls in ALL_CROSS_RULES]
    per_file_known = {cls.name for cls in ALL_RULES}
    cross_known = {cls.name for cls in ALL_CROSS_RULES}
    for name in names:
        if name not in per_file_known and name not in cross_known:
            raise KeyError(name)
    per_file = rules_by_name([n for n in names if n in per_file_known])
    cross = cross_rules_by_name([n for n in names if n in cross_known])
    return per_file, cross


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    # Validate --rules *before* honoring --list-rules: `--list-rules
    # --rules no-such-rule` is a usage error (exit 2), not a listing.
    names: Optional[List[str]] = None
    if args.rules is not None:
        names = _split_rule_names(args.rules)
        if not names:
            print(
                "repro-lint: --rules must name at least one rule",
                file=sys.stderr,
            )
            return 2
    try:
        rules, cross_rules = _select_rules(names)
    except KeyError as exc:
        known = ", ".join(all_rule_names())
        print(
            f"repro-lint: unknown rule {exc.args[0]!r} (known: {known})",
            file=sys.stderr,
        )
        return 2

    if args.list_rules:
        for rule in [*rules, *cross_rules]:
            scope = "cross-module" if isinstance(rule, CrossRule) else "per-file"
            print(f"{rule.name} [{scope}]: {rule.description}")
        return 0

    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        for path in missing:
            print(f"repro-lint: path does not exist: {path}", file=sys.stderr)
        return 2

    try:
        layers = load_layer_config(
            Path(args.config) if args.config is not None else None
        )
    except ValueError as exc:
        print(f"repro-lint: bad layer config: {exc}", file=sys.stderr)
        return 2

    baseline = None
    if args.baseline is not None:
        try:
            baseline = Baseline.load(args.baseline)
        except ValueError as exc:
            print(f"repro-lint: {exc}", file=sys.stderr)
            return 2

    if args.no_cross:
        cross_rules = []

    result: LintResult = analyze_paths(
        [Path(p) for p in args.paths],
        rules=rules,
        cross_rules=cross_rules,
        layers=layers,
        baseline=None if args.write_baseline else baseline,
    )

    if args.write_baseline is not None:
        written = write_baseline(
            args.write_baseline, result.findings, previous=baseline
        )
        print(
            f"repro-lint: wrote {len(written.entries)} baseline "
            f"entr{'y' if len(written.entries) == 1 else 'ies'} to "
            f"{args.write_baseline}"
        )
        return 0

    if args.format == "json":
        print(render_json(result))
    elif args.format == "sarif":
        descriptions = {
            rule.name: rule.description for rule in [*rules, *cross_rules]
        }
        print(render_sarif(result, descriptions))
    else:
        print(render_text(result))
    for key in result.stale_baseline:
        print(
            f"repro-lint: stale baseline entry (fixed? remove it): {key}",
            file=sys.stderr,
        )
    return 1 if result.findings else 0


if __name__ == "__main__":
    sys.exit(main())
