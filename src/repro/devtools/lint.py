"""emlint command line: ``python -m repro.devtools.lint [paths...]``.

Runs the two-phase whole-program analyzer: per-file rules plus the
cross-module rule families (layering, concurrency safety, hot loops).
Exit codes: 0 clean, 1 findings reported, 2 usage error (unknown rule
names, missing paths — always a diagnostic on stderr, never a
traceback).  Also installed as the ``repro-lint`` console script.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from .engine import LintResult, analyze_paths
from .reporters import render_json, render_sarif, render_text
from .rules import rule_names, rules_by_name
from .xrules import CrossRule


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
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    # Validate --rules *before* honoring --list-rules: `--list-rules
    # --rules no-such-rule` is a usage error (exit 2), not a listing.
    names = rule_names()
    if args.rules is not None:
        names = [name.strip() for name in args.rules.split(",") if name.strip()]
        if not names:
            print(
                "repro-lint: --rules must name at least one rule",
                file=sys.stderr,
            )
            return 2
    try:
        rules = rules_by_name(names)
    except KeyError as exc:
        known = ", ".join(rule_names())
        print(
            f"repro-lint: unknown rule {exc.args[0]!r} (known: {known})",
            file=sys.stderr,
        )
        return 2

    if args.list_rules:
        for rule in rules:
            scope = "cross-module" if isinstance(rule, CrossRule) else "per-file"
            print(f"{rule.name} [{scope}]: {rule.description}")
        return 0

    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        for path in missing:
            print(f"repro-lint: path does not exist: {path}", file=sys.stderr)
        return 2

    result: LintResult = analyze_paths([Path(p) for p in args.paths], rules)
    if args.format == "json":
        print(render_json(result))
    elif args.format == "sarif":
        descriptions = {rule.name: rule.description for rule in rules}
        print(render_sarif(result, descriptions))
    else:
        print(render_text(result))
    return 1 if result.findings else 0


if __name__ == "__main__":
    sys.exit(main())
