"""emlint output formats: text, machine-readable JSON, and SARIF 2.1.0."""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path
from typing import Dict, Optional

from .engine import LintResult

#: bumped whenever the JSON shape changes incompatibly
JSON_FORMAT_VERSION = 4

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA_URI = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def render_text(result: LintResult) -> str:
    """One ``path:line:col: rule: message`` line per finding + summary."""
    lines = [finding.format() for finding in result.findings]
    noun = "finding" if len(result.findings) == 1 else "findings"
    lines.append(
        f"emlint: {len(result.findings)} {noun} in "
        f"{result.files_checked} file(s) "
        f"({result.suppressed_count} suppressed)"
    )
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    """Stable JSON document for tooling (CI annotations, dashboards)."""
    payload = {
        "version": JSON_FORMAT_VERSION,
        "files_checked": result.files_checked,
        "finding_count": len(result.findings),
        "suppressed_count": result.suppressed_count,
        "findings": [asdict(finding) for finding in result.findings],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def _artifact_uri(path: str) -> str:
    """Relative posix URI when under the cwd, else an absolute file path."""
    p = Path(path)
    try:
        p = p.resolve().relative_to(Path.cwd().resolve())
    except ValueError:
        pass
    return p.as_posix()


def render_sarif(
    result: LintResult, rule_descriptions: Optional[Dict[str, str]] = None
) -> str:
    """SARIF 2.1.0 log for code-scanning UIs (GitHub, VS Code, ...).

    ``rule_descriptions`` maps rule id -> short description for the
    tool-driver rule table; rules that only appear in findings (e.g.
    ``parse-error``) are added to the table automatically.
    """
    descriptions = dict(rule_descriptions or {})
    for finding in result.findings:
        descriptions.setdefault(finding.rule, finding.rule)
    rule_ids = sorted(descriptions)
    rule_index = {rule_id: i for i, rule_id in enumerate(rule_ids)}
    sarif_results = [
        {
            "ruleId": finding.rule,
            "ruleIndex": rule_index[finding.rule],
            "level": "error",
            "message": {"text": finding.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": _artifact_uri(finding.path)
                        },
                        "region": {
                            "startLine": finding.line,
                            "startColumn": finding.col,
                        },
                    }
                }
            ],
        }
        for finding in result.findings
    ]
    log = {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "emlint",
                        "informationUri": (
                            "https://example.invalid/emprof-repro/"
                            "docs/static-analysis.md"
                        ),
                        "rules": [
                            {
                                "id": rule_id,
                                "shortDescription": {
                                    "text": descriptions[rule_id]
                                },
                            }
                            for rule_id in rule_ids
                        ],
                    }
                },
                "results": sarif_results,
            }
        ],
    }
    return json.dumps(log, indent=2, sort_keys=True)
