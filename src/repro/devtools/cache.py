"""Incremental fact/finding cache keyed by content hash.

Per-file work (parsing, per-file rules, fact extraction) is a pure
function of the file's bytes and the active rule set, so it is cached
in a single JSON document (``.emlint_cache.json`` by default) keyed by
``sha256(source)`` plus a rule-set signature.  A warm whole-repo run
re-parses nothing; an edited file misses on its hash and is
re-extracted.  The cache file is written atomically (temp +
``os.replace``) and any unreadable/stale/foreign cache is treated as
empty — a corrupt cache can cost time, never correctness.

Extraction runs serially.  CPython 3.11's ``ast.parse`` is not
thread-safe (concurrent parses fail with ``SystemError: AST
constructor recursion depth mismatch``), and a thread pool was slower
than the serial loop anyway.  Outcomes are sorted by path.
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .engine import (
    Finding,
    LintResult,
    Rule,
    iter_python_files,
    lint_source,
    _parse_suppressions,
)
from .facts import FACTS_SCHEMA_VERSION, ModuleFacts, extract_facts, module_name_for

CACHE_SCHEMA = "emlint-cache"
CACHE_SCHEMA_VERSION = 1

#: Default cache filename, conventionally at the repository root.
DEFAULT_CACHE_NAME = ".emlint_cache.json"


def content_hash(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def ruleset_signature(rules: Sequence[Rule]) -> str:
    """Cache signature: facts schema + the active per-file rule names."""
    names = ",".join(sorted(rule.name for rule in rules))
    return f"v{CACHE_SCHEMA_VERSION}.f{FACTS_SCHEMA_VERSION}:{names}"


@dataclass
class FileOutcome:
    """Everything phase 1 produces for one file."""

    path: str
    content_hash: str
    findings: List[Finding] = field(default_factory=list)
    suppressed_count: int = 0
    facts: Optional[ModuleFacts] = None
    from_cache: bool = False


class FactCache:
    """The on-disk cache document; missing/corrupt reads as empty."""

    def __init__(self, path: Optional[Path]):
        self.path = Path(path) if path is not None else None
        self._entries: Dict[str, dict] = {}
        self._dirty = False
        self._load()

    def _load(self) -> None:
        if self.path is None or not self.path.is_file():
            return
        try:
            payload = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return
        if (
            not isinstance(payload, dict)
            or payload.get("schema") != CACHE_SCHEMA
            or payload.get("version") != CACHE_SCHEMA_VERSION
        ):
            return
        entries = payload.get("entries")
        if isinstance(entries, dict):
            self._entries = entries

    def get(
        self, path: str, source_hash: str, signature: str
    ) -> Optional[FileOutcome]:
        entry = self._entries.get(path)
        if not isinstance(entry, dict):
            return None
        if entry.get("hash") != source_hash or entry.get("signature") != signature:
            return None
        try:
            findings = [Finding(**f) for f in entry.get("findings", [])]
            facts_payload = entry.get("facts")
            facts = (
                ModuleFacts.from_dict(facts_payload)
                if facts_payload is not None
                else None
            )
            suppressed = int(entry.get("suppressed_count", 0))
        except (TypeError, KeyError, ValueError):
            return None
        return FileOutcome(
            path=path,
            content_hash=source_hash,
            findings=findings,
            suppressed_count=suppressed,
            facts=facts,
            from_cache=True,
        )

    def put(self, outcome: FileOutcome, signature: str) -> None:
        self._entries[outcome.path] = {
            "hash": outcome.content_hash,
            "signature": signature,
            "findings": [
                {
                    "path": f.path,
                    "line": f.line,
                    "col": f.col,
                    "rule": f.rule,
                    "message": f.message,
                }
                for f in outcome.findings
            ],
            "suppressed_count": outcome.suppressed_count,
            "facts": outcome.facts.to_dict() if outcome.facts is not None else None,
        }
        self._dirty = True

    def prune(self, live_paths: Sequence[str]) -> None:
        """Drop entries for files no longer part of the analyzed set."""
        live = set(live_paths)
        dead = [key for key in self._entries if key not in live]
        for key in dead:
            del self._entries[key]
            self._dirty = True

    def save(self) -> None:
        """Atomically persist the cache (temp file + ``os.replace``)."""
        if self.path is None or not self._dirty:
            return
        payload = {
            "schema": CACHE_SCHEMA,
            "version": CACHE_SCHEMA_VERSION,
            "entries": self._entries,
        }
        tmp = self.path.with_name(self.path.name + ".tmp")
        tmp.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
        os.replace(tmp, self.path)
        self._dirty = False


def _process_one(path: Path, rules: Sequence[Rule]) -> FileOutcome:
    """Parse one file, run per-file rules, and extract facts."""
    path_key = str(path)
    try:
        source = path.read_text(encoding="utf-8")
    except OSError as exc:
        return FileOutcome(
            path=path_key,
            content_hash="",
            findings=[
                Finding(
                    path=path_key,
                    line=1,
                    col=1,
                    rule="io-error",
                    message=f"could not read file: {exc}",
                )
            ],
        )
    digest = content_hash(source)
    per_file = lint_source(source, path=path_key, rules=rules)
    try:
        tree = ast.parse(source, filename=path_key)
    except SyntaxError:
        # lint_source already reported the parse-error finding.
        return FileOutcome(
            path=path_key,
            content_hash=digest,
            findings=per_file.findings,
            suppressed_count=per_file.suppressed_count,
        )
    facts = extract_facts(
        tree,
        module=module_name_for(path),
        path=path_key,
        suppressions=_parse_suppressions(source),
        is_package=path.name == "__init__.py",
    )
    return FileOutcome(
        path=path_key,
        content_hash=digest,
        findings=per_file.findings,
        suppressed_count=per_file.suppressed_count,
        facts=facts,
    )


def extract_outcomes(
    paths: Sequence[Path],
    rules: Sequence[Rule],
    cache: Optional[FactCache] = None,
) -> Tuple[List[FileOutcome], int, int]:
    """Phase 1 over every file: (outcomes sorted by path, hits, misses).

    Cached files are reused when both the content hash and the
    rule-set signature match; everything else is (re)processed and
    written back to the cache.
    """
    files = list(iter_python_files(paths))
    signature = ruleset_signature(rules)
    outcomes: List[FileOutcome] = []
    misses: List[Path] = []
    hits = 0

    for path in files:
        path_key = str(path)
        cached: Optional[FileOutcome] = None
        if cache is not None:
            try:
                source = path.read_text(encoding="utf-8")
            except OSError:
                source = None
            if source is not None:
                cached = cache.get(path_key, content_hash(source), signature)
        if cached is not None:
            outcomes.append(cached)
            hits += 1
        else:
            misses.append(path)

    for path in misses:
        outcome = _process_one(path, rules)
        if cache is not None and outcome.content_hash:
            cache.put(outcome, signature)
        outcomes.append(outcome)

    if cache is not None:
        cache.prune([str(p) for p in files])
        cache.save()

    outcomes.sort(key=lambda o: o.path)
    return outcomes, hits, len(misses)
