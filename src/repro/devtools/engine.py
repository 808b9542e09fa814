"""emlint core: findings, suppressions, and the file/tree driver.

The engine is rule-agnostic: a :class:`Rule` inspects one parsed module
and yields :class:`Finding` objects; the engine parses files, collects
findings from every rule, and drops those silenced by a
``# emlint: disable=<rule>`` comment, the one way to silence a
finding.  Rules themselves, and the one registry naming them all,
live in :mod:`repro.devtools.rules`.

Each file takes one step (:func:`_check_source`): it is parsed once,
its suppression map is built once, and its nodes are walked once into
:attr:`FileContext.nodes`, which every per-file rule and the fact
extractor share.

Suppression comments work at line granularity:

* a trailing comment silences the rules named on that physical line;
* a comment on a line of its own also silences the following line
  (useful when the flagged expression is long);
* ``disable=all`` silences every rule.

Unparseable files are reported as ``parse-error`` findings rather than
crashing the run, so a syntax error still fails the lint gate with a
file:line diagnostic.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .facts import ModuleFacts, extract_facts, module_name_for
from .graph import DEFAULT_LAYER_CONFIG, LayerConfig

_SUPPRESS_RE = re.compile(r"#\s*emlint:\s*disable=([A-Za-z0-9_,\- ]+)")

#: Directory names never descended into when walking a tree.
_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", "build", "dist"}


@dataclass(frozen=True)
class Finding:
    """One diagnostic: a rule violation at a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def format(self) -> str:
        """``path:line:col: rule: message`` - the text-reporter form."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"


@dataclass(frozen=True)
class FileContext:
    """Everything a rule may consult about the module being linted.

    ``nodes`` holds every node of ``tree`` in :func:`ast.walk` order;
    rules iterate it rather than walking the tree again.
    """

    path: str
    source: str
    tree: ast.Module
    nodes: Tuple[ast.AST, ...]


class Rule:
    """Base class for emlint rules.

    Subclasses set :attr:`name` (the id used in suppression comments
    and ``--rules``) and :attr:`description`, and implement
    :meth:`check` as a generator over the module AST.
    """

    name: str = ""
    description: str = ""

    def check(self, context: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, context: FileContext, node: ast.AST, message: str) -> Finding:
        """Build a :class:`Finding` anchored at ``node``."""
        return Finding(
            path=context.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=self.name,
            message=message,
        )


@dataclass
class LintResult:
    """Aggregate outcome of linting one or more files."""

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    suppressed_count: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings


def _parse_suppressions(source: str) -> Dict[int, Set[str]]:
    """Map line number -> set of rule names silenced on that line."""
    out: Dict[int, Set[str]] = {}
    carry: Optional[Set[str]] = None
    for lineno, line in enumerate(source.splitlines(), start=1):
        if carry:
            out.setdefault(lineno, set()).update(carry)
        carry = None
        match = _SUPPRESS_RE.search(line)
        if not match:
            continue
        names = {
            part.strip().lower()
            for part in match.group(1).split(",")
            if part.strip()
        }
        if not names:
            continue
        out.setdefault(lineno, set()).update(names)
        if line.lstrip().startswith("#"):
            # Standalone comment: extends to the statement below it.
            carry = names
    return out


def _is_suppressed(finding: Finding, suppressions: Dict[int, Set[str]]) -> bool:
    names = suppressions.get(finding.line)
    if not names:
        return False
    return "all" in names or finding.rule.lower() in names


def _split_rules(rules: Optional[Sequence] = None) -> Tuple[List[Rule], list]:
    """(per-file, whole-program) rules of ``rules`` (None = every rule).

    A per-file rule is a :class:`Rule`; anything else is a cross rule
    (:class:`repro.devtools.xrules.CrossRule`).
    """
    if rules is None:
        from .rules import ALL_RULES  # deferred: rules.py imports this module

        rules = [cls() for cls in ALL_RULES]
    per_file = [rule for rule in rules if isinstance(rule, Rule)]
    return per_file, [rule for rule in rules if not isinstance(rule, Rule)]


def _check_source(
    source: str,
    path: str,
    rules: Sequence[Rule],
    module: Optional[str] = None,
    is_package: bool = False,
) -> Tuple[LintResult, Optional[ModuleFacts]]:
    """Phase 1 for one module: per-file rules, plus facts when ``module``.

    The source is parsed once and walked once; the rules and
    :func:`repro.devtools.facts.extract_facts` share the node list.
    """
    result = LintResult(files_checked=1)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        result.findings.append(
            Finding(
                path=path,
                line=exc.lineno or 1,
                col=(exc.offset or 1),
                rule="parse-error",
                message=f"could not parse module: {exc.msg}",
            )
        )
        return result, None

    context = FileContext(
        path=path, source=source, tree=tree, nodes=tuple(ast.walk(tree))
    )
    suppressions = _parse_suppressions(source)
    raw: List[Finding] = []
    for rule in rules:
        raw.extend(rule.check(context))
    for finding in sorted(raw, key=lambda f: (f.line, f.col, f.rule)):
        if _is_suppressed(finding, suppressions):
            result.suppressed_count += 1
        else:
            result.findings.append(finding)
    if module is None:
        return result, None
    facts = extract_facts(
        tree,
        module=module,
        path=path,
        suppressions=suppressions,
        is_package=is_package,
        nodes=context.nodes,
    )
    return result, facts


def _check_file(
    path: Path, rules: Sequence[Rule], with_facts: bool
) -> Tuple[LintResult, Optional[ModuleFacts]]:
    """Phase 1 for one file: read it once, then :func:`_check_source`."""
    try:
        source = path.read_text(encoding="utf-8")
    except OSError as exc:
        unreadable = Finding(
            path=str(path),
            line=1,
            col=1,
            rule="io-error",
            message=f"could not read file: {exc}",
        )
        return LintResult(findings=[unreadable], files_checked=1), None
    return _check_source(
        source,
        str(path),
        rules,
        module=module_name_for(path) if with_facts else None,
        is_package=path.name == "__init__.py",
    )


def lint_source(
    source: str,
    path: str = "<string>",
    rules: Optional[Sequence[Rule]] = None,
) -> LintResult:
    """Lint one module's source text (the per-file rules of ``rules``)."""
    return _check_source(source, path, _split_rules(rules)[0])[0]


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """Yield ``.py`` files under ``paths`` (files or directories)."""
    for path in paths:
        path = Path(path)
        if path.is_file():
            if path.suffix == ".py":
                yield path
            continue
        for candidate in sorted(path.rglob("*.py")):
            parts = set(candidate.parts)
            if parts & _SKIP_DIRS:
                continue
            if any(part.endswith(".egg-info") for part in candidate.parts):
                continue
            yield candidate


# ---------------------------------------------------------------------------
# whole-program analysis (two-phase driver)
# ---------------------------------------------------------------------------


def analyze_paths(
    paths: Sequence[Path],
    rules: Optional[Sequence] = None,
    *,
    layers: LayerConfig = DEFAULT_LAYER_CONFIG,
) -> LintResult:
    """Two-phase whole-program analysis over every file under ``paths``.

    Phase 1 runs the per-file rules and, when there are cross rules,
    extracts a :class:`repro.devtools.facts.ModuleFacts` summary per
    file, in one read, parse and walk of each file.  Phase 2 assembles
    the project fact base (import graph + layer map) and runs the
    cross-module rules over it.  Inline ``# emlint: disable=``
    suppressions apply to cross findings through the suppression maps
    the facts carry.

    Args:
        paths: files or directories to analyze.
        rules: rule instances, per-file and cross-module mixed (default:
            every registered rule); phase 2 runs only when a cross rule
            is among them.
        layers: the layer map the cross rules enforce (default: the
            repository's own).
    """
    from .xrules import ProgramFacts  # deferred: xrules imports this module

    active, active_cross = _split_rules(rules)

    result = LintResult()
    modules: Dict[str, ModuleFacts] = {}
    for path in sorted(iter_python_files(Path(p) for p in paths), key=str):
        one, facts = _check_file(path, active, bool(active_cross))
        result.findings.extend(one.findings)
        result.files_checked += 1
        result.suppressed_count += one.suppressed_count
        if facts is not None:
            modules[facts.module] = facts

    if active_cross:
        program = ProgramFacts.build(modules, layers=layers)
        suppression_by_path = {
            facts.path: facts.suppressions for facts in modules.values()
        }
        cross_findings: List[Finding] = []
        for rule in active_cross:
            cross_findings.extend(rule.check(program))
        for finding in sorted(
            cross_findings, key=lambda f: (f.path, f.line, f.col, f.rule)
        ):
            if _is_suppressed(
                finding, suppression_by_path.get(finding.path, {})
            ):
                result.suppressed_count += 1
            else:
                result.findings.append(finding)

    result.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return result
