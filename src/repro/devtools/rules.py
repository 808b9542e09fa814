"""emlint rules: the per-file checks and the one registry of every rule.

Seven per-file rules ship with the tool (see ``docs/static-analysis.md``
for the full catalogue with examples):

``unit-safety``
    EMPROF juggles processor cycles, receiver samples, seconds, and
    hertz.  Adding, subtracting, or comparing two quantities whose
    identifier suffixes name *different* unit domains (``x_cycles +
    y_samples``) is flagged; multiplying/dividing (which converts
    units) or routing through a conversion call is not.

``determinism``
    Figure/table runs must be bit-reproducible, so randomness must
    flow through injected ``numpy.random.Generator`` instances.  Any
    use of the global numpy RNG (``np.random.seed``, ``np.random.rand``,
    legacy ``RandomState``...) or of the stdlib ``random`` module is
    flagged; ``np.random.default_rng`` / ``Generator`` / seed and bit
    generator types are allowed.

``config-immutability``
    Every ``*Config`` dataclass must be ``frozen=True``, and no config
    object may be mutated after construction.

``float-equality``
    ``==`` / ``!=`` between float quantities in signal/detection code
    silently depends on exact binary representation.  The rule flags
    equality comparisons where an operand is a float literal, a
    ``float(...)`` call, or a name the enclosing scope binds to one.

``mutable-default-arg``
    The classic Python footgun: a list/dict/set default is shared
    across calls.

``silent-except``
    Robustness depends on failures being *typed and visible*
    (:mod:`repro.errors`): a bare ``except:`` is always flagged, and a
    broad ``except Exception:`` / ``except BaseException:`` whose body
    does nothing (``pass`` / ``...``) is flagged as swallowing errors.
    Handlers that log, transform, or re-raise are fine.

``obs-event-schema``
    Flight-recorder events (:class:`repro.obs.flight.FlightEvent`)
    are schema-versioned records that outlive the process that wrote
    them.  Every constructor site must pass an explicit
    ``schema_version=`` keyword (``FLIGHT_SCHEMA_VERSION``) so a
    recorded log can never silently change meaning across versions;
    positional or omitted versions are flagged.

:data:`ALL_RULES` registers them together with the cross-module rules
of :mod:`repro.devtools.xrules`; :func:`rules_by_name` looks up either
kind.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from .engine import FileContext, Finding, Rule
from .xrules import (
    CrossRule,
    ForkUnsafetyRule,
    HotLoopRule,
    ImportCycleRule,
    LayeringRule,
    SharedMutableStateRule,
    SignalHandlerRule,
    UnpicklableTargetRule,
)

# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _scope_nodes(scope: ast.AST) -> Iterator[ast.AST]:
    """Walk ``scope`` without descending into nested function scopes."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _scopes(context: FileContext) -> Iterator[ast.AST]:
    """The module plus every (possibly nested) function definition."""
    yield context.tree
    for node in context.nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _attribute_chain(node: ast.AST) -> Optional[List[str]]:
    """``a.b.c`` -> ["a", "b", "c"]; None for non-trivial bases."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return None


# ---------------------------------------------------------------------------
# unit-safety
# ---------------------------------------------------------------------------

#: identifier suffix token -> unit domain
_UNIT_TOKENS: Dict[str, str] = {
    "cycle": "cycles",
    "cycles": "cycles",
    "sample": "samples",
    "samples": "samples",
    "s": "seconds",
    "sec": "seconds",
    "secs": "seconds",
    "seconds": "seconds",
    "ms": "milliseconds",
    "us": "microseconds",
    "ns": "nanoseconds",
    "hz": "hertz",
    "khz": "kilohertz",
    "mhz": "megahertz",
    "ghz": "gigahertz",
}

#: tokens unambiguous enough to count even without an ``_`` separator
#: (a bare ``s`` or ``ms`` is far more likely a loop variable).
_BARE_UNIT_TOKENS = {"cycle", "cycles", "sample", "samples", "seconds"}

_FLAGGED_COMPARE_OPS = (ast.Eq, ast.NotEq, ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def _identifier_unit(name: str) -> Optional[str]:
    if "_" not in name:
        token = name.lower()
        return _UNIT_TOKENS[token] if token in _BARE_UNIT_TOKENS else None
    return _UNIT_TOKENS.get(name.rsplit("_", 1)[1].lower())


def _unit_of(node: ast.AST) -> Optional[str]:
    """Unit domain of an expression, or None when unknown.

    Calls, multiplications, and divisions deliberately return None:
    they are how units are legitimately converted (``samples *
    period_cycles``), so they reset the analysis.
    """
    if isinstance(node, ast.Name):
        return _identifier_unit(node.id)
    if isinstance(node, ast.Attribute):
        return _identifier_unit(node.attr)
    if isinstance(node, ast.UnaryOp):
        return _unit_of(node.operand)
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
        left = _unit_of(node.left)
        if left is not None and left == _unit_of(node.right):
            return left
    return None


class UnitSafetyRule(Rule):
    name = "unit-safety"
    description = (
        "additive/comparison mixing of cycle, sample, second, and hertz "
        "quantities without an explicit conversion"
    )

    def check(self, context: FileContext) -> Iterator[Finding]:
        for node in context.nodes:
            if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.Add, ast.Sub)
            ):
                left = _unit_of(node.left)
                right = _unit_of(node.right)
                if left is not None and right is not None and left != right:
                    op = "+" if isinstance(node.op, ast.Add) else "-"
                    yield self.finding(
                        context,
                        node,
                        f"'{op}' mixes {left} and {right} quantities without "
                        f"an explicit conversion",
                    )
            elif isinstance(node, ast.Compare):
                operands = [node.left] + list(node.comparators)
                for op, lhs, rhs in zip(node.ops, operands, operands[1:]):
                    if not isinstance(op, _FLAGGED_COMPARE_OPS):
                        continue
                    left = _unit_of(lhs)
                    right = _unit_of(rhs)
                    if left is not None and right is not None and left != right:
                        yield self.finding(
                            context,
                            node,
                            f"comparison mixes {left} and {right} quantities "
                            f"without an explicit conversion",
                        )


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

#: numpy.random members that construct injectable, seedable objects.
_ALLOWED_NP_RANDOM = {
    "default_rng",
    "Generator",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "MT19937",
    "SFC64",
}


class DeterminismRule(Rule):
    name = "determinism"
    description = (
        "global RNG use (stdlib random, numpy.random.<fn>); randomness "
        "must flow through injected numpy.random.Generator instances"
    )

    def check(self, context: FileContext) -> Iterator[Finding]:
        # local name -> module it refers to ("numpy" or "numpy.random")
        numpy_aliases: Dict[str, str] = {}
        for node in context.nodes:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    if alias.name == "numpy" or alias.name.startswith("numpy."):
                        numpy_aliases[local] = (
                            alias.name if alias.asname else "numpy"
                        )
                    elif alias.name == "random" or alias.name.startswith(
                        "random."
                    ):
                        yield self.finding(
                            context,
                            node,
                            "stdlib 'random' is a global RNG; inject a "
                            "numpy.random.Generator instead",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    yield self.finding(
                        context,
                        node,
                        "stdlib 'random' is a global RNG; inject a "
                        "numpy.random.Generator instead",
                    )
                elif node.module == "numpy":
                    for alias in node.names:
                        if alias.name == "random":
                            numpy_aliases[alias.asname or "random"] = (
                                "numpy.random"
                            )
                elif node.module == "numpy.random":
                    for alias in node.names:
                        if alias.name not in _ALLOWED_NP_RANDOM:
                            yield self.finding(
                                context,
                                node,
                                f"'numpy.random.{alias.name}' uses the global "
                                f"numpy RNG; use an injected Generator",
                            )

        for node in context.nodes:
            if not isinstance(node, ast.Attribute):
                continue
            chain = _attribute_chain(node)
            if chain is None:
                continue
            origin = numpy_aliases.get(chain[0])
            member: Optional[str] = None
            if origin == "numpy" and len(chain) >= 3 and chain[1] == "random":
                member = chain[2]
            elif origin == "numpy.random" and len(chain) >= 2:
                member = chain[1]
            if member is not None and member not in _ALLOWED_NP_RANDOM:
                yield self.finding(
                    context,
                    node,
                    f"'numpy.random.{member}' uses the global numpy RNG; "
                    f"use an injected Generator",
                )


# ---------------------------------------------------------------------------
# config-immutability
# ---------------------------------------------------------------------------


def _dataclass_decorator(node: ast.ClassDef) -> Optional[ast.AST]:
    """The ``@dataclass`` / ``@dataclass(...)`` decorator, if present."""
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return dec
        if isinstance(target, ast.Attribute) and target.attr == "dataclass":
            return dec
    return None


def _config_like(name: str) -> bool:
    lowered = name.lower()
    return lowered in ("cfg", "config") or lowered.endswith(
        ("_cfg", "_config")
    )


class ConfigImmutabilityRule(Rule):
    name = "config-immutability"
    description = (
        "*Config dataclasses must be frozen=True and never mutated "
        "after construction"
    )

    def check(self, context: FileContext) -> Iterator[Finding]:
        for node in context.nodes:
            if isinstance(node, ast.ClassDef) and node.name.endswith("Config"):
                dec = _dataclass_decorator(node)
                if dec is None:
                    continue
                frozen = False
                if isinstance(dec, ast.Call):
                    for kw in dec.keywords:
                        if kw.arg == "frozen" and isinstance(
                            kw.value, ast.Constant
                        ):
                            frozen = bool(kw.value.value)
                if not frozen:
                    yield self.finding(
                        context,
                        node,
                        f"dataclass '{node.name}' must be declared "
                        f"@dataclass(frozen=True)",
                    )
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets: List[ast.AST]
                if isinstance(node, ast.Assign):
                    targets = list(node.targets)
                else:
                    targets = [node.target]
                for target in targets:
                    yield from self._check_mutation(context, node, target)
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    yield from self._check_mutation(context, node, target)

    def _check_mutation(
        self, context: FileContext, stmt: ast.AST, target: ast.AST
    ) -> Iterator[Finding]:
        if not isinstance(target, ast.Attribute):
            return
        base = target.value
        base_name: Optional[str] = None
        if isinstance(base, ast.Name):
            base_name = base.id
        elif isinstance(base, ast.Attribute):
            base_name = base.attr
        if base_name is not None and _config_like(base_name):
            yield self.finding(
                context,
                stmt,
                f"config object '{base_name}' is mutated after construction "
                f"(attribute '{target.attr}')",
            )


# ---------------------------------------------------------------------------
# float-equality
# ---------------------------------------------------------------------------


def _is_float_constant(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, float)
    )


def _is_float_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "float"
    )


def _float_names_in_scope(scope: ast.AST) -> Set[str]:
    """Names the scope binds to float values (annotation or literal)."""
    names: Set[str] = set()
    if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
        args = scope.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            ann = arg.annotation
            if isinstance(ann, ast.Name) and ann.id == "float":
                names.add(arg.arg)
    for node in _scope_nodes(scope):
        if isinstance(node, ast.Assign):
            if _is_float_constant(node.value) or _is_float_call(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
        elif isinstance(node, ast.AnnAssign):
            ann = node.annotation
            if (
                isinstance(node.target, ast.Name)
                and isinstance(ann, ast.Name)
                and ann.id == "float"
            ):
                names.add(node.target.id)
    return names


class FloatEqualityRule(Rule):
    name = "float-equality"
    description = (
        "== / != between float quantities; compare with a tolerance or "
        "restructure around an inequality"
    )

    def check(self, context: FileContext) -> Iterator[Finding]:
        for scope in _scopes(context):
            float_names = _float_names_in_scope(scope)

            def floatish(node: ast.AST) -> bool:
                return (
                    _is_float_constant(node)
                    or _is_float_call(node)
                    or (isinstance(node, ast.Name) and node.id in float_names)
                )

            for node in _scope_nodes(scope):
                if not isinstance(node, ast.Compare):
                    continue
                operands = [node.left] + list(node.comparators)
                for op, lhs, rhs in zip(node.ops, operands, operands[1:]):
                    if not isinstance(op, (ast.Eq, ast.NotEq)):
                        continue
                    if floatish(lhs) or floatish(rhs):
                        token = "==" if isinstance(op, ast.Eq) else "!="
                        yield self.finding(
                            context,
                            node,
                            f"exact float '{token}' comparison; use a "
                            f"tolerance or an inequality",
                        )
                        break


# ---------------------------------------------------------------------------
# mutable-default-arg
# ---------------------------------------------------------------------------

_MUTABLE_FACTORIES = {
    "list",
    "dict",
    "set",
    "bytearray",
    "defaultdict",
    "deque",
    "Counter",
    "OrderedDict",
}


def _is_mutable_default(node: ast.AST) -> bool:
    if isinstance(
        node,
        (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp),
    ):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in _MUTABLE_FACTORIES:
            return True
        if isinstance(func, ast.Attribute) and func.attr in _MUTABLE_FACTORIES:
            return True
    return False


class MutableDefaultArgRule(Rule):
    name = "mutable-default-arg"
    description = "list/dict/set default argument shared across calls"

    def check(self, context: FileContext) -> Iterator[Finding]:
        for node in context.nodes:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if _is_mutable_default(default):
                    yield self.finding(
                        context,
                        default,
                        f"mutable default argument in '{node.name}'; use "
                        f"None and construct inside the function",
                    )


# ---------------------------------------------------------------------------
# silent-except
# ---------------------------------------------------------------------------


def _is_noop_body(body: Sequence[ast.stmt]) -> bool:
    """True when ``body`` does nothing: pass / ... / a bare docstring."""
    for stmt in body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue  # `...` or a string literal
        return False
    return True


def _broad_handler_type(handler: ast.ExceptHandler) -> Optional[str]:
    """The broad exception name a handler catches, or None."""
    node = handler.type
    if isinstance(node, ast.Name) and node.id in ("Exception", "BaseException"):
        return node.id
    if isinstance(node, ast.Attribute) and node.attr in (
        "Exception",
        "BaseException",
    ):
        return node.attr
    return None


class SilentExceptRule(Rule):
    name = "silent-except"
    description = (
        "bare 'except:' or a broad handler that swallows the error; "
        "catch specific exceptions or re-raise/record the failure"
    )

    def check(self, context: FileContext) -> Iterator[Finding]:
        for node in context.nodes:
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    context,
                    node,
                    "bare 'except:' catches everything (including "
                    "KeyboardInterrupt/SystemExit); name the exceptions",
                )
                continue
            broad = _broad_handler_type(node)
            if broad is not None and _is_noop_body(node.body):
                yield self.finding(
                    context,
                    node,
                    f"'except {broad}: pass' silently swallows every error; "
                    f"catch the specific failure or record it",
                )


# ---------------------------------------------------------------------------
# obs-event-schema
# ---------------------------------------------------------------------------

#: Class names of schema-versioned observability event records.  The
#: match is by name, not import resolution: a ``FlightEvent`` call is
#: a flight-recorder event wherever it appears.
SCHEMA_VERSIONED_EVENTS: Tuple[str, ...] = ("FlightEvent",)


class ObsEventSchemaRule(Rule):
    name = "obs-event-schema"
    description = (
        "schema-versioned obs event constructed without an explicit "
        "schema_version= keyword; recorded logs must stay versioned"
    )

    def check(self, context: FileContext) -> Iterator[Finding]:
        for node in context.nodes:
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            # Direct calls only: FlightEvent(...).  Attribute access
            # (flight.FlightEvent(...)) resolves by the final segment;
            # classmethod alternates (FlightEvent.from_dict) end in
            # the method name and are never matched.
            if isinstance(callee, ast.Name):
                name = callee.id
            elif isinstance(callee, ast.Attribute):
                name = callee.attr
            else:
                continue
            if name not in SCHEMA_VERSIONED_EVENTS:
                continue
            explicit = any(
                keyword.arg == "schema_version" for keyword in node.keywords
            )
            # A **kwargs expansion cannot be checked statically; give
            # it the benefit of the doubt rather than false-positive.
            splatted = any(keyword.arg is None for keyword in node.keywords)
            if explicit or splatted:
                continue
            yield self.finding(
                context,
                node,
                f"{name}(...) without an explicit schema_version= keyword; "
                f"pass schema_version=FLIGHT_SCHEMA_VERSION so recorded "
                f"flight logs never silently change meaning",
            )


# ---------------------------------------------------------------------------
# registry: every rule, per-file and cross-module
# ---------------------------------------------------------------------------

#: Every emlint rule, the per-file ones first.  The driver tells the two
#: kinds apart by class (:class:`Rule` vs. :class:`CrossRule`).
ALL_RULES: Tuple[type, ...] = (
    UnitSafetyRule,
    DeterminismRule,
    ConfigImmutabilityRule,
    FloatEqualityRule,
    MutableDefaultArgRule,
    SilentExceptRule,
    ObsEventSchemaRule,
    LayeringRule,
    ImportCycleRule,
    SharedMutableStateRule,
    ForkUnsafetyRule,
    UnpicklableTargetRule,
    SignalHandlerRule,
    HotLoopRule,
)


def rule_names() -> List[str]:
    """Names of every registered rule, in registry order."""
    return [cls.name for cls in ALL_RULES]


def rules_by_name(names: Sequence[str]) -> List[Union[Rule, CrossRule]]:
    """Instantiate the rules named in ``names``, per-file or cross-module.

    Raises:
        KeyError: if a name is not registered.
    """
    registry = {cls.name: cls for cls in ALL_RULES}
    out: List[Union[Rule, CrossRule]] = []
    for name in names:
        if name not in registry:
            raise KeyError(name)
        out.append(registry[name]())
    return out
