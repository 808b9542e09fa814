"""Phase 1 of the whole-program analyzer: per-file fact extraction.

The cross-module rules in :mod:`repro.devtools.xrules` never touch an
AST: they run over :class:`ModuleFacts` — a compact summary of
everything a cross-module rule may need to know about one module.
Facts are extracted in the same parse and walk of a file as the
per-file rules (see :mod:`repro.devtools.engine`), and the cheap
cross-module phase runs over all of them at once.

Facts recorded per module:

* **imports** — every ``import``/``from ... import``, with relative
  levels resolved against the module's dotted name and a flag for
  whether the import executes at module scope (import time) or is
  deferred inside a function.
* **module-level globals** — every name bound at module scope,
  classified (mutable container literal/factory, lock, RNG instance,
  file/socket handle, other) so the concurrency rules can reason about
  import-time state.
* **per-function summaries** — ``global`` rebinds, mutations of
  module-level names (and whether they happen under a module-level
  lock), suspicious ``multiprocessing``/executor targets, the shape of
  every loop over ndarray-typed values, ``signal.signal``
  registrations (with inline-lambda handlers scanned on the spot), and
  curated blocking / non-reentrant calls so the signal-handler rule
  can audit whatever ends up registered.
* **suppressions** — the ``# emlint: disable=`` map, so a file's
  inline suppressions also apply when cross findings land on it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

# ---------------------------------------------------------------------------
# fact records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ImportFact:
    """One import statement, with relative levels already resolved."""

    target: str  # dotted module imported, e.g. "repro.obs.trace"
    names: Tuple[str, ...]  # names bound by `from X import a, b`; () for bare
    lineno: int
    col: int
    module_level: bool  # executes at import time (not inside a function)


@dataclass(frozen=True)
class GlobalFact:
    """One name bound at module scope."""

    name: str
    lineno: int
    col: int
    #: "mutable" (list/dict/set literal or factory call), "lock"
    #: (threading.Lock/RLock/Condition/Semaphore), "rng" (RNG instance
    #: constructed at import time), "handle" (file/socket/tempfile
    #: opened at import time), or "other".
    kind: str
    detail: str = ""  # e.g. the constructor call that produced it


@dataclass(frozen=True)
class MutationFact:
    """One mutation of a module-level name inside a function body."""

    name: str  # the module-level name mutated
    lineno: int
    col: int
    #: "rebind" (global statement + assignment), "augassign",
    #: "subscript" (x[k] = / del x[k]), "attr" (x.y = ...), or
    #: "call:<method>" (x.append(...), x.update(...), ...).
    how: str
    locked: bool  # mutation happens inside `with <module-level lock>:`


@dataclass(frozen=True)
class LoopFact:
    """Shape of one loop, as far as array-vectorizability is concerned."""

    lineno: int
    col: int
    kind: str  # "for" | "while"
    #: "array" (for x in <ndarray>), "range_len_array"
    #: (for i in range(len(<ndarray>))), "enumerate_array",
    #: "range" (plain counted loop), "other".
    iterates: str
    array_name: str = ""  # the ndarray-typed name driving the loop, if any
    subscripts_array: bool = False  # body indexes an ndarray-typed name
    body_statements: int = 0


@dataclass(frozen=True)
class TargetFact:
    """A callable handed to a process/executor API inside a function."""

    lineno: int
    col: int
    api: str  # e.g. "Process(target=...)", "executor.submit"
    #: why the target is suspicious: "lambda" or "nested-function".
    problem: str
    target_desc: str = ""


@dataclass(frozen=True)
class SignalRegistrationFact:
    """One ``signal.signal(SIG, handler)`` call inside a function.

    Attributes:
        lineno / col: the registration site.
        signal_name: e.g. ``SIGTERM`` (best effort from the AST).
        handler: the name used to resolve the handler — a function
            name, the terminal attribute of a bound method
            (``self._on_signal`` -> ``_on_signal``), or ``lambda``.
        handler_kind: ``name`` / ``attribute`` / ``lambda`` / ``other``.
        inline_blocking / inline_nonreentrant: curated calls found
            inside an inline-lambda handler, as ``(callee, lineno)``;
            empty for named handlers (their own FunctionFact carries
            the calls).
    """

    lineno: int
    col: int
    signal_name: str
    handler: str
    handler_kind: str
    inline_blocking: Tuple[Tuple[str, int], ...] = ()
    inline_nonreentrant: Tuple[Tuple[str, int], ...] = ()


@dataclass(frozen=True)
class FunctionFact:
    """Cross-module-relevant summary of one function or method."""

    qualname: str  # e.g. "Campaign.execute" or "helper"
    lineno: int
    col: int
    global_rebinds: Tuple[Tuple[str, int], ...] = ()
    mutations: Tuple[MutationFact, ...] = ()
    loops: Tuple[LoopFact, ...] = ()
    process_targets: Tuple[TargetFact, ...] = ()
    signal_registrations: Tuple[SignalRegistrationFact, ...] = ()
    #: curated calls that can block (``sleep``, ``join``, ``acquire``,
    #: socket ops, ...) as ``(callee, lineno)``.
    blocking_calls: Tuple[Tuple[str, int], ...] = ()
    #: curated non-reentrant calls (``print``, ``open``, logging
    #: methods, stream writes) as ``(callee, lineno)``.
    nonreentrant_calls: Tuple[Tuple[str, int], ...] = ()


@dataclass(frozen=True)
class ModuleFacts:
    """Everything phase 2 knows about one module."""

    module: str  # dotted name, e.g. "repro.core.detect"
    path: str
    imports: Tuple[ImportFact, ...] = ()
    globals: Tuple[GlobalFact, ...] = ()
    functions: Tuple[FunctionFact, ...] = ()
    #: line -> rule names silenced there (from ``# emlint: disable=``).
    suppressions: Dict[int, Set[str]] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# classification helpers
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

_LOCK_FACTORIES = {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"}

_RNG_FACTORIES = {"default_rng", "RandomState", "Generator", "Random"}

_HANDLE_FACTORIES = {"open", "socket", "NamedTemporaryFile", "TemporaryFile"}

#: numpy callables whose result is (practically always) an ndarray;
#: used to infer ndarray-typed local names without type inference.
_NP_ARRAY_FACTORIES = {
    "array",
    "asarray",
    "ascontiguousarray",
    "asfarray",
    "zeros",
    "zeros_like",
    "ones",
    "ones_like",
    "empty",
    "empty_like",
    "full",
    "full_like",
    "arange",
    "linspace",
    "logspace",
    "concatenate",
    "stack",
    "hstack",
    "vstack",
    "where",
    "abs",
    "clip",
    "diff",
    "cumsum",
    "convolve",
    "interp",
    "sort",
    "copy",
    "frombuffer",
    "fromiter",
    "load",
}

#: ndarray methods whose result is again an ndarray.
_ARRAY_PRESERVING_METHODS = {"astype", "copy", "reshape", "ravel", "clip"}

#: executor/pool method names that ship a callable to another process.
_EXECUTOR_METHODS = {
    "submit",
    "map",
    "apply",
    "apply_async",
    "map_async",
    "starmap",
    "starmap_async",
    "imap",
    "imap_unordered",
}

#: Curated call names that can block indefinitely.  A signal handler
#: that blocks can deadlock the very code it interrupted (the
#: interrupted frame may hold the lock/queue the handler waits on).
_BLOCKING_CALLS = {
    "sleep",
    "join",
    "acquire",
    "wait",
    "wait_for",
    "accept",
    "select",
    "recv",
    "recvfrom",
    "sendall",
    "connect",
}

#: Curated call names that are not async-signal-safe: stdio and file
#: I/O take internal locks the interrupted frame may already hold.
_NONREENTRANT_CALLS = {"print", "open", "flush", "write"}

#: Logger method names; flagged when invoked on a logging-ish receiver
#: (the logging module serializes handlers with a module-level lock).
_LOGGING_METHODS = {
    "debug",
    "info",
    "warning",
    "error",
    "critical",
    "exception",
    "log",
}

_MUTATING_METHODS = {
    "append",
    "extend",
    "insert",
    "remove",
    "pop",
    "popitem",
    "clear",
    "update",
    "setdefault",
    "add",
    "discard",
    "appendleft",
    "extendleft",
}


def _call_name(node: ast.AST) -> Optional[str]:
    """Terminal callable name of ``a.b.c(...)`` / ``c(...)``, else None."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _classify_global(value: ast.AST) -> Tuple[str, str]:
    """(kind, detail) for the value bound to a module-level name."""
    if isinstance(
        value,
        (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp),
    ):
        return "mutable", type(value).__name__.lower()
    callee = _call_name(value)
    if callee is None:
        return "other", ""
    if callee in _MUTABLE_FACTORIES:
        return "mutable", f"{callee}()"
    if callee in _LOCK_FACTORIES:
        return "lock", f"{callee}()"
    if callee in _RNG_FACTORIES:
        return "rng", f"{callee}()"
    if callee in _HANDLE_FACTORIES:
        return "handle", f"{callee}()"
    return "other", f"{callee}()"


def _terminal_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` -> "a"; ``a`` -> "a"; anything else -> None."""
    while isinstance(node, ast.Attribute):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _classify_special_call(node: ast.Call) -> Optional[Tuple[str, str]]:
    """("blocking"|"nonreentrant", callee) for curated calls, else None."""
    callee = _call_name(node)
    if callee is None:
        return None
    func = node.func
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Constant):
        return None  # ", ".join(...) and friends: not the join we mean
    if callee in _BLOCKING_CALLS:
        return ("blocking", callee)
    if callee in _NONREENTRANT_CALLS:
        return ("nonreentrant", callee)
    if callee in _LOGGING_METHODS and isinstance(func, ast.Attribute):
        receiver = (_terminal_name(func.value) or "").lower()
        if "log" in receiver:
            return ("nonreentrant", callee)
    return None


def _lambda_special_calls(
    handler: ast.Lambda,
) -> Tuple[Tuple[Tuple[str, int], ...], Tuple[Tuple[str, int], ...]]:
    """(blocking, nonreentrant) curated calls inside a lambda handler."""
    blocking: List[Tuple[str, int]] = []
    nonreentrant: List[Tuple[str, int]] = []
    for sub in ast.walk(handler):
        if isinstance(sub, ast.Call):
            classified = _classify_special_call(sub)
            if classified is None:
                continue
            kind, callee = classified
            entry = (callee, sub.lineno)
            (blocking if kind == "blocking" else nonreentrant).append(entry)
    return tuple(blocking), tuple(nonreentrant)


# ---------------------------------------------------------------------------
# module name resolution
# ---------------------------------------------------------------------------


def module_name_for(path: "object") -> str:
    """Dotted module name of ``path``, walking up through ``__init__.py``.

    ``src/repro/core/detect.py`` -> ``repro.core.detect``; a standalone
    file outside any package is just its stem.
    """
    from pathlib import Path

    p = Path(path).resolve()
    parts: List[str] = []
    if p.name == "__init__.py":
        parts.append(p.parent.name)
        p = p.parent
    else:
        parts.append(p.stem)
    parent = p.parent
    while (parent / "__init__.py").is_file():
        parts.append(parent.name)
        parent = parent.parent
    return ".".join(reversed(parts))


def _resolve_relative(
    module: str, level: int, target: Optional[str], is_package: bool = False
) -> str:
    """Resolve ``from ..x import y`` against the importing module's name.

    For a plain module, level 1 is its containing package (drop the
    module's own name); for a package ``__init__.py`` the dotted name
    *is* the package, so level 1 resolves against it directly.
    """
    if level <= 0:
        return target or ""
    parts = module.split(".")
    base = parts[: len(parts) - level + (1 if is_package else 0)]
    if target:
        base = base + target.split(".")
    return ".".join(base)


# ---------------------------------------------------------------------------
# extraction
# ---------------------------------------------------------------------------


class _FunctionSummarizer:
    """Walk one function body and summarize its cross-module facts."""

    def __init__(
        self,
        func: ast.AST,
        qualname: str,
        module_globals: Dict[str, GlobalFact],
        lock_names: Set[str],
        np_aliases: Set[str],
    ):
        self.func = func
        self.qualname = qualname
        self.module_globals = module_globals
        self.lock_names = lock_names
        self.np_aliases = np_aliases
        self.global_rebinds: List[Tuple[str, int]] = []
        self.mutations: List[MutationFact] = []
        self.loops: List[LoopFact] = []
        self.targets: List[TargetFact] = []
        self.signal_registrations: List[SignalRegistrationFact] = []
        self.blocking_calls: List[Tuple[str, int]] = []
        self.nonreentrant_calls: List[Tuple[str, int]] = []
        self._declared_global: Set[str] = set()
        self._array_names: Set[str] = set()
        self._nested_funcs: Set[str] = set()

    # -- array-typed name inference ----------------------------------------

    def _is_array_expr(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Name):
            return node.id in self._array_names
        if isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and _terminal_name(func) in self.np_aliases
                and func.attr in _NP_ARRAY_FACTORIES
            ):
                return True
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _ARRAY_PRESERVING_METHODS
                and self._is_array_expr(func.value)
            ):
                return True
            return False
        if isinstance(node, ast.Subscript):
            # A slice of an array is an array (scalar indexing also
            # matches; for loop-shape purposes that is harmless).
            return self._is_array_expr(node.value)
        if isinstance(node, ast.BinOp):
            return self._is_array_expr(node.left) or self._is_array_expr(
                node.right
            )
        return False

    def _annotation_is_array(self, ann: Optional[ast.AST]) -> bool:
        if ann is None:
            return False
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            return "ndarray" in ann.value
        if isinstance(ann, ast.Name):
            return ann.id == "ndarray"
        if isinstance(ann, ast.Attribute):
            return ann.attr == "ndarray"
        if isinstance(ann, ast.Subscript):  # e.g. Optional[np.ndarray]
            return any(
                self._annotation_is_array(child)
                for child in ast.walk(ann)
                if child is not ann and isinstance(child, (ast.Name, ast.Attribute))
            )
        return False

    def _seed_array_names(self) -> None:
        args = getattr(self.func, "args", None)
        if args is not None:
            for arg in args.posonlyargs + args.args + args.kwonlyargs:
                if self._annotation_is_array(arg.annotation):
                    self._array_names.add(arg.arg)

    # -- the walk -----------------------------------------------------------

    def run(self) -> FunctionFact:
        self._seed_array_names()
        self._walk(list(ast.iter_child_nodes(self.func)), lock_depth=0)
        return FunctionFact(
            qualname=self.qualname,
            lineno=getattr(self.func, "lineno", 1),
            col=getattr(self.func, "col_offset", 0) + 1,
            global_rebinds=tuple(self.global_rebinds),
            mutations=tuple(self.mutations),
            loops=tuple(self.loops),
            process_targets=tuple(self.targets),
            signal_registrations=tuple(self.signal_registrations),
            blocking_calls=tuple(self.blocking_calls),
            nonreentrant_calls=tuple(self.nonreentrant_calls),
        )

    def _walk(self, nodes: Sequence[ast.AST], lock_depth: int) -> None:
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._nested_funcs.add(node.name)
                continue  # nested scopes are summarized separately
            if isinstance(node, ast.Lambda):
                continue
            if isinstance(node, ast.Global):
                self._declared_global.update(node.names)
                self._walk(list(ast.iter_child_nodes(node)), lock_depth)
                continue
            if isinstance(node, ast.With):
                held = any(
                    self._is_module_lock(item.context_expr)
                    for item in node.items
                )
                for item in node.items:
                    self._walk([item.context_expr], lock_depth)
                self._walk(node.body, lock_depth + (1 if held else 0))
                continue
            self._visit(node, lock_depth)
            self._walk(list(ast.iter_child_nodes(node)), lock_depth)

    def _is_module_lock(self, expr: ast.AST) -> bool:
        if isinstance(expr, ast.Call):  # `with lock.acquire_timeout():` etc.
            expr = expr.func
        name = _terminal_name(expr)
        return name is not None and name in self.lock_names

    def _visit(self, node: ast.AST, lock_depth: int) -> None:
        locked = lock_depth > 0
        if isinstance(node, ast.Assign):
            for target in node.targets:
                self._note_bind(target, node.value, node, locked)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            self._note_bind(node.target, node.value, node, locked)
        elif isinstance(node, ast.AugAssign):
            self._note_mutation_target(node.target, node, "augassign", locked)
            if isinstance(node.target, ast.Name) and self._is_array_expr(
                node.value
            ):
                self._array_names.add(node.target.id)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                self._note_mutation_target(target, node, "subscript", locked)
        elif isinstance(node, ast.For):
            self.loops.append(self._loop_fact(node))
        elif isinstance(node, ast.While):
            self.loops.append(self._while_fact(node))
        elif isinstance(node, ast.Call):
            self._note_mutating_call(node, locked)
            self._note_process_target(node)
            self._note_signal_registration(node)
            self._note_special_call(node)

    def _note_bind(
        self, target: ast.AST, value: ast.AST, stmt: ast.AST, locked: bool
    ) -> None:
        if isinstance(target, ast.Name):
            if self._is_array_expr(value):
                self._array_names.add(target.id)
            if (
                target.id in self._declared_global
                and target.id in self.module_globals
            ):
                self.global_rebinds.append((target.id, stmt.lineno))
                self.mutations.append(
                    MutationFact(
                        name=target.id,
                        lineno=stmt.lineno,
                        col=getattr(stmt, "col_offset", 0) + 1,
                        how="rebind",
                        locked=locked,
                    )
                )
        elif isinstance(target, (ast.Subscript, ast.Attribute)):
            how = "subscript" if isinstance(target, ast.Subscript) else "attr"
            self._note_mutation_target(target, stmt, how, locked)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._note_bind(element, value, stmt, locked)

    def _note_mutation_target(
        self, target: ast.AST, stmt: ast.AST, how: str, locked: bool
    ) -> None:
        if not isinstance(target, (ast.Subscript, ast.Attribute)):
            return
        base = _terminal_name(target.value)
        if base is None or base not in self.module_globals:
            return
        # Subscript/attribute stores hit the module object whether or
        # not `global` was declared (no rebinding involved).
        self.mutations.append(
            MutationFact(
                name=base,
                lineno=stmt.lineno,
                col=getattr(stmt, "col_offset", 0) + 1,
                how=how,
                locked=locked,
            )
        )

    def _note_mutating_call(self, node: ast.Call, locked: bool) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        if func.attr not in _MUTATING_METHODS:
            return
        base = _terminal_name(func.value)
        if base is None or base not in self.module_globals:
            return
        self.mutations.append(
            MutationFact(
                name=base,
                lineno=node.lineno,
                col=node.col_offset + 1,
                how=f"call:{func.attr}",
                locked=locked,
            )
        )

    # -- signal handlers and special calls ----------------------------------

    def _note_signal_registration(self, node: ast.Call) -> None:
        # `signal.signal(SIG, handler)` or bare `signal(SIG, handler)`
        # (from `from signal import signal`); 2+ args, second is the
        # handler.  SIG_IGN/SIG_DFL dispositions are not handlers.
        func = node.func
        is_signal_call = (
            isinstance(func, ast.Attribute)
            and func.attr == "signal"
            and _terminal_name(func.value) == "signal"
        ) or (isinstance(func, ast.Name) and func.id == "signal")
        if not is_signal_call or len(node.args) < 2:
            return
        handler = node.args[1]
        if (
            isinstance(handler, ast.Attribute)
            and handler.attr in ("SIG_IGN", "SIG_DFL")
        ):
            return
        sig = node.args[0]
        if isinstance(sig, ast.Attribute):
            signal_name = sig.attr
        elif isinstance(sig, ast.Name):
            signal_name = sig.id
        else:
            signal_name = "?"
        inline_blocking: Tuple[Tuple[str, int], ...] = ()
        inline_nonreentrant: Tuple[Tuple[str, int], ...] = ()
        if isinstance(handler, ast.Lambda):
            kind, name = "lambda", "lambda"
            inline_blocking, inline_nonreentrant = _lambda_special_calls(
                handler
            )
        elif isinstance(handler, ast.Name):
            kind, name = "name", handler.id
        elif isinstance(handler, ast.Attribute):
            kind, name = "attribute", handler.attr
        else:
            kind, name = "other", "?"
        self.signal_registrations.append(
            SignalRegistrationFact(
                lineno=node.lineno,
                col=node.col_offset + 1,
                signal_name=signal_name,
                handler=name,
                handler_kind=kind,
                inline_blocking=inline_blocking,
                inline_nonreentrant=inline_nonreentrant,
            )
        )

    def _note_special_call(self, node: ast.Call) -> None:
        classified = _classify_special_call(node)
        if classified is None:
            return
        kind, callee = classified
        entry = (callee, node.lineno)
        if kind == "blocking":
            self.blocking_calls.append(entry)
        else:
            self.nonreentrant_calls.append(entry)

    # -- multiprocessing targets -------------------------------------------

    def _suspicious_callable(self, node: ast.AST) -> Optional[Tuple[str, str]]:
        if isinstance(node, ast.Lambda):
            return ("lambda", "lambda")
        if isinstance(node, ast.Name) and node.id in self._nested_funcs:
            return ("nested-function", node.id)
        return None

    def _note_process_target(self, node: ast.Call) -> None:
        func = node.func
        api: Optional[str] = None
        candidate: Optional[ast.AST] = None
        callee = _call_name(node)
        if callee == "Process":
            for kw in node.keywords:
                if kw.arg == "target":
                    api = "Process(target=...)"
                    candidate = kw.value
        elif (
            isinstance(func, ast.Attribute)
            and func.attr in _EXECUTOR_METHODS
        ):
            receiver = _terminal_name(func.value) or ""
            if any(token in receiver.lower() for token in ("pool", "executor")):
                api = f"{receiver}.{func.attr}"
                candidate = node.args[0] if node.args else None
        if api is None or candidate is None:
            return
        problem = self._suspicious_callable(candidate)
        if problem is not None:
            self.targets.append(
                TargetFact(
                    lineno=node.lineno,
                    col=node.col_offset + 1,
                    api=api,
                    problem=problem[0],
                    target_desc=problem[1],
                )
            )

    # -- loop shapes ---------------------------------------------------------

    def _body_subscripts_array(self, body: Sequence[ast.stmt]) -> bool:
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Subscript) and self._is_array_expr(
                    node.value
                ):
                    return True
        return False

    def _loop_fact(self, node: ast.For) -> LoopFact:
        iterates = "other"
        array_name = ""
        it = node.iter
        if self._is_array_expr(it):
            iterates = "array"
            array_name = _terminal_name(it) or ""
        elif isinstance(it, ast.Call):
            callee = _call_name(it)
            if callee == "range":
                iterates = "range"
                if it.args:
                    inner = it.args[0]
                    if (
                        isinstance(inner, ast.Call)
                        and _call_name(inner) == "len"
                        and inner.args
                        and self._is_array_expr(inner.args[0])
                    ):
                        iterates = "range_len_array"
                        array_name = _terminal_name(inner.args[0]) or ""
            elif callee == "enumerate" and it.args and self._is_array_expr(
                it.args[0]
            ):
                iterates = "enumerate_array"
                array_name = _terminal_name(it.args[0]) or ""
        return LoopFact(
            lineno=node.lineno,
            col=node.col_offset + 1,
            kind="for",
            iterates=iterates,
            array_name=array_name,
            subscripts_array=self._body_subscripts_array(node.body),
            body_statements=len(node.body),
        )

    def _while_fact(self, node: ast.While) -> LoopFact:
        return LoopFact(
            lineno=node.lineno,
            col=node.col_offset + 1,
            kind="while",
            iterates="other",
            subscripts_array=self._body_subscripts_array(node.body),
            body_statements=len(node.body),
        )


def _numpy_aliases(nodes: Sequence[ast.AST]) -> Set[str]:
    aliases: Set[str] = set()
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy" or alias.name.startswith("numpy."):
                    aliases.add(alias.asname or alias.name.split(".")[0])
    return aliases


def _iter_functions(
    tree: ast.Module,
) -> Iterator[Tuple[str, ast.AST]]:
    """(qualname, node) for every function/method, including nested."""

    def walk(nodes: Sequence[ast.AST], prefix: str) -> Iterator[Tuple[str, ast.AST]]:
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{node.name}"
                yield qual, node
                yield from walk(node.body, f"{qual}.")
            elif isinstance(node, ast.ClassDef):
                yield from walk(node.body, f"{prefix}{node.name}.")

    yield from walk(tree.body, "")


def extract_facts(
    tree: ast.Module,
    module: str,
    path: str,
    suppressions: Optional[Dict[int, Set[str]]] = None,
    is_package: bool = False,
    nodes: Optional[Sequence[ast.AST]] = None,
) -> ModuleFacts:
    """Summarize one parsed module into :class:`ModuleFacts`.

    ``is_package`` marks a package ``__init__.py`` so relative imports
    resolve against the package itself rather than its parent.
    ``nodes`` is ``tree`` already walked (:attr:`FileContext.nodes
    <repro.devtools.engine.FileContext.nodes>`); it is walked here
    when not given.
    """
    if nodes is None:
        nodes = tuple(ast.walk(tree))
    imports: List[ImportFact] = []

    # Which import statements execute at module scope: walk the module
    # body without descending into function bodies (class bodies *do*
    # execute at import time) or the body of ``if TYPE_CHECKING:``.
    module_scope_imports: Set[int] = set()
    stack: List[ast.AST] = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.If) and "TYPE_CHECKING" in (
            getattr(node.test, "id", None),  # TYPE_CHECKING
            getattr(node.test, "attr", None),  # typing.TYPE_CHECKING
        ):
            stack.extend(node.orelse)
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            module_scope_imports.add(id(node))
        stack.extend(ast.iter_child_nodes(node))

    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imports.append(
                    ImportFact(
                        target=alias.name,
                        names=(),
                        lineno=node.lineno,
                        col=node.col_offset + 1,
                        module_level=id(node) in module_scope_imports,
                    )
                )
        elif isinstance(node, ast.ImportFrom):
            target = _resolve_relative(module, node.level, node.module, is_package)
            imports.append(
                ImportFact(
                    target=target,
                    names=tuple(alias.name for alias in node.names),
                    lineno=node.lineno,
                    col=node.col_offset + 1,
                    module_level=id(node) in module_scope_imports,
                )
            )

    # Module-level bindings (module body only, not class/function bodies).
    globals_out: List[GlobalFact] = []
    for stmt in tree.body:
        targets: List[ast.AST] = []
        value: Optional[ast.AST] = None
        if isinstance(stmt, ast.Assign):
            targets, value = list(stmt.targets), stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if value is None:
            continue
        kind, detail = _classify_global(value)
        for target in targets:
            if isinstance(target, ast.Name):
                globals_out.append(
                    GlobalFact(
                        name=target.id,
                        lineno=stmt.lineno,
                        col=stmt.col_offset + 1,
                        kind=kind,
                        detail=detail,
                    )
                )

    global_map = {g.name: g for g in globals_out}
    lock_names = {g.name for g in globals_out if g.kind == "lock"}
    np_aliases = _numpy_aliases(nodes)

    functions: List[FunctionFact] = []
    for qualname, node in _iter_functions(tree):
        summarizer = _FunctionSummarizer(
            node, qualname, global_map, lock_names, np_aliases
        )
        functions.append(summarizer.run())

    return ModuleFacts(
        module=module,
        path=path,
        imports=tuple(imports),
        globals=tuple(globals_out),
        functions=tuple(functions),
        suppressions=dict(suppressions or {}),
    )
