"""Phase 2 of the whole-program analyzer: cross-module rules.

Where :mod:`repro.devtools.rules` checks one file's AST, the rules
here run over the project-wide fact base (:class:`ProgramFacts`):
the import graph, the layer map, and every module's extracted facts.
Three families ship:

**Architecture layering** (``layering``, ``import-cycle``) — the
declarative layer map (:data:`repro.devtools.graph.DEFAULT_LAYER_CONFIG`) says
which layers may import which; violations and module-level import
cycles are findings.  ``obs`` additionally stays stdlib-only at
import time.

**Concurrency safety** (``shared-mutable-state``, ``fork-unsafety``,
``unpicklable-target``, ``signal-handler``) — module-level mutable
state mutated from function bodies without a module-level lock held,
RNG instances and file/socket handles captured at import time
(fork-hostile: every worker inherits the same stream/descriptor),
callables handed to ``multiprocessing``/executor APIs that cannot
survive pickling (lambdas, nested functions), and signal handlers
that block or do non-reentrant work (a handler runs *inside* an
arbitrary interrupted frame; the only safe body sets a flag).  These
clear the runway for the multi-worker campaign service and its
SIGTERM-drained daemon.

**Hot-loop vectorization** (``hot-loop``) — per-sample Python loops
over ndarray-typed values inside modules tagged *hot* in the layer
config; the findings list is the vectorization worklist for the
single chunked engine refactor.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Dict, Iterator, Mapping, Optional, Sequence, Set, Tuple

from .engine import Finding
from .facts import ModuleFacts
from .graph import (
    LayerConfig,
    build_import_graph,
    find_cycles,
    resolve_import_edges,
)

_STDLIB = set(getattr(sys, "stdlib_module_names", ()))
_STDLIB.add("__future__")


@dataclass
class ProgramFacts:
    """The whole-program fact base handed to every cross rule."""

    modules: Dict[str, ModuleFacts] = field(default_factory=dict)
    layers: LayerConfig = field(default_factory=LayerConfig)
    graph: Dict[str, Set[str]] = field(default_factory=dict)

    @classmethod
    def build(
        cls,
        modules: Mapping[str, ModuleFacts],
        layers: Optional[LayerConfig] = None,
    ) -> "ProgramFacts":
        layer_config = layers if layers is not None else LayerConfig()
        return cls(
            modules=dict(modules),
            layers=layer_config,
            graph=build_import_graph(modules),
        )


class CrossRule:
    """Base class for whole-program rules.

    Same contract as :class:`repro.devtools.engine.Rule`, but
    :meth:`check` sees the full :class:`ProgramFacts` instead of one
    file.  Findings are anchored at real file/line locations so inline
    ``# emlint: disable=`` suppressions keep working.
    """

    name: str = ""
    description: str = ""

    def check(self, program: ProgramFacts) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, path: str, lineno: int, col: int, message: str
    ) -> Finding:
        return Finding(
            path=path, line=lineno, col=col, rule=self.name, message=message
        )


# ---------------------------------------------------------------------------
# architecture layering
# ---------------------------------------------------------------------------


class LayeringRule(CrossRule):
    name = "layering"
    description = (
        "cross-layer import forbidden by the layer map, or a non-stdlib "
        "import-time dependency in a stdlib-only layer"
    )

    def check(self, program: ProgramFacts) -> Iterator[Finding]:
        layers = program.layers
        known = set(program.modules)
        for module in sorted(program.modules):
            facts = program.modules[module]
            source_layer = layers.layer_of(module)
            if source_layer is None:
                continue
            banned = set(layers.forbidden.get(source_layer, ()))
            stdlib_only = source_layer in layers.stdlib_only
            for imp in facts.imports:
                if not imp.module_level:
                    continue  # deferred imports are the sanctioned escape
                edges = resolve_import_edges(imp, known)
                for edge in edges:
                    target_layer = layers.layer_of(edge)
                    if target_layer in banned:
                        yield self.finding(
                            facts.path,
                            imp.lineno,
                            imp.col,
                            f"layer '{source_layer}' ({module}) must not "
                            f"import layer '{target_layer}' ({edge})",
                        )
                if stdlib_only:
                    yield from self._check_stdlib_only(
                        facts, imp, edges, source_layer, layers
                    )

    def _check_stdlib_only(
        self,
        facts: ModuleFacts,
        imp,
        edges: Sequence[str],
        source_layer: str,
        layers: LayerConfig,
    ) -> Iterator[Finding]:
        if edges:
            # A project-internal import: fine as long as the target
            # layer is itself stdlib-only (obs importing obs).
            for edge in edges:
                target_layer = layers.layer_of(edge)
                if target_layer not in layers.stdlib_only:
                    yield self.finding(
                        facts.path,
                        imp.lineno,
                        imp.col,
                        f"stdlib-only layer '{source_layer}' imports "
                        f"'{edge}' (layer '{target_layer}') at module "
                        f"level; defer it into the function that needs it",
                    )
            return
        top = imp.target.split(".")[0] if imp.target else ""
        if top and top not in _STDLIB:
            yield self.finding(
                facts.path,
                imp.lineno,
                imp.col,
                f"stdlib-only layer '{source_layer}' imports third-party "
                f"module '{top}' at import time; defer or drop it",
            )


class ImportCycleRule(CrossRule):
    name = "import-cycle"
    description = "module-level import cycle between project modules"

    def check(self, program: ProgramFacts) -> Iterator[Finding]:
        for cycle in find_cycles(program.graph):
            anchor = program.modules[cycle[0]]
            lineno, col = 1, 1
            next_in_cycle = set(cycle)
            for imp in anchor.imports:
                if imp.module_level and any(
                    edge in next_in_cycle
                    for edge in resolve_import_edges(imp, set(program.modules))
                ):
                    lineno, col = imp.lineno, imp.col
                    break
            yield self.finding(
                anchor.path,
                lineno,
                col,
                "import cycle: " + " -> ".join(cycle + [cycle[0]]),
            )


# ---------------------------------------------------------------------------
# concurrency safety
# ---------------------------------------------------------------------------

_CACHE_TOKENS = ("cache", "memo", "registry")


def _looks_like_cache(name: str) -> bool:
    lowered = name.lower()
    return any(token in lowered for token in _CACHE_TOKENS)


class SharedMutableStateRule(CrossRule):
    name = "shared-mutable-state"
    description = (
        "module-level mutable state mutated from function bodies without "
        "a module-level lock held (unsafe under threads and fork workers)"
    )

    def check(self, program: ProgramFacts) -> Iterator[Finding]:
        for module in sorted(program.modules):
            facts = program.modules[module]
            global_kinds = {g.name: g.kind for g in facts.globals}
            flagged: Set[Tuple[str, int]] = set()
            for function in facts.functions:
                for mutation in function.mutations:
                    if mutation.locked:
                        continue
                    kind = global_kinds.get(mutation.name)
                    if kind == "lock":
                        continue
                    if mutation.how == "rebind":
                        what = (
                            f"'{function.qualname}' rebinds module-level "
                            f"name '{mutation.name}' via 'global'"
                        )
                    elif kind != "mutable":
                        continue
                    elif _looks_like_cache(mutation.name):
                        what = (
                            f"'{function.qualname}' mutates module-level "
                            f"cache '{mutation.name}' ({mutation.how}) "
                            f"without a lock; a non-reentrant cache races "
                            f"under threads"
                        )
                    else:
                        what = (
                            f"'{function.qualname}' mutates module-level "
                            f"state '{mutation.name}' ({mutation.how}) "
                            f"without a lock"
                        )
                    key = (mutation.name, mutation.lineno)
                    if key in flagged:
                        continue
                    flagged.add(key)
                    yield self.finding(
                        facts.path, mutation.lineno, mutation.col, what
                    )


class ForkUnsafetyRule(CrossRule):
    name = "fork-unsafety"
    description = (
        "RNG instance or file/socket handle captured at import time; "
        "forked workers inherit the same stream/descriptor"
    )

    def check(self, program: ProgramFacts) -> Iterator[Finding]:
        for module in sorted(program.modules):
            facts = program.modules[module]
            for g in facts.globals:
                if g.kind == "rng":
                    yield self.finding(
                        facts.path,
                        g.lineno,
                        g.col,
                        f"module-level RNG '{g.name}' = {g.detail} is "
                        f"captured at import time; every forked worker "
                        f"inherits the same stream — construct per "
                        f"worker/run instead",
                    )
                elif g.kind == "handle":
                    yield self.finding(
                        facts.path,
                        g.lineno,
                        g.col,
                        f"module-level handle '{g.name}' = {g.detail} is "
                        f"opened at import time; forked workers share the "
                        f"descriptor and its offset — open lazily instead",
                    )


class UnpicklableTargetRule(CrossRule):
    name = "unpicklable-target"
    description = (
        "lambda or nested function handed to a multiprocessing/executor "
        "API; such targets cannot be pickled to worker processes"
    )

    def check(self, program: ProgramFacts) -> Iterator[Finding]:
        for module in sorted(program.modules):
            facts = program.modules[module]
            for function in facts.functions:
                for target in function.process_targets:
                    yield self.finding(
                        facts.path,
                        target.lineno,
                        target.col,
                        f"'{function.qualname}' passes a {target.problem} "
                        f"('{target.target_desc}') to {target.api}; it "
                        f"cannot be pickled to a worker process — use a "
                        f"module-level function",
                    )


class SignalHandlerRule(CrossRule):
    name = "signal-handler"
    description = (
        "signal handler blocks or does non-reentrant work; a handler "
        "interrupts an arbitrary frame, so it must only set a flag"
    )

    def check(self, program: ProgramFacts) -> Iterator[Finding]:
        for module in sorted(program.modules):
            facts = program.modules[module]
            functions = list(facts.functions)
            for function in functions:
                for reg in function.signal_registrations:
                    yield from self._check_registration(
                        facts, functions, function, reg
                    )

    def _check_registration(self, facts, functions, registrar, reg):
        where = f"{reg.signal_name} handler"
        if reg.handler_kind == "lambda":
            for callee, lineno in reg.inline_blocking:
                yield self.finding(
                    facts.path,
                    lineno,
                    1,
                    f"inline lambda {where} (registered in "
                    f"'{registrar.qualname}') calls blocking '{callee}'; "
                    f"it can deadlock the interrupted frame — set a "
                    f"flag/Event and act on it from normal code",
                )
            for callee, lineno in reg.inline_nonreentrant:
                yield self.finding(
                    facts.path,
                    lineno,
                    1,
                    f"inline lambda {where} (registered in "
                    f"'{registrar.qualname}') calls non-reentrant "
                    f"'{callee}'; I/O and logging take locks the "
                    f"interrupted frame may hold — set a flag instead",
                )
            return
        if reg.handler_kind not in ("name", "attribute"):
            return
        # Resolve the handler within the same module: an exact
        # qualname match, or a method whose terminal name matches
        # (`self._on_signal` -> `CampaignService._on_signal`).
        handlers = [
            f
            for f in functions
            if f.qualname == reg.handler
            or f.qualname.endswith("." + reg.handler)
        ]
        for handler in handlers:
            for callee, lineno in handler.blocking_calls:
                yield self.finding(
                    facts.path,
                    lineno,
                    1,
                    f"'{handler.qualname}' is a {where} (registered at "
                    f"line {reg.lineno}) but calls blocking '{callee}'; "
                    f"it can deadlock the interrupted frame — set a "
                    f"flag/Event and act on it from normal code",
                )
            for callee, lineno in handler.nonreentrant_calls:
                yield self.finding(
                    facts.path,
                    lineno,
                    1,
                    f"'{handler.qualname}' is a {where} (registered at "
                    f"line {reg.lineno}) but calls non-reentrant "
                    f"'{callee}'; I/O and logging take locks the "
                    f"interrupted frame may hold — set a flag instead",
                )


# ---------------------------------------------------------------------------
# hot-loop vectorization
# ---------------------------------------------------------------------------


class HotLoopRule(CrossRule):
    name = "hot-loop"
    description = (
        "per-sample Python loop over an ndarray in a hot module; "
        "vectorize or move to the chunked engine"
    )

    def check(self, program: ProgramFacts) -> Iterator[Finding]:
        for module in sorted(program.modules):
            if not program.layers.is_hot(module):
                continue
            facts = program.modules[module]
            for function in facts.functions:
                for loop in function.loops:
                    message = self._diagnose(function.qualname, loop)
                    if message is not None:
                        yield self.finding(
                            facts.path, loop.lineno, loop.col, message
                        )

    @staticmethod
    def _diagnose(qualname: str, loop) -> Optional[str]:
        array = (
            f"ndarray '{loop.array_name}'" if loop.array_name else "an ndarray"
        )
        if loop.kind == "for" and loop.iterates == "array":
            return (
                f"'{qualname}' iterates {array} element-by-element; "
                f"vectorize the body or process in chunks"
            )
        if loop.kind == "for" and loop.iterates in (
            "range_len_array",
            "enumerate_array",
        ):
            return (
                f"'{qualname}' indexes {array} one "
                f"sample at a time ({loop.iterates.replace('_', ' ')}); "
                f"vectorize with numpy primitives"
            )
        if loop.kind == "for" and loop.iterates == "range" and loop.subscripts_array:
            return (
                f"'{qualname}' runs a counted loop whose body subscripts "
                f"an ndarray per iteration; vectorize with numpy "
                f"primitives"
            )
        if loop.kind == "while" and loop.subscripts_array:
            return (
                f"'{qualname}' scans an ndarray with a while-loop; "
                f"replace with vectorized run-length/boundary detection"
            )
        return None
