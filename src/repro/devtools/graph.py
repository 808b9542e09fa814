"""Phase 2 substrate: the project import graph and the layer map.

:data:`DEFAULT_LAYER_CONFIG` is the one layer map: it encodes the
repository's architecture, and a new module gets its layer there:

* ``core`` / ``emsignal`` / ``sim`` (and the other library layers)
  must not import ``experiments`` / ``cli`` internals, nor the
  observatory's internals (``obs.ledger``, ``obs.dashboard``, ...).
  The *instrumentation surface* (``obs.metrics`` / ``obs.trace`` /
  ``obs.runtime``) is its own layer precisely so hot code may import
  it.
* ``obs`` stays stdlib-only at import time (deferred, function-level
  imports are the sanctioned escape hatch and are exempt).
* no import cycles, at module granularity.

The import graph contains only **module-level** imports between
project modules: deferred imports inside functions are how cycles and
heavy dependencies are legitimately broken, so they never create
edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Set, Tuple

from .facts import ImportFact, ModuleFacts


# ---------------------------------------------------------------------------
# layer configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LayerConfig:
    """The declarative architecture map the layering rules enforce.

    Attributes:
        layers: layer name -> module prefixes.  A module belongs to the
            layer with the *longest* matching prefix (exact module or
            dotted-prefix match), so ``repro.obs.metrics`` can sit in
            ``obs-api`` while ``repro.obs`` as a whole is
            ``obs-internal``.
        forbidden: source layer -> layer names it must not import.
        stdlib_only: layers whose module-level imports must be stdlib
            or internal to their own top-level package.
        hot: module prefixes whose loops the vectorization rule
            audits.
    """

    layers: Mapping[str, Tuple[str, ...]] = field(default_factory=dict)
    forbidden: Mapping[str, Tuple[str, ...]] = field(default_factory=dict)
    stdlib_only: Tuple[str, ...] = ()
    hot: Tuple[str, ...] = ()

    def layer_of(self, module: str) -> Optional[str]:
        """Layer owning ``module``, by longest prefix match."""
        best: Optional[str] = None
        best_len = -1
        for layer, prefixes in self.layers.items():
            for prefix in prefixes:
                if module == prefix or module.startswith(prefix + "."):
                    if len(prefix) > best_len:
                        best, best_len = layer, len(prefix)
        return best

    def is_hot(self, module: str) -> bool:
        return any(
            module == prefix or module.startswith(prefix + ".")
            for prefix in self.hot
        )


#: The repository's architecture.  Every module under ``src/repro``
#: but the package root must have a layer here (a test checks it).
DEFAULT_LAYER_CONFIG = LayerConfig(
    layers={
        "core": ("repro.core",),
        "emsignal": ("repro.emsignal",),
        "sim": ("repro.sim",),
        "devices": ("repro.devices",),
        "workloads": ("repro.workloads",),
        "attribution": ("repro.attribution",),
        "faults": ("repro.faults",),
        "baselines": ("repro.baselines",),
        "errors": ("repro.errors",),
        "obs-api": (
            "repro.obs.metrics",
            "repro.obs.trace",
            "repro.obs.runtime",
            "repro.obs.events",
            "repro.obs.flight",
        ),
        "obs-internal": ("repro.obs",),
        "experiments": ("repro.experiments",),
        "cli": (
            "repro.cli",
            "repro.__main__",
            "repro.render",
            "repro.analysis",
            "repro.acquire",
            "repro.io",
        ),
        "devtools": ("repro.devtools",),
    },
    forbidden={
        layer: ("experiments", "cli", "obs-internal")
        for layer in (
            "core",
            "emsignal",
            "sim",
            "devices",
            "workloads",
            "attribution",
            "baselines",
            "errors",
            "obs-api",
        )
    },
    stdlib_only=("obs-api", "obs-internal"),
    hot=("repro.core", "repro.emsignal", "repro.attribution"),
)


# ---------------------------------------------------------------------------
# import graph
# ---------------------------------------------------------------------------


def resolve_import_edges(
    fact: ImportFact, known_modules: Set[str]
) -> List[str]:
    """Project-internal modules one import statement depends on.

    ``from pkg import name`` resolves to ``pkg.name`` when that is a
    known project module (importing a submodule), otherwise to ``pkg``
    itself (importing an object).  Bare ``import pkg.sub`` resolves to
    the deepest known prefix.
    """
    edges: List[str] = []
    target = fact.target
    if not target:
        return edges
    if fact.names:
        for name in fact.names:
            dotted = f"{target}.{name}"
            if dotted in known_modules:
                edges.append(dotted)
            elif target in known_modules:
                edges.append(target)
    else:
        probe = target
        while probe:
            if probe in known_modules:
                edges.append(probe)
                break
            probe = probe.rpartition(".")[0]
    return edges


def import_edges(
    importer: str, fact: ImportFact, known_modules: Set[str]
) -> List[str]:
    """Every project module one import statement loads when it runs.

    :func:`resolve_import_edges`, plus each package ``__init__`` on the
    way that ``importer`` is not already inside: ``from a.b.c import x``
    also runs ``a/__init__`` and ``a/b/__init__``.
    """
    edges: List[str] = []
    for target in resolve_import_edges(fact, known_modules):
        parts = target.split(".")
        for depth in range(1, len(parts)):
            package = ".".join(parts[:depth])
            inside = f"{importer}.".startswith(f"{package}.")
            if package in known_modules and not inside:
                edges.append(package)
        edges.append(target)
    return edges


def build_import_graph(modules: Mapping[str, ModuleFacts]) -> Dict[str, Set[str]]:
    """Adjacency map of the project-internal imports that run at import time."""
    known = set(modules)
    graph: Dict[str, Set[str]] = {name: set() for name in known}
    for name, facts in modules.items():
        for imp in facts.imports:
            if not imp.module_level:
                continue
            for edge in import_edges(name, imp, known):
                if edge != name:
                    graph[name].add(edge)
    return graph


def find_cycles(graph: Mapping[str, Set[str]]) -> List[List[str]]:
    """Strongly connected components of size > 1 (import cycles).

    Iterative Tarjan; each cycle is returned sorted for determinism,
    and the cycle list is sorted by its first member.
    """
    index: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    counter = [0]
    cycles: List[List[str]] = []

    for root in sorted(graph):
        if root in index:
            continue
        work: List[Tuple[str, int]] = [(root, 0)]
        while work:
            node, edge_index = work[-1]
            if edge_index == 0:
                index[node] = lowlink[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            neighbors = sorted(graph.get(node, ()))
            if edge_index < len(neighbors):
                work[-1] = (node, edge_index + 1)
                neighbor = neighbors[edge_index]
                if neighbor not in index:
                    work.append((neighbor, 0))
                elif neighbor in on_stack:
                    lowlink[node] = min(lowlink[node], index[neighbor])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
                if lowlink[node] == index[node]:
                    component: List[str] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    if len(component) > 1:
                        cycles.append(sorted(component))
    cycles.sort(key=lambda c: c[0])
    return cycles
