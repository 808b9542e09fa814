"""Developer tooling for the EMPROF reproduction.

Two halves, both specific to this codebase's failure modes:

* **emlint**, a two-phase whole-program static analyzer
  (``python -m repro.devtools.lint`` / ``make lint``).  Phase 1 runs
  per-file rules (:mod:`repro.devtools.rules`: unit safety,
  determinism, config immutability, float equality, mutable defaults,
  silent excepts) and extracts a per-module fact base
  (:mod:`repro.devtools.facts`) in one parse and walk of each file.
  Phase 2 runs cross-module rules (:mod:`repro.devtools.xrules`) over
  the import graph and the one layer map,
  ``DEFAULT_LAYER_CONFIG`` in :mod:`repro.devtools.graph`:
  architecture layering, import cycles, concurrency safety (shared
  mutable state, fork-unsafe import-time captures, unpicklable worker
  targets), and hot-loop vectorization.  ``rules.ALL_RULES`` registers
  every rule of both phases.  A finding is silenced only by an inline
  ``# emlint: disable=<rule>`` comment that carries its reason; reports
  come out as text, JSON, or SARIF (:mod:`repro.devtools.reporters`).
  The tier-1 tests ``tests/test_lint_clean.py`` keep the tree clean.

* :mod:`repro.devtools.contracts` - runtime contracts (decorators and
  check functions) asserting the event invariants the analysis
  pipeline relies on: stall ``begin <= end``, monotonically
  non-decreasing stall positions, normalized magnitude in [0, 1].
  They are applied to the public ``core.detect`` / ``core.events`` /
  ``core.streaming`` surfaces and can be disabled with the
  ``EMPROF_CONTRACTS=0`` environment variable.

See ``docs/static-analysis.md`` for the rule catalogue, the layer
map, and the suppression syntax.
"""

from __future__ import annotations

__all__ = [
    "contracts",
    "engine",
    "facts",
    "graph",
    "lint",
    "reporters",
    "rules",
    "xrules",
]
