"""Cross-module rules, each proven by a failing fixture mini-package.

The fixtures are synthetic package trees written into ``tmp_path`` and
analyzed with :func:`repro.devtools.engine.analyze_paths` under a
purpose-built layer map — one failing and one clean case per rule
family, plus graph construction and suppression mechanics.
"""

from pathlib import Path

from repro.devtools.engine import analyze_paths
from repro.devtools.graph import (
    DEFAULT_LAYER_CONFIG,
    LayerConfig,
    build_import_graph,
    find_cycles,
)
from repro.devtools.rules import ALL_RULES
from repro.devtools.xrules import CrossRule

LAYERS = LayerConfig(
    layers={
        "core": ("pkg.core",),
        "cli": ("pkg.cli",),
        "obs": ("pkg.obs",),
    },
    forbidden={"core": ("cli", "obs")},
    stdlib_only=("obs",),
    hot=("pkg.core",),
)


def write_tree(tmp_path: Path, files: dict) -> Path:
    root = tmp_path / "proj"
    for relpath, source in files.items():
        target = root / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
    # every directory under the root is a package
    for directory in root.rglob("*"):
        if directory.is_dir():
            init = directory / "__init__.py"
            if not init.exists():
                init.write_text("")
    (root / "pkg" / "__init__.py").touch()
    return root


def analyze(tmp_path: Path, files: dict, **kw):
    root = write_tree(tmp_path, files)
    kw.setdefault("layers", LAYERS)
    kw.setdefault(  # cross-module rules only
        "rules", [cls() for cls in ALL_RULES if issubclass(cls, CrossRule)]
    )
    return analyze_paths([root], **kw)


def rule_hits(result, rule: str):
    return [f for f in result.findings if f.rule == rule]


# -- layering ---------------------------------------------------------------


def test_layering_flags_forbidden_cross_layer_import(tmp_path):
    result = analyze(
        tmp_path,
        {
            "pkg/core/detect.py": "from ..cli import main\n",
            "pkg/cli/__init__.py": "def main():\n    return 0\n",
        },
    )
    (finding,) = rule_hits(result, "layering")
    assert "layer 'core'" in finding.message
    assert "layer 'cli'" in finding.message
    assert finding.path.endswith("detect.py")


def test_layering_allows_sanctioned_direction(tmp_path):
    result = analyze(
        tmp_path,
        {
            "pkg/cli/__init__.py": "from ..core.detect import run\n",
            "pkg/core/detect.py": "def run():\n    return 0\n",
        },
    )
    assert rule_hits(result, "layering") == []


def test_layering_deferred_import_is_exempt(tmp_path):
    result = analyze(
        tmp_path,
        {
            "pkg/core/detect.py": (
                "def run():\n"
                "    from ..cli import main\n"
                "    return main()\n"
            ),
            "pkg/cli/__init__.py": "def main():\n    return 0\n",
        },
    )
    assert rule_hits(result, "layering") == []


def test_stdlib_only_layer_flags_third_party_import(tmp_path):
    result = analyze(
        tmp_path,
        {"pkg/obs/metrics.py": "import json\nimport numpy\n"},
    )
    (finding,) = rule_hits(result, "layering")
    assert "numpy" in finding.message
    assert "stdlib-only" in finding.message


def test_stdlib_only_layer_flags_project_import_outside_layer(tmp_path):
    result = analyze(
        tmp_path,
        {
            "pkg/obs/metrics.py": "from ..core.detect import run\n",
            "pkg/core/detect.py": "def run():\n    return 0\n",
        },
    )
    (finding,) = rule_hits(result, "layering")
    assert "defer" in finding.message


def test_stdlib_only_layer_may_import_itself(tmp_path):
    result = analyze(
        tmp_path,
        {
            "pkg/obs/metrics.py": "from .runtime import enabled\n",
            "pkg/obs/runtime.py": "def enabled():\n    return False\n",
        },
    )
    assert rule_hits(result, "layering") == []


# -- import cycles ----------------------------------------------------------


def test_import_cycle_detected(tmp_path):
    result = analyze(
        tmp_path,
        {
            "pkg/core/a.py": "from . import b\n",
            "pkg/core/b.py": "from . import a\n",
        },
    )
    (finding,) = rule_hits(result, "import-cycle")
    assert "pkg.core.a -> pkg.core.b -> pkg.core.a" in finding.message


def test_cycle_broken_by_deferred_import_is_clean(tmp_path):
    result = analyze(
        tmp_path,
        {
            "pkg/core/a.py": "from . import b\n",
            "pkg/core/b.py": "def f():\n    from . import a\n    return a\n",
        },
    )
    assert rule_hits(result, "import-cycle") == []


#: ``work.base`` imports ``sim.config``, which first runs ``sim/__init__``,
#: which imports ``sim.machine``; the last module imports ``work.base``
#: back as given.
EAGER_INIT_TREE = {
    "pkg/work/base.py": "from ..sim.config import Config\n",
    "pkg/sim/__init__.py": "from .machine import Machine\n",
    "pkg/sim/config.py": "Config = 1\n",
}


def test_import_cycle_through_an_eager_package_init(tmp_path):
    result = analyze(
        tmp_path,
        {
            **EAGER_INIT_TREE,
            "pkg/sim/machine.py": "from ..work.base import Base\nMachine = 1\n",
        },
    )
    (finding,) = rule_hits(result, "import-cycle")
    assert (
        "pkg.sim -> pkg.sim.machine -> pkg.work.base -> pkg.sim"
        in finding.message
    )
    assert finding.path.endswith("__init__.py")


def test_type_checking_import_closes_no_cycle(tmp_path):
    result = analyze(
        tmp_path,
        {
            **EAGER_INIT_TREE,
            "pkg/sim/machine.py": (
                "from typing import TYPE_CHECKING\n"
                "if TYPE_CHECKING:\n"
                "    from ..work.base import Base\n"
                "Machine = 1\n"
            ),
        },
    )
    assert rule_hits(result, "import-cycle") == []


def test_find_cycles_on_adjacency():
    graph = {"a": {"b"}, "b": {"c"}, "c": {"a"}, "d": set()}
    assert find_cycles(graph) == [["a", "b", "c"]]
    assert find_cycles({"a": {"b"}, "b": set()}) == []


# -- concurrency safety -----------------------------------------------------


def test_shared_mutable_state_flagged_without_lock(tmp_path):
    result = analyze(
        tmp_path,
        {
            "pkg/core/registry.py": (
                "_REGISTRY = {}\n"
                "def register(name, obj):\n"
                "    _REGISTRY[name] = obj\n"
            )
        },
    )
    (finding,) = rule_hits(result, "shared-mutable-state")
    assert "_REGISTRY" in finding.message
    assert "cache" in finding.message  # registry counts as cache-like


def test_shared_mutable_state_quiet_under_lock(tmp_path):
    result = analyze(
        tmp_path,
        {
            "pkg/core/registry.py": (
                "import threading\n"
                "_REGISTRY = {}\n"
                "_LOCK = threading.Lock()\n"
                "def register(name, obj):\n"
                "    with _LOCK:\n"
                "        _REGISTRY[name] = obj\n"
            )
        },
    )
    assert rule_hits(result, "shared-mutable-state") == []


def test_global_rebind_flagged(tmp_path):
    result = analyze(
        tmp_path,
        {
            "pkg/core/state.py": (
                "_current = None\n"
                "def set_current(x):\n"
                "    global _current\n"
                "    _current = x\n"
            )
        },
    )
    (finding,) = rule_hits(result, "shared-mutable-state")
    assert "rebinds" in finding.message


def test_fork_unsafety_flags_import_time_rng_and_handle(tmp_path):
    result = analyze(
        tmp_path,
        {
            "pkg/core/unsafe.py": (
                "from numpy.random import default_rng\n"
                "RNG = default_rng(0)\n"
                "LOG = open('log.txt', 'a')\n"
            )
        },
    )
    messages = [f.message for f in rule_hits(result, "fork-unsafety")]
    assert any("RNG" in m and "same stream" in m for m in messages)
    assert any("LOG" in m and "descriptor" in m for m in messages)


def test_unpicklable_target_flagged(tmp_path):
    result = analyze(
        tmp_path,
        {
            "pkg/core/workers.py": (
                "from multiprocessing import Process\n"
                "def launch():\n"
                "    def job():\n"
                "        return 1\n"
                "    Process(target=job).start()\n"
            )
        },
    )
    (finding,) = rule_hits(result, "unpicklable-target")
    assert "nested-function" in finding.message
    assert "pickled" in finding.message


# -- signal handlers --------------------------------------------------------


def test_signal_handler_blocking_call_flagged(tmp_path):
    result = analyze(
        tmp_path,
        {
            "pkg/cli/daemon.py": (
                "import signal\n"
                "import time\n"
                "def handler(signum, frame):\n"
                "    time.sleep(1)\n"
                "def install():\n"
                "    signal.signal(signal.SIGTERM, handler)\n"
            )
        },
    )
    (finding,) = rule_hits(result, "signal-handler")
    assert "blocking 'sleep'" in finding.message
    assert "SIGTERM" in finding.message
    assert finding.line == 4


def test_signal_handler_nonreentrant_method_handler_flagged(tmp_path):
    result = analyze(
        tmp_path,
        {
            "pkg/cli/daemon.py": (
                "import signal\n"
                "import logging\n"
                "logger = logging.getLogger(__name__)\n"
                "class Svc:\n"
                "    def _on_signal(self, signum, frame):\n"
                "        print('caught')\n"
                "        logger.info('caught')\n"
                "    def install(self):\n"
                "        signal.signal(signal.SIGTERM, self._on_signal)\n"
            )
        },
    )
    hits = rule_hits(result, "signal-handler")
    messages = " | ".join(f.message for f in hits)
    assert "non-reentrant 'print'" in messages
    assert "non-reentrant 'info'" in messages
    assert all("Svc._on_signal" in f.message for f in hits)


def test_signal_handler_inline_lambda_flagged(tmp_path):
    result = analyze(
        tmp_path,
        {
            "pkg/cli/daemon.py": (
                "import signal\n"
                "import time\n"
                "def install():\n"
                "    signal.signal(signal.SIGINT, "
                "lambda s, f: time.sleep(5))\n"
            )
        },
    )
    (finding,) = rule_hits(result, "signal-handler")
    assert "inline lambda" in finding.message
    assert "blocking 'sleep'" in finding.message


def test_signal_handler_flag_setter_is_clean(tmp_path):
    # The sanctioned shape: the handler only sets an Event; join/sleep
    # elsewhere in the module (and str.join anywhere) must not trip it.
    result = analyze(
        tmp_path,
        {
            "pkg/cli/daemon.py": (
                "import signal\n"
                "import threading\n"
                "class Svc:\n"
                "    def __init__(self):\n"
                "        self._stop = threading.Event()\n"
                "    def _on_signal(self, signum, frame):\n"
                "        self._stop.set()\n"
                "    def install(self):\n"
                "        signal.signal(signal.SIGTERM, self._on_signal)\n"
                "    def banner(self):\n"
                "        return ', '.join(['a', 'b'])\n"
                "    def run(self, worker):\n"
                "        worker.join()\n"
            )
        },
    )
    assert rule_hits(result, "signal-handler") == []


def test_signal_handler_dispositions_ignored(tmp_path):
    result = analyze(
        tmp_path,
        {
            "pkg/cli/daemon.py": (
                "import signal\n"
                "def install():\n"
                "    signal.signal(signal.SIGINT, signal.SIG_IGN)\n"
                "    signal.signal(signal.SIGTERM, signal.SIG_DFL)\n"
            )
        },
    )
    assert rule_hits(result, "signal-handler") == []


# -- hot loops --------------------------------------------------------------

HOT_LOOP_SRC = (
    "import numpy as np\n"
    "def process(signal: np.ndarray):\n"
    "    total = 0.0\n"
    "    for value in signal:\n"
    "        total = total + float(value)\n"
    "    return total\n"
)


def test_hot_loop_flagged_in_hot_module(tmp_path):
    result = analyze(tmp_path, {"pkg/core/dsp.py": HOT_LOOP_SRC})
    (finding,) = rule_hits(result, "hot-loop")
    assert "'signal'" in finding.message
    assert finding.line == 4


def test_hot_loop_ignored_outside_hot_modules(tmp_path):
    result = analyze(tmp_path, {"pkg/cli/report.py": HOT_LOOP_SRC})
    assert rule_hits(result, "hot-loop") == []


def test_hot_loop_ignores_non_array_iteration(tmp_path):
    result = analyze(
        tmp_path,
        {
            "pkg/core/meta.py": (
                "def names(items):\n"
                "    out = []\n"
                "    for item in items:\n"
                "        out.append(item.name)\n"
                "    return out\n"
            )
        },
    )
    assert rule_hits(result, "hot-loop") == []


# -- suppression of cross findings ------------------------------------------


def test_inline_suppression_silences_cross_finding(tmp_path):
    suppressed_src = HOT_LOOP_SRC.replace(
        "    for value in signal:\n",
        "    for value in signal:  # emlint: disable=hot-loop\n",
    )
    result = analyze(tmp_path, {"pkg/core/dsp.py": suppressed_src})
    assert rule_hits(result, "hot-loop") == []
    assert result.suppressed_count == 1


# -- layer map ---------------------------------------------------------------


def test_longest_prefix_wins():
    config = DEFAULT_LAYER_CONFIG
    assert config.layer_of("repro.core.detect") == "core"
    # repro.obs.trace is carved out of repro.obs by the longer prefix.
    assert config.layer_of("repro.obs.trace") == "obs-api"
    assert config.layer_of("repro.obs.metrics") == "obs-api"
    assert config.layer_of("repro.obs.dashboard") == "obs-internal"
    assert config.layer_of("repro.obs.ledger") == "obs-internal"


def test_import_graph_edges_resolve_submodules(tmp_path):
    root = write_tree(
        tmp_path,
        {
            "pkg/core/a.py": "from .b import thing\nfrom ..cli import main\n",
            "pkg/core/b.py": "thing = 1\n",
            "pkg/cli/__init__.py": "def main():\n    return 0\n",
        },
    )
    result = analyze_paths([root], rules=[], layers=LAYERS)
    assert result.findings == []  # graph building alone yields nothing
    from repro.devtools.engine import _check_file, iter_python_files

    facts = [_check_file(path, [], True)[1] for path in iter_python_files([root])]
    modules = {f.module: f for f in facts}
    graph = build_import_graph(modules)
    assert graph["pkg.core.a"] == {"pkg.core.b", "pkg.cli"}
