"""Unit tests for phase 1 of the whole-program analyzer: fact extraction."""

import ast

from repro.devtools.facts import (
    ModuleFacts,
    extract_facts,
    module_name_for,
    _resolve_relative,
)


def facts_of(source: str, module: str = "pkg.mod", **kw) -> ModuleFacts:
    return extract_facts(ast.parse(source), module=module, path="pkg/mod.py", **kw)


# -- imports ----------------------------------------------------------------


def test_module_level_vs_deferred_imports():
    facts = facts_of(
        "import json\n"
        "def f():\n"
        "    import numpy\n"
    )
    by_target = {i.target: i for i in facts.imports}
    assert by_target["json"].module_level
    assert not by_target["numpy"].module_level


def test_class_body_imports_count_as_module_level():
    facts = facts_of("class C:\n    import os\n")
    (imp,) = facts.imports
    assert imp.module_level


def test_relative_import_resolution_plain_module():
    # In pkg.sub.mod: `from ..other import x` -> pkg.other
    assert _resolve_relative("pkg.sub.mod", 2, "other") == "pkg.other"
    assert _resolve_relative("pkg.sub.mod", 1, "sib") == "pkg.sub.sib"
    assert _resolve_relative("pkg.sub.mod", 1, None) == "pkg.sub"


def test_relative_import_resolution_package_init():
    # In pkg/sub/__init__.py (module "pkg.sub"): `.x` is pkg.sub.x.
    assert _resolve_relative("pkg.sub", 1, "x", is_package=True) == "pkg.sub.x"
    assert _resolve_relative("pkg.sub", 2, "x", is_package=True) == "pkg.x"


def test_from_import_records_names():
    facts = facts_of("from .sibling import a, b\n", module="pkg.mod")
    (imp,) = facts.imports
    assert imp.target == "pkg.sibling"
    assert imp.names == ("a", "b")


def test_module_name_for_walks_packages(tmp_path):
    pkg = tmp_path / "pkg" / "sub"
    pkg.mkdir(parents=True)
    (tmp_path / "pkg" / "__init__.py").write_text("")
    (pkg / "__init__.py").write_text("")
    (pkg / "mod.py").write_text("")
    assert module_name_for(pkg / "mod.py") == "pkg.sub.mod"
    assert module_name_for(pkg / "__init__.py") == "pkg.sub"
    assert module_name_for(tmp_path / "standalone.py") == "standalone"


# -- module-level globals ---------------------------------------------------


def test_global_classification():
    facts = facts_of(
        "import threading\n"
        "CACHE = {}\n"
        "ITEMS = list()\n"
        "LOCK = threading.Lock()\n"
        "RNG = default_rng(0)\n"
        "LOG = open('x.log')\n"
        "LIMIT = 7\n"
    )
    kinds = {g.name: g.kind for g in facts.globals}
    assert kinds["CACHE"] == "mutable"
    assert kinds["ITEMS"] == "mutable"
    assert kinds["LOCK"] == "lock"
    assert kinds["RNG"] == "rng"
    assert kinds["LOG"] == "handle"
    assert kinds["LIMIT"] == "other"


# -- function summaries -----------------------------------------------------


def test_mutation_and_global_rebind_recorded():
    facts = facts_of(
        "CACHE = {}\n"
        "COUNT = 0\n"
        "def put(k, v):\n"
        "    CACHE[k] = v\n"
        "def bump():\n"
        "    global COUNT\n"
        "    COUNT = COUNT + 1\n"
    )
    put = next(f for f in facts.functions if f.qualname == "put")
    (mutation,) = put.mutations
    assert mutation.name == "CACHE"
    assert mutation.how == "subscript"
    assert not mutation.locked
    bump = next(f for f in facts.functions if f.qualname == "bump")
    assert ("COUNT", 7) in bump.global_rebinds


def test_mutation_under_module_lock_is_marked_locked():
    facts = facts_of(
        "import threading\n"
        "CACHE = {}\n"
        "LOCK = threading.Lock()\n"
        "def put(k, v):\n"
        "    with LOCK:\n"
        "        CACHE[k] = v\n"
    )
    (mutation,) = facts.functions[0].mutations
    assert mutation.locked


def test_mutating_method_call_recorded():
    facts = facts_of(
        "ITEMS = []\n"
        "def add(x):\n"
        "    ITEMS.append(x)\n"
    )
    (mutation,) = facts.functions[0].mutations
    assert mutation.how == "call:append"


def test_local_shadow_not_recorded():
    facts = facts_of(
        "def f():\n"
        "    local = {}\n"
        "    local['k'] = 1\n"
    )
    assert facts.functions[0].mutations == ()


def test_loop_shapes_over_arrays():
    facts = facts_of(
        "import numpy as np\n"
        "def f(sig: np.ndarray):\n"
        "    arr = np.asarray(sig)\n"
        "    for v in arr:\n"
        "        pass\n"
        "    for i in range(len(arr)):\n"
        "        pass\n"
        "    for i, v in enumerate(arr):\n"
        "        pass\n"
        "    for i in range(10):\n"
        "        x = arr[i]\n"
        "    for item in [1, 2]:\n"
        "        pass\n"
    )
    loops = facts.functions[0].loops
    assert [l.iterates for l in loops] == [
        "array",
        "range_len_array",
        "enumerate_array",
        "range",
        "other",
    ]
    assert loops[3].subscripts_array
    assert not loops[4].subscripts_array


def test_process_targets_flag_lambda_and_nested():
    facts = facts_of(
        "def run(pool, executor):\n"
        "    def inner(x):\n"
        "        return x\n"
        "    pool.map(lambda x: x, [1])\n"
        "    executor.submit(inner, 1)\n"
        "    Process(target=inner).start()\n"
    )
    problems = {(t.api, t.problem) for t in facts.functions[0].process_targets}
    assert ("pool.map", "lambda") in problems
    assert ("executor.submit", "nested-function") in problems
    assert ("Process(target=...)", "nested-function") in problems


def test_plain_map_builtin_not_flagged():
    facts = facts_of(
        "def run(items):\n"
        "    return list(map(lambda x: x, items))\n"
    )
    assert facts.functions[0].process_targets == ()


# -- signal registrations and special calls ---------------------------------


def test_signal_registration_facts_extracted():
    facts = facts_of(
        "import signal, time\n"
        "def handler(s, f):\n"
        "    time.sleep(1)\n"
        "    print('bye')\n"
        "def install(svc):\n"
        "    signal.signal(signal.SIGTERM, handler)\n"
        "    signal.signal(signal.SIGINT, svc.on_signal)\n"
        "    signal.signal(signal.SIGHUP, signal.SIG_IGN)\n"
    )
    fns = {f.qualname: f for f in facts.functions}
    regs = fns["install"].signal_registrations
    # SIG_IGN is a disposition, not a handler: two registrations only.
    assert [(r.signal_name, r.handler, r.handler_kind) for r in regs] == [
        ("SIGTERM", "handler", "name"),
        ("SIGINT", "on_signal", "attribute"),
    ]
    assert ("sleep", 3) in fns["handler"].blocking_calls
    assert ("print", 4) in fns["handler"].nonreentrant_calls


def test_inline_lambda_handler_scanned_at_registration():
    facts = facts_of(
        "import signal, time\n"
        "def install():\n"
        "    signal.signal(signal.SIGTERM, lambda s, f: time.sleep(9))\n"
    )
    (reg,) = facts.functions[0].signal_registrations
    assert reg.handler_kind == "lambda"
    assert reg.inline_blocking == (("sleep", 3),)
    assert reg.inline_nonreentrant == ()


def test_str_join_is_not_a_blocking_call():
    facts = facts_of(
        "def fmt(parts):\n"
        "    return ', '.join(parts)\n"
    )
    assert facts.functions[0].blocking_calls == ()


def test_logging_calls_are_nonreentrant_only_on_logging_receivers():
    facts = facts_of(
        "def f(logger, cursor):\n"
        "    logger.warning('x')\n"
        "    cursor.execute('y')\n"
        "    info = cursor.info('z')\n"
    )
    calls = facts.functions[0].nonreentrant_calls
    assert ("warning", 2) in calls
    # `cursor.info` is not a logger; receiver-name heuristic holds.
    assert all(name != "info" for name, _ in calls)
