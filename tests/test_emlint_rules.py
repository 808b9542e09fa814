"""Unit tests for each emlint rule: positive, negative, and suppressed
snippets, plus the engine's suppression parsing and the JSON reporter
shape."""

import json

import pytest

from repro.devtools.engine import lint_source
from repro.devtools.reporters import JSON_FORMAT_VERSION, render_json, render_text
from repro.devtools.rules import (
    ConfigImmutabilityRule,
    DeterminismRule,
    FloatEqualityRule,
    MutableDefaultArgRule,
    ObsEventSchemaRule,
    SilentExceptRule,
    UnitSafetyRule,
    rules_by_name,
)


def findings(source, rule_cls):
    return lint_source(source, rules=[rule_cls()]).findings


def names(source, rule_cls):
    return [f.rule for f in findings(source, rule_cls)]


# -- unit-safety -------------------------------------------------------------


class TestUnitSafety:
    def test_flags_addition_across_domains(self):
        found = findings("x = duration_cycles + gap_samples\n", UnitSafetyRule)
        assert len(found) == 1
        assert "cycles" in found[0].message and "samples" in found[0].message

    def test_flags_subtraction_of_seconds_from_cycles(self):
        assert names("d = end_cycle - start_s\n", UnitSafetyRule)

    def test_flags_comparison_across_domains(self):
        assert names(
            "ok = duration_samples < cfg.min_duration_cycles\n", UnitSafetyRule
        )

    def test_flags_attribute_operands(self):
        assert names(
            "y = cfg.min_duration_cycles - cfg.merge_gap_samples\n",
            UnitSafetyRule,
        )

    def test_allows_same_domain(self):
        assert not names("d = end_cycle - begin_cycle\n", UnitSafetyRule)
        assert not names(
            "ok = duration_cycles >= cfg.refresh_min_cycles\n", UnitSafetyRule
        )

    def test_allows_multiplicative_conversion(self):
        assert not names(
            "c = duration_samples * period_cycles\n", UnitSafetyRule
        )

    def test_allows_explicit_conversion_call(self):
        assert not names(
            "t = to_cycles(duration_samples) + begin_cycle\n", UnitSafetyRule
        )

    def test_allows_unitless_operands(self):
        assert not names("n = end - start\n", UnitSafetyRule)

    def test_bare_single_letter_not_a_unit(self):
        # `s` is a loop variable, not seconds.
        assert not names("x = s + begin_cycle\n", UnitSafetyRule)

    def test_distinguishes_time_scales(self):
        assert names("t = delay_us + delay_ms\n", UnitSafetyRule)

    def test_nested_additions_propagate_units(self):
        assert names(
            "t = (begin_cycle + end_cycle) - total_samples\n", UnitSafetyRule
        )


# -- determinism -------------------------------------------------------------


class TestDeterminism:
    def test_flags_global_numpy_rng(self):
        src = "import numpy as np\nx = np.random.rand(10)\n"
        assert names(src, DeterminismRule)

    def test_flags_numpy_seed(self):
        src = "import numpy as np\nnp.random.seed(0)\n"
        assert names(src, DeterminismRule)

    def test_flags_stdlib_random_import(self):
        assert names("import random\n", DeterminismRule)
        assert names("from random import choice\n", DeterminismRule)

    def test_flags_from_numpy_random_global_fn(self):
        assert names("from numpy.random import uniform\n", DeterminismRule)

    def test_allows_default_rng_and_generator(self):
        src = (
            "import numpy as np\n"
            "def f(rng: np.random.Generator):\n"
            "    return rng.normal(0.0, 1.0)\n"
            "g = np.random.default_rng(7)\n"
        )
        assert not names(src, DeterminismRule)

    def test_allows_seed_sequence_spawning(self):
        src = "import numpy as np\nss = np.random.SeedSequence(1)\n"
        assert not names(src, DeterminismRule)

    def test_tracks_import_alias(self):
        src = "import numpy.random as npr\nx = npr.standard_normal(3)\n"
        assert names(src, DeterminismRule)

    def test_unrelated_random_attribute_untouched(self):
        # `.random` on a non-numpy object is someone else's business.
        assert not names("x = workload.random.thing\n", DeterminismRule)


# -- config-immutability -----------------------------------------------------


class TestConfigImmutability:
    def test_flags_unfrozen_config_dataclass(self):
        src = (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class FooConfig:\n"
            "    x: int = 1\n"
        )
        found = findings(src, ConfigImmutabilityRule)
        assert len(found) == 1
        assert "FooConfig" in found[0].message

    def test_flags_frozen_false(self):
        src = (
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=False)\n"
            "class FooConfig:\n"
            "    x: int = 1\n"
        )
        assert names(src, ConfigImmutabilityRule)

    def test_allows_frozen_config(self):
        src = (
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True)\n"
            "class FooConfig:\n"
            "    x: int = 1\n"
        )
        assert not names(src, ConfigImmutabilityRule)

    def test_non_config_dataclass_unconstrained(self):
        src = (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class MissRecord:\n"
            "    addr: int = 0\n"
        )
        assert not names(src, ConfigImmutabilityRule)

    def test_flags_config_mutation(self):
        assert names("cfg.threshold = 0.2\n", ConfigImmutabilityRule)
        assert names(
            "self.config.window_samples = 5\n", ConfigImmutabilityRule
        )
        assert names("detector_config.gap += 1\n", ConfigImmutabilityRule)

    def test_allows_storing_a_config(self):
        # Assigning a config *to* an attribute is construction, not mutation.
        assert not names("self.config = cfg\n", ConfigImmutabilityRule)


# -- float-equality ----------------------------------------------------------


class TestFloatEquality:
    def test_flags_float_literal_comparison(self):
        assert names("ok = scale != 1.0\n", FloatEqualityRule)
        assert names("ok = x == 0.5\n", FloatEqualityRule)

    def test_flags_float_call_operand(self):
        assert names("ok = float(a) == b\n", FloatEqualityRule)

    def test_flags_float_annotated_parameter(self):
        src = "def f(a: float, b):\n    return a == b\n"
        assert names(src, FloatEqualityRule)

    def test_flags_name_assigned_from_float_call(self):
        src = "def f(xs):\n    a = float(xs[0])\n    return a == xs[1]\n"
        assert names(src, FloatEqualityRule)

    def test_allows_integer_comparison(self):
        assert not names("ok = n == 0\n", FloatEqualityRule)
        assert not names("ok = kind == COMPUTE\n", FloatEqualityRule)

    def test_allows_float_inequalities(self):
        assert not names("ok = x <= 0.0\n", FloatEqualityRule)
        assert not names("ok = 0.0 <= frac <= 1.0\n", FloatEqualityRule)


# -- mutable-default-arg -----------------------------------------------------


class TestMutableDefaultArg:
    def test_flags_list_dict_set_literals(self):
        assert names("def f(a=[]):\n    pass\n", MutableDefaultArgRule)
        assert names("def f(a={}):\n    pass\n", MutableDefaultArgRule)
        assert names("def f(a={1}):\n    pass\n", MutableDefaultArgRule)

    def test_flags_factory_calls(self):
        assert names("def f(a=list()):\n    pass\n", MutableDefaultArgRule)
        assert names("def f(a=dict()):\n    pass\n", MutableDefaultArgRule)

    def test_flags_keyword_only_default(self):
        assert names("def f(*, a=[]):\n    pass\n", MutableDefaultArgRule)

    def test_allows_none_and_immutable_defaults(self):
        assert not names(
            "def f(a=None, b=0, c=(), d='x'):\n    pass\n",
            MutableDefaultArgRule,
        )


# -- silent-except -----------------------------------------------------------


class TestSilentExcept:
    def test_flags_bare_except_even_with_real_body(self):
        src = (
            "try:\n"
            "    work()\n"
            "except:\n"
            "    handle()\n"
        )
        assert names(src, SilentExceptRule) == ["silent-except"]

    def test_flags_broad_pass(self):
        src = (
            "try:\n"
            "    work()\n"
            "except Exception:\n"
            "    pass\n"
        )
        assert names(src, SilentExceptRule) == ["silent-except"]

    def test_flags_base_exception_ellipsis(self):
        src = (
            "try:\n"
            "    work()\n"
            "except BaseException:\n"
            "    ...\n"
        )
        assert names(src, SilentExceptRule) == ["silent-except"]

    def test_flags_qualified_broad_pass(self):
        src = (
            "import builtins\n"
            "try:\n"
            "    work()\n"
            "except builtins.Exception:\n"
            "    pass\n"
        )
        assert names(src, SilentExceptRule) == ["silent-except"]

    def test_allows_broad_handler_that_acts(self):
        src = (
            "try:\n"
            "    work()\n"
            "except Exception as exc:\n"
            "    raise RuntimeError('wrapped') from exc\n"
        )
        assert not names(src, SilentExceptRule)

    def test_allows_specific_pass(self):
        src = (
            "try:\n"
            "    work()\n"
            "except FileNotFoundError:\n"
            "    pass\n"
        )
        assert not names(src, SilentExceptRule)

    def test_suppression_comment(self):
        src = (
            "try:\n"
            "    work()\n"
            "except Exception:  # emlint: disable=silent-except\n"
            "    pass\n"
        )
        assert not names(src, SilentExceptRule)


# -- obs-event-schema --------------------------------------------------------


class TestObsEventSchema:
    def test_flags_constructor_without_schema_version(self):
        src = "e = FlightEvent(kind='gap', pos=1.0)\n"
        found = findings(src, ObsEventSchemaRule)
        assert [f.rule for f in found] == ["obs-event-schema"]
        assert "schema_version" in found[0].message

    def test_flags_qualified_constructor(self):
        src = (
            "from repro.obs import flight\n"
            "e = flight.FlightEvent(kind='gap', pos=1.0)\n"
        )
        assert names(src, ObsEventSchemaRule) == ["obs-event-schema"]

    def test_flags_positional_schema_version(self):
        # Positional passing is implicit ordering, not a pinned schema.
        src = "e = FlightEvent(1, 'gap', 2.0)\n"
        assert names(src, ObsEventSchemaRule) == ["obs-event-schema"]

    def test_allows_explicit_keyword(self):
        src = (
            "e = FlightEvent(schema_version=FLIGHT_SCHEMA_VERSION,\n"
            "                kind='gap', pos=1.0)\n"
        )
        assert not names(src, ObsEventSchemaRule)

    def test_allows_kwargs_expansion(self):
        src = "e = FlightEvent(**payload)\n"
        assert not names(src, ObsEventSchemaRule)

    def test_ignores_classmethod_alternates(self):
        src = "e = FlightEvent.from_dict(payload)\n"
        assert not names(src, ObsEventSchemaRule)

    def test_ignores_unrelated_calls(self):
        src = "e = Event(kind='heartbeat')\n"
        assert not names(src, ObsEventSchemaRule)

    def test_repo_sources_are_clean(self):
        # Every real constructor site in the repo pins its version.
        import pathlib

        root = pathlib.Path(__file__).resolve().parents[1] / "src"
        for path in sorted(root.rglob("*.py")):
            result = lint_source(
                path.read_text(), rules=[ObsEventSchemaRule()], path=str(path)
            )
            assert not result.findings, result.findings


# -- suppression -------------------------------------------------------------


class TestSuppression:
    def test_trailing_comment_suppresses_named_rule(self):
        src = "ok = scale != 1.0  # emlint: disable=float-equality\n"
        result = lint_source(src, rules=[FloatEqualityRule()])
        assert result.findings == []
        assert result.suppressed_count == 1

    def test_standalone_comment_covers_next_line(self):
        src = (
            "# emlint: disable=float-equality\n"
            "ok = scale != 1.0\n"
        )
        result = lint_source(src, rules=[FloatEqualityRule()])
        assert result.findings == []
        assert result.suppressed_count == 1

    def test_disable_all(self):
        src = "import random  # emlint: disable=all\n"
        assert lint_source(src, rules=[DeterminismRule()]).findings == []

    def test_other_rule_name_does_not_suppress(self):
        src = "ok = scale != 1.0  # emlint: disable=determinism\n"
        assert lint_source(src, rules=[FloatEqualityRule()]).findings

    def test_suppression_is_line_scoped(self):
        src = (
            "a = scale != 1.0  # emlint: disable=float-equality\n"
            "b = scale != 2.0\n"
        )
        result = lint_source(src, rules=[FloatEqualityRule()])
        assert len(result.findings) == 1
        assert result.findings[0].line == 2


# -- reporters ---------------------------------------------------------------


class TestReporters:
    def test_json_shape(self):
        src = "def f(a=[]):\n    return a == 1.0\n"
        result = lint_source(src, path="snippet.py")
        payload = json.loads(render_json(result))
        assert payload["version"] == JSON_FORMAT_VERSION
        assert payload["files_checked"] == 1
        assert payload["finding_count"] == len(payload["findings"]) == 2
        assert payload["suppressed_count"] == 0
        for entry in payload["findings"]:
            assert set(entry) == {"path", "line", "col", "rule", "message"}
            assert entry["path"] == "snippet.py"
            assert entry["line"] >= 1 and entry["col"] >= 1

    def test_text_format_has_file_line_diagnostics(self):
        src = "import random\n"
        result = lint_source(src, path="mod.py")
        text = render_text(result)
        assert "mod.py:1:1: determinism:" in text
        assert "1 finding" in text

    def test_findings_sorted_by_position(self):
        src = "b = y == 2.0\na = x == 1.0\n"
        result = lint_source(src)
        assert [f.line for f in result.findings] == [1, 2]


def test_rules_by_name_roundtrip():
    # one lookup serves per-file and cross-module rules alike
    rules = rules_by_name(["determinism", "hot-loop", "unit-safety"])
    assert [r.name for r in rules] == ["determinism", "hot-loop", "unit-safety"]
    with pytest.raises(KeyError):
        rules_by_name(["nope"])
