"""Unit tests for report persistence and baseline comparison."""

from __future__ import annotations

import json

import pytest

from repro.core.evaluator import Sosae
from repro.core.mapping import Mapping
from repro.core.report_io import (
    compare_reports,
    indent2_json,
    report_from_json,
    report_to_dict,
    report_to_json,
)
from repro.errors import SerializationError
from repro.systems.crash import build_crash_mapping
from repro.systems.generators import SyntheticSpec, build_synthetic


def evaluate(scenarios, architecture, mapping):
    return Sosae(scenarios, architecture, mapping).evaluate()


class TestPersistence:
    def test_roundtrip_preserves_outcomes(
        self, small_scenarios, chain_architecture, chain_mapping
    ):
        report = evaluate(small_scenarios, chain_architecture, chain_mapping)
        restored = report_from_json(report_to_json(report))
        assert restored.architecture == report.architecture
        assert restored.consistent == report.consistent
        assert restored.passed_scenarios == report.passed_scenarios
        assert restored.failed_scenarios == report.failed_scenarios

    def test_roundtrip_preserves_findings_and_steps(
        self, small_scenarios, chain_architecture, chain_mapping
    ):
        chain_architecture.excise_links_between("logic", "logic-store")
        report = evaluate(small_scenarios, chain_architecture, chain_mapping)
        restored = report_from_json(report_to_json(report))
        original = {str(f) for f in report.all_inconsistencies()}
        recovered = {str(f) for f in restored.all_inconsistencies()}
        assert original == recovered
        verdict = restored.verdict("make-widget")
        assert verdict.traces[0].steps[0].event_rendering

    def test_dynamic_verdicts_survive_without_traces(self, crash):
        from repro.sim.network import ChannelPolicy
        from repro.sim.runtime import RuntimeConfig

        report = Sosae(
            crash.scenarios,
            crash.architecture,
            crash.mapping,
            bindings=crash.bindings,
            walkthrough_options=crash.options,
            runtime_config=RuntimeConfig(
                policy=ChannelPolicy(latency=1.0, failure_detection=True)
            ),
        ).evaluate(include_dynamic=True)
        restored = report_from_json(report_to_json(report))
        assert len(restored.dynamic_verdicts) == len(report.dynamic_verdicts)
        assert restored.consistent == report.consistent
        assert "[stored]" in restored.dynamic_verdicts[0].render()

    def test_negative_verdict_polarity_survives(
        self, small_ontology, chain_architecture, chain_mapping
    ):
        from repro.scenarioml.events import TypedEvent
        from repro.scenarioml.scenario import (
            Scenario,
            ScenarioKind,
            ScenarioSet,
        )

        scenarios = ScenarioSet(small_ontology)
        scenarios.add(
            Scenario(
                name="forbidden",
                kind=ScenarioKind.NEGATIVE,
                events=(
                    TypedEvent(type_name="create", arguments={"subject": "x"}),
                ),
            )
        )
        report = evaluate(scenarios, chain_architecture, chain_mapping)
        restored = report_from_json(report_to_json(report))
        verdict = restored.verdict("forbidden")
        assert verdict.negative
        assert verdict.passed == report.verdict("forbidden").passed

    def test_malformed_json_rejected(self):
        with pytest.raises(SerializationError):
            report_from_json("{not json")

    def test_wrong_format_version_rejected(self):
        with pytest.raises(SerializationError):
            report_from_json('{"format": 99, "architecture": "x"}')

    def test_unknown_kind_rejected(self):
        text = (
            '{"format": 1, "architecture": "x", "scenario_verdicts": [], '
            '"findings": [{"kind": "weird", "message": "m"}]}'
        )
        with pytest.raises(SerializationError):
            report_from_json(text)


class TestComparison:
    def test_no_changes(self, small_scenarios, chain_architecture, chain_mapping):
        report = evaluate(small_scenarios, chain_architecture, chain_mapping)
        comparison = compare_reports(report, report)
        assert comparison.clean
        assert comparison.summary() == "no verdict changes"

    def test_regression_detected(
        self, small_scenarios, chain_architecture, chain_mapping
    ):
        baseline = evaluate(
            small_scenarios, chain_architecture, chain_mapping
        )
        broken = chain_architecture.clone("broken")
        broken.excise_links_between("logic", "logic-store")
        broken_mapping = Mapping.from_dict(
            chain_mapping.to_dict(), chain_mapping.ontology, broken
        )
        current = evaluate(small_scenarios, broken, broken_mapping)
        comparison = compare_reports(baseline, current)
        assert not comparison.clean
        assert "make-widget" in comparison.regressions
        assert "regressions" in comparison.summary()

    def test_fix_detected(
        self, small_scenarios, chain_architecture, chain_mapping
    ):
        broken = chain_architecture.clone("broken")
        broken.excise_links_between("logic", "logic-store")
        broken_mapping = Mapping.from_dict(
            chain_mapping.to_dict(), chain_mapping.ontology, broken
        )
        baseline = evaluate(small_scenarios, broken, broken_mapping)
        current = evaluate(
            small_scenarios, chain_architecture, chain_mapping
        )
        comparison = compare_reports(baseline, current)
        assert comparison.clean
        assert "make-widget" in comparison.fixes

    def test_new_and_removed_scenarios(
        self, small_scenarios, chain_architecture, chain_mapping
    ):
        baseline = evaluate(
            small_scenarios, chain_architecture, chain_mapping
        )
        from repro.scenarioml.events import TypedEvent
        from repro.scenarioml.scenario import Scenario

        small_scenarios.add(
            Scenario(
                name="fresh",
                events=(
                    TypedEvent(type_name="create", arguments={"subject": "x"}),
                ),
            )
        )
        current = evaluate(
            small_scenarios, chain_architecture, chain_mapping
        )
        comparison = compare_reports(baseline, current)
        assert comparison.new_scenarios == ("fresh",)
        reverse = compare_reports(current, baseline)
        assert reverse.removed_scenarios == ("fresh",)

    def test_pims_excision_regression_story(self, pims):
        baseline = Sosae(
            pims.scenarios,
            pims.architecture,
            pims.mapping,
            walkthrough_options=pims.options,
        ).evaluate()
        evolved = pims.excised_architecture()
        mapping = Mapping.from_dict(
            pims.mapping.to_dict(), pims.ontology, evolved
        )
        current = Sosae(
            pims.scenarios, evolved, mapping, walkthrough_options=pims.options
        ).evaluate()
        comparison = compare_reports(baseline, current)
        assert comparison.regressions == ("get-share-prices",)


def assert_stdlib_bytes(report):
    """``report_to_json`` writes exactly what the stdlib writes."""
    assert report_to_json(report) == json.dumps(
        report_to_dict(report), indent=2
    )


class TestIndent2Writer:
    @pytest.mark.parametrize("variant", ["intact", "excised"])
    def test_pims_with_constraints_and_options(self, pims, variant):
        architecture = (
            pims.excised_architecture()
            if variant == "excised"
            else pims.architecture
        )
        report = Sosae(
            pims.scenarios,
            architecture,
            pims.mapping.rebind(architecture),
            constraints=pims.constraints,
            walkthrough_options=pims.options,
        ).evaluate()
        assert report.consistent is (variant == "intact")
        assert_stdlib_bytes(report)

    @pytest.mark.parametrize("variant", ["intact", "insecure"])
    def test_crash(self, crash, variant):
        from repro.sim.network import ChannelPolicy
        from repro.sim.runtime import RuntimeConfig

        architecture = (
            crash.insecure_architecture()
            if variant == "insecure"
            else crash.architecture
        )
        report = Sosae(
            crash.scenarios,
            architecture,
            build_crash_mapping(crash.ontology, architecture),
            bindings=crash.bindings,
            walkthrough_options=crash.options,
            runtime_config=RuntimeConfig(
                policy=ChannelPolicy(latency=1.0, failure_detection=True)
            ),
        ).evaluate(include_dynamic=True)
        assert report.dynamic_verdicts
        assert_stdlib_bytes(report)

    @pytest.mark.parametrize("seed", range(5))
    def test_synthetic_seeds(self, seed):
        system = build_synthetic(SyntheticSpec(scenarios=40, seed=seed))
        assert_stdlib_bytes(
            Sosae(
                system.scenarios, system.architecture, system.mapping
            ).evaluate()
        )

    @pytest.mark.parametrize(
        "value",
        [
            {},
            [],
            (),
            {"a": {}, "b": [], "c": [[], {}], "d": [{}, [[]]]},
            [[[1, [2, {"x": []}]]], {"y": ({"z": ()},)}],
            ("tuple", ("nested",)),
            "caf\u00e9 \u2603 \U0001f600",
            'quote " backslash \\ slash /',
            "control \x00\x01\x1f \n\r\t\b\f \x7f",
            {"caf\u00e9\n\"key\"": "value"},
            2**80,
            -(2**70),
            [1e-7, 0.1, -0.0, 1e300, 3.0, float("nan"), float("inf")],
            [None, True, False, 0, 1],
            {"none": None, "yes": True, "no": False, "zero": 0},
            {1: "int", 2.5: "float", False: "bool", None: "null"},
            None,
            True,
            17,
        ],
    )
    def test_hand_built_values(self, value):
        assert indent2_json(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize(
        "value",
        [
            {"a": {1, 2}},
            [object()],
            b"bytes",
            {(1, 2): "tuple key"},
            {"deep": [{"x": [frozenset()]}]},
        ],
    )
    def test_what_the_stdlib_rejects_is_a_type_error(self, value):
        with pytest.raises(TypeError):
            json.dumps(value, indent=2)
        with pytest.raises(TypeError):
            indent2_json(value)

    def test_indent_is_fixed_at_two(
        self, small_scenarios, chain_architecture, chain_mapping
    ):
        report = evaluate(small_scenarios, chain_architecture, chain_mapping)
        assert report_to_json(report, 2) == report_to_json(report)
        with pytest.raises(ValueError, match="indent-2"):
            report_to_json(report, 4)
