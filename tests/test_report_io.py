"""Unit tests for report persistence and baseline comparison."""

from __future__ import annotations

import dataclasses
import gc
import json
import pickle

import pytest

from repro.core.consistency import (
    EvaluationReport,
    Inconsistency,
    InconsistencyKind,
    ScenarioVerdict,
    Severity,
    TraceWalkthrough,
    WalkthroughStep,
)
from repro.core.evaluator import Sosae
from repro.core.mapping import Mapping
from repro.core.report_io import (
    _PADS,
    StoredDynamicVerdict,
    _subtree,
    compare_reports,
    report_from_json,
    report_to_dict,
    report_to_json,
)
from repro.core.walkthrough import WalkthroughOptions
from repro.errors import SerializationError
from repro.scenarioml.scenario import ScenarioSet
from repro.obs.provenance import (
    EventContext,
    IndexQuery,
    MappingResolution,
    Provenance,
)
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


class TestKeptVerdictDocuments:
    def test_without_kept_every_call_builds_fresh_objects(
        self, small_scenarios, chain_architecture, chain_mapping
    ):
        report = evaluate(small_scenarios, chain_architecture, chain_mapping)
        expected = json.dumps(report_to_dict(report), sort_keys=True)
        first = report_to_dict(report)
        first["scenario_verdicts"][0]["traces"][0]["steps"][0]["ok"] = "x"
        first["scenario_verdicts"][1]["scenario"] = "mutated"
        first["findings"].append("mutated")
        second = report_to_dict(report)
        assert json.dumps(second, sort_keys=True) == expected
        assert all(
            a is not b
            for a, b in zip(
                first["scenario_verdicts"], second["scenario_verdicts"]
            )
        )

    def test_the_same_verdict_reuses_its_document(
        self, small_scenarios, chain_architecture, chain_mapping
    ):
        sosae = Sosae(small_scenarios, chain_architecture, chain_mapping)
        first, replayed = sosae.evaluate(), sosae.evaluate()
        assert all(
            a is b
            for a, b in zip(
                first.scenario_verdicts, replayed.scenario_verdicts
            )
        )
        kept: dict = {}
        before = report_to_dict(first, kept)
        after = report_to_dict(replayed, kept)
        assert after == report_to_dict(replayed)
        assert all(
            a is b
            for a, b in zip(
                before["scenario_verdicts"], after["scenario_verdicts"]
            )
        )

    def test_kept_holds_exactly_the_reports_verdicts(
        self, small_scenarios, chain_architecture, chain_mapping
    ):
        kept: dict = {}
        stale = evaluate(small_scenarios, chain_architecture, chain_mapping)
        report_to_dict(stale, kept)
        report = evaluate(small_scenarios, chain_architecture, chain_mapping)
        # Equal verdicts, but other objects: each is built anew.
        document = report_to_dict(report, kept)
        assert document == report_to_dict(report)
        assert kept.keys() == {id(v) for v in report.scenario_verdicts}
        assert all(
            kept[id(verdict)][0] is verdict
            and kept[id(verdict)][1] is built
            for verdict, built in zip(
                report.scenario_verdicts, document["scenario_verdicts"]
            )
        )


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


def nested(value, depth: int):
    """``value`` as the innermost element of ``depth`` nested lists."""
    for _ in range(depth):
        value = [value]
    return value


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
        # A free-form subtree's text at ``depth`` is the stdlib's text
        # of the same value standing at that depth of a document.
        for depth in (0, 1, 5):
            opening = "".join("[" + _PADS[d] for d in range(1, depth + 1))
            closing = "".join(_PADS[d] + "]" for d in reversed(range(depth)))
            assert opening + _subtree(value, depth) + closing == json.dumps(
                nested(value, depth), indent=2
            )

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
            _subtree(value, 3)

    @pytest.mark.parametrize("policy", ["error", "warn", "ignore"])
    def test_simple_and_unmapped_steps_under_each_policy(
        self, policy, small_ontology, small_scenarios, chain_architecture
    ):
        mapping = Mapping(small_ontology, chain_architecture)
        mapping.map_event("create", "logic", "store")  # the rest unmapped
        report = Sosae(
            small_scenarios,
            chain_architecture,
            mapping,
            walkthrough_options=WalkthroughOptions(
                unmapped_event_policy=policy, simple_event_policy=policy
            ),
        ).evaluate()
        steps = [
            step
            for verdict in report.scenario_verdicts
            for trace in verdict.traces
            for step in trace.steps
        ]
        placeless = [step for step in steps if not step.components]
        assert any(step.event_type is None for step in placeless)
        assert any(step.note == "unmapped event type" for step in placeless)
        assert {step.ok for step in placeless} == {policy != "error"}
        assert_stdlib_bytes(report)

    def test_hand_built_report_with_every_field_shape(self):
        report = _every_shape_report()
        assert_stdlib_bytes(report)
        assert report_from_json(report_to_json(report)) == report

    def test_empty_report(self):
        assert_stdlib_bytes(EvaluationReport("empty"))
        assert_stdlib_bytes(
            EvaluationReport(
                "no-traces", scenario_verdicts=(ScenarioVerdict("s", ()),)
            )
        )

    @pytest.mark.parametrize("seed", [0, 3])
    def test_eight_hundred_scenario_synthetic_report(self, seed):
        system = build_synthetic(
            SyntheticSpec(
                scenarios=800,
                events_per_scenario=8,
                components=15,
                event_types=60,
                components_per_event_type=3,
                reuse=1.0,
                seed=seed,
            )
        )
        report = Sosae(
            system.scenarios, system.architecture, system.mapping
        ).evaluate()
        assert len(report.scenario_verdicts) == 800
        assert_stdlib_bytes(report)

    @pytest.mark.parametrize(
        "fields",
        [
            {"path": ()},
            {"path": ("a",)},
            {"path": ("a", "link", "b"), "components": ("a", "b")},
            {"components": ()},
            {"components": ("only",)},
            {"event_label": None, "event_type": None},
            {"event_label": "caf\u00e9 \u2603 \U0001f600"},
            {"event_type": "control \x00\x01\x1f\n\t\x7f \"q\" \\"},
            {"components": ("50%", "%s", "%%", "%(x)s"), "note": "%d %"},
            {"path": ("\u00e9", "\x00", "%"), "note": "\u2603\n"},
            # Shapes outside str, None and tuples of str.
            {"event_label": 7},
            {"components": ("a", 1, None)},
        ],
    )
    def test_step_field_shapes(self, fields):
        values = dict(
            event_rendering="e",
            event_label="1",
            event_type="t",
            components=("a",),
            path=None,
            ok=True,
        )
        values.update(fields)
        step = WalkthroughStep(**values)
        report = EvaluationReport(
            "a",
            scenario_verdicts=(
                ScenarioVerdict(
                    "s", (TraceWalkthrough(0, (step, step), ()),)
                ),
            ),
        )
        assert_stdlib_bytes(report)

    @pytest.mark.parametrize(
        "field, values",
        [
            ("event_label", (1, True, 1.0)),
            ("event_label", (True, 1)),
            ("components", (("a", 1), ("a", True))),
            ("path", ((0,), (False,), (0.0,))),
        ],
    )
    def test_equal_field_values_of_different_types_keep_their_text(
        self, field, values
    ):
        # 1 == True == 1.0 and they hash alike, but JSON writes 1, true
        # and 1.0.
        fields = dict(
            event_rendering="e",
            event_label="l",
            event_type="t",
            components=("a",),
            path=None,
            ok=True,
        )
        steps = tuple(
            WalkthroughStep(**{**fields, field: value}) for value in values
        )
        report = EvaluationReport(
            "a",
            scenario_verdicts=(
                ScenarioVerdict("s", (TraceWalkthrough(0, steps, ()),)),
            ),
        )
        assert_stdlib_bytes(report)

    @pytest.mark.parametrize("source", ["synthetic", "hand-built"])
    def test_writing_without_findings_leaves_no_cyclic_garbage(
        self, source
    ):
        # The stdlib's indent encoder leaves a cycle of closures per
        # call; the writer never calls it.
        if source == "synthetic":
            system = build_synthetic(SyntheticSpec(scenarios=40, seed=0))
            report = Sosae(
                system.scenarios, system.architecture, system.mapping
            ).evaluate()
        else:
            every = _every_shape_report()
            report = EvaluationReport(
                "hand-built",
                scenario_verdicts=(
                    ScenarioVerdict(
                        "s", (every.scenario_verdicts[0].traces[0],)
                    ),
                ),
            )
        assert not report.findings and not report.dynamic_verdicts
        assert all(
            not verdict.inconsistencies
            and not any(trace.inconsistencies for trace in verdict.traces)
            for verdict in report.scenario_verdicts
        )
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            text = report_to_json(report)
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()
        assert text == json.dumps(report_to_dict(report), indent=2)

    @pytest.mark.parametrize(
        "source", ["pims", "pims-x40", "crash-dynamic", "hand-built"]
    )
    def test_writing_findings_leaves_no_cyclic_garbage(
        self, source, pims, crash
    ):
        report = _report_with_findings(source, pims, crash)
        assert report.all_inconsistencies()
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            text = report_to_json(report)
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()
        assert text == json.dumps(report_to_dict(report), indent=2)

    def test_indent_is_fixed_at_two(
        self, small_scenarios, chain_architecture, chain_mapping
    ):
        report = evaluate(small_scenarios, chain_architecture, chain_mapping)
        assert report_to_json(report, 2) == report_to_json(report)
        with pytest.raises(ValueError, match="indent-2"):
            report_to_json(report, 4)


_ODD = "caf\u00e9 \u2603 \U0001f600 \"q\" \\ \x00\x01\x1f\n\t\x7f %s %%"


def _provenance(label: str) -> Provenance:
    return Provenance(
        conclusion=f"no path {_ODD} ({label})",
        event=EventContext(
            scenario="s", trace_index=0, event_index=1, event_label=label,
            event_rendering=_ODD,
        ),
        resolution=MappingResolution(
            event_type="t", hops=("t", "super"), entry_components=("a",),
            components=("a",),
        ),
        queries=(
            IndexQuery(
                operation="best_path_between", sources=("a",),
                targets=("b",), found=False,
            ),
        ),
        notes=("first", _ODD),
    )


def _finding(label: str, provenance: bool = True, **fields) -> Inconsistency:
    return Inconsistency(
        kind=fields.pop("kind", InconsistencyKind.MISSING_LINK),
        message=f"{label}: {_ODD}",
        scenario=fields.pop("scenario", "s"),
        event_label=label,
        elements=("a", _ODD),
        provenance=_provenance(label) if provenance else None,
        **fields,
    )


def _report_with_findings(source: str, pims, crash) -> EvaluationReport:
    """PIMS excised (alone, or with 39 renamed replicas of its
    scenarios), CRASH insecure with its dynamic verdicts, or the
    hand-built report of every shape."""
    if source == "hand-built":
        return _every_shape_report()
    if source == "crash-dynamic":
        from repro.sim.network import ChannelPolicy
        from repro.sim.runtime import RuntimeConfig

        architecture = crash.insecure_architecture()
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
        return report
    architecture = pims.excised_architecture()
    scenarios = pims.scenarios
    if source == "pims-x40":
        scenarios = ScenarioSet(pims.ontology, name="pims-x40")
        scenarios.extend(pims.scenarios)
        for index in range(1, 40):
            scenarios.extend(
                dataclasses.replace(scenario, name=f"{scenario.name}+r{index}")
                for scenario in pims.scenarios
                if scenario.alternative_of is None
            )
    return Sosae(
        scenarios,
        architecture,
        pims.mapping.rebind(architecture),
        constraints=pims.constraints,
        walkthrough_options=pims.options,
    ).evaluate()


def _every_shape_report() -> EvaluationReport:
    """A report whose steps, verdicts and findings take every shape the
    template writer distinguishes."""

    def step(label, **fields):
        values = dict(
            event_rendering=f"event {label} {_ODD}",
            event_label=label,
            event_type=f"type-{label}",
            components=("a", "b"),
            path=None,
            ok=True,
        )
        values.update(fields)
        return WalkthroughStep(**values)

    steps = (
        step("1"),  # path None
        step("2", path=("a",)),  # one-element path
        step("3", path=("a", "link", "b")),
        step(None),  # label None
        step("5", event_type=None, components=(), note="natural-language"),
        step("6", components=(), ok=False, note=f"unmapped {_ODD}"),
        step("7", event_label=_ODD, components=(_ODD,)),
        step("2", path=("a",)),  # repeats of earlier values
        step(None, components=(), path=()),
    )
    return EvaluationReport(
        architecture=f"arch {_ODD}",
        findings=(
            _finding("r1", kind=InconsistencyKind.CONSTRAINT_VIOLATION),
            _finding("r2", provenance=False, severity=Severity.WARNING),
        ),
        scenario_verdicts=(
            ScenarioVerdict(
                scenario=f"plain {_ODD}",
                traces=(TraceWalkthrough(0, steps, ()),),
            ),
            ScenarioVerdict(
                scenario=f"negative {_ODD}",
                negative=True,
                blocked=True,
                inconsistencies=(
                    _finding(
                        "n", kind=InconsistencyKind.NEGATIVE_SCENARIO_SUCCEEDED
                    ),
                ),
                traces=(
                    TraceWalkthrough(0, steps[:2], (_finding("t0"),)),
                    TraceWalkthrough(1, (), ()),
                    TraceWalkthrough(2, steps[3:], (_finding("t2"),)),
                ),
            ),
            ScenarioVerdict(
                scenario="blocked",
                blocked=True,
                inconsistencies=(_finding("b", provenance=False),),
                traces=(),
            ),
        ),
        dynamic_verdicts=(
            StoredDynamicVerdict(scenario=f"dyn {_ODD}", passed=True),
            StoredDynamicVerdict(
                scenario="dyn-fail",
                passed=False,
                negative=True,
                findings=(
                    _finding(
                        "d", kind=InconsistencyKind.BEHAVIORAL_DIVERGENCE
                    ),
                ),
            ),
        ),
    )


class TestWalkthroughStepValue:
    """A step is an immutable value: the walk builds one per event, and
    reports, caches and worker processes share them freely."""

    STEP = WalkthroughStep(
        event_rendering="The system creates the widget",
        event_label="1",
        event_type="create",
        components=("logic", "store"),
        path=("ui", "ui-logic", "logic"),
        ok=True,
    )

    def test_fields_cannot_be_assigned(self):
        with pytest.raises(AttributeError):
            self.STEP.ok = False
        with pytest.raises(AttributeError):
            self.STEP.extra = 1

    def test_hashable_and_equal_by_value(self):
        twin = WalkthroughStep(
            "The system creates the widget", "1", "create",
            ("logic", "store"), ("ui", "ui-logic", "logic"), True,
        )
        assert twin == self.STEP
        assert hash(twin) == hash(self.STEP)
        assert len({twin, self.STEP}) == 1
        assert self.STEP != self.STEP._replace(ok=False)
        assert self.STEP.note == ""

    def test_pickle_round_trip(self):
        restored = pickle.loads(pickle.dumps(self.STEP))
        assert restored == self.STEP
        assert type(restored) is WalkthroughStep

    def test_str(self):
        assert str(self.STEP) == (
            "[ok] (1) The system creates the widget -> {logic, store} "
            "via ui - ui-logic - logic"
        )
        failed = WalkthroughStep(
            "free text", None, None, (), None, False, "skipped"
        )
        assert str(failed) == "[FAIL] free text  # skipped"

    def test_report_round_trip(
        self, small_scenarios, chain_architecture, chain_mapping
    ):
        chain_architecture.excise_links_between("logic", "logic-store")
        report = evaluate(small_scenarios, chain_architecture, chain_mapping)
        assert report_from_json(report_to_json(report)) == report
