"""Unit tests for scenario/ontology validation."""

from __future__ import annotations

import pytest

from repro.errors import ScenarioError
from repro.scenarioml.events import Episode, SimpleEvent, TypedEvent
from repro.scenarioml.ontology import ArgumentChecker, Ontology
from repro.scenarioml.scenario import Scenario, ScenarioSet
from repro.scenarioml.validation import (
    IssueSeverity,
    assert_valid,
    validate_scenario,
    validate_scenario_set,
)


def errors(issues):
    return [i for i in issues if i.severity is IssueSeverity.ERROR]


def warnings(issues):
    return [i for i in issues if i.severity is IssueSeverity.WARNING]


class TestValidateScenario:
    def test_clean_scenario_has_no_issues(
        self, small_ontology: Ontology, small_scenarios: ScenarioSet
    ):
        scenario = small_scenarios.get("make-widget")
        assert validate_scenario(scenario, small_ontology) == []

    def test_unknown_event_type_is_error(self, small_ontology: Ontology):
        scenario = Scenario(
            name="bad", events=(TypedEvent(type_name="ghost"),)
        )
        issues = validate_scenario(scenario, small_ontology)
        assert len(errors(issues)) == 1
        assert "ghost" in issues[0].message

    def test_arity_mismatch_is_error(self, small_ontology: Ontology):
        scenario = Scenario(
            name="bad-args",
            events=(TypedEvent(type_name="create", arguments={}),),
        )
        issues = validate_scenario(scenario, small_ontology)
        assert errors(issues)

    def test_abstract_instantiation_is_error(self, small_ontology: Ontology):
        scenario = Scenario(
            name="abstract",
            events=(
                TypedEvent(type_name="act", arguments={"subject": "x"}),
            ),
        )
        issues = validate_scenario(scenario, small_ontology)
        assert errors(issues)

    def test_unknown_actor_is_warning(self, small_ontology: Ontology):
        scenario = Scenario(
            name="actor",
            events=(SimpleEvent(text="x"),),
            actors=("Nobody",),
        )
        issues = validate_scenario(scenario, small_ontology)
        assert warnings(issues)
        assert not errors(issues)

    def test_known_actor_instance_accepted(self, small_ontology: Ontology):
        scenario = Scenario(
            name="actor-ok",
            events=(SimpleEvent(text="x"),),
            actors=("alice",),
        )
        assert validate_scenario(scenario, small_ontology) == []

    def test_actor_may_be_a_class(self, small_ontology: Ontology):
        scenario = Scenario(
            name="actor-class",
            events=(SimpleEvent(text="x"),),
            actors=("Human",),
        )
        assert validate_scenario(scenario, small_ontology) == []

    def test_episode_reference_checked_against_set(
        self, small_ontology: Ontology
    ):
        scenario_set = ScenarioSet(small_ontology)
        scenario = Scenario(
            name="eps", events=(Episode(scenario_name="missing"),)
        )
        scenario_set.add(scenario)
        issues = validate_scenario(scenario, small_ontology, scenario_set)
        assert errors(issues)

    def test_episode_without_set_is_not_checked(
        self, small_ontology: Ontology
    ):
        scenario = Scenario(
            name="eps", events=(Episode(scenario_name="missing"),)
        )
        assert validate_scenario(scenario, small_ontology) == []

    def test_issue_str_includes_location(self, small_ontology: Ontology):
        scenario = Scenario(
            name="bad",
            events=(TypedEvent(type_name="ghost", label="3"),),
        )
        (issue,) = validate_scenario(scenario, small_ontology)
        assert "bad step 3" in str(issue)
        assert str(issue).startswith("[error]")


class TestValidateScenarioSet:
    def test_clean_set(self, small_scenarios: ScenarioSet):
        assert validate_scenario_set(small_scenarios) == []

    def test_broken_ontology_reported(self):
        ontology = Ontology("broken")
        ontology.define_event_type("e")
        ontology.define_instance("ghostly", "Ghost")  # dangling class name
        scenario_set = ScenarioSet(ontology)
        scenario_set.add(
            Scenario(name="s", events=(SimpleEvent(text="x"),))
        )
        issues = validate_scenario_set(scenario_set)
        assert any(i.scenario_name == "<ontology>" for i in issues)

    def test_alternative_of_checked(self, small_ontology: Ontology):
        scenario_set = ScenarioSet(small_ontology)
        scenario_set.add(
            Scenario(
                name="alt",
                events=(SimpleEvent(text="x"),),
                alternative_of="missing-main",
            )
        )
        issues = validate_scenario_set(scenario_set)
        assert errors(issues)

    def test_episode_cycle_reported_not_raised(
        self, small_ontology: Ontology
    ):
        scenario_set = ScenarioSet(small_ontology)
        scenario_set.add(
            Scenario(name="a", events=(Episode(scenario_name="b"),))
        )
        scenario_set.add(
            Scenario(name="b", events=(Episode(scenario_name="a"),))
        )
        issues = validate_scenario_set(scenario_set)
        assert any("cycle" in i.message for i in issues)

    def test_assert_valid_passes_clean_set(
        self, small_scenarios: ScenarioSet
    ):
        assert_valid(small_scenarios)

    def test_assert_valid_raises_with_summary(
        self, small_ontology: Ontology
    ):
        scenario_set = ScenarioSet(small_ontology)
        scenario_set.add(
            Scenario(name="bad", events=(TypedEvent(type_name="ghost"),))
        )
        with pytest.raises(ScenarioError) as excinfo:
            assert_valid(scenario_set)
        assert "ghost" in str(excinfo.value)

    def test_warnings_do_not_fail_assert_valid(
        self, small_ontology: Ontology
    ):
        scenario_set = ScenarioSet(small_ontology)
        scenario_set.add(
            Scenario(
                name="warned",
                events=(SimpleEvent(text="x"),),
                actors=("Nobody",),
            )
        )
        assert_valid(scenario_set)

    def test_pims_set_is_valid(self, pims):
        assert errors(validate_scenario_set(pims.scenarios)) == []

    def test_crash_set_is_valid(self, crash):
        assert errors(validate_scenario_set(crash.scenarios)) == []


class TestArgumentCheckerSignatures:
    """A type with no typed parameter is checked once per signature
    (type and argument names); a typed one once per binding. Either
    way each check answers what a fresh check of the binding says."""

    BINDINGS = (
        ("create", {"subject": "widget"}),
        ("create", {"subject": "gadget"}),
        ("create", {}),
        ("create", {"subject": "widget", "extra": "1"}),
        ("create", {"extra": "1"}),
        ("create", {"extra": "2"}),
        ("act", {"subject": "widget"}),
        ("act", {"subject": "gadget"}),
        ("ghost", {}),
        ("ghost", {"q": "1"}),
        ("notify", {"who": "alice"}),
        ("notify", {"who": "backend"}),
        ("notify", {"who": "literal"}),
        ("notify", {"who": "rock"}),
        ("notify", {}),
        ("notify", {"who": "alice", "extra": "1"}),
        ("move", {"a": "1", "b": "2"}),
        ("move", {"b": "1", "a": "2"}),
        ("move", {"a": "1"}),
        ("move", {"a": "2"}),
        ("move", {"a": "1", "b": "2", "c": "3"}),
    )

    @pytest.fixture
    def ontology(self, small_ontology: Ontology) -> Ontology:
        small_ontology.define_instance_type("Thing")
        small_ontology.define_instance("rock", "Thing")
        small_ontology.define_event_type(
            "move", "The system moves [a] to [b]", parameters=["a", "b"]
        )
        return small_ontology

    def test_each_check_equals_a_fresh_check(self, ontology: Ontology):
        checker = ArgumentChecker(ontology)
        for _ in range(2):
            for type_name, arguments in self.BINDINGS:
                fresh = ArgumentChecker(ontology).error(type_name, arguments)
                verdict = checker.check(type_name, arguments)
                assert (type(verdict), str(verdict)) == (
                    type(fresh),
                    str(fresh),
                ), (type_name, arguments)

    def test_one_check_per_signature_of_an_untyped_type(
        self, ontology: Ontology
    ):
        checker = ArgumentChecker(ontology)
        for type_name, arguments in self.BINDINGS:
            checker.check(type_name, arguments)
        keys = {
            (type_name, tuple(arguments.items()))
            if checker.table(type_name).typed
            else (type_name, tuple(arguments))
            for type_name, arguments in self.BINDINGS
        }
        assert len(checker._verdicts) == len(keys) < len(self.BINDINGS)
        # "notify" has a typed parameter: each binding is its own check.
        notify = [a for t, a in self.BINDINGS if t == "notify"]
        assert sum(key[0] == "notify" for key in checker._verdicts) == len(
            notify
        )
