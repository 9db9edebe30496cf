"""Unit tests for the static walkthrough engine."""

from __future__ import annotations

import pytest

from repro.core.consistency import InconsistencyKind, Severity
from repro.core.mapping import Mapping
from repro.core.walkthrough import WalkthroughEngine, WalkthroughOptions
from repro.errors import EvaluationError
from repro.scenarioml.events import Alternation, SimpleEvent, TypedEvent
from repro.scenarioml.scenario import Scenario, ScenarioSet


def scenario_of(*events, name="s") -> Scenario:
    return Scenario(name=name, events=tuple(events))


def typed(type_name, **arguments) -> TypedEvent:
    return TypedEvent(type_name=type_name, arguments=arguments)


class TestOptions:
    def test_rejects_unknown_policy(self):
        with pytest.raises(EvaluationError):
            WalkthroughOptions(unmapped_event_policy="explode")

    def test_direction_overrides_default_to_global(self):
        options = WalkthroughOptions(respect_directions=True)
        assert options.intra_event_directed
        assert options.inter_event_directed

    def test_direction_overrides_can_split(self):
        options = WalkthroughOptions(
            respect_directions=False, intra_event_respect_directions=True
        )
        assert options.intra_event_directed
        assert not options.inter_event_directed


class TestBasicWalkthrough:
    def test_connected_chain_passes(
        self, small_ontology, chain_architecture, chain_mapping
    ):
        scenarios = ScenarioSet(small_ontology)
        scenarios.add(
            scenario_of(
                typed("notify", who="alice"),
                typed("create", subject="w"),
            )
        )
        engine = WalkthroughEngine(chain_architecture, chain_mapping)
        verdict = engine.walk_scenario(scenarios.get("s"), scenarios)
        assert verdict.passed
        steps = verdict.traces[0].steps
        assert steps[0].components == ("ui",)
        assert steps[1].path is not None

    def test_missing_inter_event_link_fails(
        self, small_ontology, chain_architecture, chain_mapping
    ):
        chain_architecture.excise_links_between("ui", "ui-logic")
        scenarios = ScenarioSet(small_ontology)
        scenarios.add(
            scenario_of(
                typed("notify", who="alice"),
                typed("create", subject="w"),
            )
        )
        engine = WalkthroughEngine(chain_architecture, chain_mapping)
        verdict = engine.walk_scenario(scenarios.get("s"), scenarios)
        assert not verdict.passed
        findings = verdict.all_inconsistencies()
        assert any(
            f.kind is InconsistencyKind.MISSING_LINK for f in findings
        )

    def test_intra_event_chain_break_fails(
        self, small_ontology, chain_architecture, chain_mapping
    ):
        chain_architecture.excise_links_between("logic", "logic-store")
        scenarios = ScenarioSet(small_ontology)
        scenarios.add(scenario_of(typed("create", subject="w")))
        engine = WalkthroughEngine(chain_architecture, chain_mapping)
        verdict = engine.walk_scenario(scenarios.get("s"), scenarios)
        assert not verdict.passed
        (finding,) = verdict.all_inconsistencies()
        assert finding.kind is InconsistencyKind.MISSING_LINK
        assert "logic" in finding.message and "store" in finding.message

    def test_intra_event_check_disabled(
        self, small_ontology, chain_architecture, chain_mapping
    ):
        chain_architecture.excise_links_between("logic", "logic-store")
        scenarios = ScenarioSet(small_ontology)
        scenarios.add(scenario_of(typed("create", subject="w")))
        engine = WalkthroughEngine(
            chain_architecture,
            chain_mapping,
            WalkthroughOptions(check_intra_event_chain=False),
        )
        assert engine.walk_scenario(scenarios.get("s"), scenarios).passed

    def test_inter_event_check_disabled(
        self, small_ontology, chain_architecture, chain_mapping
    ):
        chain_architecture.excise_links_between("ui", "ui-logic")
        scenarios = ScenarioSet(small_ontology)
        scenarios.add(
            scenario_of(
                typed("notify", who="alice"), typed("create", subject="w")
            )
        )
        engine = WalkthroughEngine(
            chain_architecture,
            chain_mapping,
            WalkthroughOptions(check_inter_event=False),
        )
        assert engine.walk_scenario(scenarios.get("s"), scenarios).passed

    def test_shared_component_between_events_is_trivially_connected(
        self, small_ontology, chain_architecture, chain_mapping
    ):
        scenarios = ScenarioSet(small_ontology)
        scenarios.add(
            scenario_of(
                typed("create", subject="w"), typed("destroy", subject="w")
            )
        )
        engine = WalkthroughEngine(chain_architecture, chain_mapping)
        verdict = engine.walk_scenario(scenarios.get("s"), scenarios)
        assert verdict.passed
        assert verdict.traces[0].steps[1].path == ("logic",)

    def test_isolated_shared_component_passes_with_trivial_path(
        self, small_ontology, chain_architecture, chain_mapping
    ):
        """Consecutive events on the same component pass with the trivial
        one-element path even when that component has no links at all —
        the report's path must agree with the ok verdict."""
        chain_architecture.excise_links_between("ui", "ui-logic")
        chain_mapping.unmap_event("create")
        chain_mapping.unmap_event("destroy")
        chain_mapping.map_event("create", "ui")
        chain_mapping.map_event("destroy", "ui")
        scenarios = ScenarioSet(small_ontology)
        scenarios.add(
            scenario_of(
                typed("create", subject="w"), typed("destroy", subject="w")
            )
        )
        engine = WalkthroughEngine(chain_architecture, chain_mapping)
        verdict = engine.walk_scenario(scenarios.get("s"), scenarios)
        assert verdict.passed
        step = verdict.traces[0].steps[1]
        assert step.ok
        assert step.path == ("ui",)

    def test_directed_inter_event_check(
        self, small_ontology, chain_architecture, chain_mapping
    ):
        scenarios = ScenarioSet(small_ontology)
        # notify maps to ui; create maps to logic,store. With directions,
        # logic cannot reach ui (store->ui impossible), so reversed order
        # fails while forward order passes.
        scenarios.add(
            scenario_of(
                typed("create", subject="w"),
                typed("notify", who="alice"),
                name="reversed",
            )
        )
        engine = WalkthroughEngine(
            chain_architecture,
            chain_mapping,
            WalkthroughOptions(respect_directions=True),
        )
        verdict = engine.walk_scenario(scenarios.get("reversed"), scenarios)
        assert not verdict.passed


class TestPolicies:
    def test_simple_event_warns_by_default(
        self, small_ontology, chain_architecture, chain_mapping
    ):
        scenarios = ScenarioSet(small_ontology)
        scenarios.add(scenario_of(SimpleEvent(text="just prose")))
        engine = WalkthroughEngine(chain_architecture, chain_mapping)
        verdict = engine.walk_scenario(scenarios.get("s"), scenarios)
        assert verdict.passed
        (finding,) = verdict.all_inconsistencies()
        assert finding.severity is Severity.WARNING

    def test_simple_event_error_policy(
        self, small_ontology, chain_architecture, chain_mapping
    ):
        scenarios = ScenarioSet(small_ontology)
        scenarios.add(scenario_of(SimpleEvent(text="just prose")))
        engine = WalkthroughEngine(
            chain_architecture,
            chain_mapping,
            WalkthroughOptions(simple_event_policy="error"),
        )
        verdict = engine.walk_scenario(scenarios.get("s"), scenarios)
        assert not verdict.passed

    def test_simple_event_ignore_policy(
        self, small_ontology, chain_architecture, chain_mapping
    ):
        scenarios = ScenarioSet(small_ontology)
        scenarios.add(scenario_of(SimpleEvent(text="just prose")))
        engine = WalkthroughEngine(
            chain_architecture,
            chain_mapping,
            WalkthroughOptions(simple_event_policy="ignore"),
        )
        verdict = engine.walk_scenario(scenarios.get("s"), scenarios)
        assert verdict.passed
        assert verdict.all_inconsistencies() == ()

    def test_unmapped_event_warns_by_default(
        self, small_ontology, chain_architecture
    ):
        mapping = Mapping(small_ontology, chain_architecture)
        scenarios = ScenarioSet(small_ontology)
        scenarios.add(scenario_of(typed("create", subject="w")))
        engine = WalkthroughEngine(chain_architecture, mapping)
        verdict = engine.walk_scenario(scenarios.get("s"), scenarios)
        assert verdict.passed
        (finding,) = verdict.all_inconsistencies()
        assert finding.kind is InconsistencyKind.UNMAPPED_EVENT
        assert finding.severity is Severity.WARNING

    def test_unmapped_event_error_policy(
        self, small_ontology, chain_architecture
    ):
        mapping = Mapping(small_ontology, chain_architecture)
        scenarios = ScenarioSet(small_ontology)
        scenarios.add(scenario_of(typed("create", subject="w")))
        engine = WalkthroughEngine(
            chain_architecture,
            mapping,
            WalkthroughOptions(unmapped_event_policy="error"),
        )
        verdict = engine.walk_scenario(scenarios.get("s"), scenarios)
        assert not verdict.passed

    def test_unmapped_event_does_not_update_focus(
        self, small_ontology, chain_architecture, chain_mapping
    ):
        """An unmapped event is skipped; connectivity is checked from the
        last mapped event, not from nothing."""
        chain_mapping.unmap_event("destroy")
        scenarios = ScenarioSet(small_ontology)
        scenarios.add(
            scenario_of(
                typed("notify", who="alice"),
                typed("destroy", subject="w"),
                typed("create", subject="w"),
            )
        )
        engine = WalkthroughEngine(chain_architecture, chain_mapping)
        verdict = engine.walk_scenario(scenarios.get("s"), scenarios)
        steps = verdict.traces[0].steps
        assert steps[2].path is not None
        assert steps[2].path[0] == "ui"


class TestTracesAndSupertypes:
    def test_all_alternation_branches_walked(
        self, small_ontology, chain_architecture, chain_mapping
    ):
        scenarios = ScenarioSet(small_ontology)
        scenarios.add(
            scenario_of(
                Alternation(
                    branches=(
                        typed("create", subject="w"),
                        typed("destroy", subject="w"),
                    )
                )
            )
        )
        engine = WalkthroughEngine(chain_architecture, chain_mapping)
        verdict = engine.walk_scenario(scenarios.get("s"), scenarios)
        assert len(verdict.traces) == 2
        assert verdict.passed

    def test_one_failing_branch_fails_scenario(
        self, small_ontology, chain_architecture, chain_mapping
    ):
        chain_mapping.unmap_event("destroy")
        chain_mapping.map_event("destroy", "ui", "store")
        chain_architecture.excise_links_between("ui", "ui-logic")
        scenarios = ScenarioSet(small_ontology)
        scenarios.add(
            scenario_of(
                Alternation(
                    branches=(
                        typed("create", subject="w"),
                        typed("destroy", subject="w"),
                    )
                )
            )
        )
        engine = WalkthroughEngine(chain_architecture, chain_mapping)
        verdict = engine.walk_scenario(scenarios.get("s"), scenarios)
        assert not verdict.passed
        passed_by_trace = [t.passed for t in verdict.traces]
        assert True in passed_by_trace and False in passed_by_trace

    def test_supertype_mapping_used_in_walkthrough(
        self, small_ontology, chain_architecture
    ):
        mapping = Mapping(small_ontology, chain_architecture)
        mapping.map_event("act", "logic")
        scenarios = ScenarioSet(small_ontology)
        scenarios.add(scenario_of(typed("create", subject="w")))
        engine = WalkthroughEngine(chain_architecture, mapping)
        verdict = engine.walk_scenario(scenarios.get("s"), scenarios)
        assert verdict.passed
        assert verdict.traces[0].steps[0].components == ("logic",)

    def test_walk_all_covers_every_scenario(
        self, small_scenarios, chain_architecture, chain_mapping
    ):
        engine = WalkthroughEngine(chain_architecture, chain_mapping)
        verdicts = engine.walk_all(small_scenarios)
        assert [v.scenario for v in verdicts] == [
            "make-widget",
            "drop-widget",
        ]

    def test_mapping_rebound_to_new_architecture_object(
        self, small_ontology, small_scenarios, chain_architecture,
        chain_mapping
    ):
        """An engine over a clone walks with the mapping written for the
        original what it walks with the mapping rebound to the clone."""
        clone = chain_architecture.clone("clone")
        clone.excise_links_between("logic-store", "store")
        unbound = WalkthroughEngine(clone, chain_mapping)
        rebound = WalkthroughEngine(clone, chain_mapping.rebind(clone))
        assert unbound.mapping is chain_mapping
        walked = unbound.walk_all(small_scenarios)
        assert walked == rebound.walk_all(small_scenarios)
        assert not all(verdict.passed for verdict in walked)

    def test_step_rendering_mentions_status(
        self, small_ontology, chain_architecture, chain_mapping
    ):
        scenarios = ScenarioSet(small_ontology)
        scenarios.add(scenario_of(typed("notify", who="alice")))
        engine = WalkthroughEngine(chain_architecture, chain_mapping)
        verdict = engine.walk_scenario(scenarios.get("s"), scenarios)
        rendered = verdict.render()
        assert rendered.startswith("PASS s")
        assert "[ok]" in rendered
