"""Unit tests for incremental re-evaluation after evolution."""

from __future__ import annotations

import random

import pytest

from repro.adl.diff import diff_architectures
from repro.core.constraints import MustNotCommunicate, RequiresPath
from repro.core.evaluator import Sosae
from repro.core.incremental import (
    DependencyTracker,
    StaleTrackerError,
    impacted_scenario_names,
    reevaluate,
)
from repro.core.mapping import Mapping
from repro.core.report_io import report_to_json
from repro.obs import Recorder, use
from repro.systems.generators import SyntheticSpec, build_synthetic
from repro.systems.pims import GET_SHARE_PRICES


def assert_equals_full(incremental, full_sosae):
    """``incremental()`` (a :func:`reevaluate` call) and a full
    evaluation of ``full_sosae`` produce the same report JSON, byte for
    byte, and the same coverage matrix. Returns the incremental result."""
    recorder = Recorder()
    with use(recorder):
        result = incremental()
    full_recorder = Recorder()
    with use(full_recorder):
        full = full_sosae.evaluate()
    assert report_to_json(result.report) == report_to_json(full)
    assert recorder.coverage.digest == full_recorder.coverage.digest
    return result


class TestImpactSet:
    def test_component_change_impacts_its_scenarios(
        self, small_scenarios, chain_mapping, chain_architecture
    ):
        variant = chain_architecture.clone("v2")
        variant.component("ui").description = "redesigned"
        diff = diff_architectures(chain_architecture, variant)
        impacted = impacted_scenario_names(
            small_scenarios, chain_mapping, diff, chain_architecture
        )
        assert impacted == {"make-widget"}

    def test_connector_change_widens_to_adjacent_components(
        self, small_scenarios, chain_mapping, chain_architecture
    ):
        variant = chain_architecture.clone("v2")
        variant.excise_links_between("logic", "logic-store")
        diff = diff_architectures(chain_architecture, variant)
        impacted = impacted_scenario_names(
            small_scenarios, chain_mapping, diff, chain_architecture
        )
        # The excised link touches logic and the logic-store connector;
        # widening reaches 'store', so both scenarios are impacted.
        assert impacted == {"make-widget", "drop-widget"}

    def test_no_change_impacts_nothing(
        self, small_scenarios, chain_mapping, chain_architecture
    ):
        diff = diff_architectures(
            chain_architecture, chain_architecture.clone("same")
        )
        assert (
            impacted_scenario_names(
                small_scenarios, chain_mapping, diff, chain_architecture
            )
            == frozenset()
        )


class TestReevaluate:
    def test_unchanged_architecture_carries_everything_over(
        self, small_scenarios, chain_architecture, chain_mapping
    ):
        previous = Sosae(
            small_scenarios, chain_architecture, chain_mapping
        ).evaluate()
        result = reevaluate(
            previous,
            small_scenarios,
            chain_architecture,
            chain_architecture.clone("same"),
            chain_mapping,
        )
        assert result.rewalked == ()
        assert set(result.carried_over) == {"make-widget", "drop-widget"}
        assert result.savings == 1.0
        assert result.report.consistent == previous.consistent

    def test_incremental_matches_full_reevaluation(self, pims):
        previous = Sosae(
            pims.scenarios,
            pims.architecture,
            pims.mapping,
            walkthrough_options=pims.options,
        ).evaluate()
        evolved = pims.excised_architecture()
        # The incremental report is a from-scratch evaluation's.
        result = assert_equals_full(
            lambda: reevaluate(
                previous,
                pims.scenarios,
                pims.architecture,
                evolved,
                pims.mapping,
                options=pims.options,
            ),
            Sosae(
                pims.scenarios,
                evolved,
                pims.mapping.rebind(evolved),
                walkthrough_options=pims.options,
            ),
        )
        assert not result.report.consistent
        assert GET_SHARE_PRICES in result.rewalked

    def test_savings_are_substantial_for_local_changes(self, pims):
        previous = Sosae(
            pims.scenarios,
            pims.architecture,
            pims.mapping,
            walkthrough_options=pims.options,
        ).evaluate()
        result = reevaluate(
            previous,
            pims.scenarios,
            pims.architecture,
            pims.excised_architecture(),
            pims.mapping,
            options=pims.options,
        )
        assert result.savings > 0.5  # most scenarios were not re-walked

    def test_new_scenarios_are_walked_even_without_impact(
        self, small_scenarios, chain_architecture, chain_mapping
    ):
        from repro.scenarioml.events import TypedEvent
        from repro.scenarioml.scenario import Scenario

        previous = Sosae(
            small_scenarios, chain_architecture, chain_mapping
        ).evaluate()
        small_scenarios.add(
            Scenario(
                name="fresh",
                events=(
                    TypedEvent(
                        type_name="create", arguments={"subject": "x"}
                    ),
                ),
            )
        )
        result = reevaluate(
            previous,
            small_scenarios,
            chain_architecture,
            chain_architecture.clone("same"),
            chain_mapping,
        )
        assert "fresh" in result.rewalked
        assert result.report.verdict("fresh").passed

    def test_negative_scenarios_keep_polarity_when_rewalked(
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
        previous = Sosae(
            scenarios, chain_architecture, chain_mapping
        ).evaluate()
        evolved = chain_architecture.clone("evolved")
        evolved.component("logic").description = "changed"
        result = reevaluate(
            previous, scenarios, chain_architecture, evolved, chain_mapping
        )
        assert "forbidden" in result.rewalked
        verdict = result.report.verdict("forbidden")
        assert verdict.negative
        assert not verdict.passed  # still admitted -> still flagged


class TestDependencyTracker:
    def test_excision_dirty_set_is_exact(self, pims):
        previous = Sosae(
            pims.scenarios,
            pims.architecture,
            pims.mapping,
            walkthrough_options=pims.options,
        ).evaluate()
        tracker = DependencyTracker.from_report(
            previous, pims.architecture, pims.mapping, pims.options
        )
        diff = diff_architectures(
            pims.architecture, pims.excised_architecture()
        )
        dirty = tracker.dirty_scenarios(diff)
        # Only the scenario family whose witness paths crossed the
        # excised adjacency is dirtied — no widening to neighbors.
        assert GET_SHARE_PRICES in dirty
        assert all(name.startswith(GET_SHARE_PRICES) for name in dirty)

    def test_noop_diff_dirties_nothing(self, pims):
        previous = Sosae(
            pims.scenarios,
            pims.architecture,
            pims.mapping,
            walkthrough_options=pims.options,
        ).evaluate()
        tracker = DependencyTracker.from_report(
            previous, pims.architecture, pims.mapping, pims.options
        )
        diff = diff_architectures(
            pims.architecture, pims.architecture.clone("same")
        )
        assert tracker.dirty_scenarios(diff, pims.mapping) == frozenset()

    def test_mapping_edit_dirties_consulted_scenarios_only(
        self, small_scenarios, small_ontology, chain_architecture, chain_mapping
    ):
        previous = Sosae(
            small_scenarios, chain_architecture, chain_mapping
        ).evaluate()
        tracker = DependencyTracker.from_report(
            previous, chain_architecture, chain_mapping
        )
        edited = Mapping(small_ontology, chain_architecture)
        edited.map_event("create", "logic", "store")
        edited.map_event("destroy", "logic")  # retargeted
        edited.map_event("notify", "ui")
        assert tracker.changed_event_types(edited) == {"destroy"}
        diff = diff_architectures(
            chain_architecture, chain_architecture.clone("same")
        )
        # Only drop-widget resolves through 'destroy'.
        assert tracker.dirty_scenarios(diff, edited) == {"drop-widget"}

    def test_stale_tracker_raises(
        self, small_scenarios, chain_architecture, chain_mapping
    ):
        previous = Sosae(
            small_scenarios, chain_architecture, chain_mapping
        ).evaluate()
        other = chain_architecture.clone("other")
        tracker = DependencyTracker.from_report(
            previous, other, chain_mapping.rebind(other)
        )
        with pytest.raises(StaleTrackerError):
            reevaluate(
                previous,
                small_scenarios,
                chain_architecture,
                chain_architecture.clone("v2"),
                chain_mapping,
                tracker=tracker,
            )

    def test_tracker_parity_on_pims_excision(self, pims):
        previous = Sosae(
            pims.scenarios,
            pims.architecture,
            pims.mapping,
            constraints=pims.constraints,
            walkthrough_options=pims.options,
        ).evaluate()
        tracker = DependencyTracker.from_report(
            previous, pims.architecture, pims.mapping, pims.options
        )
        evolved = pims.excised_architecture()
        result = assert_equals_full(
            lambda: reevaluate(
                previous,
                pims.scenarios,
                pims.architecture,
                evolved,
                pims.mapping,
                options=pims.options,
                tracker=tracker,
                constraints=pims.constraints,
            ),
            Sosae(
                pims.scenarios,
                evolved,
                pims.mapping.rebind(evolved),
                constraints=pims.constraints,
                walkthrough_options=pims.options,
            ),
        )
        assert result.used_tracker


class TestFindingsRefresh:
    def test_carried_findings_equal_a_full_evaluation(
        self, small_scenarios, chain_architecture, chain_mapping
    ):
        # ui reaches store through the chain, so this constraint is
        # violated in the *previous* report already.
        constraints = (MustNotCommunicate("ui", "store"),)
        previous = Sosae(
            small_scenarios,
            chain_architecture,
            chain_mapping,
            constraints=constraints,
        ).evaluate()
        assert any(
            "MustNotCommunicate" in f.message for f in previous.findings
        )
        same = chain_architecture.clone("same")
        # A no-op diff reuses the validation and coverage findings;
        # every finding, carried or recomputed, reads as a full
        # evaluation's.
        result = assert_equals_full(
            lambda: reevaluate(
                previous,
                small_scenarios,
                chain_architecture,
                same,
                chain_mapping,
                constraints=constraints,
            ),
            Sosae(
                small_scenarios,
                same,
                chain_mapping.rebind(same),
                constraints=constraints,
            ),
        )
        assert result.reused_stages == ("validation", "coverage")

    def test_dirty_constraint_findings_are_recomputed(
        self, small_scenarios, chain_architecture, chain_mapping
    ):
        constraints = (RequiresPath("ui", "store"),)
        previous = Sosae(
            small_scenarios,
            chain_architecture,
            chain_mapping,
            constraints=constraints,
        ).evaluate()
        assert not any(
            f.kind.name == "CONSTRAINT_VIOLATION" for f in previous.findings
        )
        evolved = chain_architecture.clone("evolved")
        evolved.excise_links_between("logic", "logic-store")
        result = reevaluate(
            previous,
            small_scenarios,
            chain_architecture,
            evolved,
            chain_mapping,
            constraints=constraints,
        )
        # The excision breaks ui -> store; constraints are always
        # recomputed, so the new violation appears.
        assert "constraints" not in result.reused_stages
        assert any(
            "RequiresPath" in f.message for f in result.report.findings
        )


def _mutate(system, kind: str, rng: random.Random):
    """One random single edit; returns (new_architecture, new_mapping)."""
    architecture = system.architecture.clone(f"evolved-{kind}")
    mapping = system.mapping
    if kind == "link-remove":
        link = rng.choice(architecture.links)
        architecture.remove_link(link.name)
    elif kind == "link-add":
        first, second = rng.sample(
            [c.name for c in architecture.components], 2
        )
        architecture.link((first, "extra-out"), (second, "extra-in"))
    elif kind == "component-excision":
        component = rng.choice(architecture.components)
        architecture.excise_links_between(component.name, "bus")
    elif kind == "mapping-change":
        mapping = Mapping(system.ontology, system.architecture)
        entries = system.mapping.entries
        retarget = rng.choice(sorted(entries))
        for name, components in entries.items():
            if name == retarget:
                components = tuple(
                    rng.sample(
                        [c.name for c in system.architecture.components],
                        len(components),
                    )
                )
            mapping.map_event(name, *components)
    else:  # pragma: no cover - guard against typos in the param list
        raise AssertionError(kind)
    return architecture, mapping


class TestTrackerParityProperties:
    """Seeded synthetic systems x random single edits: the tracker path
    must reproduce the from-scratch pipeline's verdicts exactly."""

    EDITS = ("link-remove", "link-add", "component-excision", "mapping-change")

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("edit", EDITS)
    def test_single_edit_parity(self, seed, edit):
        system = build_synthetic(SyntheticSpec(seed=seed, scenarios=8))
        previous = Sosae(
            system.scenarios, system.architecture, system.mapping
        ).evaluate()
        tracker = DependencyTracker.from_report(
            previous, system.architecture, system.mapping
        )
        rng = random.Random(seed * 1000 + hash(edit) % 997)
        evolved, mapping = _mutate(system, edit, rng)
        result = assert_equals_full(
            lambda: reevaluate(
                previous,
                system.scenarios,
                system.architecture,
                evolved,
                mapping,
                tracker=tracker,
            ),
            Sosae(system.scenarios, evolved, mapping.rebind(evolved)),
        )
        assert result.used_tracker

    @pytest.mark.parametrize("seed", range(3))
    def test_noop_diff_carries_everything(self, seed):
        system = build_synthetic(SyntheticSpec(seed=seed, scenarios=8))
        previous = Sosae(
            system.scenarios, system.architecture, system.mapping
        ).evaluate()
        tracker = DependencyTracker.from_report(
            previous, system.architecture, system.mapping
        )
        result = reevaluate(
            previous,
            system.scenarios,
            system.architecture,
            system.architecture.clone("same"),
            system.mapping,
            tracker=tracker,
        )
        assert result.rewalked == ()
        assert result.savings == 1.0
        assert result.report.consistent == previous.consistent

    @pytest.mark.parametrize("seed", range(3))
    def test_everything_changed_still_matches(self, seed):
        system = build_synthetic(SyntheticSpec(seed=seed, scenarios=8))
        previous = Sosae(
            system.scenarios, system.architecture, system.mapping
        ).evaluate()
        tracker = DependencyTracker.from_report(
            previous, system.architecture, system.mapping
        )
        evolved = system.architecture.clone("gutted")
        for component in evolved.components:
            evolved.excise_links_between(component.name, "bus")
        result = reevaluate(
            previous,
            system.scenarios,
            system.architecture,
            evolved,
            system.mapping,
            tracker=tracker,
        )
        full = Sosae(
            system.scenarios, evolved, system.mapping.rebind(evolved)
        ).evaluate()
        assert {
            v.scenario: (v.passed, v.blocked)
            for v in result.report.scenario_verdicts
        } == {
            v.scenario: (v.passed, v.blocked) for v in full.scenario_verdicts
        }
        # Disconnecting every component dirties every scenario.
        assert set(result.rewalked) == {
            s.name for s in system.scenarios
        }
