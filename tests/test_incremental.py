"""Unit tests for incremental re-evaluation after evolution."""

from __future__ import annotations

import random
import zlib

import pytest

from repro.adl.diff import diff_architectures
from repro.adl.structure import Architecture
from repro.core.constraints import MustNotCommunicate, RequiresPath
from repro.core.evaluator import Sosae
from repro.core.incremental import DependencyTracker, reevaluate
from repro.core.mapping import Mapping
from repro.core.report_io import report_to_dict, report_to_json
from repro.core.walkthrough import (
    WalkthroughEngine,
    WalkthroughOptions,
    walk_questions,
)
from repro.obs import Recorder, use
from repro.systems.crash import build_crash
from repro.systems.generators import SyntheticSpec, build_synthetic
from repro.systems.pims import GET_SHARE_PRICES


def tracker_for(sosae: Sosae) -> DependencyTracker:
    """A tracker recorded from a full evaluation of ``sosae``."""
    return DependencyTracker.from_report(
        sosae.evaluate(),
        sosae.architecture,
        sosae.mapping,
        sosae.walkthrough_options,
    )


def assert_equals_full(tracker, build):
    """``reevaluate(tracker, build())`` and ``build().evaluate()``
    produce the same report JSON, byte for byte, and the same coverage
    matrix. Returns the incremental result."""
    recorder = Recorder()
    with use(recorder):
        result = reevaluate(tracker, build())
    full_recorder = Recorder()
    with use(full_recorder):
        full = build().evaluate()
    assert report_to_json(result.report) == report_to_json(full)
    assert recorder.coverage.digest == full_recorder.coverage.digest
    return result


def pims_sosae(pims, architecture, constraints=()):
    return Sosae(
        pims.scenarios,
        architecture,
        pims.mapping.rebind(architecture),
        constraints=constraints,
        walkthrough_options=pims.options,
    )


class TestReevaluate:
    def test_unchanged_architecture_carries_everything_over(
        self, small_scenarios, chain_architecture, chain_mapping
    ):
        tracker = tracker_for(
            Sosae(small_scenarios, chain_architecture, chain_mapping)
        )
        same = chain_architecture.clone("same")
        result = reevaluate(
            tracker, Sosae(small_scenarios, same, chain_mapping.rebind(same))
        )
        assert result.rewalked == ()
        assert set(result.carried_over) == {"make-widget", "drop-widget"}
        assert result.savings == 1.0
        assert result.report.consistent == tracker.report.consistent

    def test_incremental_matches_full_reevaluation(self, pims):
        tracker = tracker_for(pims_sosae(pims, pims.architecture))
        evolved = pims.excised_architecture()
        # The incremental report is a from-scratch evaluation's.
        result = assert_equals_full(
            tracker, lambda: pims_sosae(pims, evolved)
        )
        assert not result.report.consistent
        assert GET_SHARE_PRICES in result.rewalked

    def test_savings_are_substantial_for_local_changes(self, pims):
        tracker = tracker_for(pims_sosae(pims, pims.architecture))
        result = reevaluate(
            tracker, pims_sosae(pims, pims.excised_architecture())
        )
        assert result.savings > 0.5  # most scenarios were not re-walked

    def test_new_scenarios_are_walked_even_without_impact(
        self, small_scenarios, chain_architecture, chain_mapping
    ):
        from repro.scenarioml.events import TypedEvent
        from repro.scenarioml.scenario import Scenario

        tracker = tracker_for(
            Sosae(small_scenarios, chain_architecture, chain_mapping)
        )
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
        same = chain_architecture.clone("same")
        result = assert_equals_full(
            tracker,
            lambda: Sosae(small_scenarios, same, chain_mapping.rebind(same)),
        )
        assert result.rewalked == ("fresh",)
        assert result.report.verdict("fresh").passed

    def test_reordered_scenarios_recompute_their_findings(
        self, small_ontology, chain_architecture, chain_mapping
    ):
        from repro.scenarioml.events import TypedEvent
        from repro.scenarioml.scenario import Scenario, ScenarioSet

        def scenarios(*names):
            # An undefined actor is a validation warning per scenario.
            scenario_set = ScenarioSet(small_ontology)
            for name in names:
                scenario_set.add(
                    Scenario(
                        name=name,
                        actors=(f"ghost-{name}",),
                        events=(
                            TypedEvent(
                                type_name="notify", arguments={"who": "alice"}
                            ),
                        ),
                    )
                )
            return scenario_set

        tracker = tracker_for(
            Sosae(scenarios("one", "two"), chain_architecture, chain_mapping)
        )
        result = assert_equals_full(
            tracker,
            lambda: Sosae(
                scenarios("two", "one"), chain_architecture, chain_mapping
            ),
        )
        assert result.rewalked == ()
        assert "validation" not in result.reused_stages

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
        tracker = tracker_for(
            Sosae(scenarios, chain_architecture, chain_mapping)
        )
        assert not tracker.report.verdict("forbidden").passed  # admitted
        evolved = chain_architecture.clone("evolved")
        # Cutting logic -> store breaks the event's chain: the answer
        # to its chain question changes.
        evolved.excise_links_between("logic", "logic-store")
        result = assert_equals_full(
            tracker,
            lambda: Sosae(scenarios, evolved, chain_mapping.rebind(evolved)),
        )
        assert result.rewalked == ("forbidden",)
        verdict = result.report.verdict("forbidden")
        assert verdict.negative and verdict.blocked
        assert verdict.passed  # now blocked -> the desired outcome

    def test_an_interface_only_addition_carries_a_negative_scenario(
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
        tracker = tracker_for(
            Sosae(scenarios, chain_architecture, chain_mapping)
        )
        evolved = chain_architecture.clone("evolved")
        # A new unlinked interface answers every question as before.
        evolved.component("logic").add_interface("spare")
        result = assert_equals_full(
            tracker,
            lambda: Sosae(scenarios, evolved, chain_mapping.rebind(evolved)),
        )
        assert result.carried_over == ("forbidden",)
        assert not result.report.verdict("forbidden").passed

    def test_other_walkthrough_options_rewalk_everything(self, pims):
        """The tracker's answers hold under its own options only: the
        excised PIMS recorded under fully directed checks (8 scenarios
        pass) and re-evaluated under the defaults (all 16 pass)."""
        excised = pims.excised_architecture()
        directed = WalkthroughOptions(respect_directions=True)
        tracker = tracker_for(
            Sosae(pims.scenarios, excised, pims.mapping,
                  walkthrough_options=directed)
        )
        assert len(tracker.report.passed_scenarios) == 8
        result = assert_equals_full(
            tracker,
            lambda: Sosae(pims.scenarios, excised.clone(), pims.mapping),
        )
        assert result.carried_over == ()
        assert result.reused_stages == ()
        assert len(result.report.passed_scenarios) == 16

    def test_the_graphs_built_to_answer_reach_the_index_counters(self, pims):
        tracker = tracker_for(pims_sosae(pims, pims.architecture))
        evolved = pims_sosae(pims, pims.excised_architecture())
        before = evolved.index.stats()
        recorder = Recorder()
        with use(recorder):
            result = reevaluate(tracker, evolved)
        after = evolved.index.stats()
        assert result.rewalked
        assert after.misses > before.misses
        assert recorder.metrics.value("index.misses") == (
            after.misses - before.misses
        )
        assert recorder.metrics.value("index.hits") == (
            after.hits - before.hits
        )


class TestDependencyTracker:
    def test_excision_dirty_set_is_exact(self, pims):
        tracker = tracker_for(pims_sosae(pims, pims.architecture))
        result = reevaluate(
            tracker, pims_sosae(pims, pims.excised_architecture())
        )
        # Only the scenario family whose moves crossed the excised
        # adjacency gets another answer: no widening to neighbors.
        assert GET_SHARE_PRICES in result.rewalked
        assert all(
            name.startswith(GET_SHARE_PRICES) for name in result.rewalked
        )

    def test_noop_diff_dirties_nothing(self, pims):
        tracker = tracker_for(pims_sosae(pims, pims.architecture))
        same = pims.architecture.clone("same")
        assert reevaluate(tracker, pims_sosae(pims, same)).rewalked == ()

    def test_mapping_edit_dirties_consulted_scenarios_only(
        self, small_scenarios, small_ontology, chain_architecture, chain_mapping
    ):
        tracker = tracker_for(
            Sosae(small_scenarios, chain_architecture, chain_mapping)
        )
        edited = Mapping(small_ontology, chain_architecture)
        edited.map_event("create", "logic", "store")
        edited.map_event("destroy", "logic")  # retargeted
        edited.map_event("notify", "ui")
        same = chain_architecture.clone("same")
        result = assert_equals_full(
            tracker, lambda: Sosae(small_scenarios, same, edited)
        )
        # Only drop-widget resolves through 'destroy'.
        assert result.rewalked == ("drop-widget",)

    def test_questions_follow_the_walk(
        self, small_scenarios, chain_architecture, chain_mapping
    ):
        report = Sosae(
            small_scenarios, chain_architecture, chain_mapping
        ).evaluate()
        verdict = report.verdict("make-widget")
        assert walk_questions(verdict, WalkthroughOptions()) == (
            ("resolution", "create"),
            ("chain", "create"),
            ("resolution", "notify"),
            ("move", ("logic", "store"), ("ui",)),
        )
        assert walk_questions(
            verdict,
            WalkthroughOptions(
                check_inter_event=False, check_intra_event_chain=False
            ),
        ) == (("resolution", "create"), ("resolution", "notify"))

    def test_a_move_naming_a_lost_component_answers_changed(
        self, chain_architecture, chain_mapping
    ):
        engine = WalkthroughEngine(chain_architecture, chain_mapping)
        with engine.session():
            known = ("move", ("ui",), ("store",))
            assert engine.answer(known) == engine.answer(known)
            lost = ("move", ("ui",), ("vault",))
            assert engine.answer(lost) != engine.answer(lost)

    def test_a_removal_that_moves_a_chains_break(
        self, small_scenarios, small_ontology, chain_architecture
    ):
        """A failing intra-event chain records the hops that held before
        its break: removing one moves the break, so the finding."""
        architecture = chain_architecture.clone("islanded")
        architecture.add_component("island")
        mapping = Mapping(small_ontology, architecture)
        mapping.map_event("create", "logic", "store")
        mapping.map_event("destroy", "ui", "logic", "island")
        mapping.map_event("notify", "ui")
        tracker = tracker_for(Sosae(small_scenarios, architecture, mapping))
        evolved = architecture.clone("evolved")
        assert evolved.excise_links_between("ui", "ui-logic")
        result = assert_equals_full(
            tracker, lambda: Sosae(small_scenarios, evolved, mapping)
        )
        assert "drop-widget" in result.rewalked

    def test_tracker_parity_on_pims_excision(self, pims):
        tracker = tracker_for(
            pims_sosae(pims, pims.architecture, pims.constraints)
        )
        evolved = pims.excised_architecture()
        assert_equals_full(
            tracker, lambda: pims_sosae(pims, evolved, pims.constraints)
        )


class TestNestedMove:
    """Moving a mapped nested component to another top-level component
    leaves the top-level structure — and so the diff — unchanged, but
    re-targets every event type whose entry names it."""

    @pytest.fixture
    def versions(self, nested_vault):
        system = build_synthetic(
            SyntheticSpec(seed=0, scenarios=40, components=6)
        )
        return (
            system,
            nested_vault(system, "component-0"),
            nested_vault(system, "annex"),
        )

    def test_moved_entries_dirty_the_scenarios_resolving_through_them(
        self, versions
    ):
        system, (architecture, mapping), (moved, moved_mapping) = versions
        tracker = tracker_for(Sosae(system.scenarios, architecture, mapping))
        assert diff_architectures(architecture, moved).is_empty
        naming_vault = {
            event_type
            for event_type, components in mapping.entries.items()
            if "vault" in components
        }
        assert naming_vault
        result = reevaluate(
            tracker, Sosae(system.scenarios, moved, moved_mapping)
        )
        assert set(result.rewalked) == {
            scenario.name
            for scenario in system.scenarios
            if naming_vault & {event.type_name for event in scenario.events}
        }

    def test_crash_move_with_the_mapping_of_the_old_architecture(self):
        """CRASH's nested Communication Manager moved from the Police to
        the Fire Department command and control, evaluated with the
        mapping written for the old architecture."""
        crash = build_crash()

        def pipeline(architecture):
            return Sosae(
                crash.scenarios,
                architecture,
                crash.mapping,
                walkthrough_options=crash.options,
            )

        tracker = tracker_for(pipeline(crash.architecture))
        moved = crash.architecture.clone("moved")
        police = moved.component("Police Department Command and Control")
        # No public removal: take it out of the subarchitecture directly.
        manager = police.subarchitecture._components.pop(
            "Communication Manager"
        )
        inside = Architecture("fire-inside")
        inside._components[manager.name] = manager
        moved.component(
            "Fire Department Command and Control"
        ).subarchitecture = inside
        result = assert_equals_full(tracker, lambda: pipeline(moved))
        assert result.rewalked

    def test_reevaluation_equals_the_full_report(self, versions):
        system, (architecture, mapping), (moved, moved_mapping) = versions
        tracker = tracker_for(Sosae(system.scenarios, architecture, mapping))
        result = assert_equals_full(
            tracker, lambda: Sosae(system.scenarios, moved, moved_mapping)
        )
        # The vault now sits inside the unlinked annex: its scenarios
        # fail, and the coverage findings (annex mapped, component-0
        # not) are recomputed.
        assert tracker.report.consistent is not result.report.consistent
        assert result.report.failed_scenarios
        assert "coverage" not in result.reused_stages


class TestFindingsRefresh:
    def test_carried_findings_equal_a_full_evaluation(
        self, small_scenarios, chain_architecture, chain_mapping
    ):
        # ui reaches store through the chain, so this constraint is
        # violated in the *previous* report already.
        constraints = (MustNotCommunicate("ui", "store"),)
        tracker = tracker_for(
            Sosae(
                small_scenarios,
                chain_architecture,
                chain_mapping,
                constraints=constraints,
            )
        )
        assert any(
            "MustNotCommunicate" in f.message for f in tracker.report.findings
        )
        same = chain_architecture.clone("same")
        # A no-op diff reuses the validation and coverage findings;
        # every finding, carried or recomputed, reads as a full
        # evaluation's.
        result = assert_equals_full(
            tracker,
            lambda: Sosae(
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
        tracker = tracker_for(
            Sosae(
                small_scenarios,
                chain_architecture,
                chain_mapping,
                constraints=constraints,
            )
        )
        assert not any(
            f.kind.name == "CONSTRAINT_VIOLATION"
            for f in tracker.report.findings
        )
        evolved = chain_architecture.clone("evolved")
        evolved.excise_links_between("logic", "logic-store")
        result = assert_equals_full(
            tracker,
            lambda: Sosae(
                small_scenarios,
                evolved,
                chain_mapping.rebind(evolved),
                constraints=constraints,
            ),
        )
        # The excision breaks ui -> store; constraints are always
        # recomputed, so the new violation appears.
        assert "constraints" not in result.reused_stages
        assert any(
            "RequiresPath" in f.message for f in result.report.findings
        )


def _mutate(system, kind: str, rng: random.Random, nested_vault):
    """One random single edit: ``((architecture, mapping), (evolved,
    evolved_mapping))``, the versions before and after it."""
    before = (system.architecture, system.mapping)
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
    elif kind == "port-link-add":
        # Existing interfaces: no interface changes, only a new and
        # possibly shorter path between the two components.
        first, second = rng.sample(
            [c.name for c in architecture.components], 2
        )
        architecture.link((first, "port"), (second, "port"))
    elif kind == "link-redeclare":
        # The same link, declared last: the diff is empty, but path
        # search breaks ties in declaration order.
        link = rng.choice(architecture.links[:-1])
        architecture.remove_link(link.name)
        architecture.link(
            (link.first.element, link.first.interface),
            (link.second.element, link.second.interface),
            name=f"{link.name}-redeclared",
        )
    elif kind == "component-excision":
        component = rng.choice(architecture.components)
        architecture.excise_links_between(component.name, "bus")
    elif kind == "mapping-change":
        mapping = Mapping(system.ontology, architecture)
        entries = system.mapping.entries
        retarget = rng.choice(sorted(entries))
        for name, components in entries.items():
            if name == retarget:
                components = tuple(
                    rng.sample(
                        [c.name for c in architecture.components],
                        len(components),
                    )
                )
            mapping.map_event(name, *components)
    elif kind == "nested-move":
        host, destination = rng.sample(
            [c.name for c in architecture.components] + ["annex"], 2
        )
        return nested_vault(system, host), nested_vault(system, destination)
    else:  # pragma: no cover - guard against typos in the param list
        raise AssertionError(kind)
    return before, (architecture, mapping.rebind(architecture))


def changed_verdicts(before, after) -> frozenset[str]:
    """The scenarios whose verdict documents differ between two
    reports: the brute-force dirty set."""
    documents = {
        document["scenario"]: document
        for document in report_to_dict(before)["scenario_verdicts"]
    }
    return frozenset(
        document["scenario"]
        for document in report_to_dict(after)["scenario_verdicts"]
        if documents.get(document["scenario"]) != document
    )


class TestTrackerParityProperties:
    """Seeded synthetic systems x random single edits: the tracker path
    must reproduce the from-scratch pipeline's report exactly."""

    EDITS = (
        "link-remove",
        "link-add",
        "port-link-add",
        "link-redeclare",
        "component-excision",
        "mapping-change",
        "nested-move",
    )

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("edit", EDITS)
    def test_single_edit_parity(self, seed, edit, nested_vault):
        system = build_synthetic(SyntheticSpec(seed=seed, scenarios=8))
        rng = random.Random(seed * 1000 + zlib.crc32(edit.encode()) % 997)
        (architecture, mapping), (evolved, evolved_mapping) = _mutate(
            system, edit, rng, nested_vault
        )
        tracker = tracker_for(Sosae(system.scenarios, architecture, mapping))
        assert_equals_full(
            tracker, lambda: Sosae(system.scenarios, evolved, evolved_mapping)
        )

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("edit", EDITS)
    def test_dirty_set_equals_the_scan(self, seed, edit, nested_vault):
        """The re-walked scenarios are exactly those whose verdicts a
        full evaluation of the edited pipeline changes."""
        system = build_synthetic(SyntheticSpec(seed=seed, scenarios=8))
        rng = random.Random(seed * 1000 + zlib.crc32(edit.encode()) % 997)
        (architecture, mapping), (evolved, evolved_mapping) = _mutate(
            system, edit, rng, nested_vault
        )
        tracker = tracker_for(Sosae(system.scenarios, architecture, mapping))
        result = reevaluate(
            tracker, Sosae(system.scenarios, evolved, evolved_mapping)
        )
        full = Sosae(system.scenarios, evolved, evolved_mapping).evaluate()
        assert set(result.rewalked) == changed_verdicts(tracker.report, full)

    @pytest.mark.parametrize("seed", range(3))
    def test_noop_diff_carries_everything(self, seed):
        system = build_synthetic(SyntheticSpec(seed=seed, scenarios=8))
        tracker = tracker_for(
            Sosae(system.scenarios, system.architecture, system.mapping)
        )
        same = system.architecture.clone("same")
        result = reevaluate(
            tracker,
            Sosae(system.scenarios, same, system.mapping.rebind(same)),
        )
        assert result.rewalked == ()
        assert result.savings == 1.0
        assert result.report.consistent == tracker.report.consistent

    @pytest.mark.parametrize("seed", range(3))
    def test_everything_changed_still_matches(self, seed):
        system = build_synthetic(SyntheticSpec(seed=seed, scenarios=8))
        tracker = tracker_for(
            Sosae(system.scenarios, system.architecture, system.mapping)
        )
        evolved = system.architecture.clone("gutted")
        for component in evolved.components:
            evolved.excise_links_between(component.name, "bus")
        result = assert_equals_full(
            tracker,
            lambda: Sosae(
                system.scenarios, evolved, system.mapping.rebind(evolved)
            ),
        )
        # Disconnecting every component dirties every scenario.
        assert set(result.rewalked) == {
            s.name for s in system.scenarios
        }
