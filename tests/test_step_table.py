"""The walkthrough engine's step table: per-type answers for one session.

The table answers mapping resolution, the intra-event chain and the
inter-event witness path once per event type (or pair of component
groups) instead of once per occurrence. These tests hold it to the
per-step walk it replaces:

* a differential check against a reference walker written here, which
  resolves every step through the mapping and asks an uncached
  :class:`CommunicationIndex` every connectivity question;
* a session-scope check: an edit between two evaluations is seen;
* the per-scenario ``cost.*`` span attributes, which must not depend on
  which scenario met an event type first.
"""

from __future__ import annotations

import random

import pytest

from repro.adl.index import CommunicationIndex
from repro.core.consistency import InconsistencyKind, Severity
from repro.core.evaluator import Sosae
from repro.core.report_io import report_to_json
from repro.core.walkthrough import WalkthroughEngine, WalkthroughOptions
from repro.obs.instruments import instrumented
from repro.obs.provenance import (
    EventContext,
    IndexQuery,
    MappingResolution,
    Provenance,
)
from repro.obs.recorder import Recorder
from repro.obs.runs import scenario_costs
from repro.scenarioml.events import SimpleEvent, TypedEvent
from repro.scenarioml.scenario import Scenario, ScenarioSet
from repro.systems.crash import build_crash
from repro.systems.generators import SyntheticSpec, build_synthetic
from repro.systems.pims import (
    DATA_BUS,
    DATA_REPOSITORY,
    LOADER,
    build_pims,
    excise_data_access_loader_link,
)

_MOVE_CONCLUSION = (
    "the scenario's focus cannot move from the previous event's "
    "components to this event's components: a link the requirements "
    "assume is missing from the architecture"
)
_CHAIN_CONCLUSION = (
    "the event's high-level action decomposes into low-level actions "
    "flowing through its mapped components in order, and that chain is "
    "broken"
)
_UNMAPPED_CONCLUSION = (
    "no mapping entry answers for the event type or any of its "
    "supertypes; the walkthrough cannot place the event in the "
    "architecture"
)
_SIMPLE_CONCLUSION = (
    "the event is free text with no ontology event type, so no mapping "
    "entry can place it; the step is skipped"
)


class ReferenceWalker:
    """The per-step walk: every step resolves its event type through
    the mapping and asks an uncached index each connectivity question.
    Yields, per trace, its steps as ``(event_rendering, components,
    path, ok, note)`` and its findings as comparable tuples."""

    def __init__(self, architecture, mapping, options: WalkthroughOptions):
        self.mapping = mapping.rebind(architecture)
        self.index = CommunicationIndex(architecture, memoize=False)
        self.options = options

    def walk(self, scenario, scenario_set):
        traces = scenario_set.traces(
            scenario.name, self.options.trace_options
        )
        return [
            self._trace(scenario, index, trace)
            for index, trace in enumerate(traces)
        ]

    def _trace(self, scenario, trace_index, trace):
        options, mapping = self.options, self.mapping
        steps, findings = [], []
        previous = None
        for position, event in enumerate(trace):

            def finding(kind, message, conclusion, resolution, **fields):
                context = EventContext(
                    scenario=scenario.name,
                    trace_index=trace_index,
                    event_index=position,
                    event_label=event.label,
                    event_rendering=rendering,
                )
                findings.append((
                    kind,
                    message,
                    fields.get("elements", ()),
                    fields.get("severity", Severity.ERROR),
                    scenario.name,
                    event.label,
                    Provenance(
                        conclusion=conclusion,
                        event=context,
                        resolution=resolution,
                        queries=fields.get("queries", ()),
                    ),
                ))

            if isinstance(event, SimpleEvent):
                rendering = event.text
                policy = options.simple_event_policy
                steps.append((
                    rendering, (), None, policy != "error",
                    "natural-language event; skipped",
                ))
                if policy != "ignore":
                    finding(
                        InconsistencyKind.UNMAPPED_EVENT,
                        f"natural-language event {event.text!r} cannot be "
                        "mapped (no ontology event type)",
                        _SIMPLE_CONCLUSION,
                        MappingResolution(event_type=None),
                        severity=_severity(policy),
                    )
                continue
            rendering = event.render(mapping.ontology)
            components, hops = mapping.resolution_for(event.type_name)
            if not components:
                policy = options.unmapped_event_policy
                steps.append((
                    rendering, (), None, policy != "error",
                    "unmapped event type",
                ))
                if policy != "ignore":
                    finding(
                        InconsistencyKind.UNMAPPED_EVENT,
                        f"event type {event.type_name!r} maps to no "
                        "component",
                        _UNMAPPED_CONCLUSION,
                        MappingResolution(
                            event_type=event.type_name, hops=hops
                        ),
                        severity=_severity(policy),
                    )
                continue
            tops = []
            for component in components:
                top = mapping.top_level_component(component)
                if top not in tops:
                    tops.append(top)
            tops = tuple(tops)
            resolution = MappingResolution(
                event_type=event.type_name,
                hops=hops,
                entry_components=components,
                components=tops,
            )
            path, ok, note = None, True, ""
            if options.check_inter_event and previous:
                path = self.index.best_path_between(
                    previous,
                    tops,
                    respect_directions=options.inter_event_directed,
                )
                if path is None:
                    ok = False
                    note = (
                        "no communication path from previous event's "
                        "components"
                    )
                    finding(
                        InconsistencyKind.MISSING_LINK,
                        f"components of event {event.type_name!r} "
                        f"({', '.join(tops)}) are unreachable from the "
                        f"previous event's components "
                        f"({', '.join(previous)})",
                        _MOVE_CONCLUSION,
                        resolution,
                        elements=(*previous, *tops),
                        queries=(
                            IndexQuery(
                                operation="best_path_between",
                                sources=previous,
                                targets=tops,
                                respect_directions=(
                                    options.inter_event_directed
                                ),
                            ),
                        ),
                    )
            if ok and options.check_intra_event_chain and len(tops) > 1:
                queries = []
                for source, target in zip(tops, tops[1:]):
                    found = self.index.can_communicate(
                        source,
                        target,
                        respect_directions=options.intra_event_directed,
                    )
                    queries.append(
                        IndexQuery(
                            operation="can_communicate",
                            sources=(source,),
                            targets=(target,),
                            respect_directions=options.intra_event_directed,
                            found=found,
                        )
                    )
                    if not found:
                        ok = False
                        note = (
                            f"no path within event from {source!r} to "
                            f"{target!r}"
                        )
                        finding(
                            InconsistencyKind.MISSING_LINK,
                            f"event {event.type_name!r} requires data to "
                            f"flow {' -> '.join(tops)}, but {source!r} "
                            f"cannot reach {target!r}",
                            _CHAIN_CONCLUSION,
                            resolution,
                            elements=(source, target),
                            queries=tuple(queries),
                        )
                        break
            steps.append((rendering, tops, path, ok, note))
            previous = tops
        return steps, findings


def _severity(policy: str) -> Severity:
    return Severity.ERROR if policy == "error" else Severity.WARNING


def _observed(trace):
    steps = [
        (step.event_rendering, step.components, step.path, step.ok, step.note)
        for step in trace.steps
    ]
    findings = [
        (
            finding.kind,
            finding.message,
            finding.elements,
            finding.severity,
            finding.scenario,
            finding.event_label,
            finding.provenance,
        )
        for finding in trace.inconsistencies
    ]
    return steps, findings


def assert_matches_reference(scenario_set, architecture, mapping, options):
    engine = WalkthroughEngine(architecture, mapping, options)
    verdicts = engine.walk_all(scenario_set)
    reference = ReferenceWalker(architecture, mapping, options)
    failing = 0
    for scenario, verdict in zip(scenario_set, verdicts):
        expected = reference.walk(scenario, scenario_set)
        observed = [_observed(trace) for trace in verdict.traces]
        assert observed == expected, scenario.name
        failing += sum(1 for steps, _ in expected for step in steps if not step[3])
    return failing


def _resolve_destroy_through_its_supertype(mapping) -> None:
    mapping.unmap_event("destroy")
    mapping.map_event("act", "logic", "store")


def _damaged_synthetic(seed: int):
    """A generated system with one seeded link removed and one event type
    the scenarios use unmapped."""
    system = build_synthetic(
        SyntheticSpec(
            scenarios=12,
            components_per_event_type=1 + seed % 3,
            seed=seed,
        )
    )
    rng = random.Random(seed)
    architecture, mapping = system.architecture, system.mapping
    architecture.remove_link(
        rng.choice(sorted(link.name for link in architecture.links))
    )
    mapping.unmap_event(
        rng.choice(sorted(system.scenarios.event_type_names()))
    )
    return system.scenarios, architecture, mapping


class TestDifferential:
    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("seed", range(10))
    def test_generated_systems(self, seed, directed):
        scenarios, architecture, mapping = _damaged_synthetic(seed)
        options = WalkthroughOptions(respect_directions=directed)
        assert_matches_reference(scenarios, architecture, mapping, options)

    def test_generated_systems_break_moves_chains_and_mappings(self):
        notes = set()
        for seed in range(10):
            scenarios, architecture, mapping = _damaged_synthetic(seed)
            engine = WalkthroughEngine(architecture, mapping)
            notes.update(
                " ".join(step.note.split()[:3])
                for verdict in engine.walk_all(scenarios)
                for trace in verdict.traces
                for step in trace.steps
            )
        assert {
            "unmapped event type",
            "no communication path",
            "no path within",
        } <= notes

    @pytest.mark.parametrize("directed", [False, True])
    def test_directed_chain_with_supertype_and_simple_events(
        self, small_scenarios, chain_architecture, chain_mapping, directed
    ):
        _resolve_destroy_through_its_supertype(chain_mapping)
        small_scenarios.add(
            Scenario(
                name="reversed",
                events=(
                    TypedEvent(type_name="destroy", label="1"),
                    TypedEvent(type_name="notify", label="2"),
                    TypedEvent(type_name="destroy", label="3"),
                ),
            )
        )
        options = WalkthroughOptions(respect_directions=directed)
        failing = assert_matches_reference(
            small_scenarios, chain_architecture, chain_mapping, options
        )
        assert (failing > 0) == directed

    @pytest.mark.parametrize("excised", [False, True])
    def test_pims(self, excised):
        pims = build_pims()
        architecture = (
            pims.excised_architecture() if excised else pims.architecture
        )
        failing = assert_matches_reference(
            pims.scenarios, architecture, pims.mapping, pims.options
        )
        assert (failing > 0) == excised

    def test_crash(self):
        crash = build_crash()
        assert_matches_reference(
            crash.scenarios, crash.architecture, crash.mapping, crash.options
        )


class TestSessionScope:
    """Edits between two evaluations of one pipeline are seen: the
    second report equals a fresh pipeline's."""

    @staticmethod
    def _pipeline(pims):
        return Sosae(
            pims.scenarios,
            pims.architecture,
            pims.mapping,
            walkthrough_options=pims.options,
        )

    def test_mapping_retarget_between_evaluations(self):
        pims = build_pims()
        sosae = self._pipeline(pims)
        before = report_to_json(sosae.evaluate())
        pims.mapping.unmap_event("saveData")
        pims.mapping.map_event("saveData", DATA_REPOSITORY)
        after = report_to_json(sosae.evaluate())
        assert after != before
        assert after == report_to_json(self._pipeline(pims).evaluate())

    def test_link_removal_between_evaluations(self):
        pims = build_pims()
        sosae = self._pipeline(pims)
        before = report_to_json(sosae.evaluate())
        assert pims.architecture.excise_links_between(LOADER, DATA_BUS)
        after = report_to_json(sosae.evaluate())
        assert after != before
        assert after == report_to_json(self._pipeline(pims).evaluate())

    def test_the_table_lives_only_inside_a_session(self):
        pims = build_pims()
        engine = WalkthroughEngine(
            pims.architecture, pims.mapping, pims.options
        )
        with engine.session():
            with engine.session():
                inner = engine._table
            assert engine._table is inner
        assert engine._table is None


#: Per-scenario (cost.index_queries, cost.bfs_expansions) of a fresh
#: intact PIMS pipeline, as the per-step walk recorded them.
_PIMS_COSTS = {
    "create-portfolio": (1, 1),
    "create-portfolio-alt": (1, 0),
    "get-share-prices": (6, 1),
    "get-share-prices-alt": (3, 0),
    "login": (2, 0),
    "rename-portfolio": (1, 0),
    "delete-portfolio": (3, 0),
    "add-investment": (4, 0),
    "edit-investment": (3, 0),
    "delete-investment": (3, 0),
    "compute-net-worth": (3, 0),
    "compute-rate-of-return": (3, 0),
    "set-alert": (3, 0),
    "review-portfolios": (0, 0),
    "view-investment-value": (3, 0),
    "exit-and-save": (3, 0),
}


def _scenario_costs(reverse: bool = False, excised: bool = False) -> dict:
    """Per-scenario (index queries, graph builds) of one observed
    evaluation of a fresh PIMS pipeline."""
    pims = build_pims()
    scenario_set = pims.scenarios
    if reverse:
        scenario_set = ScenarioSet(pims.ontology, name="pims-reversed")
        scenario_set.extend(reversed(list(pims.scenarios)))
    architecture = pims.architecture
    if excised:
        architecture = excise_data_access_loader_link(architecture)
    recorder = Recorder()
    with instrumented(recorder=recorder):
        Sosae(
            scenario_set,
            architecture,
            pims.mapping,
            walkthrough_options=pims.options,
        ).evaluate()
    return {
        name: (entry["index_queries"], entry["bfs_expansions"])
        for name, entry in scenario_costs(recorder.roots).items()
    }


class TestScenarioCosts:
    def test_pims_costs_match_the_per_step_walk(self):
        assert _scenario_costs() == _PIMS_COSTS
        assert sum(queries for queries, _ in _PIMS_COSTS.values()) == 42

    def test_index_queries_do_not_depend_on_scenario_order(self):
        costs = _scenario_costs(reverse=True)
        assert list(costs) == list(reversed(_PIMS_COSTS))
        assert {name: queries for name, (queries, _) in costs.items()} == {
            name: queries for name, (queries, _) in _PIMS_COSTS.items()
        }
        # Graph builds move to whichever scenario asks first.
        assert sum(builds for _, builds in costs.values()) == 2

    def test_supertype_fallbacks_are_counted_per_occurrence(
        self, small_scenarios, chain_architecture, chain_mapping
    ):
        _resolve_destroy_through_its_supertype(chain_mapping)
        small_scenarios.add(
            Scenario(
                name="destroy-twice",
                events=(
                    TypedEvent(type_name="destroy", label="1"),
                    TypedEvent(type_name="destroy", label="2"),
                ),
            )
        )
        recorder = Recorder()
        with instrumented(recorder=recorder):
            WalkthroughEngine(chain_architecture, chain_mapping).walk_all(
                small_scenarios
            )
        value = recorder.metrics.value
        assert value("walkthrough.supertype_fallbacks") == 3
        assert value("walkthrough.mapping_resolutions") == 5

    def test_excised_pims_counts_the_failed_chain_check(self):
        costs = _scenario_costs(excised=True)
        # The excised link breaks the save event's chain at its first
        # pair, so its second pair is never checked.
        assert costs["get-share-prices"][0] == 5
