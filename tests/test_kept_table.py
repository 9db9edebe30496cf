"""The walkthrough engine's step table, kept across evaluations.

An engine keeps its step table (and the compiled suite in it) between
sessions under a key of everything the table depends on: the mapping
and its ``version``, the ontology and its ``version``, the index's
structural fingerprint and the options; the suite is keyed by the
scenario set, its ``version`` and its ontology's ``version``. These
tests hold a kept table to the fresh one it stands in for:

* after each kind of edit between two evaluations, the report equals
  a fresh pipeline's, byte for byte;
* evaluating one pipeline five times, observed or not, gives what a
  fresh pipeline gives each time: report bytes, the scenario spans'
  ``cost.*`` attributes, the walk's counters, the event payloads and
  the coverage digest;
* an interrupted evaluation leaves nothing behind that the next one
  reads wrongly, alternating scenario sets keeps one suite's events,
  and an index that does not memoize keeps no table.
"""

from __future__ import annotations

import dataclasses
from dataclasses import fields

import pytest

import repro.scenarioml.validation as validation_module
from repro.adl.index import CommunicationIndex
from repro.core.evaluator import Sosae
from repro.core.report_io import report_to_json
from repro.core.walkthrough import WalkthroughEngine
from repro.obs import EventBus, Recorder, instrumented
from repro.scenarioml.events import TypedEvent
from repro.scenarioml.ontology import Parameter
from repro.scenarioml.scenario import Scenario, ScenarioSet
from repro.sim.network import ChannelPolicy
from repro.sim.runtime import RuntimeConfig
from repro.systems.crash import build_crash
from repro.systems.generators import SyntheticSpec, build_synthetic
from repro.systems.pims import (
    DATA_ACCESS,
    DATA_BUS,
    DATA_REPOSITORY,
    LOADER,
    build_pims,
    excise_data_access_loader_link,
)

# ----------------------------------------------------------------------
# Pipelines
# ----------------------------------------------------------------------


@dataclasses.dataclass
class Inputs:
    """One copy of a pipeline's inputs, and how to evaluate it."""

    scenarios: ScenarioSet
    architecture: object
    mapping: object
    options: object
    constraints: tuple = ()
    bindings: object = None
    runtime_config: object = None
    include_dynamic: bool = False

    def sosae(self) -> Sosae:
        return Sosae(
            self.scenarios,
            self.architecture,
            self.mapping,
            constraints=self.constraints,
            bindings=self.bindings,
            walkthrough_options=self.options,
            runtime_config=self.runtime_config,
        )

    def evaluate(self, sosae: Sosae):
        return sosae.evaluate(include_dynamic=self.include_dynamic)


def _pims(excised: bool = False, copies: int = 1) -> Inputs:
    pims = build_pims()
    architecture = pims.architecture
    if excised:
        architecture = excise_data_access_loader_link(architecture)
    scenarios = pims.scenarios
    if copies > 1:
        scenarios = ScenarioSet(pims.ontology, name=f"pims-x{copies}")
        scenarios.extend(pims.scenarios)
        for index in range(1, copies):
            scenarios.extend(
                dataclasses.replace(scenario, name=f"{scenario.name}+r{index}")
                for scenario in pims.scenarios
                if scenario.alternative_of is None
            )
    return Inputs(
        scenarios,
        architecture,
        pims.mapping.rebind(architecture),
        pims.options,
        constraints=pims.constraints,
    )


def _crash_dynamic() -> Inputs:
    crash = build_crash()
    return Inputs(
        crash.scenarios,
        crash.architecture,
        crash.mapping,
        crash.options,
        bindings=crash.bindings,
        runtime_config=RuntimeConfig(
            policy=ChannelPolicy(latency=1.0, failure_detection=True)
        ),
        include_dynamic=True,
    )


def _synthetic_800() -> Inputs:
    system = build_synthetic(SyntheticSpec(
        scenarios=800, events_per_scenario=8, components=15,
        event_types=60, components_per_event_type=3, reuse=1.0, seed=0,
    ))
    return Inputs(
        system.scenarios, system.architecture, system.mapping, None
    )


SYSTEMS = {
    "pims-intact": _pims,
    "pims-excised": lambda: _pims(excised=True),
    "pims-x40": lambda: _pims(excised=True, copies=40),
    "crash-dynamic": _crash_dynamic,
    "synthetic-800": _synthetic_800,
}

#: Event fields that time the run rather than describe it.
_TIMING_FIELDS = frozenset({"seq", "timestamp", "wall_seconds"})


def _spans(roots):
    stack = list(reversed(roots))
    while stack:
        span = stack.pop()
        yield span
        stack.extend(reversed(span.children))


def _observed(inputs: Inputs, sosae: Sosae) -> dict:
    """One evaluation under a live recorder and event bus (the
    evaluation finalizes its coverage matrix onto the recorder)."""
    recorder, bus = Recorder(), EventBus()
    with instrumented(recorder=recorder, events=bus):
        report = inputs.evaluate(sosae)
    return {
        "report": report_to_json(report),
        "costs": [
            (
                span.attributes["scenario"],
                {
                    name: value
                    for name, value in span.attributes.items()
                    if name.startswith("cost.")
                },
            )
            for span in _spans(recorder.roots)
            if span.name == "walkthrough.scenario"
        ],
        "counters": {
            name: recorder.metrics.value(name)
            for name in recorder.metrics.names()
            if name.startswith("walkthrough.")
            and name != "walkthrough.scenario_seconds"
        },
        "events": [
            (
                event.kind,
                {
                    spec.name: getattr(event, spec.name)
                    for spec in fields(event)
                    if spec.name not in _TIMING_FIELDS
                },
            )
            for event in bus.events()
        ],
        "coverage": recorder.coverage.digest,
    }


def _unobserved(inputs: Inputs, sosae: Sosae) -> dict:
    return {"report": report_to_json(inputs.evaluate(sosae))}


# ----------------------------------------------------------------------
# Repeated evaluations
# ----------------------------------------------------------------------


class TestRepeatedEvaluations:
    """One pipeline evaluated five times against a fresh pipeline per
    evaluation. Each side has its own copy of the inputs, so both
    communication indexes have seen the same number of evaluations and
    ``cost.bfs_expansions`` compares like with like."""

    @pytest.mark.parametrize("observe", [False, True],
                             ids=["unobserved", "observed"])
    @pytest.mark.parametrize("system", sorted(SYSTEMS))
    def test_each_run_equals_a_fresh_pipeline(self, system, observe):
        run = _observed if observe else _unobserved
        kept_inputs, fresh_inputs = SYSTEMS[system](), SYSTEMS[system]()
        kept = kept_inputs.sosae()
        for attempt in range(5):
            expected = run(fresh_inputs, fresh_inputs.sosae())
            assert run(kept_inputs, kept) == expected, attempt
        assert kept.engine._kept is not None


# ----------------------------------------------------------------------
# Edits between evaluations
# ----------------------------------------------------------------------


def _add_scenario(pims, sosae):
    used = pims.scenarios.scenarios[0].events[0]
    pims.scenarios.add(Scenario(
        name="audit-trail",
        events=(
            dataclasses.replace(used, label="a1"),
            TypedEvent(type_name="never-defined", label="a2"),
        ),
    ))


def _use_undefined_type(pims, sosae):
    pims.scenarios.add(Scenario(
        name="audit-data",
        events=(TypedEvent(type_name="auditData", label="d1"),),
    ))


def _define_the_type(pims, sosae):
    # A subtype of saveData: it renders, validates and resolves through
    # its supertype's mapping entry now.
    pims.ontology.define_event_type(
        "auditData", text="Audit the saved data", super_name="saveData"
    )


def _use_a_typed_parameter(pims, sosae):
    pims.ontology.define_event_type(
        "inspectPortfolio",
        text="Inspect [target]",
        parameters=[Parameter("target", "Portfolio")],
    )
    pims.mapping.map_event("inspectPortfolio", DATA_ACCESS)
    pims.scenarios.add(Scenario(
        name="inspect",
        events=(TypedEvent(
            type_name="inspectPortfolio",
            arguments={"target": "ledger"},
            label="i1",
        ),),
    ))


def _make_the_literal_an_individual(pims, sosae):
    # "ledger" was a literal; as an Investment it no longer conforms.
    pims.ontology.define_instance("ledger", "Investment")


def _unmap_save(pims, sosae):
    pims.mapping.unmap_event("saveData")


def _map_save(pims, sosae):
    pims.mapping.map_event("saveData", LOADER, DATA_ACCESS, DATA_REPOSITORY)


def _update_save_reversed(pims, sosae):
    pims.mapping.update({"saveData": (DATA_REPOSITORY, DATA_ACCESS, LOADER)})


def _remove_a_link(pims, sosae):
    assert pims.architecture.excise_links_between(LOADER, DATA_BUS)


def _swap_options(pims, sosae):
    sosae.walkthrough_options = sosae.engine.options = dataclasses.replace(
        pims.options, inter_event_respect_directions=True
    )


def _nothing(pims, sosae):
    pass


#: (setup before the first evaluation, edit between the two); each is
#: called with the system and the pipeline (``None`` for the setup).
EDITS = {
    "scenario-set-add": (_nothing, _add_scenario),
    "ontology-add-event-type": (_use_undefined_type, _define_the_type),
    "ontology-add-instance": (
        _use_a_typed_parameter, _make_the_literal_an_individual
    ),
    "mapping-map-event": (_unmap_save, _map_save),
    "mapping-unmap-event": (_nothing, _unmap_save),
    "mapping-update": (_unmap_save, _update_save_reversed),
    "architecture-link-removal": (_nothing, _remove_a_link),
    "engine-options-swap": (_nothing, _swap_options),
}


class TestEditsBetweenEvaluations:
    @pytest.mark.parametrize("edit", sorted(EDITS))
    def test_the_next_report_equals_a_fresh_pipelines(self, edit):
        setup, change = EDITS[edit]
        pims = build_pims()
        setup(pims, None)

        def pipeline(options):
            return Sosae(
                pims.scenarios,
                pims.architecture,
                pims.mapping,
                constraints=pims.constraints,
                walkthrough_options=options,
            )

        sosae = pipeline(pims.options)
        before = report_to_json(sosae.evaluate())
        assert report_to_json(sosae.evaluate()) == before
        change(pims, sosae)
        after = report_to_json(sosae.evaluate())
        assert after != before
        assert after == report_to_json(
            pipeline(sosae.walkthrough_options).evaluate()
        )


# ----------------------------------------------------------------------
# Robustness
# ----------------------------------------------------------------------


def _interrupt_walk(monkeypatch, sosae):
    calls = []
    walk = WalkthroughEngine._walk_typed_event

    def interrupted(self, *args):
        calls.append(None)
        if len(calls) == 40:
            raise KeyboardInterrupt
        return walk(self, *args)

    monkeypatch.setattr(sosae.engine, "_walk_typed_event",
                        interrupted.__get__(sosae.engine))


def _interrupt_validation(monkeypatch, sosae):
    calls = []
    issues = validation_module._scenario_issues

    def interrupted(*args):
        calls.append(None)
        if len(calls) == 100:
            raise KeyboardInterrupt
        return issues(*args)

    monkeypatch.setattr(validation_module, "_scenario_issues", interrupted)


def _without_bfs(observation: dict) -> dict:
    """The observation minus ``cost.bfs_expansions``, which depends on
    how warm the index is, and an interrupted run warms it part way."""
    return {
        **observation,
        "costs": [
            (name, {k: v for k, v in cost.items()
                    if k != "cost.bfs_expansions"})
            for name, cost in observation.get("costs", ())
        ],
    }


class TestRobustness:
    @pytest.mark.parametrize("observe", [False, True],
                             ids=["unobserved", "observed"])
    @pytest.mark.parametrize("interrupt", [_interrupt_walk,
                                           _interrupt_validation],
                             ids=["walk", "validation"])
    def test_an_interrupted_evaluation_leaves_a_fresh_next_one(
        self, monkeypatch, interrupt, observe
    ):
        run = _observed if observe else _unobserved
        inputs = _pims(excised=True, copies=10)
        fresh = _pims(excised=True, copies=10)
        sosae = inputs.sosae()
        with monkeypatch.context() as patch:
            interrupt(patch, sosae)
            with pytest.raises(KeyboardInterrupt):
                run(inputs, sosae)
        assert sosae.engine._table is None
        assert _without_bfs(run(inputs, sosae)) == _without_bfs(
            run(fresh, fresh.sosae())
        )

    def test_alternating_scenario_sets_keep_one_suites_renderings(self):
        first, second = build_pims(), build_pims()
        engine = WalkthroughEngine(
            first.architecture, first.mapping, first.options
        )
        for scenario_set in (first.scenarios, second.scenarios,
                             first.scenarios):
            verdicts = engine.walk_all(scenario_set)
            fresh = WalkthroughEngine(
                first.architecture, first.mapping, first.options
            ).walk_all(scenario_set)
            assert verdicts == fresh
            events = {
                id(event)
                for scenario in scenario_set
                for event in engine._kept._suite.scenario(
                    scenario.name
                ).typed_events
            }
            kept = engine._kept.renderings
            assert kept and {id(event) for event, _ in kept.values()} <= events

    def test_an_unmemoized_index_keeps_no_table(self):
        pims = build_pims()
        architecture = pims.architecture

        def engine():
            return WalkthroughEngine(
                architecture, pims.mapping, pims.options,
                index=CommunicationIndex(architecture, memoize=False),
            )

        unmemoized = engine()
        assert all(v.passed for v in unmemoized.walk_all(pims.scenarios))
        assert unmemoized._kept is None
        assert architecture.excise_links_between(LOADER, DATA_BUS)
        verdicts = unmemoized.walk_all(pims.scenarios)
        assert unmemoized._kept is None
        assert not all(v.passed for v in verdicts)
        assert verdicts == engine().walk_all(pims.scenarios)
