"""The compiled view of a scenario set, held by the engine session.

Validation, the walk and the coverage check read each scenario's
events, its traces and the set's event-type names from one
:class:`CompiledSuite` per engine session, and arguments are checked
once per distinct ``(type, arguments)`` binding. These tests hold it
to the per-occurrence code it replaces:

* validation issues equal a reference validator written here, which
  checks every occurrence from scratch, in content and in order;
* compiled traces equal :meth:`ScenarioSet.traces`;
* an edit to the scenario set between two evaluations is seen;
* inside one evaluation, each scenario is compiled and expanded at
  most once, and a scenario incremental re-evaluation carries over is
  never compiled;
* the walk's counters, now added to the registry once per session,
  keep their values.
"""

from __future__ import annotations

import dataclasses
import random
from collections import Counter

import pytest

from repro.core.consistency import InconsistencyKind
from repro.core.evaluator import Sosae
from repro.core.incremental import DependencyTracker, reevaluate
from repro.core.mapping import Mapping
from repro.core.report_io import report_to_json
from repro.errors import (
    ArityError,
    EpisodeCycleError,
    OntologyError,
    UnknownDefinitionError,
)
from repro.obs.instruments import instrumented
from repro.obs.recorder import Recorder
from repro.scenarioml import compiled as compiled_module
from repro.scenarioml.compiled import CompiledSuite
from repro.scenarioml.events import (
    Alternation,
    CompoundEvent,
    Episode,
    Iteration,
    Optional_,
    SimpleEvent,
    TypedEvent,
    parallel,
    sequence,
)
from repro.scenarioml.ontology import Ontology, Parameter
from repro.scenarioml.scenario import Scenario, ScenarioSet, TraceOptions
from repro.scenarioml.validation import (
    validate_scenario,
    validate_scenario_set,
)
from repro.systems.generators import SyntheticSpec, build_synthetic

# ----------------------------------------------------------------------
# The per-occurrence reference validator
# ----------------------------------------------------------------------


def reference_check_arguments(ontology: Ontology, type_name, arguments):
    """Argument conformance, recomputed from the ontology every call."""
    event_type = ontology.event_type(type_name)
    if event_type.abstract:
        raise OntologyError(
            f"abstract event type {type_name!r} cannot be "
            "instantiated directly"
        )
    parameters = {p.name: p for p in ontology.effective_parameters(type_name)}
    missing = sorted(set(parameters) - set(arguments))
    extra = sorted(set(arguments) - set(parameters))
    if missing or extra:
        raise ArityError(
            f"event type {type_name!r} arguments mismatch: "
            f"missing={missing} extra={extra}"
        )
    for name, value in arguments.items():
        parameter = parameters[name]
        if parameter.type_name is None or not ontology.has_instance(value):
            continue
        instance = ontology.instance(value)
        if not ontology.is_subclass_of(instance.type_name, parameter.type_name):
            raise ArityError(
                f"argument {name}={value!r} of event type "
                f"{type_name!r} is a {instance.type_name!r}, "
                f"which is not a {parameter.type_name!r}"
            )


def reference_resolve_episodes(scenario_set: ScenarioSet, name: str):
    resolved: dict[str, None] = {}

    def visit(current, stack):
        for episode in scenario_set.get(current).episodes():
            target = episode.scenario_name
            if target in stack:
                raise EpisodeCycleError(
                    "episode cycle: " + " -> ".join((*stack, target))
                )
            if target not in resolved:
                resolved.setdefault(target)
                visit(target, (*stack, target))

    visit(name, (name,))
    return tuple(resolved)


def reference_validate_scenario(scenario, ontology, scenario_set=None):
    """``(severity, scenario, message, label)`` per issue, walking the
    scenario's event tree and checking every typed event from scratch."""
    issues = []
    for event in scenario.all_events():
        if isinstance(event, TypedEvent):
            if not ontology.has_event_type(event.type_name):
                issues.append((
                    "error", scenario.name,
                    f"typed event references unknown event type "
                    f"{event.type_name!r}",
                    event.label,
                ))
                continue
            try:
                reference_check_arguments(
                    ontology, event.type_name, dict(event.arguments)
                )
            except (ArityError, OntologyError) as error:
                issues.append(("error", scenario.name, str(error), event.label))
        elif isinstance(event, Episode):
            if scenario_set is not None and event.scenario_name not in scenario_set:
                issues.append((
                    "error", scenario.name,
                    f"episode references unknown scenario "
                    f"{event.scenario_name!r}",
                    event.label,
                ))
    for actor in scenario.actors:
        if not (ontology.has_instance(actor) or ontology.has_instance_type(actor)):
            issues.append((
                "warning", scenario.name,
                f"actor {actor!r} is not defined in the ontology", None,
            ))
    return issues


def reference_validate_set(scenario_set: ScenarioSet):
    issues = []
    try:
        scenario_set.ontology.validate()
    except (OntologyError, UnknownDefinitionError) as error:
        issues.append(("error", "<ontology>", str(error), None))
    for scenario in scenario_set:
        issues.extend(
            reference_validate_scenario(
                scenario, scenario_set.ontology, scenario_set
            )
        )
        if scenario.alternative_of and scenario.alternative_of not in scenario_set:
            issues.append((
                "error", scenario.name,
                f"alternative_of references unknown scenario "
                f"{scenario.alternative_of!r}",
                None,
            ))
        try:
            reference_resolve_episodes(scenario_set, scenario.name)
        except EpisodeCycleError as error:
            issues.append(("error", scenario.name, str(error), None))
        except UnknownDefinitionError:
            pass
    return issues


def as_tuples(issues):
    return [
        (issue.severity.value, issue.scenario_name, issue.message,
         issue.event_label)
        for issue in issues
    ]


# ----------------------------------------------------------------------
# Fixtures
# ----------------------------------------------------------------------


def invalid_suite() -> ScenarioSet:
    """One of every validation problem, with one bad binding repeated
    across scenarios and labels."""
    ontology = Ontology("invalid")
    ontology.define_instance_type("Person")
    ontology.define_instance_type("Robot")
    ontology.define_instance_type("Android", super_name="Robot")
    ontology.define_instance("ann", "Person")
    ontology.define_instance("r2", "Android")
    ontology.define_event_type(
        "greet", "greet [who]", parameters=[Parameter("who", "Person")]
    )
    ontology.define_event_type(
        "serve", "serve [who] with [what]",
        parameters=[Parameter("who", "Robot"), "what"],
    )
    ontology.define_event_type("act", abstract=True)
    ontology.define_event_type("wave", super_name="act")
    ontology.define_event_type("orphan", super_name="missing-super")
    scenarios = ScenarioSet(ontology, name="invalid")
    bad = {"who": "r2"}  # an Android is not a Person
    scenarios.extend([
        Scenario(
            name="first",
            events=(
                TypedEvent(type_name="greet", arguments=bad, label="1"),
                TypedEvent(type_name="greet", arguments={"who": "ann"}, label="2"),
                TypedEvent(type_name="greet", arguments=bad, label="3"),
                TypedEvent(type_name="unknown-type", label="4"),
                TypedEvent(type_name="act", label="5"),
            ),
            actors=("ann", "Ghost"),
        ),
        Scenario(
            name="second",
            events=(
                sequence(
                    TypedEvent(type_name="greet", arguments=bad, label="a"),
                    Alternation(branches=(
                        TypedEvent(type_name="greet", label="b"),  # missing
                        TypedEvent(
                            type_name="greet",
                            arguments={"who": "ann", "extra": "x"},
                            label="c",
                        ),
                    )),
                ),
                Episode(scenario_name="nowhere", label="d"),
                TypedEvent(
                    type_name="serve",
                    arguments={"what": "tea", "who": "ann"},
                    label="e",
                ),
                TypedEvent(
                    type_name="serve",
                    arguments={"who": "r2", "what": "tea"},
                    label="f",
                ),
                TypedEvent(type_name="wave", label="g"),
                TypedEvent(type_name="orphan", label="h"),
            ),
            alternative_of="no-such-main",
        ),
        Scenario(
            name="loop-a",
            events=(
                TypedEvent(type_name="greet", arguments=bad, label="1"),
                Episode(scenario_name="loop-b"),
            ),
        ),
        Scenario(
            name="loop-b",
            events=(Episode(scenario_name="loop-a"),),
        ),
        Scenario(
            name="uses-loop",
            events=(
                Optional_(body=Episode(scenario_name="loop-a")),
                SimpleEvent(text="something happens"),
            ),
        ),
    ])
    return scenarios


def synthetic(seed: int, **spec):
    return build_synthetic(SyntheticSpec(seed=seed, **spec))


# ----------------------------------------------------------------------
# Validation parity
# ----------------------------------------------------------------------


class TestValidationParity:
    def assert_parity(self, scenario_set):
        expected = reference_validate_set(scenario_set)
        assert as_tuples(validate_scenario_set(scenario_set)) == expected
        return expected

    @pytest.mark.parametrize("seed", range(10))
    def test_generator_seeds(self, seed):
        self.assert_parity(synthetic(seed).scenarios)

    def test_pims_and_crash(self, pims, crash):
        self.assert_parity(pims.scenarios)
        self.assert_parity(crash.scenarios)

    def test_invalid_suite(self):
        expected = self.assert_parity(invalid_suite())
        messages = "\n".join(message for _, _, message, _ in expected)
        for fragment in (
            "missing-super",  # broken supertype chain (ontology + type)
            "which is not a 'Person'",
            "unknown event type 'unknown-type'",
            "abstract event type 'act'",
            "missing=['who']",
            "extra=['extra']",
            "unknown scenario 'nowhere'",
            "episode cycle: loop-a -> loop-b -> loop-a",
            "unknown scenario 'no-such-main'",
            "actor 'Ghost'",
        ):
            assert fragment in messages, fragment
        # The one bad binding is reported at every occurrence.
        bad = [
            (scenario, label)
            for _, scenario, message, label in expected
            if "'r2'" in message and "greet" in message
        ]
        assert bad == [
            ("first", "1"), ("first", "3"), ("second", "a"), ("loop-a", "1")
        ]

    def test_evaluation_findings_follow_the_same_order(self, pims):
        scenarios = invalid_suite()
        # A scenario whose episodes resolve can be walked.
        walkable = ScenarioSet(scenarios.ontology, name="walkable")
        walkable.add(scenarios.get("first"))
        report = Sosae(
            walkable, pims.architecture,
            Mapping(walkable.ontology, pims.architecture),
        ).evaluate()
        validation = [
            (f.severity.value, f.scenario, f.message, f.event_label)
            for f in report.findings
            if f.kind is InconsistencyKind.VALIDATION_ERROR
        ]
        assert validation == reference_validate_set(walkable)

    def test_validate_scenario_uses_the_given_ontology(self):
        scenarios = invalid_suite()
        other = Ontology("other")
        other.define_event_type("greet", parameters=["who"])
        scenario = scenarios.get("first")
        assert as_tuples(validate_scenario(scenario, other)) == (
            reference_validate_scenario(scenario, other)
        )

    def test_check_arguments_raises_the_reference_errors(self):
        ontology = invalid_suite().ontology
        cases = [
            ("greet", {"who": "r2"}),
            ("greet", {}),
            ("greet", {"who": "ann", "x": "1"}),
            ("act", {}),
            ("orphan", {}),
            ("nope", {}),
            ("serve", {"who": "r2", "what": "tea"}),
        ]
        for type_name, arguments in cases:
            try:
                reference_check_arguments(ontology, type_name, arguments)
            except OntologyError as error:
                with pytest.raises(type(error)) as raised:
                    ontology.check_arguments(type_name, arguments)
                assert str(raised.value) == str(error)
            else:
                ontology.check_arguments(type_name, arguments)


# ----------------------------------------------------------------------
# Trace parity
# ----------------------------------------------------------------------


def trace_suite(ontology: Ontology) -> ScenarioSet:
    def typed(label):
        return TypedEvent(type_name="create", arguments={"subject": label},
                          label=label)

    scenarios = ScenarioSet(ontology, name="traces")
    scenarios.extend([
        Scenario(name="flat", events=(
            typed("1"), SimpleEvent(text="the user waits"), typed("2"),
        )),
        Scenario(name="alternation", events=(
            typed("1"), Alternation(branches=(typed("2a"), typed("2b"))),
        )),
        Scenario(name="optional", events=(
            Optional_(body=typed("1")), typed("2"),
        )),
        Scenario(name="iteration", events=(
            Iteration(body=typed("1"), min_count=0, max_count=2),
            Iteration(body=typed("2")),
        )),
        Scenario(name="parallel", events=(
            parallel(typed("1"), typed("2"), typed("3")),
        )),
        Scenario(name="compound", events=(
            CompoundEvent(subevents=(typed("1"), typed("2"))),
        )),
        Scenario(name="episode", events=(
            typed("0"), Episode(scenario_name="alternation"), typed("3"),
        )),
    ])
    return scenarios


class TestTraceParity:
    @pytest.mark.parametrize(
        "options",
        [
            TraceOptions(),
            TraceOptions(max_traces=1),
            TraceOptions(max_traces=0),
            TraceOptions(iteration_extra=3, max_parallel_permutations=2),
        ],
        ids=["default", "one-trace", "no-traces", "bounds"],
    )
    def test_compiled_traces_equal_expansion(self, small_ontology, options):
        scenarios = trace_suite(small_ontology)
        suite = CompiledSuite(scenarios, options)
        for scenario in scenarios:
            assert suite.traces(scenario.name) == scenarios.traces(
                scenario.name, options
            ), scenario.name

    def test_only_flat_bodies_skip_expansion(self, small_ontology):
        scenarios = trace_suite(small_ontology)
        suite = CompiledSuite(scenarios)
        assert [s.name for s in scenarios if suite.scenario(s.name).flat] == [
            "flat"
        ]

    @pytest.mark.parametrize("seed", range(3))
    def test_generated_and_case_study_traces(self, seed, pims, crash):
        for scenarios in (synthetic(seed).scenarios, pims.scenarios,
                          crash.scenarios):
            suite = CompiledSuite(scenarios)
            for scenario in scenarios:
                assert suite.traces(scenario.name) == scenarios.traces(
                    scenario.name
                )

    def test_event_type_names_equal_the_set(self, pims, crash):
        for scenarios in (pims.scenarios, crash.scenarios,
                          synthetic(1).scenarios, invalid_suite()):
            assert CompiledSuite(scenarios).event_type_names() == (
                scenarios.event_type_names()
            )


# ----------------------------------------------------------------------
# Session scope and compile counts
# ----------------------------------------------------------------------


@pytest.fixture
def compile_log(monkeypatch):
    """Scenario names, once per compile and once per trace expansion."""
    compiled, expanded = Counter(), Counter()
    compile_scenario = compiled_module.compile_scenario
    traces = ScenarioSet.traces

    def counting_compile(scenario):
        compiled[scenario.name] += 1
        return compile_scenario(scenario)

    def counting_traces(self, name, options=None):
        expanded[name] += 1
        return traces(self, name, options)

    monkeypatch.setattr(compiled_module, "compile_scenario", counting_compile)
    monkeypatch.setattr(ScenarioSet, "traces", counting_traces)
    return compiled, expanded


def replicated(pims, copies: int) -> ScenarioSet:
    scaled = ScenarioSet(pims.ontology, name=f"pims-x{copies}")
    scaled.extend(pims.scenarios)
    for index in range(1, copies):
        scaled.extend(
            dataclasses.replace(scenario, name=f"{scenario.name}+r{index}")
            for scenario in pims.scenarios
            if scenario.alternative_of is None
        )
    return scaled


class TestSessionScope:
    def test_edits_between_evaluations_are_seen(self, pims):
        scenarios = ScenarioSet(pims.ontology, name="growing")
        scenarios.extend(pims.scenarios)
        sosae = Sosae(scenarios, pims.architecture, pims.mapping,
                      walkthrough_options=pims.options)
        first = sosae.evaluate()
        assert first.consistent
        used = pims.scenarios.scenarios[0].events[0]
        scenarios.add(Scenario(
            name="bad-argument",
            events=(
                dataclasses.replace(used, label="x1"),
                TypedEvent(
                    type_name=used.type_name,
                    arguments={**used.arguments, "bogus": "1"},
                    label="x2",
                ),
            ),
        ))
        scenarios.add(Scenario(
            name="unmapped-type",
            events=(TypedEvent(type_name="never-mapped", label="y1"),),
        ))
        second = sosae.evaluate()
        validation = [
            (f.scenario, f.event_label)
            for f in second.findings
            if f.kind is InconsistencyKind.VALIDATION_ERROR
        ]
        assert ("bad-argument", "x2") in validation
        assert ("unmapped-type", "y1") in validation
        coverage = [
            f.message
            for f in second.findings
            if f.kind is InconsistencyKind.UNMAPPED_EVENT
        ]
        assert any("'never-mapped'" in message for message in coverage)
        assert second.verdict("unmapped-type").traces[0].steps[0].note == (
            "unmapped event type"
        )
        assert report_to_json(second) == report_to_json(
            Sosae(scenarios, pims.architecture, pims.mapping,
                  walkthrough_options=pims.options).evaluate()
        )

    def test_the_view_lives_for_one_session(self, pims):
        sosae = Sosae(pims.scenarios, pims.architecture, pims.mapping)
        engine = sosae.engine
        with engine.session():
            suite = engine.compiled(pims.scenarios)
            with engine.session():
                assert engine.compiled(pims.scenarios) is suite
        with engine.session():
            assert engine.compiled(pims.scenarios) is not suite

    @pytest.mark.parametrize("observed", [False, True])
    def test_one_compile_and_expansion_per_evaluation(
        self, pims, crash, compile_log, observed
    ):
        compiled, expanded = compile_log
        for system in (pims, crash):
            compiled.clear()
            expanded.clear()
            sosae = Sosae(system.scenarios, system.architecture,
                          system.mapping, walkthrough_options=system.options)
            if observed:
                with instrumented(recorder=Recorder()):
                    sosae.evaluate()
            else:
                sosae.evaluate()
            names = {s.name for s in system.scenarios}
            assert set(compiled) == names
            assert max(compiled.values()) == 1
            assert max(expanded.values(), default=1) == 1

    def test_carried_over_scenarios_are_never_compiled(
        self, pims, compile_log
    ):
        compiled, _ = compile_log
        scenarios = replicated(pims, 4)
        before = Sosae(scenarios, pims.architecture, pims.mapping,
                       constraints=pims.constraints,
                       walkthrough_options=pims.options)
        tracker = DependencyTracker.from_report(
            before.evaluate(), pims.architecture, pims.mapping, pims.options
        )
        compiled.clear()
        excised = pims.excised_architecture()
        result = reevaluate(tracker, Sosae(
            scenarios, excised, pims.mapping.rebind(excised),
            constraints=pims.constraints, walkthrough_options=pims.options,
        ))
        assert set(result.reused_stages) == {"validation", "coverage"}
        assert result.carried_over
        assert set(compiled) == set(result.rewalked)
        assert not set(compiled) & set(result.carried_over)


# ----------------------------------------------------------------------
# Walk counters
# ----------------------------------------------------------------------


def counters_from(report) -> dict[str, int]:
    """The walk counters, recomputed from the finished verdicts."""
    traces = [trace for verdict in report.scenario_verdicts
              for trace in verdict.traces]
    steps = [step for trace in traces for step in trace.steps]
    typed = [step for step in steps if step.event_type is not None]
    resolved = [step for step in typed if step.components]
    return {
        "walkthrough.traces": len(traces),
        "walkthrough.steps": len(steps),
        "walkthrough.mapping_resolutions": len(resolved),
        "walkthrough.unmapped_events": len(typed) - len(resolved),
        "walkthrough.missing_links": sum(
            1
            for trace in traces
            for finding in trace.inconsistencies
            if finding.kind is InconsistencyKind.MISSING_LINK
        ),
    }


def walk_counters(recorder: Recorder) -> dict[str, int]:
    return {
        name: recorder.metrics.value(name)
        for name in recorder.metrics.names()
        if name.startswith("walkthrough.") and name != (
            "walkthrough.scenario_seconds"
        )
    }


class TestWalkCounters:
    def test_pims_demo_values(self, pims):
        recorder = Recorder()
        with instrumented(recorder=recorder):
            Sosae(pims.scenarios, pims.architecture, pims.mapping,
                  constraints=pims.constraints,
                  walkthrough_options=pims.options).evaluate()
        assert walk_counters(recorder) == {
            "walkthrough.traces": 17,
            "walkthrough.steps": 69,
            "walkthrough.mapping_resolutions": 69,
            "walkthrough.supertype_fallbacks": 0,
            "walkthrough.unmapped_events": 0,
            "walkthrough.missing_links": 0,
        }

    @pytest.mark.parametrize("seed", range(4))
    def test_counters_match_the_verdicts(self, seed, pims):
        system = synthetic(seed, scenarios=30)
        rng = random.Random(seed)
        architecture = system.architecture.clone("cut")
        for link in rng.sample(architecture.links, 3):
            architecture.remove_link(link.name)
        recorder = Recorder()
        with instrumented(recorder=recorder):
            report = Sosae(system.scenarios, architecture,
                           system.mapping.rebind(architecture)).evaluate()
            # A second evaluation on the same registry accumulates.
            Sosae(system.scenarios, architecture,
                  system.mapping.rebind(architecture)).evaluate()
        counted = walk_counters(recorder)
        for name, value in counters_from(report).items():
            assert counted[name] == 2 * value, name

    def test_an_unobserved_walk_registers_nothing(self, pims):
        recorder = Recorder()
        sosae = Sosae(pims.scenarios, pims.architecture, pims.mapping)
        with sosae.engine.session():
            sosae.engine.walk_all(pims.scenarios)
            with instrumented(recorder=recorder):
                sosae.engine.walk_scenario(
                    pims.scenarios.scenarios[0], pims.scenarios
                )
            # Tallied for the recorder that was live, added at the end.
            assert walk_counters(recorder) == {}
        assert walk_counters(recorder)["walkthrough.traces"] == len(
            pims.scenarios.traces(pims.scenarios.scenarios[0].name)
        )
