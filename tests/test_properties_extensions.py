"""Property-based tests for the extension modules."""

from __future__ import annotations

import string

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.evaluator import Sosae
from repro.core.implied import detect_implied_scenarios
from repro.core.incremental import DependencyTracker, reevaluate
from repro.core.mapping import Mapping
from repro.core.ranking import rank_scenarios
from repro.core.report_io import report_to_json
from repro.scenarioml.events import TypedEvent
from repro.scenarioml.ontology import Ontology, Parameter
from repro.scenarioml.owl import parse_owl_xml, to_owl_xml
from repro.scenarioml.scenario import Scenario, ScenarioSet
from repro.systems.generators import SyntheticSpec, build_synthetic

# "EventType" and "Term" are the OWL mapping's reserved root classes;
# to_owl_xml refuses them (tests/test_owl.py).
names = (
    st.text(
        alphabet=string.ascii_letters + string.digits + " -",
        min_size=1,
        max_size=16,
    )
    .map(str.strip)
    .filter(lambda name: name and name not in ("EventType", "Term"))
)


@settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow])
@given(
    class_names=st.lists(names, min_size=1, max_size=5, unique=True),
    event_names=st.lists(names, min_size=1, max_size=5, unique=True),
)
def test_owl_roundtrip_preserves_structure(class_names, event_names):
    """OWL export/import is lossless for generated ontologies: same
    definitions, same subsumption relation."""
    overlap = set(class_names) & set(event_names)
    class_names = [n for n in class_names if n not in overlap]
    if not class_names:
        return
    ontology = Ontology("generated")
    previous = None
    for name in class_names:
        ontology.define_instance_type(name, super_name=previous)
        previous = name
    ontology.define_instance("the-individual", class_names[-1])
    previous_event = None
    for name in event_names:
        ontology.define_event_type(
            name,
            text=f"does [x] to {name}",
            parameters=[Parameter("x", class_names[0])],
            super_name=previous_event,
        )
        previous_event = name
    ontology.validate()

    recovered = parse_owl_xml(to_owl_xml(ontology))
    for name in class_names:
        assert recovered.instance_type(name).super_name == (
            ontology.instance_type(name).super_name
        )
    for name in event_names:
        assert recovered.event_type(name).super_name == (
            ontology.event_type(name).super_name
        )
        (parameter,) = recovered.event_type(name).parameters
        assert parameter.type_name == class_names[0]
    assert recovered.instance("the-individual").type_name == class_names[-1]


@settings(max_examples=20, suppress_health_check=[HealthCheck.too_slow])
@given(
    spec=st.builds(
        SyntheticSpec,
        event_types=st.integers(2, 12),
        components=st.integers(2, 8),
        scenarios=st.integers(1, 10),
        events_per_scenario=st.integers(1, 6),
        seed=st.integers(0, 500),
    ),
    victim=st.integers(0, 7),
)
def test_incremental_reevaluation_equals_full(spec, victim):
    """For any synthetic system and any single excised component link, the
    incremental report is a from-scratch evaluation's, byte for byte."""
    system = build_synthetic(spec)
    previous = Sosae(
        system.scenarios, system.architecture, system.mapping
    ).evaluate()
    tracker = DependencyTracker.from_report(
        previous, system.architecture, system.mapping
    )
    evolved = system.architecture.clone("evolved")
    component = f"component-{victim % spec.components}"
    evolved.excise_links_between(component, "bus")

    def build():
        mapping = Mapping.from_dict(
            system.mapping.to_dict(), system.ontology, evolved
        )
        return Sosae(system.scenarios, evolved, mapping)

    result = reevaluate(tracker, build())
    assert report_to_json(result.report) == report_to_json(build().evaluate())


@settings(max_examples=30)
@given(
    sequence=st.lists(
        st.sampled_from("abcdefgh"), min_size=1, max_size=6, unique=True
    )
)
def test_single_scenario_specifications_are_closed(sequence):
    """With one scenario, every admissible chain is specified: the
    implied-scenario detector must report closure."""
    ontology = Ontology("single")
    for name in sequence:
        ontology.define_event_type(name)
    from repro.adl.structure import Architecture

    architecture = Architecture("arch")
    architecture.add_connector("bus")
    for index, name in enumerate(sequence):
        architecture.add_component(f"c{name}")
        architecture.link((f"c{name}", "p"), ("bus", f"s{index}"))
    mapping = Mapping(ontology, architecture)
    for name in sequence:
        mapping.map_event(name, f"c{name}")
    scenarios = ScenarioSet(ontology)
    scenarios.add(
        Scenario(
            name="only",
            events=tuple(TypedEvent(type_name=name) for name in sequence),
        )
    )
    report = detect_implied_scenarios(scenarios, mapping, max_length=10)
    assert report.closed


@settings(max_examples=20, suppress_health_check=[HealthCheck.too_slow])
@given(
    spec=st.builds(
        SyntheticSpec,
        event_types=st.integers(2, 10),
        components=st.integers(2, 6),
        scenarios=st.integers(2, 8),
        events_per_scenario=st.integers(1, 5),
        seed=st.integers(0, 500),
    )
)
def test_ranking_is_total_and_stable(spec):
    """Every scenario gets exactly one score in [0,1]; ranking the same
    input twice yields the same order."""
    system = build_synthetic(spec)
    first = rank_scenarios(system.scenarios, system.mapping)
    second = rank_scenarios(system.scenarios, system.mapping)
    assert [s.scenario for s in first] == [s.scenario for s in second]
    assert len(first) == len(system.scenarios)
    assert all(0.0 <= score.score <= 1.0 for score in first)
