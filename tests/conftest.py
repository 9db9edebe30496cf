"""Shared fixtures for the test suite."""

from __future__ import annotations

import gc

import pytest
from hypothesis import HealthCheck, settings

from repro.adl.structure import Architecture, Direction, Interface
from repro.core.evaluator import Sosae
from repro.core.mapping import Mapping
from repro.obs import Recorder, use
from repro.scenarioml.events import SimpleEvent, TypedEvent
from repro.scenarioml.ontology import Ontology, Parameter
from repro.scenarioml.scenario import Scenario, ScenarioSet
from repro.systems.crash import build_crash
from repro.systems.pims import build_pims

#: ``pytest tests/test_stateful_oracle.py --hypothesis-profile deep``:
#: the stateful oracle's longer, randomized run (a CI step); tier-1 runs
#: its derandomized profile.
settings.register_profile(
    "deep",
    max_examples=400,
    stateful_step_count=30,
    deadline=None,
    suppress_health_check=list(HealthCheck),
)


@pytest.fixture
def small_ontology() -> Ontology:
    """A compact ontology with classes, individuals, and event types,
    including a subtype hierarchy and parameterized types."""
    ontology = Ontology("small")
    ontology.define_term("widget", "A thing the system manages.")
    ontology.define_instance_type("Actor")
    ontology.define_instance_type("Human", super_name="Actor")
    ontology.define_instance_type("Service", super_name="Actor")
    ontology.define_instance("alice", "Human")
    ontology.define_instance("backend", "Service")
    ontology.define_event_type(
        "act", "An actor acts on the [subject]", abstract=True,
        parameters=["subject"],
    )
    ontology.define_event_type(
        "create", "The system creates the [subject]", actor="System",
        parameters=["subject"], super_name="act",
    )
    ontology.define_event_type(
        "destroy", "The system destroys the [subject]", actor="System",
        parameters=["subject"], super_name="act",
    )
    ontology.define_event_type(
        "notify", "The system notifies [who]", actor="System",
        parameters=[Parameter("who", "Actor")],
    )
    ontology.validate()
    return ontology


@pytest.fixture
def small_scenarios(small_ontology: Ontology) -> ScenarioSet:
    """Two small scenarios over the small ontology."""
    scenarios = ScenarioSet(small_ontology, name="small-set")
    scenarios.add(
        Scenario(
            name="make-widget",
            events=(
                TypedEvent(
                    type_name="create", arguments={"subject": "widget"},
                    label="1",
                ),
                TypedEvent(
                    type_name="notify", arguments={"who": "alice"}, label="2"
                ),
            ),
        )
    )
    scenarios.add(
        Scenario(
            name="drop-widget",
            events=(
                TypedEvent(
                    type_name="destroy", arguments={"subject": "widget"},
                    label="1",
                ),
                SimpleEvent(text="The widget is gone.", label="2"),
            ),
        )
    )
    return scenarios


@pytest.fixture
def chain_architecture() -> Architecture:
    """A directed chain: ui -> logic -> store, each hop via a connector."""
    architecture = Architecture("chain")
    architecture.add_component(
        "ui", interfaces=[Interface("calls", Direction.OUT)], layer=3
    )
    architecture.add_component(
        "logic",
        interfaces=[
            Interface("services", Direction.IN),
            Interface("calls", Direction.OUT),
        ],
        layer=2,
    )
    architecture.add_component(
        "store", interfaces=[Interface("services", Direction.IN)], layer=1
    )
    architecture.add_connector("ui-logic")
    architecture.add_connector("logic-store")
    architecture.link(("ui", "calls"), ("ui-logic", "a"))
    architecture.link(("ui-logic", "b"), ("logic", "services"))
    architecture.link(("logic", "calls"), ("logic-store", "a"))
    architecture.link(("logic-store", "b"), ("store", "services"))
    architecture.validate()
    return architecture


@pytest.fixture
def chain_mapping(
    small_ontology: Ontology, chain_architecture: Architecture
) -> Mapping:
    """Event types of the small ontology mapped onto the chain."""
    mapping = Mapping(small_ontology, chain_architecture)
    mapping.map_event("create", "logic", "store")
    mapping.map_event("destroy", "logic", "store")
    mapping.map_event("notify", "ui")
    return mapping


@pytest.fixture
def nested_vault():
    """``build(system, host) -> (architecture, mapping)`` for a synthetic
    system: its architecture plus an unlinked top-level component
    ``annex`` and a subcomponent ``vault`` nested inside ``host``; every
    mapping entry naming ``component-0`` names ``vault`` instead.

    Two builds with different hosts differ only in where a mapped nested
    component lives, so their top-level structures diff empty."""

    def build(system, host: str) -> tuple[Architecture, Mapping]:
        architecture = system.architecture.clone()
        architecture.add_component("annex")
        inside = Architecture(f"{host}-inside")
        inside.add_component("vault")
        architecture.component(host).subarchitecture = inside
        mapping = Mapping(system.ontology, architecture)
        for event_type, components in system.mapping.entries.items():
            mapping.map_event(
                event_type,
                *(
                    "vault" if component == "component-0" else component
                    for component in components
                ),
            )
        return architecture, mapping

    return build


@pytest.fixture
def recorded_evaluation(small_scenarios, chain_architecture, chain_mapping):
    """A real evaluation captured by a live recorder."""
    recorder = Recorder()
    with use(recorder):
        report = Sosae(
            small_scenarios, chain_architecture, chain_mapping
        ).evaluate()
    return report, recorder


@pytest.fixture(scope="session")
def pims():
    """The full PIMS case study (session-scoped; treat as read-only)."""
    return build_pims()


@pytest.fixture(scope="session")
def crash():
    """The full CRASH case study (session-scoped; treat as read-only)."""
    return build_crash()


@pytest.fixture(autouse=True)
def heap_left_unfrozen():
    """Fail a test that leaves the heap frozen. A serve daemon's first
    successful run freezes the whole process's heap until the daemon
    shuts down; a test that runs one shuts it down, so no later test
    runs with its objects out of the collector's reach."""
    yield
    frozen = gc.get_freeze_count()
    if frozen:
        gc.unfreeze()
        pytest.fail(
            f"the test left {frozen} objects frozen: shut its serve "
            "daemons down"
        )
