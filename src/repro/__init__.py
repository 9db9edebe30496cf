"""repro: ontology-based requirements-level scenario evaluation of
software architectures.

A full reproduction of Diallo, Naslavsky, Alspaugh, Ziv, Richardson,
"Toward Architecture Evaluation Through Ontology-based Requirements-level
Scenarios" (DSN WADS 2007): the ScenarioML scenario/ontology language, an
xADL-flavoured ADL with statechart behavior and Layered/C2 style checking,
the ontology-to-architecture mapping, static walkthrough and simulated
dynamic execution engines, constraints, negative scenarios, traceability,
and the two case studies (PIMS and CRASH).

Quickstart::

    from repro import Ontology, Scenario, ScenarioSet, TypedEvent
    from repro import Architecture, Mapping, Sosae

    ontology = Ontology("demo")
    ontology.define_event_type("greet", "The user greets the [name]",
                               parameters=["name"])
    scenarios = ScenarioSet(ontology)
    scenarios.add(Scenario("hello", events=(
        TypedEvent(type_name="greet", arguments={"name": "system"}),
    )))

    architecture = Architecture("demo-arch")
    architecture.add_component("ui")
    mapping = Mapping(ontology, architecture)
    mapping.map_event("greet", "ui")

    report = Sosae(scenarios, architecture, mapping).evaluate()
    assert report.consistent
"""

from repro.errors import (
    ArchitectureError,
    ArityError,
    DuplicateDefinitionError,
    EpisodeCycleError,
    EvaluationError,
    MappingError,
    OntologyError,
    ReproError,
    ScenarioError,
    SerializationError,
    SimulationError,
    StyleViolationError,
    SubsumptionCycleError,
    UnknownDefinitionError,
)
from repro.scenarioml import (
    Alternation,
    CompoundEvent,
    Episode,
    EventType,
    Instance,
    InstanceType,
    Iteration,
    Ontology,
    Optional_,
    Parameter,
    QualityAttribute,
    Scenario,
    ScenarioKind,
    ScenarioSet,
    SimpleEvent,
    Term,
    TypedEvent,
    parse_scenarioml,
    to_scenarioml_xml,
)
from repro.adl import (
    Architecture,
    C2Style,
    CommunicationIndex,
    Component,
    Connector,
    Direction,
    Interface,
    LayeredStyle,
    Link,
    Statechart,
    StatechartInstance,
    can_communicate,
    check_style,
    communication_index,
    communication_path,
    diff_architectures,
    parse_acme,
    parse_xadl,
    to_acme,
    to_xadl_xml,
)
from repro.core import (
    DynamicEvaluator,
    DynamicVerdict,
    EntityMapping,
    EvaluationReport,
    ForbidsDirectLink,
    Inconsistency,
    InconsistencyKind,
    Mapping,
    MappingTable,
    MustNotCommunicate,
    MustRouteVia,
    RequiresPath,
    ScenarioBindings,
    ScenarioVerdict,
    Sosae,
    TraceabilityMatrix,
    WalkthroughEngine,
    WalkthroughOptions,
    evaluate_negative_scenario,
    render_report,
)
from repro.sim import (
    ArchitectureRuntime,
    ChannelPolicy,
    RuntimeConfig,
    Simulator,
)

__version__ = "1.0.0"

__all__ = [
    "Alternation",
    "ArchitectureError",
    "Architecture",
    "ArchitectureRuntime",
    "ArityError",
    "C2Style",
    "ChannelPolicy",
    "CommunicationIndex",
    "Component",
    "CompoundEvent",
    "Connector",
    "Direction",
    "DuplicateDefinitionError",
    "DynamicEvaluator",
    "DynamicVerdict",
    "EntityMapping",
    "Episode",
    "EpisodeCycleError",
    "EvaluationError",
    "EvaluationReport",
    "EventType",
    "ForbidsDirectLink",
    "Inconsistency",
    "InconsistencyKind",
    "Instance",
    "InstanceType",
    "Interface",
    "Iteration",
    "LayeredStyle",
    "Link",
    "Mapping",
    "MappingError",
    "MappingTable",
    "MustNotCommunicate",
    "MustRouteVia",
    "Ontology",
    "OntologyError",
    "Optional_",
    "Parameter",
    "QualityAttribute",
    "ReproError",
    "RequiresPath",
    "RuntimeConfig",
    "Scenario",
    "ScenarioBindings",
    "ScenarioError",
    "ScenarioKind",
    "ScenarioSet",
    "ScenarioVerdict",
    "SerializationError",
    "SimpleEvent",
    "SimulationError",
    "Simulator",
    "Sosae",
    "Statechart",
    "StatechartInstance",
    "StyleViolationError",
    "SubsumptionCycleError",
    "Term",
    "TraceabilityMatrix",
    "TypedEvent",
    "UnknownDefinitionError",
    "WalkthroughEngine",
    "WalkthroughOptions",
    "can_communicate",
    "check_style",
    "communication_index",
    "communication_path",
    "diff_architectures",
    "evaluate_negative_scenario",
    "parse_acme",
    "parse_scenarioml",
    "parse_xadl",
    "render_report",
    "to_acme",
    "to_scenarioml_xml",
    "to_xadl_xml",
    "__version__",
]
