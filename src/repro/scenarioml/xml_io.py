"""ScenarioML XML serialization and parsing.

The dialect mirrors the published ScenarioML element vocabulary
(``ontology``, ``term``, ``instanceType``, ``instance``, ``eventType``,
``typedEvent``, ``episode``) with compound/schema elements for sequence,
parallel, alternation, iteration, and optional events::

    <scenarioml name="pims">
      <ontology name="pims-ontology">
        <term name="portfolio">A named collection of investments.</term>
        <instanceType name="Actor"/>
        <instance name="User" type="Actor"/>
        <eventType name="enterName" actor="User">
          <text>The user enters the [name]</text>
          <parameter name="name"/>
        </eventType>
      </ontology>
      <scenario name="create-portfolio" title="Create portfolio">
        <typedEvent type="enterName" label="3">
          <argument name="name" value="portfolio name"/>
        </typedEvent>
        <event label="4">An empty portfolio is created.</event>
      </scenario>
    </scenarioml>

:func:`to_scenarioml_xml` and :func:`parse_scenarioml` are inverses up to
formatting; round-tripping is covered by property-based tests.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Optional

from repro.errors import SerializationError
from repro.scenarioml.events import (
    Alternation,
    CompoundEvent,
    Episode,
    Event,
    Iteration,
    Optional_,
    SimpleEvent,
    TypedEvent,
)
from repro.scenarioml.ontology import (
    EventType,
    Instance,
    InstanceType,
    Ontology,
    Parameter,
    Term,
)
from repro.scenarioml.scenario import (
    QualityAttribute,
    Scenario,
    ScenarioKind,
    ScenarioSet,
)

_QUALITY_BY_VALUE = {attribute.value: attribute for attribute in QualityAttribute}


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------

def to_scenarioml_xml(scenario_set: ScenarioSet) -> str:
    """Serialize a scenario set (ontology included) to ScenarioML XML."""
    root = ET.Element("scenarioml", {"name": scenario_set.name})
    root.append(_ontology_element(scenario_set.ontology))
    for scenario in scenario_set:
        root.append(_scenario_element(scenario))
    ET.indent(root)
    return ET.tostring(root, encoding="unicode", xml_declaration=False)


def _ontology_element(ontology: Ontology) -> ET.Element:
    element = ET.Element("ontology", {"name": ontology.name})
    if ontology.description:
        element.set("description", ontology.description)
    for term in ontology.terms:
        child = ET.SubElement(element, "term", {"name": term.name})
        child.text = term.definition or None
    for instance_type in ontology.instance_types:
        child = ET.SubElement(element, "instanceType", {"name": instance_type.name})
        if instance_type.super_name:
            child.set("super", instance_type.super_name)
        child.text = instance_type.description or None
    for instance in ontology.instances:
        child = ET.SubElement(
            element,
            "instance",
            {"name": instance.name, "type": instance.type_name},
        )
        child.text = instance.description or None
    for event_type in ontology.event_types:
        element.append(_event_type_element(event_type))
    return element


def _event_type_element(event_type: EventType) -> ET.Element:
    element = ET.Element("eventType", {"name": event_type.name})
    if event_type.actor:
        element.set("actor", event_type.actor)
    if event_type.super_name:
        element.set("super", event_type.super_name)
    if event_type.abstract:
        element.set("abstract", "true")
    if event_type.description:
        element.set("description", event_type.description)
    if event_type.text:
        text = ET.SubElement(element, "text")
        text.text = event_type.text
    for parameter in event_type.parameters:
        attrs = {"name": parameter.name}
        if parameter.type_name:
            attrs["type"] = parameter.type_name
        ET.SubElement(element, "parameter", attrs)
    return element


def _scenario_element(scenario: Scenario) -> ET.Element:
    attrs = {"name": scenario.name}
    if scenario.title:
        attrs["title"] = scenario.title
    if scenario.kind is ScenarioKind.NEGATIVE:
        attrs["kind"] = "negative"
    if scenario.quality_attributes:
        attrs["qualities"] = ",".join(
            attribute.value for attribute in scenario.quality_attributes
        )
    if scenario.actors:
        attrs["actors"] = ",".join(scenario.actors)
    if scenario.alternative_of:
        attrs["alternativeOf"] = scenario.alternative_of
    element = ET.Element("scenario", attrs)
    if scenario.description:
        description = ET.SubElement(element, "description")
        description.text = scenario.description
    for event in scenario.events:
        element.append(_event_element(event))
    return element


def _event_element(event: Event) -> ET.Element:
    if isinstance(event, SimpleEvent):
        attrs = {}
        if event.actor:
            attrs["actor"] = event.actor
        element = ET.Element("event", attrs)
        element.text = event.text
    elif isinstance(event, TypedEvent):
        element = ET.Element("typedEvent", {"type": event.type_name})
        for name, value in event.arguments.items():
            ET.SubElement(element, "argument", {"name": name, "value": value})
    elif isinstance(event, Episode):
        element = ET.Element("episode", {"scenario": event.scenario_name})
    elif isinstance(event, Alternation):
        element = ET.Element("alternation")
        for branch in event.branches:
            element.append(_event_element(branch))
    elif isinstance(event, Iteration):
        attrs = {"min": str(event.min_count)}
        if event.max_count is not None:
            attrs["max"] = str(event.max_count)
        element = ET.Element("iteration", attrs)
        element.append(_event_element(event.body))
    elif isinstance(event, Optional_):
        element = ET.Element("optional")
        element.append(_event_element(event.body))
    elif isinstance(event, CompoundEvent):
        element = ET.Element(event.pattern)
        for subevent in event.subevents:
            element.append(_event_element(subevent))
    else:
        raise SerializationError(
            f"cannot serialize event of type {type(event).__name__}"
        )
    if event.label:
        element.set("label", event.label)
    return element


# ----------------------------------------------------------------------
# Parsing
# ----------------------------------------------------------------------

def parse_scenarioml(document: str | bytes) -> ScenarioSet:
    """Parse ScenarioML XML into a :class:`ScenarioSet` with its ontology.

    Bytes are decoded as the XML declaration says, UTF-8 by default."""
    try:
        root = ET.fromstring(document)
    except ET.ParseError as error:
        raise SerializationError(f"malformed ScenarioML XML: {error}") from error
    if root.tag != "scenarioml":
        raise SerializationError(
            f"expected root element 'scenarioml', found {root.tag!r}"
        )
    ontology_element = root.find("ontology")
    if ontology_element is None:
        raise SerializationError("ScenarioML document has no <ontology>")
    ontology = _parse_ontology(ontology_element)
    scenario_set = ScenarioSet(ontology, name=root.get("name", "scenarios"))
    for element in root.findall("scenario"):
        scenario_set.add(_parse_scenario(element))
    return scenario_set


def _parse_ontology(element: ET.Element) -> Ontology:
    ontology = Ontology(
        name=element.get("name", "ontology"),
        description=element.get("description", ""),
    )
    for child in element:
        if child.tag == "term":
            ontology.add_term(
                Term(_required(child, "name"), (child.text or "").strip())
            )
        elif child.tag == "instanceType":
            ontology.add_instance_type(
                InstanceType(
                    name=_required(child, "name"),
                    description=(child.text or "").strip(),
                    super_name=child.get("super"),
                )
            )
        elif child.tag == "instance":
            ontology.add_instance(
                Instance(
                    name=_required(child, "name"),
                    type_name=_required(child, "type"),
                    description=(child.text or "").strip(),
                )
            )
        elif child.tag == "eventType":
            ontology.add_event_type(_parse_event_type(child))
        else:
            raise SerializationError(
                f"unexpected element <{child.tag}> inside <ontology>"
            )
    return ontology


def _parse_event_type(element: ET.Element) -> EventType:
    text_element = element.find("text")
    parameters = tuple(
        Parameter(_required(child, "name"), child.get("type"))
        for child in element.findall("parameter")
    )
    return EventType(
        name=_required(element, "name"),
        text=(text_element.text or "").strip() if text_element is not None else "",
        actor=element.get("actor"),
        parameters=parameters,
        super_name=element.get("super"),
        abstract=element.get("abstract") == "true",
        description=element.get("description", ""),
    )


def _parse_scenario(element: ET.Element) -> Scenario:
    qualities = tuple(
        _parse_quality(value)
        for value in element.get("qualities", "").split(",")
        if value
    )
    actors = tuple(
        value for value in element.get("actors", "").split(",") if value
    )
    description = ""
    events: list[Event] = []
    for child in element:
        if child.tag == "description":
            description = (child.text or "").strip()
        else:
            events.append(_parse_event(child))
    kind = (
        ScenarioKind.NEGATIVE
        if element.get("kind") == "negative"
        else ScenarioKind.POSITIVE
    )
    return Scenario(
        name=_required(element, "name"),
        events=tuple(events),
        title=element.get("title", ""),
        description=description,
        kind=kind,
        quality_attributes=qualities,
        actors=actors,
        alternative_of=element.get("alternativeOf"),
    )


def _parse_quality(value: str) -> QualityAttribute:
    try:
        return _QUALITY_BY_VALUE[value.strip()]
    except KeyError:
        raise SerializationError(
            f"unknown quality attribute {value!r}"
        ) from None


def _parse_event(element: ET.Element) -> Event:
    label = element.get("label")
    if element.tag == "event":
        return SimpleEvent(
            text=(element.text or "").strip(),
            actor=element.get("actor"),
            label=label,
        )
    if element.tag == "typedEvent":
        arguments = {
            _required(child, "name"): _required(child, "value")
            for child in element.findall("argument")
        }
        return TypedEvent(
            type_name=_required(element, "type"), arguments=arguments, label=label
        )
    if element.tag == "episode":
        return Episode(scenario_name=_required(element, "scenario"), label=label)
    if element.tag == "alternation":
        return Alternation(
            branches=tuple(_parse_event(child) for child in element), label=label
        )
    if element.tag == "iteration":
        children = [_parse_event(child) for child in element]
        return Iteration(
            body=_single_body(children, "iteration"),
            min_count=int(element.get("min", "1")),
            max_count=int(element.get("max")) if element.get("max") else None,
            label=label,
        )
    if element.tag == "optional":
        children = [_parse_event(child) for child in element]
        return Optional_(body=_single_body(children, "optional"), label=label)
    if element.tag in ("sequence", "parallel"):
        return CompoundEvent(
            subevents=tuple(_parse_event(child) for child in element),
            pattern=element.tag,
            label=label,
        )
    raise SerializationError(f"unexpected event element <{element.tag}>")


def _single_body(children: list[Event], owner: str) -> Event:
    if not children:
        raise SerializationError(f"<{owner}> must contain a body event")
    if len(children) == 1:
        return children[0]
    return CompoundEvent(subevents=tuple(children), pattern="sequence")


def _required(element: ET.Element, attribute: str) -> str:
    value = element.get(attribute)
    if value is None:
        raise SerializationError(
            f"<{element.tag}> is missing required attribute {attribute!r}"
        )
    return value
