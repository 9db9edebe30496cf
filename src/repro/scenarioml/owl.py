"""OWL (RDF/XML) export and import of ScenarioML ontologies.

The paper's future work (§8): "We are moving toward the use of the OWL web
ontology language in order to make use of existing OWL tools and
reasoners." This module maps the ScenarioML ontology sublanguage onto OWL
constructs:

* a domain class (``instanceType``) becomes an ``owl:Class``; its
  ``super_name`` becomes ``rdfs:subClassOf``;
* a domain individual (``instance``) becomes an ``owl:NamedIndividual``
  typed by its class;
* an event type becomes an ``owl:Class`` under the reserved root class
  ``EventType`` (its ``super_name`` chains below that); the actor and the
  natural-language text are annotations; each parameter becomes a
  property — an ``owl:ObjectProperty`` with ``rdfs:range`` when the
  parameter is class-constrained, else an ``owl:DatatypeProperty`` —
  whose ``rdfs:domain`` is the event-type class;
* a term becomes an ``owl:Class`` under the reserved root ``Term`` with
  its definition as ``rdfs:comment``.

:func:`to_owl_xml` and :func:`parse_owl_xml` are inverses for ontologies
produced by this library; the importer also accepts any RDF/XML document
restricted to the constructs above. The point of the mapping is that the
structural reasoning the approach needs (subsumption, classification) is
preserved exactly — verified by round-trip tests.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Optional

from repro.errors import SerializationError
from repro.scenarioml.ontology import (
    EventType,
    Instance,
    InstanceType,
    Ontology,
    Parameter,
    Term,
)

RDF = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS = "http://www.w3.org/2000/01/rdf-schema#"
OWL = "http://www.w3.org/2002/07/owl#"
REPRO = "urn:repro:scenarioml#"

_EVENT_ROOT = "EventType"
_TERM_ROOT = "Term"
_ACTOR_ANNOTATION = "actor"
_TEXT_ANNOTATION = "eventText"
_ABSTRACT_ANNOTATION = "abstract"

ET.register_namespace("rdf", RDF)
ET.register_namespace("rdfs", RDFS)
ET.register_namespace("owl", OWL)


def _tag(namespace: str, name: str) -> str:
    return f"{{{namespace}}}{name}"


def _about(name: str) -> str:
    return REPRO + name.replace(" ", "_")


def _local(uri: str) -> str:
    _prefix, _, local = uri.rpartition("#")
    return local.replace("_", " ")


# ----------------------------------------------------------------------
# Export
# ----------------------------------------------------------------------

def to_owl_xml(ontology: Ontology) -> str:
    """Serialize a ScenarioML ontology to an OWL RDF/XML document.

    A definition named like a reserved root class (``EventType``,
    ``Term``) would share that class's IRI and not survive the round
    trip, so it is refused with :class:`SerializationError`."""
    for definition in (
        *ontology.terms,
        *ontology.instance_types,
        *ontology.instances,
        *ontology.event_types,
    ):
        if definition.name in (_EVENT_ROOT, _TERM_ROOT):
            raise SerializationError(
                f"{definition.name!r} is a reserved OWL root class name"
            )
    root = ET.Element(_tag(RDF, "RDF"))
    header = ET.SubElement(root, _tag(OWL, "Ontology"))
    header.set(_tag(RDF, "about"), REPRO + ontology.name.replace(" ", "_"))
    if ontology.description:
        _comment(header, ontology.description)

    for reserved in (_EVENT_ROOT, _TERM_ROOT):
        reserved_class = ET.SubElement(root, _tag(OWL, "Class"))
        reserved_class.set(_tag(RDF, "about"), _about(reserved))

    for term in ontology.terms:
        element = ET.SubElement(root, _tag(OWL, "Class"))
        element.set(_tag(RDF, "about"), _about(term.name))
        _subclass_of(element, _TERM_ROOT)
        if term.definition:
            _comment(element, term.definition)

    for instance_type in ontology.instance_types:
        element = ET.SubElement(root, _tag(OWL, "Class"))
        element.set(_tag(RDF, "about"), _about(instance_type.name))
        if instance_type.super_name:
            _subclass_of(element, instance_type.super_name)
        if instance_type.description:
            _comment(element, instance_type.description)

    for instance in ontology.instances:
        element = ET.SubElement(root, _tag(OWL, "NamedIndividual"))
        element.set(_tag(RDF, "about"), _about(instance.name))
        type_element = ET.SubElement(element, _tag(RDF, "type"))
        type_element.set(_tag(RDF, "resource"), _about(instance.type_name))
        if instance.description:
            _comment(element, instance.description)

    for event_type in ontology.event_types:
        _write_event_type(root, event_type)

    ET.indent(root)
    return ET.tostring(root, encoding="unicode", xml_declaration=False)


def _write_event_type(root: ET.Element, event_type: EventType) -> None:
    element = ET.SubElement(root, _tag(OWL, "Class"))
    element.set(_tag(RDF, "about"), _about(event_type.name))
    _subclass_of(element, event_type.super_name or _EVENT_ROOT)
    if event_type.actor:
        _annotation(element, _ACTOR_ANNOTATION, event_type.actor)
    if event_type.text:
        _annotation(element, _TEXT_ANNOTATION, event_type.text)
    if event_type.abstract:
        _annotation(element, _ABSTRACT_ANNOTATION, "true")
    if event_type.description:
        _comment(element, event_type.description)
    for parameter in event_type.parameters:
        kind = "ObjectProperty" if parameter.type_name else "DatatypeProperty"
        property_element = ET.SubElement(root, _tag(OWL, kind))
        property_element.set(
            _tag(RDF, "about"),
            _about(f"param.{event_type.name}.{parameter.name}"),
        )
        domain = ET.SubElement(property_element, _tag(RDFS, "domain"))
        domain.set(_tag(RDF, "resource"), _about(event_type.name))
        if parameter.type_name:
            range_element = ET.SubElement(property_element, _tag(RDFS, "range"))
            range_element.set(_tag(RDF, "resource"), _about(parameter.type_name))


def _subclass_of(element: ET.Element, super_name: str) -> None:
    subclass = ET.SubElement(element, _tag(RDFS, "subClassOf"))
    subclass.set(_tag(RDF, "resource"), _about(super_name))


def _comment(element: ET.Element, text: str) -> None:
    comment = ET.SubElement(element, _tag(RDFS, "comment"))
    comment.text = text


def _annotation(element: ET.Element, name: str, value: str) -> None:
    annotation = ET.SubElement(element, _tag(REPRO.rstrip("#") + "#", name))
    annotation.text = value


# ----------------------------------------------------------------------
# Import
# ----------------------------------------------------------------------

def parse_owl_xml(document: str, name: str = "imported") -> Ontology:
    """Parse an OWL RDF/XML document (restricted to the constructs this
    module emits) back into a ScenarioML :class:`Ontology`."""
    try:
        root = ET.fromstring(document)
    except ET.ParseError as error:
        raise SerializationError(f"malformed OWL RDF/XML: {error}") from error
    if root.tag != _tag(RDF, "RDF"):
        raise SerializationError(
            f"expected rdf:RDF root element, found {root.tag!r}"
        )

    ontology_name = name
    description = ""
    classes: dict[str, dict] = {}
    individuals: list[tuple[str, str, str]] = []
    parameters: dict[str, list[Parameter]] = {}

    for element in root:
        if element.tag == _tag(OWL, "Ontology"):
            about = element.get(_tag(RDF, "about"), "")
            if about:
                ontology_name = _local(about) or name
            description = _read_comment(element)
        elif element.tag == _tag(OWL, "Class"):
            local = _local(element.get(_tag(RDF, "about"), ""))
            if not local:
                raise SerializationError("owl:Class without rdf:about")
            classes[local] = {
                "super": _read_subclass(element),
                "comment": _read_comment(element),
                "actor": _read_annotation(element, _ACTOR_ANNOTATION),
                "text": _read_annotation(element, _TEXT_ANNOTATION),
                "abstract": _read_annotation(element, _ABSTRACT_ANNOTATION)
                == "true",
            }
        elif element.tag == _tag(OWL, "NamedIndividual"):
            local = _local(element.get(_tag(RDF, "about"), ""))
            type_element = element.find(_tag(RDF, "type"))
            if type_element is None:
                raise SerializationError(
                    f"individual {local!r} has no rdf:type"
                )
            individuals.append(
                (
                    local,
                    _local(type_element.get(_tag(RDF, "resource"), "")),
                    _read_comment(element),
                )
            )
        elif element.tag in (
            _tag(OWL, "ObjectProperty"),
            _tag(OWL, "DatatypeProperty"),
        ):
            local = _local(element.get(_tag(RDF, "about"), ""))
            owner, parameter_name = _split_parameter(local)
            domain = element.find(_tag(RDFS, "domain"))
            if domain is not None:
                owner = _local(domain.get(_tag(RDF, "resource"), "")) or owner
            range_element = element.find(_tag(RDFS, "range"))
            type_name = (
                _local(range_element.get(_tag(RDF, "resource"), ""))
                if range_element is not None
                else None
            )
            parameters.setdefault(owner, []).append(
                Parameter(parameter_name, type_name)
            )

    return _assemble(ontology_name, description, classes, individuals, parameters)


def _split_parameter(local: str) -> tuple[str, str]:
    """``param.<event type>.<parameter>`` -> (event type, parameter)."""
    if not local.startswith("param."):
        raise SerializationError(
            f"unexpected property {local!r} (expected 'param.<type>.<name>')"
        )
    remainder = local[len("param."):]
    owner, _, parameter_name = remainder.rpartition(".")
    if not owner or not parameter_name:
        raise SerializationError(f"malformed parameter property {local!r}")
    return owner, parameter_name


def _assemble(
    name: str,
    description: str,
    classes: dict[str, dict],
    individuals: list[tuple[str, str, str]],
    parameters: dict[str, list[Parameter]],
) -> Ontology:
    ontology = Ontology(name, description=description)

    def is_event_type(local: str) -> bool:
        seen: set[str] = set()
        current: Optional[str] = local
        while current is not None and current not in seen:
            seen.add(current)
            info = classes.get(current)
            if info is None:
                return False
            if info["super"] == _EVENT_ROOT:
                return True
            current = info["super"]
        return False

    def is_term(local: str) -> bool:
        info = classes.get(local)
        return info is not None and info["super"] == _TERM_ROOT

    for local, info in classes.items():
        if local in (_EVENT_ROOT, _TERM_ROOT):
            continue
        if is_term(local):
            ontology.add_term(Term(local, info["comment"]))
        elif is_event_type(local):
            super_name = info["super"]
            ontology.add_event_type(
                EventType(
                    name=local,
                    text=info["text"] or "",
                    actor=info["actor"],
                    parameters=tuple(parameters.get(local, ())),
                    super_name=None if super_name == _EVENT_ROOT else super_name,
                    abstract=info["abstract"],
                    description=info["comment"],
                )
            )
        else:
            ontology.add_instance_type(
                InstanceType(
                    name=local,
                    description=info["comment"],
                    super_name=info["super"],
                )
            )
    for local, type_name, comment in individuals:
        ontology.add_instance(Instance(local, type_name, comment))
    ontology.validate()
    return ontology


def _read_subclass(element: ET.Element) -> Optional[str]:
    subclass = element.find(_tag(RDFS, "subClassOf"))
    if subclass is None:
        return None
    return _local(subclass.get(_tag(RDF, "resource"), "")) or None


def _read_comment(element: ET.Element) -> str:
    comment = element.find(_tag(RDFS, "comment"))
    return (comment.text or "").strip() if comment is not None else ""


def _read_annotation(element: ET.Element, name: str) -> Optional[str]:
    annotation = element.find(_tag(REPRO.rstrip("#") + "#", name))
    if annotation is None:
        return None
    return (annotation.text or "").strip()
