"""xADL-flavoured XML serialization and parsing of architectures.

The dialect follows xADL 2.0's structure-and-types vocabulary in spirit
(components, connectors, interfaces, links with two endpoints,
sub-architectures) with the statechart behavioral extension serialized
inline::

    <xArch name="pims" style="layered">
      <component id="master-controller" layer="4">
        <description>Presentation layer</description>
        <responsibility>Interact with the user</responsibility>
        <interface id="calls" direction="out"/>
        <statechart initial="idle">
          <state id="idle" initial="true"/>
          <transition from="idle" to="idle" trigger="request">
            <action kind="send" message="response" via="calls"/>
          </transition>
        </statechart>
      </component>
      <connector id="mc-bl"><interface id="a"/></connector>
      <link id="l1">
        <point element="master-controller" interface="calls"/>
        <point element="mc-bl" interface="a"/>
      </link>
    </xArch>

:func:`to_xadl_xml` and :func:`parse_xadl` are inverses up to formatting.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Optional

from repro.adl.behavior import Action, ActionKind, Statechart
from repro.adl.structure import (
    Architecture,
    Component,
    Connector,
    Direction,
    Interface,
)
from repro.errors import SerializationError

_ACTION_BY_VALUE = {kind.value: kind for kind in ActionKind}
_DIRECTION_BY_VALUE = {direction.value: direction for direction in Direction}


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------

def to_xadl_xml(architecture: Architecture) -> str:
    """Serialize an architecture (structure + behavior) to xADL XML."""
    root = _architecture_element(architecture)
    ET.indent(root)
    return ET.tostring(root, encoding="unicode", xml_declaration=False)


def _architecture_element(architecture: Architecture) -> ET.Element:
    attrs = {"name": architecture.name}
    if architecture.style:
        attrs["style"] = architecture.style
    root = ET.Element("xArch", attrs)
    if architecture.description:
        description = ET.SubElement(root, "description")
        description.text = architecture.description
    for component in architecture.components:
        root.append(_component_element(component, architecture))
    for connector in architecture.connectors:
        root.append(_connector_element(connector, architecture))
    for link in architecture.links:
        element = ET.SubElement(root, "link", {"id": link.name})
        for endpoint in link.endpoints:
            ET.SubElement(
                element,
                "point",
                {"element": endpoint.element, "interface": endpoint.interface},
            )
    return root


def _component_element(
    component: Component, architecture: Architecture
) -> ET.Element:
    element = ET.Element("component", {"id": component.name})
    _write_element_common(element, component, architecture)
    for responsibility in component.responsibilities:
        child = ET.SubElement(element, "responsibility")
        child.text = responsibility
    if component.subarchitecture is not None:
        wrapper = ET.SubElement(element, "subArchitecture")
        wrapper.append(_architecture_element(component.subarchitecture))
    return element


def _connector_element(
    connector: Connector, architecture: Architecture
) -> ET.Element:
    element = ET.Element("connector", {"id": connector.name})
    _write_element_common(element, connector, architecture)
    return element


def _write_element_common(
    element: ET.Element,
    model: Component | Connector,
    architecture: Architecture,
) -> None:
    for key, value in model.properties.items():
        if key in _RESERVED_ATTRS:
            raise SerializationError(
                f"element {model.name!r} has a property named {key!r}, "
                "which collides with a reserved xADL attribute"
            )
        element.set(key, value)
    if model.description:
        description = ET.SubElement(element, "description")
        description.text = model.description
    for interface in model.interfaces.values():
        attrs = {"id": interface.name, "direction": interface.direction.value}
        if interface.description:
            attrs["description"] = interface.description
        ET.SubElement(element, "interface", attrs)
    behavior = architecture.behavior(model.name)
    if isinstance(behavior, Statechart):
        element.append(_statechart_element(behavior))


def _statechart_element(chart: Statechart) -> ET.Element:
    element = ET.Element("statechart", {"name": chart.name})
    if chart.description:
        element.set("description", chart.description)
    for state in chart.states:
        attrs = {"id": state.name}
        if state.initial:
            attrs["initial"] = "true"
        if state.parent:
            attrs["parent"] = state.parent
        if state.description:
            attrs["description"] = state.description
        state_element = ET.SubElement(element, "state", attrs)
        for wrapper_tag, actions in (
            ("entry", state.entry_actions),
            ("exit", state.exit_actions),
        ):
            if actions:
                wrapper = ET.SubElement(state_element, wrapper_tag)
                for action in actions:
                    _write_action(wrapper, action)
    for transition in chart.transitions:
        attrs = {
            "from": transition.source,
            "to": transition.target,
            "trigger": transition.trigger,
        }
        if transition.guard:
            attrs["guard"] = transition.guard
        child = ET.SubElement(element, "transition", attrs)
        for action in transition.actions:
            _write_action(child, action)
    return element


def _write_action(parent: ET.Element, action: Action) -> None:
    action_attrs = {"kind": action.kind.value}
    if action.message:
        action_attrs["message"] = action.message
    if action.via:
        action_attrs["via"] = action.via
    if action.message_kind:
        action_attrs["messageKind"] = action.message_kind
    if action.description:
        action_attrs["description"] = action.description
    ET.SubElement(parent, "action", action_attrs)


# ----------------------------------------------------------------------
# Parsing
# ----------------------------------------------------------------------

def parse_xadl(document: str | bytes) -> Architecture:
    """Parse xADL XML into an :class:`Architecture`.

    Bytes are decoded as the XML declaration says, UTF-8 by default."""
    try:
        root = ET.fromstring(document)
    except ET.ParseError as error:
        raise SerializationError(f"malformed xADL XML: {error}") from error
    if root.tag != "xArch":
        raise SerializationError(
            f"expected root element 'xArch', found {root.tag!r}"
        )
    return _parse_architecture(root)


_RESERVED_ATTRS = {"id", "name", "style"}


def _parse_architecture(root: ET.Element) -> Architecture:
    architecture = Architecture(
        name=_required(root, "name"), style=root.get("style")
    )
    for child in root:
        if child.tag == "description":
            architecture.description = (child.text or "").strip()
        elif child.tag == "component":
            _parse_component(child, architecture)
        elif child.tag == "connector":
            _parse_connector(child, architecture)
        elif child.tag == "link":
            points = child.findall("point")
            if len(points) != 2:
                raise SerializationError(
                    f"link {child.get('id')!r} must have exactly two points"
                )
            architecture.link(
                (_required(points[0], "element"), _required(points[0], "interface")),
                (_required(points[1], "element"), _required(points[1], "interface")),
                name=_required(child, "id"),
            )
        else:
            raise SerializationError(f"unexpected element <{child.tag}> in <xArch>")
    architecture.validate()
    return architecture


def _parse_component(element: ET.Element, architecture: Architecture) -> None:
    description, interfaces, chart = _parse_element_common(element)
    responsibilities = tuple(
        (child.text or "").strip() for child in element.findall("responsibility")
    )
    subarchitecture: Optional[Architecture] = None
    wrapper = element.find("subArchitecture")
    if wrapper is not None:
        inner = wrapper.find("xArch")
        if inner is None:
            raise SerializationError(
                f"<subArchitecture> of {element.get('id')!r} has no <xArch>"
            )
        subarchitecture = _parse_architecture(inner)
    component = architecture.add_component(
        name=_required(element, "id"),
        description=description,
        responsibilities=responsibilities,
        interfaces=interfaces,
        subarchitecture=subarchitecture,
    )
    component.properties.update(_extra_attributes(element))
    if chart is not None:
        architecture.attach_behavior(component.name, chart)


def _parse_connector(element: ET.Element, architecture: Architecture) -> None:
    description, interfaces, chart = _parse_element_common(element)
    connector = architecture.add_connector(
        name=_required(element, "id"),
        description=description,
        interfaces=interfaces,
    )
    connector.properties.update(_extra_attributes(element))
    if chart is not None:
        architecture.attach_behavior(connector.name, chart)


def _parse_element_common(
    element: ET.Element,
) -> tuple[str, list[Interface], Optional[Statechart]]:
    description = ""
    interfaces: list[Interface] = []
    chart: Optional[Statechart] = None
    for child in element:
        if child.tag == "description":
            description = (child.text or "").strip()
        elif child.tag == "interface":
            interfaces.append(
                Interface(
                    name=_required(child, "id"),
                    direction=_parse_direction(child.get("direction", "inout")),
                    description=child.get("description", ""),
                )
            )
        elif child.tag == "statechart":
            chart = _parse_statechart(child)
    return description, interfaces, chart


def _parse_statechart(element: ET.Element) -> Statechart:
    chart = Statechart(
        name=element.get("name", "behavior"),
        description=element.get("description", ""),
    )
    for child in element.findall("state"):
        chart.add_state(
            name=_required(child, "id"),
            initial=child.get("initial") == "true",
            parent=child.get("parent"),
            description=child.get("description", ""),
            entry_actions=_parse_action_group(child, "entry"),
            exit_actions=_parse_action_group(child, "exit"),
        )
    for child in element.findall("transition"):
        actions = tuple(
            _parse_action(action) for action in child.findall("action")
        )
        chart.add_transition(
            source=_required(child, "from"),
            target=_required(child, "to"),
            trigger=_required(child, "trigger"),
            guard=child.get("guard"),
            actions=actions,
        )
    return chart


def _parse_action_group(
    state_element: ET.Element, wrapper_tag: str
) -> tuple[Action, ...]:
    wrapper = state_element.find(wrapper_tag)
    if wrapper is None:
        return ()
    return tuple(_parse_action(action) for action in wrapper.findall("action"))


def _parse_action(action: ET.Element) -> Action:
    return Action(
        kind=_parse_action_kind(_required(action, "kind")),
        message=action.get("message", ""),
        via=action.get("via"),
        message_kind=action.get("messageKind"),
        description=action.get("description", ""),
    )


def _parse_direction(value: str) -> Direction:
    try:
        return _DIRECTION_BY_VALUE[value]
    except KeyError:
        raise SerializationError(f"unknown interface direction {value!r}") from None


def _parse_action_kind(value: str) -> ActionKind:
    try:
        return _ACTION_BY_VALUE[value]
    except KeyError:
        raise SerializationError(f"unknown action kind {value!r}") from None


def _extra_attributes(element: ET.Element) -> dict[str, str]:
    return {
        key: value
        for key, value in element.attrib.items()
        if key not in _RESERVED_ATTRS
    }


def _required(element: ET.Element, attribute: str) -> str:
    value = element.get(attribute)
    if value is None:
        raise SerializationError(
            f"<{element.tag}> is missing required attribute {attribute!r}"
        )
    return value
