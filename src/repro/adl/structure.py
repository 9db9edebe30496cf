"""Structural architecture description (xADL-flavoured).

An :class:`Architecture` contains :class:`Component` and :class:`Connector`
elements. Each element exposes named, directed :class:`Interface`\\ s;
:class:`Link`\\ s join two interfaces and are the only communication paths.
A component may decompose into a nested sub-architecture, in which case the
approach can map event types at the subcomponent level (paper §3.3).

Components carry prose ``responsibilities`` — the paper requires that "the
role of each component must be specified unambiguously to facilitate the
mapping of event types and components."
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from repro.errors import ArchitectureError


class Direction(Enum):
    """Data-flow direction of an interface.

    ``IN`` accepts communication, ``OUT`` initiates it, ``INOUT`` does both.
    """

    IN = "in"
    OUT = "out"
    INOUT = "inout"

    def accepts(self) -> bool:
        """Whether communication can flow into this interface."""
        return self in (Direction.IN, Direction.INOUT)

    def initiates(self) -> bool:
        """Whether communication can flow out of this interface."""
        return self in (Direction.OUT, Direction.INOUT)


@dataclass(frozen=True)
class Interface:
    """A named interaction point on a component or connector."""

    name: str
    direction: Direction = Direction.INOUT
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ArchitectureError("an interface must have a non-empty name")


@dataclass
class _Element:
    """Shared shape of components and connectors."""

    name: str
    description: str = ""
    interfaces: dict[str, Interface] = field(default_factory=dict)
    properties: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise ArchitectureError(
                f"a {type(self).__name__.lower()} must have a non-empty name"
            )

    def add_interface(
        self,
        name: str,
        direction: Direction = Direction.INOUT,
        description: str = "",
    ) -> Interface:
        """Declare an interface on this element; names are unique per
        element."""
        if name in self.interfaces:
            raise ArchitectureError(
                f"{self.name!r} already has an interface {name!r}"
            )
        interface = Interface(name, direction, description)
        self.interfaces[name] = interface
        return interface

    def interface(self, name: str) -> Interface:
        """Resolve an interface by name."""
        try:
            return self.interfaces[name]
        except KeyError:
            raise ArchitectureError(
                f"{self.name!r} has no interface {name!r}"
            ) from None


@dataclass
class Component(_Element):
    """A locus of computation with precisely defined responsibilities.

    ``responsibilities`` is the prose specification of the component's role;
    ``layer`` (a property convention) supports the layered and C2 styles;
    ``subarchitecture`` optionally decomposes the component.
    """

    responsibilities: tuple[str, ...] = ()
    subarchitecture: Optional["Architecture"] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        self.responsibilities = tuple(self.responsibilities)

    @property
    def layer(self) -> Optional[int]:
        """The component's layer number, when the architecture's style uses
        layers; ``None`` otherwise."""
        value = self.properties.get("layer")
        return int(value) if value is not None else None

    @layer.setter
    def layer(self, value: Optional[int]) -> None:
        if value is None:
            self.properties.pop("layer", None)
        else:
            self.properties["layer"] = str(value)


@dataclass
class Connector(_Element):
    """A locus of communication between components (bus, call, network)."""


@dataclass(frozen=True)
class Endpoint:
    """One end of a link: an interface on a named element."""

    element: str
    interface: str

    def __str__(self) -> str:
        return f"{self.element}.{self.interface}"


@dataclass(frozen=True)
class Link:
    """A connection between two interfaces.

    A link is physically bidirectional; the directions of its endpoint
    interfaces determine which way communication may actually flow.
    """

    name: str
    first: Endpoint
    second: Endpoint

    def __post_init__(self) -> None:
        if not self.name:
            raise ArchitectureError("a link must have a non-empty name")
        if self.first == self.second:
            raise ArchitectureError(
                f"link {self.name!r} connects an interface to itself"
            )

    @property
    def endpoints(self) -> tuple[Endpoint, Endpoint]:
        """Both endpoints."""
        return (self.first, self.second)

    def connects(self, element_a: str, element_b: str) -> bool:
        """Whether this link joins the two named elements (in either
        order)."""
        elements = {self.first.element, self.second.element}
        return elements == {element_a, element_b}

    def touches(self, element: str) -> bool:
        """Whether either endpoint is on the named element."""
        return element in (self.first.element, self.second.element)

    def other(self, element: str) -> Endpoint:
        """The endpoint *not* on the named element."""
        if self.first.element == element:
            return self.second
        if self.second.element == element:
            return self.first
        raise ArchitectureError(
            f"link {self.name!r} does not touch element {element!r}"
        )


class Architecture:
    """A structural architecture description.

    Components, connectors, and links are registered through the ``add_*``
    and :meth:`link` methods; :meth:`validate` checks referential and
    directional integrity. ``style`` optionally names the architectural
    style the description claims to follow (checked by
    :func:`repro.adl.styles.check_style`).

    The architecture carries its shared communication index
    (:func:`repro.adl.index.communication_index`), so the index and its
    cached graphs go when the architecture does. Copies and pickles
    leave it behind: a clone gets an index of its own.
    """

    def __init__(
        self, name: str, style: Optional[str] = None, description: str = ""
    ) -> None:
        if not name:
            raise ArchitectureError("an architecture must have a non-empty name")
        self.name = name
        self.style = style
        self.description = description
        self._components: dict[str, Component] = {}
        self._connectors: dict[str, Connector] = {}
        self._links: dict[str, Link] = {}
        self._behaviors: dict[str, "object"] = {}
        self._communication_index = None

    # ------------------------------------------------------------------
    # Element management
    # ------------------------------------------------------------------

    def add_component(
        self,
        name: str,
        description: str = "",
        responsibilities: Sequence[str] = (),
        interfaces: Sequence[Interface | str] = (),
        layer: Optional[int] = None,
        subarchitecture: Optional["Architecture"] = None,
    ) -> Component:
        """Create and register a component.

        Interfaces may be given as :class:`Interface` objects or bare names
        (which become ``INOUT`` interfaces).
        """
        self._check_fresh_name(name)
        component = Component(
            name=name,
            description=description,
            responsibilities=tuple(responsibilities),
            subarchitecture=subarchitecture,
        )
        for interface in interfaces:
            if isinstance(interface, Interface):
                component.interfaces[interface.name] = interface
            else:
                component.add_interface(interface)
        if layer is not None:
            component.layer = layer
        self._components[name] = component
        return component

    def add_connector(
        self,
        name: str,
        description: str = "",
        interfaces: Sequence[Interface | str] = (),
    ) -> Connector:
        """Create and register a connector."""
        self._check_fresh_name(name)
        connector = Connector(name=name, description=description)
        for interface in interfaces:
            if isinstance(interface, Interface):
                connector.interfaces[interface.name] = interface
            else:
                connector.add_interface(interface)
        self._connectors[name] = connector
        return connector

    def _check_fresh_name(self, name: str) -> None:
        if name in self._components or name in self._connectors:
            raise ArchitectureError(
                f"architecture {self.name!r} already has an element {name!r}"
            )

    def link(
        self,
        first: str | tuple[str, str],
        second: str | tuple[str, str],
        name: Optional[str] = None,
    ) -> Link:
        """Connect two interfaces.

        Endpoints may be ``(element, interface)`` tuples or ``"element.interface"``
        strings. If the named interface does not exist yet on its element it
        is created as ``INOUT`` — a convenience for connector-heavy models.
        """
        first_endpoint = self._resolve_endpoint(first)
        second_endpoint = self._resolve_endpoint(second)
        link_name = name or self._free_link_name()
        if link_name in self._links:
            raise ArchitectureError(
                f"architecture {self.name!r} already has a link {link_name!r}"
            )
        link = Link(link_name, first_endpoint, second_endpoint)
        self._check_link_directions(link)
        self._links[link_name] = link
        return link

    def _free_link_name(self) -> str:
        """``link-N`` for the first free ``N`` from the link count plus
        one: the count's own name while no link was removed, and never
        a name a remaining link holds once one was."""
        number = len(self._links) + 1
        while f"link-{number}" in self._links:
            number += 1
        return f"link-{number}"

    def _resolve_endpoint(self, endpoint: str | tuple[str, str]) -> Endpoint:
        if isinstance(endpoint, tuple):
            element_name, interface_name = endpoint
        else:
            element_name, _, interface_name = endpoint.partition(".")
            if not interface_name:
                raise ArchitectureError(
                    f"endpoint {endpoint!r} must be 'element.interface'"
                )
        element = self.element(element_name)
        if interface_name not in element.interfaces:
            element.add_interface(interface_name)
        return Endpoint(element_name, interface_name)

    def _check_link_directions(self, link: Link) -> None:
        first = self.element(link.first.element).interface(link.first.interface)
        second = self.element(link.second.element).interface(link.second.interface)
        forward = first.direction.initiates() and second.direction.accepts()
        backward = second.direction.initiates() and first.direction.accepts()
        if not (forward or backward):
            raise ArchitectureError(
                f"link {link.name!r} joins incompatible interface directions "
                f"({link.first}:{first.direction.value} <-> "
                f"{link.second}:{second.direction.value})"
            )

    def remove_link(self, name: str) -> Link:
        """Remove a link by name and return it."""
        try:
            return self._links.pop(name)
        except KeyError:
            raise ArchitectureError(
                f"architecture {self.name!r} has no link {name!r}"
            ) from None

    def excise_links_between(self, element_a: str, element_b: str) -> tuple[Link, ...]:
        """Remove every link joining two elements, returning the removed
        links. This is the paper's fault-seeding operation (§4.1: the link
        between "Data Access" and "Loader" was excised)."""
        self.element(element_a)
        self.element(element_b)
        removed = tuple(
            link for link in self._links.values() if link.connects(element_a, element_b)
        )
        for link in removed:
            del self._links[link.name]
        return removed

    # ------------------------------------------------------------------
    # Behavior attachment
    # ------------------------------------------------------------------

    def attach_behavior(self, element_name: str, statechart: "object") -> None:
        """Attach a statechart behavioral description to an element
        (the xADL statechart extension)."""
        self.element(element_name)
        self._behaviors[element_name] = statechart

    def behavior(self, element_name: str) -> Optional["object"]:
        """The statechart attached to an element, if any."""
        return self._behaviors.get(element_name)

    @property
    def behaviors(self) -> Mapping[str, "object"]:
        """All attached statecharts, keyed by element name."""
        return dict(self._behaviors)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    @property
    def components(self) -> tuple[Component, ...]:
        """All components, in registration order."""
        return tuple(self._components.values())

    @property
    def connectors(self) -> tuple[Connector, ...]:
        """All connectors, in registration order."""
        return tuple(self._connectors.values())

    @property
    def links(self) -> tuple[Link, ...]:
        """All links, in registration order."""
        return tuple(self._links.values())

    def component(self, name: str) -> Component:
        """Resolve a component by name."""
        try:
            return self._components[name]
        except KeyError:
            raise ArchitectureError(
                f"architecture {self.name!r} has no component {name!r}"
            ) from None

    def connector(self, name: str) -> Connector:
        """Resolve a connector by name."""
        try:
            return self._connectors[name]
        except KeyError:
            raise ArchitectureError(
                f"architecture {self.name!r} has no connector {name!r}"
            ) from None

    def element(self, name: str) -> Component | Connector:
        """Resolve a component or connector by name."""
        if name in self._components:
            return self._components[name]
        if name in self._connectors:
            return self._connectors[name]
        raise ArchitectureError(
            f"architecture {self.name!r} has no element {name!r}"
        )

    def has_element(self, name: str) -> bool:
        """Whether a component or connector with this name exists."""
        return name in self._components or name in self._connectors

    def is_component(self, name: str) -> bool:
        """Whether the named element is a component."""
        return name in self._components

    def is_connector(self, name: str) -> bool:
        """Whether the named element is a connector."""
        return name in self._connectors

    def links_between(self, element_a: str, element_b: str) -> tuple[Link, ...]:
        """All links joining two elements."""
        return tuple(
            link for link in self._links.values() if link.connects(element_a, element_b)
        )

    def links_of(self, element: str) -> tuple[Link, ...]:
        """All links touching an element."""
        return tuple(link for link in self._links.values() if link.touches(element))

    def neighbors(self, element: str) -> tuple[str, ...]:
        """Names of elements directly linked to ``element``."""
        seen: dict[str, None] = {}
        for link in self.links_of(element):
            seen.setdefault(link.other(element).element)
        return tuple(seen)

    def component_names(self) -> tuple[str, ...]:
        """All component names, in registration order."""
        return tuple(self._components)

    def all_components(self, recursive: bool = False) -> Iterator[Component]:
        """All components; with ``recursive``, includes subarchitecture
        components depth-first."""
        for component in self._components.values():
            yield component
            if recursive and component.subarchitecture is not None:
                yield from component.subarchitecture.all_components(recursive=True)

    # ------------------------------------------------------------------
    # Validation and copying
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Check referential integrity of the description.

        Every link endpoint must resolve to an existing interface with
        compatible directions; subarchitectures are validated recursively.
        """
        for link in self._links.values():
            for endpoint in link.endpoints:
                element = self.element(endpoint.element)
                element.interface(endpoint.interface)
            self._check_link_directions(link)
        for component in self._components.values():
            if component.subarchitecture is not None:
                component.subarchitecture.validate()

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_communication_index"] = None
        return state

    def clone(self, name: Optional[str] = None) -> "Architecture":
        """A deep copy, optionally renamed — the safe way to derive a
        fault-seeded variant without mutating the original."""
        duplicate = copy.deepcopy(self)
        if name is not None:
            duplicate.name = name
        return duplicate

    def __repr__(self) -> str:
        return (
            f"Architecture({self.name!r}: {len(self._components)} components, "
            f"{len(self._connectors)} connectors, {len(self._links)} links)"
        )
