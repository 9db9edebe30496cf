"""Component and connector types (the xADL types layer).

xADL 2.0's distinguishing feature is its *types* schema: components and
connectors are instances of reusable types declaring signatures
(interface names and directions). This module reproduces that layer on
top of the structural model:

* a :class:`ComponentType` / :class:`ConnectorType` declares a set of
  :class:`Signature`\\ s (name + direction) and optional shared
  responsibilities;
* a :class:`TypeRegistry` holds the types of a family of architectures
  (e.g. "every CRASH peer instantiates the `command-and-control` type");
* :func:`instantiate` stamps out a conforming element in an architecture;
* :func:`check_conformance` verifies that every element declaring a type
  (via the ``type`` property) matches its type's signatures — the typed
  counterpart of style checking.

Types make families cheap: the CRASH architecture's seven structurally
identical peers are the motivating case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.adl.structure import (
    Architecture,
    Component,
    Connector,
    Direction,
    Interface,
)
from repro.errors import ArchitectureError

TYPE_PROPERTY = "type"


@dataclass(frozen=True)
class Signature:
    """One declared interaction point of a type."""

    name: str
    direction: Direction = Direction.INOUT
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ArchitectureError("a signature must have a non-empty name")


@dataclass(frozen=True)
class _ElementType:
    """Shared shape of component and connector types."""

    name: str
    signatures: tuple[Signature, ...] = ()
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ArchitectureError("a type must have a non-empty name")
        seen: set[str] = set()
        for signature in self.signatures:
            if signature.name in seen:
                raise ArchitectureError(
                    f"type {self.name!r} declares signature "
                    f"{signature.name!r} twice"
                )
            seen.add(signature.name)

    def signature(self, name: str) -> Signature:
        """Resolve a signature by name."""
        for signature in self.signatures:
            if signature.name == name:
                return signature
        raise ArchitectureError(
            f"type {self.name!r} has no signature {name!r}"
        )


@dataclass(frozen=True)
class ComponentType(_ElementType):
    """A reusable component type with shared responsibilities."""

    responsibilities: tuple[str, ...] = ()


@dataclass(frozen=True)
class ConnectorType(_ElementType):
    """A reusable connector type."""


@dataclass(frozen=True)
class ConformanceViolation:
    """One mismatch between an element and its declared type."""

    element: str
    type_name: str
    message: str

    def __str__(self) -> str:
        return f"{self.element} (: {self.type_name}): {self.message}"


class TypeRegistry:
    """The component/connector types of an architectural family."""

    def __init__(self, name: str = "types") -> None:
        self.name = name
        self._component_types: dict[str, ComponentType] = {}
        self._connector_types: dict[str, ConnectorType] = {}

    def add(self, element_type: ComponentType | ConnectorType):
        """Register a type; names are unique per kind."""
        if isinstance(element_type, ComponentType):
            table = self._component_types
        elif isinstance(element_type, ConnectorType):
            table = self._connector_types
        else:
            raise ArchitectureError(
                f"cannot register {type(element_type).__name__} as a type"
            )
        if element_type.name in table:
            raise ArchitectureError(
                f"registry {self.name!r} already has a "
                f"{type(element_type).__name__} named {element_type.name!r}"
            )
        table[element_type.name] = element_type
        return element_type

    def component_type(self, name: str) -> ComponentType:
        """Resolve a component type by name."""
        try:
            return self._component_types[name]
        except KeyError:
            raise ArchitectureError(
                f"registry {self.name!r} has no component type {name!r}"
            ) from None

    def connector_type(self, name: str) -> ConnectorType:
        """Resolve a connector type by name."""
        try:
            return self._connector_types[name]
        except KeyError:
            raise ArchitectureError(
                f"registry {self.name!r} has no connector type {name!r}"
            ) from None

    # ------------------------------------------------------------------
    # Instantiation
    # ------------------------------------------------------------------

    def instantiate_component(
        self,
        architecture: Architecture,
        type_name: str,
        instance_name: str,
        description: str = "",
        extra_responsibilities: Iterable[str] = (),
        layer: Optional[int] = None,
    ) -> Component:
        """Create a component conforming to a registered type."""
        component_type = self.component_type(type_name)
        component = architecture.add_component(
            instance_name,
            description=description or component_type.description,
            responsibilities=(
                *component_type.responsibilities,
                *extra_responsibilities,
            ),
            interfaces=[
                Interface(s.name, s.direction, s.description)
                for s in component_type.signatures
            ],
            layer=layer,
        )
        component.properties[TYPE_PROPERTY] = type_name
        return component

    def instantiate_connector(
        self,
        architecture: Architecture,
        type_name: str,
        instance_name: str,
        description: str = "",
    ) -> Connector:
        """Create a connector conforming to a registered type."""
        connector_type = self.connector_type(type_name)
        connector = architecture.add_connector(
            instance_name,
            description=description or connector_type.description,
            interfaces=[
                Interface(s.name, s.direction, s.description)
                for s in connector_type.signatures
            ],
        )
        connector.properties[TYPE_PROPERTY] = type_name
        return connector

    # ------------------------------------------------------------------
    # Conformance
    # ------------------------------------------------------------------

    def check_conformance(
        self, architecture: Architecture
    ) -> list[ConformanceViolation]:
        """Check every typed element against its declared type.

        An element conforms when it carries every signature of its type
        with the declared direction; extra interfaces are allowed (types
        are minimal contracts). Elements without a ``type`` property are
        skipped; a dangling type name is itself a violation.
        """
        violations: list[ConformanceViolation] = []
        for component in architecture.components:
            violations.extend(
                self._check_element(
                    component, self._component_types, "component"
                )
            )
        for connector in architecture.connectors:
            violations.extend(
                self._check_element(
                    connector, self._connector_types, "connector"
                )
            )
        return violations

    def _check_element(
        self, element, table: dict, kind: str
    ) -> list[ConformanceViolation]:
        type_name = element.properties.get(TYPE_PROPERTY)
        if type_name is None:
            return []
        element_type = table.get(type_name)
        if element_type is None:
            return [
                ConformanceViolation(
                    element.name,
                    type_name,
                    f"declares unknown {kind} type",
                )
            ]
        violations = []
        for signature in element_type.signatures:
            interface = element.interfaces.get(signature.name)
            if interface is None:
                violations.append(
                    ConformanceViolation(
                        element.name,
                        type_name,
                        f"missing interface {signature.name!r} required by "
                        "its type",
                    )
                )
            elif interface.direction is not signature.direction:
                violations.append(
                    ConformanceViolation(
                        element.name,
                        type_name,
                        f"interface {signature.name!r} has direction "
                        f"{interface.direction.value!r}, type requires "
                        f"{signature.direction.value!r}",
                    )
                )
        return violations

    def instances_of(
        self, architecture: Architecture, type_name: str
    ) -> tuple[str, ...]:
        """Names of elements declaring the given type."""
        return tuple(
            element.name
            for element in (*architecture.components, *architecture.connectors)
            if element.properties.get(TYPE_PROPERTY) == type_name
        )
