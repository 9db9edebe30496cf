"""The ontology-to-architecture mapping (paper §3.4).

The mapping relates *event types* in the ontology to *components* in the
architecture's structural description. It is many-to-many: one
requirements-level event type may decompose into low-level actions of
several components, and one component supports actions of many event
types. Because scenarios reference event types (rather than carrying free
text), every occurrence of an event type shares the type's single set of
mapping links — the paper's complexity-reduction argument, quantified here
by :meth:`Mapping.link_count` vs. :meth:`Mapping.direct_link_count`.

:class:`MappingTable` renders the paper's Table 1: rows are event types,
columns are components, a mark means "mapped".
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Mapping as MappingABC, Optional

from repro.adl.structure import Architecture
from repro.errors import MappingError
from repro.scenarioml.compiled import CompiledSuite
from repro.scenarioml.ontology import Ontology
from repro.scenarioml.query import event_type_usage
from repro.scenarioml.scenario import ScenarioSet


class Mapping:
    """A many-to-many map from ontology event types to components.

    Components may live in the top-level architecture or in a nested
    sub-architecture (the paper's §3.3 subcomponent-level mapping);
    :meth:`top_level_component` resolves a nested component to its
    top-level ancestor for connectivity checks.
    """

    def __init__(
        self,
        ontology: Ontology,
        architecture: Architecture,
        name: str = "mapping",
    ) -> None:
        self.ontology = ontology
        self.architecture = architecture
        self.name = name
        self._event_to_components: dict[str, tuple[str, ...]] = {}
        self._component_index: dict[str, str] = {}  # component -> top-level ancestor
        #: Bumped by :meth:`map_event` (and so by :meth:`update`) and
        #: :meth:`unmap_event`, so a cache of resolutions can tell that
        #: the entries changed.
        self.version = 0
        self._index_components(architecture, ancestor=None)

    def _index_components(
        self, architecture: Architecture, ancestor: Optional[str]
    ) -> None:
        for component in architecture.components:
            top = ancestor or component.name
            if component.name not in self._component_index:
                self._component_index[component.name] = top
            if component.subarchitecture is not None:
                self._index_nested(component.subarchitecture, top)

    def _index_nested(self, architecture: Architecture, top: str) -> None:
        for component in architecture.components:
            self._component_index.setdefault(component.name, top)
            if component.subarchitecture is not None:
                self._index_nested(component.subarchitecture, top)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def map_event(self, event_type_name: str, *component_names: str) -> None:
        """Map an event type to one or more components.

        Repeated calls accumulate components. Both sides are validated:
        the event type must exist in the ontology and every component in
        the architecture (including sub-architectures).
        """
        if not self.ontology.has_event_type(event_type_name):
            raise MappingError(
                f"cannot map unknown event type {event_type_name!r}"
            )
        if not component_names:
            raise MappingError(
                f"event type {event_type_name!r} must map to at least one "
                "component"
            )
        for component_name in component_names:
            if component_name not in self._component_index:
                raise MappingError(
                    f"cannot map event type {event_type_name!r} to unknown "
                    f"component {component_name!r}"
                )
        existing = self._event_to_components.get(event_type_name, ())
        merged = list(existing)
        for component_name in component_names:
            if component_name not in merged:
                merged.append(component_name)
        self._event_to_components[event_type_name] = tuple(merged)
        self.version += 1

    def unmap_event(self, event_type_name: str) -> None:
        """Remove an event type's mapping entirely."""
        self._event_to_components.pop(event_type_name, None)
        self.version += 1

    def update(self, entries: MappingABC[str, Iterable[str]]) -> None:
        """Bulk :meth:`map_event` from a ``{event_type: components}``
        mapping."""
        for event_type_name, component_names in entries.items():
            self.map_event(event_type_name, *component_names)

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------

    def components_for(
        self, event_type_name: str, use_supertypes: bool = True
    ) -> tuple[str, ...]:
        """The components an event type maps to.

        When the type itself is unmapped and ``use_supertypes`` is set,
        the nearest mapped supertype's components are inherited — the
        paper's §5 generalization mechanism (map the abstract action once;
        specializations follow).
        """
        direct = self._event_to_components.get(event_type_name)
        if direct is not None:
            return direct
        if use_supertypes and self.ontology.has_event_type(event_type_name):
            for ancestor in self.ontology.event_type_ancestors(event_type_name):
                inherited = self._event_to_components.get(ancestor)
                if inherited is not None:
                    return inherited
        return ()

    def resolution_for(
        self, event_type_name: str, use_supertypes: bool = True
    ) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """Like :meth:`components_for`, but also reports the chain of
        event types consulted.

        Returns ``(components, hops)``: ``hops`` starts at the type
        itself and, under supertype fallback, continues through each
        ancestor consulted; when ``components`` is non-empty the last
        hop is the type whose mapping entry answered. Used by finding
        provenance to show the resolution path an analyst would have
        walked by hand.
        """
        direct = self._event_to_components.get(event_type_name)
        if direct is not None:
            return direct, (event_type_name,)
        hops = [event_type_name]
        if use_supertypes and self.ontology.has_event_type(event_type_name):
            for ancestor in self.ontology.event_type_ancestors(event_type_name):
                hops.append(ancestor)
                inherited = self._event_to_components.get(ancestor)
                if inherited is not None:
                    return inherited, tuple(hops)
        return (), tuple(hops)

    def event_types_for(self, component_name: str) -> tuple[str, ...]:
        """The event types mapped to a component."""
        return tuple(
            event_type
            for event_type, components in self._event_to_components.items()
            if component_name in components
        )

    def is_mapped(self, event_type_name: str) -> bool:
        """Whether the event type has a (direct or inherited) mapping."""
        return bool(self.components_for(event_type_name))

    @property
    def mapped_event_types(self) -> tuple[str, ...]:
        """Event types with a direct mapping, in mapping order."""
        return tuple(self._event_to_components)

    @property
    def entries(self) -> dict[str, tuple[str, ...]]:
        """A copy of the direct mapping entries."""
        return dict(self._event_to_components)

    def top_level_component(self, component_name: str) -> str:
        """The top-level ancestor of a (possibly nested) component."""
        try:
            return self._component_index[component_name]
        except KeyError:
            raise MappingError(
                f"unknown component {component_name!r}"
            ) from None

    # ------------------------------------------------------------------
    # Coverage checks (paper §4.1: every event type maps to at least one
    # component and every component is mapped to by at least one type)
    # ------------------------------------------------------------------

    def unmapped_event_types(
        self, scenario_set: Optional[ScenarioSet | CompiledSuite] = None
    ) -> tuple[str, ...]:
        """Event types without any mapping — all ontology types by
        default, or only the ones a scenario set (or its compiled view)
        actually uses, in first-use order."""
        if scenario_set is not None:
            candidates = scenario_set.event_type_names()
        else:
            candidates = tuple(
                event_type.name
                for event_type in self.ontology.event_types
                if not event_type.abstract
            )
        return tuple(name for name in candidates if not self.is_mapped(name))

    def unmapped_components(self) -> tuple[str, ...]:
        """Top-level components no event type maps to (directly or through
        a nested subcomponent)."""
        mapped_tops = {
            self.top_level_component(component)
            for components in self._event_to_components.values()
            for component in components
        }
        return tuple(
            component.name
            for component in self.architecture.components
            if component.name not in mapped_tops
        )

    def validate(self) -> None:
        """Re-check that every entry still resolves (useful after the
        architecture or ontology evolved)."""
        for event_type_name, components in self._event_to_components.items():
            if not self.ontology.has_event_type(event_type_name):
                raise MappingError(
                    f"mapping references unknown event type {event_type_name!r}"
                )
            for component_name in components:
                if component_name not in self._component_index:
                    raise MappingError(
                        f"mapping references unknown component "
                        f"{component_name!r} (for {event_type_name!r})"
                    )

    # ------------------------------------------------------------------
    # Complexity metrics (paper §1: the ontology reduces the number of
    # requirement-to-architecture links)
    # ------------------------------------------------------------------

    def link_count(self) -> int:
        """Number of ontology-mediated links: one per (event type,
        component) pair in the mapping."""
        return sum(len(components) for components in self._event_to_components.values())

    def direct_link_count(self, scenario_set: ScenarioSet) -> int:
        """Number of links a mapping *without* the ontology would need:
        every occurrence of an event in every scenario linked individually
        to all relevant components."""
        usage = event_type_usage(scenario_set.scenarios)
        return sum(
            occurrences * len(self.components_for(event_type_name))
            for event_type_name, occurrences in usage.items()
        )

    def complexity_reduction(self, scenario_set: ScenarioSet) -> float:
        """``direct_link_count / link_count`` restricted to event types the
        scenario set uses — how many times smaller the ontology-mediated
        mapping is. 1.0 means no reuse benefit."""
        usage = event_type_usage(scenario_set.scenarios)
        mediated = sum(
            len(self.components_for(name)) for name in usage if self.is_mapped(name)
        )
        if mediated == 0:
            return 1.0
        return self.direct_link_count(scenario_set) / mediated

    # ------------------------------------------------------------------
    # Table rendering and persistence
    # ------------------------------------------------------------------

    def table(self, scenario_set: Optional[ScenarioSet] = None) -> "MappingTable":
        """The mapping as a Table 1-style event-type × component grid.

        With a scenario set, rows are limited to event types the scenarios
        use (in first-use order); otherwise all mapped types appear.
        """
        if scenario_set is not None:
            rows = [
                name
                for name in scenario_set.event_type_names()
                if self.is_mapped(name)
            ]
        else:
            rows = list(self._event_to_components)
        columns = [component.name for component in self.architecture.components]
        cells = {
            row: frozenset(
                self.top_level_component(component)
                for component in self.components_for(row)
            )
            for row in rows
        }
        return MappingTable(tuple(rows), tuple(columns), cells)

    def to_dict(self) -> dict:
        """A JSON-serializable representation."""
        return {
            "name": self.name,
            "ontology": self.ontology.name,
            "architecture": self.architecture.name,
            "entries": {
                event_type: list(components)
                for event_type, components in self._event_to_components.items()
            },
        }

    def to_json(self, indent: int = 2) -> str:
        """Serialize to JSON text."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(
        cls,
        data: dict,
        ontology: Ontology,
        architecture: Architecture,
    ) -> "Mapping":
        """Rebuild a mapping from :meth:`to_dict` output, re-validating
        every entry against the given ontology and architecture."""
        mapping = cls(ontology, architecture, name=data.get("name", "mapping"))
        for event_type_name, components in data.get("entries", {}).items():
            mapping.map_event(event_type_name, *components)
        return mapping

    @classmethod
    def from_json(
        cls, text: str, ontology: Ontology, architecture: Architecture
    ) -> "Mapping":
        """Rebuild a mapping from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text), ontology, architecture)

    def rebind(
        self, architecture: Architecture, name: Optional[str] = None
    ) -> "Mapping":
        """This mapping's entries bound to another architecture object
        (typically an evolved clone).

        Equivalent to ``Mapping.from_dict(self.to_dict(), ...)`` minus the
        serialization round-trip: entries are copied directly after
        checking that every referenced component still exists in the new
        architecture. Raises :class:`~repro.errors.MappingError` when one
        does not (the mapping must be repaired before re-binding). Binding
        back to the same architecture object returns ``self`` unchanged.
        """
        if architecture is self.architecture:
            return self
        rebound = Mapping(
            self.ontology, architecture, name=name or self.name
        )
        for event_type_name, components in self._event_to_components.items():
            for component_name in components:
                if component_name not in rebound._component_index:
                    raise MappingError(
                        f"cannot rebind: architecture "
                        f"{architecture.name!r} has no component "
                        f"{component_name!r} (mapped by "
                        f"{event_type_name!r})"
                    )
            rebound._event_to_components[event_type_name] = components
        return rebound

    def __repr__(self) -> str:
        return (
            f"Mapping({self.name!r}: {len(self._event_to_components)} event "
            f"types -> {self.link_count()} links)"
        )


@dataclass(frozen=True)
class MappingTable:
    """An event-type × component grid (the paper's Table 1)."""

    rows: tuple[str, ...]
    columns: tuple[str, ...]
    cells: dict[str, frozenset[str]]

    def is_marked(self, event_type_name: str, component_name: str) -> bool:
        """Whether the grid marks this (event type, component) pair."""
        return component_name in self.cells.get(event_type_name, frozenset())

    def render(self, mark: str = "X") -> str:
        """Plain-text table."""
        header = ["event type \\ component", *self.columns]
        widths = [len(cell) for cell in header]
        body: list[list[str]] = []
        for row in self.rows:
            line = [row]
            for column in self.columns:
                line.append(mark if self.is_marked(row, column) else "")
            body.append(line)
            widths = [
                max(width, len(cell)) for width, cell in zip(widths, line)
            ]
        def fmt(line: list[str]) -> str:
            return " | ".join(cell.ljust(width) for cell, width in zip(line, widths))
        separator = "-+-".join("-" * width for width in widths)
        return "\n".join([fmt(header), separator, *(fmt(line) for line in body)])

    def render_markdown(self, mark: str = "X") -> str:
        """GitHub-flavoured markdown table."""
        header = "| event type \\ component | " + " | ".join(self.columns) + " |"
        divider = "|" + "---|" * (len(self.columns) + 1)
        lines = [header, divider]
        for row in self.rows:
            cells = [
                mark if self.is_marked(row, column) else " "
                for column in self.columns
            ]
            lines.append(f"| {row} | " + " | ".join(cells) + " |")
        return "\n".join(lines)
