"""Requirements-architecture traceability (paper §5, §7).

"One benefit of our approach is the traceability links that are
established between requirements and architecture, which ease maintenance
involving these artifacts." The mapping induces scenario↔component trace
links: a scenario traces to every component its event types map to, and a
component traces back to every scenario using an event type mapped to it.

:class:`TraceabilityMatrix` materializes those links and answers the two
maintenance questions:

* *architecture changed* — which scenarios must be re-evaluated?
  (:meth:`impacted_scenarios`, fed directly from an
  :class:`~repro.adl.diff.ArchitectureDiff`);
* *requirements changed* — which components are affected?
  (:meth:`impacted_components`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.adl.diff import ArchitectureDiff
from repro.adl.index import communication_index
from repro.core.mapping import Mapping
from repro.scenarioml.scenario import Scenario, ScenarioSet


@dataclass(frozen=True)
class TraceLink:
    """One scenario-to-component trace link, annotated with the event
    types that induce it."""

    scenario: str
    component: str
    event_types: tuple[str, ...]

    def __str__(self) -> str:
        return (
            f"{self.scenario} <-> {self.component} "
            f"(via {', '.join(self.event_types)})"
        )


class TraceabilityMatrix:
    """Scenario↔component trace links induced by a mapping."""

    def __init__(self, scenario_set: ScenarioSet, mapping: Mapping) -> None:
        self.scenario_set = scenario_set
        self.mapping = mapping
        self._links: dict[tuple[str, str], list[str]] = {}
        # Reverse indexes for O(1) impact lookups: component -> scenarios
        # and scenario -> components (insertion-ordered, deduplicated).
        self._by_component: dict[str, dict[str, None]] = {}
        self._by_scenario: dict[str, dict[str, None]] = {}
        tops = communication_index(mapping.architecture).top_levels()
        for scenario in scenario_set:
            for event_type_name in scenario.event_type_names():
                for component in mapping.components_for(event_type_name):
                    top = tops[component]
                    key = (scenario.name, top)
                    self._links.setdefault(key, [])
                    if event_type_name not in self._links[key]:
                        self._links[key].append(event_type_name)
                    self._by_component.setdefault(top, {}).setdefault(
                        scenario.name
                    )
                    self._by_scenario.setdefault(scenario.name, {}).setdefault(
                        top
                    )

    @property
    def links(self) -> tuple[TraceLink, ...]:
        """Every trace link."""
        return tuple(
            TraceLink(scenario, component, tuple(event_types))
            for (scenario, component), event_types in self._links.items()
        )

    def components_of(self, scenario_name: str) -> tuple[str, ...]:
        """The components a scenario traces to."""
        return tuple(self._by_scenario.get(scenario_name, ()))

    def scenarios_of(self, component_name: str) -> tuple[str, ...]:
        """The scenarios tracing to a component."""
        return tuple(self._by_component.get(component_name, ()))

    # ------------------------------------------------------------------
    # Impact analysis
    # ------------------------------------------------------------------

    def impacted_scenarios(
        self, changed: ArchitectureDiff | Iterable[str]
    ) -> tuple[str, ...]:
        """Scenarios that must be re-evaluated given changed elements.

        Accepts an :class:`ArchitectureDiff` (its touched elements are
        used) or an explicit iterable of element names.
        """
        if isinstance(changed, ArchitectureDiff):
            touched = changed.touched_elements()
        else:
            touched = frozenset(changed)
        # Work proportional to the touched components' trace links, not
        # the whole matrix; the final pass restores scenario-set order.
        candidates: set[str] = set()
        for component in touched:
            candidates.update(self._by_component.get(component, ()))
        return tuple(
            scenario for scenario in self._by_scenario if scenario in candidates
        )

    def impacted_components(
        self, scenarios: Scenario | str | Iterable[str]
    ) -> tuple[str, ...]:
        """Components affected by a change to the given scenario(s)."""
        if isinstance(scenarios, Scenario):
            names = {scenarios.name}
        elif isinstance(scenarios, str):
            names = {scenarios}
        else:
            names = set(scenarios)
        impacted: dict[str, None] = {}
        for scenario, components in self._by_scenario.items():
            if scenario in names:
                for component in components:
                    impacted.setdefault(component)
        return tuple(impacted)

    def orphan_scenarios(self) -> tuple[str, ...]:
        """Scenarios tracing to no component at all (no usable mapping) —
        requirements the architecture does not address."""
        traced = {scenario for (scenario, _component) in self._links}
        return tuple(
            scenario.name
            for scenario in self.scenario_set
            if scenario.name not in traced
        )

    def render(self) -> str:
        """A scenario × component grid of trace links."""
        scenarios = [scenario.name for scenario in self.scenario_set]
        components = [
            component.name for component in self.mapping.architecture.components
        ]
        header = ["scenario \\ component", *components]
        widths = [len(cell) for cell in header]
        body: list[list[str]] = []
        for scenario in scenarios:
            line = [scenario]
            for component in components:
                line.append("X" if (scenario, component) in self._links else "")
            body.append(line)
            widths = [max(w, len(c)) for w, c in zip(widths, line)]

        def fmt(line: list[str]) -> str:
            return " | ".join(cell.ljust(width) for cell, width in zip(line, widths))

        separator = "-+-".join("-" * width for width in widths)
        return "\n".join([fmt(header), separator, *(fmt(line) for line in body)])
