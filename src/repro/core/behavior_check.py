"""Behavioral completeness checking of mapped components.

The paper requires the ADL to carry behavioral descriptions so the
walkthrough can "simulate the behavior of the matched components" (§3.5),
and its architecture descriptions attach statecharts to elements. A purely
structural walkthrough can miss a subtler inconsistency: a scenario step
is mapped to a component that is *reachable* but whose statechart has no
transition able to consume the step's message — the component would
silently drop it at run time.

:func:`check_behavioral_support` walks each scenario trace and verifies,
for every typed event bound to a run-time trigger, that at least one
mapped component's statechart can (eventually) fire on it. Components
without statecharts are skipped (structure-only components are legal) or
flagged, per :class:`BehaviorCheckOptions`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping as MappingABC, Optional

from repro.adl.behavior import Statechart
from repro.adl.index import communication_index
from repro.adl.structure import Architecture
from repro.core.consistency import (
    Inconsistency,
    InconsistencyKind,
    Severity,
)
from repro.core.mapping import Mapping
from repro.scenarioml.events import TypedEvent
from repro.scenarioml.scenario import Scenario, ScenarioSet


@dataclass(frozen=True)
class BehaviorCheckOptions:
    """Policies for the behavioral support check.

    ``trigger_of`` maps event-type names to run-time trigger (message)
    names; an event type missing from the table is skipped (not every
    requirements-level event corresponds to a message). ``require_charts``
    escalates mapped components without any statechart to a warning.
    """

    trigger_of: MappingABC[str, str] = None  # type: ignore[assignment]
    require_charts: bool = False

    def __post_init__(self) -> None:
        if self.trigger_of is None:
            object.__setattr__(self, "trigger_of", {})


def check_behavioral_support(
    scenario_set: ScenarioSet,
    architecture: Architecture,
    mapping: Mapping,
    options: Optional[BehaviorCheckOptions] = None,
) -> list[Inconsistency]:
    """Find scenario events no mapped component's statechart can consume.

    For each typed event whose type is bound to a trigger, every mapped
    component with an attached statechart is inspected: the trigger must
    appear on some transition of the chart (reachability of the source
    state is approximated optimistically — any transition counts, since
    statechart execution order depends on run-time message interleaving).
    """
    options = options or BehaviorCheckOptions()
    findings: list[Inconsistency] = []
    with communication_index(architecture).pinned():
        for scenario in scenario_set:
            findings.extend(
                _check_scenario(scenario, architecture, mapping, options)
            )
    return findings


def _check_scenario(
    scenario: Scenario,
    architecture: Architecture,
    mapping: Mapping,
    options: BehaviorCheckOptions,
) -> list[Inconsistency]:
    findings: list[Inconsistency] = []
    for event in scenario.typed_events():
        trigger = options.trigger_of.get(event.type_name)
        if trigger is None:
            continue
        components = mapping.components_for(event.type_name)
        if not components:
            continue  # the structural walkthrough already reports this
        charts = _charts_of(components, architecture)
        if not charts:
            if options.require_charts:
                findings.append(
                    Inconsistency(
                        kind=InconsistencyKind.BEHAVIORAL_DIVERGENCE,
                        message=(
                            f"no component mapped from {event.type_name!r} "
                            "carries a statechart; behavior cannot be "
                            "checked"
                        ),
                        scenario=scenario.name,
                        event_label=event.label,
                        elements=tuple(components),
                        severity=Severity.WARNING,
                    )
                )
            continue
        if not any(trigger in chart.triggers() for _name, chart in charts):
            findings.append(
                Inconsistency(
                    kind=InconsistencyKind.BEHAVIORAL_DIVERGENCE,
                    message=(
                        f"event {event.type_name!r} maps to components whose "
                        f"statecharts never consume trigger {trigger!r}; the "
                        "message would be silently discarded"
                    ),
                    scenario=scenario.name,
                    event_label=event.label,
                    elements=tuple(name for name, _chart in charts),
                )
            )
    return findings


def _charts_of(
    components: tuple[str, ...], architecture: Architecture
) -> list[tuple[str, Statechart]]:
    """Statecharts attached to the mapped components (resolved to their
    top-level elements, where behavior lives at run time)."""
    tops = communication_index(architecture).top_levels()
    charts: list[tuple[str, Statechart]] = []
    seen: set[str] = set()
    for component in components:
        top = tops[component]
        if top in seen:
            continue
        seen.add(top)
        behavior = architecture.behavior(top)
        if isinstance(behavior, Statechart):
            charts.append((top, behavior))
    return charts
