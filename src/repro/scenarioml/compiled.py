"""A compiled view of a scenario set: per scenario and per event type,
what validation, the walkthrough and the coverage check read.

The ontology collapses per-occurrence work into per-type work (DESIGN
§1). :class:`CompiledSuite` applies that to the scenario set itself:

* each scenario's event tree is walked once, into its leaf events,
  typed events and episode references (:class:`CompiledScenario`);
* each scenario's traces are expanded once; a body made only of simple
  and typed events is its own single trace;
* the set's event-type names are collected once, in first-use order;
* typed-event arguments are checked through an
  :class:`~repro.scenarioml.ontology.ArgumentChecker`: one parameter
  table per event type, one answer per distinct ``(type, arguments)``
  binding.
* the set's validation issues are kept once
  :func:`~repro.scenarioml.validation.validate_suite` has found them.

Scenarios are compiled lazily, on first use, so a scenario nobody asks
about costs nothing. The view holds no invalidation logic: its owner
promises that the scenario set and its ontology do not change while
the view is alive (the walkthrough engine keeps one while the set's and
the ontology's ``version`` counters stand still).
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Optional

from repro.scenarioml.events import Episode, Event, SimpleEvent, TypedEvent
from repro.scenarioml.ontology import ArgumentChecker
from repro.scenarioml.scenario import (
    Scenario,
    ScenarioSet,
    TraceOptions,
    episode_closure,
)

__all__ = ["CompiledScenario", "CompiledSuite", "compile_scenario"]


class CompiledScenario(NamedTuple):
    """One scenario's event tree, walked once.

    ``leaves`` — the simple, typed and episode events, depth-first.
    ``typed_events`` / ``episodes`` — the typed events and the episode
    references among them. ``flat`` — the body is only simple and
    typed events, so it is its own single trace."""

    scenario: Scenario
    leaves: tuple[Event, ...]
    typed_events: tuple[TypedEvent, ...]
    episodes: tuple[Episode, ...]
    flat: bool


def compile_scenario(scenario: Scenario) -> CompiledScenario:
    """Walk one scenario's event tree once."""
    events = scenario.events
    flat = all(isinstance(event, _TRACE_LEAVES) for event in events)
    leaves = events if flat else tuple(_leaves(events))
    return CompiledScenario(
        scenario,
        leaves,
        tuple([event for event in leaves if isinstance(event, TypedEvent)]),
        (
            ()
            if flat
            else tuple([event for event in leaves if isinstance(event, Episode)])
        ),
        flat,
    )


#: The events a trace is made of; a body of only these is its own trace.
_TRACE_LEAVES = (SimpleEvent, TypedEvent)


def _leaves(events: tuple[Event, ...]) -> Iterator[Event]:
    for event in events:
        children = event.children
        if children:
            yield from _leaves(children)
        else:
            yield event


class CompiledSuite:
    """The compiled view of one :class:`ScenarioSet` (see the module
    docstring). ``trace_options`` bound the traces :meth:`traces`
    expands; ``issues`` holds the validation issues once
    :func:`~repro.scenarioml.validation.validate_suite` has found
    them."""

    def __init__(
        self,
        scenario_set: ScenarioSet,
        trace_options: Optional[TraceOptions] = None,
    ) -> None:
        self.scenario_set = scenario_set
        self.trace_options = trace_options or TraceOptions()
        self.arguments = ArgumentChecker(scenario_set.ontology)
        self._scenarios: dict[str, CompiledScenario] = {}
        self._traces: dict[str, tuple[tuple[Event, ...], ...]] = {}
        self._type_names: Optional[tuple[str, ...]] = None
        self.issues: Optional[tuple] = None

    def scenario(self, name: str) -> CompiledScenario:
        """The compiled scenario ``name``; raises
        :class:`~repro.errors.UnknownDefinitionError` like
        :meth:`ScenarioSet.get`."""
        compiled = self._scenarios.get(name)
        if compiled is None:
            compiled = self._scenarios[name] = compile_scenario(
                self.scenario_set.get(name)
            )
        return compiled

    def traces(self, name: str) -> tuple[tuple[Event, ...], ...]:
        """The bounded traces of scenario ``name``, equal to
        ``scenario_set.traces(name, trace_options)``."""
        traces = self._traces.get(name)
        if traces is None:
            compiled = self.scenario(name)
            if compiled.flat:
                events = compiled.scenario.events
                traces = (events,)[: self.trace_options.max_traces]
            else:
                traces = self.scenario_set.traces(name, self.trace_options)
            self._traces[name] = traces
        return traces

    def event_type_names(self) -> tuple[str, ...]:
        """Distinct event-type names used across the set, in first-use
        order (``ScenarioSet.event_type_names``)."""
        if self._type_names is None:
            self._type_names = tuple(
                dict.fromkeys(
                    event.type_name
                    for scenario in self.scenario_set
                    for event in self.scenario(scenario.name).typed_events
                )
            )
        return self._type_names

    def resolve_episodes(self, name: str) -> tuple[str, ...]:
        """``ScenarioSet.resolve_episodes``, read from the compiled
        episode references."""
        if not self.scenario(name).episodes:
            return ()
        return episode_closure(
            name, lambda target: self.scenario(target).episodes
        )
