"""Scenarios and scenario sets.

A :class:`Scenario` is a named, ordered body of events expressing either a
functional requirement or the operationalization of a quality attribute
(availability, reliability, security, ...). A scenario may be *negative*:
it describes undesirable behavior, and its successful execution against an
architecture is an inconsistency (paper §3.5).

A :class:`ScenarioSet` groups the scenarios of a system together with the
governing ontology, resolves episode references, and expands scenarios into
*traces* — finite sequences of leaf events obtained by choosing alternation
branches, unrolling iterations, interleaving parallel events, and inlining
episodes. Traces are what the walkthrough engine consumes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Iterator, Optional, Sequence

from repro.errors import EpisodeCycleError, ScenarioError, UnknownDefinitionError
from repro.scenarioml.events import (
    Alternation,
    CompoundEvent,
    Episode,
    Event,
    Iteration,
    Optional_,
    SimpleEvent,
    TypedEvent,
    leaf_events,
    walk,
)
from repro.scenarioml.ontology import Ontology


class ScenarioKind(Enum):
    """Whether a scenario describes desired or undesirable behavior."""

    POSITIVE = "positive"
    NEGATIVE = "negative"


class QualityAttribute(Enum):
    """Quality attributes a scenario can operationalize (paper §1, §4.2)."""

    AVAILABILITY = "availability"
    RELIABILITY = "reliability"
    SECURITY = "security"
    PERFORMANCE = "performance"
    MAINTAINABILITY = "maintainability"
    SAFETY = "safety"
    USABILITY = "usability"
    FAULT_TOLERANCE = "fault tolerance"


@dataclass(frozen=True)
class Scenario:
    """A requirements-level scenario.

    ``events`` is the scenario body, in temporal order. ``alternative_of``
    names the main scenario this one is an alternative of (the paper's PIMS
    use cases each have a main scenario and alternative scenarios).
    """

    name: str
    events: tuple[Event, ...] = ()
    title: str = ""
    description: str = ""
    kind: ScenarioKind = ScenarioKind.POSITIVE
    quality_attributes: tuple[QualityAttribute, ...] = ()
    actors: tuple[str, ...] = ()
    alternative_of: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ScenarioError("a scenario must have a non-empty name")
        object.__setattr__(self, "events", tuple(self.events))
        object.__setattr__(
            self, "quality_attributes", tuple(self.quality_attributes)
        )
        object.__setattr__(self, "actors", tuple(self.actors))
        if not self.events:
            raise ScenarioError(f"scenario {self.name!r} has no events")

    @property
    def is_negative(self) -> bool:
        """Whether this scenario describes undesirable behavior."""
        return self.kind is ScenarioKind.NEGATIVE

    @property
    def is_functional(self) -> bool:
        """Whether this scenario expresses a functional requirement
        (no quality-attribute annotation)."""
        return not self.quality_attributes

    def all_events(self) -> Iterator[Event]:
        """Every event in the body, depth-first."""
        for event in self.events:
            yield from walk(event)

    def typed_events(self) -> Iterator[TypedEvent]:
        """Every typed event in the body, depth-first."""
        for event in self.all_events():
            if isinstance(event, TypedEvent):
                yield event

    def episodes(self) -> Iterator[Episode]:
        """Every episode reference in the body, depth-first."""
        for event in self.all_events():
            if isinstance(event, Episode):
                yield event

    def event_type_names(self) -> tuple[str, ...]:
        """Distinct event-type names used, in first-use order."""
        seen: dict[str, None] = {}
        for event in self.typed_events():
            seen.setdefault(event.type_name)
        return tuple(seen)

    def render(self, ontology: Optional[Ontology] = None) -> str:
        """A numbered, human-readable listing of the scenario body."""
        lines = [f"Scenario: {self.title or self.name}"]
        if self.is_negative:
            lines[0] += " [negative]"
        for index, event in enumerate(self.events, start=1):
            step = event.label or str(index)
            lines.append(f"  ({step}) {event.render(ontology)}")
        return "\n".join(lines)


@dataclass(frozen=True)
class TraceOptions:
    """Bounds on trace expansion.

    ``iteration_extra`` — how many repetitions beyond ``min_count`` an
    unbounded iteration is unrolled to (bounded iterations use their own
    ``max_count``).
    ``max_parallel_permutations`` — interleavings considered per parallel
    compound; beyond this, only the written order is used.
    ``max_traces`` — hard cap on traces produced per scenario.
    """

    iteration_extra: int = 1
    max_parallel_permutations: int = 6
    max_traces: int = 4096


class ScenarioSet:
    """The scenarios of a system, governed by one ontology."""

    def __init__(self, ontology: Ontology, name: str = "scenarios") -> None:
        self.ontology = ontology
        self.name = name
        self._scenarios: dict[str, Scenario] = {}
        #: Bumped by :meth:`add` (and so by :meth:`extend`), so a cache
        #: of answers about the set can tell that it changed.
        self.version = 0

    def add(self, scenario: Scenario) -> Scenario:
        """Register a scenario; names are unique within the set."""
        if scenario.name in self._scenarios:
            raise ScenarioError(
                f"scenario {scenario.name!r} is already in set {self.name!r}"
            )
        self._scenarios[scenario.name] = scenario
        self.version += 1
        return scenario

    def extend(self, scenarios: Iterable[Scenario]) -> None:
        """Register several scenarios."""
        for scenario in scenarios:
            self.add(scenario)

    def get(self, name: str) -> Scenario:
        """Resolve a scenario by name."""
        try:
            return self._scenarios[name]
        except KeyError:
            raise UnknownDefinitionError(
                f"scenario set {self.name!r} has no scenario {name!r}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._scenarios

    def __iter__(self) -> Iterator[Scenario]:
        return iter(self._scenarios.values())

    def __len__(self) -> int:
        return len(self._scenarios)

    @property
    def scenarios(self) -> tuple[Scenario, ...]:
        """All scenarios, in registration order."""
        return tuple(self._scenarios.values())

    def functional_scenarios(self) -> tuple[Scenario, ...]:
        """Scenarios with no quality-attribute annotation."""
        return tuple(s for s in self if s.is_functional)

    def quality_scenarios(
        self, attribute: Optional[QualityAttribute] = None
    ) -> tuple[Scenario, ...]:
        """Scenarios annotated with (the given) quality attribute(s)."""
        if attribute is None:
            return tuple(s for s in self if s.quality_attributes)
        return tuple(s for s in self if attribute in s.quality_attributes)

    def event_type_names(self) -> tuple[str, ...]:
        """Distinct event-type names used across the whole set."""
        seen: dict[str, None] = {}
        for scenario in self:
            for name in scenario.event_type_names():
                seen.setdefault(name)
        return tuple(seen)

    # ------------------------------------------------------------------
    # Trace expansion
    # ------------------------------------------------------------------

    def traces(
        self,
        scenario_name: str,
        options: Optional[TraceOptions] = None,
    ) -> tuple[tuple[Event, ...], ...]:
        """All bounded traces of a scenario.

        A trace is a sequence of leaf events (simple or typed) with
        episodes inlined, alternation branches chosen, iterations unrolled
        within bounds, and parallel events interleaved (up to the permutation
        bound).
        """
        options = options or TraceOptions()
        scenario = self.get(scenario_name)
        body = CompoundEvent(subevents=scenario.events, pattern="sequence")
        traces = self._expand(body, options, visiting=(scenario_name,))
        return tuple(traces[: options.max_traces])

    def _expand(
        self,
        event: Event,
        options: TraceOptions,
        visiting: tuple[str, ...],
    ) -> list[tuple[Event, ...]]:
        if isinstance(event, (SimpleEvent, TypedEvent)):
            return [(event,)]
        if isinstance(event, Episode):
            if event.scenario_name in visiting:
                raise EpisodeCycleError(
                    "episode cycle: "
                    + " -> ".join((*visiting, event.scenario_name))
                )
            inner = self.get(event.scenario_name)
            body = CompoundEvent(subevents=inner.events, pattern="sequence")
            return self._expand(
                body, options, visiting=(*visiting, event.scenario_name)
            )
        if isinstance(event, Alternation):
            traces: list[tuple[Event, ...]] = []
            for branch in event.branches:
                traces.extend(self._expand(branch, options, visiting))
            return traces
        if isinstance(event, Optional_):
            return [()] + self._expand(event.body, options, visiting)
        if isinstance(event, Iteration):
            upper = (
                event.max_count
                if event.max_count is not None
                else event.min_count + options.iteration_extra
            )
            body_traces = self._expand(event.body, options, visiting)
            traces = []
            for count in range(event.min_count, upper + 1):
                if count == 0:
                    traces.append(())
                    continue
                for combo in itertools.product(body_traces, repeat=count):
                    traces.append(tuple(itertools.chain.from_iterable(combo)))
                    if len(traces) >= options.max_traces:
                        return traces
            return traces
        if isinstance(event, CompoundEvent):
            per_child = [
                self._expand(child, options, visiting) for child in event.subevents
            ]
            if event.pattern == "sequence":
                return _cross_concat(per_child, options.max_traces)
            return self._expand_parallel(per_child, options)
        raise ScenarioError(f"cannot expand event of type {type(event).__name__}")

    def _expand_parallel(
        self,
        per_child: list[list[tuple[Event, ...]]],
        options: TraceOptions,
    ) -> list[tuple[Event, ...]]:
        orderings = itertools.islice(
            itertools.permutations(range(len(per_child))),
            options.max_parallel_permutations,
        )
        traces: list[tuple[Event, ...]] = []
        seen: set[tuple[Event, ...]] = set()
        for ordering in orderings:
            ordered = [per_child[index] for index in ordering]
            for trace in _cross_concat(ordered, options.max_traces):
                if trace not in seen:
                    seen.add(trace)
                    traces.append(trace)
                if len(traces) >= options.max_traces:
                    return traces
        return traces

    # ------------------------------------------------------------------
    # Validation support
    # ------------------------------------------------------------------

    def resolve_episodes(self, scenario_name: str) -> tuple[str, ...]:
        """Names of scenarios transitively reused by ``scenario_name``.

        Raises :class:`EpisodeCycleError` on cyclic reuse and
        :class:`UnknownDefinitionError` on dangling references.
        """
        return episode_closure(
            scenario_name, lambda name: tuple(self.get(name).episodes())
        )

    def __repr__(self) -> str:
        return f"ScenarioSet({self.name!r}: {len(self)} scenarios)"


def episode_closure(
    scenario_name: str, episodes_of: Callable[[str], Sequence[Episode]]
) -> tuple[str, ...]:
    """Names of scenarios transitively reused by ``scenario_name``,
    depth-first, where ``episodes_of(name)`` lists a scenario's episode
    references (raising :class:`UnknownDefinitionError` for an unknown
    scenario). Raises :class:`EpisodeCycleError` on cyclic reuse."""
    resolved: dict[str, None] = {}

    def visit(name: str, stack: tuple[str, ...]) -> None:
        for episode in episodes_of(name):
            target = episode.scenario_name
            if target in stack:
                raise EpisodeCycleError(
                    "episode cycle: " + " -> ".join((*stack, target))
                )
            if target not in resolved:
                resolved.setdefault(target)
                visit(target, (*stack, target))

    visit(scenario_name, (scenario_name,))
    return tuple(resolved)


def _cross_concat(
    per_child: list[list[tuple[Event, ...]]], cap: int
) -> list[tuple[Event, ...]]:
    """Concatenative cross-product of per-child trace lists, capped."""
    traces: list[tuple[Event, ...]] = [()]
    for child_traces in per_child:
        extended = []
        for prefix in traces:
            for suffix in child_traces:
                extended.append(prefix + suffix)
                if len(extended) >= cap:
                    break
            if len(extended) >= cap:
                break
        traces = extended
        if not traces:
            return []
    return traces
