"""Dynamic scenario execution on a simulated architecture (paper §4.2).

"In general, static walkthroughs have limited effectiveness for evaluating
satisfaction of quality attributes by an architecture. These two quality
attributes [availability, reliability] can be determined effectively only
at run-time." The paper *describes* what would happen were the scenarios
executed; this module actually executes them.

The glue between requirements-level events and run-time behavior is a set
of :class:`ScenarioBindings`: per event type, a *stimulus* (what injecting
this event into the running architecture means — send a message, shut an
entity down, ...) and/or an *expectation* (what must be observable in the
message trace afterwards — a delivery, a failure alert, order
preservation, ...). Stimuli fire in scenario order at a fixed virtual-time
step; expectations are checked after the run settles.

An unmet expectation is a ``BEHAVIORAL_DIVERGENCE`` inconsistency. For
negative scenarios the polarity inverts: the scenario passes when at least
one expectation is *unmet* (the undesirable behavior did not happen).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

from repro.adl.structure import Architecture
from repro.core.consistency import (
    Inconsistency,
    InconsistencyKind,
    Severity,
)
from repro.core.mapping import Mapping as EventMapping
from repro.errors import EvaluationError
from repro.obs.instruments import current_instruments
from repro.scenarioml.events import Event, SimpleEvent, TypedEvent
from repro.scenarioml.scenario import Scenario, ScenarioSet, TraceOptions
from repro.sim.runtime import ArchitectureRuntime, RuntimeConfig
from repro.sim.trace import MessageTrace


class DynamicContext:
    """What stimulus and expectation callbacks can see and do."""

    def __init__(
        self,
        runtime: ArchitectureRuntime,
        mapping: Optional[EventMapping],
        entity_to_component: Mapping[str, str],
        step: float,
    ) -> None:
        self.runtime = runtime
        self.mapping = mapping
        self.entity_to_component = dict(entity_to_component)
        self.step = step
        self.event_index = 0
        self.event_time = 0.0
        # Scratch space for expectations that correlate observations
        # across events (e.g. arrival-order checks); one run, one scratch.
        self.scratch: dict = {}

    @property
    def architecture(self) -> Architecture:
        """The architecture under evaluation."""
        return self.runtime.architecture

    @property
    def trace(self) -> MessageTrace:
        """The run's message trace (complete once expectations run)."""
        return self.runtime.trace

    def component_for(self, entity: str) -> str:
        """Resolve a scenario-level entity name to a component name.

        Resolution order: the explicit entity-to-component table, then a
        component with exactly that name.
        """
        if entity in self.entity_to_component:
            return self.entity_to_component[entity]
        if self.architecture.has_element(entity):
            return entity
        raise EvaluationError(
            f"cannot resolve scenario entity {entity!r} to a component; "
            "add it to entity_to_component"
        )

    # ------------------------------------------------------------------
    # Stimulus helpers
    # ------------------------------------------------------------------

    def send(
        self,
        source_entity: str,
        message_name: str,
        destination_entity: Optional[str] = None,
        kind: str = "request",
        payload: Optional[Mapping[str, object]] = None,
        via: Optional[str] = None,
    ) -> None:
        """Inject a message emission at the current event's virtual time."""
        destination = (
            self.component_for(destination_entity)
            if destination_entity is not None
            else None
        )
        self.runtime.inject(
            self.component_for(source_entity),
            message_name,
            kind=kind,
            destination=destination,
            payload=dict(payload or {}),
            via=via,
            at=self.event_time,
        )

    def shutdown(self, entity: str) -> None:
        """Shut the entity's component down at the current event's time."""
        self.runtime.injector.shutdown(
            self.component_for(entity), at=self.event_time
        )

    def restore(self, entity: str) -> None:
        """Restore the entity's component at the current event's time."""
        self.runtime.injector.restore(
            self.component_for(entity), at=self.event_time
        )

    def isolate(self, entity: str) -> None:
        """Partition the network so the entity's component can neither
        send nor receive, starting at the current event's time."""
        component = self.component_for(entity)
        others = [
            node.name
            for node in self.runtime.channel.nodes
            if node.name != component
        ]
        self.runtime.injector.partition([component], others, at=self.event_time)

    def heal_network(self) -> None:
        """Remove every active network partition at the current event's
        time."""
        self.runtime.injector.heal(at=self.event_time)


Stimulus = Callable[[DynamicContext, TypedEvent], None]
Expectation = Callable[[DynamicContext, TypedEvent], Optional[str]]


class ScenarioBindings:
    """Per-event-type stimulus and expectation registrations."""

    def __init__(self) -> None:
        self._stimuli: dict[str, Stimulus] = {}
        self._expectations: dict[str, Expectation] = {}

    def on(self, event_type_name: str, stimulus: Stimulus) -> None:
        """Register the stimulus for an event type (one per type)."""
        if event_type_name in self._stimuli:
            raise EvaluationError(
                f"event type {event_type_name!r} already has a stimulus"
            )
        self._stimuli[event_type_name] = stimulus

    def expect(self, event_type_name: str, expectation: Expectation) -> None:
        """Register the expectation for an event type (one per type).

        The expectation returns ``None`` when satisfied or a message
        describing what was not observed.
        """
        if event_type_name in self._expectations:
            raise EvaluationError(
                f"event type {event_type_name!r} already has an expectation"
            )
        self._expectations[event_type_name] = expectation

    def stimulus_for(self, event_type_name: str) -> Optional[Stimulus]:
        """The registered stimulus, if any."""
        return self._stimuli.get(event_type_name)

    def expectation_for(self, event_type_name: str) -> Optional[Expectation]:
        """The registered expectation, if any."""
        return self._expectations.get(event_type_name)

    def bound_event_types(self) -> frozenset[str]:
        """Every event type with a stimulus or expectation."""
        return frozenset(self._stimuli) | frozenset(self._expectations)


@dataclass(frozen=True)
class DynamicVerdict:
    """The outcome of executing one scenario on the simulated
    architecture."""

    scenario: str
    passed: bool
    findings: tuple[Inconsistency, ...]
    trace: MessageTrace
    negative: bool = False

    def render(self) -> str:
        """A human-readable account of the execution."""
        status = "PASS" if self.passed else "FAIL"
        flavor = " (negative)" if self.negative else ""
        lines = [f"{status} {self.scenario}{flavor}  [{self.trace.summary()}]"]
        for finding in self.findings:
            lines.append(f"  ! {finding}")
        return "\n".join(lines)


class DynamicEvaluator:
    """Executes scenarios on a fresh simulated architecture instance."""

    def __init__(
        self,
        architecture: Architecture,
        bindings: ScenarioBindings,
        mapping: Optional[EventMapping] = None,
        config: Optional[RuntimeConfig] = None,
        entity_to_component: Optional[Mapping[str, str]] = None,
        step: float = 10.0,
        settle: float = 1000.0,
    ) -> None:
        self.architecture = architecture
        self.bindings = bindings
        self.mapping = mapping
        self.config = config or RuntimeConfig()
        self.entity_to_component = dict(entity_to_component or {})
        self.step = step
        self.settle = settle

    def evaluate(
        self,
        scenario: Scenario,
        scenario_set: ScenarioSet,
        trace_options: Optional[TraceOptions] = None,
    ) -> DynamicVerdict:
        """Execute every bounded trace of the scenario; all must meet
        their expectations (polarity inverted for negative scenarios)."""
        recorder = current_instruments().recorder
        if recorder.enabled:
            with recorder.span(
                "dynamic.scenario",
                scenario=scenario.name,
                negative=scenario.is_negative,
            ) as span:
                verdict = self._evaluate(scenario, scenario_set, trace_options)
                span.set_attribute("passed", verdict.passed)
            return verdict
        return self._evaluate(scenario, scenario_set, trace_options)

    def _evaluate(
        self,
        scenario: Scenario,
        scenario_set: ScenarioSet,
        trace_options: Optional[TraceOptions] = None,
    ) -> DynamicVerdict:
        traces = scenario_set.traces(scenario.name, trace_options)
        findings: list[Inconsistency] = []
        message_trace = MessageTrace()
        unrealizable = False
        for trace in traces:
            run_findings, run_trace, run_unrealizable = self._execute_trace(
                scenario, trace
            )
            findings.extend(run_findings)
            unrealizable = unrealizable or run_unrealizable
            message_trace = run_trace  # keep the last run's trace for inspection
        unmet = [
            finding
            for finding in findings
            if finding.kind is InconsistencyKind.BEHAVIORAL_DIVERGENCE
        ]
        if scenario.is_negative:
            # Unrealizable counts as blocked: the architecture cannot even
            # host the undesirable behavior.
            passed = bool(unmet) or unrealizable
            if not passed:
                findings.append(
                    Inconsistency(
                        kind=InconsistencyKind.NEGATIVE_SCENARIO_SUCCEEDED,
                        message=(
                            f"negative scenario {scenario.title or scenario.name!r} "
                            "executed successfully on the simulated architecture"
                        ),
                        scenario=scenario.name,
                    )
                )
        else:
            passed = not unmet and not unrealizable
        return DynamicVerdict(
            scenario=scenario.name,
            passed=passed,
            findings=tuple(findings),
            trace=message_trace,
            negative=scenario.is_negative,
        )

    def _execute_trace(
        self, scenario: Scenario, trace: tuple[Event, ...]
    ) -> tuple[list[Inconsistency], MessageTrace, bool]:
        runtime = ArchitectureRuntime(self.architecture, self.config)
        context = DynamicContext(
            runtime, self.mapping, self.entity_to_component, self.step
        )
        typed_events = [
            event for event in trace if isinstance(event, TypedEvent)
        ]
        findings: list[Inconsistency] = []
        unrealizable = False
        # Phase 1: schedule stimuli in scenario order.
        for index, event in enumerate(typed_events):
            stimulus = self.bindings.stimulus_for(event.type_name)
            if stimulus is None:
                continue
            context.event_index = index
            context.event_time = index * self.step
            try:
                stimulus(context, event)
            except EvaluationError as error:
                unrealizable = True
                findings.append(
                    Inconsistency(
                        kind=InconsistencyKind.UNMAPPED_EVENT,
                        message=f"stimulus cannot be realized: {error}",
                        scenario=scenario.name,
                        event_label=event.label,
                        severity=Severity.WARNING,
                    )
                )
        runtime.run(until=len(typed_events) * self.step + self.settle)
        # Phase 2: check expectations against the settled trace.
        for index, event in enumerate(typed_events):
            expectation = self.bindings.expectation_for(event.type_name)
            if expectation is None:
                continue
            context.event_index = index
            context.event_time = index * self.step
            try:
                failure = expectation(context, event)
            except EvaluationError as error:
                unrealizable = True
                findings.append(
                    Inconsistency(
                        kind=InconsistencyKind.UNMAPPED_EVENT,
                        message=f"expectation cannot be evaluated: {error}",
                        scenario=scenario.name,
                        event_label=event.label,
                        severity=Severity.WARNING,
                    )
                )
                continue
            if failure is not None:
                findings.append(
                    Inconsistency(
                        kind=InconsistencyKind.BEHAVIORAL_DIVERGENCE,
                        message=failure,
                        scenario=scenario.name,
                        event_label=event.label,
                    )
                )
        return findings, runtime.trace, unrealizable
