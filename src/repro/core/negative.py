"""Negative-scenario evaluation (paper §3.5).

"Some quality attributes can be more effectively described using negative
scenarios. A negative scenario describes an undesirable behavior of a
system. In this case, the inconsistency is identified by a successful
execution of the negative scenario."

:func:`evaluate_negative_scenario` walks a negative scenario like any
other and inverts the polarity: a *clean* walkthrough means the
architecture structurally admits the undesirable behavior, which is
reported as a ``NEGATIVE_SCENARIO_SUCCEEDED`` inconsistency. A walkthrough
that fails (the undesirable flow has no communication path) means the
architecture blocks the behavior — the desired outcome.
"""

from __future__ import annotations

from repro.core.consistency import (
    Inconsistency,
    InconsistencyKind,
    ScenarioVerdict,
)
from repro.core.walkthrough import WalkthroughEngine
from repro.errors import EvaluationError
from repro.obs.provenance import EventContext, IndexQuery, Provenance
from repro.scenarioml.scenario import Scenario, ScenarioSet


def evaluate_negative_scenario(
    engine: WalkthroughEngine,
    scenario: Scenario,
    scenario_set: ScenarioSet,
) -> ScenarioVerdict:
    """Walk a negative scenario and invert its polarity.

    Returns a verdict whose ``passed`` is true when the architecture
    *blocks* the scenario, and which carries a
    ``NEGATIVE_SCENARIO_SUCCEEDED`` finding when it does not.
    """
    if not scenario.is_negative:
        raise EvaluationError(
            f"scenario {scenario.name!r} is not negative; use the regular "
            "walkthrough"
        )
    # In a session, so the walk's observation reports the verdict
    # returned here, not the raw walk.
    with engine.session():
        raw = engine.walk_scenario(scenario, scenario_set)
        # A replayed walk returns the same raw verdict, so it gets the
        # same inverted one: what is kept per verdict object (its
        # observation parts, its report document) is reused. The entry
        # holds the raw verdict, which keeps its id from being reused.
        inverted = engine.memo().setdefault("negative", {})
        entry = inverted.get(id(raw))
        if entry is None or entry[0] is not raw:
            entry = inverted[id(raw)] = (raw, _inverted(engine, scenario, raw))
        verdict = entry[1]
        engine.settle(raw, verdict)
    return verdict


def _inverted(
    engine: WalkthroughEngine, scenario: Scenario, raw: ScenarioVerdict
) -> ScenarioVerdict:
    """The verdict of a negative scenario whose raw walk is ``raw``."""
    if not raw.walkthrough_succeeded or _has_unrealizable_event(raw):
        # Blocked (or not even realizable): the architecture does not admit
        # the undesirable behavior. Polarity is handled by the verdict; an
        # unrealizable typed event must count as blocking here even though
        # it is only a warning for positive scenarios.
        return ScenarioVerdict(
            scenario=raw.scenario,
            traces=raw.traces,
            inconsistencies=raw.inconsistencies,
            negative=True,
            blocked=True,
        )
    finding = Inconsistency(
        kind=InconsistencyKind.NEGATIVE_SCENARIO_SUCCEEDED,
        message=(
            f"negative scenario {scenario.title or scenario.name!r} executes "
            "successfully: the architecture admits the undesirable behavior"
        ),
        scenario=scenario.name,
        provenance=_success_provenance(engine, scenario, raw),
    )
    return ScenarioVerdict(
        scenario=raw.scenario,
        traces=raw.traces,
        inconsistencies=(*raw.inconsistencies, finding),
        negative=True,
    )


def _success_provenance(
    engine: WalkthroughEngine, scenario: Scenario, raw: ScenarioVerdict
) -> Provenance:
    """The causal chain of a negative scenario that walked cleanly.

    The inconsistency is the *success* itself, so the chain replays the
    communication paths that let the undesirable flow through — each
    inter-event path the walkthrough found, reconstructed from the
    recorded steps (no re-query)."""
    directed = engine.options.inter_event_directed
    queries: list[IndexQuery] = []
    first_step = None
    for trace in raw.traces:
        previous: tuple[str, ...] = ()
        for step in trace.steps:
            if first_step is None and step.event_type is not None:
                first_step = (trace.trace_index, step)
            if step.path and previous:
                queries.append(
                    IndexQuery(
                        operation="best_path_between",
                        sources=previous,
                        targets=step.components,
                        respect_directions=directed,
                        found=True,
                        path=step.path,
                    )
                )
            if step.components:
                previous = step.components
    event = None
    if first_step is not None:
        trace_index, step = first_step
        event = EventContext(
            scenario=scenario.name,
            trace_index=trace_index,
            event_index=0,
            event_label=step.event_label,
            event_rendering=step.event_rendering,
        )
    return Provenance(
        conclusion=(
            f"all {len(raw.traces)} trace(s) of the negative scenario walked "
            "cleanly — every event resolved to components and every "
            "inter-event communication path exists, so the architecture "
            "structurally admits the undesirable behavior"
        ),
        event=event,
        queries=tuple(queries),
    )


def _has_unrealizable_event(verdict: ScenarioVerdict) -> bool:
    """Whether any trace contains a typed event that resolved to no
    component — the architecture cannot even host the behavior, so a
    negative scenario counts as blocked."""
    return any(
        step.event_type is not None and not step.components
        for trace in verdict.traces
        for step in trace.steps
    )
