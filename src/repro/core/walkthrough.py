"""The static walkthrough engine (paper §3.5).

"The task of evaluating an architecture against a set of scenarios
consists of going through the sequence of the events in the scenarios,
using the established mapping to match events to components, while
simulating the behavior of the matched components."

For each expanded trace of a scenario the engine steps through the leaf
events:

* a *typed* event resolves through the mapping to its components (with
  supertype fallback); an unmappable event is reported per policy;
* *within* an event that maps to several components, the components must
  form a connected chain in mapping order — the event's high-level action
  decomposes into low-level actions flowing through them (this is what
  fails in the paper's Fig. 4: the save event needs Loader → Data Access →
  Data Repository, and the excised link breaks the chain);
* *between* successive events, some component of the earlier event must be
  able to communicate with some component of the later one ("if two
  successive events match two components ... the two components may need
  to be able to communicate");
* a *simple* (natural-language) event has no ontology backing and is
  skipped with a warning — it cannot be mapped, which is itself useful
  feedback about scenario quality.

A missing communication path is a :class:`~repro.core.consistency.Inconsistency`
of kind ``MISSING_LINK``. Negative scenarios are walked identically; their
polarity is inverted by the verdict (a negative scenario that walks
cleanly is the inconsistency).

The ontology collapses per-occurrence links into per-type links, and the
walk does its per-type work once per type. :meth:`WalkthroughEngine.session`
pins the communication index and holds a *step table*: per event type,
its resolution, unique top-level components and intra-event chain
verdict; per pair of successive component groups, the inter-event
witness path; per event object, its rendering. The table also holds a
:class:`~repro.scenarioml.compiled.CompiledSuite`, the compiled view of
the scenario set (each scenario's events and traces, the set's
event-type names, the argument checks, the validation issues), which
the walk, validation and the coverage check read, and a memo of the
coverage findings. It tallies the walk's counters, which reach the
metrics registry once, at the outermost exit of a session.

Sessions nest like pins, and the promise that makes the pin safe (the
architecture, the mapping, the ontology and the scenario set do not
change while it is held) makes the table safe inside one session. The
table outlives the session under a key of everything it depends on:
the mapping and its ``version``, the mapping's ontology and its
``version``, the index and its structural fingerprint (validated at
pin entry) and the options. The next outermost entry reuses it only
while that key still holds, so an evaluation of an unchanged pipeline
resolves, checks and compiles nothing again, and edits between
sessions are always seen. The suite has its own key, the scenario set,
its ``version`` and its ontology's ``version``; replacing the suite
drops the per-event renderings and the memo with it, so the table
never holds two suites' events. An index that does not memoize never
computes a fingerprint, so its engine keeps no table past a session.
Every evaluation, ``walk_all`` and ``walk_scenario`` run in a session.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.adl.index import CommunicationIndex, communication_index
from repro.adl.structure import Architecture
from repro.core.consistency import (
    Inconsistency,
    InconsistencyKind,
    ScenarioVerdict,
    Severity,
    TraceWalkthrough,
    WalkthroughStep,
)
from repro.core.mapping import Mapping
from repro.errors import EvaluationError
from repro.obs.provenance import (
    EventContext,
    IndexQuery,
    MappingResolution,
    Provenance,
)
from repro.obs.events import ScenarioFinished, ScenarioStarted
from repro.obs.instruments import current_instruments
from repro.scenarioml.compiled import CompiledSuite
from repro.scenarioml.events import Event, SimpleEvent, TypedEvent
from repro.scenarioml.scenario import Scenario, ScenarioSet, TraceOptions


@dataclass(frozen=True)
class WalkthroughOptions:
    """Tunable policies of the walkthrough engine.

    ``respect_directions`` — honour interface directions when searching
    communication paths (stricter, catches one-way layering violations).
    ``intra_event_respect_directions`` / ``inter_event_respect_directions``
    — per-check overrides of ``respect_directions``. The useful asymmetry
    (used by the PIMS case study): *within* an event the components form a
    data-flow chain that must follow service-invocation directions, while
    *between* events the scenario's focus merely moves, and replies flow
    back along request links, so the undirected view is appropriate.
    ``unmapped_event_policy`` / ``simple_event_policy`` — ``"error"``,
    ``"warn"``, or ``"ignore"`` for events that resolve to no component.
    ``check_intra_event_chain`` — require the components of a single event
    to form a connected chain in mapping order.
    ``check_inter_event`` — require successive events' components to be
    able to communicate.
    ``trace_options`` — bounds for scenario trace expansion.
    """

    respect_directions: bool = False
    intra_event_respect_directions: Optional[bool] = None
    inter_event_respect_directions: Optional[bool] = None
    unmapped_event_policy: str = "warn"
    simple_event_policy: str = "warn"
    check_intra_event_chain: bool = True
    check_inter_event: bool = True
    trace_options: TraceOptions = field(default_factory=TraceOptions)

    _POLICIES = ("error", "warn", "ignore")

    def __post_init__(self) -> None:
        for policy in (self.unmapped_event_policy, self.simple_event_policy):
            if policy not in self._POLICIES:
                raise EvaluationError(
                    f"unknown policy {policy!r}; expected one of {self._POLICIES}"
                )

    @property
    def intra_event_directed(self) -> bool:
        """Effective direction-sensitivity of intra-event chain checks."""
        if self.intra_event_respect_directions is None:
            return self.respect_directions
        return self.intra_event_respect_directions

    @property
    def inter_event_directed(self) -> bool:
        """Effective direction-sensitivity of inter-event checks."""
        if self.inter_event_respect_directions is None:
            return self.respect_directions
        return self.inter_event_respect_directions


class WalkthroughEngine:
    """Walks scenarios over an architecture through a mapping."""

    def __init__(
        self,
        architecture: Architecture,
        mapping: Mapping,
        options: Optional[WalkthroughOptions] = None,
        index: Optional[CommunicationIndex] = None,
    ) -> None:
        if mapping.architecture is not architecture:
            # A mapping built against a different (e.g. pre-evolution)
            # architecture object is fine as long as the entries resolve.
            mapping = mapping.rebind(architecture)
        self.architecture = architecture
        self.mapping = mapping
        self.options = options or WalkthroughOptions()
        # One memoized index serves every connectivity query of the walk;
        # by default it is the shared per-architecture index, so constraint
        # checks and module-level graph queries reuse the same warm caches.
        self.index = index or communication_index(architecture)
        self._sessions = 0
        # The open session's step table, and the one kept between
        # sessions for the next to reuse while its key holds.
        self._table: Optional[_StepTable] = None
        self._kept: Optional[_StepTable] = None

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    @contextmanager
    def session(self) -> Iterator[None]:
        """Pin the communication index and hold a step table while the
        ``with`` block runs.

        The caller promises that the architecture, the mapping, the
        ontology and the scenario set do not change inside the block.
        Sessions nest: only the outermost entry picks the table (the
        kept one while its key holds, else an empty one), and only the
        outermost exit adds the walk's counters to the metrics
        registry, so edits between sessions are always seen."""
        with self.index.pinned():
            if not self._sessions:
                key = self._table_key()
                table, self._kept = self._kept, None
                if table is None or key is None or table.key != key:
                    table = _StepTable(self, key)
                self._table = table
            self._sessions += 1
            try:
                yield
            finally:
                self._sessions -= 1
                if not self._sessions:
                    table, self._table = self._table, None
                    table.flush_counters()
                    self._kept = table if table.key is not None else None

    def _table_key(self) -> Optional[tuple]:
        """Everything the step table depends on, or ``None`` when the
        index keeps no fingerprint to key it by. Read inside the pin,
        which has just validated the fingerprint."""
        index = self.index
        if not index.memoize:
            return None
        mapping = self.mapping
        ontology = mapping.ontology
        return (
            mapping,
            mapping.version,
            ontology,
            ontology.version,
            index,
            index._fingerprint,
            self.options,
        )

    def compiled(self, scenario_set: ScenarioSet) -> CompiledSuite:
        """The open session's compiled view of ``scenario_set``; call it
        inside a :meth:`session`."""
        return self._table.suite(scenario_set)

    def memo(self) -> dict:
        """The open session's memo for answers that depend only on the
        step table's key and its suite (the evaluator keeps the
        coverage findings there); call it inside a :meth:`session`,
        after :meth:`compiled`. It empties whenever the table or its
        suite is replaced."""
        return self._table.memo

    def walk_all(self, scenario_set: ScenarioSet) -> tuple[ScenarioVerdict, ...]:
        """Walk every scenario in the set."""
        with self.session():
            return tuple(
                self.walk_scenario(scenario, scenario_set)
                for scenario in scenario_set
            )

    def walk_scenario(
        self, scenario: Scenario, scenario_set: ScenarioSet
    ) -> ScenarioVerdict:
        """Walk every bounded trace of one scenario.

        The walk runs in a :meth:`session` (its own, unless one is
        open): its inputs must not be mutated while it is in flight;
        mutations between walks are picked up automatically."""
        table = self._table
        if table is None:
            with self.session():
                return self.walk_scenario(scenario, scenario_set)
        traces = table.suite(scenario_set).traces(scenario.name)
        instruments = current_instruments()
        recorder, bus = instruments.recorder, instruments.events
        if not (recorder.enabled or bus.enabled):
            return ScenarioVerdict(
                scenario=scenario.name,
                traces=self._walk_traces(table, None, scenario, traces),
                negative=scenario.is_negative,
            )
        if bus.enabled:
            bus.emit(
                ScenarioStarted(
                    scenario=scenario.name,
                    negative=scenario.is_negative,
                    traces=len(traces),
                )
            )
        started = time.perf_counter()
        if recorder.enabled:
            with recorder.span(
                "walkthrough.scenario",
                scenario=scenario.name,
                negative=scenario.is_negative,
                traces=len(traces),
            ) as scenario_span:
                # Per-scenario work-unit attribution: what this scenario
                # *cost*, as span attributes, so run records and `sosae
                # runs attribute` can rank regressions by cause, not just
                # by wall time. Every figure is a difference of tallies
                # the step table keeps anyway; the walk opens no span per
                # step. Connectivity checks are counted whether the step
                # table or the index answered them, so a scenario's cost
                # does not depend on which scenario met its event types
                # first.
                tally = table.tally(recorder)
                steps_before = tally[_STEPS]
                checks_before = table.checks
                graph_builds_before = table.graph_builds
                walked = self._walk_traces(table, tally, scenario, traces)
                failing, findings = _failures(walked)
                attributes = scenario_span.attributes
                attributes["cost.steps"] = tally[_STEPS] - steps_before
                attributes["cost.failing_steps"] = failing
                attributes["cost.index_queries"] = table.checks - checks_before
                attributes["cost.bfs_expansions"] = (
                    table.graph_builds - graph_builds_before
                )
                attributes["cost.findings"] = findings
        else:
            walked = self._walk_traces(table, None, scenario, traces)
            findings = sum(len(walk.inconsistencies) for walk in walked)
        verdict = ScenarioVerdict(
            scenario=scenario.name,
            traces=walked,
            negative=scenario.is_negative,
        )
        elapsed = time.perf_counter() - started
        if recorder.enabled:
            recorder.histogram("walkthrough.scenario_seconds").observe(elapsed)
        if bus.enabled:
            # The verdict's only findings are its traces': `findings`
            # is len(verdict.all_inconsistencies()).
            bus.emit(
                ScenarioFinished(
                    scenario=scenario.name,
                    passed=verdict.passed,
                    findings=findings,
                    wall_seconds=elapsed,
                )
            )
        return verdict

    # ------------------------------------------------------------------
    # Trace walkthrough
    # ------------------------------------------------------------------

    def _walk_traces(
        self,
        table: "_StepTable",
        tally: Optional[list[int]],
        scenario: Scenario,
        traces: tuple[tuple[Event, ...], ...],
    ) -> tuple[TraceWalkthrough, ...]:
        return tuple(
            self._walk_trace(table, tally, scenario, index, trace)
            for index, trace in enumerate(traces)
        )

    def _walk_trace(
        self,
        table: "_StepTable",
        tally: Optional[list[int]],
        scenario: Scenario,
        index: int,
        trace: tuple[Event, ...],
    ) -> TraceWalkthrough:
        # Observability cost discipline: with the recorder on, the walk's
        # counters go to the step table's ``tally``, which the session
        # adds to the registry once; with it off, ``tally`` is None.
        steps: list[WalkthroughStep] = []
        findings: list[Inconsistency] = []
        previous_components: Optional[tuple[str, ...]] = None
        typed_events = 0
        resolutions = 0
        fallbacks = 0
        for position, event in enumerate(trace):
            if isinstance(event, TypedEvent):
                typed_events += 1
                step, step_findings, resolution = self._walk_typed_event(
                    table, scenario, event, previous_components, index,
                    position,
                )
                steps.append(step)
                findings.extend(step_findings)
                if resolution.components:
                    previous_components = resolution.components
                    resolutions += 1
                    # More than one hop: a supertype's entry answered.
                    if len(resolution.hops) > 1:
                        fallbacks += 1
            elif isinstance(event, SimpleEvent):
                step, step_findings = self._walk_simple_event(
                    scenario, event, index, position
                )
                steps.append(step)
                findings.extend(step_findings)
            else:
                raise EvaluationError(
                    f"trace of {scenario.name!r} contains unexpanded "
                    f"{type(event).__name__}"
                )
        if tally is not None:
            tally[_TRACES] += 1
            tally[_STEPS] += len(steps)
            tally[_RESOLUTIONS] += resolutions
            tally[_FALLBACKS] += fallbacks
            tally[_UNMAPPED] += typed_events - resolutions
            if findings:
                tally[_MISSING_LINKS] += sum(
                    1
                    for finding in findings
                    if finding.kind is InconsistencyKind.MISSING_LINK
                )
        return TraceWalkthrough(
            trace_index=index, steps=tuple(steps), inconsistencies=tuple(findings)
        )

    def _walk_typed_event(
        self,
        table: "_StepTable",
        scenario: Scenario,
        event: TypedEvent,
        previous_components: Optional[tuple[str, ...]],
        trace_index: int,
        event_index: int,
    ) -> tuple[WalkthroughStep, list[Inconsistency], MappingResolution]:
        rendering = table.rendering(event)
        resolution = table.resolution(event.type_name)
        tops = resolution.components
        if not tops:
            findings = self._policy_findings(
                self.options.unmapped_event_policy,
                InconsistencyKind.UNMAPPED_EVENT,
                f"event type {event.type_name!r} maps to no component",
                scenario,
                event,
                provenance=Provenance(
                    conclusion=(
                        "no mapping entry answers for the event type or any "
                        "of its supertypes; the walkthrough cannot place the "
                        "event in the architecture"
                    ),
                    event=self._event_context(
                        scenario, event, rendering, trace_index, event_index
                    ),
                    resolution=resolution,
                ),
            )
            step = WalkthroughStep(
                event_rendering=rendering,
                event_label=event.label,
                event_type=event.type_name,
                components=(),
                path=None,
                ok=self.options.unmapped_event_policy != "error",
                note="unmapped event type",
            )
            return step, findings, resolution

        findings: list[Inconsistency] = []
        path: Optional[tuple[str, ...]] = None
        ok = True
        note = ""

        if self.options.check_inter_event and previous_components:
            # A shared component always yields the trivial one-element
            # path, so path is None exactly when the step is unreachable —
            # and a passing step always carries the path that justifies it.
            path = table.move(previous_components, tops)
            if path is None:
                ok = False
                note = "no communication path from previous event's components"
                findings.append(
                    Inconsistency(
                        kind=InconsistencyKind.MISSING_LINK,
                        message=(
                            f"components of event {event.type_name!r} "
                            f"({', '.join(tops)}) are unreachable from the "
                            f"previous event's components "
                            f"({', '.join(previous_components)})"
                        ),
                        scenario=scenario.name,
                        event_label=event.label,
                        elements=(*previous_components, *tops),
                        provenance=Provenance(
                            conclusion=(
                                "the scenario's focus cannot move from the "
                                "previous event's components to this event's "
                                "components: a link the requirements assume "
                                "is missing from the architecture"
                            ),
                            event=self._event_context(
                                scenario, event, rendering,
                                trace_index, event_index,
                            ),
                            resolution=resolution,
                            queries=(
                                IndexQuery(
                                    operation="best_path_between",
                                    sources=previous_components,
                                    targets=tops,
                                    respect_directions=(
                                        self.options.inter_event_directed
                                    ),
                                ),
                            ),
                        ),
                    )
                )

        if ok and self.options.check_intra_event_chain and len(tops) > 1:
            chain_break = table.chain_break(resolution)
            if chain_break is not None:
                (source, target), queries = chain_break
                ok = False
                note = f"no path within event from {source!r} to {target!r}"
                findings.append(
                    Inconsistency(
                        kind=InconsistencyKind.MISSING_LINK,
                        message=(
                            f"event {event.type_name!r} requires data to flow "
                            f"{' -> '.join(tops)}, but {source!r} cannot reach "
                            f"{target!r}"
                        ),
                        scenario=scenario.name,
                        event_label=event.label,
                        elements=(source, target),
                        provenance=Provenance(
                            conclusion=(
                                "the event's high-level action decomposes "
                                "into low-level actions flowing through its "
                                "mapped components in order, and that chain "
                                "is broken"
                            ),
                            event=self._event_context(
                                scenario, event, rendering,
                                trace_index, event_index,
                            ),
                            resolution=resolution,
                            queries=queries,
                        ),
                    )
                )

        # Positional: the walk's one step per typed event, and keywords
        # double a tuple-backed step's construction cost.
        step = WalkthroughStep(
            rendering, event.label, event.type_name, tops, path, ok, note
        )
        return step, findings, resolution

    def _walk_simple_event(
        self,
        scenario: Scenario,
        event: SimpleEvent,
        trace_index: int,
        event_index: int,
    ) -> tuple[WalkthroughStep, list[Inconsistency]]:
        findings = self._policy_findings(
            self.options.simple_event_policy,
            InconsistencyKind.UNMAPPED_EVENT,
            f"natural-language event {event.text!r} cannot be mapped "
            "(no ontology event type)",
            scenario,
            event,
            provenance=Provenance(
                conclusion=(
                    "the event is free text with no ontology event type, so "
                    "no mapping entry can place it; the step is skipped"
                ),
                event=self._event_context(
                    scenario, event, event.text, trace_index, event_index
                ),
                resolution=MappingResolution(event_type=None),
            ),
        )
        step = WalkthroughStep(
            event_rendering=event.text,
            event_label=event.label,
            event_type=None,
            components=(),
            path=None,
            ok=self.options.simple_event_policy != "error",
            note="natural-language event; skipped",
        )
        return step, findings

    @staticmethod
    def _event_context(
        scenario: Scenario,
        event: Event,
        rendering: str,
        trace_index: int,
        event_index: int,
    ) -> EventContext:
        return EventContext(
            scenario=scenario.name,
            trace_index=trace_index,
            event_index=event_index,
            event_label=event.label,
            event_rendering=rendering,
        )

    def _policy_findings(
        self,
        policy: str,
        kind: InconsistencyKind,
        message: str,
        scenario: Scenario,
        event: Event,
        provenance: Optional[Provenance] = None,
    ) -> list[Inconsistency]:
        if policy == "ignore":
            return []
        severity = Severity.ERROR if policy == "error" else Severity.WARNING
        return [
            Inconsistency(
                kind=kind,
                message=message,
                scenario=scenario.name,
                event_label=event.label,
                severity=severity,
                provenance=provenance,
            )
        ]


#: The walk's counters, in the order of their slots in
#: :meth:`_StepTable.tally`.
_WALK_COUNTERS = (
    "walkthrough.traces",
    "walkthrough.steps",
    "walkthrough.mapping_resolutions",
    "walkthrough.supertype_fallbacks",
    "walkthrough.unmapped_events",
    "walkthrough.missing_links",
)
(
    _TRACES,
    _STEPS,
    _RESOLUTIONS,
    _FALLBACKS,
    _UNMAPPED,
    _MISSING_LINKS,
) = range(len(_WALK_COUNTERS))


def _failures(walked: tuple[TraceWalkthrough, ...]) -> tuple[int, int]:
    """The failing steps and the findings of a scenario's walked
    traces. A step fails only with a finding of its own, so only the
    traces that have findings are scanned."""
    failing = findings = 0
    for walk in walked:
        if walk.inconsistencies:
            findings += len(walk.inconsistencies)
            failing += sum(1 for step in walk.steps if not step.ok)
    return failing, findings


class _StepTable:
    """The per-type answers of an engine's sessions while ``key`` holds
    (see the module docstring). ``checks`` counts the walk's
    connectivity checks, whether answered here or by the index: one per
    inter-event move between disjoint component groups, one per chain
    pair checked. ``graph_builds`` counts the communication graphs the
    index built to answer them."""

    def __init__(
        self, engine: WalkthroughEngine, key: Optional[tuple]
    ) -> None:
        self.key = key
        self.mapping = engine.mapping
        self.index = engine.index
        self.options = engine.options
        self.resolutions: dict[str, MappingResolution] = {}
        # Per event type: (first broken pair and the provenance queries
        # that found it, or None; checks made).
        self.chains: dict[str, tuple[Optional[tuple], int]] = {}
        self.moves: dict[tuple, Optional[tuple[str, ...]]] = {}
        # Holding the event keeps its id from being reused.
        self.renderings: dict[int, tuple[Event, str]] = {}
        self.memo: dict = {}
        self.checks = 0
        self.graph_builds = 0
        self._suite: Optional[CompiledSuite] = None
        # The scenario set's and its ontology's versions the suite was
        # compiled at.
        self._suite_versions: Optional[tuple[int, int]] = None
        # The walk's counters, in _WALK_COUNTERS order, and the
        # recorder they are owed to.
        self._counts = [0] * len(_WALK_COUNTERS)
        self._counted_for = None

    def suite(self, scenario_set: ScenarioSet) -> CompiledSuite:
        """The compiled view of ``scenario_set``, kept while the set and
        its ontology keep their versions. A new view drops the previous
        one's renderings and the memo."""
        versions = (scenario_set.version, scenario_set.ontology.version)
        suite = self._suite
        if (
            suite is None
            or suite.scenario_set is not scenario_set
            or versions != self._suite_versions
        ):
            suite = self._suite = CompiledSuite(
                scenario_set, self.options.trace_options
            )
            self._suite_versions = versions
            self.renderings.clear()
            self.memo.clear()
        return suite

    def tally(self, recorder) -> list[int]:
        """The walk's counters owed to ``recorder``, in
        ``_WALK_COUNTERS`` order, for the walk to add to; a tally owed
        to another recorder is flushed to it first."""
        if recorder is not self._counted_for:
            self.flush_counters()
            self._counted_for = recorder
        return self._counts

    def flush_counters(self) -> None:
        """Add the tallied counters to their recorder's registry."""
        recorder = self._counted_for
        if recorder is None:
            return
        for name, value in zip(_WALK_COUNTERS, self._counts):
            recorder.counter(name).inc(value)
        self._counts = [0] * len(_WALK_COUNTERS)
        self._counted_for = None

    def rendering(self, event: TypedEvent) -> str:
        entry = self.renderings.get(id(event))
        if entry is None:
            entry = (event, event.render(self.mapping.ontology))
            self.renderings[id(event)] = entry
        return entry[1]

    def resolution(self, type_name: str) -> MappingResolution:
        """How the type resolves; its ``components`` are the unique
        top-level components (empty when unmapped)."""
        resolution = self.resolutions.get(type_name)
        if resolution is None:
            mapping = self.mapping
            components, hops = mapping.resolution_for(type_name)
            resolution = self.resolutions[type_name] = MappingResolution(
                event_type=type_name,
                hops=hops,
                entry_components=components,
                components=tuple(
                    dict.fromkeys(map(mapping.top_level_component, components))
                ),
            )
        return resolution

    def move(
        self, previous: tuple[str, ...], current: tuple[str, ...]
    ) -> Optional[tuple[str, ...]]:
        """The shortest communication path from any previous-event
        component to any current-event component; ``None`` if none
        exists. A shared component yields a trivial one-element path."""
        key = (previous, current)
        try:
            path = self.moves[key]
        except KeyError:
            builds = self.index.misses
            path = self.moves[key] = self.index.best_path_between(
                previous,
                current,
                respect_directions=self.options.inter_event_directed,
            )
            self.graph_builds += self.index.misses - builds
        if path is None or len(path) > 1:
            self.checks += 1
        return path

    def chain_break(
        self, resolution: MappingResolution
    ) -> Optional[tuple[tuple[str, str], tuple[IndexQuery, ...]]]:
        """The first consecutive pair in the type's component chain with
        no communication path and the checks up to it, for provenance;
        ``None`` when the chain holds."""
        chain = self.chains.get(resolution.event_type)
        if chain is None:
            builds = self.index.misses
            chain_break, checks = None, 0
            directed = self.options.intra_event_directed
            queries: list[IndexQuery] = []
            tops = resolution.components
            for source, target in zip(tops, tops[1:]):
                checks += 1
                found = self.index.can_communicate(
                    source, target, respect_directions=directed
                )
                queries.append(
                    IndexQuery(
                        operation="can_communicate",
                        sources=(source,),
                        targets=(target,),
                        respect_directions=directed,
                        found=found,
                    )
                )
                if not found:
                    chain_break = ((source, target), tuple(queries))
                    break
            chain = self.chains[resolution.event_type] = (chain_break, checks)
            self.graph_builds += self.index.misses - builds
        self.checks += chain[1]
        return chain[0]
