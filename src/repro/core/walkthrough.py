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
witness path; per event object, its rendering; per scenario object
walked, its raw verdict, walk counters and connectivity checks, which
a later walk of the scenario replays (paper step 4: the verdict
depends only on the scenario's events, the mapping, the ontology and
the architecture's structure, all of which the table's key covers).
A walk's verdict depends only on the scenario, the options and the
table's answers to its questions (:func:`walk_questions`,
:meth:`WalkthroughEngine.answer`); incremental re-evaluation
(:mod:`repro.core.incremental`) re-walks a scenario after an edit when
one of them gets another answer. The table also holds a
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
pin entry) and the options. A new table first checks that the index's
architecture has every component the mapping names: the mapping may
have been written against another object. The next outermost entry
reuses the table only while that key still holds, so an evaluation of
an unchanged pipeline resolves, checks and compiles nothing again, and
edits between sessions are always seen. The suite has its own key, the
scenario set, its ``version`` and its ontology's ``version``; replacing
the suite drops the per-event renderings, the per-scenario walks and
the memo with it, so the table never holds two suites' events. An
evaluation of an unchanged pipeline therefore walks no scenario: each
returns its kept verdict object. An index that does not memoize never
computes a fingerprint, so its engine keeps no table past a session.
Every evaluation, ``walk_all`` and ``walk_scenario`` run in a session.

Observing the walk costs one row per scenario. While a recorder or an
event bus is live, :meth:`WalkthroughEngine.walk_scenario` appends the
scenario, its verdict, its wall and CPU clocks at start and end and its
work (steps, connectivity checks, graph builds) to the step table's
rows, and touches no span, histogram or event. A replayed scenario
adds its kept counters to the recorder's tally and appends a row with
fresh clocks, so its span and sample time the replay, and zero graph
builds, as a walk over the table's kept answers would. Unobserved, a
walk or a replay reads no clock and appends no row. One pass then
turns the rows into the ``walkthrough.scenario`` spans, the
``walkthrough.scenario_seconds`` samples and the
scenario-started/finished events, in walk order, with
the ids, parents and payloads per-scenario observation gave them: at
the end of the evaluator's walkthrough stage, which streams each
verdict's findings after its pair, and at the outermost exit of a
session for any rows left (a direct ``walk_scenario`` or ``walk_all``
call, a walk that raised). The parts of a scenario's observation that
only its verdict decides (its span's attributes but the graph builds,
its events' payloads but the wall time, its findings) are made when a
row of it is first observed and kept in its walked entry, so a replay
stamps only clocks, ids, ``seq`` and graph builds. A shard worker
takes its rows and counters out of its session
(:meth:`WalkthroughEngine.take_walk`) and the parent adds them to its
own (:meth:`WalkthroughEngine.add_walk`), so one pass observes a
sharded walk as it observes a serial one.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import islice
from time import perf_counter, process_time
from typing import Iterator, Optional, Sequence

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
from repro.obs.events import (
    FindingEmitted,
    ScenarioFinished,
    ScenarioStarted,
    TelemetryEvent,
)
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
        # Held here: the shared index reaches it through a weak reference.
        self.architecture = architecture
        self.mapping = mapping
        self.options = options or WalkthroughOptions()
        # One memoized index serves every connectivity query of the walk
        # and places every mapped component; by default it is the shared
        # per-architecture index, so constraint checks and module-level
        # graph queries reuse the same warm caches.
        self.index = index or communication_index(architecture)
        mapping.check_components(self.index)
        self._sessions = 0
        # The open session's step table, and the one kept between
        # sessions for the next to reuse while its key holds.
        self._table: Optional[_StepTable] = None
        self._kept: Optional[_StepTable] = None
        # The index fingerprint, and the graphs rows added from other
        # processes have built under it (see `add_walk`).
        self._shipped: tuple[Optional[tuple], set[bool]] = (None, set())

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
        outermost exit observes the rows left and adds the walk's
        counters to the metrics registry, so edits between sessions are
        always seen."""
        with self.index.pinned():
            if not self._sessions:
                key = self._table_key()
                table, self._kept = self._kept, None
                if table is None or key is None or table.key != key:
                    self.mapping.check_components(self.index)
                    table = _StepTable(self, key)
                self._table = table
            self._sessions += 1
            try:
                yield
            finally:
                self._sessions -= 1
                if not self._sessions:
                    table, self._table = self._table, None
                    try:
                        table.flush_rows()
                    finally:
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
        coverage findings there, and a negative scenario's evaluation
        its inverted verdicts); call it inside a :meth:`session`,
        after :meth:`compiled`. It empties whenever the table or its
        suite is replaced."""
        return self._table.memo

    def observe_walk(
        self, recorder, bus, verdicts: Sequence[ScenarioVerdict]
    ) -> int:
        """Observe the open session's walk so far on ``recorder`` and
        ``bus``, with ``verdicts`` (a walkthrough stage's, in order)
        streaming their findings; the number streamed. See
        :meth:`_StepTable.observe`."""
        return self._table.observe(recorder, bus, verdicts)

    def take_walk(self) -> tuple[list[tuple], list[int]]:
        """Take the open session's rows and walk counters out of it,
        neither observed nor counted: a shard worker ships them to the
        parent, whose :meth:`add_walk` makes them its own."""
        table = self._table
        rows, counts = table.rows, table._counts
        table.rows, table._rows_for = [], (None, None)
        table._counts, table._counted_for = [0] * len(_WALK_COUNTERS), None
        return rows, counts

    def add_walk(
        self,
        rows: list[tuple],
        counts: list[int],
        shard: int = 0,
        shift: float = 0.0,
        graphs: Sequence[bool] = (),
    ) -> None:
        """Add rows and walk counters taken from another process's
        session (:meth:`take_walk`) to the open session's, owed to the
        installed recorder and event bus like the session's own walk.

        The rows become this process's: their wall clocks move by
        ``shift`` (the other process's clock anchor less this one's) and
        they carry ``shard``. ``graphs`` are the communication graphs
        the other session built, in row order; a row counts a build only
        for a graph that this engine's index does not hold and that no
        row added since the index's structure last changed built, which
        is the build a walk in this process would have made."""
        instruments = current_instruments()
        recorder, bus = instruments.recorder, instruments.events
        table = self._table
        if recorder.enabled or bus.enabled:
            table.rows_for(recorder, bus).extend(
                self._adopted(rows, shard, shift, graphs)
            )
        if recorder.enabled:
            _add(table.tally(recorder), counts)

    def _adopted(
        self,
        rows: list[tuple],
        shard: int,
        shift: float,
        graphs: Sequence[bool],
    ) -> Iterator[tuple]:
        """``rows`` as :meth:`add_walk` adds them."""
        index = self.index
        fingerprint, held = self._shipped
        if fingerprint != index._fingerprint:
            held = set()
            self._shipped = index._fingerprint, held
        held.update(index.cached_graphs())
        built = iter(graphs)
        for (
            verdict, name, negative, traces, start_wall, start_cpu,
            end_wall, end_cpu, costs, error, _, _,
        ) in rows:
            if costs is not None and costs[2]:
                kinds = list(islice(built, costs[2]))
                costs = (
                    costs[0],
                    costs[1],
                    costs[2] - sum(1 for kind in kinds if kind in held),
                )
                held.update(kinds)
            yield (
                verdict, name, negative, traces, start_wall + shift,
                start_cpu, end_wall + shift, end_cpu, costs, error, shard,
                None,
            )

    def settle(self, raw: ScenarioVerdict, verdict: ScenarioVerdict) -> None:
        """Observe ``verdict`` in place of ``raw``, the verdict this
        engine's last walk returned: a negative scenario's
        scenario-finished event reports its inverted verdict."""
        table = self._table
        rows = table.rows if table is not None else None
        if rows and rows[-1][0] is raw:
            rows[-1] = (verdict, *rows[-1][1:])

    def answer(self, question: tuple) -> object:
        """The open session's answer to one of :func:`walk_questions`'s
        questions, from the step table the walk reads: the type's
        :class:`MappingResolution`, the move's path (``None`` when there
        is none) or the chain's first break (``None`` when it holds).
        A move naming a component that is not top-level here gets a new
        object, unequal to every other answer: the index cannot answer
        it, and no walk here asks it."""
        table = self._table
        if question[0] == "resolution":
            return table.resolution(question[1])
        if question[0] == "chain":
            return table.chain_break(table.resolution(question[1]))
        _, previous, current = question
        tops = self.index.top_levels()
        if any(tops.get(name) != name for name in (*previous, *current)):
            return object()
        return table.move(previous, current)

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
        suite = table.suite(scenario_set)
        instruments = current_instruments()
        recorder, bus = instruments.recorder, instruments.events
        # A scenario walked under the table's key and suite walks the
        # same again: replay its verdict and tallies.
        walked = table.walked.get(id(scenario))
        if not (recorder.enabled or bus.enabled):
            if walked is None:
                walked = self._walk(
                    table, scenario, suite.traces(scenario.name),
                    [0] * len(_WALK_COUNTERS),
                )
            return walked[1]
        # Observed: one row, which `_StepTable.observe` turns into the
        # scenario's span, sample and events after the walk. The cost
        # figures are the walk's tallies; connectivity checks are
        # counted whether the step table or the index answered them, so
        # a scenario's cost does not depend on which scenario met its
        # event types first. A replay builds no graph, as a walk over
        # the table's answers would not.
        rows = table.rows_for(recorder, bus)
        tally = table.tally(recorder) if recorder.enabled else None
        start_wall, start_cpu = perf_counter(), process_time()
        builds = 0
        if walked is None:
            traces = suite.traces(scenario.name)
            counts = [0] * len(_WALK_COUNTERS)
            builds = table.graph_builds
            try:
                walked = self._walk(table, scenario, traces, counts)
            except BaseException as error:
                if tally is not None:
                    _add(tally, counts)
                rows.append((
                    None, scenario.name, scenario.is_negative, len(traces),
                    start_wall, start_cpu, perf_counter(), process_time(),
                    None, type(error).__name__, 0, None,
                ))
                raise
            builds = table.graph_builds - builds
        _, verdict, counts, checks, kept = walked
        if tally is not None:
            _add(tally, counts)
        rows.append((
            verdict, scenario.name, scenario.is_negative, counts[_TRACES],
            start_wall, start_cpu, perf_counter(), process_time(),
            (counts[_STEPS], checks, builds), None, 0, kept,
        ))
        if bus.heartbeat_interval is not None:
            # The scenario's events wait for the end of the walk; its
            # heartbeat, if one is due, does not.
            bus.pulse()
        return verdict

    # ------------------------------------------------------------------
    # Trace walkthrough
    # ------------------------------------------------------------------

    def _walk(
        self,
        table: "_StepTable",
        scenario: Scenario,
        traces: tuple[tuple[Event, ...], ...],
        counts: list[int],
    ) -> tuple:
        """Walk every trace of ``scenario``, tallying into ``counts``,
        and keep the walk as the table's entry for the scenario (see
        :class:`_StepTable`); returns the entry."""
        checks = table.checks
        verdict = ScenarioVerdict(
            scenario=scenario.name,
            traces=tuple(
                self._walk_trace(table, counts, scenario, index, trace)
                for index, trace in enumerate(traces)
            ),
            negative=scenario.is_negative,
        )
        walked = table.walked[id(scenario)] = (
            scenario, verdict, tuple(counts), table.checks - checks, []
        )
        return walked

    def _walk_trace(
        self,
        table: "_StepTable",
        tally: list[int],
        scenario: Scenario,
        index: int,
        trace: tuple[Event, ...],
    ) -> TraceWalkthrough:
        # The walk's counters go to the scenario's ``tally``, which its
        # table entry keeps and a live recorder's tally adds up.
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


def walk_questions(
    verdict: ScenarioVerdict, options: WalkthroughOptions
) -> tuple[tuple, ...]:
    """The questions the walk behind ``verdict`` asked the step table,
    each once, in walk order: ``("resolution", type)`` per typed step;
    ``("move", previous, current)`` per step with components that
    follows another such step in its trace, when ``check_inter_event``
    is set; ``("chain", type)`` per step with more than one component,
    when ``check_intra_event_chain`` is set (also where a failed move
    skipped the chain, which only adds a question). Under ``options``,
    the walk of the same scenario that gets the same answers
    (:meth:`WalkthroughEngine.answer`) returns the same verdict."""
    questions: dict[tuple, None] = {}
    for trace in verdict.traces:
        previous = None
        for step in trace.steps:
            if step.event_type is None:
                continue
            questions[("resolution", step.event_type)] = None
            components = step.components
            if not components:
                continue
            if previous is not None and options.check_inter_event:
                questions[("move", previous, components)] = None
            if len(components) > 1 and options.check_intra_event_chain:
                questions[("chain", step.event_type)] = None
            previous = components
    return tuple(questions)


def _add(tally: list[int], counts: Sequence[int]) -> None:
    """Add a scenario's walk counters to ``tally``, slot by slot."""
    for slot, value in enumerate(counts):
        tally[slot] += value


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


def finding_event(finding: Inconsistency) -> FindingEmitted:
    """The event that streams ``finding``."""
    return FindingEmitted.of(
        finding_id=finding.finding_id,
        finding_kind=finding.kind.value,
        severity=finding.severity.value,
        scenario=finding.scenario,
        event_label=finding.event_label,
        message=finding.message,
    )


def _observed_parts(row: tuple) -> Optional[tuple]:
    """What a row's observation does not stamp afresh, ``None`` for a
    walk that raised: its span's attributes, its scenario-started
    payload, its scenario-finished payload but ``wall_seconds``, and its
    verdict's findings. A row walked or replayed here keeps them in its
    scenario's walked entry (see :class:`_StepTable`), for as long as
    the row's verdict is the one they were made from, so an unchanged
    scenario's replays count its failing steps and findings once."""
    verdict = row[0]
    if verdict is None:
        return None
    kept = row[11]
    if kept and kept[0] is verdict:
        return kept[1]
    _, name, negative, traces = row[:4]
    steps, checks, builds = row[8]
    failing, findings = _failures(verdict.traces)
    found = verdict.all_inconsistencies()
    parts = (
        {
            "scenario": name,
            "negative": negative,
            "traces": traces,
            "cost.steps": steps,
            "cost.failing_steps": failing,
            "cost.index_queries": checks,
            "cost.bfs_expansions": builds,
            "cost.findings": findings,
        },
        {"scenario": name, "negative": negative, "traces": traces},
        {"scenario": name, "passed": verdict.passed, "findings": len(found)},
        found,
    )
    if kept is not None:
        kept[:] = (verdict, parts)
    return parts


def _record_spans(recorder, rows: list[tuple], parts: list) -> None:
    """The rows' ``walkthrough.scenario`` spans, under the innermost
    open span, and their ``walkthrough.scenario_seconds`` samples, in
    walk order; ``parts`` are the rows' :func:`_observed_parts`."""
    add = recorder.spans.add
    seconds = []
    for (
        _, name, negative, traces, start_wall, start_cpu,
        end_wall, end_cpu, costs, error, shard, _,
    ), part in zip(rows, parts):
        if part is not None:
            # A copy per span, with the row's own graph builds.
            attributes = {**part[0], "cost.bfs_expansions": costs[2]}
            seconds.append(end_wall - start_wall)
        else:
            attributes = {
                "scenario": name,
                "negative": negative,
                "traces": traces,
                "error": error,
            }
        span = add(
            "walkthrough.scenario", attributes,
            start_wall, start_cpu, end_wall, end_cpu,
        )
        if shard:
            span.shard = shard
    if seconds:
        observe = recorder.histogram("walkthrough.scenario_seconds").observe
        for value in seconds:
            observe(value)


def _scenario_events(
    rows: list[tuple], parts: list, verdicts: Sequence[ScenarioVerdict]
) -> tuple[list[TelemetryEvent], int]:
    """The rows' scenario-started/finished pairs, each verdict's
    findings after its row's pair (alone when it has none), and the
    number of findings; ``parts`` are the rows' :func:`_observed_parts`."""
    events: list[TelemetryEvent] = []
    streamed = 0
    pending = zip(rows, parts)
    row, part = next(pending, (None, None))
    for verdict in verdicts:
        if row is not None and row[0] is verdict:
            found = part[3]
            _scenario_pair(events, row, part)
            row, part = next(pending, (None, None))
        else:
            found = verdict.all_inconsistencies()
        if found:
            streamed += len(found)
            events.extend(map(finding_event, found))
    while row is not None:
        _scenario_pair(events, row, part)
        row, part = next(pending, (None, None))
    return events, streamed


def _scenario_pair(
    events: list[TelemetryEvent], row: tuple, part: Optional[tuple]
) -> None:
    """Append a row's scenario-started event and, unless its walk
    raised, its scenario-finished event; ``part`` is the row's
    :func:`_observed_parts`."""
    if part is None:
        _, name, negative, traces = row[:4]
        events.append(
            ScenarioStarted.of(scenario=name, negative=negative, traces=traces)
        )
        return
    events.append(ScenarioStarted.of(**part[1]))
    events.append(
        ScenarioFinished.of(**part[2], wall_seconds=row[6] - row[4])
    )


class _StepTable:
    """The per-type answers of an engine's sessions while ``key`` holds
    (see the module docstring). ``checks`` counts the walk's
    connectivity checks, whether answered here or by the index: one per
    inter-event move between disjoint component groups, one per chain
    pair checked. ``graph_builds`` counts the communication graphs the
    index built to answer them. ``walked`` keeps, per scenario object
    walked to the end, the scenario, its raw verdict, its walk counters,
    its checks and a list that holds, once a row of it was observed,
    that row's verdict and :func:`_observed_parts`; a walk that raised
    keeps nothing. ``rows`` are the observed walk's, one per scenario
    walked or replayed since they were last observed: ``(verdict, name,
    negative, traces, start_wall, start_cpu, end_wall, end_cpu, costs,
    error, shard, kept)``, where ``costs`` are the ``(steps, index
    queries, graph builds)``, a walk that raised has no verdict or costs
    and the exception type's name as ``error``, ``shard`` is the shard
    worker that walked it (0 in this process), and ``kept`` is its
    walked entry's list (``None`` for a walk that raised or a row added
    from another process)."""

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
        # Per scenario object, held likewise: (scenario, raw verdict,
        # walk counters in _WALK_COUNTERS order, connectivity checks,
        # kept observation parts).
        self.walked: dict[int, tuple] = {}
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
        # The observed walk's rows, and the recorder and event bus they
        # are owed to.
        self.rows: list[tuple] = []
        self._rows_for: tuple = (None, None)

    def suite(self, scenario_set: ScenarioSet) -> CompiledSuite:
        """The compiled view of ``scenario_set``, kept while the set and
        its ontology keep their versions. A new view drops the previous
        one's renderings, walks and the memo."""
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
            self.walked.clear()
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

    def rows_for(self, recorder, bus) -> list[tuple]:
        """The walk's rows owed to ``recorder`` and ``bus``, for the
        walk to append to; rows owed to other channels are observed on
        them first."""
        owed = self._rows_for
        if recorder is not owed[0] or bus is not owed[1]:
            self.flush_rows()
            self._rows_for = (recorder, bus)
        return self.rows

    def flush_rows(self) -> None:
        """Observe the rows left on the channels they are owed to."""
        if self.rows:
            self.observe(*self._rows_for)

    def observe(
        self, recorder, bus, verdicts: Sequence[ScenarioVerdict] = ()
    ) -> int:
        """Turn the rows into what the walk's observation reports, in
        walk order, and drop them. With ``recorder`` live, each row
        becomes a ``walkthrough.scenario`` span under the innermost
        open span, with its ``cost.*`` attributes, and a
        ``walkthrough.scenario_seconds`` sample; with ``bus`` live, a
        scenario-started/finished pair. A row of a walk that raised
        becomes a span with its ``error`` and a scenario-started.

        ``verdicts`` are a walkthrough stage's, in order: each streams
        its findings on ``bus`` right after its row's pair, or alone
        when it has no row (a verdict carried over, or walked in
        another process). Returns the number of findings streamed."""
        rows = self.rows_for(recorder, bus)
        self.rows, self._rows_for = [], (None, None)
        parts = list(map(_observed_parts, rows))
        if recorder.enabled and rows:
            _record_spans(recorder, rows, parts)
        if not bus.enabled:
            return 0
        events, streamed = _scenario_events(rows, parts, verdicts)
        if events:
            bus.emit_many(events)
        return streamed

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
            components, hops = self.mapping.resolution_for(type_name)
            top_level = self.index.top_levels().__getitem__
            resolution = self.resolutions[type_name] = MappingResolution(
                event_type=type_name,
                hops=hops,
                entry_components=components,
                components=tuple(dict.fromkeys(map(top_level, components))),
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
