"""SOSAE: the evaluation facade (the paper's §8 tool, as a library).

The paper's planned tool, SOSAE (Scenario and Ontology-based Software
Architecture Evaluation), "facilitates the mapping between the ontology
elements of the requirements and components of the architecture [and]
provides the mechanism for automatically 'executing' the scenarios on the
architecture." :class:`Sosae` is that tool as a library object: it holds
the four artifacts of the approach (scenarios, architecture, mapping,
and — optionally — dynamic bindings and constraints) and
:meth:`Sosae.evaluate` runs the whole pipeline:

1. validate the scenario set against its ontology;
2. check the architecture against its declared style;
3. check mapping coverage (unmapped used event types / unmapped
   components);
4. check requirement constraints against the structure;
5. when behavior-check options are given, verify that mapped components'
   statecharts can consume the scenarios' run-time triggers;
6. walk every positive scenario statically and every negative scenario
   with inverted polarity;
7. when dynamic bindings are present, execute quality-attribute scenarios
   on the simulated architecture.

Steps 1, 3 and 6 read the scenario set through the engine's compiled
view (:class:`~repro.scenarioml.compiled.CompiledSuite`): each
scenario's events and traces, the set's event-type names, the argument
checks and the validation issues are computed once, and kept with the
engine's step table across evaluations of an unchanged pipeline, as
are the coverage findings.

The result is one :class:`~repro.core.consistency.EvaluationReport`.
Step 6 runs through a *walk executor* (:func:`walk_serially`, the
sharded :class:`repro.shard.BatchEvaluator`, or incremental
re-evaluation's carry-over walk, via :meth:`Sosae.evaluate_with`), so
there is one stage sequence however the verdicts are produced. The
run's element coverage is derived from the finished verdicts.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, Optional, Sequence

from repro.adl.index import CommunicationIndex
from repro.adl.structure import Architecture
from repro.adl.styles import check_style
from repro.core.behavior_check import (
    BehaviorCheckOptions,
    check_behavioral_support,
)
from repro.core.consistency import (
    EvaluationReport,
    Inconsistency,
    InconsistencyKind,
    ScenarioVerdict,
    Severity,
)
from repro.core.constraints import Constraint, check_constraints
from repro.core.dynamic import (
    DynamicEvaluator,
    DynamicVerdict,
    ScenarioBindings,
)
from repro.core.mapping import Mapping, unmapped_components_of
from repro.core.negative import evaluate_negative_scenario
from repro.core.walkthrough import (
    WalkthroughEngine,
    WalkthroughOptions,
    finding_event,
)
from repro.errors import EvaluationError
from repro.obs.coverage import (
    NULL_COVERAGE,
    CoverageBuilder,
    coverage_computed_event,
)
from repro.obs.events import (
    EvaluationFinished,
    EvaluationStarted,
    StageFinished,
    StageStarted,
)
from repro.obs.instruments import current_instruments, instrumented
from repro.obs.provenance import MappingResolution, Provenance
from repro.scenarioml.compiled import CompiledSuite
from repro.scenarioml.scenario import Scenario, ScenarioSet
from repro.scenarioml.validation import IssueSeverity, validate_suite
from repro.sim.runtime import RuntimeConfig


def validation_findings(suite: CompiledSuite) -> list[Inconsistency]:
    """Findings from validating the scenario set against its ontology,
    read from the set's compiled view (:func:`validate_suite`, which
    the view answers once): each scenario's events are walked once, and
    each distinct ``(type, arguments)`` binding is checked once, with
    one finding per occurrence, in :func:`validate_scenario_set` order.

    Architecture-independent: depends only on the scenario set, so
    incremental re-evaluation can carry these over across architecture
    edits (:mod:`repro.core.incremental`)."""
    return [
        Inconsistency(
            kind=InconsistencyKind.VALIDATION_ERROR,
            message=issue.message,
            scenario=issue.scenario_name,
            event_label=issue.event_label,
            severity=(
                Severity.ERROR
                if issue.severity is IssueSeverity.ERROR
                else Severity.WARNING
            ),
        )
        for issue in validate_suite(suite)
    ]


def style_findings(architecture: Architecture) -> list[Inconsistency]:
    """Findings from checking the architecture against its declared
    style. Depends only on the architecture's structure."""
    return [
        Inconsistency(
            kind=InconsistencyKind.STYLE_VIOLATION,
            message=str(violation),
            elements=violation.elements,
        )
        for violation in check_style(architecture)
    ]


def coverage_findings(
    index: CommunicationIndex, mapping: Mapping, suite: CompiledSuite,
    memo: Optional[dict] = None,
) -> list[Inconsistency]:
    """Findings from checking mapping coverage: used event types that map
    to no component, and components of the architecture of ``index`` no
    event type can exercise. The used types are the compiled view's
    event-type names, in first-use order.

    ``memo`` is an engine session's :meth:`WalkthroughEngine.memo`, from
    an engine with this ``index`` and ``mapping``: its step table is
    keyed by everything else the findings read, so they are computed
    once while the table and ``suite`` are kept."""
    if memo is not None and "coverage" in memo:
        return list(memo["coverage"])
    findings = []
    for name in mapping.unmapped_event_types(suite):
        _, hops = mapping.resolution_for(name)
        findings.append(
            Inconsistency(
                kind=InconsistencyKind.UNMAPPED_EVENT,
                message=(
                    f"event type {name!r} is used by the scenarios but "
                    "maps to no component"
                ),
                severity=Severity.WARNING,
                provenance=Provenance(
                    conclusion=(
                        "mapping coverage check: neither the type nor "
                        "any supertype carries a mapping entry"
                    ),
                    resolution=MappingResolution(event_type=name, hops=hops),
                ),
            )
        )
    findings.extend(
        Inconsistency(
            kind=InconsistencyKind.UNMAPPED_COMPONENT,
            message=(
                f"component {name!r} is mapped to by no event type; the "
                "scenarios cannot exercise it"
            ),
            elements=(name,),
            severity=Severity.WARNING,
            provenance=Provenance(
                conclusion=(
                    "mapping coverage check: no mapping entry names the "
                    "component (directly or through a nested "
                    "subcomponent), so no scenario event can reach it"
                ),
            ),
        )
        for name in unmapped_components_of(index, mapping)
    )
    if memo is not None:
        memo["coverage"] = tuple(findings)
    return findings


def evaluate_scenario(
    engine: WalkthroughEngine, scenario: Scenario, scenario_set: ScenarioSet
) -> ScenarioVerdict:
    """Walk one scenario: statically, or with inverted polarity when it
    is negative."""
    if scenario.is_negative:
        return evaluate_negative_scenario(engine, scenario, scenario_set)
    return engine.walk_scenario(scenario, scenario_set)


#: How the walkthrough stage walks the selected scenarios: ``(sosae,
#: scenarios) -> verdicts``, one per scenario, in the order given.
WalkExecutor = Callable[
    ["Sosae", tuple[Scenario, ...]], Iterable[ScenarioVerdict]
]


def walk_serially(
    sosae: "Sosae", scenarios: tuple[Scenario, ...]
) -> Iterator[ScenarioVerdict]:
    """The default walk executor: walk each scenario in this process.

    Lazy, so the pipeline streams each verdict's findings before the
    next scenario's events."""
    for scenario in scenarios:
        yield evaluate_scenario(sosae.engine, scenario, sosae.scenario_set)


class Sosae:
    """Scenario and Ontology-based Software Architecture Evaluation."""

    def __init__(
        self,
        scenario_set: ScenarioSet,
        architecture: Architecture,
        mapping: Mapping,
        constraints: Sequence[Constraint] = (),
        bindings: Optional[ScenarioBindings] = None,
        entity_to_component: Optional[dict[str, str]] = None,
        walkthrough_options: Optional[WalkthroughOptions] = None,
        runtime_config: Optional[RuntimeConfig] = None,
        behavior_options: Optional[BehaviorCheckOptions] = None,
    ) -> None:
        self.scenario_set = scenario_set
        self.architecture = architecture
        self.mapping = mapping
        self.constraints = list(constraints)
        self.bindings = bindings
        self.entity_to_component = dict(entity_to_component or {})
        self.runtime_config = runtime_config
        self.behavior_options = behavior_options
        self.engine = WalkthroughEngine(
            architecture, mapping, walkthrough_options
        )
        # The engine resolves the shared per-architecture communication
        # index; constraint checks in `evaluate` hit the same warm caches.
        self.index = self.engine.index

    @property
    def walkthrough_options(self) -> WalkthroughOptions:
        """The walk's options: the engine's, set through either name."""
        return self.engine.options

    @walkthrough_options.setter
    def walkthrough_options(self, options: WalkthroughOptions) -> None:
        self.engine.options = options

    # ------------------------------------------------------------------
    # Pipeline
    # ------------------------------------------------------------------

    def evaluate(
        self,
        scenario_names: Optional[Iterable[str]] = None,
        include_dynamic: bool = False,
        dynamic_scenarios: Optional[Iterable[str]] = None,
    ) -> EvaluationReport:
        """Run the full evaluation pipeline.

        ``scenario_names`` restricts which scenarios are walked (default:
        all). ``include_dynamic`` additionally executes scenarios on the
        simulated architecture — all quality-attribute scenarios by
        default, or exactly ``dynamic_scenarios`` when given. Dynamic
        execution requires bindings.

        With a live observability recorder installed
        (:func:`repro.obs.instruments.instrumented`), each stage runs
        inside a span and the communication index's cache statistics
        accrue to the metrics registry. With a live event bus installed,
        the pipeline additionally
        streams progress events — evaluation/stage/scenario boundaries
        and every finding. The report itself is identical either way.
        """
        return self.evaluate_with(
            walk_serially, scenario_names, include_dynamic, dynamic_scenarios
        )

    def evaluate_with(
        self,
        walk: WalkExecutor,
        scenario_names: Optional[Iterable[str]] = None,
        include_dynamic: bool = False,
        dynamic_scenarios: Optional[Iterable[str]] = None,
        reused_findings: Optional[dict[str, Sequence[Inconsistency]]] = None,
        **attributes,
    ) -> EvaluationReport:
        """:meth:`evaluate`, with the walkthrough stage run by ``walk``.

        ``reused_findings`` maps a findings stage (``"validation"``,
        ``"coverage"``, ...) to findings that stand in for recomputing
        it; the caller vouches that the stage's inputs did not change
        (incremental re-evaluation does). The stage still runs inside
        its span and streams its findings.

        ``attributes`` annotate the ``evaluate`` and
        ``evaluate.walkthrough`` spans (a sharded walk adds its worker
        count).

        The installed coverage builder, when enabled, is fed from the
        finished report's verdicts, inside the session, whose memo keeps
        the verdicts' fold for a replay to reuse; while the recorder or
        event bus is live and no builder is installed, a fresh one is
        finalized onto the recorder and announced on the bus.

        The whole evaluation runs in one engine session: the walk and the
        constraint checks share one structural fingerprint check at
        entry, each event type is resolved and checked once, and each
        scenario is compiled at most once, when a stage first reads it;
        the inputs, the scenario set included, must not be mutated while
        the evaluation runs. What the session computed is kept for the
        next evaluation while none of its inputs changed (see
        :mod:`repro.core.walkthrough`)."""
        instruments = current_instruments()
        recorder, bus = instruments.recorder, instruments.events
        coverage = instruments.coverage
        reused = reused_findings or {}
        if not recorder.enabled and not bus.enabled:
            with self.engine.session():
                return self._evaluate(
                    walk, scenario_names, include_dynamic, dynamic_scenarios,
                    reused, attributes,
                )
        if bus.enabled:
            bus.emit(
                EvaluationStarted(
                    architecture=self.architecture.name,
                    scenario_set=self.scenario_set.name,
                    scenarios=len(self.scenario_set.scenarios),
                )
            )
        started = time.perf_counter()
        index_stats_before = self.index.stats()
        # Coverage rides the same observed path: a fresh builder per
        # evaluation, unless one is already installed (a deliberately
        # disabled one from the overhead benchmark) — whoever installed
        # it owns its finalization.
        builder = CoverageBuilder() if coverage is NULL_COVERAGE else None
        coverage = builder or coverage
        with recorder.span(
            "evaluate",
            architecture=self.architecture.name,
            scenario_set=self.scenario_set.name,
            scenarios=len(self.scenario_set.scenarios),
            **attributes,
        ) as span:
            with instrumented(coverage=coverage), self.engine.session():
                report = self._evaluate(
                    walk, scenario_names, include_dynamic, dynamic_scenarios,
                    reused, attributes,
                )
            span.set_attribute("consistent", report.consistent)
            span.set_attribute("findings", len(report.findings))
        if builder is not None:
            self._finish_coverage(builder, recorder, bus)
        if recorder.enabled:
            self.record_index_stats(recorder, index_stats_before)
            # Re-entrant accounting: one long-lived registry (the serve
            # loop's) sees these accumulate across evaluate() calls.
            recorder.counter("evaluate.runs").inc()
            recorder.histogram("evaluate.wall_seconds").observe(
                time.perf_counter() - started
            )
        if bus.enabled:
            bus.emit(
                EvaluationFinished(
                    consistent=report.consistent,
                    findings=report.finding_count,
                    scenarios_passed=len(report.passed_scenarios),
                    scenarios_failed=len(report.failed_scenarios),
                    wall_seconds=time.perf_counter() - started,
                )
            )
        return report

    def _evaluate(
        self,
        walk: WalkExecutor,
        scenario_names: Optional[Iterable[str]],
        include_dynamic: bool,
        dynamic_scenarios: Optional[Iterable[str]],
        reused: dict[str, Sequence[Inconsistency]],
        attributes: dict,
    ) -> EvaluationReport:
        instruments = current_instruments()
        recorder, bus = instruments.recorder, instruments.events
        findings: list[Inconsistency] = []
        suite = self.engine.compiled(self.scenario_set)
        memo = self.engine.memo()
        stages = [
            ("validation", lambda: validation_findings(suite), {}),
            ("style_check", lambda: style_findings(self.architecture), {}),
            (
                "coverage",
                lambda: coverage_findings(
                    self.index, self.mapping, suite, memo
                ),
                {},
            ),
            (
                "constraints",
                lambda: check_constraints(self.architecture, self.constraints),
                {"constraints": len(self.constraints)},
            ),
        ]
        if self.behavior_options is not None:
            stages.append((
                "behavior_check",
                lambda: check_behavioral_support(
                    self.scenario_set,
                    self.architecture,
                    self.mapping,
                    self.behavior_options,
                ),
                {},
            ))
        for stage, compute, stage_attributes in stages:
            with self._staged(
                recorder, bus, stage, findings, **stage_attributes
            ):
                findings.extend(
                    reused[stage] if stage in reused else compute()
                )

        selected = self._selected_scenarios(scenario_names)
        verdict_list: list[ScenarioVerdict] = []
        with self._staged(
            recorder, bus, "walkthrough", None,
            scenarios=len(selected), **attributes,
        ) as stage_findings:
            try:
                for verdict in walk(self, selected):
                    verdict_list.append(verdict)
            finally:
                # One pass observes the walk: scenario spans, samples
                # and events, each verdict's findings after its pair;
                # also what a walk that raised got through.
                if recorder.enabled or bus.enabled:
                    stage_findings["count"] = self.engine.observe_walk(
                        recorder, bus, verdict_list
                    )
        verdicts = tuple(verdict_list)

        dynamic_verdicts: tuple[DynamicVerdict, ...] = ()
        if include_dynamic:
            with self._staged(recorder, bus, "dynamic", None):
                dynamic_verdicts = self._run_dynamic(dynamic_scenarios)

        coverage = instruments.coverage
        if coverage.enabled:
            coverage.record_verdicts(
                verdicts, self.architecture, self.mapping, memo
            )

        return EvaluationReport(
            architecture=self.architecture.name,
            scenario_verdicts=verdicts,
            findings=tuple(findings),
            dynamic_verdicts=dynamic_verdicts,
        )

    @contextmanager
    def _staged(
        self,
        recorder,
        bus,
        stage: str,
        findings: Optional[list],
        **attributes,
    ) -> Iterator[dict]:
        """Run one pipeline stage inside its span, bracketed by
        stage-started/finished telemetry events.

        When ``findings`` is the shared findings list, every finding the
        stage appends is streamed as a :class:`FindingEmitted` event and
        counted on the :class:`StageFinished` event. Stages that collect
        findings elsewhere (walkthrough, dynamic) pass ``None`` and may
        report a count through the yielded dict's ``"count"`` key.
        """
        stage_findings: dict = {"count": 0}
        if bus.enabled:
            bus.emit(StageStarted(stage=stage))
        started = time.perf_counter()
        before = len(findings) if findings is not None else 0
        with recorder.span(f"evaluate.{stage}", **attributes):
            yield stage_findings
        elapsed = time.perf_counter() - started
        if recorder.enabled:
            # Per-stage timing as a metric (not only a span), so a
            # long-running registry exposes stage p50/p95/p99 and the
            # Prometheus exposition can render them.
            recorder.histogram(f"evaluate.{stage}.seconds").observe(elapsed)
        if not bus.enabled:
            return
        if findings is not None:
            emitted = findings[before:]
            stage_findings["count"] = len(emitted)
            for finding in emitted:
                bus.emit(finding_event(finding))
        bus.emit(
            StageFinished(
                stage=stage,
                wall_seconds=elapsed,
                findings=stage_findings["count"],
            )
        )

    def _finish_coverage(self, builder: CoverageBuilder, recorder, bus) -> None:
        """Finalize the run's coverage matrix: attach it to the live
        recorder (``RunRegistry.record`` persists it from there) and
        announce it on the event bus."""
        matrix = builder.finalize(self.scenario_set, self.mapping)
        if recorder.enabled:
            recorder.coverage = matrix
            recorder.gauge("coverage.component_ratio").set(
                matrix.component_coverage
            )
            recorder.gauge("coverage.link_ratio").set(matrix.link_coverage)
            recorder.gauge("coverage.event_type_ratio").set(
                matrix.event_type_coverage
            )
        if bus.enabled:
            bus.emit(coverage_computed_event(matrix))

    def record_index_stats(self, recorder, before, after=None) -> None:
        """Accrue the index-cache activity from ``before`` to ``after``
        (``index.stats()`` snapshots; ``after`` defaults to now) to the
        metrics registry (deltas, so repeated evaluations accumulate)."""
        if after is None:
            after = self.index.stats()
        recorder.counter("index.hits").inc(after.hits - before.hits)
        recorder.counter("index.misses").inc(after.misses - before.misses)
        recorder.counter("index.invalidations").inc(
            after.invalidations - before.invalidations
        )
        recorder.histogram("index.build_seconds").observe(
            after.build_seconds - before.build_seconds
        )

    # ------------------------------------------------------------------
    # Steps
    # ------------------------------------------------------------------

    def _selected_scenarios(
        self, scenario_names: Optional[Iterable[str]]
    ) -> tuple[Scenario, ...]:
        if scenario_names is None:
            return self.scenario_set.scenarios
        return tuple(self.scenario_set.get(name) for name in scenario_names)

    def _run_dynamic(
        self, dynamic_scenarios: Optional[Iterable[str]]
    ) -> tuple[DynamicVerdict, ...]:
        if self.bindings is None:
            raise EvaluationError(
                "dynamic evaluation requested but no scenario bindings given"
            )
        evaluator = DynamicEvaluator(
            self.architecture,
            self.bindings,
            mapping=self.mapping,
            config=self.runtime_config,
            entity_to_component=self.entity_to_component,
        )
        if dynamic_scenarios is None:
            selected = self.scenario_set.quality_scenarios()
        else:
            selected = tuple(
                self.scenario_set.get(name) for name in dynamic_scenarios
            )
        return tuple(
            evaluator.evaluate(scenario, self.scenario_set)
            for scenario in selected
        )
