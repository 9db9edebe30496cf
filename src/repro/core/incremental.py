"""Incremental re-evaluation after architecture or mapping evolution.

The paper's maintenance story (§5): when artifacts evolve, the
requirements↔architecture trace links "assist developers in locating other
artifacts that also need modifications." This module operationalizes that
into an evaluation-time saving: only scenarios whose verdicts can have
changed are re-walked; every other verdict is carried over unchanged.

Because the mapping places event *types*, a walk asks the step table a
small fixed set of questions (:func:`~repro.core.walkthrough.
walk_questions`): how each event type resolves, whether the focus can
move between two component groups, whether an event's component chain
holds. A walk's verdict depends only on the scenario, the walkthrough
options and the answers it got. :meth:`DependencyTracker.from_report`
lists each scenario's questions from the previous report and answers
them over the report's own architecture and mapping. :func:`reevaluate`
asks the same questions of the edited pipeline's step table and
re-walks exactly the scenarios with a question whose answer changed.
See ``docs/INCREMENTAL.md``.

:func:`reevaluate` runs :meth:`Sosae.evaluate_with <repro.core.evaluator.
Sosae.evaluate_with>` with a carry-over walk executor (the previous
verdict for a clean scenario, a fresh walk for a dirty one) and the
previous validation and mapping-coverage findings reused when their
inputs did not change. Its report, telemetry and coverage matrix are
those of a full evaluation of the new pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterator, Optional

from repro.adl.index import CommunicationIndex
from repro.adl.structure import Architecture
from repro.core.consistency import (
    EvaluationReport,
    InconsistencyKind,
    ScenarioVerdict,
)
from repro.core.evaluator import Sosae, evaluate_scenario
from repro.core.mapping import Mapping
from repro.core.walkthrough import (
    WalkthroughEngine,
    WalkthroughOptions,
    walk_questions,
)
from repro.obs.instruments import current_instruments
from repro.scenarioml.scenario import Scenario

__all__ = [
    "DependencyTracker",
    "IncrementalResult",
    "reevaluate",
]

@dataclass(frozen=True)
class IncrementalResult:
    """The updated report plus bookkeeping about what was re-walked."""

    report: EvaluationReport
    rewalked: tuple[str, ...]
    carried_over: tuple[str, ...]
    #: Findings stages whose previous findings were reused because the
    #: edit cannot have touched their inputs; every other stage ran.
    reused_stages: tuple[str, ...] = ()

    @property
    def savings(self) -> float:
        """Fraction of scenario walkthroughs avoided."""
        total = len(self.rewalked) + len(self.carried_over)
        return len(self.carried_over) / total if total else 0.0


def _coverage_inputs(
    architecture: Architecture, mapping: Mapping, index: CommunicationIndex
) -> tuple:
    """What the mapping-coverage findings read besides the scenarios:
    the top-level component names in declaration order, and each direct
    mapping entry as ``(component, top-level component)`` pairs placed
    by ``index`` (``None`` where its architecture lacks the component)."""
    tops = index.top_levels()
    return (
        [component.name for component in architecture.components],
        {
            event_type: tuple(
                (component, tops.get(component)) for component in components
            )
            for event_type, components in mapping.entries.items()
        },
    )


class DependencyTracker:
    """Each scenario's walk questions, answered over the pipeline that
    produced ``report``.

    Keeps that ``report``, the ``architecture`` and walkthrough
    ``options`` it was evaluated with, the questions per scenario, one
    answer per distinct question, and the inputs of the mapping-coverage
    findings.
    """

    def __init__(
        self,
        report: EvaluationReport,
        architecture: Architecture,
        options: WalkthroughOptions,
        questions: dict[str, tuple[tuple, ...]],
        answers: dict[tuple, object],
        coverage_inputs: tuple,
    ) -> None:
        self.report = report
        self.architecture = architecture
        self.options = options
        self._questions = questions
        self._answers = answers
        self._coverage_inputs = coverage_inputs

    @classmethod
    def from_report(
        cls,
        report: EvaluationReport,
        architecture: Architecture,
        mapping: Mapping,
        options: Optional[WalkthroughOptions] = None,
        index: Optional[CommunicationIndex] = None,
    ) -> "DependencyTracker":
        """List the questions of every scenario verdict in ``report``
        and answer the distinct ones over ``architecture`` and
        ``mapping`` under ``options``, the artifacts and walkthrough
        options the report was evaluated with. Neither artifact may be
        mutated afterwards: re-evaluate against an edited copy."""
        options = options or WalkthroughOptions()
        questions = {
            verdict.scenario: walk_questions(verdict, options)
            for verdict in report.scenario_verdicts
        }
        engine = WalkthroughEngine(architecture, mapping, options, index)
        with engine.session():
            answers = {
                question: engine.answer(question)
                for question in dict.fromkeys(
                    chain.from_iterable(questions.values())
                )
            }
            coverage = _coverage_inputs(architecture, mapping, engine.index)
        return cls(report, architecture, options, questions, answers, coverage)

    @property
    def scenario_names(self) -> tuple[str, ...]:
        """The scenarios with recorded questions."""
        return tuple(self._questions)


def reevaluate(tracker: DependencyTracker, sosae: Sosae) -> IncrementalResult:
    """Evaluate ``sosae`` — the pipeline after an edit — re-walking only
    the scenarios of ``tracker`` with a question whose answer changed.

    One session on ``sosae``'s engine asks each distinct question once,
    which warms its step table for the re-walks, and then runs the
    evaluation. Under walkthrough options other than the tracker's,
    every scenario is re-walked and no findings are reused. ``sosae``
    must keep the scenarios (and their ontology) the tracker's report
    was evaluated with; scenarios it adds are walked.

    The report comes from the evaluation pipeline itself, so it equals
    ``sosae.evaluate()``: clean scenarios carry their previous verdicts,
    dirty and new ones are walked. Validation findings are reused unless
    the scenario names or their order changed, and mapping-coverage
    findings also unless the component names, their order or the
    mapping entries (with the top-level components they resolve to)
    changed; style and constraint findings are always recomputed.
    """
    recorder = current_instruments().recorder
    previous = tracker.report
    names = [scenario.name for scenario in sosae.scenario_set]
    index_stats_before = sosae.index.stats()
    with sosae.engine.session():
        if sosae.walkthrough_options != tracker.options:
            dirty = set(tracker.scenario_names)
            reuse = {}
        else:
            dirty = _dirty(tracker, sosae.engine)
            # Findings follow scenario order, so a reordered set counts.
            same_scenarios = names == [
                verdict.scenario for verdict in previous.scenario_verdicts
            ]
            reuse = {
                "validation": same_scenarios,
                "coverage": same_scenarios
                and tracker._coverage_inputs
                == _coverage_inputs(
                    sosae.architecture, sosae.mapping, sosae.index
                ),
            }
        if recorder.enabled:
            # The graphs built to answer, which the evaluation's own
            # index counters do not see.
            sosae.record_index_stats(recorder, index_stats_before)
        carried = {
            verdict.scenario: verdict
            for verdict in previous.scenario_verdicts
            if verdict.scenario not in dirty
        }
        rewalked = tuple(name for name in names if name not in carried)
        carried_over = tuple(name for name in names if name in carried)
        reused_findings = {
            stage: [
                finding
                for finding in previous.findings
                if _STAGE_OF_KIND.get(finding.kind) == stage
            ]
            for stage, reusable in reuse.items()
            if reusable
        }

        def carry_over(
            pipeline: Sosae, scenarios: tuple[Scenario, ...]
        ) -> Iterator[ScenarioVerdict]:
            for scenario in scenarios:
                verdict = carried.get(scenario.name)
                yield (
                    verdict
                    if verdict is not None
                    else evaluate_scenario(
                        pipeline.engine, scenario, pipeline.scenario_set
                    )
                )

        report = sosae.evaluate_with(
            carry_over,
            reused_findings=reused_findings,
            rewalked=len(rewalked),
            carried=len(carried_over),
        )
    if recorder.enabled:
        recorder.counter("incremental.reevaluations").inc()
        recorder.counter("incremental.rewalked_scenarios").inc(len(rewalked))
        recorder.counter("incremental.carried_scenarios").inc(
            len(carried_over)
        )
    return IncrementalResult(
        report=report,
        rewalked=rewalked,
        carried_over=carried_over,
        reused_stages=tuple(reused_findings),
    )


def _dirty(tracker: DependencyTracker, engine: WalkthroughEngine) -> set[str]:
    """The scenarios with a question that ``engine``'s open session
    answers differently."""
    changed = {
        question
        for question, answered in tracker._answers.items()
        if engine.answer(question) != answered
    }
    return {
        name
        for name, questions in tracker._questions.items()
        if not changed.isdisjoint(questions)
    }


_STAGE_OF_KIND = {
    InconsistencyKind.VALIDATION_ERROR: "validation",
    InconsistencyKind.UNMAPPED_EVENT: "coverage",
    InconsistencyKind.UNMAPPED_COMPONENT: "coverage",
}
