"""The walk's per-scenario ``cost.*`` span attributes and the run
record's attribution, held to values recomputed here from the verdicts.

The walk takes those figures from tallies its step table keeps; these
tests recount them from what the walk returned (every step, its path,
its note, its findings), so a tally that drifts from the walk shows.
The error-path tests hold the span scope to its contract: a walk that
raises still closes its span, names the exception and pops the stack.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.core.evaluator import Sosae
from repro.core.walkthrough import WalkthroughEngine
from repro.obs import Recorder, instrumented
from repro.obs.runs import scenario_costs
from repro.scenarioml.scenario import ScenarioSet
from repro.systems.crash import build_crash
from repro.systems.generators import SyntheticSpec, build_synthetic
from repro.systems.pims import build_pims


def _pims_x40(pims, seed: int) -> ScenarioSet:
    """PIMS plus 39 renamed replicas of each top-level scenario, in an
    order drawn from ``seed``."""
    scenarios = list(pims.scenarios)
    for index in range(1, 40):
        scenarios.extend(
            dataclasses.replace(scenario, name=f"{scenario.name}+r{index}")
            for scenario in pims.scenarios
            if scenario.alternative_of is None
        )
    random.Random(seed).shuffle(scenarios)
    scaled = ScenarioSet(pims.ontology, name="pims-x40")
    scaled.extend(scenarios)
    return scaled


def _pipeline(case: str) -> Sosae:
    if case.startswith("pims"):
        pims = build_pims()
        architecture = pims.architecture
        if case != "pims":
            architecture = pims.excised_architecture()
        scenarios = _pims_x40(pims, 0) if case == "pims-x40" else pims.scenarios
        return Sosae(
            scenarios,
            architecture,
            pims.mapping.rebind(architecture),
            constraints=pims.constraints,
            walkthrough_options=pims.options,
        )
    if case == "crash":
        crash = build_crash()
        return Sosae(
            crash.scenarios,
            crash.architecture,
            crash.mapping,
            walkthrough_options=crash.options,
        )
    seed = int(case.removeprefix("generated-"))
    system = build_synthetic(SyntheticSpec(scenarios=30, seed=seed))
    return Sosae(system.scenarios, system.architecture, system.mapping)


CASES = ["pims", "pims-excised", "pims-x40", "crash"] + [
    f"generated-{seed}" for seed in range(10)
]


def _connectivity_checks(verdict, options) -> int:
    """The connectivity checks a walk of ``verdict`` made, recounted
    from its steps: one per inter-event move between disjoint
    component groups (a move that failed, or whose witness path has
    more than one element), and one per chain pair checked, up to and
    including the first broken pair."""
    checks = 0
    for trace in verdict.traces:
        previous = None
        for step in trace.steps:
            tops = step.components
            if not tops:
                continue
            moved = True
            if options.check_inter_event and previous:
                if step.path is None:
                    checks += 1
                    moved = False
                elif len(step.path) > 1:
                    checks += 1
            if moved and options.check_intra_event_chain and len(tops) > 1:
                pairs = list(zip(tops, tops[1:]))
                if step.note.startswith("no path within event"):
                    source, target = (
                        step.note.split(" from ", 1)[1].strip("'").split("' to '")
                    )
                    checks += pairs.index((source, target)) + 1
                else:
                    checks += len(pairs)
            previous = tops
    return checks


def _observed(case: str):
    sosae = _pipeline(case)
    recorder = Recorder()
    with instrumented(recorder=recorder):
        report = sosae.evaluate()
    spans = [
        span
        for root in recorder.roots
        for span in root.iter_spans()
        if span.name == "walkthrough.scenario"
    ]
    return sosae, report, recorder, spans


@pytest.mark.parametrize("case", CASES)
def test_cost_attributes_match_the_verdicts(case):
    sosae, report, recorder, spans = _observed(case)
    verdicts = {verdict.scenario: verdict for verdict in report.scenario_verdicts}
    assert len(spans) == len(verdicts)
    options = sosae.engine.options
    for span in spans:
        verdict = verdicts[span.attributes["scenario"]]
        steps = [step for trace in verdict.traces for step in trace.steps]
        assert span.attributes["cost.steps"] == len(steps)
        assert span.attributes["cost.failing_steps"] == sum(
            1 for step in steps if not step.ok
        )
        assert span.attributes["cost.findings"] == len(
            verdict.all_inconsistencies()
        )
        assert span.attributes["cost.index_queries"] == _connectivity_checks(
            verdict, options
        )
    assert sum(span.attributes["cost.steps"] for span in spans) == (
        recorder.metrics.value("walkthrough.steps")
    )


@pytest.mark.parametrize("case", CASES)
def test_scenario_costs_match_a_local_recount(case):
    sosae, report, _, spans = _observed(case)
    bfs = {span.attributes["scenario"]: span for span in spans}
    expected = {}
    for verdict in report.scenario_verdicts:
        steps = [step for trace in verdict.traces for step in trace.steps]
        expected[verdict.scenario] = {
            "walks": 1,
            "traces": len(verdict.traces),
            "shard": 0,
            "steps": len(steps),
            "index_queries": _connectivity_checks(
                verdict, sosae.engine.options
            ),
            "bfs_expansions": bfs[verdict.scenario].attributes[
                "cost.bfs_expansions"
            ],
            "findings": len(verdict.all_inconsistencies()),
        }
    costs = scenario_costs(spans)
    assert list(costs) == list(expected)
    for name, entry in costs.items():
        assert entry.pop("wall_seconds") >= 0
        assert entry.pop("cpu_seconds") >= 0
        assert entry == expected[name], name


def test_a_failing_pims_scenario_costs_what_it_found():
    _, _, _, spans = _observed("pims-x40")
    failed = [
        span for span in spans if span.attributes["cost.failing_steps"]
    ]
    assert len(failed) == 40
    assert {span.attributes["cost.findings"] for span in failed} == {1}
    assert all(
        span.attributes["scenario"].startswith("get-share-prices")
        for span in failed
    )


class TestWalkErrors:
    @pytest.fixture
    def engine(self):
        pims = build_pims()
        return pims, WalkthroughEngine(
            pims.architecture, pims.mapping, pims.options
        )

    @pytest.mark.parametrize(
        "error", [RuntimeError, KeyboardInterrupt], ids=lambda e: e.__name__
    )
    def test_a_raising_walk_closes_its_span(self, engine, monkeypatch, error):
        pims, engine = engine
        scenario = pims.scenarios.get("get-share-prices")

        def broken(*args, **kwargs):
            raise error("walk interrupted")

        recorder = Recorder()
        with instrumented(recorder=recorder):
            with monkeypatch.context() as patch:
                patch.setattr(engine, "_walk_typed_event", broken)
                with pytest.raises(error):
                    engine.walk_scenario(scenario, pims.scenarios)
            assert recorder.spans.current_span() is None
            assert engine._table is None
            # The stack was popped: the next walk opens a new root.
            verdict = engine.walk_scenario(scenario, pims.scenarios)
        first, second = recorder.roots
        assert first.name == "walkthrough.scenario"
        assert first.attributes["error"] == error.__name__
        assert first.end_wall >= first.start_wall > 0
        assert first.end_cpu >= first.start_cpu
        assert not any(key.startswith("cost.") for key in first.attributes)
        assert "error" not in second.attributes
        assert second.attributes["cost.steps"] == 4
        assert verdict.passed

    def test_nested_scopes_unwind_one_level_per_exception(self):
        recorder = Recorder()
        with recorder.span("outer") as outer:
            with pytest.raises(KeyboardInterrupt):
                with recorder.span("inner", step=1):
                    raise KeyboardInterrupt
            assert recorder.spans.current_span() is outer
            with recorder.span("after"):
                pass
        assert recorder.spans.current_span() is None
        (root,) = recorder.roots
        inner, after = root.children
        assert inner.attributes == {"step": 1, "error": "KeyboardInterrupt"}
        assert "error" not in root.attributes and "error" not in after.attributes
        assert [span.span_id for span in root.iter_spans()] == [
            f"s0.{serial}" for serial in (1, 2, 3)
        ]
        assert inner.parent_id == after.parent_id == root.span_id
