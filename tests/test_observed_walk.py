"""What an evaluation costs the observation layer and the communication
index: one fingerprint check per evaluation, and one span per walked
scenario plus a fixed number per pipeline, never one per step."""

from __future__ import annotations

import contextlib
import dataclasses

import pytest

import repro.adl.index as index_module
from repro.core.evaluator import Sosae
from repro.obs import EventBus, Recorder, instrumented
from repro.scenarioml.scenario import ScenarioSet
from repro.systems.pims import DATA_BUS, LOADER

#: The spans an evaluation records besides one per walked scenario:
#: ``evaluate`` and its five stage spans.
PIPELINE_SPANS = 6


def _sosae(pims, architecture, scenarios=None) -> Sosae:
    return Sosae(
        scenarios or pims.scenarios,
        architecture,
        pims.mapping.rebind(architecture),
        constraints=pims.constraints,
        walkthrough_options=pims.options,
    )


def _observed(observe: bool, recorder: Recorder):
    """The recorder and an event bus both installed, or neither."""
    if not observe:
        return contextlib.nullcontext()
    return instrumented(recorder=recorder, events=EventBus())


@pytest.fixture()
def fingerprints(monkeypatch):
    """Count calls of the index's structural fingerprint."""
    calls = []
    original = index_module.structural_fingerprint

    def counting(architecture):
        calls.append(architecture)
        return original(architecture)

    monkeypatch.setattr(index_module, "structural_fingerprint", counting)
    return calls


class TestOnePinPerEvaluation:
    @pytest.mark.parametrize("observe", [False, True])
    def test_warm_evaluation_fingerprints_once(
        self, pims, fingerprints, observe
    ):
        sosae = _sosae(pims, pims.excised_architecture())
        sosae.evaluate()
        fingerprints.clear()
        with _observed(observe, Recorder()):
            report = sosae.evaluate()
        assert len(fingerprints) == 1
        assert not report.consistent

    @pytest.mark.parametrize("observe", [False, True])
    def test_mutation_between_evaluations_is_seen(
        self, pims, fingerprints, observe
    ):
        architecture = pims.architecture.clone("pims-mutated")
        sosae = _sosae(pims, architecture)
        assert sosae.evaluate().consistent
        assert architecture.excise_links_between(LOADER, DATA_BUS)
        recorder = Recorder()
        invalidations = sosae.index.stats().invalidations
        fingerprints.clear()
        with _observed(observe, recorder):
            report = sosae.evaluate()
        assert len(fingerprints) == 1
        assert sosae.index.stats().invalidations == invalidations + 1
        if observe:
            assert recorder.metrics.value("index.invalidations") == 1
        excised = _sosae(pims, pims.excised_architecture()).evaluate()
        assert report.scenario_verdicts == excised.scenario_verdicts
        assert report.findings == excised.findings


class TestSpanBudget:
    def test_one_span_per_scenario_plus_the_pipeline(self, pims):
        scenarios = list(pims.scenarios)
        for replica in range(1, 40):
            scenarios.extend(
                dataclasses.replace(scenario, name=f"{scenario.name}+r{replica}")
                for scenario in pims.scenarios
                if scenario.alternative_of is None
            )
        scaled = ScenarioSet(pims.ontology, name="pims-x40")
        scaled.extend(scenarios)
        sosae = _sosae(pims, pims.excised_architecture(), scaled)
        recorder = Recorder()
        with instrumented(recorder=recorder, events=EventBus()):
            report = sosae.evaluate()
        spans = [span for root in recorder.roots for span in root.iter_spans()]
        assert len(spans) == len(scaled.scenarios) + PIPELINE_SPANS
        assert recorder.metrics.value("walkthrough.steps") > len(spans)
        failing = sum(
            1
            for verdict in report.scenario_verdicts
            for trace in verdict.traces
            for step in trace.steps
            if not step.ok
        )
        assert failing > 0
        assert failing == sum(
            span.attributes.get("cost.failing_steps", 0) for span in spans
        )
