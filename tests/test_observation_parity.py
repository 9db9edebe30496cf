"""What observing an evaluation leaves behind: the span forest and the
event stream, pinned.

The walk records one row per scenario and the scenario spans,
histogram samples and scenario events are built from the rows after
the walk; these tests hold that to what the pipeline observed when
every scenario opened its own span and emitted its own events. Each
case pins, as a digest of a canonical form:

* the span forest: each span's name, id, parent id and attributes, in
  preorder, attributes in insertion order (no span attribute times
  the run);
* the event stream: each event's ``seq``, kind and payload, without
  ``timestamp`` and ``wall_seconds``.

The one intended difference from the per-scenario design is a negative
scenario's ``scenario-finished``: it reports the verdict (passed when
the architecture blocks the scenario, and the verdict's findings), not
the raw walk.

A sharded walk's workers return their rows and the parent observes
them in the same pass, so a sharded evaluation leaves the serial one's
stream and forest, bar the ``workers`` attribute. The worker counts
tried honour ``SOSAE_PARITY_WORKERS`` (comma-separated; default 1, 2
and 4).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
from dataclasses import fields

import pytest

from repro.core.evaluator import Sosae
from repro.core.incremental import DependencyTracker, reevaluate
from repro.obs import EventBus, Recorder, instrumented
from repro.scenarioml.scenario import ScenarioSet
from repro.shard import BatchEvaluator
from repro.systems.crash import build_crash, build_crash_mapping
from repro.systems.pims import build_pims, excise_data_access_loader_link

#: Event fields that time the run rather than describe it.
_TIMING_FIELDS = frozenset({"timestamp", "wall_seconds"})


def _forest(roots) -> list:
    """Every span, preorder: name, ids and attributes in order."""
    spans = []
    stack = list(reversed(roots))
    while stack:
        span = stack.pop()
        spans.append(
            [span.name, span.span_id, span.parent_id,
             list(span.attributes.items())]
        )
        stack.extend(reversed(span.children))
    return spans


def _stream(events) -> list:
    """Every event: kind and payload with ``seq``, without timings."""
    return [
        [
            event.kind,
            {
                spec.name: getattr(event, spec.name)
                for spec in fields(event)
                if spec.name not in _TIMING_FIELDS
            },
        ]
        for event in events
    ]


def _digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _observed(run, **bus_options) -> tuple[Recorder, EventBus]:
    """Run ``run`` under a live recorder and event bus."""
    recorder = Recorder()
    bus = EventBus(capacity=1 << 14, **bus_options)
    with instrumented(recorder=recorder, events=bus):
        run()
    return recorder, bus


def _worker_counts() -> tuple[int, ...]:
    raw = os.environ.get("SOSAE_PARITY_WORKERS", "1,2,4")
    return tuple(int(part) for part in raw.split(",") if part.strip())


def _walk_counters(recorder: Recorder) -> dict:
    metrics = recorder.metrics.to_dict()
    return {
        name: metrics[name]
        for name in metrics
        if name.startswith("walkthrough.")
        and metrics[name]["type"] == "counter"
    }


def _pins(recorder: Recorder, bus: EventBus) -> dict:
    spans, stream = _forest(recorder.roots), _stream(bus.events())
    return {
        "spans": (len(spans), _digest(spans)),
        "events": (len(stream), _digest(stream)),
    }


def _pims_sosae(
    copies: int = 1, seed: int = 0, excised: bool = True
) -> Sosae:
    """PIMS (excised by default) with constraints; ``copies > 1`` adds
    renamed replicas of every top-level scenario, shuffled by ``seed``
    (the ``serve_pims_x40`` pipeline at 40)."""
    pims = build_pims()
    architecture = (
        pims.excised_architecture() if excised else pims.architecture
    )
    scenarios = pims.scenarios
    if copies > 1:
        replicas = list(pims.scenarios)
        for index in range(1, copies):
            replicas.extend(
                dataclasses.replace(scenario, name=f"{scenario.name}+r{index}")
                for scenario in pims.scenarios
                if scenario.alternative_of is None
            )
        random.Random(seed).shuffle(replicas)
        scenarios = ScenarioSet(pims.ontology, name=f"pims-x{copies}")
        scenarios.extend(replicas)
    return Sosae(
        scenarios,
        architecture,
        pims.mapping.rebind(architecture),
        constraints=pims.constraints,
        walkthrough_options=pims.options,
    )


def _crash_sosae(insecure: bool = False) -> Sosae:
    """CRASH, or its insecure variant, which admits the negative
    scenario."""
    crash = build_crash()
    if not insecure:
        return Sosae(
            crash.scenarios,
            crash.architecture,
            crash.mapping,
            walkthrough_options=crash.options,
        )
    architecture = crash.insecure_architecture()
    return Sosae(
        crash.scenarios,
        architecture,
        build_crash_mapping(crash.ontology, architecture),
        walkthrough_options=crash.options,
    )


def _negative_finished(bus: EventBus) -> list:
    return [
        event
        for event in bus.events()
        if event.kind == "scenario-finished"
        and event.scenario == "unauthorized-network-access"
    ]


def _pairs_are_adjacent(events) -> None:
    """Each scenario-finished directly follows its scenario-started."""
    for previous, event in zip(events, events[1:]):
        if event.kind == "scenario-finished":
            assert previous.kind == "scenario-started"
            assert previous.scenario == event.scenario
            assert event.seq == previous.seq + 1


class TestEvaluations:
    def test_pims_excised(self):
        recorder, bus = _observed(_pims_sosae().evaluate)
        assert _pins(recorder, bus) == {
            "spans": (22, "08e238629942e379"),
            "events": (47, "cef75ea12de17293"),
        }
        _pairs_are_adjacent(bus.events())

    def test_pims_x40_seed_3(self):
        recorder, bus = _observed(_pims_sosae(copies=40, seed=3).evaluate)
        assert _pins(recorder, bus) == {
            "spans": (568, "8b93028a6aa49b05"),
            "events": (1178, "26aebabe6d70b157"),
        }
        (root,) = recorder.roots
        walk = next(
            span for span in root.children
            if span.name == "evaluate.walkthrough"
        )
        assert len(walk.children) == 562
        previous_end = walk.start_wall
        for span in walk.children:
            assert span.name == "walkthrough.scenario"
            assert previous_end <= span.start_wall <= span.end_wall
            previous_end = span.end_wall
        assert previous_end <= walk.end_wall
        _pairs_are_adjacent(bus.events())

    def test_crash_intact(self):
        """Pinned with the negative scenario's scenario-finished
        payload masked: that payload is the one intended change."""
        recorder, bus = _observed(_crash_sosae().evaluate)
        stream = _stream(bus.events())
        for kind, payload in stream:
            if (
                kind == "scenario-finished"
                and payload["scenario"] == "unauthorized-network-access"
            ):
                payload["passed"] = payload["findings"] = None
        spans = _forest(recorder.roots)
        assert (len(spans), _digest(spans)) == (12, "f46bf89bdd9b8d5d")
        assert (len(stream), _digest(stream)) == (27, "a86f4771a3b762ae")

    def test_incremental_reevaluation_carries_verdicts(self):
        pims = build_pims()
        sosae = _pims_sosae(copies=4, excised=False)
        tracker = DependencyTracker.from_report(
            sosae.evaluate(), sosae.architecture, sosae.mapping, pims.options
        )
        excised = excise_data_access_loader_link(sosae.architecture)
        edited = Sosae(
            sosae.scenario_set,
            excised,
            sosae.mapping.rebind(excised),
            constraints=pims.constraints,
            walkthrough_options=pims.options,
        )
        results = []
        recorder, bus = _observed(
            lambda: results.append(reevaluate(tracker, edited))
        )
        (result,) = results
        assert result.carried_over and result.rewalked
        assert _pins(recorder, bus) == {
            "spans": (10, "967f2fe69006202b"),
            "events": (26, "07357c0d20d3766e"),
        }
        walked = [
            event.scenario for event in bus.events()
            if event.kind == "scenario-started"
        ]
        assert walked == list(result.rewalked)


class TestNegativeScenarios:
    @pytest.mark.parametrize("insecure", [False, True],
                             ids=["blocked", "admitted"])
    def test_scenario_finished_reports_the_verdict(self, insecure):
        sosae = _crash_sosae(insecure)
        reports = []
        _, bus = _observed(lambda: reports.append(sosae.evaluate()))
        (verdict,) = [
            verdict for verdict in reports[0].scenario_verdicts
            if verdict.scenario == "unauthorized-network-access"
        ]
        (finished,) = _negative_finished(bus)
        assert verdict.passed is finished.passed is not insecure
        assert finished.findings == len(verdict.all_inconsistencies())
        following = bus.events()[finished.seq:][:finished.findings]
        assert [event.kind for event in following] == (
            ["finding-emitted"] * finished.findings
        )

    def test_sharded_scenario_finished_reports_the_verdict(self):
        sosae = _crash_sosae()
        reports = []
        with BatchEvaluator(workers=2) as batch:
            _, bus = _observed(
                lambda: reports.append(batch.evaluate(sosae))
            )
        (verdict,) = [
            verdict for verdict in reports[0].scenario_verdicts
            if verdict.scenario == "unauthorized-network-access"
        ]
        (finished,) = _negative_finished(bus)
        assert verdict.passed and finished.passed
        assert finished.findings == len(verdict.all_inconsistencies())
        _pairs_are_adjacent(bus.events())


class TestShardedWalk:
    @pytest.mark.parametrize("workers", _worker_counts())
    @pytest.mark.parametrize(
        "build",
        [
            lambda: _pims_sosae(copies=40, seed=3),
            lambda: _crash_sosae(insecure=True),
        ],
        ids=["pims_x40_seed_3", "crash_insecure"],
    )
    def test_observed_as_the_serial_walk(self, build, workers):
        serial_recorder, serial_bus = _observed(build().evaluate)
        sosae = build()
        with BatchEvaluator(workers=workers) as batch:
            recorder, bus = _observed(lambda: batch.evaluate(sosae))
        assert _stream(bus.events()) == _stream(serial_bus.events())
        forest = _forest(recorder.roots)
        for span in forest:
            span[3] = [item for item in span[3] if item[0] != "workers"]
        assert forest == _forest(serial_recorder.roots)
        assert _walk_counters(recorder) == _walk_counters(serial_recorder)
        # Each scenario span sits on its shard's lane, shards in order.
        shards = [
            span.shard
            for root in recorder.roots
            for span in root.iter_spans()
            if span.name == "walkthrough.scenario"
        ]
        count = len(batch.last_shard_stats)
        assert shards == sorted(shards)
        assert set(shards) == set(range(1, count + 1))

    def test_graph_builds_across_evaluations_are_the_serial_walks(self):
        # Evaluated again, a pipeline counts no graph build, as its warm
        # index would in one process; after a structural edit it counts
        # the rebuild. A new pool for each evaluation makes every worker
        # build and report the graph again.
        def builds(evaluate) -> list:
            sosae = _crash_sosae(insecure=True)
            counted = []
            for tick in range(3):
                if tick == 2:
                    sosae.architecture.add_component("Spare")
                recorder, _ = _observed(lambda: evaluate(sosae))
                counted.append([
                    span.attributes["cost.bfs_expansions"]
                    for root in recorder.roots
                    for span in root.iter_spans()
                    if span.name == "walkthrough.scenario"
                ])
            return counted

        def sharded(sosae):
            with BatchEvaluator(workers=2) as batch:
                return batch.evaluate(sosae)

        serial = builds(lambda sosae: sosae.evaluate())
        assert [sum(tick) for tick in serial] == [1, 0, 1]
        assert builds(sharded) == serial


class TestOutsideEvaluate:
    def test_walk_all_records_root_spans_and_pairs(self):
        sosae = _pims_sosae()
        recorder, bus = _observed(
            lambda: sosae.engine.walk_all(sosae.scenario_set)
        )
        assert _pins(recorder, bus) == {
            "spans": (16, "899bed53cfd959b9"),
            "events": (32, "5c04dea00165bc6d"),
        }
        assert all(span.parent_id is None for span in recorder.roots)
        _pairs_are_adjacent(bus.events())

    def test_walk_all_inside_a_span_nests_under_it(self):
        sosae = _pims_sosae()
        recorder = Recorder()
        with instrumented(recorder=recorder):
            with recorder.span("outer"):
                sosae.engine.walk_all(sosae.scenario_set)
        (outer,) = recorder.roots
        assert [span.name for span in outer.children] == (
            ["walkthrough.scenario"] * 16
        )
        assert {span.parent_id for span in outer.children} == {
            outer.span_id
        }


class TestBus:
    def test_a_long_walk_keeps_the_heartbeats_going(self):
        # The clock moves one tick per reading, so every pulse and
        # emission is a tick of work; a beat is due every third.
        ticks = iter(range(1, 1 << 20))
        recorder, bus = _observed(
            _pims_sosae(copies=4).evaluate,
            heartbeat_interval=3.0,
            clock=lambda: float(next(ticks)),
        )
        events = bus.events()
        kinds = [event.kind for event in events]
        walk_start = next(
            position
            for position, event in enumerate(events)
            if event.kind == "stage-started" and event.stage == "walkthrough"
        )
        first_scenario = kinds.index("scenario-started")
        # The scenarios' events wait for the end of the walk; the walk's
        # heartbeats fall while it runs, one every third scenario.
        walked = kinds.count("scenario-started")
        assert kinds[walk_start + 1:first_scenario].count("heartbeat") >= (
            walked // 3 - 1
        )
        assert set(kinds[walk_start + 1:first_scenario]) == {"heartbeat"}
        beats = [event.beat for event in events if event.kind == "heartbeat"]
        assert beats == list(range(1, len(beats) + 1))
        # Apart from the heartbeats and their seq, the stream is the one
        # a bus without heartbeats carries.
        plain_recorder, plain_bus = _observed(_pims_sosae(copies=4).evaluate)
        unstamped = [
            [kind, {k: v for k, v in payload.items() if k != "seq"}]
            for kind, payload in _stream(events)
            if kind != "heartbeat"
        ]
        assert unstamped == [
            [kind, {k: v for k, v in payload.items() if k != "seq"}]
            for kind, payload in _stream(plain_bus.events())
        ]
        assert _pins(recorder, bus)["spans"] == (64, "100e784d152580fb")
        assert _pins(plain_recorder, plain_bus)["spans"] == (
            64, "100e784d152580fb"
        )

    def test_a_live_subscriber_sees_the_buffered_order(self):
        seen = []
        bus = EventBus(capacity=1 << 14)
        bus.subscribe(seen.append)
        with instrumented(recorder=Recorder(), events=bus):
            _pims_sosae(copies=4).evaluate()
        buffered = bus.events()
        assert len(seen) == len(buffered)
        assert all(a is b for a, b in zip(seen, buffered))
        assert [event.seq for event in seen] == list(
            range(1, len(seen) + 1)
        )
