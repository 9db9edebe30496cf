"""Tests for the telemetry event bus, sinks, and pipeline emission."""

from __future__ import annotations

import io
import json
import sys
import threading

import pytest

from repro.core.evaluator import Sosae
from repro.errors import ReproError
from repro.obs import (
    EVENT_TYPES,
    NULL_EVENT_BUS,
    AlertEngine,
    AlertFired,
    AlertResolved,
    AlertRule,
    CoverageComputed,
    EvaluationFinished,
    EvaluationStarted,
    EventBus,
    FindingEmitted,
    Heartbeat,
    JobFinished,
    JobRejected,
    JobStarted,
    JobSubmitted,
    JsonlSink,
    NullEventBus,
    RunRecorded,
    Recorder,
    RunRegistry,
    ScenarioFinished,
    ScenarioStarted,
    SimMessageFate,
    StageFinished,
    StageStarted,
    current_instruments,
    event_from_dict,
    events_from_jsonl,
    format_event,
    instrumented,
    read_events,
    use,
    use_events,
)
from repro.obs.events import event_severity


def _sample(cls):
    """A representative, fully populated instance of an event type."""
    samples = {
        EvaluationStarted: EvaluationStarted(
            architecture="arch", scenario_set="set", scenarios=3
        ),
        EvaluationFinished: EvaluationFinished(
            consistent=False,
            findings=2,
            scenarios_passed=1,
            scenarios_failed=2,
            wall_seconds=0.5,
        ),
        StageStarted: StageStarted(stage="walkthrough"),
        StageFinished: StageFinished(
            stage="walkthrough", wall_seconds=0.25, findings=1
        ),
        ScenarioStarted: ScenarioStarted(
            scenario="save", negative=True, traces=2
        ),
        ScenarioFinished: ScenarioFinished(
            scenario="save", passed=False, findings=1, wall_seconds=0.1
        ),
        FindingEmitted: FindingEmitted(
            finding_id="ab12cd34ef",
            finding_kind="missing-link",
            severity="error",
            scenario="save",
            event_label="e2",
            message="no path",
        ),
        SimMessageFate: SimMessageFate(
            fate="dropped", element="Loader", message="save", detail="ttl"
        ),
        Heartbeat: Heartbeat(beat=2, metrics={"x": {"value": 1}}),
        RunRecorded: RunRecorded(run_id="r0001", label="demo"),
        AlertFired: AlertFired(
            rule="too-many-findings",
            metric="findings",
            severity="critical",
            value=7.0,
            threshold=3.0,
            message="findings > 3",
        ),
        AlertResolved: AlertResolved(
            rule="too-many-findings",
            metric="findings",
            severity="critical",
            value=1.0,
        ),
        JobSubmitted: JobSubmitted(
            job_id="j0001",
            tenant="acme",
            label="nightly",
            spec_digest="ab12cd34ef567890",
        ),
        JobStarted: JobStarted(
            job_id="j0001", tenant="acme", queued_seconds=0.02
        ),
        JobFinished: JobFinished(
            job_id="j0001",
            tenant="acme",
            state="done",
            run_id="r0001",
            consistent=False,
            findings=2,
            wall_seconds=0.4,
        ),
        JobRejected: JobRejected(
            job_id="j0002",
            tenant="acme",
            reason="quota",
            detail="2 jobs already in flight",
        ),
        CoverageComputed: CoverageComputed(
            components_exercised=3,
            components_total=4,
            links_covered=2,
            links_total=4,
            event_types_used=2,
            event_types_total=3,
            dead_mappings=1,
            digest="ab12cd34ef567890",
        ),
    }
    return samples[cls]


class TestEventTypes:
    def test_every_type_round_trips_through_json(self):
        for cls in EVENT_TYPES:
            event = _sample(cls)
            line = json.dumps(event.to_dict(), sort_keys=True)
            restored = event_from_dict(json.loads(line))
            assert restored == event
            assert type(restored) is cls

    def test_kinds_are_unique_and_nonempty(self):
        kinds = [cls.kind for cls in EVENT_TYPES]
        assert all(kinds)
        assert len(set(kinds)) == len(kinds)

    def test_unknown_kind_is_an_error(self):
        with pytest.raises(ReproError, match="unknown telemetry event"):
            event_from_dict({"kind": "nonsense"})
        with pytest.raises(ReproError, match="must be an object"):
            event_from_dict(["not", "a", "dict"])

    def test_unknown_fields_are_tolerated(self):
        data = _sample(StageStarted).to_dict()
        data["added_in_a_future_version"] = True
        assert event_from_dict(data) == _sample(StageStarted)

    def test_summaries_are_human_text(self):
        for cls in EVENT_TYPES:
            summary = _sample(cls).summary()
            assert summary and "object at 0x" not in summary

    def test_severity_classification(self):
        assert event_severity(_sample(FindingEmitted)) == "error"
        assert event_severity(_sample(EvaluationFinished)) == "warning"
        assert (
            event_severity(EvaluationFinished(consistent=True)) == "info"
        )
        assert event_severity(_sample(SimMessageFate)) == "warning"
        assert (
            event_severity(SimMessageFate(fate="delivered")) == "debug"
        )
        assert event_severity(_sample(Heartbeat)) == "debug"
        assert event_severity(_sample(AlertFired)) == "error"
        assert (
            event_severity(
                AlertFired(rule="r", metric="m", severity="warning")
            )
            == "warning"
        )
        assert event_severity(_sample(AlertResolved)) == "info"

    def test_format_event_offsets_from_base(self):
        event = StageStarted(stage="coverage", seq=4, timestamp=12.5)
        line = format_event(event, base=12.0)
        assert "+" in line and "0.5" in line
        assert "stage-started" in line and "coverage" in line


class TestEventBus:
    def test_subscribers_run_in_subscription_order(self):
        bus = EventBus()
        calls = []
        bus.subscribe(lambda event: calls.append(("first", event.seq)))
        bus.subscribe(lambda event: calls.append(("second", event.seq)))
        bus.emit(StageStarted(stage="a"))
        bus.emit(StageStarted(stage="b"))
        assert calls == [
            ("first", 1), ("second", 1), ("first", 2), ("second", 2),
        ]

    def test_unsubscribe_stops_delivery(self):
        bus = EventBus()
        calls = []
        unsubscribe = bus.subscribe(calls.append)
        bus.emit(StageStarted(stage="a"))
        unsubscribe()
        unsubscribe()  # idempotent
        bus.emit(StageStarted(stage="b"))
        assert [event.stage for event in calls] == ["a"]

    def test_emission_stamps_seq_and_timestamp(self):
        clock = [100.0]
        bus = EventBus(wall_clock=lambda: clock[0])
        bus.emit(StageStarted(stage="a"))
        clock[0] = 101.0
        bus.emit(StageStarted(stage="b"))
        first, second = bus.events()
        assert (first.seq, second.seq) == (1, 2)
        assert (first.timestamp, second.timestamp) == (100.0, 101.0)

    def test_ring_buffer_evicts_oldest_at_capacity(self):
        bus = EventBus(capacity=3)
        seen = []
        bus.subscribe(seen.append)
        for index in range(5):
            bus.emit(StageStarted(stage=f"s{index}"))
        assert [event.stage for event in bus.events()] == ["s2", "s3", "s4"]
        # Subscribers still saw every event, eviction is buffer-only.
        assert [event.stage for event in seen] == [
            "s0", "s1", "s2", "s3", "s4",
        ]

    def test_invalid_configuration_is_rejected(self):
        with pytest.raises(ReproError, match="capacity"):
            EventBus(capacity=0)
        with pytest.raises(ReproError, match="heartbeat"):
            EventBus(heartbeat_interval=0.0)

    def test_heartbeat_cadence_follows_the_clock(self):
        clock = [0.0]
        bus = EventBus(
            heartbeat_interval=1.0,
            metrics_source=lambda: {"m": 1},
            clock=lambda: clock[0],
        )
        bus.emit(StageStarted(stage="opens the window"))
        clock[0] = 0.5
        bus.emit(StageStarted(stage="too soon"))
        assert not any(
            isinstance(event, Heartbeat) for event in bus.events()
        )
        clock[0] = 1.5
        bus.emit(StageStarted(stage="past the interval"))
        beats = [e for e in bus.events() if isinstance(e, Heartbeat)]
        assert len(beats) == 1
        assert beats[0].beat == 1
        assert beats[0].metrics == {"m": 1}
        # The heartbeat itself must not retrigger heartbeats; the next
        # one needs another full interval.
        clock[0] = 1.9
        bus.emit(StageStarted(stage="within the new window"))
        assert sum(
            isinstance(event, Heartbeat) for event in bus.events()
        ) == 1
        clock[0] = 2.6
        bus.emit(StageStarted(stage="next window"))
        beats = [e for e in bus.events() if isinstance(e, Heartbeat)]
        assert [beat.beat for beat in beats] == [1, 2]

    def test_no_heartbeats_without_interval(self):
        bus = EventBus()
        for _ in range(10):
            bus.emit(StageStarted(stage="s"))
        assert not any(
            isinstance(event, Heartbeat) for event in bus.events()
        )


class TestCurrentBus:
    def test_null_bus_is_the_default_and_inert(self):
        assert current_instruments().events is NULL_EVENT_BUS
        assert not NULL_EVENT_BUS.enabled
        NULL_EVENT_BUS.emit(StageStarted(stage="ignored"))
        assert NULL_EVENT_BUS.events() == ()
        unsubscribe = NULL_EVENT_BUS.subscribe(lambda event: None)
        unsubscribe()
        assert isinstance(NULL_EVENT_BUS, NullEventBus)

    def test_use_events_scopes_and_restores(self):
        bus = EventBus()
        with use_events(bus) as active:
            assert active is bus
            assert current_instruments().events is bus
        assert current_instruments().events is NULL_EVENT_BUS

    def test_use_events_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with use_events(EventBus()):
                raise RuntimeError("boom")
        assert current_instruments().events is NULL_EVENT_BUS


class TestJsonlSink:
    def test_writes_one_sorted_json_line_per_event(self, tmp_path):
        path = tmp_path / "events.jsonl"
        bus = EventBus()
        with JsonlSink(path) as sink:
            bus.subscribe(sink)
            bus.emit(StageStarted(stage="a"))
            bus.emit(StageFinished(stage="a", wall_seconds=0.1))
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            data = json.loads(line)
            assert list(data) == sorted(data)
        restored = read_events(path)
        assert [event.kind for event in restored] == [
            "stage-started", "stage-finished",
        ]

    def test_flushes_when_the_evaluation_finishes(self):
        handle = io.StringIO()
        flushes = []
        handle.flush = lambda: flushes.append(len(handle.getvalue()))
        sink = JsonlSink(handle)
        bus = EventBus()
        bus.subscribe(sink)
        bus.emit(StageStarted(stage="a"))
        assert flushes == []
        bus.emit(EvaluationFinished(consistent=True))
        assert len(flushes) == 1
        # Everything written so far was visible at the flush point.
        assert flushes[0] == len(handle.getvalue())

    def test_flush_every_flushes_on_a_cadence(self):
        handle = io.StringIO()
        flushes = []
        handle.flush = lambda: flushes.append(len(handle.getvalue()))
        sink = JsonlSink(handle, flush_every=3)
        for index in range(7):
            sink(StageStarted(stage=f"s{index}"))
        # Flushed after events 3 and 6; the seventh is still buffered.
        assert len(flushes) == 2

    def test_flush_every_one_flushes_every_event(self):
        handle = io.StringIO()
        flushes = []
        handle.flush = lambda: flushes.append(True)
        sink = JsonlSink(handle, flush_every=1)
        sink(StageStarted(stage="a"))
        sink(StageStarted(stage="b"))
        assert len(flushes) == 2

    def test_evaluation_finished_still_flushes_with_cadence(self):
        handle = io.StringIO()
        flushes = []
        handle.flush = lambda: flushes.append(True)
        sink = JsonlSink(handle, flush_every=100)
        sink(StageStarted(stage="a"))
        sink(EvaluationFinished(consistent=True))
        assert len(flushes) == 1

    def test_flush_every_rejects_nonpositive(self):
        with pytest.raises(ReproError, match="flush_every"):
            JsonlSink(io.StringIO(), flush_every=0)

    def test_borrowed_handles_are_not_closed(self):
        handle = io.StringIO()
        sink = JsonlSink(handle)
        sink(StageStarted(stage="a"))
        sink.close()
        assert not handle.closed
        sink(StageStarted(stage="ignored after close"))
        assert len(handle.getvalue().splitlines()) == 1

    def test_events_from_jsonl_rejects_garbage(self):
        with pytest.raises(ReproError, match="line 2"):
            events_from_jsonl(
                '{"kind": "stage-started", "stage": "a"}\nnot json\n'
            )

    def test_blank_lines_are_skipped(self):
        events = events_from_jsonl(
            '\n{"kind": "stage-started", "stage": "a"}\n\n'
        )
        assert len(events) == 1


class TestPipelineEmission:
    @pytest.fixture
    def streamed_evaluation(
        self, small_scenarios, chain_architecture, chain_mapping
    ):
        """A real evaluation with a live bus capturing every event."""
        bus = EventBus(capacity=4096)
        with use_events(bus):
            report = Sosae(
                small_scenarios, chain_architecture, chain_mapping
            ).evaluate()
        return report, bus.events()

    def test_evaluation_brackets_the_stream(self, streamed_evaluation):
        report, events = streamed_evaluation
        assert isinstance(events[0], EvaluationStarted)
        assert isinstance(events[-1], EvaluationFinished)
        finished = events[-1]
        assert finished.consistent == report.consistent
        assert finished.findings == len(report.all_inconsistencies())
        assert finished.scenarios_passed == len(report.passed_scenarios)
        assert finished.scenarios_failed == len(report.failed_scenarios)
        assert finished.wall_seconds > 0

    def test_stages_come_in_started_finished_pairs(self, streamed_evaluation):
        _, events = streamed_evaluation
        started = [e.stage for e in events if isinstance(e, StageStarted)]
        finished = [e.stage for e in events if isinstance(e, StageFinished)]
        assert started == finished
        assert "validation" in started and "walkthrough" in started

    def test_each_scenario_is_bracketed(self, streamed_evaluation):
        report, events = streamed_evaluation
        started = [
            e.scenario for e in events if isinstance(e, ScenarioStarted)
        ]
        finished = [
            e.scenario for e in events if isinstance(e, ScenarioFinished)
        ]
        assert started == finished
        assert len(started) == len(report.scenario_verdicts)

    def test_findings_stream_with_their_ids(
        self, small_scenarios, chain_architecture, chain_mapping
    ):
        chain_architecture.excise_links_between("logic", "logic-store")
        bus = EventBus(capacity=4096)
        with use_events(bus):
            report = Sosae(
                small_scenarios, chain_architecture, chain_mapping
            ).evaluate()
        assert not report.consistent
        streamed = {
            event.finding_id
            for event in bus.events()
            if isinstance(event, FindingEmitted)
        }
        expected = {
            finding.finding_id
            for finding in report.all_inconsistencies()
        }
        assert streamed == expected and expected

    def test_report_is_identical_with_and_without_bus(
        self, small_scenarios, chain_architecture, chain_mapping
    ):
        silent = Sosae(
            small_scenarios, chain_architecture, chain_mapping
        ).evaluate()
        with use_events(EventBus()):
            streamed = Sosae(
                small_scenarios, chain_architecture, chain_mapping
            ).evaluate()
        assert silent == streamed

    def test_run_registry_emits_run_recorded(
        self, tmp_path, small_scenarios, chain_architecture, chain_mapping
    ):
        recorder = Recorder()
        bus = EventBus()
        with use(recorder), use_events(bus):
            report = Sosae(
                small_scenarios, chain_architecture, chain_mapping
            ).evaluate()
            RunRegistry(tmp_path / "runs").record("demo", report, recorder)
        recorded = [
            event for event in bus.events() if isinstance(event, RunRecorded)
        ]
        assert [event.run_id for event in recorded] == ["r0001"]
        assert recorded[0].label == "demo"


#: The excised PIMS scenarios in walk order: (name, traces, findings).
_PIMS_SCENARIOS = (
    ("create-portfolio", 1, 0),
    ("create-portfolio-alt", 1, 0),
    ("get-share-prices", 1, 1),
    ("get-share-prices-alt", 1, 0),
    ("login", 1, 0),
    ("rename-portfolio", 1, 0),
    ("delete-portfolio", 1, 0),
    ("add-investment", 1, 0),
    ("edit-investment", 1, 0),
    ("delete-investment", 1, 0),
    ("compute-net-worth", 1, 0),
    ("compute-rate-of-return", 1, 0),
    ("set-alert", 1, 0),
    ("review-portfolios", 2, 0),
    ("view-investment-value", 1, 0),
    ("exit-and-save", 1, 0),
)


def _pinned_pims_stream() -> list[tuple[str, dict]]:
    """What an observed evaluation of excised PIMS streams: each event's
    kind and payload, without ``seq``, ``timestamp`` and
    ``wall_seconds``."""
    stream: list[tuple[str, dict]] = [
        ("evaluation-started", {
            "architecture": "pims-excised", "scenario_set": "pims",
            "scenarios": 16,
        }),
    ]
    for stage in ("validation", "style_check", "coverage"):
        stream.append(("stage-started", {"stage": stage}))
        stream.append(("stage-finished", {"stage": stage, "findings": 0}))
    stream += [
        ("stage-started", {"stage": "constraints"}),
        ("finding-emitted", {
            "finding_id": "9548a99a28",
            "finding_kind": "constraint-violation",
            "severity": "error",
            "scenario": None,
            "event_label": None,
            "message": (
                "downloaded share prices must reach persistent storage: "
                "no communication path from 'Loader' to 'Data Repository'"
            ),
        }),
        ("stage-finished", {"stage": "constraints", "findings": 1}),
        ("stage-started", {"stage": "walkthrough"}),
    ]
    for name, traces, findings in _PIMS_SCENARIOS:
        stream.append(("scenario-started", {
            "scenario": name, "negative": False, "traces": traces,
        }))
        stream.append(("scenario-finished", {
            "scenario": name, "passed": not findings, "findings": findings,
        }))
        if findings:
            stream.append(("finding-emitted", {
                "finding_id": "cb3ebdcc85",
                "finding_kind": "missing-link",
                "severity": "error",
                "scenario": "get-share-prices",
                "event_label": "4",
                "message": (
                    "event 'saveData' requires data to flow Loader -> "
                    "Data Access -> Data Repository, but 'Loader' cannot "
                    "reach 'Data Access'"
                ),
            }))
    stream += [
        ("stage-finished", {"stage": "walkthrough", "findings": 1}),
        ("coverage-computed", {
            "components_exercised": 12, "components_total": 12,
            "links_covered": 11, "links_total": 21,
            "event_types_used": 19, "event_types_total": 19,
            "dead_mappings": 0, "digest": "11c5148533990edd",
        }),
        ("evaluation-finished", {
            "consistent": False, "findings": 2,
            "scenarios_passed": 15, "scenarios_failed": 1,
        }),
    ]
    return stream


class TestStamping:
    """The bus stamps each event once, in place: the object emitted is
    the object buffered, dispatched and still held by the caller."""

    def test_observed_pims_stream_is_pinned(self, pims):
        architecture = pims.excised_architecture()
        bus = EventBus(capacity=4096)
        with instrumented(recorder=Recorder(), events=bus):
            Sosae(
                pims.scenarios,
                architecture,
                pims.mapping.rebind(architecture),
                constraints=pims.constraints,
                walkthrough_options=pims.options,
            ).evaluate()
        events = bus.events()
        streamed = [
            (
                event.kind,
                {
                    key: value
                    for key, value in event.to_dict().items()
                    if key not in ("kind", "seq", "timestamp", "wall_seconds")
                },
            )
            for event in events
        ]
        assert streamed == _pinned_pims_stream()
        assert [event.seq for event in events] == list(
            range(1, len(events) + 1)
        )
        assert all(event.timestamp > 0 for event in events)

    def test_the_emitted_object_is_the_stamped_one(self):
        clock = [50.0]
        bus = EventBus(wall_clock=lambda: clock[0])
        seen = []
        bus.subscribe(seen.append)
        event = StageStarted(stage="a")
        bus.emit(event)
        assert (event.seq, event.timestamp) == (1, 50.0)
        assert bus.events()[0] is event and seen == [event]

    def test_re_emitting_keeps_the_first_stamp(self):
        clock = [50.0]
        first_bus = EventBus(wall_clock=lambda: clock[0])
        second_bus = EventBus(wall_clock=lambda: clock[0])
        event = StageStarted(stage="a")
        first_bus.emit(event)
        clock[0] = 60.0
        first_bus.emit(event)
        second_bus.emit(event)
        assert (event.seq, event.timestamp) == (1, 50.0)
        again = first_bus.events()[1]
        assert again is not event
        assert (again.seq, again.timestamp, again.stage) == (2, 60.0, "a")
        assert (second_bus.events()[0].seq, second_bus.events()[0].stage) == (
            1, "a",
        )

    def test_alert_transitions_are_the_stamped_events(self):
        clock = [70.0]
        bus = EventBus(wall_clock=lambda: clock[0])
        engine = AlertEngine([
            AlertRule(name="findings", metric="findings", threshold=0),
        ])
        with use_events(bus):
            (fired,) = engine.evaluate({"findings": 2.0})
            clock[0] = 71.0
            (resolved,) = engine.evaluate({"findings": 0.0})
        assert isinstance(fired, AlertFired)
        assert isinstance(resolved, AlertResolved)
        assert bus.events() == (fired, resolved)
        assert bus.events()[0] is fired and bus.events()[1] is resolved
        assert (fired.seq, fired.timestamp) == (1, 70.0)
        assert (resolved.seq, resolved.timestamp) == (2, 71.0)

    def test_alert_transitions_without_a_bus_stay_unstamped(self):
        engine = AlertEngine([
            AlertRule(name="findings", metric="findings", threshold=0),
        ])
        (fired,) = engine.evaluate({"findings": 2.0})
        assert (fired.seq, fired.timestamp) == (0, 0.0)

    def test_concurrent_emitters_never_share_a_seq(self):
        bus = EventBus(capacity=100_000)
        delivered = []
        bus.subscribe(delivered.append)
        threads, per_thread = 8, 500
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(
                    target=lambda name=f"t{index}": [
                        bus.emit(StageStarted(stage=name))
                        for _ in range(per_thread)
                    ]
                )
                for index in range(threads)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
                assert not worker.is_alive()
        finally:
            sys.setswitchinterval(interval)
        total = threads * per_thread
        seqs = sorted(event.seq for event in bus.events())
        assert seqs == list(range(1, total + 1))
        assert len({id(event) for event in delivered}) == total
