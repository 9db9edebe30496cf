"""Tests for the span/metrics exporters: JSON-lines, Chrome trace,
profile rendering — plus an end-to-end profile of a PIMS evaluation."""

from __future__ import annotations

import json

import pytest

from repro.core.evaluator import Sosae
from repro.errors import ReproError
from repro.obs import (
    MetricsRegistry,
    Recorder,
    Span,
    chrome_trace,
    chrome_trace_json,
    metrics_to_json,
    render_profile,
    spans_from_chrome_trace,
    spans_from_jsonl,
    spans_to_jsonl,
    use,
)

STAGE_SPANS = (
    "evaluate.validation",
    "evaluate.style_check",
    "evaluate.coverage",
    "evaluate.constraints",
    "evaluate.walkthrough",
)


def fixed_tree() -> list[Span]:
    """A hand-built span tree with exact timestamps, so exporter output
    is fully deterministic."""
    root = Span("evaluate", {"architecture": "demo"})
    root.start_wall, root.end_wall = 0.0, 0.010
    root.start_cpu, root.end_cpu = 0.0, 0.008

    stage = Span("stage-a", {"items": 2})
    stage.start_wall, stage.end_wall = 0.0, 0.004
    stage.start_cpu, stage.end_cpu = 0.0, 0.003
    root.add_child(stage)

    inner = Span("unit")
    inner.start_wall, inner.end_wall = 0.001, 0.002
    stage.add_child(inner)

    for start, end in ((0.004, 0.006), (0.006, 0.009)):
        walk = Span("walk")
        walk.start_wall, walk.end_wall = start, end
        root.add_child(walk)
    return [root]


class TestJsonlRoundTrip:
    def test_round_trip_preserves_everything(self):
        roots = fixed_tree()
        text = spans_to_jsonl(roots)
        rebuilt = spans_from_jsonl(text)
        assert len(rebuilt) == 1
        for original, restored in zip(
            roots[0].iter_spans(), rebuilt[0].iter_spans()
        ):
            assert restored.name == original.name
            assert restored.attributes == original.attributes
            assert restored.start_wall == original.start_wall
            assert restored.end_wall == original.end_wall
            assert restored.start_cpu == original.start_cpu
            assert restored.end_cpu == original.end_cpu
            assert len(restored.children) == len(original.children)

    def test_one_record_per_span(self):
        text = spans_to_jsonl(fixed_tree())
        lines = [line for line in text.splitlines() if line.strip()]
        assert len(lines) == fixed_tree()[0].count()
        first = json.loads(lines[0])
        assert first["parent"] is None
        assert first["name"] == "evaluate"

    def test_empty_forest(self):
        assert spans_to_jsonl([]) == ""
        assert spans_from_jsonl("") == ()

    def test_bad_json_raises(self):
        with pytest.raises(ReproError, match="line 1"):
            spans_from_jsonl("{not json}\n")

    def test_unknown_parent_raises(self):
        record = json.dumps(
            {
                "id": 0,
                "parent": 99,
                "name": "orphan",
                "start_wall": 0.0,
                "end_wall": 1.0,
            }
        )
        with pytest.raises(ReproError, match="unknown"):
            spans_from_jsonl(record + "\n")

    def test_recorded_spans_round_trip(self):
        recorder = Recorder()
        with recorder.span("outer", kind="test"):
            with recorder.span("inner"):
                pass
        rebuilt = spans_from_jsonl(spans_to_jsonl(recorder.roots))
        assert rebuilt[0].name == "outer"
        assert rebuilt[0].children[0].name == "inner"
        assert rebuilt[0].wall_seconds == recorder.roots[0].wall_seconds


class TestChromeTrace:
    def test_document_shape(self):
        document = chrome_trace(fixed_tree(), process_name="demo-proc")
        events = document["traceEvents"]
        assert document["displayTimeUnit"] == "ms"
        phases = {event["ph"] for event in events}
        assert phases == {"M", "X"}
        metadata = events[0]
        assert metadata["ph"] == "M"
        assert metadata["args"]["name"] == "demo-proc"
        complete = [event for event in events if event["ph"] == "X"]
        assert len(complete) == fixed_tree()[0].count()
        root_event = complete[0]
        # Timestamps are microseconds relative to the earliest root.
        assert root_event["ts"] == 0.0
        assert root_event["dur"] == pytest.approx(10_000.0)
        assert root_event["args"] == {"architecture": "demo"}

    def test_json_serialization_is_loadable(self):
        parsed = json.loads(chrome_trace_json(fixed_tree()))
        assert "traceEvents" in parsed

    def test_round_trip_reconstructs_nesting(self):
        rebuilt = spans_from_chrome_trace(chrome_trace(fixed_tree()))
        assert len(rebuilt) == 1
        root = rebuilt[0]
        assert root.name == "evaluate"
        assert [child.name for child in root.children] == [
            "stage-a",
            "walk",
            "walk",
        ]
        assert root.children[0].children[0].name == "unit"
        assert root.wall_seconds == pytest.approx(0.010)
        assert root.attributes == {"architecture": "demo"}

    def test_not_a_trace_document_raises(self):
        with pytest.raises(ReproError, match="traceEvents"):
            spans_from_chrome_trace({"events": []})
        with pytest.raises(ReproError, match="traceEvents"):
            spans_from_chrome_trace(None)

    def test_non_json_attributes_degrade_to_strings(self):
        span = Span("odd", {"obj": {1, 2}})
        span.start_wall, span.end_wall = 0.0, 0.001
        document = chrome_trace([span])
        args = next(
            event["args"]
            for event in document["traceEvents"]
            if event["ph"] == "X"
        )
        assert isinstance(args["obj"], str)
        json.dumps(document)  # must be serializable


class TestRenderProfile:
    def test_golden_tree(self):
        metrics = MetricsRegistry()
        metrics.counter("walkthrough.steps").inc(42)
        metrics.histogram("index.build_seconds").observe(0.5)
        rendered = render_profile(fixed_tree(), metrics)
        assert rendered == "\n".join(
            [
                "evaluate  wall 10.000ms  cpu 8.000ms  [architecture=demo]",
                "  stage-a  wall 4.000ms  cpu 3.000ms   40.0%  [items=2]",
                "    unit  wall 1.000ms  cpu 0.000ms   10.0%",
                "  walk ×2  wall 5.000ms  cpu 0.000ms   50.0%",
                "metrics:",
                "  index.build_seconds = n=1 mean=0.5",
                "  walkthrough.steps = 42",
            ]
        )

    def test_max_depth_truncates(self):
        rendered = render_profile(fixed_tree(), max_depth=1)
        assert "stage-a" in rendered
        assert "unit" not in rendered

    def test_without_metrics_no_metrics_section(self):
        assert "metrics:" not in render_profile(fixed_tree())
        assert "metrics:" not in render_profile(
            fixed_tree(), MetricsRegistry()
        )


class TestDegenerateInputs:
    """Empty span forests and zero-duration roots must not crash (or
    divide by zero) in any exporter."""

    def test_render_profile_empty_forest_renders_placeholder(self):
        assert render_profile([]) == "(no spans recorded)"

    def test_render_profile_empty_forest_keeps_metrics(self):
        registry = MetricsRegistry()
        registry.counter("steps").inc(3)
        text = render_profile([], registry)
        assert "(no spans recorded)" in text
        assert "steps = 3" in text

    def test_render_profile_zero_duration_root_shares_are_na(self):
        root = Span("evaluate")
        root.start_wall = root.end_wall = 5.0
        child = Span("stage")
        child.start_wall, child.end_wall = 5.0, 5.0
        root.add_child(child)
        text = render_profile([root])
        assert "n/a" in text
        assert "%" not in text

    def test_chrome_trace_empty_forest_is_a_valid_document(self):
        document = chrome_trace([])
        assert [event["ph"] for event in document["traceEvents"]] == ["M"]
        json.loads(chrome_trace_json([]))

    def test_chrome_trace_clamps_unfinished_span_duration(self):
        span = Span("never-finished")
        span.start_wall = 10.0
        span.end_wall = 0.0  # never closed: wall_seconds is negative
        (meta, event) = chrome_trace([span])["traceEvents"]
        assert event["dur"] == 0.0

    def test_spans_to_jsonl_empty_forest_is_empty_text(self):
        assert spans_to_jsonl([]) == ""
        assert spans_from_jsonl("") == ()


class TestMetricsJson:
    def test_snapshot_is_valid_json(self):
        metrics = MetricsRegistry()
        metrics.counter("hits").inc(3)
        metrics.histogram("lat").observe(1.5)
        parsed = json.loads(metrics_to_json(metrics))
        assert parsed["hits"] == {"type": "counter", "value": 3}
        assert parsed["lat"]["count"] == 1


class TestPimsEvaluationProfile:
    """End-to-end: profile a real (small) PIMS evaluation."""

    @pytest.fixture()
    def recorded(self, pims):
        recorder = Recorder()
        sosae = Sosae(
            pims.scenarios,
            pims.architecture,
            pims.mapping,
            walkthrough_options=pims.options,
        )
        with use(recorder):
            report = sosae.evaluate()
        return recorder, report

    def test_profile_covers_every_stage(self, recorded):
        recorder, report = recorded
        assert report.consistent
        rendered = render_profile(recorder.roots, recorder.metrics)
        assert rendered.startswith("evaluate  ")
        for stage in STAGE_SPANS:
            assert stage in rendered
        assert "metrics:" in rendered
        assert "walkthrough.steps" in rendered

    def test_span_tree_matches_pipeline(self, recorded):
        recorder, report = recorded
        assert len(recorder.roots) == 1
        root = recorder.roots[0]
        assert root.name == "evaluate"
        assert root.attributes["consistent"] is True
        stage_names = [child.name for child in root.children]
        for stage in STAGE_SPANS:
            assert stage in stage_names
        walkthrough = next(
            child
            for child in root.children
            if child.name == "evaluate.walkthrough"
        )
        scenario_spans = [
            span
            for span in walkthrough.iter_spans()
            if span.name == "walkthrough.scenario"
        ]
        assert scenario_spans
        # Steps are counted on the scenario span, not traced one by one.
        assert not [
            span
            for span in walkthrough.iter_spans()
            if span.name == "walkthrough.step"
        ]
        steps = [
            step
            for verdict in report.scenario_verdicts
            for trace in verdict.traces
            for step in trace.steps
        ]
        assert sum(
            span.attributes["cost.steps"] for span in scenario_spans
        ) == len(steps)
        assert sum(
            span.attributes["cost.failing_steps"] for span in scenario_spans
        ) == sum(1 for step in steps if not step.ok)

    def test_metrics_counters_are_nonzero(self, recorded):
        recorder, _ = recorded
        metrics = recorder.metrics
        assert metrics.value("walkthrough.steps") > 0
        assert metrics.value("walkthrough.traces") > 0
        assert metrics.value("index.hits") > 0
        assert metrics.value("walkthrough.missing_links") == 0

    def test_exporters_accept_the_real_tree(self, recorded):
        recorder, _ = recorded
        rebuilt = spans_from_jsonl(spans_to_jsonl(recorder.roots))
        assert rebuilt[0].count() == recorder.roots[0].count()
        document = chrome_trace(recorder.roots)
        names = {
            event["name"]
            for event in document["traceEvents"]
            if event["ph"] == "X"
        }
        for stage in STAGE_SPANS:
            assert stage in names


class TestSpanIdentity:
    """Stable span ids and parent references in both export formats,
    with backward-compatible reading of id-less files."""

    def _recorded_forest(self):
        from repro.obs import TraceContext
        from repro.obs.spans import SpanRecorder

        recorder = Recorder(
            spans=SpanRecorder(
                context=TraceContext(trace_id="abcd" * 4, shard=2)
            )
        )
        with use(recorder):
            with recorder.span("outer"):
                with recorder.span("inner"):
                    pass
            with recorder.span("second"):
                pass
        return recorder.roots

    def test_jsonl_carries_and_restores_identity(self):
        roots = self._recorded_forest()
        text = spans_to_jsonl(roots)
        for line in text.splitlines():
            record = json.loads(line)
            assert record["trace_id"] == "abcd" * 4
            assert record["shard"] == 2
            assert record["span_id"].startswith("s2.")
        restored = spans_from_jsonl(text)
        outer, second = restored
        assert outer.span_id == "s2.1"
        assert outer.children[0].span_id == "s2.2"
        assert outer.children[0].parent_id == "s2.1"
        assert second.span_id == "s2.3"

    def test_ids_survive_a_jsonl_round_trip_byte_identically(self):
        roots = self._recorded_forest()
        text = spans_to_jsonl(roots)
        assert spans_to_jsonl(spans_from_jsonl(text)) == text

    def test_chrome_trace_args_carry_identity(self):
        roots = self._recorded_forest()
        document = chrome_trace(roots)
        complete = [
            event for event in document["traceEvents"]
            if event.get("ph") == "X"
        ]
        assert all("span_id" in event["args"] for event in complete)
        child = next(
            event for event in complete if event["name"] == "inner"
        )
        assert child["args"]["parent_span_id"] == "s2.1"
        # Shard lanes: tid = shard + 1.
        assert {event["tid"] for event in complete} == {3}

    def test_multi_shard_trace_names_its_lanes(self):
        main = Span("evaluate")
        main.start_wall, main.end_wall = 0.0, 1.0
        forest = (main,) + self._recorded_forest()
        document = chrome_trace(forest)
        names = {
            event["args"]["name"]
            for event in document["traceEvents"]
            if event.get("ph") == "M" and event["name"] == "thread_name"
        }
        assert names == {"main", "shard 2"}

    def test_chrome_round_trip_links_by_id(self):
        roots = self._recorded_forest()
        restored = spans_from_chrome_trace(chrome_trace(roots))
        assert [span.name for span in restored] == ["outer", "second"]
        assert restored[0].children[0].name == "inner"
        assert restored[0].children[0].parent_id == restored[0].span_id
        assert all(span.shard == 2 for span in restored)
        # Identity args do not leak into user attributes.
        assert "span_id" not in restored[0].attributes

    def test_old_idless_jsonl_still_loads(self):
        """A trace written before span identity existed (positional
        id/parent only) must reconstruct the same tree, ids left None."""
        old = (
            '{"id": 0, "parent": null, "name": "evaluate",'
            ' "start_wall": 0.0, "end_wall": 1.0,'
            ' "start_cpu": 0.0, "end_cpu": 0.5, "attributes": {}}\n'
            '{"id": 1, "parent": 0, "name": "stage",'
            ' "start_wall": 0.1, "end_wall": 0.9,'
            ' "start_cpu": 0.1, "end_cpu": 0.4, "attributes": {}}\n'
        )
        (root,) = spans_from_jsonl(old)
        assert root.name == "evaluate"
        assert root.span_id is None
        assert root.shard is None
        assert root.children[0].name == "stage"

    def test_old_idless_chrome_trace_still_loads(self):
        """An old Chrome trace (no span_id args) falls back to per-tid
        interval containment."""
        document = {
            "traceEvents": [
                {"name": "evaluate", "ph": "X", "ts": 0.0, "dur": 1000.0,
                 "pid": 1, "tid": 1, "args": {}},
                {"name": "stage", "ph": "X", "ts": 100.0, "dur": 500.0,
                 "pid": 1, "tid": 1, "args": {}},
            ]
        }
        (root,) = spans_from_chrome_trace(document)
        assert root.name == "evaluate"
        assert [child.name for child in root.children] == ["stage"]
        assert root.span_id is None
