"""The telemetry collector: partial transport, deterministic merging.

The headline property (the ISSUE's acceptance bar): merging the same
worker partials in *any arrival order* yields byte-identical exported
telemetry — same span JSONL, same Chrome trace document, same merged
``MetricsRegistry.to_dict()`` — because span ids are minted at creation
and the merge sorts by ``(shard, trace_id)``, never arrival order.
"""

from __future__ import annotations

import json
import pickle
import random
from dataclasses import replace

import pytest

from repro.errors import ReproError
from repro.obs import (
    EventBus,
    MetricsRegistry,
    Recorder,
    TelemetryCollector,
    TraceContext,
    chrome_trace_json,
    instrumented,
    render_prometheus,
    snapshot_partial,
    spans_to_jsonl,
    use,
)
from repro.obs.events import ScenarioFinished, ScenarioStarted
from repro.obs.spans import SpanRecorder

TRACE = "t0t0t0t0t0t0t0t0"


def _worker_partial(shard: int, scenarios=("a", "b"), parent=None):
    """A realistic partial: a worker recorder + bus, frozen."""
    recorder = Recorder(
        spans=SpanRecorder(
            context=TraceContext(
                trace_id=TRACE, shard=shard, parent_span_id=parent
            )
        )
    )
    bus = EventBus()
    with instrumented(recorder=recorder, events=bus) as instruments:
        with recorder.span("shard", shard=shard):
            for name in scenarios:
                bus.emit(ScenarioStarted(scenario=f"{name}{shard}", traces=1))
                with recorder.span(
                    "walkthrough.scenario", scenario=f"{name}{shard}"
                ):
                    recorder.counter("walkthrough.steps").inc(shard)
                    recorder.histogram("walk_seconds").observe(0.1 * shard)
                bus.emit(
                    ScenarioFinished(
                        scenario=f"{name}{shard}", passed=True,
                        findings=0, wall_seconds=0.01,
                    )
                )
    return snapshot_partial(shard, TRACE, instruments)


def _merge(partials):
    collector = TelemetryCollector()
    for partial in partials:
        collector.ingest(partial)
    return collector.merge()


class TestPartialTransport:
    def test_pickle_round_trip(self):
        # The pool ships the frozen dataclass itself.
        partial = _worker_partial(1)
        assert pickle.loads(pickle.dumps(partial)) == partial


class TestDeterministicMerge:
    def test_arrival_order_independent_byte_identical(self):
        """The property test: shuffle worker-partial arrival order; the
        merged span JSONL, Chrome trace, and metrics snapshot must be
        byte-for-byte identical every time."""
        partials = [_worker_partial(shard) for shard in (1, 2, 3, 4)]
        baseline = _merge(partials)
        baseline_spans = spans_to_jsonl(baseline.roots)
        baseline_trace = chrome_trace_json(baseline.roots)
        baseline_metrics = json.dumps(
            baseline.metrics.to_dict(), sort_keys=True
        )
        baseline_events = [
            (e.seq, e.kind, e.to_dict()) for e in baseline.events
        ]
        rng = random.Random(20260808)
        for _ in range(6):
            shuffled = partials[:]
            rng.shuffle(shuffled)
            merged = _merge(shuffled)
            assert spans_to_jsonl(merged.roots) == baseline_spans
            assert chrome_trace_json(merged.roots) == baseline_trace
            assert (
                json.dumps(merged.metrics.to_dict(), sort_keys=True)
                == baseline_metrics
            )
            assert [
                (e.seq, e.kind, e.to_dict()) for e in merged.events
            ] == baseline_events

    def test_events_interleave_in_shard_order_with_global_seq(self):
        merged = _merge([_worker_partial(2), _worker_partial(1)])
        seqs = [event.seq for event in merged.events]
        assert seqs == list(range(1, len(seqs) + 1))
        scenario_labels = [
            event.scenario
            for event in merged.events
            if isinstance(event, ScenarioStarted)
        ]
        # Shard 1's events come first despite arriving second.
        assert scenario_labels == ["a1", "b1", "a2", "b2"]

    def test_metrics_merge_semantics(self):
        merged = _merge([_worker_partial(1), _worker_partial(2)])
        snapshot = merged.metrics.to_dict()
        # Counters sum across shards: 2 scenarios x shard-id increments.
        assert snapshot["walkthrough.steps"]["value"] == 2 * 1 + 2 * 2
        # Histograms union samples exactly.
        histogram = snapshot["walk_seconds"]
        assert histogram["count"] == 4
        assert histogram["min"] == pytest.approx(0.1)
        assert histogram["max"] == pytest.approx(0.2)

    def test_shard_summaries(self):
        merged = _merge([_worker_partial(2), _worker_partial(1)])
        assert [summary.shard for summary in merged.shards] == [1, 2]
        assert all(summary.spans == 3 for summary in merged.shards)
        assert all(summary.events == 4 for summary in merged.shards)

    def test_merge_is_idempotent_and_seals_ingest(self):
        collector = TelemetryCollector()
        collector.ingest(_worker_partial(1))
        first = collector.merge()
        assert collector.merge() is first
        with pytest.raises(ReproError, match="already merged"):
            collector.ingest(_worker_partial(2))


class TestParentStitching:
    def test_worker_roots_stitch_under_named_parent_span(self):
        parent = Recorder()
        with use(parent):
            with parent.span("evaluate"):
                with parent.span("evaluate.walkthrough") as walk_span:
                    parent_id = walk_span.span_id
                    collector = TelemetryCollector(parent=parent)
                    for shard in (2, 1):
                        collector.ingest(
                            _worker_partial(shard, parent=parent_id)
                        )
                    merged = collector.merge()
        assert merged.recorder is parent
        assert len(parent.roots) == 1
        walkthrough = next(
            span
            for span in parent.roots[0].iter_spans()
            if span.name == "evaluate.walkthrough"
        )
        shard_children = [
            child for child in walkthrough.children if child.name == "shard"
        ]
        assert [child.shard for child in shard_children] == [1, 2]

    def test_unknown_parent_id_falls_back_to_root(self):
        parent = Recorder()
        with use(parent):
            with parent.span("evaluate"):
                pass
        collector = TelemetryCollector(parent=parent)
        collector.ingest(_worker_partial(1, parent="s9.999"))
        merged = collector.merge()
        assert len(merged.roots) == 2

    def test_clock_rebase_shifts_worker_times(self):
        first = _worker_partial(1)
        second = _worker_partial(2)
        # Pretend shard 2's process clock anchor sits 100s ahead of
        # shard 1's: after rebasing, shard 2's spans must land ~100s
        # later on the shared timeline.
        skewed = replace(second, anchor=second.anchor + 100.0)
        aligned = _merge([first, second])
        shifted = _merge([first, skewed])
        delta = (
            shifted.roots[1].start_wall - aligned.roots[1].start_wall
        )
        assert delta == pytest.approx(100.0, abs=1.0)
        # Shard 1 stays put (within anchor jitter: each clock_anchor()
        # call differs by sub-microsecond noise, so which same-epoch
        # partial supplies the reference anchor is not exact).
        assert shifted.roots[0].start_wall == pytest.approx(
            aligned.roots[0].start_wall, abs=1e-3
        )


class TestMergedRegistryExposition:
    def test_prometheus_summaries_from_merged_registry(self):
        """The merged registry renders quantile summaries like a live
        one — count/sum aggregate across shards, quantiles come from the
        unioned reservoir."""
        merged = _merge([_worker_partial(1), _worker_partial(2)])
        text = render_prometheus(merged.metrics.to_dict())
        assert "sosae_walk_seconds_count 4" in text
        assert 'sosae_walk_seconds{quantile="0.5"}' in text
        assert "sosae_walkthrough_steps_total 6" in text

    def test_histogram_state_guard_rejects_summary_dict(self):
        """merge_state is for full-fidelity state_dict payloads; feeding
        it a to_dict summary (no samples) must fail loudly, not merge
        silently-empty reservoirs."""
        registry = MetricsRegistry()
        registry.histogram("walk_seconds").observe(0.1)
        summary_shaped = {
            "walk_seconds": {"type": "histogram", "count": 1, "sum": 0.1}
        }
        with pytest.raises(ReproError):
            MetricsRegistry().merge_state(summary_shaped)
