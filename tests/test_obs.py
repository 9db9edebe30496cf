"""Tests for the observability primitives: spans, metrics, recorder."""

from __future__ import annotations

import json

import pytest

from repro.errors import ReproError
from repro.obs import (
    NULL_RECORDER,
    MetricsRegistry,
    NullRecorder,
    Recorder,
    SpanRecorder,
    current_instruments,
    use,
)


class TestSpans:
    def test_nesting_builds_a_tree(self):
        recorder = SpanRecorder()
        with recorder.span("root"):
            with recorder.span("child-a"):
                with recorder.span("grandchild"):
                    pass
            with recorder.span("child-b"):
                pass
        assert len(recorder.roots) == 1
        root = recorder.roots[0]
        assert root.name == "root"
        assert [child.name for child in root.children] == ["child-a", "child-b"]
        assert root.children[0].children[0].name == "grandchild"
        assert root.count() == 4
        assert [span.name for span in root.iter_spans()] == [
            "root",
            "child-a",
            "grandchild",
            "child-b",
        ]

    def test_timing_is_monotone_and_contains_children(self):
        recorder = SpanRecorder()
        with recorder.span("outer"):
            with recorder.span("inner"):
                sum(range(1000))
        outer = recorder.roots[0]
        inner = outer.children[0]
        assert outer.wall_seconds >= inner.wall_seconds >= 0.0
        assert outer.start_wall <= inner.start_wall
        assert outer.end_wall >= inner.end_wall
        assert outer.self_wall_seconds >= 0.0

    def test_attributes_and_annotate(self):
        recorder = SpanRecorder()
        with recorder.span("work", phase="warm") as span:
            span.set_attribute("items", 3)
            recorder.annotate("note", "from-inside")
        assert recorder.roots[0].attributes == {
            "phase": "warm",
            "items": 3,
            "note": "from-inside",
        }
        # Annotating with no open span must not raise.
        recorder.annotate("ignored", True)

    def test_exception_closes_span_and_marks_error(self):
        recorder = SpanRecorder()
        with pytest.raises(ValueError):
            with recorder.span("broken"):
                raise ValueError("boom")
        span = recorder.roots[0]
        assert span.attributes["error"] == "ValueError"
        assert span.end_wall >= span.start_wall
        assert recorder.current_span() is None

    def test_decorator_records_a_span(self):
        recorder = SpanRecorder()

        @recorder.record("named")
        def work(x):
            return x * 2

        assert work(21) == 42
        assert recorder.roots[0].name == "named"

    def test_sibling_roots(self):
        recorder = SpanRecorder()
        with recorder.span("first"):
            pass
        with recorder.span("second"):
            pass
        assert [root.name for root in recorder.roots] == ["first", "second"]
        recorder.clear()
        assert recorder.roots == []


class TestMetrics:
    def test_counter(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits")
        counter.inc()
        counter.inc(4)
        assert registry.counter("hits") is counter
        assert registry.value("hits") == 5
        with pytest.raises(ReproError):
            counter.inc(-1)

    def test_gauge(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.set(3.5)
        gauge.add(-1.0)
        assert registry.value("depth") == 2.5

    def test_histogram(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("latency")
        assert histogram.mean is None
        for value in (1.0, 3.0, 2.0):
            histogram.observe(value)
        snapshot = histogram.to_dict()
        assert snapshot["count"] == 3
        assert snapshot["min"] == 1.0
        assert snapshot["max"] == 3.0
        assert snapshot["mean"] == pytest.approx(2.0)

    def test_histogram_percentiles(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("latency")
        assert histogram.p50 is None
        for value in range(1, 101):  # 1..100
            histogram.observe(float(value))
        assert histogram.p50 == pytest.approx(50.5)
        assert histogram.p95 == pytest.approx(95.05)
        assert histogram.p99 == pytest.approx(99.01)
        assert histogram.percentile(0.0) == 1.0
        assert histogram.percentile(1.0) == 100.0
        snapshot = histogram.to_dict()
        assert snapshot["p50"] == pytest.approx(50.5)
        assert snapshot["p95"] == pytest.approx(95.05)
        assert snapshot["p99"] == pytest.approx(99.01)

    def test_histogram_percentile_interpolates_small_samples(self):
        histogram = MetricsRegistry().histogram("x")
        histogram.observe(10.0)
        assert histogram.p50 == histogram.p99 == 10.0
        histogram.observe(20.0)
        assert histogram.p50 == pytest.approx(15.0)

    def test_histogram_percentile_validates_fraction(self):
        histogram = MetricsRegistry().histogram("x")
        histogram.observe(1.0)
        for bad in (-0.1, 1.5):
            with pytest.raises(ReproError):
                histogram.percentile(bad)

    def test_histogram_reservoir_bounds_retained_samples(self):
        from repro.obs import DEFAULT_HISTOGRAM_SAMPLE_CAP
        from repro.obs.metrics import Histogram

        histogram = Histogram("lat", sample_cap=100)
        for value in range(10_000):
            histogram.observe(float(value % 100))
        assert histogram.sample_count == 100
        # Exact statistics are untouched by the reservoir.
        assert histogram.count == 10_000
        assert histogram.min == 0.0 and histogram.max == 99.0
        assert histogram.mean == pytest.approx(49.5)
        # The reservoir is a uniform sample of a uniform stream, so the
        # median lands near the true median.
        assert histogram.p50 == pytest.approx(49.5, abs=15.0)
        assert DEFAULT_HISTOGRAM_SAMPLE_CAP == 4096

    def test_histogram_percentiles_exact_below_the_cap(self):
        from repro.obs.metrics import Histogram

        histogram = Histogram("lat", sample_cap=200)
        for value in range(1, 101):
            histogram.observe(float(value))
        assert histogram.sample_count == 100
        assert histogram.p50 == pytest.approx(50.5)

    def test_histogram_reservoir_is_deterministic_per_name(self):
        from repro.obs.metrics import Histogram

        def fill(name):
            histogram = Histogram(name, sample_cap=10)
            for value in range(1000):
                histogram.observe(float(value))
            return histogram.to_dict()

        assert fill("same") == fill("same")

    @pytest.mark.parametrize("sample_cap", [1, 10, 100])
    def test_histogram_keeps_its_reservoir_sorted(self, sample_cap):
        """Each observation keeps the sorted list equal to the sorted
        reservoir, so a snapshot equals one that sorts at read time."""
        import random

        from repro.obs.metrics import Histogram

        def read_time(histogram, fraction):
            ordered = sorted(histogram._samples)
            rank = fraction * (len(ordered) - 1)
            low = int(rank)
            high = min(low + 1, len(ordered) - 1)
            weight = rank - low
            return ordered[low] * (1.0 - weight) + ordered[high] * weight

        for seed in range(5):
            draw = random.Random(f"{sample_cap}-{seed}")
            pool = [draw.uniform(-1e3, 1e3) for _ in range(sample_cap + 3)]
            histogram = Histogram(f"h{seed}", sample_cap=sample_cap)
            for _ in range(4 * sample_cap + 50):
                value = draw.choice(pool + [float(draw.randint(-3, 3))])
                histogram.observe(value)
                assert histogram._sorted == sorted(histogram._samples)
            snapshot = histogram.to_dict()
            for key, fraction in (("p50", 0.5), ("p95", 0.95), ("p99", 0.99)):
                assert snapshot[key] == read_time(histogram, fraction)
            assert histogram.sample_count == sample_cap

    def test_histogram_rejects_nonpositive_cap(self):
        from repro.obs.metrics import Histogram

        with pytest.raises(ReproError, match="sample cap"):
            Histogram("lat", sample_cap=0)

    def test_recorder_keeps_a_passed_empty_registry(self):
        # An empty MetricsRegistry is falsy; the recorder must not
        # replace it (the serve loop shares one across runs).
        registry = MetricsRegistry()
        recorder = Recorder(metrics=registry)
        assert recorder.metrics is registry
        spans = SpanRecorder()
        assert Recorder(spans=spans).spans is spans

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ReproError):
            registry.gauge("x")

    def test_to_dict_is_sorted_and_json_ready(self):
        registry = MetricsRegistry()
        registry.counter("b").inc()
        registry.gauge("a").set(1.0)
        snapshot = registry.to_dict()
        assert list(snapshot) == ["a", "b"]
        assert snapshot["b"] == {"type": "counter", "value": 1}
        assert registry.names() == ("a", "b")
        assert len(registry) == 2

    def test_to_dict_ordering_is_deterministic(self):
        """Insertion order never leaks: snapshots sort by metric name."""
        forward = MetricsRegistry()
        backward = MetricsRegistry()
        names = ["zulu", "alpha", "mike"]
        for name in names:
            forward.counter(name).inc()
        for name in reversed(names):
            backward.counter(name).inc()
        assert list(forward.to_dict()) == sorted(names)
        assert list(forward.to_dict()) == list(backward.to_dict())
        assert json.dumps(forward.to_dict()) == json.dumps(backward.to_dict())


class TestRecorderIndirection:
    def test_default_is_null_and_disabled(self):
        assert current_instruments().recorder is NULL_RECORDER
        assert not NULL_RECORDER.enabled

    def test_null_recorder_is_inert(self):
        null = NullRecorder()
        with null.span("anything", key="value") as span:
            span.set_attribute("ignored", 1)
        null.counter("c").inc(100)
        null.gauge("g").set(1.0)
        null.histogram("h").observe(2.0)
        null.annotate("k", "v")
        # Shared singletons: no per-call allocation.
        assert null.span("a") is null.span("b")
        assert null.counter("a") is null.histogram("b")

    def test_use_scopes_the_recorder(self):
        recorder = Recorder()
        with use(recorder) as installed:
            assert installed is recorder
            assert current_instruments().recorder is recorder
        assert current_instruments().recorder is NULL_RECORDER

    def test_use_restores_on_exception(self):
        recorder = Recorder()
        with pytest.raises(RuntimeError):
            with use(recorder):
                raise RuntimeError("boom")
        assert current_instruments().recorder is NULL_RECORDER

    def test_recorder_bundles_spans_and_metrics(self):
        recorder = Recorder()
        with recorder.span("work", what="test"):
            recorder.counter("steps").inc(2)
            recorder.annotate("deep", True)
        assert recorder.roots[0].name == "work"
        assert recorder.roots[0].attributes["deep"] is True
        assert recorder.metrics.value("steps") == 2


class TestIndexStatsAccrual:
    """The evaluator records *deltas* of the communication index's
    cumulative stats, so repeated ``evaluate()`` calls on one ``Sosae``
    (whose memoized index keeps accruing) must not double-count."""

    def test_two_evaluations_accrue_exact_stat_deltas(
        self, small_scenarios, chain_architecture, chain_mapping
    ):
        from repro.core.evaluator import Sosae

        sosae = Sosae(small_scenarios, chain_architecture, chain_mapping)
        recorder = Recorder()
        with use(recorder):
            before = sosae.index.stats()
            sosae.evaluate()
            sosae.evaluate()
            after = sosae.index.stats()
        assert recorder.metrics.value("index.hits") == (
            after.hits - before.hits
        )
        assert recorder.metrics.value("index.misses") == (
            after.misses - before.misses
        )
        assert recorder.metrics.value("index.invalidations") == (
            after.invalidations - before.invalidations
        )
        # The second evaluation hit the memoized index: more hits
        # accrued, and the counters grew monotonically between calls.
        assert recorder.metrics.value("index.hits") > 0
