"""Tests for the Prometheus text exposition renderer."""

from __future__ import annotations

import math
import re

import pytest

from repro.errors import ReproError
from repro.obs import (
    MetricsRegistry,
    PromSample,
    bounded_label_values,
    prometheus_metric_name,
    render_prometheus,
)
from repro.obs.promexp import CONTENT_TYPE

_NAME_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (-?[0-9.e+-]+|NaN|[+-]Inf)$"
)


def _registry():
    registry = MetricsRegistry()
    registry.counter("walk.steps").inc(7)
    registry.gauge("index.entries").set(42.0)
    histogram = registry.histogram("walk.seconds")
    for value in (0.1, 0.2, 0.3, 0.4):
        histogram.observe(value)
    return registry


class TestMetricNames:
    def test_dots_collapse_to_underscores_with_prefix(self):
        assert (
            prometheus_metric_name("walkthrough.scenario_seconds")
            == "sosae_walkthrough_scenario_seconds"
        )

    def test_result_always_matches_the_grammar(self):
        for raw in ("a b", "9lives", "sim/queue", "höhe", ""):
            name = prometheus_metric_name(raw)
            assert re.match(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$", name)

    def test_custom_prefix(self):
        assert prometheus_metric_name("x", prefix="app_") == "app_x"


class TestRenderSnapshot:
    def test_counter_becomes_total_counter_family(self):
        text = render_prometheus(_registry().to_dict())
        assert "# TYPE sosae_walk_steps_total counter" in text
        assert "sosae_walk_steps_total 7" in text

    def test_gauge_family(self):
        text = render_prometheus(_registry().to_dict())
        assert "# TYPE sosae_index_entries gauge" in text
        assert "sosae_index_entries 42" in text

    def test_histogram_becomes_summary_with_quantiles(self):
        text = render_prometheus(_registry().to_dict())
        assert "# TYPE sosae_walk_seconds summary" in text
        assert 'sosae_walk_seconds{quantile="0.5"}' in text
        assert 'sosae_walk_seconds{quantile="0.95"}' in text
        assert 'sosae_walk_seconds{quantile="0.99"}' in text
        assert "sosae_walk_seconds_sum 1" in text
        assert "sosae_walk_seconds_count 4" in text

    def test_every_sample_line_is_well_formed(self):
        text = render_prometheus(
            _registry().to_dict(),
            extra=[PromSample("serve.up", 1.0)],
        )
        for line in text.splitlines():
            if line.startswith("#"):
                assert line.startswith(("# HELP ", "# TYPE "))
            else:
                assert _NAME_LINE.match(line), line

    def test_families_sort_by_rendered_name(self):
        text = render_prometheus(_registry().to_dict())
        headers = [
            line.split()[2]
            for line in text.splitlines()
            if line.startswith("# TYPE")
        ]
        assert headers == sorted(headers)

    def test_empty_snapshot_renders_empty(self):
        assert render_prometheus({}) == ""

    def test_ends_with_newline(self):
        assert render_prometheus(_registry().to_dict()).endswith("\n")

    def test_unknown_snapshot_type_is_an_error(self):
        with pytest.raises(ReproError, match="unknown snapshot type"):
            render_prometheus({"m": {"type": "mystery"}})


class TestExtraSamples:
    def test_labels_render_and_escape(self):
        text = render_prometheus(
            {},
            extra=[
                PromSample(
                    "serve.stage_wall_seconds",
                    1.5,
                    labels={"stage": 'wa"lk\nthrough\\'},
                )
            ],
        )
        assert (
            'stage="wa\\"lk\\nthrough\\\\"' in text
        )

    def test_counter_samples_get_total_suffix(self):
        text = render_prometheus(
            {},
            extra=[
                PromSample("serve.runs", 3, type="counter", help="Runs.")
            ],
        )
        assert "# HELP sosae_serve_runs_total Runs." in text
        assert "sosae_serve_runs_total 3" in text

    def test_same_name_samples_merge_into_one_family(self):
        text = render_prometheus(
            {},
            extra=[
                PromSample("alerts.active", 1, labels={"severity": "info"}),
                PromSample(
                    "alerts.active", 2, labels={"severity": "critical"}
                ),
            ],
        )
        assert text.count("# TYPE sosae_alerts_active gauge") == 1
        assert 'sosae_alerts_active{severity="info"} 1' in text
        assert 'sosae_alerts_active{severity="critical"} 2' in text

    def test_type_conflict_is_an_error(self):
        with pytest.raises(ReproError, match="declared both"):
            render_prometheus(
                {},
                extra=[
                    PromSample("x", 1, type="gauge"),
                    PromSample("x", 2, type="summary"),
                ],
            )

    def test_invalid_label_name_is_an_error(self):
        with pytest.raises(ReproError, match="invalid Prometheus label"):
            render_prometheus(
                {}, extra=[PromSample("x", 1, labels={"bad-key": "v"})]
            )

    def test_special_float_values(self):
        text = render_prometheus(
            {},
            extra=[
                PromSample("inf", math.inf),
                PromSample("ninf", -math.inf),
                PromSample("nan", math.nan),
            ],
        )
        assert "sosae_inf +Inf" in text
        assert "sosae_ninf -Inf" in text
        assert "sosae_nan NaN" in text

    def test_content_type_names_the_text_format(self):
        assert "version=0.0.4" in CONTENT_TYPE


class TestQuantileEdgeCases:
    """Histogram summary rendering at the reservoir's degenerate ends."""

    def test_empty_histogram_renders_no_quantile_lines(self):
        registry = MetricsRegistry()
        registry.histogram("idle_seconds")
        text = render_prometheus(registry.to_dict())
        assert 'quantile="' not in text
        assert "sosae_idle_seconds_count 0" in text
        assert "sosae_idle_seconds_sum 0" in text

    def test_single_sample_pins_every_quantile(self):
        registry = MetricsRegistry()
        registry.histogram("one_seconds").observe(0.25)
        text = render_prometheus(registry.to_dict())
        for quantile in ("0.5", "0.95", "0.99"):
            assert f'sosae_one_seconds{{quantile="{quantile}"}} 0.25' in text
        assert "sosae_one_seconds_count 1" in text

    def test_identical_samples_collapse_quantiles(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("same_seconds")
        for _ in range(32):
            histogram.observe(2.0)
        text = render_prometheus(registry.to_dict())
        for quantile in ("0.5", "0.95", "0.99"):
            assert f'sosae_same_seconds{{quantile="{quantile}"}} 2' in text
        assert "sosae_same_seconds_count 32" in text
        assert "sosae_same_seconds_sum 64" in text


class TestBoundedLabelValues:
    def test_top_k_keeps_the_heaviest_keys(self):
        weights = {"a": 1.0, "b": 5.0, "c": 3.0, "d": 2.0}
        mapping = bounded_label_values(weights, top=2)
        assert mapping == {"b": "b", "c": "c", "a": "other", "d": "other"}

    def test_ties_break_alphabetically(self):
        mapping = bounded_label_values({"z": 1.0, "a": 1.0, "m": 1.0}, top=2)
        assert mapping == {"a": "a", "m": "m", "z": "other"}

    def test_population_within_the_cap_is_untouched(self):
        weights = {"a": 1.0, "b": 2.0}
        assert bounded_label_values(weights, top=8) == {"a": "a", "b": "b"}

    def test_custom_overflow_value(self):
        mapping = bounded_label_values({"a": 2.0, "b": 1.0}, top=1,
                                       overflow="rest")
        assert mapping["b"] == "rest"

    def test_top_must_be_positive(self):
        with pytest.raises(ReproError, match=">= 1"):
            bounded_label_values({"a": 1.0}, top=0)
