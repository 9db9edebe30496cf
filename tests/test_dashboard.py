"""The unified offline HTML observability dashboard."""

from __future__ import annotations

import json

import pytest

from repro.core.evaluator import Sosae
from repro.errors import ReproError
from repro.obs import (
    EventBus,
    JobRecord,
    Profile,
    Recorder,
    RunRecord,
    RunRegistry,
    build_dashboard,
    chrome_trace_json,
    load_trace_file,
    spans_to_jsonl,
    use,
    use_events,
)
from repro.obs.dashboard import _in_flight_series
from repro.obs.spans import Span


def _span(name: str, start: float, end: float) -> Span:
    span = Span(name)
    span.start_wall = start
    span.end_wall = end
    span.start_cpu = 0.0
    span.end_cpu = (end - start) / 2
    return span


def _forest() -> tuple[Span, ...]:
    root = _span("evaluate", 0.0, 1.0)
    child = _span("evaluate.walkthrough", 0.1, 0.9)
    grandchild = _span("walk.scenario", 0.2, 0.5)
    child.add_child(grandchild)
    root.add_child(child)
    return (root,)


def _record(run_id="r0001", wall=0.5, findings=0, metrics=None):
    return RunRecord(
        run_id=run_id,
        label="demo",
        timestamp=0.0,
        git_sha=None,
        wall_seconds=wall,
        consistent=findings == 0,
        scenarios_passed=2,
        scenarios_failed=0 if findings == 0 else 1,
        findings=findings,
        report_digest="d",
        metrics=metrics or {},
        stages={},
    )


@pytest.fixture
def observed_evaluation(small_scenarios, chain_architecture, chain_mapping):
    """A real evaluation with the recorder and the event bus both live."""
    recorder = Recorder()
    bus = EventBus(capacity=4096)
    with use(recorder), use_events(bus):
        report = Sosae(
            small_scenarios, chain_architecture, chain_mapping
        ).evaluate()
    return report, recorder, bus.events()


class TestLoadTraceFile:
    def test_detects_chrome_trace_documents(self, tmp_path):
        path = tmp_path / "trace.json"
        path.write_text(chrome_trace_json(_forest()))
        roots = load_trace_file(path)
        assert [root.name for root in roots] == ["evaluate"]
        assert roots[0].count() == 3

    def test_detects_span_jsonl_streams(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        path.write_text(spans_to_jsonl(_forest()))
        roots = load_trace_file(path)
        assert [root.name for root in roots] == ["evaluate"]
        assert roots[0].count() == 3

    def test_empty_file_yields_no_spans(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("\n")
        assert load_trace_file(path) == ()


class TestBuildDashboard:
    def test_refuses_to_render_nothing(self):
        with pytest.raises(ReproError, match="nothing to render"):
            build_dashboard()

    def test_spans_alone_render_a_flamegraph(self):
        html = build_dashboard(spans=_forest(), generated_at=0.0)
        assert "Pipeline flamegraph" in html
        assert "evaluate.walkthrough" in html
        # Sections without input degrade to an empty-state note, not
        # an error.
        assert "Metric trends" in html and "Event timeline" in html

    def test_runs_alone_render_sparkline_trends(self):
        runs = [
            _record("r0001", wall=0.50),
            _record("r0002", wall=0.40),
            _record("r0003", wall=0.45, findings=2),
        ]
        html = build_dashboard(runs=runs, generated_at=0.0)
        assert "Metric trends" in html
        assert "<svg" in html  # sparklines are inline SVG
        assert "wall_seconds" in html

    def test_full_dashboard_from_a_real_evaluation(
        self, observed_evaluation, tmp_path
    ):
        report, recorder, events = observed_evaluation
        registry = RunRegistry(tmp_path / "runs")
        registry.record("demo", report, recorder)
        html = build_dashboard(
            spans=recorder.roots,
            runs=registry.load(),
            report=report,
            events=events,
            title="full house",
            generated_at=0.0,
        )
        assert "full house" in html
        assert "evaluation-started" in html
        assert "evaluation-finished" in html
        assert "Consistent" in html or "consistent" in html

    def test_findings_table_carries_ids_and_provenance(
        self, small_scenarios, chain_architecture, chain_mapping
    ):
        chain_architecture.excise_links_between("logic", "logic-store")
        recorder = Recorder()
        with use(recorder):
            report = Sosae(
                small_scenarios, chain_architecture, chain_mapping
            ).evaluate()
        assert not report.consistent
        html = build_dashboard(report=report, generated_at=0.0)
        for finding in report.all_inconsistencies():
            assert finding.finding_id in html

    def test_is_self_contained(self, observed_evaluation):
        report, recorder, events = observed_evaluation
        html = build_dashboard(
            spans=recorder.roots,
            report=report,
            events=events,
            generated_at=0.0,
        )
        assert "http://" not in html
        assert "https://" not in html
        for tag in ("link rel", "src=", "@import", "url("):
            assert tag not in html
        assert html.startswith("<!DOCTYPE html>")
        assert html.rstrip().endswith("</html>")

    def test_dark_mode_and_table_views_present(self):
        html = build_dashboard(spans=_forest(), generated_at=0.0)
        assert "prefers-color-scheme: dark" in html
        assert "<details" in html and "<table" in html

    def test_escapes_hostile_names(self):
        html = build_dashboard(
            spans=(_span("<script>alert(1)</script>", 0.0, 1.0),),
            title="<b>sneaky</b>",
            generated_at=0.0,
        )
        assert "<script>alert(1)</script>" not in html
        assert "<b>sneaky</b>" not in html


def _sharded_forest() -> tuple[Span, ...]:
    """A merged-looking forest: main-process envelope with two worker
    shard subtrees stitched under the walkthrough stage."""
    root = _span("evaluate", 0.0, 1.0)
    walk = _span("evaluate.walkthrough", 0.1, 0.9)
    root.add_child(walk)
    root.span_id, walk.span_id = "s0.1", "s0.2"
    for shard in (1, 2):
        shard_span = _span("shard", 0.15, 0.85)
        shard_span.shard = shard
        shard_span.span_id = f"s{shard}.1"
        shard_span.parent_id = walk.span_id
        for index, name in enumerate(("alpha", "beta")):
            scenario = _span(
                "walkthrough.scenario", 0.2 + index * 0.3, 0.4 + index * 0.3
            )
            scenario.shard = shard
            scenario.span_id = f"s{shard}.{index + 2}"
            scenario.parent_id = shard_span.span_id
            scenario.attributes.update(
                {"scenario": f"{name}-{shard}", "cost.steps": 5 * shard,
                 "cost.index_queries": 2, "cost.bfs_expansions": 1,
                 "cost.findings": 0}
            )
            shard_span.add_child(scenario)
        walk.add_child(shard_span)
    return (root,)


class TestShardLanes:
    def test_multi_shard_trace_renders_lanes(self):
        html = build_dashboard(spans=_sharded_forest())
        assert "Shard lanes" in html
        assert html.count('class="lane"') == 3  # main + 2 shards
        assert ">main</div>" in html
        assert ">shard 1</div>" in html and ">shard 2</div>" in html
        assert "alpha-1" in html and "beta-2" in html

    def test_single_process_trace_degrades_to_a_note(self):
        html = build_dashboard(spans=_forest())
        assert "Shard lanes" in html
        assert "Single-process trace" in html
        assert 'class="lane"' not in html

    def test_old_idless_trace_file_still_renders(self, tmp_path):
        """Back-compat: a trace written before span identity existed
        loads and renders (flamegraph + single-process note)."""
        path = tmp_path / "old.jsonl"
        path.write_text(
            '{"id": 0, "parent": null, "name": "evaluate",'
            ' "start_wall": 0.0, "end_wall": 1.0,'
            ' "start_cpu": 0.0, "end_cpu": 0.5, "attributes": {}}\n'
        )
        roots = load_trace_file(path)
        assert roots[0].span_id is None
        html = build_dashboard(spans=roots)
        assert "Pipeline flamegraph" in html
        assert "Single-process trace" in html


class TestCostTreemap:
    def test_treemap_from_trace_spans(self):
        html = build_dashboard(spans=_sharded_forest())
        assert "Scenario cost" in html
        assert html.count('class="treemap-cell"') == 4
        assert "source: loaded trace" in html
        # The table view carries the work-unit counters.
        assert "index queries" in html
        assert "BFS" in html

    def test_treemap_falls_back_to_recorded_run_costs(self):
        record = RunRecord.from_dict(
            {**_record().to_dict(), "format": 1,
             "scenarios": {
                 "slow-one": {"wall_seconds": 0.4, "shard": 1,
                              "steps": 9, "index_queries": 3,
                              "bfs_expansions": 1, "findings": 0},
             }}
        )
        html = build_dashboard(runs=[record])
        assert "slow-one" in html
        assert "source: run r0001" in html

    def test_no_costs_degrades_to_a_note(self):
        html = build_dashboard(spans=_forest())
        assert "No per-scenario costs" in html


def _profile(counts, hz=97.0, wall=0.5):
    return Profile(
        counts={tuple(stack): count for stack, count in counts.items()},
        hz=hz,
        wall_seconds=wall,
    )


class TestDifferentialFlamegraph:
    def test_two_profiles_render_red_blue_cells(self):
        before = _profile({("m:hot:1", "m:leaf:2"): 8, ("m:cool:3",): 8})
        after = _profile({("m:hot:1", "m:leaf:2"): 14, ("m:cool:3",): 2})
        html = build_dashboard(
            profile_before=before, profile_after=after
        )
        assert "Differential profile" in html
        assert "hot" in html and "cool" in html
        # Regressed frames pick a red, improved frames a blue.
        assert "#9c2424" in html or "#b23d3d" in html or "#b55f5f" in html
        assert "#2561a8" in html or "#3a7ac2" in html or "#5b8ec9" in html
        # The top-movers table accompanies the graph.
        assert "self%" in html or "self" in html

    def test_single_profile_falls_back_to_plain_flamegraph(self):
        html = build_dashboard(
            profile_after=_profile({("m:f:1", "m:g:2"): 5})
        )
        assert "single profile (after)" in html
        assert "differential" in html

    def test_zero_sample_profiles_degrade_to_a_note(self):
        html = build_dashboard(
            profile_before=Profile(),
            profile_after=Profile(),
            spans=_forest(),
        )
        assert "Differential profile" in html
        # No division by zero; an empty-state note instead of cells.
        assert "zero samples" in html

    def test_profiles_alone_are_enough_input(self):
        html = build_dashboard(profile_after=_profile({("m:f:1",): 3}))
        assert "<html" in html

    def test_profile_section_absent_note_without_input(self):
        html = build_dashboard(spans=_forest())
        assert "Differential profile" in html


def _job(job_id, tenant="acme", state="done", submitted=0.0, finished=1.0,
         **kw):
    return JobRecord(
        job_id=job_id, tenant=tenant, state=state,
        submitted_at=submitted,
        finished_at=finished if state in ("done", "failed") else None,
        **kw,
    )


class TestTenantJobsSection:
    def test_in_flight_series_tracks_queue_depth(self):
        records = [
            _job("j0001", submitted=0.0, finished=3.0),
            _job("j0002", submitted=1.0, finished=2.0),
            _job("j0003", state="rejected", submitted=1.5, finished=None),
        ]
        series = _in_flight_series(records)
        # starts at zero, peaks at 2 while both jobs overlap, drains
        assert series[0] == 0.0
        assert max(series) == 2.0
        assert series[-1] == 0.0

    def test_jobs_alone_render_the_tenant_section(self):
        jobs = [
            _job("j0001", run_id="r0001", wall_seconds=0.4),
            _job("j0002", tenant="beta", state="rejected",
                 reason="quota", finished=None),
        ]
        html = build_dashboard(jobs=jobs, generated_at=10.0)
        assert "Tenant jobs" in html
        assert "quota pressure" in html
        assert "j0001" in html and "j0002" in html
        assert "acme" in html and "beta" in html

    def test_tenant_filter_scopes_jobs_and_title(self):
        jobs = [
            _job("j0001", tenant="acme", run_id="r0001"),
            _job("j0002", tenant="beta", run_id="r0002"),
        ]
        html = build_dashboard(jobs=jobs, tenant="acme", generated_at=10.0)
        assert "tenant acme" in html
        assert "j0001" in html
        assert "j0002" not in html

    def test_empty_jobs_section_degrades_to_a_note(self):
        html = build_dashboard(runs=[_record()], generated_at=0.0)
        assert "Tenant jobs" in html  # section header with empty-state
