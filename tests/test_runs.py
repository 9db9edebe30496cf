"""The persistent run registry and its cross-run regression diffing."""

from __future__ import annotations

import dataclasses
import json

import pytest

import repro.core.report_io
import repro.obs.runs
from repro.adl.xadl import to_xadl_xml
from repro.cli import main
from repro.core.consistency import Inconsistency, InconsistencyKind
from repro.core.evaluator import Sosae
from repro.core.report_io import report_to_dict
from repro.errors import ReproError
from repro.obs import (
    AuditLog,
    JobManager,
    JobRegistry,
    Profile,
    Recorder,
    RunRecord,
    RunRegistry,
    ServeDaemon,
    attribute_runs,
    bisect_runs,
    build_dashboard,
    diff_runs,
    record_metric_value,
    scenario_costs,
    stage_summary,
    use,
)
from repro.obs.provenance import Provenance
from repro.obs.spans import Span
from repro.obs.runs import ReportMemo, _report_digest
from repro.obs.store import short_digest
from repro.scenarioml.scenario import ScenarioSet
from repro.scenarioml.xml_io import to_scenarioml_xml
from repro.systems.pims import build_pims, excise_data_access_loader_link


def _span(name: str, start: float, end: float) -> Span:
    span = Span(name)
    span.start_wall = start
    span.end_wall = end
    span.start_cpu = 0.0
    span.end_cpu = (end - start) / 2
    return span


def _record(run_id="r0001", metrics=None, stages=None, digest="d", label="l"):
    return RunRecord(
        run_id=run_id,
        label=label,
        timestamp=0.0,
        git_sha=None,
        wall_seconds=0.01,
        consistent=True,
        scenarios_passed=1,
        scenarios_failed=0,
        findings=0,
        report_digest=digest,
        metrics=metrics or {},
        stages=stages or {},
    )


def _format1(record, scenarios=None):
    """``record`` as a format-1 line: per-scenario costs inline."""
    data = record.to_dict()
    del data["costs"]
    data.update(format=1, scenarios=scenarios or {})
    return data


def _counter(value):
    return {"type": "counter", "value": value}


def _histogram(count, mean):
    return {"type": "histogram", "count": count, "mean": mean}


class TestStageSummary:
    def test_aggregates_by_name_across_the_forest(self):
        root = _span("evaluate", 0.0, 1.0)
        first = _span("step", 0.0, 0.25)
        second = _span("step", 0.25, 0.75)
        root.add_child(first)
        root.add_child(second)
        other_root = _span("evaluate", 1.0, 1.5)
        stages = stage_summary((root, other_root))
        assert stages["evaluate"]["count"] == 2
        assert stages["evaluate"]["wall_seconds"] == pytest.approx(1.5)
        assert stages["step"]["count"] == 2
        assert stages["step"]["wall_seconds"] == pytest.approx(0.75)

    def test_names_appear_in_preorder(self):
        root, child, grandchild = (
            _span(name, 0.0, 1.0) for name in ("a", "b", "c")
        )
        root.add_child(child)
        child.add_child(grandchild)
        root.add_child(_span("d", 0.0, 1.0))
        forest = (root, _span("e", 1.0, 2.0))
        assert list(stage_summary(forest)) == ["a", "b", "c", "d", "e"]

    def test_empty_forest(self):
        assert stage_summary(()) == {}


class TestRunRegistry:
    def test_record_assigns_sequential_ids(self, tmp_path, recorded_evaluation):
        report, recorder = recorded_evaluation
        registry = RunRegistry(tmp_path / "runs")
        first = registry.record("demo", report, recorder, git_sha="abc")
        second = registry.record("demo", report, recorder, git_sha="abc")
        assert (first.run_id, second.run_id) == ("r0001", "r0002")
        assert first.report_digest == second.report_digest
        assert first.metrics == second.metrics
        assert "evaluate" in first.stages
        assert first.wall_seconds > 0

    def test_load_round_trips_records(self, tmp_path, recorded_evaluation):
        report, recorder = recorded_evaluation
        registry = RunRegistry(tmp_path / "runs")
        written = registry.record(
            "demo", report, recorder, git_sha="abc", timestamp=123.0
        )
        (loaded,) = registry.load()
        assert loaded == written

    def test_get_by_id_and_aliases(self, tmp_path, recorded_evaluation):
        report, recorder = recorded_evaluation
        registry = RunRegistry(tmp_path / "runs")
        registry.record("one", report, recorder)
        registry.record("two", report, recorder)
        assert registry.get("latest").label == "two"
        assert registry.get("previous").label == "one"
        assert registry.get("r0001").label == "one"
        with pytest.raises(ReproError):
            registry.get("r0042")

    def test_empty_registry_errors_helpfully(self, tmp_path):
        registry = RunRegistry(tmp_path / "nothing")
        with pytest.raises(ReproError, match="--record"):
            registry.get("latest")
        assert "no runs recorded" in registry.render_list()

    def test_corrupt_line_is_a_clear_error(self, tmp_path):
        registry = RunRegistry(tmp_path / "runs")
        registry.root.mkdir(parents=True)
        registry.path.write_text("not json\n")
        with pytest.raises(ReproError, match="line 1"):
            registry.load()

    def test_render_list_shows_every_run(self, tmp_path, recorded_evaluation):
        report, recorder = recorded_evaluation
        registry = RunRegistry(tmp_path / "runs")
        registry.record("first-label", report, recorder, timestamp=0.0)
        registry.record("second-label", report, recorder, timestamp=1.0)
        listing = registry.render_list()
        assert "r0001" in listing and "r0002" in listing
        assert "first-label" in listing and "second-label" in listing

    def test_render_list_shows_walkthrough_percentiles(
        self, tmp_path, recorded_evaluation
    ):
        report, recorder = recorded_evaluation
        registry = RunRegistry(tmp_path / "runs")
        registry.record("demo", report, recorder, timestamp=0.0)
        listing = registry.render_list()
        assert "walk p50" in listing and "walk p95" in listing
        walk = registry.load()[-1].metrics["walkthrough.scenario_seconds"]
        assert walk["p50"] is not None
        assert f"{walk['p50'] * 1e3:.2f}ms" in listing

    def test_render_list_dashes_for_pre_percentile_records(self, tmp_path):
        registry = RunRegistry(tmp_path / "runs")
        registry.root.mkdir(parents=True)
        record = _record(metrics={"lat": _histogram(3, 0.5)})
        with registry.path.open("w") as handle:
            handle.write(json.dumps(record.to_dict()) + "\n")
        lines = registry.render_list().splitlines()
        assert lines[-1].count(" - ") >= 2  # both percentile columns

    def test_from_dict_rejects_unknown_format(self):
        data = _record().to_dict()
        data["format"] = 99
        with pytest.raises(ReproError, match="format"):
            RunRecord.from_dict(data)


class TestDiffRuns:
    def test_identical_runs_are_clean_with_zero_deltas(self):
        metrics = {"index.hits": _counter(42)}
        before = _record("r0001", metrics=metrics)
        after = _record("r0002", metrics=metrics)
        diff = diff_runs(before, after)
        assert diff.clean
        assert all(delta.delta == 0 for delta in diff.metrics)
        rendered = diff.render()
        assert "r0001" in rendered and "r0002" in rendered
        assert "index.hits" in rendered
        assert "no regressions" in rendered

    def test_increase_beyond_threshold_is_flagged(self):
        before = _record("r0001", metrics={"steps": _counter(10)})
        after = _record("r0002", metrics={"steps": _counter(12)})
        diff = diff_runs(before, after, threshold=0.1)
        assert not diff.clean
        (delta,) = diff.metric_regressions
        assert delta.name == "steps"
        assert "<< regression" in diff.render()
        assert "regression(s)" in diff.render()

    def test_increase_within_threshold_is_tolerated(self):
        before = _record("r0001", metrics={"steps": _counter(100)})
        after = _record("r0002", metrics={"steps": _counter(105)})
        assert diff_runs(before, after, threshold=0.1).clean

    def test_decrease_is_never_a_regression(self):
        before = _record("r0001", metrics={"steps": _counter(100)})
        after = _record("r0002", metrics={"steps": _counter(50)})
        assert diff_runs(before, after, threshold=0.0).clean

    def test_any_increase_from_zero_is_flagged(self):
        before = _record("r0001", metrics={"misses": _counter(0)})
        after = _record("r0002", metrics={"misses": _counter(1)})
        assert not diff_runs(before, after).clean

    def test_histograms_flatten_to_count_and_mean(self):
        before = _record(
            "r0001", metrics={"lat": _histogram(10, 0.5)}
        )
        after = _record(
            "r0002", metrics={"lat": _histogram(10, 0.5)}
        )
        names = {delta.name for delta in diff_runs(before, after).metrics}
        assert names == {"lat.count", "lat.mean"}

    def test_histogram_means_are_timing_gated(self):
        before = _record("r0001", metrics={"lat": _histogram(10, 0.5)})
        after = _record("r0002", metrics={"lat": _histogram(10, 1.5)})
        # Without a time threshold the mean jitter is reported only.
        assert diff_runs(before, after, threshold=0.1).clean
        # With one, the tripled mean is a regression.
        assert not diff_runs(
            before, after, threshold=0.1, time_threshold=0.5
        ).clean

    def test_histogram_percentiles_flatten_when_present(self):
        snapshot = dict(_histogram(10, 0.5), p50=0.4, p95=0.9, p99=1.1)
        before = _record("r0001", metrics={"lat": snapshot})
        after = _record("r0002", metrics={"lat": snapshot})
        names = {delta.name for delta in diff_runs(before, after).metrics}
        assert names == {
            "lat.count", "lat.mean", "lat.p50", "lat.p95", "lat.p99",
        }

    def test_histogram_percentiles_are_timing_gated(self):
        before = _record(
            "r0001",
            metrics={"lat": dict(_histogram(10, 0.5), p95=0.5)},
        )
        after = _record(
            "r0002",
            metrics={"lat": dict(_histogram(10, 0.5), p95=2.0)},
        )
        # A quadrupled p95 is invisible to the count threshold...
        assert diff_runs(before, after, threshold=0.0).clean
        # ...but a regression once timing comparisons are requested.
        diff = diff_runs(before, after, threshold=0.0, time_threshold=0.5)
        assert not diff.clean
        assert [d.name for d in diff.metric_regressions] == ["lat.p95"]

    def test_stage_times_flagged_only_with_time_threshold(self):
        slow = {"evaluate": {"count": 1, "wall_seconds": 2.0, "cpu_seconds": 1.0}}
        fast = {"evaluate": {"count": 1, "wall_seconds": 1.0, "cpu_seconds": 0.5}}
        before = _record("r0001", stages=fast)
        after = _record("r0002", stages=slow)
        assert diff_runs(before, after).clean
        diff = diff_runs(before, after, time_threshold=0.5)
        assert not diff.clean
        assert diff.stage_regressions

    def test_render_notes_digest_change(self):
        before = _record("r0001", digest="aaaa")
        after = _record("r0002", digest="bbbb")
        rendered = diff_runs(before, after).render()
        assert "aaaa" in rendered and "bbbb" in rendered
        same = diff_runs(before, _record("r0002", digest="aaaa")).render()
        assert "unchanged" in same

    def test_metric_present_on_one_side_only(self):
        before = _record("r0001", metrics={"old": _counter(1)})
        after = _record("r0002", metrics={"new": _counter(1)})
        diff = diff_runs(before, after)
        by_name = {delta.name: delta for delta in diff.metrics}
        assert by_name["old"].after is None
        assert by_name["new"].before is None
        assert diff.clean  # appearing/disappearing is not an increase

    def test_stage_dropped_from_the_span_tree(self):
        # Runs recorded while the walk still traced every step carry a
        # `walkthrough.step` stage; later runs do not.
        def stage(wall):
            return {"count": 1, "wall_seconds": wall, "cpu_seconds": wall}

        before = _record(
            "r0001",
            stages={
                "evaluate": stage(0.2),
                "walkthrough.scenario": stage(0.1),
                "walkthrough.step": stage(0.05),
            },
        )
        after = _record(
            "r0002",
            stages={
                "evaluate": stage(0.2),
                "walkthrough.scenario": stage(0.1),
            },
        )
        diff = diff_runs(before, after, threshold=0.0, time_threshold=0.0)
        assert diff.clean
        by_name = {delta.name: delta for delta in diff.stages}
        assert by_name["walkthrough.step"].before_wall == 0.05
        assert by_name["walkthrough.step"].after_wall is None
        assert "walkthrough.step" in diff.render()

    def test_json_round_trip_preserves_diffability(self, tmp_path):
        record = _record(
            "r0001",
            metrics={"steps": _counter(3)},
            stages={"evaluate": {"count": 1, "wall_seconds": 0.1,
                                 "cpu_seconds": 0.05}},
        )
        restored = RunRecord.from_dict(
            json.loads(json.dumps(record.to_dict()))
        )
        assert diff_runs(record, restored).clean


class TestScenarioCosts:
    def test_harvested_from_walkthrough_scenario_spans(
        self, recorded_evaluation
    ):
        _, recorder = recorded_evaluation
        costs = scenario_costs(recorder.roots)
        assert costs
        for entry in costs.values():
            assert entry["wall_seconds"] > 0
            assert entry["walks"] >= 1
            assert entry["shard"] == 0
            for counter in ("steps", "index_queries", "bfs_expansions",
                            "findings"):
                assert counter in entry

    def test_persisted_on_run_records(self, tmp_path, recorded_evaluation):
        report, recorder = recorded_evaluation
        registry = RunRegistry(tmp_path / "runs")
        registry.record("demo", report, recorder)
        (loaded,) = registry.load()
        assert loaded.scenarios
        assert set(loaded.scenarios) == set(scenario_costs(recorder.roots))

    def test_record_summarizes_like_the_standalone_walks(
        self, tmp_path, recorded_evaluation
    ):
        # One walk of the forest fills both fields, keys in the same
        # (preorder) order as each standalone summary.
        report, recorder = recorded_evaluation
        record = RunRegistry(tmp_path / "runs").record(
            "demo", report, recorder, git_sha=None
        )
        stages = stage_summary(recorder.roots)
        costs = scenario_costs(recorder.roots)
        assert list(record.stages.items()) == list(stages.items())
        # Persisted times are whole nanoseconds: round(seconds * 1e9).
        assert list(record.scenarios.items()) == [
            (name, dict(
                entry,
                wall_seconds=round(entry["wall_seconds"] * 1e9) / 1e9,
                cpu_seconds=round(entry["cpu_seconds"] * 1e9) / 1e9,
            ))
            for name, entry in costs.items()
        ]
        assert record.findings == len(report.all_inconsistencies())

    def test_old_records_without_scenarios_still_load(self, tmp_path):
        data = _format1(_record())
        del data["scenarios"]
        assert RunRecord.from_dict(data).scenarios == {}

    def test_empty_forest(self):
        assert scenario_costs(()) == {}


class TestAttributeRuns:
    def _recorded_pair(self, tmp_path, slow_scenario=None, extra=0.5):
        """Two recorded runs of the same evaluation; the second
        optionally has ``extra`` seconds injected into one scenario's
        span — the synthetic regression attribution must pinpoint."""
        from repro.systems.pims import build_pims

        pims = build_pims()
        sosae = Sosae(
            pims.scenarios, pims.architecture, pims.mapping,
            constraints=pims.constraints,
            walkthrough_options=pims.options,
        )
        registry = RunRegistry(tmp_path / "runs")
        records = []
        for doctor in (False, True):
            recorder = Recorder()
            with use(recorder):
                report = sosae.evaluate()
            if doctor and slow_scenario is not None:
                for root in recorder.roots:
                    for span in root.iter_spans():
                        if (
                            span.name == "walkthrough.scenario"
                            and span.attributes.get("scenario")
                            == slow_scenario
                        ):
                            span.end_wall += extra
            records.append(registry.record("pims", report, recorder))
        return records

    def test_injected_slowdown_tops_the_ranking(self, tmp_path):
        before, after = self._recorded_pair(
            tmp_path, slow_scenario="compute-net-worth"
        )
        attribution = attribute_runs(before, after)
        assert attribution.top is not None
        assert attribution.top.name == "compute-net-worth"
        assert attribution.top.delta == pytest.approx(0.5, rel=0.2)
        assert "timing only" in attribution.top.driver
        rendered = attribution.render(limit=3)
        lines = rendered.splitlines()
        first_row = lines[lines.index(next(
            line for line in lines if line.startswith("scenario")
        )) + 1]
        assert first_row.startswith("compute-net-worth")

    def test_new_and_removed_scenarios_are_called_out(self):
        before = _record(run_id="rA")
        after = _record(run_id="rB")
        object.__setattr__  # records are plain dataclasses; rebuild
        before = RunRecord.from_dict(
            _format1(before, {"old": {"wall_seconds": 0.1}})
        )
        after = RunRecord.from_dict(
            _format1(after, {"new": {"wall_seconds": 0.2}})
        )
        attribution = attribute_runs(before, after)
        drivers = {row.name: row.driver for row in attribution.scenarios}
        # The cause row names which run actually has the scenario.
        assert drivers["new"] == "new scenario (only in rB)"
        assert drivers["old"] == "scenario removed (only in rA)"
        # One-sided rows render with a '-' on the missing side, never
        # a KeyError or a spurious zero-counter comparison.
        by_name = {row.name: row for row in attribution.scenarios}
        assert by_name["new"].before_wall is None
        assert by_name["new"].after_wall == pytest.approx(0.2)
        assert by_name["old"].after_wall is None
        assert by_name["new"].counters == {} and by_name["old"].counters == {}
        rendered = attribution.render()
        assert "new scenario (only in rB)" in rendered
        assert "scenario removed (only in rA)" in rendered

    def test_work_unit_growth_named_as_cause(self):
        before = RunRecord.from_dict(_format1(
            _record(run_id="rA"), {"s": {"wall_seconds": 0.1, "steps": 10}}
        ))
        after = RunRecord.from_dict(_format1(
            _record(run_id="rB"), {"s": {"wall_seconds": 0.4, "steps": 40}}
        ))
        attribution = attribute_runs(before, after)
        assert attribution.top.name == "s"
        assert "steps 10 -> 40" in attribution.top.driver

    def test_render_without_costs_shows_placeholder(self):
        attribution = attribute_runs(
            _record(run_id="rA"), _record(run_id="rB")
        )
        assert attribution.top is None
        assert "per-scenario costs" in attribution.render()


def _pims_sosae(excised: bool = False, copies: int = 1) -> Sosae:
    """PIMS with constraints; ``copies > 1`` adds renamed replicas of
    every top-level scenario (``copies=40`` is serve_pims_x40's size)."""
    pims = build_pims()
    architecture = pims.architecture
    if excised:
        architecture = excise_data_access_loader_link(architecture)
    scenarios = pims.scenarios
    if copies > 1:
        scenarios = ScenarioSet(pims.ontology, name=f"pims-x{copies}")
        scenarios.extend(pims.scenarios)
        for index in range(1, copies):
            scenarios.extend(
                dataclasses.replace(scenario, name=f"{scenario.name}+r{index}")
                for scenario in pims.scenarios
                if scenario.alternative_of is None
            )
    return Sosae(
        scenarios, architecture, pims.mapping.rebind(architecture),
        constraints=pims.constraints, walkthrough_options=pims.options,
    )


def _record_pims(registry, runs, slow=None, extra=0.02):
    """Record ``runs`` PIMS evaluations; in the last one, ``slow``'s
    scenario span is ``extra`` seconds longer."""
    sosae = _pims_sosae()
    records = []
    for index in range(runs):
        recorder = Recorder()
        with use(recorder):
            report = sosae.evaluate()
        if slow is not None and index == runs - 1:
            for root in recorder.roots:
                for span in root.iter_spans():
                    if span.attributes.get("scenario") == slow:
                        span.end_wall += extra
        records.append(registry.record("pims", report, recorder, git_sha=None))
    return records


def _write_lines(root, lines):
    root.mkdir(parents=True, exist_ok=True)
    with (root / "runs.jsonl").open("w") as handle:
        for data in lines:
            handle.write(json.dumps(data, sort_keys=True) + "\n")


def _ranking(attribution):
    return [(row.name, row.delta, row.driver) for row in attribution.scenarios]


class TestCostTables:
    """Format 2: per-scenario counters in ``costs/<digest>.json``, once
    per distinct table; each record keeps the digest and ns times."""

    def test_record_line_carries_digest_and_ns_times(
        self, tmp_path, recorded_evaluation
    ):
        report, recorder = recorded_evaluation
        registry = RunRegistry(tmp_path)
        record = registry.record("demo", report, recorder, git_sha=None)
        (line,) = registry.path.read_text().splitlines()
        data = json.loads(line)
        assert data["format"] == 2 and "scenarios" not in data
        assert set(data["costs"]) == {"digest", "wall_ns", "cpu_ns"}
        costs = scenario_costs(recorder.roots)
        assert data["costs"]["wall_ns"] == [
            round(entry["wall_seconds"] * 1e9) for entry in costs.values()
        ]
        sidecar = registry.cost_table_path(data["costs"]["digest"])
        text = sidecar.read_text()
        assert short_digest(text) == data["costs"]["digest"]
        table = json.loads(text)
        assert table["names"] == list(costs)
        assert table["steps"] == [entry["steps"] for entry in costs.values()]
        assert RunRegistry(tmp_path).load()[0].scenarios == record.scenarios

    def test_loaded_records_share_one_table(self, tmp_path, recorded_evaluation):
        report, recorder = recorded_evaluation
        registry = RunRegistry(tmp_path)
        for _ in range(3):
            registry.record("demo", report, recorder, git_sha=None)
        first, second, third = RunRegistry(tmp_path).load()
        assert first.cost_table is second.cost_table is third.cost_table
        assert len(list(registry.costs_dir.iterdir())) == 1

    def test_a_format1_registry_still_reads(self, tmp_path, capsys):
        recorded = _record_pims(
            RunRegistry(tmp_path / "new"), 6, slow="compute-net-worth"
        )
        old = tmp_path / "old"
        _write_lines(old, [
            _format1(record, record.scenarios) for record in recorded
        ])
        for verb in (
            ["list"],
            ["diff", "r0001", "r0002"],
            ["bisect", "findings", "--window", "3"],
        ):
            assert main(["runs", *verb, "--runs-dir", str(old)]) == 0
        capsys.readouterr()
        assert main(
            ["runs", "attribute", "r0005", "r0006", "--runs-dir", str(old)]
        ) == 0
        out = capsys.readouterr().out
        first_row = out.splitlines()[3]
        assert first_row.startswith("compute-net-worth"), out
        loaded = RunRegistry(old).load()
        assert [r.scenarios for r in loaded] == [
            r.scenarios for r in recorded
        ]
        html = build_dashboard(runs=loaded)
        assert "source: run r0006" in html
        assert "compute-net-worth" in html
        assert not (old / "costs").exists()  # reading writes nothing

    def test_mixed_formats_rank_as_two_format1_records(self, tmp_path):
        new = tmp_path / "new"
        before, after = _record_pims(
            RunRegistry(new), 2, slow="compute-net-worth"
        )
        old, mixed = tmp_path / "old", tmp_path / "mixed"
        _write_lines(old, [
            _format1(before, before.scenarios),
            _format1(after, after.scenarios),
        ])
        _write_lines(mixed, [
            _format1(before, before.scenarios), after.to_dict()
        ])
        (mixed / "costs").mkdir()
        sidecar = f"{after.costs['digest']}.json"
        (mixed / "costs" / sidecar).write_text(
            (new / "costs" / sidecar).read_text()
        )
        rankings = [
            _ranking(attribute_runs(*RunRegistry(root).load()))
            for root in (old, mixed, new)
        ]
        assert rankings[0] == rankings[1] == rankings[2]
        assert rankings[0][0][0] == "compute-net-worth"

    @pytest.mark.parametrize("damage", ["missing", "torn"])
    def test_an_unreadable_table_fails_attribute_only(
        self, tmp_path, recorded_evaluation, capsys, damage
    ):
        report, recorder = recorded_evaluation
        registry = RunRegistry(tmp_path)
        for _ in range(5):
            registry.record("demo", report, recorder, git_sha=None)
        (sidecar,) = registry.costs_dir.iterdir()
        if damage == "missing":
            sidecar.unlink()
        else:
            sidecar.write_text(sidecar.read_text()[:40])
        runs_dir = ["--runs-dir", str(tmp_path)]
        assert main(["runs", "list", *runs_dir]) == 0
        assert main(["runs", "diff", "r0001", "r0002", *runs_dir]) == 0
        assert main(
            ["runs", "bisect", "findings", "--window", "3", *runs_dir]
        ) == 0
        capsys.readouterr()
        assert main(["runs", "attribute", "r0001", "r0002", *runs_dir]) == 2
        err = capsys.readouterr().err
        assert "run r0001" in err and str(sidecar) in err
        assert ("missing" if damage == "missing" else "torn") in err
        with pytest.raises(ReproError, match="run r0003"):
            RunRegistry(tmp_path).get("r0003").scenarios
        html = build_dashboard(runs=RunRegistry(tmp_path).load())
        assert "No per-scenario costs" in html
        # The next record of the same table puts it back.
        RunRegistry(tmp_path).record("demo", report, recorder, git_sha=None)
        assert short_digest(sidecar.read_text()) == sidecar.stem
        assert main(["runs", "attribute", "r0001", "r0006", *runs_dir]) == 0

    def test_a_table_torn_after_its_check_is_rewritten(
        self, tmp_path, recorded_evaluation, capsys
    ):
        # One long-lived registry, as a serve daemon keeps: it checked
        # the table when it wrote it, and sees the tear on the next
        # record all the same.
        report, recorder = recorded_evaluation
        registry = RunRegistry(tmp_path)
        registry.record("demo", report, recorder, git_sha=None)
        (sidecar,) = registry.costs_dir.iterdir()
        sidecar.write_text(sidecar.read_text()[:40])
        registry.record("demo", report, recorder, git_sha=None)
        assert short_digest(sidecar.read_text()) == sidecar.stem
        capsys.readouterr()
        assert main(
            ["runs", "attribute", "r0001", "r0002", "--runs-dir", str(tmp_path)]
        ) == 0

    def test_an_existing_table_is_not_rewritten(
        self, tmp_path, recorded_evaluation
    ):
        report, recorder = recorded_evaluation
        RunRegistry(tmp_path).record("demo", report, recorder, git_sha=None)
        (sidecar,) = (tmp_path / "costs").iterdir()
        stamp = sidecar.stat().st_mtime_ns, sidecar.stat().st_ino
        other = RunRegistry(tmp_path)
        for _ in range(3):
            other.record("demo", report, recorder, git_sha=None)
        assert (sidecar.stat().st_mtime_ns, sidecar.stat().st_ino) == stamp
        assert [p.name for p in (tmp_path / "costs").iterdir()] == [
            sidecar.name
        ]

    def test_serve_ticks_of_one_spec_write_at_most_two_tables(self, tmp_path):
        daemon = ServeDaemon(
            lambda: _pims_sosae(excised=True),
            registry=RunRegistry(tmp_path / "runs"),
        )
        try:
            for _ in range(25):
                assert daemon.run_once().ok
        finally:
            daemon.shutdown()
        records = RunRegistry(tmp_path / "runs").load()
        assert len(records) == 25
        assert len({record.costs["digest"] for record in records[1:]}) == 1
        tables = sorted((tmp_path / "runs" / "costs").iterdir())
        assert 1 <= len(tables) <= 2
        assert {path.stem for path in tables} == {
            record.costs["digest"] for record in records
        }

    def test_compact_deletes_unreferenced_tables(
        self, tmp_path, recorded_evaluation
    ):
        report, recorder = recorded_evaluation
        registry = RunRegistry(tmp_path)
        registry.record("chain", report, recorder, git_sha=None)
        (chain,) = registry.costs_dir.iterdir()
        pims = _record_pims(registry, 2)
        stray = registry.costs_dir / "0123456789abcdef.json"
        stray.write_text("{}")
        assert registry.compact(keep=2) == {"kept": 2, "dropped": 1}
        assert {p.stem for p in registry.costs_dir.iterdir()} == {
            record.costs["digest"] for record in pims
        }
        assert not chain.exists() and not stray.exists()
        assert attribute_runs(*RunRegistry(tmp_path).load()).scenarios
        # A table compaction deleted is written again when it recurs.
        again = registry.record("chain", report, recorder, git_sha=None)
        assert registry.cost_table_path(again.costs["digest"]) == chain
        assert chain.exists()
        assert RunRegistry(tmp_path).get(again.run_id).scenarios


class TestProfilePersistence:
    def _profile(self):
        return Profile(
            counts={("m:f:1", "m:g:2"): 5, ("m:f:1",): 2},
            hz=97.0,
            wall_seconds=0.25,
        )

    def test_record_persists_the_folded_artifact(
        self, tmp_path, recorded_evaluation
    ):
        report, recorder = recorded_evaluation
        registry = RunRegistry(tmp_path / "runs")
        profile = self._profile()
        record = registry.record("label", report, recorder, profile=profile)
        assert record.profile["digest"] == profile.digest()
        assert record.profile["samples"] == 7
        assert record.profile["stacks"] == 2
        assert record.profile["hz"] == 97.0
        path = registry.profile_path(record.run_id)
        assert path.read_text(encoding="utf-8") == profile.to_folded()

    def test_load_profile_round_trips(self, tmp_path, recorded_evaluation):
        report, recorder = recorded_evaluation
        registry = RunRegistry(tmp_path / "runs")
        registry.record("label", report, recorder, profile=self._profile())
        assert registry.load_profile("latest") == self._profile()

    def test_unprofiled_run_errors_helpfully(
        self, tmp_path, recorded_evaluation
    ):
        report, recorder = recorded_evaluation
        registry = RunRegistry(tmp_path / "runs")
        registry.record("label", report, recorder)
        with pytest.raises(ReproError, match="no recorded profile"):
            registry.load_profile("latest")

    def test_tampered_artifact_fails_the_digest_check(
        self, tmp_path, recorded_evaluation
    ):
        report, recorder = recorded_evaluation
        registry = RunRegistry(tmp_path / "runs")
        record = registry.record(
            "label", report, recorder, profile=self._profile()
        )
        path = registry.profile_path(record.run_id)
        path.write_text(path.read_text() + "m:rogue:9 1\n")
        with pytest.raises(ReproError, match="digest"):
            registry.load_profile(record.run_id)

    def test_missing_artifact_is_a_clear_error(
        self, tmp_path, recorded_evaluation
    ):
        report, recorder = recorded_evaluation
        registry = RunRegistry(tmp_path / "runs")
        record = registry.record(
            "label", report, recorder, profile=self._profile()
        )
        registry.profile_path(record.run_id).unlink()
        with pytest.raises(ReproError, match="missing"):
            registry.load_profile(record.run_id)

    def test_records_without_profiles_still_load(self, tmp_path):
        registry = RunRegistry(tmp_path / "runs")
        data = _record().to_dict()
        data.pop("profile", None)
        registry.path.parent.mkdir(parents=True, exist_ok=True)
        registry.path.write_text(json.dumps(data) + "\n")
        (loaded,) = registry.load()
        assert loaded.profile == {}


class TestRecordMetricValue:
    def test_record_fields_and_consistent(self):
        record = _record()
        assert record_metric_value(record, "findings") == 0.0
        assert record_metric_value(record, "wall_seconds") == 0.01
        assert record_metric_value(record, "consistent") == 1.0

    def test_metric_scalars_resolve(self):
        record = _record(metrics={"walkthrough.steps": _counter(12)})
        assert record_metric_value(record, "walkthrough.steps") == 12.0

    def test_absent_metric_is_none(self):
        assert record_metric_value(_record(), "no.such.metric") is None


class TestBisectRuns:
    def _history(self, values, metric="findings"):
        records = []
        for index, value in enumerate(values, start=1):
            data = _record(run_id=f"r{index:04d}").to_dict()
            if metric == "findings":
                data["findings"] = int(value)
            else:
                data["metrics"] = {metric: _counter(value)}
            records.append(RunRecord.from_dict(data))
        return records

    def test_names_the_first_stepped_run(self):
        records = self._history([0, 0, 0, 0, 2, 2])
        result = bisect_runs(records, "findings", window=3)
        assert result.step is not None
        assert result.step.run_id == "r0005"
        rendered = result.render()
        assert "<< step" in rendered
        assert "stepped at r0005" in rendered

    def test_clean_history_has_no_step(self):
        result = bisect_runs(
            self._history([0, 0, 0, 0, 0, 0]), "findings", window=3
        )
        assert result.step is None
        assert "no step" in result.render()

    def test_metric_scalars_bisect_too(self):
        records = self._history(
            [100, 102, 98, 101, 99, 400, 401], metric="walkthrough.steps"
        )
        result = bisect_runs(records, "walkthrough.steps", window=4)
        assert result.step.run_id == "r0006"

    def test_runs_missing_the_metric_are_skipped_and_reported(self):
        records = self._history(
            [100, 102, 98, 101, 99, 400], metric="walkthrough.steps"
        )
        records.insert(2, _record(run_id="r9999"))
        result = bisect_runs(records, "walkthrough.steps", window=4)
        assert result.skipped == ("r9999",)
        assert result.step.run_id == "r0006"
        assert "skipped 1 run(s)" in result.render()

    def test_unknown_metric_errors(self):
        with pytest.raises(ReproError, match="no recorded run carries"):
            bisect_runs(self._history([0, 0, 0, 0]), "no.such", window=3)

    def test_short_history_errors_not_silently_passes(self):
        with pytest.raises(ReproError, match="at least"):
            bisect_runs(self._history([0, 0]), "findings", window=3)


class TestTenantScoping:
    def test_record_carries_tenant_and_job(
        self, tmp_path, recorded_evaluation
    ):
        report, recorder = recorded_evaluation
        registry = RunRegistry(tmp_path / "runs")
        written = registry.record(
            "job-run", report, recorder, tenant="acme", job_id="j0001"
        )
        (loaded,) = registry.load()
        assert loaded.tenant == "acme"
        assert loaded.job_id == "j0001"
        assert loaded == written

    def test_load_filters_by_tenant(self, tmp_path, recorded_evaluation):
        report, recorder = recorded_evaluation
        registry = RunRegistry(tmp_path / "runs")
        registry.record("a1", report, recorder, tenant="acme")
        registry.record("b1", report, recorder, tenant="beta")
        registry.record("a2", report, recorder, tenant="acme")
        assert [r.label for r in registry.load(tenant="acme")] == ["a1", "a2"]
        assert registry.load(tenant="nobody") == ()

    def test_aliases_resolve_within_the_tenant(
        self, tmp_path, recorded_evaluation
    ):
        report, recorder = recorded_evaluation
        registry = RunRegistry(tmp_path / "runs")
        registry.record("b1", report, recorder, tenant="beta")
        registry.record("a1", report, recorder, tenant="acme")
        # "latest" inside beta's slice is b1 even though a1 is newer
        assert registry.get("latest", tenant="beta").label == "b1"
        # an id from another tenant is invisible under the scope
        with pytest.raises(ReproError, match="beta"):
            registry.get("r0002", tenant="beta")

    def test_render_list_grows_a_tenant_column_when_needed(
        self, tmp_path, recorded_evaluation
    ):
        report, recorder = recorded_evaluation
        registry = RunRegistry(tmp_path / "runs")
        registry.record("plain", report, recorder)
        assert "tenant" not in registry.render_list()
        registry.record("scoped", report, recorder, tenant="acme")
        listing = registry.render_list()
        assert "tenant" in listing.splitlines()[0]
        assert "acme" in listing

    def test_pre_tenant_lines_load_as_untenanted(self, tmp_path):
        registry = RunRegistry(tmp_path / "runs")
        registry.root.mkdir(parents=True)
        legacy = _record().to_dict()
        del legacy["tenant"]
        del legacy["job_id"]
        registry.path.write_text(json.dumps(legacy) + "\n")
        (loaded,) = registry.load()
        assert loaded.tenant == ""
        assert loaded.job_id == ""


class TestGitShaLookup:
    """Outside a git checkout the sha lookup finds nothing; a caller that
    already looked passes that ``None`` on instead of looking again."""

    @pytest.fixture
    def spawns(self, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        calls = []
        real_run = repro.obs.runs.subprocess.run

        def counting_run(command, *args, **kwargs):
            calls.append(command)
            return real_run(command, *args, **kwargs)

        monkeypatch.setattr(repro.obs.runs.subprocess, "run", counting_run)
        return calls

    def test_serve_ticks_look_up_once(
        self, spawns, tmp_path, small_scenarios, chain_architecture,
        chain_mapping,
    ):
        daemon = ServeDaemon(
            lambda: Sosae(small_scenarios, chain_architecture, chain_mapping),
            registry=RunRegistry(tmp_path / "runs"),
        )
        try:
            for _ in range(5):
                assert daemon.run_once().ok
        finally:
            daemon.shutdown()
        assert len(spawns) == 1
        assert {record.git_sha for record in daemon.registry.load()} == {
            None
        }

    def test_job_manager_looks_up_once(
        self, spawns, tmp_path, small_scenarios, chain_architecture,
        chain_mapping,
    ):
        bundle = {
            "scenarioml": to_scenarioml_xml(small_scenarios),
            "xadl": to_xadl_xml(chain_architecture),
            "mapping": chain_mapping.to_json(),
        }
        manager = JobManager(
            registry=JobRegistry(tmp_path),
            audit=AuditLog(tmp_path),
            run_registry=RunRegistry(tmp_path),
            executors=0,
        )
        for tenant in ("a", "b", "c"):
            manager.submit(bundle, tenant)
        assert manager.run_pending() == 3
        assert len(RunRegistry(tmp_path).load()) == 3
        assert len(spawns) == 1

    def test_only_an_omitted_sha_triggers_a_lookup(
        self, spawns, tmp_path, small_scenarios, chain_architecture,
        chain_mapping,
    ):
        report = Sosae(
            small_scenarios, chain_architecture, chain_mapping
        ).evaluate()
        registry = RunRegistry(tmp_path / "runs")
        registry.record("looked-up", report, Recorder())
        registry.record("known-none", report, Recorder(), git_sha=None)
        registry.record("known", report, Recorder(), git_sha="abc123")
        assert len(spawns) == 1
        assert [record.git_sha for record in registry.load()] == [
            None, None, "abc123"
        ]


class TestReportMemo:
    """The memo keeps each verdict's document while the verdict is in
    the last report, and renders only a changed document."""

    @pytest.fixture
    def counted(self, monkeypatch):
        """Counts verdict documents built and canonical texts rendered
        (``update`` digests each text it renders)."""
        calls = {"documents": 0, "renders": 0}
        build = repro.core.report_io._verdict_to_dict
        digest = repro.obs.runs.short_digest

        def building(verdict):
            calls["documents"] += 1
            return build(verdict)

        def digesting(text):
            calls["renders"] += 1
            return digest(text)

        monkeypatch.setattr(repro.core.report_io, "_verdict_to_dict", building)
        monkeypatch.setattr(repro.obs.runs, "short_digest", digesting)
        return calls

    def test_replayed_pims_x40_reports_reuse_every_document(self, counted):
        sosae = _pims_sosae(excised=True, copies=40)
        memo = ReportMemo()
        first = sosae.evaluate()
        memo.update(first)
        verdicts = len(first.scenario_verdicts)
        assert verdicts > 500
        assert counted == {"documents": verdicts, "renders": 1}
        canonical, text = memo.canonical, memo.text
        for _ in range(3):
            report = sosae.evaluate()
            assert report.scenario_verdicts == first.scenario_verdicts
            memo.update(report)
        assert counted == {"documents": verdicts, "renders": 1}
        assert memo.canonical is canonical and memo.text is text
        assert memo.digest == _report_digest(report)
        assert memo.canonical == json.dumps(
            report_to_dict(report), sort_keys=True
        )

    def test_a_rebuilt_pipeline_with_equal_content_keeps_the_digest(
        self, counted
    ):
        memo = ReportMemo()
        memo.update(_pims_sosae(excised=True).evaluate())
        canonical, digest = memo.canonical, memo.digest
        rebuilt = _pims_sosae(excised=True).evaluate()
        memo.update(rebuilt)
        assert counted["renders"] == 1
        assert counted["documents"] == 2 * len(rebuilt.scenario_verdicts)
        assert memo.canonical is canonical and memo.digest == digest
        assert digest == _report_digest(rebuilt)

    def test_one_changed_verdict_rerenders_alone(self, counted):
        memo = ReportMemo()
        report = _pims_sosae().evaluate()
        memo.update(report)
        first, *rest = report.scenario_verdicts
        changed = dataclasses.replace(
            report,
            scenario_verdicts=(
                dataclasses.replace(first, blocked=not first.blocked),
                *rest,
            ),
        )
        memo.update(changed)
        assert counted["documents"] == len(report.scenario_verdicts) + 1
        assert counted["renders"] == 2
        assert memo.digest == _report_digest(changed) != (
            _report_digest(report)
        )
        assert memo.text == json.dumps(report_to_dict(changed), indent=2)

    def test_a_verdicts_provenance_reaches_the_digest(self):
        report = _pims_sosae().evaluate()
        first, *rest = report.scenario_verdicts

        def variant(conclusion):
            finding = Inconsistency(
                kind=InconsistencyKind.MISSING_LINK,
                message="no path",
                scenario=first.scenario,
                elements=("a", "b"),
                provenance=Provenance(conclusion=conclusion),
            )
            verdict = dataclasses.replace(first, inconsistencies=(finding,))
            return dataclasses.replace(
                report, scenario_verdicts=(verdict, *rest)
            )

        before, after = variant("first cause"), variant("second cause")
        assert before == after  # report equality ignores provenance
        memo = ReportMemo()
        memo.update(before)
        memo.update(after)
        assert memo.digest == _report_digest(after) != _report_digest(before)

    def test_the_memo_keeps_one_reports_worth(self):
        """After each rebuilt pipeline's report, equal to the last or
        not, the memo holds that report's verdicts and one document
        for each."""
        memo = ReportMemo()
        for tick in range(20):
            report = _pims_sosae(excised=tick % 3 == 0).evaluate()
            memo.update(report)
            assert memo._kept.keys() == {
                id(verdict) for verdict in report.scenario_verdicts
            }
            held = memo._document["scenario_verdicts"]
            assert all(
                memo._kept[id(verdict)][0] is verdict
                and memo._kept[id(verdict)][1] is document
                for verdict, document in zip(report.scenario_verdicts, held)
            )
        assert memo.digest == _report_digest(report)
