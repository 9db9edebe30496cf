"""Tests for the continuous-evaluation daemon behind ``sosae serve``."""

from __future__ import annotations

import gc
import http.client
import json
import multiprocessing
import os
import re
import threading
import time
import urllib.error
import urllib.request
from dataclasses import replace

import pytest

import repro.core.report_io
import repro.obs.serve
from repro.adl.xadl import parse_xadl, to_xadl_xml
from repro.core.consistency import Inconsistency, InconsistencyKind
from repro.core.evaluator import Sosae
from repro.core.mapping import Mapping
from repro.core.report_io import report_to_dict
from repro.errors import ReproError
from repro.obs import (
    AlertRule,
    Profile,
    Provenance,
    Recorder,
    RunRegistry,
    RunRecorded,
    ServeDaemon,
    SpecWatcher,
    read_sse_events,
)
from repro.obs.store import short_digest
from repro.scenarioml.scenario import ScenarioSet
from repro.scenarioml.xml_io import parse_scenarioml, to_scenarioml_xml
from repro.systems.generators import SyntheticSpec, build_synthetic
from repro.systems.pims import build_pims


class TestSpecWatcher:
    def test_first_poll_reports_a_change(self, tmp_path):
        spec = tmp_path / "a.xml"
        spec.write_text("v1")
        watcher = SpecWatcher([spec])
        assert watcher.changed() is True
        assert watcher.changed() is False

    def test_rewrites_are_detected(self, tmp_path):
        spec = tmp_path / "a.xml"
        spec.write_text("v1")
        watcher = SpecWatcher([spec])
        watcher.changed()
        spec.write_text("v2 is longer")
        assert watcher.changed() is True
        assert watcher.changed() is False

    def test_missing_files_fingerprint_as_absent(self, tmp_path):
        spec = tmp_path / "gone.xml"
        watcher = SpecWatcher([spec])
        watcher.changed()
        assert watcher.changed() is False
        spec.write_text("now it exists")
        assert watcher.changed() is True

    def test_delete_counts_as_a_change(self, tmp_path):
        spec = tmp_path / "a.xml"
        spec.write_text("v1")
        watcher = SpecWatcher([spec])
        watcher.changed()
        spec.unlink()
        assert watcher.changed() is True

    def test_changed_paths_names_the_edited_files(self, tmp_path):
        first = tmp_path / "a.xml"
        second = tmp_path / "b.xml"
        first.write_text("v1")
        second.write_text("v1")
        watcher = SpecWatcher([first, second])
        assert set(watcher.changed_paths()) == {first, second}
        assert watcher.changed_paths() == ()
        second.write_text("v2 is longer")
        assert watcher.changed_paths() == (second,)


@pytest.fixture
def serve_daemon():
    """Build serve daemons that are shut down after the test, so the
    heap their first runs freeze is unfrozen again."""
    daemons = []

    def build(*args, **kwargs) -> ServeDaemon:
        daemon = ServeDaemon(*args, **kwargs)
        daemons.append(daemon)
        return daemon

    yield build
    for daemon in daemons:
        daemon.shutdown()


@pytest.fixture
def build(small_scenarios, chain_architecture, chain_mapping):
    return lambda: Sosae(small_scenarios, chain_architecture, chain_mapping)


@pytest.fixture
def failing_build(small_scenarios, chain_architecture, chain_mapping):
    def _build():
        raise ReproError("spec went sideways")

    return _build


class TestRunOnce:
    def test_successful_run_updates_state(self, serve_daemon, build):
        daemon = serve_daemon(build)
        assert daemon.ready() is False
        outcome = daemon.run_once()
        assert outcome.ok is True
        assert outcome.consistent is True
        assert outcome.alerting is False
        assert daemon.ready() is True
        assert daemon.health()["runs_completed"] == 1
        assert json.loads(daemon.report_json())["findings"] == []

    def test_metrics_accumulate_across_runs(self, serve_daemon, build):
        daemon = serve_daemon(build)
        daemon.run_once()
        daemon.run_once()
        text = daemon.render_metrics()
        assert "sosae_evaluate_runs_total 2" in text
        assert "sosae_serve_runs_total 2" in text
        assert 'sosae_evaluate_wall_seconds{quantile="0.5"}' in text
        assert 'sosae_evaluate_wall_seconds{quantile="0.95"}' in text
        assert 'sosae_evaluate_wall_seconds{quantile="0.99"}' in text
        assert (
            'sosae_serve_stage_wall_seconds{stage="evaluate.walkthrough"}'
            in text
        )

    def test_build_failure_is_survived_and_reported(self, failing_build):
        daemon = ServeDaemon(failing_build)
        outcome = daemon.run_once()
        assert outcome.ok is False
        assert "sideways" in outcome.error
        health = daemon.health()
        assert health["status"] == "ok"
        assert health["runs_failed"] == 1
        assert "sideways" in health["last_error"]
        assert daemon.ready() is False
        assert "sosae_serve_run_failures_total 1" in daemon.render_metrics()

    def test_recovery_clears_the_last_error(
        self, serve_daemon, build, failing_build
    ):
        builders = [failing_build, build]

        def flaky():
            return builders.pop(0)()

        daemon = serve_daemon(flaky)
        daemon.run_once()
        outcome = daemon.run_once(rebuild=True)
        assert outcome.ok is True
        assert daemon.health()["last_error"] is None

    def test_findings_rule_fires_and_lands_on_the_bus(
        self, serve_daemon, small_scenarios, chain_architecture, chain_mapping
    ):
        chain_architecture.excise_links_between("logic", "logic-store")
        daemon = serve_daemon(
            lambda: Sosae(
                small_scenarios, chain_architecture, chain_mapping
            ),
            rules=[
                AlertRule(
                    name="no-findings",
                    metric="report.findings",
                    threshold=0,
                    severity="critical",
                )
            ],
        )
        outcome = daemon.run_once()
        assert outcome.ok is True
        assert outcome.alerting is True
        assert outcome.fired[0].rule == "no-findings"
        assert [e.kind for e in daemon.bus.events()].count("alert-fired") == 1
        # The outcome holds the very event the bus stamped and buffered.
        (buffered,) = [
            e for e in daemon.bus.events() if e.kind == "alert-fired"
        ]
        assert outcome.fired[0] is buffered and buffered.seq > 0
        alerts = json.loads(daemon.alerts_json())["alerts"]
        assert alerts[0]["active"] is True
        assert (
            'sosae_serve_alerts_active{severity="critical"} 1'
            in daemon.render_metrics()
        )

    def test_records_runs_when_given_a_registry(
        self, serve_daemon, build, tmp_path,
    ):
        registry = RunRegistry(tmp_path / "runs")
        daemon = serve_daemon(build, registry=registry, label="loop")
        outcome = daemon.run_once()
        assert outcome.run_id == "r0001"
        (record,) = registry.load()
        assert record.label == "loop"
        assert any(
            isinstance(event, RunRecorded) for event in daemon.bus.events()
        )
        # The stage gauges show the recorded run's stage summary.
        gauges = {}
        for line in daemon.render_metrics().splitlines():
            if line.startswith("sosae_serve_stage_wall_seconds{"):
                sample, value = line.rsplit(" ", 1)
                gauges[sample.split('"')[1]] = float(value)
        assert gauges == {
            stage: entry["wall_seconds"]
            for stage, entry in record.stages.items()
        }

    def test_invalid_interval_is_rejected(self, build):
        with pytest.raises(ReproError, match="interval"):
            ServeDaemon(build, interval=0.0)


class TestServeLoop:
    def test_max_runs_bounds_the_loop(self, serve_daemon, build):
        daemon = serve_daemon(build, interval=0.001)
        daemon.serve_loop(poll=0.001, max_runs=3)
        assert daemon.health()["runs_completed"] == 3

    def test_spec_change_triggers_a_rebuild(
        self, serve_daemon, tmp_path, build,
    ):
        spec = tmp_path / "watched.xml"
        spec.write_text("v1")
        builds = []

        def counting_build():
            builds.append(spec.read_text())
            return build()

        daemon = serve_daemon(counting_build, watch_paths=[spec])
        daemon.serve_loop(poll=0.001, max_runs=1)
        spec.write_text("v2")
        daemon.serve_loop(poll=0.001, max_runs=1)
        assert builds == ["v1", "v2"]

    def test_no_interval_no_watch_runs_once(self, build):
        daemon = ServeDaemon(build)
        daemon.stop()  # returns immediately after the stop flag check
        daemon.serve_loop(poll=0.001)
        assert daemon.health()["runs_completed"] == 0


class TestIncrementalServe:
    @pytest.fixture
    def versioned_build(self, small_scenarios, chain_architecture, chain_mapping):
        """A builder over mutable architecture state, so a 'spec edit'
        is simulated by swapping the architecture between rebuilds."""
        state = {"architecture": chain_architecture}

        def build():
            architecture = state["architecture"]
            return Sosae(
                small_scenarios,
                architecture,
                chain_mapping.rebind(architecture),
            )

        return state, build

    def test_architecture_edit_takes_the_incremental_path(
        self, serve_daemon, tmp_path, versioned_build, chain_architecture
    ):
        arch_path = tmp_path / "architecture.xml"
        state, build = versioned_build
        daemon = serve_daemon(build, incremental_safe_paths=(arch_path,))
        first = daemon.run_once()  # cold build: neither hit nor miss
        state["architecture"] = chain_architecture.clone("v2")
        second = daemon.run_once(rebuild=True, changed_paths=(arch_path,))
        assert first.ok and second.ok
        assert second.consistent == first.consistent
        health = daemon.health()
        assert health["incremental_hits"] == 1
        assert health["incremental_misses"] == 0
        text = daemon.render_metrics()
        assert "sosae_serve_incremental_hit_total 1" in text
        assert "sosae_serve_incremental_miss_total 0" in text
        assert (
            'sosae_serve_stage_wall_seconds{stage="evaluate.walkthrough"}'
            in text
        )

    def test_unsafe_path_edit_falls_back_to_full(
        self, serve_daemon, tmp_path, versioned_build, chain_architecture
    ):
        arch_path = tmp_path / "architecture.xml"
        scenario_path = tmp_path / "scenarios.xml"
        state, build = versioned_build
        daemon = serve_daemon(build, incremental_safe_paths=(arch_path,))
        daemon.run_once()
        state["architecture"] = chain_architecture.clone("v2")
        outcome = daemon.run_once(
            rebuild=True, changed_paths=(scenario_path,)
        )
        assert outcome.ok
        health = daemon.health()
        assert health["incremental_hits"] == 0
        assert health["incremental_misses"] == 1

    def test_watched_edit_routes_through_the_loop(
        self, serve_daemon, tmp_path, versioned_build, chain_architecture
    ):
        arch_path = tmp_path / "architecture.xml"
        arch_path.write_text("v1")
        state, build = versioned_build
        daemon = serve_daemon(
            build,
            watch_paths=(arch_path,),
            incremental_safe_paths=(arch_path,),
        )
        daemon.serve_loop(poll=0.001, max_runs=1)
        state["architecture"] = chain_architecture.clone("v2")
        arch_path.write_text("v2 with a longer body")
        daemon.serve_loop(poll=0.001, max_runs=1)
        assert daemon.health()["incremental_hits"] == 1

    def test_incremental_tick_records_what_a_full_tick_records(
        self, serve_daemon, tmp_path, monkeypatch, small_scenarios,
        chain_architecture,
        chain_mapping,
    ):
        """An architecture-only watched edit goes incremental, builds
        the dependency tracker once (at the edit, not on every tick),
        and records a full tick's coverage matrix and stage spans."""
        from repro.cli import _build_spec_sosae
        from repro.core.incremental import DependencyTracker

        scenario_path = tmp_path / "scenarios.xml"
        arch_path = tmp_path / "architecture.xml"
        mapping_path = tmp_path / "mapping.json"
        scenario_path.write_text(to_scenarioml_xml(small_scenarios))
        arch_path.write_text(to_xadl_xml(chain_architecture))
        mapping_path.write_text(chain_mapping.to_json())

        def build():
            return _build_spec_sosae(
                scenario_path, arch_path, mapping_path, acme=False
            )

        builds = []
        from_report = DependencyTracker.from_report.__func__

        def counted(cls, *args, **kwargs):
            builds.append(args)
            return from_report(cls, *args, **kwargs)

        monkeypatch.setattr(
            DependencyTracker, "from_report", classmethod(counted)
        )
        hit_rule = AlertRule(
            name="incremental", metric="serve.incremental_hit", threshold=0
        )

        def daemon(name):
            return serve_daemon(
                build,
                rules=(hit_rule,),
                watch_paths=(scenario_path, arch_path, mapping_path),
                registry=RunRegistry(tmp_path / name),
                incremental_safe_paths=(arch_path,),
            )

        incremental = daemon("incremental")
        incremental.serve_loop(poll=0.001, max_runs=1)
        for _ in range(3):
            assert incremental.run_once().fired == ()
        evolved = chain_architecture.clone("chain")
        evolved.excise_links_between("logic", "logic-store")
        arch_path.write_text(to_xadl_xml(evolved))
        # One serve_loop iteration, keeping its outcome.
        outcome = incremental.run_once(
            rebuild=True, changed_paths=incremental.watcher.changed_paths()
        )
        # A fresh daemon's first tick is a full evaluation.
        full = daemon("full")
        full.serve_loop(poll=0.001, max_runs=1)

        # serve.incremental_hit read 1 on the edit's tick only.
        assert [fired.rule for fired in outcome.fired] == ["incremental"]
        assert len(builds) == 1
        edited = incremental.registry.load()[-1]
        reference = full.registry.load()[-1]
        assert edited.report_digest == reference.report_digest
        assert edited.coverage
        assert edited.coverage["digest"] == reference.coverage["digest"]
        stages = {
            "evaluate.validation",
            "evaluate.style_check",
            "evaluate.coverage",
            "evaluate.constraints",
            "evaluate.walkthrough",
        }
        assert stages <= set(edited.stages)
        assert "evaluate.incremental" not in edited.stages

    def test_nested_move_goes_incremental_and_records_the_full_report(
        self, serve_daemon, tmp_path, nested_vault
    ):
        """An xADL edit that only moves a mapped nested component to
        another top-level component leaves the top-level diff empty; the
        incremental tick still records a full evaluation's report."""
        from repro.cli import _build_spec_sosae

        system = build_synthetic(
            SyntheticSpec(seed=0, scenarios=40, components=6)
        )
        architecture, mapping = nested_vault(system, "component-0")
        moved, _ = nested_vault(system, "annex")
        scenario_path = tmp_path / "scenarios.xml"
        arch_path = tmp_path / "architecture.xml"
        mapping_path = tmp_path / "mapping.json"
        scenario_path.write_text(to_scenarioml_xml(system.scenarios))
        arch_path.write_text(to_xadl_xml(architecture))
        mapping_path.write_text(mapping.to_json())

        def daemon(name):
            return serve_daemon(
                lambda: _build_spec_sosae(
                    scenario_path, arch_path, mapping_path, acme=False
                ),
                watch_paths=(scenario_path, arch_path, mapping_path),
                registry=RunRegistry(tmp_path / name),
                incremental_safe_paths=(arch_path,),
            )

        incremental = daemon("incremental")
        incremental.serve_loop(poll=0.001, max_runs=1)
        arch_path.write_text(to_xadl_xml(moved))
        incremental.serve_loop(poll=0.001, max_runs=1)
        assert incremental.health()["incremental_hits"] == 1
        full = daemon("full")
        full.serve_loop(poll=0.001, max_runs=1)

        before, edited = incremental.registry.load()
        (reference,) = full.registry.load()
        assert edited.report_digest != before.report_digest
        assert edited.report_digest == reference.report_digest
        assert edited.coverage["digest"] == reference.coverage["digest"]


def indent2(report) -> str:
    return json.dumps(report_to_dict(report), indent=2)


class TestReportRendering:
    @pytest.fixture
    def counted_renders(self, monkeypatch):
        """Counts ``report_to_json`` calls (serve looks it up per tick)."""
        calls = []
        render = repro.core.report_io.report_to_json

        def counting(report, *args):
            calls.append(report)
            return render(report, *args)

        monkeypatch.setattr(repro.core.report_io, "report_to_json", counting)
        return calls

    def test_unchanged_ticks_render_once_and_edits_rerender(
        self, serve_daemon, counted_renders, small_scenarios,
        chain_architecture,
        chain_mapping,
    ):
        state = {"architecture": chain_architecture}

        def build():
            architecture = state["architecture"]
            return Sosae(
                small_scenarios,
                architecture,
                chain_mapping.rebind(architecture),
            )

        daemon = serve_daemon(build)
        assert daemon.run_once().ok and daemon.run_once().ok
        assert len(counted_renders) == 1
        text = daemon.report_json()
        assert text == indent2(build().evaluate())
        assert daemon.run_once().ok
        assert daemon.report_json() is text

        edited = chain_architecture.clone("edited")
        edited.excise_links_between("logic", "logic-store")
        state["architecture"] = edited
        outcome = daemon.run_once(rebuild=True)
        assert outcome.ok and outcome.consistent is False
        assert len(counted_renders) == 2
        assert daemon.report_json() == indent2(build().evaluate())

    def test_replayed_pims_x40_ticks_reuse_every_verdict_document(
        self, monkeypatch, tmp_path, counted_renders
    ):
        pims = build_pims()
        architecture = pims.excised_architecture()
        scenarios = ScenarioSet(pims.ontology, name="pims-x40")
        scenarios.extend(pims.scenarios)
        for index in range(1, 40):
            scenarios.extend(
                replace(scenario, name=f"{scenario.name}+r{index}")
                for scenario in pims.scenarios
                if scenario.alternative_of is None
            )
        daemon = ServeDaemon(
            lambda: Sosae(
                scenarios,
                architecture,
                pims.mapping.rebind(architecture),
                constraints=pims.constraints,
                walkthrough_options=pims.options,
            ),
            registry=RunRegistry(tmp_path / "runs"),
            jobs=True,
            job_executors=0,
        )
        built = []
        build = repro.core.report_io._verdict_to_dict

        def building(verdict):
            built.append(verdict)
            return build(verdict)

        monkeypatch.setattr(repro.core.report_io, "_verdict_to_dict", building)
        try:
            first = daemon.run_once()
            assert first.ok and len(built) > 500
            canonical = daemon.jobs.report_json(first.run_id)
            text = daemon.report_json()
            del built[:]
            for _ in range(3):
                tick = daemon.run_once()
                assert tick.ok
                assert daemon.jobs.report_json(tick.run_id) is canonical
            assert built == []
            assert len(counted_renders) == 1
            assert daemon.report_json() is text
            digests = {r.report_digest for r in daemon.registry.load()}
            assert digests == {short_digest(canonical)}
        finally:
            daemon.shutdown()

    def test_a_provenance_only_change_reaches_digest_report_and_jobs(
        self, monkeypatch, tmp_path, build, small_scenarios,
        chain_architecture, chain_mapping,
    ):
        base = build().evaluate()

        def variant(conclusion):
            finding = Inconsistency(
                kind=InconsistencyKind.MISSING_LINK,
                message="no path",
                elements=("a", "b"),
                provenance=Provenance(conclusion=conclusion),
            )
            return replace(base, findings=(finding,))

        first, second = variant("first cause"), variant("second cause")
        assert first == second  # report equality ignores provenance
        # Two serve ticks, then two jobs, each evaluating to one variant.
        scripted = iter((first, second, first, second))
        monkeypatch.setattr(
            Sosae, "evaluate", lambda self, *a, **kw: next(scripted)
        )
        daemon = ServeDaemon(
            build,
            registry=RunRegistry(tmp_path / "runs"),
            jobs=True,
            job_executors=0,
        )
        canonical = json.dumps(report_to_dict(second), sort_keys=True)
        try:
            daemon.run_once()
            tick = daemon.run_once()
            assert daemon.registry.get(tick.run_id).report_digest == (
                short_digest(canonical)
            )
            assert daemon.report_json() == indent2(second)
            assert daemon.jobs.report_json(tick.run_id) == canonical

            bundle = {
                "scenarioml": to_scenarioml_xml(small_scenarios),
                "xadl": to_xadl_xml(chain_architecture),
                "mapping": chain_mapping.to_json(),
            }
            jobs = [daemon.jobs.submit(bundle, "acme") for _ in range(2)]
            assert daemon.jobs.run_pending() == 2
            run_id = daemon.jobs.get(jobs[1].job_id).run_id
            assert daemon.jobs.report_json(run_id) == canonical
            assert daemon.registry.get(run_id).report_digest == (
                short_digest(canonical)
            )
        finally:
            daemon.shutdown()


@pytest.fixture
def served(build):
    daemon = ServeDaemon(
        build,
        rules=[AlertRule(name="r", metric="report.findings", threshold=0)],
    )
    daemon.run_once()
    host, port = daemon.start_http()
    yield daemon, f"http://{host}:{port}"
    daemon.shutdown()


def _get(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, response.read().decode("utf-8")


class TestHttpEndpoints:
    def test_metrics_endpoint(self, served):
        _, base = served
        status, body = _get(f"{base}/metrics")
        assert status == 200
        assert "sosae_serve_up 1" in body
        assert 'quantile="0.95"' in body

    def test_healthz_and_readyz(self, served):
        _, base = served
        status, body = _get(f"{base}/healthz")
        assert status == 200 and json.loads(body)["status"] == "ok"
        status, body = _get(f"{base}/readyz")
        assert status == 200 and json.loads(body)["ready"] is True

    def test_readyz_is_503_before_the_first_run(self, build):
        daemon = ServeDaemon(build)
        host, port = daemon.start_http()
        try:
            with pytest.raises(urllib.error.HTTPError) as caught:
                _get(f"http://{host}:{port}/readyz")
            assert caught.value.code == 503
            with pytest.raises(urllib.error.HTTPError) as caught:
                _get(f"http://{host}:{port}/report")
            assert caught.value.code == 503
        finally:
            daemon.shutdown()

    def test_report_and_alerts(self, served):
        _, base = served
        status, body = _get(f"{base}/report")
        assert status == 200 and json.loads(body)["findings"] == []
        status, body = _get(f"{base}/alerts")
        assert json.loads(body)["alerts"][0]["rule"] == "r"

    def test_root_lists_endpoints(self, served):
        _, base = served
        status, body = _get(f"{base}/")
        assert "/metrics" in json.loads(body)["endpoints"]

    def test_unknown_route_is_404(self, served):
        _, base = served
        with pytest.raises(urllib.error.HTTPError) as caught:
            _get(f"{base}/nope")
        assert caught.value.code == 404

    def test_sse_replay_returns_buffered_events(self, served):
        _, base = served
        events = read_sse_events(f"{base}/events?replay=2048", limit=4)
        kinds = [event.kind for event in events]
        assert kinds[0] == "evaluation-started"
        assert len(events) == 4

    def test_sse_streams_live_events(self, served):
        daemon, base = served
        import threading

        collected = {}

        def consume():
            collected["events"] = read_sse_events(
                f"{base}/events", limit=1, duration=10.0
            )

        thread = threading.Thread(target=consume)
        thread.start()
        time.sleep(0.3)  # let the subscriber attach
        daemon.run_once()
        thread.join(timeout=15)
        assert not thread.is_alive()
        assert len(collected["events"]) == 1

    def test_double_start_is_an_error(self, served):
        daemon, _ = served
        with pytest.raises(ReproError, match="already running"):
            daemon.start_http()


class TestRunReportBodies:
    def test_every_body_hashes_to_its_run_records_digest(
        self, tmp_path, pims
    ):
        """``GET /report/<run_id>`` serves, for a watched-spec run and a
        job run alike, the text its run record's ``report_digest``
        hashes."""
        excised = pims.excised_architecture()
        daemon = ServeDaemon(
            lambda: Sosae(
                pims.scenarios,
                excised,
                pims.mapping.rebind(excised),
                walkthrough_options=pims.options,
            ),
            registry=RunRegistry(tmp_path / "runs"),
            jobs=True,
            job_executors=0,
        )
        try:
            watched = daemon.run_once()
            assert watched.ok and watched.consistent is False
            job = daemon.jobs.submit(
                {
                    "scenarioml": to_scenarioml_xml(pims.scenarios),
                    "xadl": to_xadl_xml(pims.architecture),
                    "mapping": pims.mapping.to_json(),
                },
                "acme",
            )
            assert daemon.jobs.run_pending() == 1
            job_run = daemon.jobs.get(job.job_id).run_id
            host, port = daemon.start_http()
            digests = set()
            for run_id in (watched.run_id, job_run):
                status, body = _get(f"http://{host}:{port}/report/{run_id}")
                assert status == 200
                record = daemon.registry.get(run_id)
                assert short_digest(body) == record.report_digest
                digests.add(record.report_digest)
            assert len(digests) == 2
        finally:
            daemon.shutdown()


class TestReadSseEvents:
    def test_rejects_non_http_urls(self):
        with pytest.raises(ReproError, match="http"):
            read_sse_events("file:///etc/passwd")


class TestShardedServe:
    def test_workers_run_full_evaluations_through_the_pool(self, build):
        daemon = ServeDaemon(build, workers=2)
        outcome = daemon.run_once()
        assert outcome.ok is True
        text = daemon.render_metrics()
        assert "sosae_serve_shard_workers 2" in text
        assert 'sosae_serve_shard_wall_seconds{shard="1"}' in text
        assert 'sosae_serve_shard_scenarios{shard="1"}' in text
        daemon.shutdown()

    def test_shutdown_reaps_the_kept_pool(self, build):
        before = set(multiprocessing.active_children())
        daemon = ServeDaemon(build, workers=2)
        assert daemon.run_once().ok and daemon.run_once().ok
        assert len(set(multiprocessing.active_children()) - before) == 2
        daemon.shutdown()
        assert set(multiprocessing.active_children()) <= before

    def test_single_worker_exposes_no_shard_gauges(self, serve_daemon, build):
        daemon = serve_daemon(build)
        daemon.run_once()
        assert "serve_shard" not in daemon.render_metrics()

    def test_workers_must_be_positive(self, build):
        with pytest.raises(ReproError, match="workers"):
            ServeDaemon(build, workers=0)

    def test_sharded_report_matches_single_process(self, build):
        single = ServeDaemon(build)
        sharded = ServeDaemon(build, workers=2)
        single.run_once()
        sharded.run_once()
        assert json.loads(sharded.report_json()) == json.loads(
            single.report_json()
        )
        sharded.shutdown()


class TestContinuousProfiling:
    def test_rejects_bad_profiling_parameters(self, build):
        with pytest.raises(ReproError, match="hz"):
            ServeDaemon(build, profile_hz=0)
        with pytest.raises(ReproError, match="history"):
            ServeDaemon(build, profile_hz=97.0, profile_history=0)

    def test_profile_endpoint_is_404_when_profiling_is_off(self, served):
        _, base = served
        with pytest.raises(urllib.error.HTTPError) as caught:
            _get(f"{base}/profile")
        assert caught.value.code == 404
        assert "profile-hz" in caught.value.read().decode("utf-8")

    def test_profile_endpoint_is_503_before_the_first_run(self, build):
        daemon = ServeDaemon(build, profile_hz=500.0)
        host, port = daemon.start_http()
        try:
            with pytest.raises(urllib.error.HTTPError) as caught:
                _get(f"http://{host}:{port}/profile")
            assert caught.value.code == 503
        finally:
            daemon.shutdown()

    def test_profiled_run_serves_folded_text(self, build):
        daemon = ServeDaemon(build, profile_hz=2000.0)
        daemon.run_once()
        host, port = daemon.start_http()
        try:
            status, body = _get(f"http://{host}:{port}/profile")
            assert status == 200
            assert body.startswith("# sosae-profile format=1 ")
            Profile.from_folded(body)  # parses back
            status, _ = _get(f"http://{host}:{port}/profile?last=1")
            assert status == 200
        finally:
            daemon.shutdown()

    def test_profile_ring_is_bounded_and_last_selects_a_suffix(
        self, serve_daemon, build
    ):
        daemon = serve_daemon(build, profile_hz=2000.0, profile_history=2)
        for _ in range(3):
            daemon.run_once()
        merged_all = Profile.from_folded(daemon.profile_folded())
        merged_last = Profile.from_folded(daemon.profile_folded(last=1))
        assert merged_last.samples <= merged_all.samples

    def test_unprofiled_daemon_reports_no_folded_text(
        self, serve_daemon, build,
    ):
        daemon = serve_daemon(build)
        daemon.run_once()
        assert daemon.profile_folded() is None


class TestInsufficientHistorySurfacing:
    def _anomaly_rule(self, window=6):
        return AlertRule(
            name="wall-step", metric="wall_seconds", source="runs",
            mode="anomaly", window=window, threshold=3.5,
        )

    def test_outcome_names_the_underfilled_rules(
        self, serve_daemon, build, tmp_path,
    ):
        daemon = serve_daemon(
            build,
            registry=RunRegistry(tmp_path / "runs"),
            rules=[self._anomaly_rule(window=6)],
        )
        outcome = daemon.run_once()
        (line,) = outcome.insufficient
        assert line.startswith("wall-step:")
        assert "needs 6" in line

    def test_alerts_endpoint_carries_the_status(self, build, tmp_path):
        daemon = ServeDaemon(
            build,
            registry=RunRegistry(tmp_path / "runs"),
            rules=[self._anomaly_rule(window=6)],
        )
        daemon.run_once()
        host, port = daemon.start_http()
        try:
            status, body = _get(f"http://{host}:{port}/alerts")
            assert status == 200
            (state,) = json.loads(body)["alerts"]
            assert state["status"] == "insufficient-history"
            assert "needs 6" in state["status_detail"]
        finally:
            daemon.shutdown()

    def test_filled_window_clears_the_outcome_field(
        self, serve_daemon, build, tmp_path,
    ):
        daemon = serve_daemon(
            build,
            registry=RunRegistry(tmp_path / "runs"),
            rules=[self._anomaly_rule(window=4)],
        )
        outcomes = [daemon.run_once() for _ in range(5)]
        assert outcomes[0].insufficient
        assert outcomes[-1].insufficient == ()


class TestSpecWatcherFingerprint:
    def test_rewrite_with_identical_mtime_is_still_detected(self, tmp_path):
        """mtime alone is too coarse: force the rewrite to land on the
        exact same timestamp and rely on the size half of the
        (st_mtime_ns, st_size) fingerprint."""
        spec = tmp_path / "a.xml"
        spec.write_text("v1")
        stamp = spec.stat()
        watcher = SpecWatcher([spec])
        watcher.changed()
        spec.write_text("v2 is longer than v1")
        os.utime(spec, ns=(stamp.st_atime_ns, stamp.st_mtime_ns))
        assert spec.stat().st_mtime_ns == stamp.st_mtime_ns
        assert watcher.changed() is True
        assert watcher.changed() is False

    def test_touch_without_content_change_reports_a_change(self, tmp_path):
        # a bumped mtime alone flips the fingerprint (conservative:
        # better a redundant rebuild than a missed one)
        spec = tmp_path / "a.xml"
        spec.write_text("v1")
        watcher = SpecWatcher([spec])
        watcher.changed()
        stamp = spec.stat()
        os.utime(
            spec,
            ns=(stamp.st_atime_ns, stamp.st_mtime_ns + 1_000_000),
        )
        assert watcher.changed() is True


class TestSseSubscriberLeak:
    def test_disconnected_client_is_unsubscribed(self, build):
        """A regression guard for SSE subscriber leaks: after a client
        drops, the next keep-alive write hits the broken pipe and the
        handler's finally-block must return the bus to its baseline
        subscriber count."""
        daemon = ServeDaemon(build, sse_keepalive=0.1)
        daemon.run_once()
        host, port = daemon.start_http()
        try:
            baseline = daemon.bus.subscriber_count
            connection = http.client.HTTPConnection(host, port, timeout=10)
            connection.request("GET", "/events?replay=1")
            response = connection.getresponse()
            assert response.status == 200
            # read one frame so we know the stream is live
            assert b"data:" in response.fp.readline() + response.fp.readline()
            deadline = time.monotonic() + 5.0
            while daemon.bus.subscriber_count <= baseline:
                if time.monotonic() > deadline:
                    pytest.fail("SSE handler never subscribed")
                time.sleep(0.01)
            # the response object holds the socket's file alive; both
            # must go for the server to see the disconnect
            response.close()
            connection.close()
            deadline = time.monotonic() + 5.0
            while daemon.bus.subscriber_count != baseline:
                if time.monotonic() > deadline:
                    pytest.fail(
                        "subscriber leaked after client disconnect: "
                        f"{daemon.bus.subscriber_count} != {baseline}"
                    )
                time.sleep(0.05)
        finally:
            daemon.shutdown()


class TestScrapeUnderLoad:
    def test_metrics_and_healthz_survive_concurrent_runs(self, build, tmp_path):
        """Hammer /metrics and /healthz from threads while the serve
        loop re-evaluates: every scrape answers 200 and the run counter
        never goes backwards."""
        daemon = ServeDaemon(build, registry=RunRegistry(tmp_path / "runs"))
        daemon.run_once()
        host, port = daemon.start_http()
        base = f"http://{host}:{port}"
        failures = []
        # one list per scraping thread: monotonicity is a per-observer
        # property — two threads' reads interleave arbitrarily
        per_thread = [[], [], [], []]
        stop = threading.Event()

        def hammer(path, counters):
            pattern = re.compile(r"sosae_serve_runs_total (\d+)")
            while not stop.is_set():
                try:
                    status, body = _get(f"{base}{path}")
                except Exception as error:  # noqa: BLE001
                    failures.append(f"{path}: {error!r}")
                    return
                if status != 200:
                    failures.append(f"{path}: HTTP {status}")
                    return
                if path == "/metrics":
                    match = pattern.search(body)
                    if not match:
                        failures.append("/metrics: runs counter missing")
                        return
                    counters.append(int(match.group(1)))

        threads = [
            threading.Thread(target=hammer, args=(path, counters))
            for path, counters in zip(
                ("/metrics", "/metrics", "/healthz", "/healthz"),
                per_thread,
            )
        ]
        try:
            for thread in threads:
                thread.start()
            for _ in range(8):
                daemon.run_once()
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10)
            daemon.shutdown()
        assert not failures, failures
        metric_reads = per_thread[0] + per_thread[1]
        assert metric_reads, "scrape threads never read the run counter"
        for counters in per_thread[:2]:
            assert counters == sorted(counters), (
                "run counter went backwards within one scraper"
            )
        assert max(metric_reads) >= 1


def _pims_spec_build(tmp_path):
    """A builder that parses PIMS excised from spec files, as ``sosae
    serve`` does on every spec change: each pipeline is new, and its
    report has findings."""
    pims = build_pims()
    architecture = pims.excised_architecture()
    scenarios = tmp_path / "scenarios.xml"
    xadl = tmp_path / "architecture.xml"
    mapping = tmp_path / "mapping.json"
    scenarios.write_text(to_scenarioml_xml(pims.scenarios))
    xadl.write_text(to_xadl_xml(architecture))
    mapping.write_text(pims.mapping.rebind(architecture).to_json())

    def build() -> Sosae:
        scenario_set = parse_scenarioml(scenarios.read_bytes())
        parsed = parse_xadl(xadl.read_bytes())
        return Sosae(
            scenario_set,
            parsed,
            Mapping.from_json(
                mapping.read_text(), scenario_set.ontology, parsed
            ),
            constraints=pims.constraints,
            walkthrough_options=pims.options,
        )

    return build


class TestHeapFreeze:
    """A daemon freezes the heap after the first successful run of each
    pipeline it builds, and unfreezes it before a rebuild and at
    shutdown."""

    def test_what_is_frozen_holds_no_cyclic_garbage(
        self, serve_daemon, tmp_path, monkeypatch
    ):
        build = _pims_spec_build(tmp_path)
        garbage = []
        freeze = gc.freeze

        def checked_freeze():
            garbage.append(gc.collect())
            freeze()

        monkeypatch.setattr(gc, "freeze", checked_freeze)
        # networkx compiles a decorated function on its first call and
        # leaves a small cycle behind, once per process: call them now.
        assert build().evaluate().all_inconsistencies()
        gc.collect()
        gc.disable()
        try:
            daemon = serve_daemon(
                build, registry=RunRegistry(tmp_path / "runs")
            )
            assert daemon.run_once().ok
            assert daemon.run_once().ok
            assert daemon.run_once(rebuild=True).ok
        finally:
            gc.enable()
        # The readiness run and the first run after the rebuild froze.
        assert garbage == [0, 0]

    def test_shutdown_unfreezes(self, build):
        daemon = ServeDaemon(build)
        assert daemon.run_once().ok
        assert gc.get_freeze_count() > 0
        daemon.shutdown()
        assert gc.get_freeze_count() == 0

    def test_a_failed_first_run_freezes_nothing(self, serve_daemon):
        def failing_build():
            raise ReproError("spec went sideways")

        daemon = serve_daemon(failing_build)
        assert not daemon.run_once().ok
        assert gc.get_freeze_count() == 0

    def test_rebuilds_hold_one_pipeline_at_a_time(
        self, serve_daemon, tmp_path, monkeypatch
    ):
        build = _pims_spec_build(tmp_path)
        gc.collect()
        before = len(gc.get_objects())
        pipeline = build()
        pipeline.evaluate()
        gc.collect()
        worth = len(gc.get_objects()) - before
        del pipeline
        frozen_in_evaluate = []
        evaluate = Sosae.evaluate

        def noted(self, *args, **kwargs):
            frozen_in_evaluate.append(gc.get_freeze_count())
            return evaluate(self, *args, **kwargs)

        monkeypatch.setattr(Sosae, "evaluate", noted)
        daemon = serve_daemon(build)
        # Fill the bus's buffer, which keeps each run's events.
        bus = daemon.bus
        while len(bus.events()) < bus.capacity:
            assert daemon.run_once().ok
        assert frozen_in_evaluate[0] == 0 < frozen_in_evaluate[-1]
        frozen, tracked = [], []
        for _ in range(20):
            # What the serve loop runs after a watched spec file changed.
            assert daemon.run_once(rebuild=True).ok
            gc.collect()
            frozen.append(gc.get_freeze_count())
            tracked.append(len(gc.get_objects()))
        # A rebuilt pipeline is evaluated with the heap unfrozen, so the
        # pipeline it replaces is the collector's again.
        assert frozen_in_evaluate[-20:] == [0] * 20
        assert max(frozen) - min(frozen) < worth
        assert max(tracked) - min(tracked) < worth

    def test_a_replayed_tick_is_observed_as_a_walked_one(
        self, serve_daemon, monkeypatch
    ):
        pims = build_pims()
        architecture = pims.excised_architecture()
        mapping = pims.mapping.rebind(architecture)
        scenarios = ScenarioSet(pims.ontology, name="pims-x4")
        scenarios.extend(pims.scenarios)
        for index in range(1, 4):
            scenarios.extend(
                replace(scenario, name=f"{scenario.name}+r{index}")
                for scenario in pims.scenarios
                if scenario.alternative_of is None
            )

        def build() -> Sosae:
            return Sosae(
                scenarios,
                architecture,
                mapping,
                constraints=pims.constraints,
                walkthrough_options=pims.options,
            )

        # A warm index: the walked tick builds no graph, as a replay.
        build().evaluate()
        recorders = []

        def recorder(**channels) -> Recorder:
            recorders.append(Recorder(**channels))
            return recorders[-1]

        monkeypatch.setattr(repro.obs.serve, "Recorder", recorder)
        daemon = serve_daemon(build)
        for _ in range(3):
            assert daemon.run_once().ok
        events = [
            [event.kind, {
                name: value
                for name, value in event.to_dict().items()
                if name not in ("seq", "timestamp", "wall_seconds")
            }]
            for event in daemon.bus.events()
        ]
        starts = [
            index for index, (kind, _) in enumerate(events)
            if kind == "evaluation-started"
        ]
        walked, replayed, again = (
            events[start:end]
            for start, end in zip(starts, [*starts[1:], len(events)])
        )
        assert walked == replayed == again
        assert any(kind == "scenario-finished" for kind, _ in walked)
        forests = [_untimed(recorder.roots) for recorder in recorders]
        assert forests[0] == forests[1] == forests[2]
        digests = {recorder.coverage.digest for recorder in recorders}
        assert len(digests) == 1


def _untimed(spans) -> list:
    """A span forest's names, ids and attributes, preorder."""
    return [
        [
            span.name,
            span.span_id,
            span.parent_id,
            list(span.attributes.items()),
            _untimed(span.children),
        ]
        for span in spans
    ]

