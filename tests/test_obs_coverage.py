"""Tests for the element-coverage matrix (repro.obs.coverage): the
builder fed from an evaluation's verdicts, deterministic finalize,
sharded parity, diff semantics, persistence on run records,
alert/CLI/serve surfaces, and log compaction."""

from __future__ import annotations

import json

import pytest

from repro.adl.structure import Architecture, Direction, Interface
from repro.core.evaluator import Sosae
from repro.core.mapping import Mapping
from repro.errors import ReproError
from repro.obs import (
    NULL_COVERAGE,
    AlertEngine,
    AlertRule,
    AuditLog,
    CoverageBuilder,
    CoverageMatrix,
    JobRecord,
    JobRegistry,
    Recorder,
    RunRegistry,
    compact_job_logs,
    coverage_scalars,
    current_instruments,
    diff_coverage,
    format_event,
    use,
    use_coverage,
    use_events,
)
from repro.obs.events import CoverageComputed, EventBus
from repro.scenarioml.events import TypedEvent
from repro.scenarioml.ontology import Ontology, Parameter
from repro.scenarioml.scenario import Scenario, ScenarioSet


def _build_sosae(
    scenario_names=("s1", "s2"),
    map_destroy=True,
    map_read_to_ui=True,
):
    """A small 3-component pipeline with one dead mapping knob
    (``map_destroy``: mapped but never used) and one component knob
    (``map_read_to_ui``: off leaves ``ui`` untouched)."""
    onto = Ontology("o")
    onto.define_event_type("base", "b", abstract=True)
    onto.define_event_type(
        "create", "c", super_name="base",
        parameters=(Parameter("what", "string"),),
    )
    onto.define_event_type("read", "r", super_name="base")
    onto.define_event_type("write", "w", super_name="base")
    onto.define_event_type("destroy", "d")
    arch = Architecture("a")
    for name in ("ui", "logic", "store"):
        arch.add_component(name, interfaces=(
            Interface("in", Direction.IN),
            Interface("out", Direction.OUT),
        ))
    arch.link(("ui", "out"), ("logic", "in"))
    arch.link(("logic", "out"), ("store", "in"))
    mapping = Mapping(onto, arch)
    mapping.map_event("base", "logic")
    mapping.map_event("create", "logic", "store")
    mapping.map_event(
        "read", *(("ui", "logic") if map_read_to_ui else ("logic",))
    )
    if map_destroy:
        mapping.map_event("destroy", "logic", "store")
    sset = ScenarioSet(onto, name="s")
    events = (
        TypedEvent(type_name="read", arguments={}),
        TypedEvent(type_name="create", arguments={"what": "x"}),
        TypedEvent(type_name="write", arguments={}),  # supertype hop
    )
    for name in scenario_names:
        sset.add(Scenario(name=name, events=events))
    return Sosae(architecture=arch, scenario_set=sset, mapping=mapping)


def _evaluate_matrix(sosae) -> CoverageMatrix:
    recorder = Recorder()
    with use(recorder):
        sosae.evaluate()
    return recorder.coverage


class TestCoverageBuilder:
    def test_null_coverage_is_default_and_inert(self):
        assert current_instruments().coverage is NULL_COVERAGE
        assert not NULL_COVERAGE.enabled
        # A no-op, never raises.
        NULL_COVERAGE.record_constraint("C", True)

    def test_use_coverage_installs_and_restores(self):
        builder = CoverageBuilder()
        sosae = _build_sosae()
        with use_coverage(builder):
            assert current_instruments().coverage is builder
            # Fed from the verdicts with the recorder and bus off, too.
            sosae.evaluate()
        assert current_instruments().coverage is NULL_COVERAGE
        assert builder.finalize(
            sosae.scenario_set, sosae.mapping
        ) == _evaluate_matrix(sosae)


class TestCoverageMatrix:
    def test_evaluation_records_matrix_facts(self):
        matrix = _evaluate_matrix(_build_sosae())
        assert matrix.component_coverage == 1.0
        # destroy is mapped but never used by a scenario.
        assert set(matrix.dead_mappings) == {"destroy"}
        # write resolves via the abstract base entry: supertype hops,
        # and the component that entry names counts as exercised.
        assert matrix.supertype_resolutions == 2
        assert matrix.cells["write"] == {"logic": 2}
        assert "base" not in matrix.dead_mappings
        assert "destroy" in matrix.unexercised_event_types
        # Abstract event types are never reported unexercised.
        assert "base" not in matrix.unexercised_event_types

    def test_digest_round_trip(self):
        matrix = _evaluate_matrix(_build_sosae())
        restored = CoverageMatrix.from_dict(
            json.loads(json.dumps(matrix.to_dict()))
        )
        assert restored == matrix
        assert restored.digest == matrix.digest

    def test_tampered_payload_fails_digest_check(self):
        data = _evaluate_matrix(_build_sosae()).to_dict()
        data["resolutions"] = 999
        with pytest.raises(ValueError, match="digest mismatch"):
            CoverageMatrix.from_dict(data)

    def test_canonical_json_is_deterministic(self):
        first = _evaluate_matrix(_build_sosae())
        second = _evaluate_matrix(_build_sosae())
        assert first.canonical_json() == second.canonical_json()

    def test_empty_scenario_set_counts_nothing(self):
        matrix = _evaluate_matrix(_build_sosae(scenario_names=()))
        assert matrix.resolutions == 0
        assert matrix.component_coverage == 0.0
        assert matrix.exercised_components == ()
        # Every mapped entry is dead when nothing runs.
        assert len(matrix.dead_mappings) == 4

    def test_all_abstract_ontology_has_full_event_type_coverage(self):
        onto = Ontology("o")
        onto.define_event_type("base", "b", abstract=True)
        arch = Architecture("a")
        arch.add_component("solo")
        mapping = Mapping(onto, arch)
        sset = ScenarioSet(onto, name="s")
        sosae = Sosae(architecture=arch, scenario_set=sset, mapping=mapping)
        matrix = _evaluate_matrix(sosae)
        # Zero concrete event types: the universe is empty, which is
        # full coverage (1.0), never a division by zero.
        assert matrix.event_type_coverage == 1.0
        assert matrix.unexercised_event_types == ()

    def test_zero_link_architecture_has_full_link_coverage(self):
        onto = Ontology("o")
        onto.define_event_type("ping", "p")
        arch = Architecture("a")
        arch.add_component("solo")
        mapping = Mapping(onto, arch)
        mapping.map_event("ping", "solo")
        sset = ScenarioSet(onto, name="s")
        sset.add(Scenario(name="s1", events=(
            TypedEvent(type_name="ping", arguments={}),
        )))
        sosae = Sosae(architecture=arch, scenario_set=sset, mapping=mapping)
        matrix = _evaluate_matrix(sosae)
        assert matrix.link_coverage == 1.0
        assert matrix.uncovered_links == ()

    def test_render_mentions_key_facts(self):
        matrix = _evaluate_matrix(_build_sosae())
        rendered = matrix.render()
        assert "components" in rendered
        assert matrix.digest in rendered
        gaps = matrix.render_gaps()
        assert "destroy" in gaps


class TestShardMerge:
    def test_multiworker_evaluation_matches_single_process_bytes(self):
        from repro.shard import BatchEvaluator

        recorder = Recorder()
        with use(recorder):
            _build_sosae(
                scenario_names=tuple(f"s{i}" for i in range(6))
            ).evaluate()
        single = recorder.coverage.canonical_json()
        recorder = Recorder()
        with use(recorder):
            BatchEvaluator(workers=3).evaluate(
                _build_sosae(
                    scenario_names=tuple(f"s{i}" for i in range(6))
                )
            )
        assert recorder.coverage.canonical_json() == single


class TestCoverageDiff:
    def test_regression_detected_on_excised_component(self):
        before = _evaluate_matrix(_build_sosae())
        after = _evaluate_matrix(_build_sosae(map_read_to_ui=False))
        diff = diff_coverage(before, after)
        assert diff.newly_untouched_components == ("ui",)
        assert diff.regressed()
        assert diff.regressed(threshold=0.5) is False
        assert "ui" in diff.render()

    def test_clean_diff_does_not_regress(self):
        before = _evaluate_matrix(_build_sosae())
        after = _evaluate_matrix(_build_sosae())
        diff = diff_coverage(before, after)
        assert not diff.regressed()
        assert diff.newly_uncovered == 0


class TestCoverageScalarsAndAlerts:
    def test_scalars_include_drift_with_previous(self):
        before = _evaluate_matrix(_build_sosae()).to_dict()
        after = _evaluate_matrix(
            _build_sosae(map_read_to_ui=False)
        ).to_dict()
        scalars = coverage_scalars(after, previous=before)
        assert scalars["coverage.newly_untouched_components"] == 1.0
        assert scalars["coverage.component_drop"] > 0
        assert 0.0 <= scalars["coverage.component_ratio"] <= 1.0

    def test_coverage_mode_rule_normalizes_metric_and_fires(self):
        rule = AlertRule(
            name="floor", metric="component_ratio", threshold=0.9,
            op="<", mode="coverage",
        )
        assert rule.metric == "coverage.component_ratio"
        engine = AlertEngine([rule])
        fired = engine.evaluate(
            {"coverage.component_ratio": 0.5}, now=1.0
        )
        assert [event.rule for event in fired] == ["floor"]

    def test_coverage_mode_requires_metric_source(self):
        with pytest.raises(ReproError, match="coverage"):
            AlertRule(
                name="bad", metric="x", threshold=0,
                mode="coverage", source="runs", window=2,
            )


class TestCoverageEvent:
    def test_evaluation_emits_coverage_computed(self):
        bus = EventBus()
        with use_events(bus):
            _build_sosae().evaluate()
        events = [
            event for event in bus.events()
            if isinstance(event, CoverageComputed)
        ]
        assert len(events) == 1
        line = format_event(events[0])
        assert "coverage-computed" in line
        assert "dead mapping" in line

    def test_tail_type_glob_matches_kind(self):
        from repro.cli import _event_filter

        keep = _event_filter(None, "coverage-*")
        event = CoverageComputed(
            components_exercised=1, components_total=1, links_covered=0,
            links_total=0, event_types_used=1, event_types_total=1,
            dead_mappings=0, digest="ab",
        )
        assert keep(event)
        assert not _event_filter(None, "job-*")(event)


class TestRunPersistence:
    def test_recorded_run_carries_digest_verified_coverage(self, tmp_path):
        registry = RunRegistry(tmp_path)
        sosae = _build_sosae()
        recorder = Recorder()
        with use(recorder):
            report = sosae.evaluate()
        record = registry.record("t", report, recorder)
        matrix = CoverageMatrix.from_dict(record.coverage)
        assert matrix.digest == record.coverage["digest"]

    def test_runs_compact_keeps_ids_monotonic(self, tmp_path):
        registry = RunRegistry(tmp_path)
        sosae = _build_sosae()
        for _ in range(3):
            recorder = Recorder()
            with use(recorder):
                report = sosae.evaluate()
            registry.record("t", report, recorder)
        stats = registry.compact(keep=1)
        assert stats == {"kept": 1, "dropped": 2}
        assert [r.run_id for r in registry.load()] == ["r0003"]
        recorder = Recorder()
        with use(recorder):
            report = sosae.evaluate()
        record = registry.record("t", report, recorder)
        # Never re-mints a compacted id.
        assert record.run_id == "r0004"

    def test_runs_compact_rejects_bad_keep(self, tmp_path):
        with pytest.raises(ReproError):
            RunRegistry(tmp_path).compact(keep=0)


class TestJobCompaction:
    def _add(self, registry, audit, job_id, state, *, ts, finished=0.0):
        registry.append(JobRecord(
            job_id=job_id, tenant="t", state=state, spec_digest="d",
            submitted_at=ts, started_at=ts, finished_at=finished,
        ))
        audit.append(
            timestamp=ts, actor="a", tenant="t", job_id=job_id,
            transition=state, spec_digest="d",
        )

    def test_compact_collapses_only_old_terminal_jobs(self, tmp_path):
        registry = JobRegistry(tmp_path)
        audit = AuditLog(tmp_path)
        now = 1_000_000.0
        old = now - 10 * 86400
        self._add(registry, audit, "j1", "queued", ts=old)
        self._add(registry, audit, "j1", "running", ts=old)
        self._add(registry, audit, "j1", "done", ts=old, finished=old)
        self._add(registry, audit, "j2", "done", ts=now, finished=now)
        self._add(registry, audit, "j3", "running", ts=old)
        stats = compact_job_logs(registry, audit, keep_days=7, now=now)
        assert stats["stale_jobs"] == 1
        assert stats["jobs_dropped"] == 2
        assert stats["audit_dropped"] == 2
        states = {r.job_id: r.state for r in registry.load()}
        assert states == {"j1": "done", "j2": "done", "j3": "running"}
        audit_ids = [entry["job_id"] for entry in audit.entries()]
        assert audit_ids.count("j1") == 1
        assert audit_ids.count("j3") == 1

    def test_compact_is_idempotent(self, tmp_path):
        registry = JobRegistry(tmp_path)
        audit = AuditLog(tmp_path)
        old = 1_000.0
        now = old + 30 * 86400
        self._add(registry, audit, "j1", "queued", ts=old)
        self._add(registry, audit, "j1", "done", ts=old, finished=old)
        compact_job_logs(registry, audit, keep_days=7, now=now)
        again = compact_job_logs(registry, audit, keep_days=7, now=now)
        assert again["jobs_dropped"] == 0
        assert again["audit_dropped"] == 0
