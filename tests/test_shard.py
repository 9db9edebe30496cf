"""Multi-process sharded evaluation: report parity and observation.

The contract under test is the strongest one the shard engine makes:
``BatchEvaluator(workers=N).evaluate(sosae)`` produces the *same report*
as single-process ``sosae.evaluate()`` — same verdicts, same findings,
same order — for any worker count, and the parent observes the workers'
rows as its own walk (one span tree with per-shard lanes, the serial
walk's counters and events, the workers' profiles).

The worker count for the parity suite honors ``SOSAE_PARITY_WORKERS``
(comma-separated), so CI can run the same tests as a ``--workers 1,2,4``
matrix; the default exercises 1 (degenerate), 2, and 4.
"""

from __future__ import annotations

import json
import multiprocessing
import multiprocessing.connection
import os
import signal

import pytest

from repro.adl.xadl import to_xadl_xml
from repro.core.evaluator import Sosae
from repro.core.mapping import Mapping
from repro.core.report_io import report_to_dict, report_to_json
from repro.errors import EvaluationError
from repro.obs import (
    CoverageBuilder,
    EventBus,
    JsonlSink,
    Recorder,
    SamplingProfiler,
    instrumented,
    use,
    use_events,
)
from repro.scenarioml.xml_io import to_scenarioml_xml
from repro.shard import (
    BatchEvaluator,
    ShardTask,
    plan_shards,
    run_shard,
)
from repro.systems.crash import build_crash
from repro.systems.generators import SyntheticSpec, build_synthetic
from repro.systems.pims import build_pims


def _worker_counts() -> tuple[int, ...]:
    raw = os.environ.get("SOSAE_PARITY_WORKERS", "1,2,4")
    return tuple(int(part) for part in raw.split(",") if part.strip())


def _sosae(built, architecture=None) -> Sosae:
    architecture = architecture or built.architecture
    return Sosae(
        built.scenarios,
        architecture,
        built.mapping.rebind(architecture),
        constraints=getattr(built, "constraints", ()),
        walkthrough_options=getattr(built, "options", None),
    )


def _spec(sosae: Sosae) -> dict:
    return {
        "scenarioml": to_scenarioml_xml(sosae.scenario_set),
        "xadl": to_xadl_xml(sosae.architecture),
        "mapping": sosae.mapping.to_json(),
        "options": sosae.walkthrough_options,
    }


def _assert_parity(sosae: Sosae, workers: int) -> BatchEvaluator:
    expected = sosae.evaluate()
    evaluator = BatchEvaluator(workers=workers)
    actual = evaluator.evaluate(sosae)
    assert report_to_dict(actual) == report_to_dict(expected)
    # Full-fidelity transport: message traces survive the pool, so the
    # verdict objects compare equal, not just their JSON projections.
    assert actual.scenario_verdicts == expected.scenario_verdicts
    assert actual.findings == expected.findings
    return evaluator


class TestPlanShards:
    def test_contiguous_balanced_order_preserving(self):
        names = tuple(f"s{i}" for i in range(10))
        chunks = plan_shards(names, 3)
        assert len(chunks) == 3
        assert tuple(n for chunk in chunks for n in chunk) == names
        sizes = sorted(len(chunk) for chunk in chunks)
        assert max(sizes) - min(sizes) <= 1

    def test_more_shards_than_names_collapses(self):
        chunks = plan_shards(("a", "b"), 8)
        assert chunks == (("a",), ("b",))

    def test_empty_selection_yields_no_chunks(self):
        assert plan_shards((), 4) == ()

    def test_zero_shards_rejected(self):
        with pytest.raises(EvaluationError):
            plan_shards(("a",), 0)


class TestParity:
    @pytest.mark.parametrize("workers", _worker_counts())
    def test_pims_intact(self, workers):
        _assert_parity(_sosae(build_pims()), workers)

    @pytest.mark.parametrize("workers", _worker_counts())
    def test_pims_excised_fault(self, workers):
        pims = build_pims()
        _assert_parity(_sosae(pims, pims.excised_architecture()), workers)

    @pytest.mark.parametrize("workers", _worker_counts())
    def test_crash_negative_scenarios(self, workers):
        _assert_parity(_sosae(build_crash()), workers)

    def test_generated_system(self):
        system = build_synthetic(SyntheticSpec(scenarios=9, seed=3))
        _assert_parity(_sosae(system), 4)

    def test_scenario_subset_selection(self):
        sosae = _sosae(build_pims())
        names = tuple(s.name for s in sosae.scenario_set.scenarios)[:5]
        expected = sosae.evaluate(scenario_names=names)
        actual = BatchEvaluator(workers=2).evaluate(
            sosae, scenario_names=names
        )
        assert report_to_dict(actual) == report_to_dict(expected)

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(EvaluationError):
            BatchEvaluator(workers=0)

    def test_dynamic_stage_runs_after_sharded_walk(self):
        pims = build_pims()
        sosae = Sosae(
            pims.scenarios,
            pims.architecture,
            pims.mapping,
            bindings=pims.bindings,
            walkthrough_options=pims.options,
        )
        options = {
            "include_dynamic": True,
            "dynamic_scenarios": ("get-share-prices",),
        }
        expected = sosae.evaluate(**options)
        actual = BatchEvaluator(workers=2).evaluate(sosae, **options)
        assert actual.dynamic_verdicts
        assert report_to_dict(actual) == report_to_dict(expected)

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="needs the fork start method",
    )
    def test_forked_pool_ignores_pipeline_built_in_parent(self):
        # Running the worker entry point in this process leaves a built
        # pipeline behind, which a forked pool inherits. One kept pool
        # must walk the spec each evaluation ships — not that pipeline,
        # nor one built for an earlier evaluation — across a mapping-only
        # edit, an architecture-only edit and returns to the first spec,
        # as serve alternates between watched-spec ticks and job bundles.
        pims = build_pims()
        first = _sosae(pims, pims.excised_architecture())
        document = json.loads(first.mapping.to_json())
        del document["entries"]["initiateFunction"]
        mapping_edit = Sosae(
            first.scenario_set,
            first.architecture,
            Mapping.from_json(
                json.dumps(document),
                first.scenario_set.ontology,
                first.architecture,
            ),
            constraints=first.constraints,
            walkthrough_options=first.walkthrough_options,
        )
        architecture_edit = _sosae(pims)
        run_shard(ShardTask(
            shard=1,
            scenarios=(first.scenario_set.scenarios[0].name,),
            spec=_spec(mapping_edit),
        ))
        sequence = (first, mapping_edit, first, architecture_edit, first)
        expected = [report_to_dict(sosae.evaluate()) for sosae in sequence]
        assert expected[0] != expected[1] != expected[3] != expected[0]
        with BatchEvaluator(
            workers=2, mp_context=multiprocessing.get_context("fork")
        ) as evaluator:
            actual = [
                report_to_dict(evaluator.evaluate(sosae)) for sosae in sequence
            ]
        assert actual == expected

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="needs the fork start method",
    )
    def test_forked_workers_leave_the_parent_bus_alone(self, tmp_path):
        # The pool forks while the parent's bus is installed; a worker
        # pulsing its copy would write heartbeats to the parent's sink.
        sosae = _sosae(build_pims())
        path = tmp_path / "events.jsonl"
        bus = EventBus(capacity=1 << 14, heartbeat_interval=1e-9)
        sink = JsonlSink(path, flush_every=1)
        bus.subscribe(sink)
        with use_events(bus), BatchEvaluator(
            workers=2, mp_context=multiprocessing.get_context("fork")
        ) as evaluator:
            evaluator.evaluate(sosae)
        sink.close()
        assert path.read_text(encoding="utf-8").splitlines() == [
            json.dumps(event.to_dict(), sort_keys=True)
            for event in bus.events()
        ]

    def test_dead_worker_fails_one_evaluation_then_pool_recovers(self):
        sosae = _sosae(build_pims())
        expected = report_to_json(sosae.evaluate())
        before = set(multiprocessing.active_children())
        with BatchEvaluator(workers=2) as evaluator:
            evaluator.evaluate(sosae)
            victim = next(iter(set(multiprocessing.active_children()) - before))
            os.kill(victim.pid, signal.SIGKILL)
            assert multiprocessing.connection.wait([victim.sentinel], timeout=10)
            with pytest.raises(EvaluationError, match="shard pool broke"):
                evaluator.evaluate(sosae)
            assert report_to_json(evaluator.evaluate(sosae)) == expected

    def test_close_reaps_workers_and_is_idempotent(self):
        sosae = _sosae(build_pims())
        before = set(multiprocessing.active_children())
        evaluator = BatchEvaluator(workers=2)
        evaluator.evaluate(sosae)
        evaluator.evaluate(sosae)
        workers = set(multiprocessing.active_children()) - before
        assert len(workers) == 2
        evaluator.close()
        evaluator.close()
        assert not workers & set(multiprocessing.active_children())
        assert all(worker.exitcode is not None for worker in workers)


class TestMergedTelemetry:
    def test_spans_stitch_into_one_tree_with_shard_lanes(self):
        sosae = _sosae(build_pims())
        recorder = Recorder()
        evaluator = BatchEvaluator(workers=3)
        with use(recorder):
            evaluator.evaluate(sosae)
        assert len(recorder.roots) == 1
        root = recorder.roots[0]
        assert root.name == "evaluate"
        shards = {span.shard or 0 for span in root.iter_spans()}
        assert shards == {0, 1, 2, 3}
        scenario_spans = [
            span
            for span in root.iter_spans()
            if span.name == "walkthrough.scenario"
        ]
        assert len(scenario_spans) == len(sosae.scenario_set.scenarios)
        # Every worker span's time was rebased into the parent's clock:
        # it must land inside its stitched parent's interval (with slack
        # for coarse clocks).
        walkthrough = next(
            span for span in root.iter_spans()
            if span.name == "evaluate.walkthrough"
        )
        for span in scenario_spans:
            assert span.start_wall >= walkthrough.start_wall - 0.05
            assert span.end_wall <= walkthrough.end_wall + 0.05

    def test_metrics_fold_into_parent_registry(self):
        sosae = _sosae(build_pims())
        single = Recorder()
        with use(single):
            sosae.evaluate()
        merged = Recorder()
        with use(merged):
            BatchEvaluator(workers=3).evaluate(sosae)
        single_steps = single.metrics.to_dict()["walkthrough.steps"]
        merged_steps = merged.metrics.to_dict()["walkthrough.steps"]
        assert merged_steps == single_steps

    def test_worker_events_forward_into_parent_bus(self):
        sosae = _sosae(build_pims())
        single_bus = EventBus()
        with use_events(single_bus):
            sosae.evaluate()
        bus = EventBus()
        with use_events(bus):
            BatchEvaluator(workers=3).evaluate(sosae)
        kinds = [event.kind for event in bus.events()]
        single_kinds = [event.kind for event in single_bus.events()]
        assert sorted(kinds) == sorted(single_kinds)
        # One global sequence, strictly increasing.
        seqs = [event.seq for event in bus.events()]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)
        # Scenario events from the workers made the trip.
        assert any(kind == "scenario-finished" for kind in kinds)

    @pytest.mark.parametrize("workers", _worker_counts())
    def test_all_four_channels_cross_the_process_boundary(self, workers):
        system = build_synthetic(SyntheticSpec(scenarios=120, seed=3))
        sosae = _sosae(system)
        serial = Recorder()
        with instrumented(recorder=serial):
            sosae.evaluate()
        recorder, bus = Recorder(), EventBus()
        builder = CoverageBuilder()
        profiler = SamplingProfiler(hz=2000.0)
        # The profiles the workers returned, as the parent folds them in.
        shipped = []
        ingest = profiler.ingest
        profiler.ingest = lambda profile: (
            shipped.append(profile), ingest(profile)
        )
        evaluator = BatchEvaluator(workers=workers)
        with instrumented(
            recorder=recorder, events=bus, coverage=builder, profiler=profiler
        ), profiler:
            evaluator.evaluate(sosae)
        # Coverage: the shards' counts summed into the installed builder.
        matrix = builder.finalize(sosae.scenario_set, sosae.mapping)
        assert matrix.digest == serial.coverage.digest
        # Events: every worker's scenario events reached the parent bus.
        finished = [
            event.scenario
            for event in bus.events()
            if event.kind == "scenario-finished"
        ]
        names = [scenario.name for scenario in sosae.scenario_set.scenarios]
        assert sorted(finished) == sorted(names)
        # Spans: one shard lane per shard, in one tree.
        shards = len(evaluator.last_shard_stats)
        assert shards == min(workers, len(names))
        (root,) = recorder.roots
        lanes = {
            span.shard for span in root.iter_spans()
            if span.name == "walkthrough.scenario"
        }
        assert lanes == set(range(1, shards + 1))
        # Profile: every worker's profile folded into the parent's.
        assert len(shipped) == shards
        assert sum(profile.samples for profile in shipped)
        parent_profile = profiler.profile()
        for profile in shipped:
            for stack, count in profile.counts.items():
                assert parent_profile.counts.get(stack, 0) >= count

    def test_shard_stats_cover_all_scenarios(self):
        sosae = _sosae(build_pims())
        evaluator = BatchEvaluator(workers=3)
        evaluator.evaluate(sosae)
        stats = evaluator.last_shard_stats
        assert [s.shard for s in stats] == [1, 2, 3]
        assert sum(s.scenarios for s in stats) == len(
            sosae.scenario_set.scenarios
        )
        assert all(s.wall_seconds >= 0 for s in stats)

    def test_disabled_observability_still_reaches_parity(self):
        sosae = _sosae(build_pims())
        expected = sosae.evaluate()
        actual = BatchEvaluator(workers=2).evaluate(sosae)
        assert report_to_dict(actual) == report_to_dict(expected)


class TestShardTaskTransport:
    def test_task_is_picklable(self):
        import pickle

        task = ShardTask(
            shard=1,
            scenarios=("a", "b"),
            spec=_spec(_sosae(build_pims())),
            observed=True,
            profile_hz=97.0,
        )
        assert pickle.loads(pickle.dumps(task)) == task
