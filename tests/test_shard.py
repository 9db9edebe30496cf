"""Multi-process sharded evaluation: report parity and merged telemetry.

The contract under test is the strongest one the shard engine makes:
``BatchEvaluator(workers=N).evaluate(sosae)`` produces the *same report*
as single-process ``sosae.evaluate()`` — same verdicts, same findings,
same order — for any worker count, while the merged telemetry looks like
one recorder's output (one span tree, per-shard lanes, folded metrics).

The worker count for the parity suite honors ``SOSAE_PARITY_WORKERS``
(comma-separated), so CI can run the same tests as a ``--workers 1,2,4``
matrix; the default exercises 1 (degenerate), 2, and 4.
"""

from __future__ import annotations

import json
import multiprocessing
import os

import pytest

from repro.adl.xadl import to_xadl_xml
from repro.core.evaluator import Sosae
from repro.core.mapping import Mapping
from repro.core.report_io import report_to_dict
from repro.errors import EvaluationError
from repro.obs import EventBus, Recorder, use, use_events
from repro.obs.context import TraceContext, new_trace_id
from repro.scenarioml.xml_io import to_scenarioml_xml
from repro.shard import (
    BatchEvaluator,
    ShardTask,
    init_worker,
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
        # Running the worker entry points in this process leaves a
        # built pipeline behind, which a forked pool inherits. The pool
        # must walk the spec it is given, not that pipeline, even when
        # the architecture is unchanged and only the mapping differs.
        pims = build_pims()
        before = _sosae(pims, pims.excised_architecture())
        init_worker({
            "scenarioml": to_scenarioml_xml(before.scenario_set),
            "xadl": to_xadl_xml(before.architecture),
            "mapping": before.mapping.to_json(),
            "options": before.walkthrough_options,
        })
        run_shard(ShardTask(
            shard=1,
            scenarios=(before.scenario_set.scenarios[0].name,),
            context=TraceContext(trace_id=new_trace_id(), shard=1),
        ))
        document = json.loads(before.mapping.to_json())
        del document["entries"]["initiateFunction"]
        after = Sosae(
            before.scenario_set,
            before.architecture,
            Mapping.from_json(
                json.dumps(document),
                before.scenario_set.ontology,
                before.architecture,
            ),
            constraints=before.constraints,
            walkthrough_options=before.walkthrough_options,
        )
        expected = after.evaluate()
        actual = BatchEvaluator(
            workers=2, mp_context=multiprocessing.get_context("fork")
        ).evaluate(after)
        assert report_to_dict(actual) == report_to_dict(expected)


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
        assert evaluator.last_trace_id
        assert evaluator.last_telemetry is not None

    def test_disabled_observability_still_reaches_parity(self):
        sosae = _sosae(build_pims())
        expected = sosae.evaluate()
        actual = BatchEvaluator(workers=2).evaluate(sosae)
        assert report_to_dict(actual) == report_to_dict(expected)


class TestShardTaskTransport:
    def test_task_is_picklable(self):
        import pickle

        from repro.obs.context import TraceContext

        task = ShardTask(
            shard=1,
            scenarios=("a", "b"),
            context=TraceContext(trace_id="t" * 16, shard=1,
                                 parent_span_id="s0.3"),
        )
        assert pickle.loads(pickle.dumps(task)) == task
