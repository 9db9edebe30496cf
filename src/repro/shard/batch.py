"""A minimal process-pool shard evaluator — the first concrete cut of
the ROADMAP's sharded parallel evaluation engine.

:class:`BatchEvaluator` is a *walk executor* for the one evaluation
pipeline, :meth:`repro.core.evaluator.Sosae.evaluate_with`: every stage
runs in the parent exactly as in a serial evaluation, except that the
walkthrough stage fans out across ``workers`` OS processes:

* the selected scenarios are split into ``workers`` contiguous shards
  (set order preserved, so concatenating shard verdicts in shard order
  *is* the single-process verdict order);
* one pool, kept until :meth:`BatchEvaluator.close`, runs every
  evaluation; each task ships the serialized artifacts, which a worker
  parses only when they changed, and records telemetry under the
  :class:`~repro.obs.context.TraceContext` the parent minted for it;
* worker partials stream through a
  :class:`~repro.obs.collector.TelemetryCollector` in completion order
  and merge deterministically: spans stitch under the parent's
  ``evaluate.walkthrough`` span, metrics fold into the parent registry,
  and the parent's instrument bundle absorbs the rest in one step:
  profiles fold into its profiler, and worker events are forwarded into
  its live bus in ``(shard, seq)`` order.

The result is the report ``Sosae.evaluate`` produces — same verdicts,
same findings, same order — plus one merged telemetry view. Coverage
is derived in the parent from the merged verdicts, like every
evaluation's. Dynamic evaluation, when asked for, runs in the parent
after the sharded walk.
"""

from __future__ import annotations

import threading
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.adl.xadl import to_xadl_xml
from repro.core.consistency import EvaluationReport, ScenarioVerdict
# Not called here: the benchmark harness's traced pass wraps the name in
# this module (benchmarks/harness/layers.py), so it must resolve.
from repro.core.constraints import check_constraints  # noqa: F401
from repro.core.evaluator import Sosae
from repro.errors import EvaluationError
from repro.obs.collector import MergedTelemetry, TelemetryCollector
from repro.obs.context import TraceContext, new_trace_id
from repro.obs.instruments import current_instruments
from repro.scenarioml.scenario import Scenario
from repro.scenarioml.xml_io import to_scenarioml_xml
from repro.shard.worker import ShardTask, run_shard

__all__ = ["BatchEvaluator", "ShardStats", "plan_shards"]


@dataclass(frozen=True)
class ShardStats:
    """One shard's workload and cost, as seen by the parent."""

    shard: int
    scenarios: int
    wall_seconds: float


def plan_shards(
    names: tuple[str, ...], shards: int
) -> tuple[tuple[str, ...], ...]:
    """Split ``names`` into at most ``shards`` contiguous, balanced,
    non-empty chunks (set order preserved, sizes differ by at most 1)."""
    if shards < 1:
        raise EvaluationError(f"shard count must be >= 1, got {shards}")
    shards = min(shards, len(names)) or 1
    base, extra = divmod(len(names), shards)
    chunks: list[tuple[str, ...]] = []
    position = 0
    for index in range(shards):
        size = base + (1 if index < extra else 0)
        chunks.append(names[position:position + size])
        position += size
    return tuple(chunk for chunk in chunks if chunk)


class BatchEvaluator:
    """Evaluate a :class:`~repro.core.evaluator.Sosae` across worker
    processes, with merged telemetry and report parity. The pool starts
    with the first evaluation and is kept until :meth:`close`."""

    def __init__(self, workers: int = 2, mp_context=None) -> None:
        if workers < 1:
            raise EvaluationError(
                f"BatchEvaluator needs workers >= 1, got {workers}"
            )
        self.workers = workers
        self.mp_context = mp_context
        # One evaluator instance may be shared across threads (the
        # serve daemon hands the same pool to its watch loop and its
        # job executors); `last_*` below are per-evaluation state, so
        # evaluations must not interleave. Reentrant: a broken pool is
        # closed from inside an evaluation.
        self._lock = threading.RLock()
        #: The most recent evaluation's per-shard stats and telemetry.
        self.last_shard_stats: tuple[ShardStats, ...] = ()
        self.last_telemetry: Optional[MergedTelemetry] = None
        self.last_trace_id: Optional[str] = None
        self._pool: Optional[ProcessPoolExecutor] = None

    def close(self) -> None:
        """Shut the pool down and reap its workers. Idempotent; a later
        evaluation starts a new pool."""
        with self._lock:
            if self._pool is not None:
                self._pool.shutdown(cancel_futures=True)
                self._pool = None

    def __enter__(self) -> "BatchEvaluator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------

    def evaluate(
        self,
        sosae: Sosae,
        scenario_names: Optional[Iterable[str]] = None,
        include_dynamic: bool = False,
        dynamic_scenarios: Optional[Iterable[str]] = None,
    ) -> EvaluationReport:
        """``sosae.evaluate(...)`` with the walkthrough stage sharded
        across the pool. Same report.

        Thread-safe for a shared instance: concurrent callers
        serialize, because the ``last_*`` attributes describe exactly
        one evaluation."""
        with self._lock:
            return sosae.evaluate_with(
                self._walk_sharded,
                scenario_names,
                include_dynamic,
                dynamic_scenarios,
                workers=self.workers,
            )

    def _walk_sharded(
        self, sosae: Sosae, scenarios: tuple[Scenario, ...]
    ) -> tuple[ScenarioVerdict, ...]:
        """The sharded walk executor. Runs inside the parent's
        ``evaluate.walkthrough`` span, which the worker spans stitch
        under."""
        instruments = current_instruments()
        recorder = instruments.recorder
        trace_id = (
            recorder.spans.context.trace_id
            if recorder.enabled and recorder.spans.context is not None
            else new_trace_id()
        )
        self.last_trace_id = trace_id
        parent_span = (
            recorder.spans.current_span() if recorder.enabled else None
        )
        parent_span_id = (
            parent_span.span_id if parent_span is not None else None
        )
        chunks = plan_shards(
            tuple(scenario.name for scenario in scenarios), self.workers
        )
        spec = {
            "scenarioml": to_scenarioml_xml(sosae.scenario_set),
            "xadl": to_xadl_xml(sosae.architecture),
            "mapping": sosae.mapping.to_json(),
            "options": sosae.walkthrough_options,
        }
        # When the parent is profiling, workers sample their own walks at
        # the same rate; the folded partials merge into one coherent
        # profile via the collector + the parent profiler's ingest queue.
        profile_hz = (
            instruments.profiler.hz
            if instruments.profiler.enabled
            else None
        )
        tasks = [
            ShardTask(
                shard=shard,
                scenarios=chunk,
                context=TraceContext(
                    trace_id=trace_id,
                    shard=shard,
                    parent_span_id=parent_span_id,
                ),
                spec=spec,
                profile_hz=profile_hz,
            )
            for shard, chunk in enumerate(chunks, start=1)
        ]
        collector = TelemetryCollector(
            parent=recorder if recorder.enabled else None
        )
        by_shard: dict[int, list] = {}
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=self.mp_context
            )
        try:
            pending = {self._pool.submit(run_shard, task) for task in tasks}
            # Stream partials into the collector in completion order —
            # the merge is arrival-order independent by design.
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    result = future.result()
                    by_shard[result["shard"]] = result["verdicts"]
                    collector.ingest(result["partial"])
        except BrokenProcessPool as error:
            # A dead worker breaks the pool for good: drop it, so the
            # next evaluation starts a new one.
            self.close()
            raise EvaluationError(f"shard pool broke: {error}") from error
        merged = collector.merge()
        self.last_telemetry = merged
        instruments.absorb(merged)
        self.last_shard_stats = tuple(
            ShardStats(
                shard=summary.shard,
                scenarios=len(tasks[summary.shard - 1].scenarios),
                wall_seconds=summary.wall_seconds,
            )
            for summary in merged.shards
        )
        # Contiguous shards in shard order restore set order exactly.
        return tuple(
            verdict
            for shard in sorted(by_shard)
            for verdict in by_shard[shard]
        )
