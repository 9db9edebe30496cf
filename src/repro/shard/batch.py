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
  parses only when they changed;
* an observed walk's workers return the engine's rows beside their
  verdicts. The parent shifts their clocks into its own, tags each row
  with its shard and adds the rows, the walk counters and the index
  statistics to its own session, so the one observation pass at the end
  of the walkthrough stage builds the scenario spans, samples and events
  of a sharded walk as it does a serial one's. A profiled walk's worker
  profiles fold into the parent's profiler.

The result is the report ``Sosae.evaluate`` produces — same verdicts,
same findings, same order — and the serial walk's observation, with
each scenario span on its shard's lane. Coverage is derived in the
parent from the verdicts, like every evaluation's. Dynamic evaluation,
when asked for, runs in the parent after the sharded walk.
"""

from __future__ import annotations

import threading
from concurrent.futures import ProcessPoolExecutor
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
from repro.obs.instruments import current_instruments
from repro.scenarioml.scenario import Scenario
from repro.scenarioml.xml_io import to_scenarioml_xml
from repro.shard.worker import ShardTask, clock_anchor, run_shard

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
    processes, with report and observation parity. The pool starts
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
        # job executors); `last_shard_stats` is per-evaluation state,
        # so evaluations must not interleave. Reentrant: a broken pool
        # is closed from inside an evaluation.
        self._lock = threading.RLock()
        #: The most recent evaluation's per-shard stats.
        self.last_shard_stats: tuple[ShardStats, ...] = ()
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
        serialize, because ``last_shard_stats`` describes exactly one
        evaluation."""
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
        """The sharded walk executor. Runs inside the parent's engine
        session, to which an observed walk's rows are added."""
        instruments = current_instruments()
        recorder = instruments.recorder
        observed = recorder.enabled or instruments.events.enabled
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
        # the same rate, and the parent profiler folds their profiles in.
        profile_hz = (
            instruments.profiler.hz
            if instruments.profiler.enabled
            else None
        )
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=self.mp_context
            )
        try:
            futures = [
                self._pool.submit(
                    run_shard,
                    ShardTask(
                        shard=shard,
                        scenarios=chunk,
                        spec=spec,
                        observed=observed,
                        profile_hz=profile_hz,
                    ),
                )
                for shard, chunk in enumerate(chunks, start=1)
            ]
            results = [future.result() for future in futures]
        except BrokenProcessPool as error:
            # A dead worker breaks the pool for good: drop it, so the
            # next evaluation starts a new one.
            self.close()
            raise EvaluationError(f"shard pool broke: {error}") from error
        anchor = clock_anchor()
        for result in results:
            instruments.profiler.ingest(result["profile"])
            if observed:
                sosae.engine.add_walk(
                    result["rows"],
                    result["counts"],
                    shard=result["shard"],
                    shift=result["anchor"] - anchor,
                    graphs=result["graphs"],
                )
                if recorder.enabled:
                    sosae.record_index_stats(recorder, *result["index"])
        self.last_shard_stats = tuple(
            ShardStats(
                shard=result["shard"],
                scenarios=len(chunk),
                wall_seconds=result["wall_seconds"],
            )
            for result, chunk in zip(results, chunks)
        )
        # Contiguous shards in shard order restore set order exactly.
        return tuple(
            verdict for result in results for verdict in result["verdicts"]
        )
