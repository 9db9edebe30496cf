"""Sharded, multi-process evaluation (the ROADMAP's parallel engine,
first cut).

:class:`BatchEvaluator` is a walk executor for the one
:class:`~repro.core.evaluator.Sosae` pipeline: it fans the walkthrough
stage out across a stdlib ``ProcessPoolExecutor`` with verdict and
finding parity against :meth:`~repro.core.evaluator.Sosae.evaluate`,
and streams each worker's telemetry through
:class:`~repro.obs.collector.TelemetryCollector` into one merged
trace/metrics/event view. See ``docs/SHARD.md``.
"""

from repro.shard.batch import BatchEvaluator, ShardStats, plan_shards
from repro.shard.worker import ShardTask, init_worker, run_shard

__all__ = [
    "BatchEvaluator",
    "ShardStats",
    "ShardTask",
    "init_worker",
    "plan_shards",
    "run_shard",
]
