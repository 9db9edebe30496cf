"""Sharded, multi-process evaluation (the ROADMAP's parallel engine,
first cut).

:class:`BatchEvaluator` is a walk executor for the one
:class:`~repro.core.evaluator.Sosae` pipeline: it fans the walkthrough
stage out across a stdlib ``ProcessPoolExecutor`` that it keeps until
:meth:`~repro.shard.batch.BatchEvaluator.close`, with verdict and
finding parity against :meth:`~repro.core.evaluator.Sosae.evaluate`.
An observed walk's workers return the engine's per-scenario rows with
their verdicts, and the parent observes them in the one pass that
observes a serial walk. See ``docs/SHARD.md``.
"""

from repro.shard.batch import BatchEvaluator, ShardStats, plan_shards
from repro.shard.worker import ShardTask, run_shard

__all__ = [
    "BatchEvaluator",
    "ShardStats",
    "ShardTask",
    "plan_shards",
    "run_shard",
]
