"""The worker-process half of :class:`repro.shard.BatchEvaluator`.

Everything here is module-level (``ProcessPoolExecutor`` pickles
references to it by qualified name). A worker is configured by
:func:`init_worker` with the *spec blob* — the evaluation artifacts in
their serialized forms (ScenarioML XML, xADL XML, mapping JSON) plus the
picklable walkthrough options — and then runs any number of
:func:`run_shard` tasks.

The first task parses the spec into the process's one
:class:`~repro.core.evaluator.Sosae`, whose engine owns a warm
:class:`~repro.adl.index.CommunicationIndex`; later tasks in the same
pool reuse it, and every :func:`init_worker` call discards it, so a
pipeline never outlives the spec it was built from. A task walks its
scenarios with :func:`~repro.core.evaluator.walk_serially`, the serial
pipeline's own walk executor, records its telemetry under the
:class:`~repro.obs.context.TraceContext` the parent handed it, and
returns a picklable payload: the shard's verdicts (full-fidelity
objects — message traces and provenance survive, which the report-JSON
round-trip would drop) plus its telemetry partial.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.adl.xadl import parse_xadl
from repro.core.evaluator import Sosae, walk_serially
from repro.core.mapping import Mapping
from repro.errors import ReproError
from repro.obs.collector import snapshot_partial
from repro.obs.context import TraceContext
from repro.obs.coverage import CoverageBuilder, use_coverage
from repro.obs.events import EventBus, use_events
from repro.obs.profiler import SamplingProfiler
from repro.obs.recorder import Recorder, use
from repro.obs.spans import SpanRecorder
from repro.scenarioml.xml_io import parse_scenarioml

__all__ = ["ShardTask", "init_worker", "run_shard"]


@dataclass(frozen=True)
class ShardTask:
    """One shard's work order: which scenarios to walk, the trace
    identity to record under, and (optionally) the sampling rate to
    profile the walk at."""

    shard: int
    scenarios: tuple[str, ...]
    context: TraceContext
    profile_hz: Optional[float] = None


# Per-process state: the spec from the pool initializer, and the
# pipeline built from it on first use.
_SPEC: Optional[dict] = None
_SOSAE: Optional[Sosae] = None


def init_worker(spec: dict) -> None:
    """``ProcessPoolExecutor`` initializer: stash the spec blob and drop
    any pipeline built from an earlier one (a forked worker inherits
    its parent's module state)."""
    global _SPEC, _SOSAE
    _SPEC = spec
    _SOSAE = None


def run_shard(task: ShardTask) -> dict:
    """Walk one shard's scenarios; return verdicts + telemetry partial."""
    global _SOSAE
    if _SOSAE is None:  # the first task since init_worker
        if _SPEC is None:
            raise ReproError(
                "shard worker not initialized (init_worker never ran)"
            )
        scenario_set = parse_scenarioml(_SPEC["scenarioml"])
        architecture = parse_xadl(_SPEC["xadl"])
        mapping = Mapping.from_json(
            _SPEC["mapping"], scenario_set.ontology, architecture
        )
        _SOSAE = Sosae(
            scenario_set,
            architecture,
            mapping,
            walkthrough_options=_SPEC["options"],
        )
    sosae = _SOSAE
    recorder = Recorder(spans=SpanRecorder(context=task.context))
    bus = EventBus()
    stats_before = sosae.index.stats()
    # Sample this worker's own walk when the parent asked for it; the
    # folded profile rides home in the telemetry partial and merges
    # deterministically with every other shard's.
    profiler = (
        SamplingProfiler(hz=task.profile_hz).start()
        if task.profile_hz
        else None
    )
    # Each shard accumulates its own coverage counts; the raw state
    # rides home in the partial and the parent sums all shards (the
    # parent finalizes against the full element universe, so merged
    # coverage is byte-identical to a single-process run).
    coverage = CoverageBuilder()
    with use(recorder), use_events(bus), use_coverage(coverage):
        with recorder.span(
            "shard", shard=task.shard, scenarios=len(task.scenarios)
        ), sosae.index.pinned():
            scenarios = tuple(map(sosae.scenario_set.get, task.scenarios))
            verdicts = list(walk_serially(sosae, scenarios))
    profile = profiler.stop() if profiler is not None else None
    sosae.record_index_stats(recorder, stats_before)
    partial = snapshot_partial(
        shard=task.shard,
        trace_id=task.context.trace_id,
        recorder=recorder,
        events=bus.events(),
        profile=profile,
        coverage=coverage,
    )
    return {
        "shard": task.shard,
        "verdicts": verdicts,
        "partial": partial.to_dict(),
    }
