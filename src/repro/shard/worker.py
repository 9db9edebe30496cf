"""The worker-process half of :class:`repro.shard.BatchEvaluator`.

Everything here is module-level (``ProcessPoolExecutor`` pickles
references to it by qualified name). Each :class:`ShardTask` carries
the *spec*: the evaluation artifacts in their serialized forms
(ScenarioML XML, xADL XML, mapping JSON) plus the picklable walkthrough
options.

A kept pool's worker runs many tasks on one
:class:`~repro.core.evaluator.Sosae`, whose engine owns a warm
:class:`~repro.adl.index.CommunicationIndex`, and parses a new one only
when a task's spec differs from the one it was built from — so a
pipeline never serves another spec, not even one a forked worker
inherited from its parent. A task walks its scenarios with
:func:`~repro.core.evaluator.walk_serially`, the serial pipeline's own
walk executor, records its telemetry under the
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
from repro.obs.collector import snapshot_partial
from repro.obs.context import TraceContext
from repro.obs.events import EventBus
from repro.obs.instruments import instrumented
from repro.obs.profiler import NULL_PROFILER, SamplingProfiler
from repro.obs.recorder import Recorder
from repro.obs.spans import SpanRecorder
from repro.scenarioml.xml_io import parse_scenarioml

__all__ = ["ShardTask", "run_shard"]


@dataclass(frozen=True)
class ShardTask:
    """One shard's work order: the spec, which of its scenarios to walk,
    the trace identity to record under, and (optionally) the sampling
    rate to profile the walk at."""

    shard: int
    scenarios: tuple[str, ...]
    context: TraceContext
    spec: dict
    profile_hz: Optional[float] = None


# This process's pipeline, with the spec it was built from.
_BUILT: Optional[tuple[dict, Sosae]] = None


def run_shard(task: ShardTask) -> dict:
    """Walk one shard's scenarios; return verdicts + telemetry partial.
    The spec is parsed only when it differs from the pipeline's."""
    global _BUILT
    if _BUILT is None or _BUILT[0] != task.spec:
        spec = task.spec
        scenario_set = parse_scenarioml(spec["scenarioml"])
        architecture = parse_xadl(spec["xadl"])
        mapping = Mapping.from_json(
            spec["mapping"], scenario_set.ontology, architecture
        )
        _BUILT = spec, Sosae(
            scenario_set,
            architecture,
            mapping,
            walkthrough_options=spec["options"],
        )
    sosae = _BUILT[1]
    stats_before = sosae.index.stats()
    # The shard's own bundle. It samples its walk when the parent asked
    # for it; the parent merges every shard's profile. Coverage is not
    # collected here: the parent derives it from the merged verdicts.
    with instrumented(
        recorder=Recorder(spans=SpanRecorder(context=task.context)),
        events=EventBus(),
        profiler=(
            SamplingProfiler(hz=task.profile_hz)
            if task.profile_hz
            else NULL_PROFILER
        ),
    ) as instruments, instruments.profiler:
        with instruments.recorder.span(
            "shard", shard=task.shard, scenarios=len(task.scenarios)
        ), sosae.engine.session():
            scenarios = tuple(map(sosae.scenario_set.get, task.scenarios))
            verdicts = list(walk_serially(sosae, scenarios))
    sosae.record_index_stats(instruments.recorder, stats_before)
    return {
        "shard": task.shard,
        "verdicts": verdicts,
        "partial": snapshot_partial(
            task.shard, task.context.trace_id, instruments
        ),
    }
