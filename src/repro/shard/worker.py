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
walk executor, under a bundle of its own: no event bus, no coverage,
and, when the parent is observed, a plain
:class:`~repro.obs.recorder.Recorder`, so the engine records one row per
scenario; the task takes the rows and the walk counters out of its
session unobserved and returns them beside the verdicts. The parent
observes them as its own walk's.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from repro.adl.xadl import parse_xadl
from repro.core.evaluator import Sosae, walk_serially
from repro.core.mapping import Mapping
from repro.obs.coverage import NULL_COVERAGE
from repro.obs.events import NULL_EVENT_BUS
from repro.obs.instruments import instrumented
from repro.obs.profiler import NULL_PROFILER, SamplingProfiler
from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.scenarioml.xml_io import parse_scenarioml

__all__ = ["ShardTask", "clock_anchor", "run_shard"]


def clock_anchor() -> float:
    """This process's wall-clock anchor: what ``time.time()`` reads when
    ``time.perf_counter()`` reads zero. The difference between two
    processes' anchors shifts one's ``perf_counter`` readings into the
    other's."""
    return time.time() - time.perf_counter()


@dataclass(frozen=True)
class ShardTask:
    """One shard's work order: the spec, which of its scenarios to walk,
    whether the parent observes the walk and (optionally) the sampling
    rate to profile it at."""

    shard: int
    scenarios: tuple[str, ...]
    spec: dict
    observed: bool = False
    profile_hz: Optional[float] = None


# This process's pipeline, with the spec it was built from.
_BUILT: Optional[tuple[dict, Sosae]] = None


def run_shard(task: ShardTask) -> dict:
    """Walk one shard's scenarios. Returns the verdicts and, for an
    observed walk, the engine's rows (whose verdicts are the returned
    verdict objects), the walk counters, the index statistics before
    and after, the communication graphs built and the clock anchor;
    also the walk's wall time and, when profiled, its profile. The spec
    is parsed only when it differs from the pipeline's."""
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
    index, engine = sosae.index, sosae.engine
    stats_before = index.stats()
    graphs_before = index.cached_graphs()
    profiler = (
        SamplingProfiler(hz=task.profile_hz) if task.profile_hz
        else NULL_PROFILER
    )
    started = time.perf_counter()
    # The task's own bundle, every channel set: a forked worker inherits
    # the parent's, whose event bus (its sinks, its heartbeat clock, its
    # lock) must not be pulsed from here.
    with instrumented(
        recorder=Recorder() if task.observed else NULL_RECORDER,
        events=NULL_EVENT_BUS,
        coverage=NULL_COVERAGE,
        profiler=profiler,
    ), profiler, engine.session():
        scenarios = tuple(map(sosae.scenario_set.get, task.scenarios))
        verdicts = list(walk_serially(sosae, scenarios))
        rows, counts = engine.take_walk()
    result = {
        "shard": task.shard,
        "verdicts": verdicts,
        "wall_seconds": time.perf_counter() - started,
        "profile": profiler.profile(),
    }
    if task.observed:
        result.update(
            rows=rows,
            counts=counts,
            index=(stats_before, index.stats()),
            graphs=[
                kind for kind in index.cached_graphs()
                if kind not in graphs_before
            ],
            anchor=clock_anchor(),
        )
    return result
