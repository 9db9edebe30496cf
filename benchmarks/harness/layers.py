"""The traced pass: per-layer numbers from benchmark-side wrappers.

The program is not instrumented for the benchmark. Instead the traced
pass patches a timing wrapper around each layer's public entry point,
in the module namespace (or class) its caller looks it up in, and
records the calls as :class:`repro.obs.spans.Span` trees on a private
:class:`~repro.obs.spans.SpanRecorder` -- one tree per op, rooted at an
``op`` span. The recorder is never installed as the program's current
recorder, so the traced op takes the same code path as an untraced one.
Where production already opens a span at the same boundary the wrapper
uses the production name (``evaluate.validation``,
``walkthrough.scenario``, ...).

A layer's self time is its spans' duration minus the time their child
spans cover. Container spans (``op``, ``evaluate``) only group layers;
their self time is what no layer accounts for, and
``layers.unattributed_share`` reports it as a share of the op.

The traced pass alternates untraced and traced ops, so ``trace.overhead``
compares like with like, and writes the traced ops as a Chrome trace
(``repro.obs.export.chrome_trace_json``) that ``sosae dashboard
--trace`` opens.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import statistics
import time
from pathlib import Path
from typing import Callable, Optional

import repro.adl.xadl
import repro.cli
import repro.core.evaluator
import repro.core.report_io
import repro.obs.serve
import repro.scenarioml.xml_io
import repro.shard.batch
from repro.core.evaluator import Sosae
from repro.core.incremental import DependencyTracker
from repro.core.mapping import Mapping
from repro.core.walkthrough import WalkthroughEngine
from repro.obs import (
    CoverageBuilder,
    EventBus,
    Recorder,
    RunRegistry,
    use,
    use_coverage,
    use_events,
)
from repro.obs.export import chrome_trace_json
from repro.obs.jobs import JobManager
from repro.obs.spans import SpanRecorder
from repro.shard import BatchEvaluator

#: Spans that group layers; their self time is unattributed.
CONTAINERS = frozenset({"op", "evaluate"})

#: Layer self times must cover this share of a traced op, or the
#: harness warns that the decomposition no longer matches the op.
COVERAGE_TOLERANCE = 0.10

#: Rounds of the observation ablation (each round runs every arm once).
ABLATION_ROUNDS = 7


# ----------------------------------------------------------------------
# Probes: what a wrapper reads around the call it times
# ----------------------------------------------------------------------


def _kb_of_argument(span, args, result, state) -> None:
    span.set_attribute("kb", len(args[0]) / 1024.0)


def _kb_of_result(span, args, result, state) -> None:
    span.set_attribute("kb", len(result) / 1024.0)


def _sosae_of(args) -> Sosae:
    return args[1] if isinstance(args[0], BatchEvaluator) else args[0]


def _index_before(args):
    return _sosae_of(args).index.stats()


def _evaluate_after(span, args, report, before) -> None:
    """Index-cache deltas, walk volume, and (sharded) per-shard walls."""
    after = _sosae_of(args).index.stats()
    span.set_attribute("index.hits", after.hits - before.hits)
    span.set_attribute("index.misses", after.misses - before.misses)
    span.set_attribute(
        "index.build_s", after.build_seconds - before.build_seconds
    )
    steps = failing = 0
    for verdict in report.scenario_verdicts:
        for trace in verdict.traces:
            steps += len(trace.steps)
            failing += sum(1 for step in trace.steps if not step.ok)
    span.set_attribute("steps", steps)
    span.set_attribute("failing_steps", failing)
    if isinstance(args[0], BatchEvaluator):
        span.set_attribute(
            "shard_walls", [s.wall_seconds for s in args[0].last_shard_stats]
        )
        span.set_attribute("workers", args[0].workers)


def _record_before(args):
    path = args[0].path
    return path.stat().st_size if path.exists() else 0


def _record_after(span, args, result, before) -> None:
    registry, recorder = args[0], args[3]
    span.set_attribute("kb", (registry.path.stat().st_size - before) / 1024.0)
    roots = recorder.roots
    span.set_attribute("production_spans", sum(root.count() for root in roots))
    stack = list(roots)
    while stack:
        node = stack.pop()
        if node.name == "evaluate.walkthrough":
            span.set_attribute("walk_stage_s", node.wall_seconds)
        stack.extend(node.children)


@dataclasses.dataclass(frozen=True)
class Probe:
    """What a wrapper reads around the call it times: ``after(span,
    args, result, state)`` once the span has closed, with ``state`` from
    ``before(args)``."""

    after: Callable
    before: Optional[Callable] = None


_EVALUATE = Probe(_evaluate_after, _index_before)

#: (owner, attribute, span name, probe): every boundary the traced pass
#: wraps. An entry per namespace that calls the function.
TARGETS = (
    (repro.cli, "parse_scenarioml", "scenarioml.parse", Probe(_kb_of_argument)),
    (
        repro.scenarioml.xml_io,
        "parse_scenarioml",
        "scenarioml.parse",
        Probe(_kb_of_argument),
    ),
    (repro.cli, "parse_xadl", "adl.parse", None),
    (repro.adl.xadl, "parse_xadl", "adl.parse", None),
    (Mapping, "from_json", "mapping.load", None),
    (Sosae, "evaluate", "evaluate", _EVALUATE),
    (BatchEvaluator, "evaluate", "evaluate", _EVALUATE),
    (repro.core.evaluator, "validation_findings", "evaluate.validation", None),
    (repro.core.evaluator, "style_findings", "evaluate.style_check", None),
    (repro.core.evaluator, "coverage_findings", "evaluate.coverage", None),
    (repro.core.evaluator, "check_constraints", "evaluate.constraints", None),
    (repro.shard.batch, "check_constraints", "evaluate.constraints", None),
    (WalkthroughEngine, "walk_scenario", "walkthrough.scenario", None),
    (
        repro.core.evaluator,
        "evaluate_negative_scenario",
        "walkthrough.scenario",
        None,
    ),
    (CoverageBuilder, "finalize", "coverage.finalize", None),
    (repro.cli, "render_report", "report.render", None),
    (repro.cli, "report_to_json", "report.serialize", None),
    (repro.core.report_io, "report_to_json", "report.serialize", None),
    (repro.core.report_io, "report_to_dict", "report.serialize", None),
    (repro.obs.serve, "_report_digest", "report.digest", None),
    (DependencyTracker, "from_report", "tracker.build", None),
    (RunRegistry, "record", "runs.record", Probe(_record_after, _record_before)),
    (RunRegistry, "load", "runs.load", None),
    (repro.shard.batch, "to_scenarioml_xml", "shard.spec", Probe(_kb_of_result)),
    (repro.shard.batch, "to_xadl_xml", "shard.spec", Probe(_kb_of_result)),
    (JobManager, "submit", "jobs.submit", None),
    (JobManager, "run_pending", "jobs.bookkeeping", None),
)


def _traced(spans: SpanRecorder, function, name: str, probe: Optional[Probe]):
    @functools.wraps(function)
    def traced(*args, **kwargs):
        state = probe.before(args) if probe and probe.before else None
        with spans.span(name) as span:
            result = function(*args, **kwargs)
        if probe is not None:
            probe.after(span, args, result, state)
        return result

    return traced


@contextlib.contextmanager
def installed(spans: SpanRecorder):
    """Patch every target with a wrapper recording into ``spans``."""
    saved = []
    try:
        for owner, attribute, name, probe in TARGETS:
            original = vars(owner)[attribute]
            if isinstance(original, classmethod):
                wrapper = classmethod(
                    _traced(spans, original.__func__, name, probe)
                )
            else:
                wrapper = _traced(spans, original, name, probe)
            setattr(owner, attribute, wrapper)
            saved.append((owner, attribute, original))
        yield
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


# ----------------------------------------------------------------------
# One traced op -> its layer numbers
# ----------------------------------------------------------------------


def _walk(root):
    stack = [root]
    while stack:
        span = stack.pop()
        yield span
        stack.extend(span.children)


def op_layers(root) -> dict:
    """Per-layer numbers of one traced op (the ``op`` span's tree)."""
    self_time: dict = {}
    values: dict = {}
    for span in _walk(root):
        own = span.wall_seconds - sum(c.wall_seconds for c in span.children)
        self_time[span.name] = self_time.get(span.name, 0.0) + own
        attributes = span.attributes
        if span.name == "scenarioml.parse":
            values["scenarioml.parse.kb"] = (
                values.get("scenarioml.parse.kb", 0.0) + attributes["kb"]
            )
        elif span.name == "shard.spec":
            values["shard.spec.kb"] = (
                values.get("shard.spec.kb", 0.0) + attributes["kb"]
            )
        elif span.name == "runs.record":
            values["runs.record.kb"] = attributes["kb"]
            values["obs.spans_per_op"] = attributes["production_spans"]
            if "walk_stage_s" in attributes:
                values["walk_stage_s"] = attributes["walk_stage_s"]
        elif span.name == "evaluate":
            values["index.misses"] = attributes["index.misses"]
            values["index.build.self_s"] = attributes["index.build_s"]
            lookups = attributes["index.hits"] + attributes["index.misses"]
            if lookups:
                values["index.hit_ratio"] = attributes["index.hits"] / lookups
            values["walkthrough.steps"] = attributes["steps"]
            values["walkthrough.failing_step_share"] = (
                attributes["failing_steps"] / attributes["steps"]
                if attributes["steps"]
                else 0.0
            )
            values["shard_walls"] = attributes.get("shard_walls")
            values["workers"] = attributes.get("workers", 1)

    walls = values.pop("shard_walls", None)
    workers = values.pop("workers", 1)
    walk_stage = values.pop("walk_stage_s", None)
    if walls:
        # Sharded: the walk runs in worker processes. The slowest shard
        # blocks the result; the rest of the evaluator's own time is
        # pool spawn, spec shipping, worker parse and telemetry merge.
        slowest = max(walls)
        self_time["walkthrough.scenario"] = slowest
        self_time["shard.overhead"] = self_time.pop("evaluate") - slowest
        walked = sum(walls)
        values["shard.walk_max_s"] = slowest
        values["shard.imbalance"] = slowest / statistics.fmean(walls)
        if walk_stage:
            values["shard.overhead_s"] = walk_stage - slowest
            values["shard.efficiency"] = walked / (workers * walk_stage)
    else:
        walked = self_time.get("walkthrough.scenario", 0.0)

    renamed = {
        "walkthrough.scenario": "evaluate.walkthrough.self_s",
        "coverage.finalize": "coverage.finalize.self_s",
        "jobs.bookkeeping": "jobs.bookkeeping.self_s",
        "jobs.submit": "jobs.submit.self_s",
        "shard.spec": "shard.spec.self_s",
    }
    for name, seconds in self_time.items():
        if name in CONTAINERS or name == "shard.overhead":
            continue
        values[renamed.get(name, f"{name}.self_s")] = seconds
    steps = values.get("walkthrough.steps")
    if steps:
        values["walkthrough.us_per_step"] = walked / steps * 1e6
    attributed = sum(
        seconds for name, seconds in self_time.items() if name not in CONTAINERS
    )
    values["layers.unattributed_share"] = 1.0 - attributed / root.wall_seconds
    return values


# ----------------------------------------------------------------------
# The observation ablation (serve_pims_x40 only)
# ----------------------------------------------------------------------


def _arm(name: str, sosae: Sosae) -> float:
    """Time one evaluate with only the named observation channel."""
    with contextlib.ExitStack() as stack:
        builder = None
        if name in ("recorder", "all"):
            stack.enter_context(use(Recorder()))
        if name in ("events", "all"):
            stack.enter_context(use_events(EventBus()))
        if name == "coverage":
            builder = CoverageBuilder()
            stack.enter_context(use_coverage(builder))
        elif name in ("recorder", "events"):
            # A disabled builder keeps evaluate from adding coverage.
            stack.enter_context(use_coverage(CoverageBuilder(enabled=False)))
        started = time.perf_counter()
        sosae.evaluate()
        if builder is not None:
            builder.finalize(sosae.scenario_set, sosae.mapping)
        return time.perf_counter() - started


def observation_ablation(sosae: Sosae, rounds: int = ABLATION_ROUNDS) -> dict:
    """Each channel installed alone (and all together) against a plain
    evaluate of the same warm pipeline: median extra seconds."""
    arms = ("plain", "recorder", "events", "coverage", "all")
    sosae.evaluate()
    timings: dict = {arm: [] for arm in arms}
    for _ in range(rounds):
        for arm in arms:
            timings[arm].append(_arm(arm, sosae))
    plain = statistics.median(timings["plain"])
    return {
        f"obs.{arm}.overhead_s": statistics.median(timings[arm]) - plain
        for arm in arms[1:]
    }


# ----------------------------------------------------------------------
# The traced pass
# ----------------------------------------------------------------------


def traced_pass(
    workload, fixture, ops: int, seconds: float, trace_path: Optional[Path]
) -> dict:
    """Alternate untraced and traced ops -- at least ``ops`` of each, for
    at least ``seconds`` -- and return the per-layer medians, the
    failures seen, and the coverage warning if any."""
    failures: list = []
    plain: list = []
    per_op: list = []
    roots: list = []
    with workload.trace_fixture(fixture) as target:
        began = time.perf_counter()
        index = 0
        while len(per_op) < ops or time.perf_counter() - began < seconds:
            # One untraced op, then one traced op on the same input.
            started = time.perf_counter()
            artifact = workload.op(target, index)
            plain.append(time.perf_counter() - started)
            error, _ = workload.check(target, index, artifact)
            if error is not None:
                failures.append(f"op {index}: {error}")
            index += 1
            spans = SpanRecorder()
            with installed(spans), spans.span("op", workload=workload.name):
                artifact = workload.op(target, index)
            error, report_bytes = workload.check(target, index, artifact)
            if error is not None:
                failures.append(f"traced op {index}: {error}")
            index += 1
            root = spans.roots[0]
            roots.append(root)
            layers = op_layers(root)
            layers["report.kb"] = report_bytes / 1024.0
            layers["op.traced_s"] = root.wall_seconds
            per_op.append(layers)
        extra = {}
        if workload.name == "serve_pims_x40":
            extra = observation_ablation(target.build_sosae())

    metrics = {}
    for name in sorted({key for layers in per_op for key in layers}):
        values = [layers[name] for layers in per_op if name in layers]
        if len(values) == len(per_op):
            metrics[name] = statistics.median(values)
    metrics["trace.overhead"] = (
        metrics["op.traced_s"] / statistics.median(plain) - 1.0
    )
    metrics.update(extra)
    warning = None
    if abs(metrics["layers.unattributed_share"]) > COVERAGE_TOLERANCE:
        warning = (
            f"{workload.name}: layer self times cover "
            f"{1 - metrics['layers.unattributed_share']:.1%} of a traced op "
            f"(outside ±{COVERAGE_TOLERANCE:.0%}); the decomposition no "
            "longer matches the op"
        )
    if trace_path is not None:
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        trace_path.write_text(
            chrome_trace_json(roots, process_name=f"bench {workload.name}")
        )
    return {"metrics": metrics, "failures": failures, "warning": warning,
            "ops": len(per_op)}
