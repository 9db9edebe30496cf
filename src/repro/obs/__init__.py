"""Observability for the SOSAE evaluation pipeline.

The pipeline (``Sosae.evaluate`` → walkthrough → communication index →
simulator) is instrumented through one bundle of four channels
(:class:`~repro.obs.instruments.Instruments`): a span/metrics
recorder, a live event bus, a coverage builder and a sampling profiler.
By default every channel is its zero-overhead null object; installing
live ones with :func:`~repro.obs.instruments.instrumented` (directly or
via the CLI's ``--profile`` / ``--trace-out`` / ``--metrics-out`` /
``--events`` / ``--profile-hz`` flags) captures a span tree per
evaluation plus counters for mapping resolutions, index cache hits,
walkthrough steps, and simulator message fates — without changing any
evaluation result. :func:`~repro.obs.instruments.current_instruments`
is what instrumented code reads.

Typical use::

    from repro.obs import Recorder, instrumented, render_profile

    recorder = Recorder()
    with instrumented(recorder=recorder):
        report = sosae.evaluate()
    print(render_profile(recorder.roots, recorder.metrics))

``use``, ``use_events`` and ``use_coverage`` install a single channel
the same way.

For *live* observation, :mod:`repro.obs.events` adds a typed telemetry
event bus (``sosae evaluate --events out.jsonl`` streams it, ``sosae
tail`` pretty-prints it) and :mod:`repro.obs.dashboard` renders traces,
run history, findings, and event streams into one self-contained
offline HTML page (``sosae dashboard``).

A sharded walk (:mod:`repro.shard`) is observed in the evaluating
process: its workers return the walkthrough engine's per-scenario rows
with their verdicts, and the one pass that observes a serial walk
builds the spans, samples and events from them.
"""

from repro.obs.alerts import (
    AlertEngine,
    AlertRule,
    AlertState,
    load_rules,
    parse_rules,
    scalar_values,
)
from repro.obs.anomaly import (
    DEFAULT_ANOMALY_THRESHOLD,
    StepPoint,
    detect_step,
    mad,
    median,
    robust_zscore,
)
from repro.obs.context import (
    TraceContext,
    new_trace_id,
    span_id_for,
)
from repro.obs.coverage import (
    COVERAGE_FORMAT,
    NULL_COVERAGE,
    CoverageBuilder,
    CoverageDiff,
    CoverageMatrix,
    NullCoverage,
    constraint_label,
    coverage_computed_event,
    coverage_scalars,
    diff_coverage,
)
from repro.obs.dashboard import build_dashboard, load_trace_file
from repro.obs.events import (
    EVENT_TYPES,
    NULL_EVENT_BUS,
    SEVERITY_LEVELS,
    AlertFired,
    AlertResolved,
    CoverageComputed,
    EvaluationFinished,
    EvaluationStarted,
    EventBus,
    FindingEmitted,
    Heartbeat,
    JobFinished,
    JobRejected,
    JobStarted,
    JobSubmitted,
    JsonlSink,
    NullEventBus,
    RunRecorded,
    ScenarioFinished,
    ScenarioStarted,
    SimMessageFate,
    StageFinished,
    StageStarted,
    event_from_dict,
    event_severity,
    events_from_jsonl,
    format_event,
    read_events,
)
from repro.obs.instruments import (
    Instruments,
    current_instruments,
    instrumented,
    use,
    use_coverage,
    use_events,
)
from repro.obs.jobs import (
    DEFAULT_QUEUE_LIMIT,
    DEFAULT_TENANT_QUOTA,
    JOB_STATES,
    AuditLog,
    JobManager,
    JobRecord,
    JobRegistry,
    build_bundle_sosae,
    compact_job_logs,
    render_job_list,
    spec_bundle_digest,
    tenant_samples,
    validate_bundle,
)
from repro.obs.export import (
    chrome_trace,
    chrome_trace_json,
    metrics_to_json,
    render_profile,
    spans_from_chrome_trace,
    spans_from_jsonl,
    spans_to_jsonl,
)
from repro.obs.log import configure as configure_logging
from repro.obs.log import get_logger
from repro.obs.metrics import (
    DEFAULT_HISTOGRAM_SAMPLE_CAP,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.profiler import (
    DEFAULT_PROFILE_HZ,
    NULL_PROFILER,
    FrameDelta,
    NullProfiler,
    Profile,
    ProfileDiff,
    SamplingProfiler,
    diff_profiles,
)
from repro.obs.promexp import (
    DEFAULT_LABEL_TOP_K,
    PromSample,
    bounded_label_values,
    prometheus_metric_name,
    render_prometheus,
)
from repro.obs.provenance import (
    EventContext,
    IndexQuery,
    MappingResolution,
    Provenance,
    finding_id,
    provenance_from_dict,
)
from repro.obs.recorder import (
    NULL_RECORDER,
    NullRecorder,
    Recorder,
)
from repro.obs.runs import (
    DEFAULT_RUNS_DIR,
    BisectResult,
    MetricDelta,
    RunAttribution,
    RunDiff,
    RunRecord,
    RunRegistry,
    ScenarioDelta,
    StageDelta,
    attribute_runs,
    bisect_runs,
    current_git_sha,
    diff_runs,
    record_metric_value,
    registry_lock,
    scenario_costs,
    stage_summary,
)
from repro.obs.serve import (
    RunOutcome,
    ServeDaemon,
    SpecWatcher,
    coverage_samples,
    iter_sse_events,
    read_sse_events,
)
from repro.obs.spans import Span, SpanRecorder

__all__ = [
    "AlertEngine",
    "AlertFired",
    "AlertResolved",
    "AlertRule",
    "AlertState",
    "BisectResult",
    "AuditLog",
    "COVERAGE_FORMAT",
    "Counter",
    "CoverageBuilder",
    "CoverageComputed",
    "CoverageDiff",
    "CoverageMatrix",
    "DEFAULT_ANOMALY_THRESHOLD",
    "DEFAULT_HISTOGRAM_SAMPLE_CAP",
    "DEFAULT_LABEL_TOP_K",
    "DEFAULT_PROFILE_HZ",
    "DEFAULT_QUEUE_LIMIT",
    "DEFAULT_RUNS_DIR",
    "DEFAULT_TENANT_QUOTA",
    "EVENT_TYPES",
    "JOB_STATES",
    "EvaluationFinished",
    "EvaluationStarted",
    "EventBus",
    "EventContext",
    "FindingEmitted",
    "FrameDelta",
    "Gauge",
    "Heartbeat",
    "Histogram",
    "IndexQuery",
    "Instruments",
    "JobFinished",
    "JobManager",
    "JobRecord",
    "JobRegistry",
    "JobRejected",
    "JobStarted",
    "JobSubmitted",
    "JsonlSink",
    "MappingResolution",
    "MetricDelta",
    "MetricsRegistry",
    "NULL_COVERAGE",
    "NULL_EVENT_BUS",
    "NULL_PROFILER",
    "NULL_RECORDER",
    "NullCoverage",
    "NullEventBus",
    "NullProfiler",
    "NullRecorder",
    "Profile",
    "ProfileDiff",
    "PromSample",
    "Provenance",
    "Recorder",
    "RunAttribution",
    "RunDiff",
    "RunOutcome",
    "RunRecord",
    "RunRecorded",
    "RunRegistry",
    "SEVERITY_LEVELS",
    "SamplingProfiler",
    "ScenarioDelta",
    "ServeDaemon",
    "SpecWatcher",
    "ScenarioFinished",
    "ScenarioStarted",
    "SimMessageFate",
    "Span",
    "SpanRecorder",
    "StageDelta",
    "StageFinished",
    "StageStarted",
    "StepPoint",
    "TraceContext",
    "attribute_runs",
    "bisect_runs",
    "bounded_label_values",
    "build_bundle_sosae",
    "build_dashboard",
    "compact_job_logs",
    "constraint_label",
    "chrome_trace",
    "chrome_trace_json",
    "configure_logging",
    "coverage_computed_event",
    "coverage_samples",
    "coverage_scalars",
    "current_git_sha",
    "current_instruments",
    "detect_step",
    "diff_coverage",
    "diff_profiles",
    "diff_runs",
    "event_from_dict",
    "event_severity",
    "events_from_jsonl",
    "finding_id",
    "format_event",
    "instrumented",
    "iter_sse_events",
    "get_logger",
    "load_rules",
    "load_trace_file",
    "mad",
    "median",
    "metrics_to_json",
    "new_trace_id",
    "parse_rules",
    "prometheus_metric_name",
    "provenance_from_dict",
    "read_events",
    "read_sse_events",
    "record_metric_value",
    "registry_lock",
    "render_job_list",
    "render_profile",
    "render_prometheus",
    "robust_zscore",
    "scalar_values",
    "scenario_costs",
    "span_id_for",
    "spans_from_chrome_trace",
    "spans_from_jsonl",
    "spans_to_jsonl",
    "spec_bundle_digest",
    "stage_summary",
    "tenant_samples",
    "use",
    "use_coverage",
    "use_events",
    "validate_bundle",
]
