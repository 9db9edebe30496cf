"""The continuous-evaluation daemon behind ``sosae serve``.

The offline stack (spans, metrics, run registry, event bus, dashboard)
describes evaluations after the fact; :class:`ServeDaemon` keeps one
running *continuously* — re-evaluating when a watched spec file changes
(mtime polling) or on a fixed interval — and exposes the results over
plain stdlib HTTP (:class:`~http.server.ThreadingHTTPServer`, no new
dependencies):

``/metrics``
    Prometheus text exposition of the shared metrics registry
    (counters, gauges, histogram quantiles — see
    :mod:`repro.obs.promexp`) plus serve-level samples: run counts,
    last-run wall time, per-stage wall seconds (``stage`` label), and
    active alerts by severity.
``/healthz``
    Process liveness: 200 with a small JSON body as long as the daemon
    runs, even while the latest spec revision fails to parse.
``/readyz``
    Readiness: 200 once at least one evaluation completed, 503 before.
``/report``
    The latest evaluation report as JSON (503 before the first run).
``/alerts``
    Every alert rule's state (active, consecutive violations, last
    value, evaluation status — including ``insufficient-history`` for
    windows the registry cannot fill yet) as JSON.
``/profile``
    With ``--profile-hz``: the merged folded sampling profile of the
    recent interval-evaluation ring (``?last=N`` bounds how many
    intervals), as plain text ``dashboard --live`` folds into its
    flamegraph. 404 when profiling is off, 503 before the first
    profiled run.
``/events``
    A Server-Sent-Events bridge off the daemon's live event bus: each
    telemetry event becomes one ``event:``/``data:`` frame, with
    ``: keep-alive`` comments while the pipeline is idle.
    ``?replay=N`` first replays the last N buffered events;
    ``?tenant=T`` narrows the stream to one tenant's events.
    :func:`read_sse_events` is the matching stdlib-only consumer
    (``sosae dashboard --live URL`` and ``sosae tail`` use it).
``/jobs`` (with ``--jobs``)
    The multi-tenant job API (:mod:`repro.obs.jobs`): ``POST /jobs``
    submits a spec bundle under a tenant id (202, or 429 off a quota /
    the bounded queue), ``GET /jobs[?tenant=T]`` lists job states,
    ``GET /jobs/<id>`` polls one job, and ``GET /report/<run_id>``
    fetches the report a finished job (or watched-spec run) produced.
    Tenant-labeled job metrics (bounded cardinality) join
    ``/metrics``; every lifecycle transition lands in the persistent
    job registry and the append-only audit log.

One :class:`~repro.obs.metrics.MetricsRegistry` spans the daemon's
lifetime, so counters and histogram reservoirs accumulate across runs
(that is what makes ``/metrics`` scrapes meaningful); each run gets a
fresh :class:`~repro.obs.spans.SpanRecorder` so span forests do not
grow without bound. After every run the :class:`AlertEngine` evaluates
its rules over the fresh scalars and the run-registry window, emitting
``AlertFired``/``AlertResolved`` on the bus (and therefore into
``/events`` and any JSONL sink).
"""

from __future__ import annotations

import json
import queue
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Callable, Optional, Sequence, Union
from urllib.parse import parse_qs, urlsplit
from urllib.request import urlopen

from repro.errors import ReproError
from repro.obs.alerts import AlertEngine, AlertRule, scalar_values
from repro.obs.coverage import coverage_scalars
from repro.obs.events import (
    AlertFired,
    AlertResolved,
    EventBus,
    TelemetryEvent,
    event_from_dict,
    use_events,
)
from repro.obs.jobs import (
    DEFAULT_QUEUE_LIMIT,
    DEFAULT_TENANT_QUOTA,
    AuditLog,
    JobManager,
    JobRegistry,
    tenant_samples,
)
from repro.obs.log import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import Profile, SamplingProfiler, use_profiler
from repro.obs.promexp import (
    CONTENT_TYPE,
    DEFAULT_LABEL_TOP_K,
    PromSample,
    bounded_label_values,
    render_prometheus,
)
from repro.obs.recorder import Recorder, use
from repro.obs.runs import (
    DEFAULT_RUNS_DIR,
    RunRegistry,
    _report_digest,
    current_git_sha,
    stage_summary,
)
from repro.obs.spans import SpanRecorder

__all__ = [
    "RunOutcome",
    "ServeDaemon",
    "SpecWatcher",
    "coverage_samples",
    "iter_sse_events",
    "read_sse_events",
]

_LOG = get_logger("obs.serve")

_SEVERITIES = ("info", "warning", "critical")

_COVERAGE_RATIO_HELP = {
    "coverage.component_ratio": "Fraction of architecture components "
    "exercised by the latest evaluation's mapping resolutions.",
    "coverage.link_ratio": "Fraction of architecture links crossed by "
    "walkthrough witness paths.",
    "coverage.event_type_ratio": "Fraction of concrete ontology event "
    "types exercised by scenarios.",
}
_COVERAGE_COUNT_HELP = {
    "coverage.untouched_components": "Components no scenario event "
    "resolved to in the latest evaluation.",
    "coverage.unexercised_event_types": "Concrete event types no "
    "scenario used in the latest evaluation.",
    "coverage.uncovered_links": "Architecture links no witness path "
    "crossed in the latest evaluation.",
    "coverage.dead_mappings": "Mapping entries no resolution was "
    "answered from in the latest evaluation.",
    "coverage.resolutions": "Successful event-to-component resolutions "
    "in the latest evaluation.",
    "coverage.supertype_resolutions": "Resolutions answered via a "
    "supertype hop in the latest evaluation.",
    "coverage.unmapped_events": "Typed events with no mapping "
    "resolution in the latest evaluation.",
}


def coverage_samples(
    coverage: dict,
    tenant_coverage: Optional[dict] = None,
    top: int = DEFAULT_LABEL_TOP_K,
) -> list[PromSample]:
    """``sosae_coverage_*`` gauges from a persisted coverage matrix
    dict, plus per-tenant ratio series from each tenant's latest
    covered run — the tenant dimension bounded to the ``top`` heaviest
    tenants (ranked by resolution volume) with the rest aggregated
    under ``other`` as the *worst* (minimum) ratio, since a coverage
    floor is the operationally meaningful rollup."""
    samples: list[PromSample] = []
    if coverage:
        scalars = coverage_scalars(coverage)
        for name in sorted(scalars):
            help_text = _COVERAGE_RATIO_HELP.get(
                name
            ) or _COVERAGE_COUNT_HELP.get(name, "")
            samples.append(PromSample(name, scalars[name], help=help_text))
    if tenant_coverage:
        per_tenant = {
            tenant: coverage_scalars(data)
            for tenant, data in tenant_coverage.items()
        }
        mapping = bounded_label_values(
            {
                tenant: scalars.get("coverage.resolutions", 0.0)
                for tenant, scalars in per_tenant.items()
            },
            top=top,
        )
        merged: dict[str, dict[str, float]] = {}
        for tenant in sorted(per_tenant):
            label = mapping[tenant]
            bucket = merged.setdefault(label, {})
            for name in _COVERAGE_RATIO_HELP:
                value = per_tenant[tenant][name]
                bucket[name] = min(bucket.get(name, 1.0), value)
        for label in sorted(merged):
            for name in sorted(merged[label]):
                samples.append(
                    PromSample(
                        name,
                        merged[label][name],
                        labels={"tenant": label},
                        help=_COVERAGE_RATIO_HELP[name],
                    )
                )
    return samples


class SpecWatcher:
    """Detects spec-file changes by polling mtimes and sizes.

    ``changed()`` compares the current fingerprint against the last one
    it saw and remembers the new one — the first call always reports a
    change. A missing file fingerprints as absent rather than erroring,
    so an editor's delete-then-rename save cycle reads as one change.
    """

    def __init__(self, paths: Sequence[Union[str, Path]]) -> None:
        self.paths = tuple(Path(path) for path in paths)
        self._fingerprint: Optional[tuple] = None

    def fingerprint(self) -> tuple:
        stamps = []
        for path in self.paths:
            try:
                stat = path.stat()
                stamps.append((str(path), stat.st_mtime_ns, stat.st_size))
            except OSError:
                stamps.append((str(path), None, None))
        return tuple(stamps)

    def changed(self) -> bool:
        return bool(self.changed_paths())

    def changed_paths(self) -> tuple[Path, ...]:
        """The watched paths whose fingerprints moved since the last
        poll (every path on the first call). Remembers the new
        fingerprint, like :meth:`changed`."""
        current = self.fingerprint()
        if self._fingerprint is None:
            self._fingerprint = current
            return tuple(self.paths)
        previous = self._fingerprint
        self._fingerprint = current
        return tuple(
            path
            for path, before, after in zip(self.paths, previous, current)
            if before != after
        )


@dataclass(frozen=True)
class RunOutcome:
    """What one serve-loop evaluation produced."""

    ok: bool
    error: Optional[str] = None
    consistent: Optional[bool] = None
    findings: int = 0
    run_id: Optional[str] = None
    fired: tuple[AlertFired, ...] = ()
    resolved: tuple[AlertResolved, ...] = ()
    #: "rule-name: detail" for every rule the registry history cannot
    #: answer yet — surfaced by ``serve --once --check`` output so an
    #: under-filled window is never a silent skip.
    insufficient: tuple[str, ...] = ()

    @property
    def alerting(self) -> bool:
        """Whether this run left any alert newly fired."""
        return bool(self.fired)


@dataclass
class _ServeState:
    """The snapshot HTTP handlers read (mutated under the state lock)."""

    runs_completed: int = 0
    runs_failed: int = 0
    incremental_hits: int = 0
    incremental_misses: int = 0
    last_error: Optional[str] = None
    last_run_timestamp: Optional[float] = None
    last_run_wall_seconds: Optional[float] = None
    consistent: Optional[bool] = None
    findings: int = 0
    report_json: Optional[str] = None
    metrics_snapshot: dict = field(default_factory=dict)
    stages: dict = field(default_factory=dict)
    alerts: list = field(default_factory=list)
    shard_stats: tuple = ()
    coverage: dict = field(default_factory=dict)


class ServeDaemon:
    """The continuous evaluation loop plus its HTTP face.

    ``build_sosae`` constructs a fresh :class:`~repro.core.evaluator.
    Sosae` from the spec source; it is called once up front and again
    whenever the watcher reports a change (a parse error keeps the
    previous pipeline and is surfaced on ``/healthz``). ``interval``
    re-runs on a cadence even without changes; with neither watch paths
    nor an interval the daemon evaluates once and then only serves.

    With ``incremental`` enabled (the default), spec edits touching only
    ``incremental_safe_paths`` — the architecture description, whose
    edits a :class:`~repro.core.incremental.DependencyTracker` can
    invalidate soundly — are re-evaluated through
    :func:`~repro.core.incremental.reevaluate`: only scenarios whose
    recorded dependencies the edit dirties are re-walked. Any other
    change (scenarios, mapping, parse errors, a missing tracker) falls
    back to a full evaluation; hits and misses are exposed as the
    ``serve.incremental_hit`` / ``serve.incremental_miss`` metrics.

    With ``workers`` > 1, *full* evaluations run through
    :class:`~repro.shard.BatchEvaluator` — the walkthrough stage is
    sharded across worker processes and each run's merged telemetry
    lands in the same recorder the single-process path uses. Per-shard
    timings are exposed as ``serve.shard.*`` gauges on ``/metrics``.
    The incremental path is untouched (it re-walks a handful of
    scenarios; process fan-out would cost more than it saves).
    """

    def __init__(
        self,
        build_sosae: Callable[[], object],
        rules: Sequence[AlertRule] = (),
        watch_paths: Sequence[Union[str, Path]] = (),
        interval: Optional[float] = None,
        registry: Optional[RunRegistry] = None,
        label: str = "serve",
        heartbeat: Optional[float] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        sse_keepalive: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
        incremental: bool = True,
        incremental_safe_paths: Sequence[Union[str, Path]] = (),
        workers: int = 1,
        profile_hz: Optional[float] = None,
        profile_history: int = 8,
        jobs: bool = False,
        tenant_quota: int = DEFAULT_TENANT_QUOTA,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        job_executors: int = 1,
        tenant_label_top: int = DEFAULT_LABEL_TOP_K,
    ) -> None:
        if interval is not None and interval <= 0:
            raise ReproError(f"interval must be positive, got {interval}")
        if workers < 1:
            raise ReproError(f"workers must be >= 1, got {workers}")
        if profile_hz is not None and profile_hz <= 0:
            raise ReproError(
                f"profile hz must be > 0, got {profile_hz:g}"
            )
        if profile_history < 1:
            raise ReproError(
                f"profile history must be >= 1, got {profile_history}"
            )
        self.build_sosae = build_sosae
        self.watcher = SpecWatcher(watch_paths)
        self.interval = interval
        self.registry = registry
        self.label = label
        self.host = host
        self._requested_port = port
        self.sse_keepalive = sse_keepalive
        self._clock = clock
        self.metrics = MetricsRegistry()
        self.bus = EventBus(
            capacity=2048,
            heartbeat_interval=heartbeat,
            metrics_source=self.metrics.to_dict,
        )
        self.engine = AlertEngine(tuple(rules))
        self.incremental = incremental
        self._incremental_safe = frozenset(
            str(Path(path)) for path in incremental_safe_paths
        )
        self.workers = workers
        self.profile_hz = profile_hz
        # A bounded ring of recent interval profiles: /profile merges
        # and serves them as folded text for `dashboard --live`.
        self._profiles: deque[Profile] = deque(maxlen=profile_history)
        self._tracker = None
        self._batch = None
        self._sosae = None
        self._git_sha: Optional[str] = None
        self._last_report = None
        self._last_digest: Optional[str] = None
        self._state = _ServeState()
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._started_at = time.time()
        self._httpd: Optional[_ServeHTTPServer] = None
        self._http_thread: Optional[threading.Thread] = None
        # One lock serializes every evaluation — the watch loop's and
        # the job executors' — because the recorder/event-bus
        # indirections are module globals (see repro.obs.jobs).
        self.eval_lock = threading.Lock()
        self.tenant_label_top = tenant_label_top
        self.jobs: Optional[JobManager] = None
        if jobs:
            jobs_root = (
                registry.root if registry is not None else Path(DEFAULT_RUNS_DIR)
            )
            self.jobs = JobManager(
                registry=JobRegistry(jobs_root),
                audit=AuditLog(jobs_root),
                run_registry=registry,
                bus=self.bus,
                metrics=self.metrics,
                evaluate=self._evaluate_full,
                tenant_quota=tenant_quota,
                queue_limit=queue_limit,
                executors=job_executors,
                eval_lock=self.eval_lock,
                run_label=f"{label}-job",
            )

    # ------------------------------------------------------------------
    # Evaluation loop
    # ------------------------------------------------------------------

    def run_once(
        self,
        rebuild: bool = False,
        changed_paths: Sequence[Union[str, Path]] = (),
    ) -> RunOutcome:
        """Run one evaluation, record it, and evaluate the alert rules.

        ``changed_paths`` names the watched files whose change triggered
        a ``rebuild``; when every one of them is incremental-safe and a
        dependency tracker from the previous run is available, the run
        goes through the incremental re-evaluation path instead of a
        full pipeline (with automatic full-evaluation fallback).
        """
        from repro.core.report_io import report_to_json  # core imports obs

        started_wall = time.time()
        started = time.perf_counter()
        used_incremental = False
        with self.eval_lock, use_events(self.bus):
            try:
                previous_sosae = None
                if self._sosae is None or rebuild:
                    previous_sosae = self._sosae
                    self._sosae = self.build_sosae()
                    # One `git rev-parse` per (re)build, not per run: a
                    # subprocess every interval tick would dwarf a small
                    # evaluation, and the sha only moves when the user
                    # commits — which touches the watched specs anyway.
                    self._git_sha = current_git_sha()
                recorder = Recorder(
                    spans=SpanRecorder(), metrics=self.metrics
                )
                profile: Optional[Profile] = None
                with use(recorder):
                    if self.profile_hz:
                        # Continuous profiling: sample this interval's
                        # evaluation (installing the profiler also makes
                        # a sharded run's workers sample themselves).
                        profiler = SamplingProfiler(hz=self.profile_hz)
                        profiler.start()
                        try:
                            with use_profiler(profiler):
                                report, used_incremental = (
                                    self._produce_report(
                                        previous_sosae,
                                        changed_paths,
                                        recorder,
                                    )
                                )
                        finally:
                            profile = profiler.stop()
                        with self._lock:
                            self._profiles.append(profile)
                    else:
                        report, used_incremental = self._produce_report(
                            previous_sosae, changed_paths, recorder
                        )
                    # The digest is O(report); between interval runs of
                    # an unchanged spec the report is identical, so an
                    # equality check replaces a re-canonicalization.
                    if (
                        self._last_digest is None
                        or report != self._last_report
                    ):
                        self._last_digest = _report_digest(report)
                    self._last_report = report
                    self._refresh_tracker(report)
                    record = (
                        self.registry.record(
                            self.label,
                            report,
                            recorder,
                            git_sha=self._git_sha,
                            report_digest=self._last_digest,
                            profile=profile,
                        )
                        if self.registry is not None
                        else None
                    )
            except ReproError as error:
                with self._lock:
                    self._state.runs_failed += 1
                    self._state.last_error = str(error)
                _LOG.error("serve evaluation failed: %s", error)
                return RunOutcome(ok=False, error=str(error))
            wall = time.perf_counter() - started
            snapshot = self.metrics.to_dict()
            findings = len(report.all_inconsistencies())
            values = scalar_values(
                snapshot,
                extra={
                    "report.findings": float(findings),
                    "report.consistent": 1.0 if report.consistent else 0.0,
                    "report.scenarios_passed": float(
                        len(report.passed_scenarios)
                    ),
                    "report.scenarios_failed": float(
                        len(report.failed_scenarios)
                    ),
                    "report.wall_seconds": wall,
                    "serve.incremental_hit": 1.0 if used_incremental else 0.0,
                },
            )
            if self.jobs is not None:
                # Per-tenant scalars for tenant-scoped metric rules
                # (rule `tenant = "acme"` + `metric = "jobs_failed"`
                # reads `tenant.acme.jobs_failed`).
                for tenant, stats in self.jobs.tenant_stats().items():
                    prefix = f"tenant.{tenant}."
                    values[prefix + "jobs_submitted"] = float(
                        stats["submitted"]
                    )
                    values[prefix + "jobs_done"] = float(stats["done"])
                    values[prefix + "jobs_failed"] = float(stats["failed"])
                    values[prefix + "jobs_rejected"] = float(
                        stats["rejected"]
                    )
                    values[prefix + "jobs_running"] = float(stats["running"])
                    values[prefix + "jobs_queued"] = float(stats["queued"])
                    values[prefix + "job_wall_seconds"] = float(
                        stats["wall_seconds"]
                    )
            history = self.registry.load() if self.registry is not None else ()
            # Coverage scalars for mode="coverage" rules. The drift
            # scalars compare against the latest *earlier* run that
            # carries a matrix (incremental fast-path runs don't), so a
            # "newly uncovered" rule fires on the transition itself.
            matrix = getattr(recorder, "coverage", None)
            coverage_data = matrix.to_dict() if matrix is not None else {}
            if coverage_data:
                previous_coverage = None
                for past in reversed(history):
                    if record is not None and past.run_id == record.run_id:
                        continue
                    if past.coverage:
                        previous_coverage = past.coverage
                        break
                values.update(
                    coverage_scalars(
                        coverage_data, previous=previous_coverage
                    )
                )
            transitions = self.engine.evaluate(
                values, history, now=self._clock()
            )
        with self._lock:
            state = self._state
            state.runs_completed += 1
            if used_incremental:
                state.incremental_hits += 1
            elif rebuild and self.incremental and previous_sosae is not None:
                state.incremental_misses += 1
            state.last_error = None
            state.last_run_timestamp = started_wall
            state.last_run_wall_seconds = wall
            state.consistent = report.consistent
            state.findings = findings
            state.report_json = report_to_json(report)
            state.metrics_snapshot = snapshot
            state.stages = stage_summary(recorder.roots)
            state.alerts = self.engine.to_dict()
            state.coverage = coverage_data
            state.shard_stats = (
                tuple(self._batch.last_shard_stats)
                if self._batch is not None and not used_incremental
                else ()
            )
            report_json = state.report_json
        if self.jobs is not None and record is not None:
            # Watched-spec runs join the job runs in the /report/<id>
            # cache, so any recorded run id resolves to its report.
            self.jobs.stash_report(record.run_id, report_json)
        fired = tuple(
            event for event in transitions if isinstance(event, AlertFired)
        )
        resolved = tuple(
            event for event in transitions if isinstance(event, AlertResolved)
        )
        for event in fired:
            _LOG.warning("%s", event.summary())
        for event in resolved:
            _LOG.info("%s", event.summary())
        return RunOutcome(
            ok=True,
            consistent=report.consistent,
            findings=findings,
            run_id=record.run_id if record is not None else None,
            fired=fired,
            resolved=resolved,
            insufficient=tuple(
                f"{state.rule.name}: {state.status_detail}"
                for state in self.engine.insufficient_history()
            ),
        )

    def _evaluate_full(self, sosae):
        """A full evaluation of ``sosae`` (a watch-loop run or a job):
        through the daemon's shared :class:`~repro.shard.BatchEvaluator`
        when it shards, else in-process. Every caller holds
        ``eval_lock``, so sharing ``self._batch`` is safe."""
        if self.workers > 1:
            # Imported lazily: repro.shard imports repro.core which
            # imports repro.obs.
            from repro.shard import BatchEvaluator

            if self._batch is None:
                self._batch = BatchEvaluator(workers=self.workers)
            return self._batch.evaluate(sosae)
        return sosae.evaluate()

    def _produce_report(
        self,
        previous_sosae,
        changed_paths: Sequence[Union[str, Path]],
        recorder: Recorder,
    ):
        """The new report, through the incremental path when the change
        is provably architecture-only; returns ``(report, hit)``."""
        if self._incremental_eligible(previous_sosae, changed_paths):
            # Imported lazily, like report_io above: core imports obs.
            from repro.core.incremental import reevaluate

            try:
                with recorder.span(
                    "evaluate.incremental",
                    scenarios=len(self._sosae.scenario_set.scenarios),
                ):
                    result = reevaluate(
                        self._last_report,
                        self._sosae.scenario_set,
                        previous_sosae.architecture,
                        self._sosae.architecture,
                        self._sosae.mapping,
                        options=self._sosae.walkthrough_options,
                        tracker=self._tracker,
                        constraints=tuple(self._sosae.constraints),
                    )
            except ReproError as error:
                _LOG.info(
                    "incremental re-evaluation unavailable (%s); "
                    "falling back to a full evaluation",
                    error,
                )
            else:
                _LOG.info(
                    "incremental re-evaluation: re-walked %d scenario(s), "
                    "carried %d",
                    len(result.rewalked),
                    len(result.carried_over),
                )
                return result.report, True
        return self._evaluate_full(self._sosae), False

    def _incremental_eligible(
        self,
        previous_sosae,
        changed_paths: Sequence[Union[str, Path]],
    ) -> bool:
        return (
            self.incremental
            and previous_sosae is not None
            and self._last_report is not None
            and self._tracker is not None
            and self._tracker.architecture is previous_sosae.architecture
            and bool(changed_paths)
            and bool(self._incremental_safe)
            and all(
                str(Path(path)) in self._incremental_safe
                for path in changed_paths
            )
        )

    def _refresh_tracker(self, report) -> None:
        """Record the dependency tracker for the next spec edit — one
        O(report) pass, off the re-evaluation hot path."""
        if not self.incremental:
            return
        from repro.core.incremental import DependencyTracker

        try:
            self._tracker = DependencyTracker.from_report(
                report,
                self._sosae.architecture,
                self._sosae.mapping,
                self._sosae.walkthrough_options,
            )
        except ReproError as error:
            self._tracker = None
            _LOG.warning("dependency tracking disabled for this run: %s", error)

    def serve_loop(
        self,
        poll: float = 1.0,
        max_runs: Optional[int] = None,
    ) -> None:
        """Block, re-evaluating on spec change / interval until stopped.

        ``max_runs`` bounds the number of evaluations (useful for CI
        smoke runs and tests); the HTTP server, if started, keeps
        serving the final state until :meth:`shutdown`.
        """
        last_run: Optional[float] = None
        runs = 0
        while not self._stop.is_set():
            now = self._clock()
            changed = (
                self.watcher.changed_paths() if self.watcher.paths else ()
            )
            rebuild = bool(changed)
            due = last_run is None or rebuild
            if (
                self.interval is not None
                and last_run is not None
                and now - last_run >= self.interval
            ):
                due = True
            if due:
                self.run_once(rebuild=rebuild, changed_paths=changed)
                last_run = self._clock()
                runs += 1
                if max_runs is not None and runs >= max_runs:
                    return
            self._stop.wait(poll)

    # ------------------------------------------------------------------
    # HTTP
    # ------------------------------------------------------------------

    def start_http(self) -> tuple[str, int]:
        """Start the HTTP server on a background thread; returns its
        bound (host, port) — port 0 picks a free one."""
        if self._httpd is not None:
            raise ReproError("the HTTP server is already running")
        self._httpd = _ServeHTTPServer(
            (self.host, self._requested_port), self
        )
        self._http_thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="sosae-serve-http",
            daemon=True,
        )
        self._http_thread.start()
        address = self._httpd.server_address
        _LOG.info("serving on http://%s:%d", address[0], address[1])
        return (str(address[0]), int(address[1]))

    @property
    def port(self) -> Optional[int]:
        if self._httpd is None:
            return None
        return int(self._httpd.server_address[1])

    @property
    def stopping(self) -> bool:
        return self._stop.is_set()

    def stop(self) -> None:
        """Ask the serve loop to exit (the HTTP server keeps running)."""
        self._stop.set()

    def shutdown(self) -> None:
        """Stop the loop and tear the HTTP server down."""
        self._stop.set()
        if self.jobs is not None:
            self.jobs.close()
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._http_thread is not None:
            self._http_thread.join(timeout=5)
            self._http_thread = None

    # ------------------------------------------------------------------
    # Endpoint bodies (read by the handler, computed under the lock)
    # ------------------------------------------------------------------

    def render_metrics(self) -> str:
        """The Prometheus exposition of the current state."""
        with self._lock:
            state = self._state
            snapshot = state.metrics_snapshot
            coverage = state.coverage
            active = [entry for entry in state.alerts if entry["active"]]
            extras = [
                PromSample(
                    "serve.runs",
                    state.runs_completed,
                    type="counter",
                    help="Evaluations the serve loop completed.",
                ),
                PromSample(
                    "serve.run_failures",
                    state.runs_failed,
                    type="counter",
                    help="Evaluations that failed (spec parse/build errors).",
                ),
                PromSample(
                    "serve.incremental_hit",
                    state.incremental_hits,
                    type="counter",
                    help="Rebuilds served through the incremental "
                    "re-evaluation path.",
                ),
                PromSample(
                    "serve.incremental_miss",
                    state.incremental_misses,
                    type="counter",
                    help="Rebuilds that fell back to a full evaluation "
                    "despite incremental mode.",
                ),
                PromSample(
                    "serve.up",
                    1,
                    help="Always 1 while the daemon answers scrapes.",
                ),
            ]
            if state.last_run_timestamp is not None:
                extras.append(
                    PromSample(
                        "serve.last_run_timestamp_seconds",
                        state.last_run_timestamp,
                        help="Wall-clock start of the latest evaluation.",
                    )
                )
            if state.last_run_wall_seconds is not None:
                extras.append(
                    PromSample(
                        "serve.last_run_wall_seconds",
                        state.last_run_wall_seconds,
                        help="Wall seconds the latest evaluation took.",
                    )
                )
            if state.consistent is not None:
                extras.append(
                    PromSample(
                        "serve.report_consistent",
                        1 if state.consistent else 0,
                        help="1 when the latest report found no "
                        "inconsistency.",
                    )
                )
                extras.append(
                    PromSample(
                        "serve.report_findings",
                        state.findings,
                        help="Findings in the latest report.",
                    )
                )
            for severity in _SEVERITIES:
                extras.append(
                    PromSample(
                        "serve.alerts_active",
                        sum(
                            1
                            for entry in active
                            if entry["severity"] == severity
                        ),
                        labels={"severity": severity},
                        help="Currently firing alert rules by severity.",
                    )
                )
            for stage in sorted(state.stages):
                extras.append(
                    PromSample(
                        "serve.stage_wall_seconds",
                        state.stages[stage]["wall_seconds"],
                        labels={"stage": stage},
                        help="Per-stage wall seconds of the latest "
                        "evaluation.",
                    )
                )
            if state.shard_stats:
                extras.append(
                    PromSample(
                        "serve.shard.workers",
                        len(state.shard_stats),
                        help="Worker shards of the latest multi-process "
                        "evaluation.",
                    )
                )
                for stats in state.shard_stats:
                    shard = {"shard": str(stats.shard)}
                    extras.append(
                        PromSample(
                            "serve.shard.wall_seconds",
                            stats.wall_seconds,
                            labels=shard,
                            help="Per-shard walkthrough wall seconds of "
                            "the latest multi-process evaluation.",
                        )
                    )
                    extras.append(
                        PromSample(
                            "serve.shard.scenarios",
                            stats.scenarios,
                            labels=shard,
                            help="Scenarios evaluated by each shard in "
                            "the latest multi-process evaluation.",
                        )
                    )
        if self.jobs is not None:
            extras.append(
                PromSample(
                    "serve.job_queue_depth",
                    self.jobs.queue_depth,
                    help="Jobs waiting in the bounded queue.",
                )
            )
            extras.extend(
                tenant_samples(
                    self.jobs.tenant_stats(), top=self.tenant_label_top
                )
            )
        # Each tenant's latest covered run feeds a tenant-labeled ratio
        # series (registry loads are fingerprint-cached, so this is a
        # dict walk, not an I/O pass, between runs).
        tenant_coverage: dict[str, dict] = {}
        if self.registry is not None:
            for past in self.registry.load():
                if past.tenant and past.coverage:
                    tenant_coverage[past.tenant] = past.coverage
        # The ratio gauges _finish_coverage records already live in the
        # metrics snapshot; keep only the samples that add a series
        # (labeled tenant lines, and scalars with no gauge twin).
        extras.extend(
            sample
            for sample in coverage_samples(
                coverage, tenant_coverage, top=self.tenant_label_top
            )
            if sample.labels or sample.name not in snapshot
        )
        return render_prometheus(snapshot, extras)

    def health(self) -> dict:
        with self._lock:
            state = self._state
            body = {
                "status": "ok",
                "uptime_seconds": time.time() - self._started_at,
                "runs_completed": state.runs_completed,
                "runs_failed": state.runs_failed,
                "incremental_hits": state.incremental_hits,
                "incremental_misses": state.incremental_misses,
                "last_error": state.last_error,
            }
        if self.jobs is not None:
            body["job_queue_depth"] = self.jobs.queue_depth
        return body

    def ready(self) -> bool:
        with self._lock:
            return self._state.runs_completed > 0

    def report_json(self) -> Optional[str]:
        with self._lock:
            return self._state.report_json

    def alerts_json(self) -> str:
        with self._lock:
            return json.dumps({"alerts": self._state.alerts}, sort_keys=True)

    def profile_folded(self, last: Optional[int] = None) -> Optional[str]:
        """The folded text of the recent interval-profile ring (merged
        in ring order; ``last`` bounds how many intervals). ``None``
        before the first profiled run."""
        with self._lock:
            profiles = list(self._profiles)
        if last is not None and last > 0:
            profiles = profiles[-last:]
        merged: Optional[Profile] = None
        for profile in profiles:
            merged = profile if merged is None else merged.merge(profile)
        return merged.to_folded() if merged is not None else None


class _ServeHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: tuple, daemon: ServeDaemon) -> None:
        super().__init__(address, _ServeHandler)
        self.sosae_daemon = daemon


class _ServeHandler(BaseHTTPRequestHandler):
    server: _ServeHTTPServer
    server_version = "sosae-serve"
    # HTTP/1.0 responses close the connection when done, which is what
    # the SSE stream relies on to signal its end.
    protocol_version = "HTTP/1.0"

    def log_message(self, format: str, *args) -> None:
        _LOG.debug("http %s %s", self.address_string(), format % args)

    def do_GET(self) -> None:  # noqa: N802 (BaseHTTPRequestHandler API)
        parts = urlsplit(self.path)
        daemon = self.server.sosae_daemon
        try:
            if parts.path == "/metrics":
                self._respond(200, CONTENT_TYPE, daemon.render_metrics())
            elif parts.path == "/healthz":
                self._respond_json(200, daemon.health())
            elif parts.path == "/readyz":
                ready = daemon.ready()
                self._respond_json(
                    200 if ready else 503,
                    {"ready": ready},
                )
            elif parts.path == "/report":
                report = daemon.report_json()
                if report is None:
                    self._respond_json(
                        503, {"error": "no evaluation has completed yet"}
                    )
                else:
                    self._respond(200, "application/json", report)
            elif parts.path.startswith("/report/"):
                self._get_run_report(daemon, parts.path[len("/report/"):])
            elif parts.path == "/jobs":
                self._list_jobs(daemon, parts.query)
            elif parts.path.startswith("/jobs/"):
                self._get_job(daemon, parts.path[len("/jobs/"):])
            elif parts.path == "/alerts":
                self._respond(200, "application/json", daemon.alerts_json())
            elif parts.path == "/profile":
                if daemon.profile_hz is None:
                    self._respond_json(
                        404,
                        {
                            "error": "continuous profiling is off "
                            "(start serve with --profile-hz)"
                        },
                    )
                else:
                    last = None
                    values = parse_qs(parts.query).get("last")
                    if values:
                        try:
                            last = max(1, int(values[0]))
                        except ValueError:
                            last = None
                    folded = daemon.profile_folded(last=last)
                    if folded is None:
                        self._respond_json(
                            503,
                            {"error": "no profiled run has completed yet"},
                        )
                    else:
                        self._respond(
                            200, "text/plain; charset=utf-8", folded
                        )
            elif parts.path == "/events":
                self._stream_events(daemon, parts.query)
            elif parts.path == "/":
                self._respond_json(
                    200,
                    {
                        "service": "sosae serve",
                        "endpoints": [
                            "/metrics",
                            "/healthz",
                            "/readyz",
                            "/report",
                            "/report/<run_id>",
                            "/alerts",
                            "/profile",
                            "/events",
                            "/jobs",
                            "/jobs/<job_id>",
                        ],
                    },
                )
            else:
                self._respond_json(404, {"error": f"no route {parts.path}"})
        except (BrokenPipeError, ConnectionResetError):
            pass

    def do_POST(self) -> None:  # noqa: N802 (BaseHTTPRequestHandler API)
        parts = urlsplit(self.path)
        daemon = self.server.sosae_daemon
        try:
            if parts.path != "/jobs":
                self._respond_json(
                    404, {"error": f"no POST route {parts.path}"}
                )
                return
            if daemon.jobs is None:
                self._respond_json(
                    404,
                    {"error": "job API disabled (start serve with --jobs)"},
                )
                return
            try:
                length = int(self.headers.get("Content-Length", "0"))
            except ValueError:
                length = 0
            if length <= 0:
                self._respond_json(
                    400, {"error": "POST /jobs needs a JSON body"}
                )
                return
            raw = self.rfile.read(length)
            try:
                payload = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as error:
                self._respond_json(
                    400, {"error": f"request body is not valid JSON: {error}"}
                )
                return
            if not isinstance(payload, dict):
                self._respond_json(
                    400, {"error": "request body must be a JSON object"}
                )
                return
            try:
                record = daemon.jobs.submit(
                    payload.get("bundle"),
                    str(payload.get("tenant", "")),
                    label=str(payload.get("label", "")),
                    actor=str(payload.get("actor", ""))
                    or self.address_string(),
                )
            except ReproError as error:
                self._respond_json(400, {"error": str(error)})
                return
            if record.state == "rejected":
                self._respond_json(
                    429,
                    {
                        "error": record.error,
                        "reason": record.reason,
                        "job": record.to_dict(),
                    },
                )
            else:
                self._respond_json(202, {"job": record.to_dict()})
        except (BrokenPipeError, ConnectionResetError):
            pass

    def _list_jobs(self, daemon: ServeDaemon, query: str) -> None:
        if daemon.jobs is None:
            self._respond_json(
                404, {"error": "job API disabled (start serve with --jobs)"}
            )
            return
        values = parse_qs(query).get("tenant")
        tenant = values[0] if values else None
        records = daemon.jobs.jobs(tenant)
        self._respond_json(
            200, {"jobs": [record.to_dict() for record in records]}
        )

    def _get_job(self, daemon: ServeDaemon, job_id: str) -> None:
        if daemon.jobs is None:
            self._respond_json(
                404, {"error": "job API disabled (start serve with --jobs)"}
            )
            return
        try:
            record = daemon.jobs.get(job_id)
        except ReproError as error:
            self._respond_json(404, {"error": str(error)})
            return
        self._respond_json(200, {"job": record.to_dict()})

    def _get_run_report(self, daemon: ServeDaemon, run_id: str) -> None:
        report = (
            daemon.jobs.report_json(run_id)
            if daemon.jobs is not None
            else None
        )
        if report is None:
            self._respond_json(
                404,
                {
                    "error": f"no cached report for run {run_id!r} "
                    "(evicted, unknown, or the job API is disabled)"
                },
            )
            return
        self._respond(200, "application/json", report)

    def _respond(self, status: int, content_type: str, body: str) -> None:
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _respond_json(self, status: int, data: dict) -> None:
        self._respond(status, "application/json", json.dumps(data, sort_keys=True))

    def _stream_events(self, daemon: ServeDaemon, query: str) -> None:
        params = parse_qs(query)
        replay = 0
        values = params.get("replay")
        if values:
            try:
                replay = max(0, int(values[0]))
            except ValueError:
                replay = 0
        tenant_values = params.get("tenant")
        tenant = tenant_values[0] if tenant_values else None

        def matches(event: TelemetryEvent) -> bool:
            # ?tenant=T narrows the stream to that tenant's events —
            # the ones carrying a matching `tenant` field (job
            # lifecycle, tenant-scoped run records).
            if tenant is None:
                return True
            return getattr(event, "tenant", None) == tenant

        inbox: "queue.Queue[TelemetryEvent]" = queue.Queue()

        def enqueue(event: TelemetryEvent) -> None:
            if matches(event):
                inbox.put(event)

        unsubscribe = daemon.bus.subscribe(enqueue)
        try:
            self.send_response(200)
            self.send_header("Content-Type", "text/event-stream")
            self.send_header("Cache-Control", "no-cache")
            self.end_headers()
            if replay:
                buffered = [
                    event
                    for event in daemon.bus.events()
                    if matches(event)
                ]
                for event in buffered[-replay:]:
                    self.wfile.write(_sse_frame(event))
            self.wfile.flush()
            while not daemon.stopping:
                try:
                    event = inbox.get(timeout=daemon.sse_keepalive)
                except queue.Empty:
                    self.wfile.write(b": keep-alive\n\n")
                    self.wfile.flush()
                    continue
                self.wfile.write(_sse_frame(event))
                self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError, OSError):
            pass
        finally:
            unsubscribe()


def _sse_frame(event: TelemetryEvent) -> bytes:
    data = json.dumps(event.to_dict(), sort_keys=True)
    return f"event: {event.kind}\ndata: {data}\n\n".encode("utf-8")


def iter_sse_events(
    url: str,
    limit: Optional[int] = None,
    duration: Optional[float] = None,
    connect_timeout: float = 10.0,
):
    """Yield telemetry events from a ``/events`` SSE stream as they
    arrive, until ``limit`` events were yielded, ``duration`` seconds
    elapsed, or the server closed the stream — whichever comes first
    (with neither bound, until close). Keep-alive comments and frames
    that fail to parse as events are skipped. Stdlib only; this is what
    ``sosae jobs tail`` follows live.
    """
    if not url.startswith(("http://", "https://")):
        raise ReproError(f"event streaming needs an http(s) URL, got {url!r}")
    yielded = 0
    deadline = (
        time.monotonic() + duration if duration is not None else None
    )
    data_lines: list[str] = []
    with urlopen(url, timeout=connect_timeout) as response:
        while True:
            if limit is not None and yielded >= limit:
                break
            if deadline is not None and time.monotonic() >= deadline:
                break
            try:
                raw = response.readline()
            except (TimeoutError, OSError):
                break
            if not raw:
                break
            line = raw.decode("utf-8", errors="replace").rstrip("\r\n")
            if not line:
                if data_lines:
                    try:
                        yield event_from_dict(
                            json.loads("\n".join(data_lines))
                        )
                        yielded += 1
                    except (ReproError, json.JSONDecodeError):
                        pass
                    data_lines = []
                continue
            if line.startswith(":"):
                continue
            if line.startswith("data:"):
                data_lines.append(line[5:].lstrip())


def read_sse_events(
    url: str,
    limit: Optional[int] = None,
    duration: Optional[float] = None,
    connect_timeout: float = 10.0,
) -> tuple[TelemetryEvent, ...]:
    """Collect a ``/events`` SSE stream back into a tuple of telemetry
    events (the batch form of :func:`iter_sse_events`; this is what
    ``sosae dashboard --live`` uses)."""
    return tuple(
        iter_sse_events(
            url,
            limit=limit,
            duration=duration,
            connect_timeout=connect_timeout,
        )
    )
