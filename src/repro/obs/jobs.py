"""Multi-tenant evaluation jobs: the ``sosae serve`` job API's engine.

``sosae serve`` so far evaluates one watched spec. The ROADMAP's
"evaluation-as-a-service" item needs the daemon to also accept work:
a tenant POSTs a spec *bundle* (ScenarioML + xADL/Acme + mapping JSON
— the same three inputs ``sosae evaluate`` takes, inlined) and polls a
job through its lifecycle::

    queued -> running -> done | failed
    (or straight to `rejected` when a quota or the bounded queue says no)

Three persistent pieces, each a view over one append-only
:class:`~repro.obs.store.JsonlStore` (which owns the shared lock, the
fingerprint-keyed row cache, torn-tail recovery and the atomic
compaction rewrite; ``docs/JOBS.md`` documents the formats):

* :class:`JobRegistry` — ``.repro-runs/jobs.jsonl``, one
  :class:`JobRecord` line *per transition* (the latest line per job id
  wins on load).
* :class:`AuditLog` — ``.repro-runs/audit.jsonl``, one line per
  transition recording who (actor), what (job, tenant, transition,
  spec digest), and when. Never read on the hot path; append-only.
* :class:`~repro.obs.runs.RunRegistry` — each completed job records a
  run with ``tenant``/``job_id`` scoping, so the whole cross-run
  toolchain (``runs list/diff/attribute``, dashboards, alert rules)
  sees tenant traffic.

:class:`JobManager` ties them together: admission control (per-tenant
in-flight quotas, a bounded global queue — rejections emit
:class:`~repro.obs.events.JobRejected` and count toward
``sosae_serve_quota_rejections_total``), executor threads, typed
lifecycle events on the daemon's bus, and a bounded in-memory report
cache backing ``GET /report/<run_id>``.

Thread-safety: the recorder/event-bus indirections are module globals
(deliberately — see :mod:`repro.obs.recorder`), so evaluations must
not overlap. The manager serializes every evaluation behind
``eval_lock``; ``sosae serve`` shares that lock with its own watch
loop, making job executions and watched-spec runs mutually exclusive
while submissions, polls, and scrapes stay fully concurrent.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Callable, Optional, Union

from repro.errors import ReproError
from repro.obs.events import (
    NULL_EVENT_BUS,
    JobFinished,
    JobRejected,
    JobStarted,
    JobSubmitted,
)
from repro.obs.instruments import instrumented
from repro.obs.metrics import MetricsRegistry
from repro.obs.promexp import (
    DEFAULT_LABEL_TOP_K,
    PromSample,
    bounded_label_values,
)
from repro.obs.recorder import Recorder
from repro.obs.runs import ReportMemo, current_git_sha
from repro.obs.spans import SpanRecorder
from repro.obs.store import JsonlStore

__all__ = [
    "DEFAULT_QUEUE_LIMIT",
    "DEFAULT_TENANT_QUOTA",
    "JOB_STATES",
    "AuditLog",
    "JobManager",
    "JobRecord",
    "JobRegistry",
    "build_bundle_sosae",
    "compact_job_logs",
    "render_job_list",
    "spec_bundle_digest",
    "tenant_samples",
    "validate_bundle",
]

_JOBS_FILE = "jobs.jsonl"
_AUDIT_FILE = "audit.jsonl"
_FORMAT_VERSION = 1

#: Lifecycle states, in order of appearance.
JOB_STATES = ("queued", "running", "done", "failed", "rejected")
_TERMINAL_STATES = ("done", "failed", "rejected")

#: Default per-tenant in-flight (queued + running) job cap.
DEFAULT_TENANT_QUOTA = 2
#: Default global bound on the queued backlog.
DEFAULT_QUEUE_LIMIT = 16

_TENANT_MAX_LEN = 64


def _valid_tenant(tenant: str) -> bool:
    if not tenant or len(tenant) > _TENANT_MAX_LEN:
        return False
    return all(ch.isalnum() or ch in "._-" for ch in tenant)


# ----------------------------------------------------------------------
# The spec bundle
# ----------------------------------------------------------------------


def validate_bundle(bundle) -> dict:
    """Shape-check a submitted spec bundle (cheap; parsing is deferred
    to execution). Returns the bundle; raises :class:`ReproError` with
    a client-addressable message otherwise."""
    if not isinstance(bundle, dict):
        raise ReproError("spec bundle must be a JSON object")
    if not isinstance(bundle.get("scenarioml"), str) or not bundle["scenarioml"]:
        raise ReproError("spec bundle needs a non-empty 'scenarioml' document")
    has_xadl = isinstance(bundle.get("xadl"), str) and bundle["xadl"]
    has_acme = isinstance(bundle.get("acme"), str) and bundle["acme"]
    if not (has_xadl or has_acme):
        raise ReproError(
            "spec bundle needs an architecture: 'xadl' or 'acme' document"
        )
    if has_xadl and has_acme:
        raise ReproError("spec bundle must not carry both 'xadl' and 'acme'")
    if not isinstance(bundle.get("mapping"), str) or not bundle["mapping"]:
        raise ReproError("spec bundle needs a non-empty 'mapping' JSON document")
    return bundle


def spec_bundle_digest(bundle: dict) -> str:
    """A stable digest of a bundle's contents — the audit trail's
    "what was submitted" anchor.

    Hashes the sorted key/value pairs directly instead of rendering a
    canonical JSON string first: the documents are hundreds of KB and
    the digest sits on the submission path, where re-escaping them into
    one big string would cost more than the hash itself.
    """
    digest = hashlib.sha256()
    for key in sorted(bundle):
        value = bundle[key]
        digest.update(key.encode("utf-8"))
        digest.update(b"\x1f")
        digest.update(
            value.encode("utf-8")
            if isinstance(value, str)
            else json.dumps(value, sort_keys=True).encode("utf-8")
        )
        digest.update(b"\x1e")
    return digest.hexdigest()[:16]


def build_bundle_sosae(bundle: dict):
    """Parse a validated bundle into a ready
    :class:`~repro.core.evaluator.Sosae` pipeline."""
    # Imported lazily: repro.core imports repro.obs, not the reverse.
    from repro.core.evaluator import Sosae
    from repro.core.mapping import Mapping
    from repro.scenarioml.xml_io import parse_scenarioml

    scenario_set = parse_scenarioml(bundle["scenarioml"])
    if bundle.get("acme"):
        from repro.adl.acme import parse_acme

        architecture = parse_acme(bundle["acme"])
    else:
        from repro.adl.xadl import parse_xadl

        architecture = parse_xadl(bundle["xadl"])
    mapping = Mapping.from_json(
        bundle["mapping"], scenario_set.ontology, architecture
    )
    return Sosae(scenario_set, architecture, mapping)


# ----------------------------------------------------------------------
# Records and registries
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class JobRecord:
    """One job's state, as persisted per transition in ``jobs.jsonl``."""

    job_id: str
    tenant: str
    state: str
    label: str = ""
    spec_digest: str = ""
    submitted_at: float = 0.0
    started_at: float = 0.0
    finished_at: float = 0.0
    run_id: str = ""
    reason: str = ""                  # rejection reason ("quota"/"queue-full")
    error: str = ""
    consistent: bool = True
    findings: int = 0
    wall_seconds: float = 0.0

    @property
    def terminal(self) -> bool:
        return self.state in _TERMINAL_STATES

    def to_dict(self) -> dict:
        data = {spec.name: getattr(self, spec.name) for spec in fields(self)}
        data["format"] = _FORMAT_VERSION
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "JobRecord":
        if data.get("format") != _FORMAT_VERSION:
            raise ReproError(
                f"unsupported job record format {data.get('format')!r} "
                f"(expected {_FORMAT_VERSION})"
            )
        if data.get("state") not in JOB_STATES:
            raise ReproError(f"unknown job state {data.get('state')!r}")
        known = (spec.name for spec in fields(cls))
        return cls(**{name: data[name] for name in known if name in data})


class JobRegistry:
    """The job log: one :class:`JobRecord` line per transition in a
    :class:`~repro.obs.store.JsonlStore`; ``load()`` keeps the *latest*
    line per job id (submission order preserved)."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self._store = JsonlStore(self.root / _JOBS_FILE, JobRecord.from_dict)

    @property
    def path(self) -> Path:
        return self._store.path

    def append(self, record: JobRecord) -> None:
        """Persist one transition (thread-safe; executors and the
        submission path append concurrently)."""
        self._store.append(record.to_dict())

    def load(self) -> tuple[JobRecord, ...]:
        """Latest state per job, in first-submission order."""
        # A re-assigned key keeps its first position: submission order.
        latest = {record.job_id: record for record in self._store.rows()}
        return tuple(latest.values())

    def compact(
        self, keep_days: float, now: Optional[float] = None
    ) -> tuple[frozenset, dict]:
        """Retention pass: for every job that reached a terminal state
        more than ``keep_days`` ago, drop its intermediate transition
        lines and keep only the latest (the one ``load()`` uses anyway).
        Non-terminal and recent jobs keep their full transition history.
        Atomic and serve-safe (:meth:`~repro.obs.store.JsonlStore.rewrite`).

        Returns ``(stale_job_ids, stats)`` — the ids whose history was
        collapsed (the audit log compacts the same set) and
        kept/dropped line counts."""
        if keep_days < 0:
            raise ReproError(
                f"jobs compact needs keep-days >= 0, got {keep_days}"
            )
        horizon = (time.time() if now is None else now) - keep_days * 86400.0
        # Read before the rewrite takes the lock: a terminal job gains no
        # more transitions, so no append can make this set wrong.
        stale = frozenset(
            record.job_id
            for record in self.load()
            if record.terminal
            and record.finished_at
            and record.finished_at < horizon
        )
        kept, dropped = _collapse_to_last_line(
            self._store, lambda record: record.job_id, stale
        )
        return stale, {"jobs_kept": kept, "jobs_dropped": dropped}

    def jobs(self, tenant: Optional[str] = None) -> tuple[JobRecord, ...]:
        records = self.load()
        if tenant is None:
            return records
        return tuple(record for record in records if record.tenant == tenant)

    def get(self, job_id: str) -> JobRecord:
        for record in self.load():
            if record.job_id == job_id:
                return record
        raise ReproError(f"no job {job_id!r} under {self.root}")


class AuditLog:
    """Append-only who/what/when/digest trail, one JSON line per
    lifecycle transition (plain dicts in a
    :class:`~repro.obs.store.JsonlStore`). Written on every transition,
    read only by auditors (``sosae jobs`` never needs it to operate)."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self._store = JsonlStore(self.root / _AUDIT_FILE, dict)

    @property
    def path(self) -> Path:
        return self._store.path

    def append(
        self,
        *,
        timestamp: float,
        actor: str,
        tenant: str,
        job_id: str,
        transition: str,
        spec_digest: str = "",
        detail: str = "",
    ) -> None:
        self._store.append(
            {
                "timestamp": timestamp,
                "actor": actor or "anonymous",
                "tenant": tenant,
                "job_id": job_id,
                "transition": transition,
                "spec_digest": spec_digest,
                "detail": detail,
            }
        )

    def entries(self) -> tuple[dict, ...]:
        """Every audit entry, oldest first."""
        return self._store.rows()

    def compact(self, job_ids: frozenset) -> dict:
        """Collapse the trail for ``job_ids`` to one line each (the
        final transition). Entries for any other job survive verbatim."""
        kept, dropped = _collapse_to_last_line(
            self._store, lambda entry: entry.get("job_id", ""), job_ids
        )
        return {"audit_kept": kept, "audit_dropped": dropped}


def _collapse_to_last_line(
    store: JsonlStore, job_id_of: Callable, job_ids: frozenset
) -> tuple[int, int]:
    """Rewrite ``store`` so each of ``job_ids`` keeps only its last
    line; every other line survives verbatim. Returns the kept and
    dropped line counts."""

    def select(rows) -> list[int]:
        ids = [job_id_of(row) for row in rows]
        last = {job_id: index for index, job_id in enumerate(ids)}
        return [
            index
            for index, job_id in enumerate(ids)
            if job_id not in job_ids or last[job_id] == index
        ]

    kept, dropped = store.rewrite(select)
    return len(kept), len(dropped)


def compact_job_logs(
    registry: JobRegistry,
    audit: AuditLog,
    keep_days: float,
    now: Optional[float] = None,
) -> dict:
    """Retention pass over both job stores: jobs whose latest record is
    terminal and older than ``keep_days`` keep only their final
    ``jobs.jsonl`` line and final audit entry. The two rewrites take
    the shared file lock sequentially (never nested — flock on the same
    sidecar self-deadlocks within one process)."""
    stale, stats = registry.compact(keep_days, now=now)
    stats.update(audit.compact(stale))
    stats["stale_jobs"] = len(stale)
    return stats


# ----------------------------------------------------------------------
# The manager
# ----------------------------------------------------------------------

_STAT_KEYS = (
    "submitted",
    "rejected",
    "done",
    "failed",
    "running",
    "queued",
    "wall_seconds",
)


class JobManager:
    """Admission control, execution, and bookkeeping for tenant jobs.

    ``executors`` worker threads drain the queue FIFO (0 disables
    threads — tests and benchmarks then drive :meth:`run_pending`
    inline). Every evaluation runs with the manager's ``eval_lock``
    held and the bus/recorder globals installed inside it, so scenario
    progress streams to subscribers and the run registry sees full
    telemetry without racing the serve loop's own runs.
    """

    def __init__(
        self,
        *,
        registry: JobRegistry,
        audit: Optional[AuditLog] = None,
        run_registry=None,
        bus=None,
        metrics: Optional[MetricsRegistry] = None,
        build: Callable = build_bundle_sosae,
        evaluate: Optional[Callable] = None,
        tenant_quota: int = DEFAULT_TENANT_QUOTA,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        executors: int = 1,
        eval_lock: Optional[threading.Lock] = None,
        report_cache: int = 128,
        run_label: str = "job",
        clock: Callable[[], float] = time.time,
    ) -> None:
        if tenant_quota < 1:
            raise ReproError(
                f"tenant quota must be >= 1, got {tenant_quota}"
            )
        if queue_limit < 1:
            raise ReproError(
                f"queue limit must be >= 1, got {queue_limit}"
            )
        if executors < 0:
            raise ReproError(
                f"executors must be >= 0, got {executors}"
            )
        if report_cache < 1:
            raise ReproError(
                f"report cache size must be >= 1, got {report_cache}"
            )
        self.registry = registry
        self.audit = audit if audit is not None else AuditLog(registry.root)
        self.run_registry = run_registry
        self.bus = bus if bus is not None else NULL_EVENT_BUS
        self.metrics = metrics
        self.tenant_quota = tenant_quota
        self.queue_limit = queue_limit
        self.executors = executors
        self.eval_lock = eval_lock if eval_lock is not None else threading.Lock()
        self.run_label = run_label
        self._build = build
        self._evaluate = evaluate if evaluate is not None else (
            lambda sosae: sosae.evaluate()
        )
        self._clock = clock
        # One `git rev-parse` at construction, not one per job — a
        # subprocess per submission would dwarf small evaluations.
        self._git_sha = current_git_sha()
        self._rendered = ReportMemo()
        self._cond = threading.Condition()
        self._records: "OrderedDict[str, JobRecord]" = OrderedDict()
        self._bundles: dict[str, dict] = {}
        self._pending: deque[str] = deque()
        self._stats: dict[str, dict] = {}
        self._reports: "OrderedDict[str, str]" = OrderedDict()
        self._report_cache = report_cache
        self._threads: list[threading.Thread] = []
        self._closing = False
        self._seq = 0
        self._adopt_history()

    # -- history ------------------------------------------------------

    def _adopt_history(self) -> None:
        """Seed in-memory state from the persisted registry. Jobs left
        non-terminal by a previous process (their bundles are gone)
        fail loudly instead of looking queued forever."""
        for record in self.registry.jobs():
            self._seq = max(self._seq, _job_number(record.job_id))
            if not record.terminal:
                record = replace(
                    record,
                    state="failed",
                    finished_at=self._clock(),
                    error="orphaned by daemon restart",
                )
                self.registry.append(record)
                self.audit.append(
                    timestamp=record.finished_at,
                    actor="system",
                    tenant=record.tenant,
                    job_id=record.job_id,
                    transition="failed",
                    spec_digest=record.spec_digest,
                    detail="orphaned by daemon restart",
                )
            self._records[record.job_id] = record
            stats = self._tenant(record.tenant)
            stats["submitted"] += 1
            if record.state == "rejected":
                stats["rejected"] += 1
            elif record.state == "failed":
                stats["failed"] += 1
            elif record.state == "done":
                stats["done"] += 1
                stats["wall_seconds"] += record.wall_seconds

    # -- lifecycle ----------------------------------------------------

    def start(self) -> None:
        """Spawn the executor threads (idempotent; no-op when
        ``executors=0``)."""
        with self._cond:
            if self._threads or self.executors == 0:
                return
            for index in range(self.executors):
                thread = threading.Thread(
                    target=self._worker,
                    name=f"sosae-job-executor-{index}",
                    daemon=True,
                )
                self._threads.append(thread)
                thread.start()

    def close(self, timeout: float = 5.0) -> None:
        """Stop the executors (running jobs finish; queued jobs stay
        queued in memory but persist as queued on disk)."""
        with self._cond:
            self._closing = True
            self._cond.notify_all()
        for thread in self._threads:
            thread.join(timeout=timeout)
        self._threads.clear()

    # -- submission ---------------------------------------------------

    def submit(
        self,
        bundle: dict,
        tenant: str,
        label: str = "",
        actor: str = "",
    ) -> JobRecord:
        """Admit (or reject) one job. Shape errors raise
        :class:`ReproError` (a 400); quota and backpressure rejections
        *return* a ``rejected`` record (a 429) — they are part of the
        job history, not exceptions."""
        if not isinstance(tenant, str) or not _valid_tenant(tenant):
            raise ReproError(
                "tenant id must be 1-64 characters of [A-Za-z0-9._-]"
            )
        validate_bundle(bundle)
        digest = spec_bundle_digest(bundle)
        now = self._clock()
        with self._cond:
            self._seq += 1
            job_id = f"j{self._seq:04d}"
            stats = self._tenant(tenant)
            stats["submitted"] += 1
            in_flight = stats["queued"] + stats["running"]
            reason = ""
            if in_flight >= self.tenant_quota:
                reason = "quota"
                detail = (
                    f"tenant has {in_flight} job(s) in flight "
                    f"(quota {self.tenant_quota})"
                )
            elif len(self._pending) >= self.queue_limit:
                reason = "queue-full"
                detail = (
                    f"queue holds {len(self._pending)} job(s) "
                    f"(limit {self.queue_limit})"
                )
            if reason:
                record = JobRecord(
                    job_id=job_id,
                    tenant=tenant,
                    state="rejected",
                    label=label,
                    spec_digest=digest,
                    submitted_at=now,
                    finished_at=now,
                    reason=reason,
                    error=detail,
                )
                stats["rejected"] += 1
                self._records[job_id] = record
            else:
                record = JobRecord(
                    job_id=job_id,
                    tenant=tenant,
                    state="queued",
                    label=label,
                    spec_digest=digest,
                    submitted_at=now,
                )
                stats["queued"] += 1
                self._records[job_id] = record
                self._bundles[job_id] = bundle
        self.registry.append(record)
        self.audit.append(
            timestamp=now,
            actor=actor,
            tenant=tenant,
            job_id=job_id,
            transition=record.state,
            spec_digest=digest,
            detail=record.error if reason else "accepted",
        )
        if self.bus.enabled:
            if reason:
                self.bus.emit(
                    JobRejected(
                        job_id=job_id,
                        tenant=tenant,
                        reason=reason,
                        detail=record.error,
                    )
                )
            else:
                self.bus.emit(
                    JobSubmitted(
                        job_id=job_id,
                        tenant=tenant,
                        label=label,
                        spec_digest=digest,
                    )
                )
        if not reason:
            # Enqueue only after the 'queued' registry and audit lines
            # are persisted: an executor may claim the job the instant
            # it is visible, and its 'queued->running' line must never
            # beat the submission's own.
            with self._cond:
                self._pending.append(job_id)
                self._cond.notify_all()
            self.start()
        return record

    # -- queries ------------------------------------------------------

    def get(self, job_id: str) -> JobRecord:
        with self._cond:
            record = self._records.get(job_id)
        if record is None:
            raise ReproError(f"no job {job_id!r}")
        return record

    def jobs(self, tenant: Optional[str] = None) -> tuple[JobRecord, ...]:
        with self._cond:
            records = tuple(self._records.values())
        if tenant is None:
            return records
        return tuple(record for record in records if record.tenant == tenant)

    def wait(self, job_id: str, timeout: float = 30.0) -> JobRecord:
        """Block until a job reaches a terminal state."""
        deadline = time.monotonic() + timeout
        with self._cond:
            while True:
                record = self._records.get(job_id)
                if record is None:
                    raise ReproError(f"no job {job_id!r}")
                if record.terminal:
                    return record
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ReproError(
                        f"job {job_id} still {record.state} after "
                        f"{timeout:g}s"
                    )
                self._cond.wait(timeout=remaining)

    def report_json(self, run_id: str) -> Optional[str]:
        """The cached report JSON for a run id (jobs and, under
        ``sosae serve``, watched-spec runs), or ``None`` if evicted."""
        with self._cond:
            return self._reports.get(run_id)

    def stash_report(self, run_id: str, report_json: str) -> None:
        """Cache one run's report JSON (bounded, oldest evicted)."""
        with self._cond:
            self._reports[run_id] = report_json
            while len(self._reports) > self._report_cache:
                self._reports.popitem(last=False)

    def tenant_stats(self) -> dict[str, dict]:
        """Per-tenant counters: submitted/rejected/done/failed totals,
        queued/running gauges, done wall-seconds sum."""
        with self._cond:
            return {
                tenant: dict(stats) for tenant, stats in self._stats.items()
            }

    @property
    def queue_depth(self) -> int:
        with self._cond:
            return len(self._pending)

    # -- execution ----------------------------------------------------

    def run_pending(self) -> int:
        """Drain the queue on the calling thread (the ``executors=0``
        mode tests and benchmarks use). Returns jobs executed."""
        executed = 0
        while True:
            with self._cond:
                if not self._pending:
                    return executed
                job_id = self._pending.popleft()
            self._execute(job_id)
            executed += 1

    def _worker(self) -> None:
        while True:
            with self._cond:
                while not self._pending and not self._closing:
                    self._cond.wait()
                if self._closing:
                    return
                job_id = self._pending.popleft()
            self._execute(job_id)

    def _execute(self, job_id: str) -> None:
        with self._cond:
            record = self._records[job_id]
            bundle = self._bundles.pop(job_id, None)
        if bundle is None or record.state != "queued":
            return
        started = self._clock()
        queued_seconds = max(0.0, started - record.submitted_at)
        record = self._transition(
            replace(record, state="running", started_at=started),
            detail=f"queued {queued_seconds * 1e3:.1f}ms",
        )
        if self.bus.enabled:
            self.bus.emit(
                JobStarted(
                    job_id=job_id,
                    tenant=record.tenant,
                    queued_seconds=queued_seconds,
                )
            )
        begun = time.perf_counter()
        try:
            sosae = self._build(bundle)
            # The lock makes installing the (module-global) instrument
            # bundle safe: watched-spec runs in the serve loop take the
            # same lock around their own install. Recording happens
            # inside the install, so RunRecorded reaches the job bus.
            with self.eval_lock:
                recorder = Recorder(
                    spans=SpanRecorder(),
                    metrics=(
                        self.metrics
                        if self.metrics is not None
                        else MetricsRegistry()
                    ),
                )
                with instrumented(events=self.bus, recorder=recorder):
                    report = self._evaluate(sosae)
                    run_id = ""
                    report_text = ""
                    if self.run_registry is not None:
                        # One rendering serves the run record's digest
                        # and the cached report body; a same-spec
                        # resubmission (the common retrigger case)
                        # renders nothing. Safe under eval_lock.
                        rendered = self._rendered
                        rendered.update(report)
                        report_text = rendered.canonical
                        run = self.run_registry.record(
                            f"{self.run_label}-{record.tenant}",
                            report,
                            recorder,
                            git_sha=self._git_sha,
                            report_digest=rendered.digest,
                            tenant=record.tenant,
                            job_id=job_id,
                        )
                        run_id = run.run_id
            wall = time.perf_counter() - begun
            if run_id:
                self.stash_report(run_id, report_text)
            record = self._transition(
                replace(
                    record,
                    state="done",
                    finished_at=self._clock(),
                    run_id=run_id,
                    consistent=report.consistent,
                    findings=report.finding_count,
                    wall_seconds=wall,
                ),
                detail=f"run {run_id or '-'}",
            )
            if self.bus.enabled:
                self.bus.emit(
                    JobFinished(
                        job_id=job_id,
                        tenant=record.tenant,
                        state="done",
                        run_id=run_id,
                        consistent=record.consistent,
                        findings=record.findings,
                        wall_seconds=wall,
                    )
                )
        except Exception as error:  # noqa: BLE001 — a job must never
            # take its executor thread down; every failure is recorded.
            wall = time.perf_counter() - begun
            record = self._transition(
                replace(
                    record,
                    state="failed",
                    finished_at=self._clock(),
                    error=str(error) or type(error).__name__,
                    wall_seconds=wall,
                ),
                detail=str(error) or type(error).__name__,
            )
            if self.bus.enabled:
                self.bus.emit(
                    JobFinished(
                        job_id=job_id,
                        tenant=record.tenant,
                        state="failed",
                        wall_seconds=wall,
                        error=record.error,
                    )
                )

    def _transition(self, record: JobRecord, detail: str = "") -> JobRecord:
        with self._cond:
            previous = self._records[record.job_id]
            self._records[record.job_id] = record
            stats = self._tenant(record.tenant)
            if previous.state == "queued":
                stats["queued"] -= 1
            elif previous.state == "running":
                stats["running"] -= 1
            if record.state == "running":
                stats["running"] += 1
            elif record.state == "done":
                stats["done"] += 1
                stats["wall_seconds"] += record.wall_seconds
            elif record.state == "failed":
                stats["failed"] += 1
            self._cond.notify_all()
        self.registry.append(record)
        self.audit.append(
            timestamp=self._clock(),
            actor="executor",
            tenant=record.tenant,
            job_id=record.job_id,
            transition=f"{previous.state}->{record.state}",
            spec_digest=record.spec_digest,
            detail=detail,
        )
        return record

    def _tenant(self, tenant: str) -> dict:
        stats = self._stats.get(tenant)
        if stats is None:
            stats = self._stats[tenant] = {key: 0 for key in _STAT_KEYS}
            stats["wall_seconds"] = 0.0
        return stats


def _job_number(job_id: str) -> int:
    try:
        return int(job_id.lstrip("j"))
    except ValueError:
        return 0


def render_job_list(records) -> str:
    """An aligned text table of job records (``sosae jobs list``)."""
    if not records:
        return "no jobs recorded"
    headers = (
        "job", "tenant", "state", "label", "run", "wall", "findings",
        "detail",
    )
    rows = []
    for record in records:
        detail = record.reason or record.error
        rows.append((
            record.job_id,
            record.tenant,
            record.state,
            record.label or "-",
            record.run_id or "-",
            f"{record.wall_seconds * 1e3:.1f}ms" if record.wall_seconds else "-",
            str(record.findings) if record.state == "done" else "-",
            detail or "-",
        ))
    widths = [
        max(len(headers[column]), *(len(row[column]) for row in rows))
        for column in range(len(headers))
    ]
    lines = [
        "  ".join(
            header.ljust(width) for header, width in zip(headers, widths)
        ).rstrip()
    ]
    for row in rows:
        lines.append(
            "  ".join(
                cell.ljust(width) for cell, width in zip(row, widths)
            ).rstrip()
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Tenant-labeled metrics
# ----------------------------------------------------------------------


def tenant_samples(
    stats: dict[str, dict],
    top: int = DEFAULT_LABEL_TOP_K,
) -> list[PromSample]:
    """Tenant-labeled Prometheus samples from
    :meth:`JobManager.tenant_stats` output, with the tenant dimension
    bounded to the ``top`` busiest tenants plus an ``other`` bucket
    (ranked by jobs submitted; see
    :func:`~repro.obs.promexp.bounded_label_values`)."""
    if not stats:
        return []
    mapping = bounded_label_values(
        {tenant: rows["submitted"] for tenant, rows in stats.items()},
        top=top,
    )
    merged: dict[str, dict] = {}
    for tenant, rows in stats.items():
        label = mapping[tenant]
        bucket = merged.get(label)
        if bucket is None:
            bucket = merged[label] = {key: 0 for key in _STAT_KEYS}
            bucket["wall_seconds"] = 0.0
        for key in _STAT_KEYS:
            bucket[key] += rows[key]
    samples: list[PromSample] = []
    for label in sorted(merged):
        rows = merged[label]
        tag = {"tenant": label}
        for state in ("submitted", "done", "failed", "rejected"):
            samples.append(
                PromSample(
                    "serve.jobs",
                    rows[state],
                    {"tenant": label, "state": state},
                    type="counter",
                    help="Jobs by tenant and lifecycle outcome.",
                )
            )
        samples.append(
            PromSample(
                "serve.quota_rejections",
                rows["rejected"],
                tag,
                type="counter",
                help="Submissions bounced off a tenant quota or the "
                "bounded queue.",
            )
        )
        samples.append(
            PromSample(
                "serve.tenant_jobs_running",
                rows["running"],
                tag,
                type="gauge",
                help="Jobs currently executing, by tenant.",
            )
        )
        samples.append(
            PromSample(
                "serve.tenant_jobs_queued",
                rows["queued"],
                tag,
                type="gauge",
                help="Jobs waiting in the queue, by tenant.",
            )
        )
        samples.append(
            PromSample(
                "serve.tenant_job_wall_seconds",
                rows["wall_seconds"],
                tag,
                type="counter",
                help="Total wall seconds spent on completed jobs, "
                "by tenant.",
            )
        )
    return samples
