"""Typed telemetry event stream for live pipeline observation.

Spans and metrics (PR 2) and the run registry (PR 3) describe an
evaluation *after* it finished; while a long many-scenario run is in
flight the pipeline is a black box. This module adds the live layer: a
typed, subscriber-based **event bus** that instrumented code publishes
progress to — evaluation started/finished, each pipeline stage, each
scenario walked, each finding (with its stable finding id), each
simulator message fate, and periodic heartbeats carrying a metrics
snapshot.

The bus mirrors the :class:`~repro.obs.recorder.NullRecorder` pattern
exactly: instrumentation sites fetch the module-level current bus
(:func:`current_event_bus`) and check ``bus.enabled`` before building
any event, so while streaming is off (the default
:data:`NULL_EVENT_BUS`) the added cost is a single attribute load and a
boolean branch (the benchmark harness's ``obs.events.overhead_s``
measures what a live bus adds). Turning the stream on is scoping a
real :class:`EventBus`::

    bus = EventBus(heartbeat_interval=1.0,
                   metrics_source=recorder.metrics.to_dict)
    with JsonlSink("events.jsonl") as sink:
        bus.subscribe(sink)
        with use_events(bus):
            sosae.evaluate()

A live bus keeps a bounded ring buffer of recent events (for in-process
consumers such as the dashboard) and dispatches every event to its
subscribers in subscription order. The :class:`JsonlSink` subscriber
streams events to a JSON-lines file — the format ``sosae evaluate
--events out.jsonl`` writes, ``sosae tail`` pretty-prints, and
``sosae dashboard`` renders as a timeline. Every event type round-trips
through :meth:`TelemetryEvent.to_dict` / :func:`event_from_dict`.

Like the recorder indirection, the current bus is deliberately *not*
thread-local: the pipeline is synchronous, and a plain module global
keeps the disabled fast path to one attribute load.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, ClassVar, Iterator, Optional, TextIO, Union

from repro.errors import ReproError

__all__ = [
    "EVENT_TYPES",
    "NULL_EVENT_BUS",
    "AlertFired",
    "AlertResolved",
    "CoverageComputed",
    "EvaluationFinished",
    "EvaluationStarted",
    "EventBus",
    "FindingEmitted",
    "Heartbeat",
    "JobFinished",
    "JobRejected",
    "JobStarted",
    "JobSubmitted",
    "JsonlSink",
    "NullEventBus",
    "RunRecorded",
    "ScenarioFinished",
    "ScenarioStarted",
    "SimMessageFate",
    "StageFinished",
    "StageStarted",
    "current_event_bus",
    "event_from_dict",
    "events_enabled",
    "events_from_jsonl",
    "format_event",
    "read_events",
    "set_event_bus",
    "SEVERITY_LEVELS",
    "use_events",
]


# ----------------------------------------------------------------------
# Event types
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TelemetryEvent:
    """Base of every telemetry event.

    ``seq`` and ``timestamp`` (seconds since the epoch) are stamped by
    the bus at emission; concrete subclasses add their payload fields
    and a unique ``kind`` string used by the JSONL representation.
    """

    kind: ClassVar[str] = ""

    seq: int = 0
    timestamp: float = 0.0

    def to_dict(self) -> dict:
        """A JSON-serializable form: ``kind`` plus every field."""
        data: dict = {"kind": self.kind}
        for spec in fields(self):
            data[spec.name] = getattr(self, spec.name)
        return data

    def summary(self) -> str:
        """A one-line human rendering of the payload (no kind/seq)."""
        parts = []
        for spec in fields(self):
            if spec.name in ("seq", "timestamp"):
                continue
            parts.append(f"{spec.name}={getattr(self, spec.name)}")
        return " ".join(parts)


@dataclass(frozen=True)
class EvaluationStarted(TelemetryEvent):
    """``Sosae.evaluate`` began."""

    kind: ClassVar[str] = "evaluation-started"

    architecture: str = ""
    scenario_set: str = ""
    scenarios: int = 0

    def summary(self) -> str:
        return (
            f"evaluating {self.architecture!r} against "
            f"{self.scenarios} scenario(s) of {self.scenario_set!r}"
        )


@dataclass(frozen=True)
class EvaluationFinished(TelemetryEvent):
    """``Sosae.evaluate`` produced its report."""

    kind: ClassVar[str] = "evaluation-finished"

    consistent: bool = True
    findings: int = 0
    scenarios_passed: int = 0
    scenarios_failed: int = 0
    wall_seconds: float = 0.0

    def summary(self) -> str:
        verdict = "CONSISTENT" if self.consistent else "INCONSISTENT"
        return (
            f"{verdict}: {self.scenarios_passed} passed / "
            f"{self.scenarios_failed} failed, {self.findings} finding(s) "
            f"in {self.wall_seconds * 1e3:.1f}ms"
        )


@dataclass(frozen=True)
class StageStarted(TelemetryEvent):
    """One pipeline stage (validation, coverage, walkthrough, …) began."""

    kind: ClassVar[str] = "stage-started"

    stage: str = ""

    def summary(self) -> str:
        return f"stage {self.stage} started"


@dataclass(frozen=True)
class StageFinished(TelemetryEvent):
    """One pipeline stage finished."""

    kind: ClassVar[str] = "stage-finished"

    stage: str = ""
    wall_seconds: float = 0.0
    findings: int = 0

    def summary(self) -> str:
        rendered = f"stage {self.stage} finished in {self.wall_seconds * 1e3:.1f}ms"
        if self.findings:
            rendered += f" ({self.findings} finding(s))"
        return rendered


@dataclass(frozen=True)
class ScenarioStarted(TelemetryEvent):
    """The walkthrough engine started walking one scenario."""

    kind: ClassVar[str] = "scenario-started"

    scenario: str = ""
    negative: bool = False
    traces: int = 0

    def summary(self) -> str:
        flavor = " (negative)" if self.negative else ""
        return f"walking {self.scenario!r}{flavor}: {self.traces} trace(s)"


@dataclass(frozen=True)
class ScenarioFinished(TelemetryEvent):
    """One scenario's walkthrough completed with its verdict."""

    kind: ClassVar[str] = "scenario-finished"

    scenario: str = ""
    passed: bool = True
    findings: int = 0
    wall_seconds: float = 0.0

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        rendered = f"{status} {self.scenario!r}"
        if self.findings:
            rendered += f" ({self.findings} finding(s))"
        return rendered


@dataclass(frozen=True)
class FindingEmitted(TelemetryEvent):
    """The pipeline produced one finding (with its stable finding id)."""

    kind: ClassVar[str] = "finding-emitted"

    finding_id: str = ""
    finding_kind: str = ""
    severity: str = "error"
    scenario: Optional[str] = None
    event_label: Optional[str] = None
    message: str = ""

    def summary(self) -> str:
        where = ""
        if self.scenario:
            where = f" [{self.scenario}"
            if self.event_label:
                where += f" step {self.event_label}"
            where += "]"
        return (
            f"{self.finding_id} {self.severity}/{self.finding_kind}"
            f"{where}: {self.message}"
        )


@dataclass(frozen=True)
class SimMessageFate(TelemetryEvent):
    """One simulated message met its fate (sent/delivered/dropped/…)."""

    kind: ClassVar[str] = "sim-message-fate"

    fate: str = ""
    element: str = ""
    message: str = ""
    detail: str = ""

    def summary(self) -> str:
        rendered = f"{self.fate} {self.message!r} at {self.element}"
        if self.detail:
            rendered += f" ({self.detail})"
        return rendered


@dataclass(frozen=True)
class Heartbeat(TelemetryEvent):
    """Periodic liveness pulse carrying a metrics-registry snapshot."""

    kind: ClassVar[str] = "heartbeat"

    beat: int = 0
    metrics: dict = field(default_factory=dict)

    def summary(self) -> str:
        return f"heartbeat #{self.beat} ({len(self.metrics)} metric(s))"


@dataclass(frozen=True)
class RunRecorded(TelemetryEvent):
    """The run registry persisted this evaluation."""

    kind: ClassVar[str] = "run-recorded"

    run_id: str = ""
    label: str = ""
    tenant: str = ""
    job_id: str = ""

    def summary(self) -> str:
        rendered = f"recorded run {self.run_id} ({self.label})"
        if self.tenant:
            rendered += f" for tenant {self.tenant!r}"
        return rendered


@dataclass(frozen=True)
class AlertFired(TelemetryEvent):
    """An alert rule's condition held long enough for it to fire."""

    kind: ClassVar[str] = "alert-fired"

    rule: str = ""
    metric: str = ""
    severity: str = "warning"
    value: Optional[float] = None
    threshold: Optional[float] = None
    message: str = ""

    def summary(self) -> str:
        rendered = f"ALERT {self.rule} [{self.severity}]"
        if self.metric:
            rendered += f" {self.metric}={_compact(self.value)}"
            if self.threshold is not None:
                rendered += f" (threshold {_compact(self.threshold)})"
        if self.message:
            rendered += f": {self.message}"
        return rendered


@dataclass(frozen=True)
class AlertResolved(TelemetryEvent):
    """A previously firing alert rule's condition recovered."""

    kind: ClassVar[str] = "alert-resolved"

    rule: str = ""
    metric: str = ""
    severity: str = "warning"
    value: Optional[float] = None

    def summary(self) -> str:
        rendered = f"RESOLVED {self.rule} [{self.severity}]"
        if self.metric:
            rendered += f" {self.metric}={_compact(self.value)}"
        return rendered


@dataclass(frozen=True)
class JobSubmitted(TelemetryEvent):
    """A tenant submitted an evaluation job to the job API."""

    kind: ClassVar[str] = "job-submitted"

    job_id: str = ""
    tenant: str = ""
    label: str = ""
    spec_digest: str = ""

    def summary(self) -> str:
        return (
            f"job {self.job_id} submitted by tenant {self.tenant!r}"
            f" ({self.label or 'unlabeled'}, spec {self.spec_digest[:12]})"
        )


@dataclass(frozen=True)
class JobStarted(TelemetryEvent):
    """A queued job was dispatched and its evaluation began."""

    kind: ClassVar[str] = "job-started"

    job_id: str = ""
    tenant: str = ""
    queued_seconds: float = 0.0

    def summary(self) -> str:
        return (
            f"job {self.job_id} started for tenant {self.tenant!r}"
            f" after {self.queued_seconds * 1e3:.1f}ms in queue"
        )


@dataclass(frozen=True)
class JobFinished(TelemetryEvent):
    """A running job reached a terminal state (done or failed)."""

    kind: ClassVar[str] = "job-finished"

    job_id: str = ""
    tenant: str = ""
    state: str = "done"
    run_id: str = ""
    consistent: bool = True
    findings: int = 0
    wall_seconds: float = 0.0
    error: str = ""

    def summary(self) -> str:
        if self.state == "failed":
            return (
                f"job {self.job_id} FAILED for tenant {self.tenant!r}: "
                f"{self.error}"
            )
        verdict = "CONSISTENT" if self.consistent else "INCONSISTENT"
        rendered = (
            f"job {self.job_id} done for tenant {self.tenant!r}: {verdict}, "
            f"{self.findings} finding(s) in {self.wall_seconds * 1e3:.1f}ms"
        )
        if self.run_id:
            rendered += f" (run {self.run_id})"
        return rendered


@dataclass(frozen=True)
class JobRejected(TelemetryEvent):
    """A submission bounced off a quota or the bounded queue."""

    kind: ClassVar[str] = "job-rejected"

    job_id: str = ""
    tenant: str = ""
    reason: str = "quota"
    detail: str = ""

    def summary(self) -> str:
        rendered = (
            f"job {self.job_id} REJECTED for tenant {self.tenant!r}"
            f" ({self.reason})"
        )
        if self.detail:
            rendered += f": {self.detail}"
        return rendered


@dataclass(frozen=True)
class CoverageComputed(TelemetryEvent):
    """An evaluation's element-level coverage matrix was finalized."""

    kind: ClassVar[str] = "coverage-computed"

    components_exercised: int = 0
    components_total: int = 0
    links_covered: int = 0
    links_total: int = 0
    event_types_used: int = 0
    event_types_total: int = 0
    dead_mappings: int = 0
    digest: str = ""

    def summary(self) -> str:
        component_pct = (
            self.components_exercised / self.components_total
            if self.components_total
            else 1.0
        )
        link_pct = (
            self.links_covered / self.links_total if self.links_total else 1.0
        )
        rendered = (
            f"coverage: components {self.components_exercised}/"
            f"{self.components_total} ({component_pct:.0%}), links "
            f"{self.links_covered}/{self.links_total} ({link_pct:.0%})"
        )
        if self.dead_mappings:
            rendered += f", {self.dead_mappings} dead mapping(s)"
        if self.digest:
            rendered += f" [{self.digest}]"
        return rendered


def _compact(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:g}"


EVENT_TYPES: tuple[type[TelemetryEvent], ...] = (
    EvaluationStarted,
    EvaluationFinished,
    StageStarted,
    StageFinished,
    ScenarioStarted,
    ScenarioFinished,
    FindingEmitted,
    SimMessageFate,
    Heartbeat,
    RunRecorded,
    AlertFired,
    AlertResolved,
    JobSubmitted,
    JobStarted,
    JobFinished,
    JobRejected,
    CoverageComputed,
)

_BY_KIND: dict[str, type[TelemetryEvent]] = {
    cls.kind: cls for cls in EVENT_TYPES
}


def event_from_dict(data: dict) -> TelemetryEvent:
    """Rebuild the event a :meth:`TelemetryEvent.to_dict` serialized.

    Unknown *fields* are ignored (newer writers stay readable); an
    unknown *kind* is an error.
    """
    if not isinstance(data, dict):
        raise ReproError(
            f"telemetry event must be an object, got {type(data).__name__}"
        )
    kind = data.get("kind")
    cls = _BY_KIND.get(kind)
    if cls is None:
        raise ReproError(f"unknown telemetry event kind {kind!r}")
    known = {spec.name for spec in fields(cls)}
    return cls(**{key: value for key, value in data.items() if key in known})


def events_from_jsonl(text: str) -> tuple[TelemetryEvent, ...]:
    """Parse a JSONL event stream (as written by :class:`JsonlSink`)."""
    events: list[TelemetryEvent] = []
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            events.append(event_from_dict(json.loads(line)))
        except json.JSONDecodeError as error:
            raise ReproError(
                f"event JSONL line {number} is not valid JSON: {error}"
            ) from None
    return tuple(events)


def read_events(path: Union[str, Path]) -> tuple[TelemetryEvent, ...]:
    """Load an events file written by ``sosae evaluate --events``."""
    return events_from_jsonl(Path(path).read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# The bus
# ----------------------------------------------------------------------


class NullEventBus:
    """The zero-overhead default: accepts everything, records nothing."""

    enabled = False

    def emit(self, event: TelemetryEvent) -> None:
        pass

    def forward(self, event: TelemetryEvent) -> None:
        pass

    def subscribe(self, subscriber: Callable) -> Callable[[], None]:
        return lambda: None

    def events(self) -> tuple[TelemetryEvent, ...]:
        return ()

    def __repr__(self) -> str:
        return "NullEventBus()"


class EventBus:
    """A live, subscriber-based telemetry bus with a bounded buffer.

    ``capacity`` bounds the ring buffer of recent events (older events
    are evicted, subscribers still saw them). ``heartbeat_interval``
    (seconds, measured on ``clock``) makes the bus interleave
    :class:`Heartbeat` events into the stream while other events flow;
    ``metrics_source`` is a zero-argument callable (typically
    ``recorder.metrics.to_dict``) whose result each heartbeat carries.
    The pipeline is synchronous, so heartbeats piggyback on emission
    rather than a timer thread — a silent pipeline emits no heartbeats,
    which is exactly the diagnostic signal a stalled run should give.
    """

    enabled = True

    def __init__(
        self,
        capacity: int = 1024,
        heartbeat_interval: Optional[float] = None,
        metrics_source: Optional[Callable[[], dict]] = None,
        clock: Callable[[], float] = time.monotonic,
        wall_clock: Callable[[], float] = time.time,
    ) -> None:
        if capacity < 1:
            raise ReproError(f"event buffer capacity must be >= 1, got {capacity}")
        if heartbeat_interval is not None and heartbeat_interval <= 0:
            raise ReproError(
                f"heartbeat interval must be positive, got {heartbeat_interval}"
            )
        self._subscribers: list[Callable[[TelemetryEvent], None]] = []
        self._buffer: deque[TelemetryEvent] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._seq = 0
        self._clock = clock
        self._wall_clock = wall_clock
        self.heartbeat_interval = heartbeat_interval
        self.metrics_source = metrics_source
        self._beats = 0
        self._last_beat: Optional[float] = None

    @property
    def capacity(self) -> int:
        return self._buffer.maxlen or 0

    @property
    def subscriber_count(self) -> int:
        """How many subscribers are registered right now.

        Exposed so leak regressions (a disconnected SSE client whose
        subscriber lingers) are assertable: after every consumer
        detaches, the count must return to its baseline.
        """
        return len(self._subscribers)

    def subscribe(
        self, subscriber: Callable[[TelemetryEvent], None]
    ) -> Callable[[], None]:
        """Register a subscriber; returns its unsubscribe function.

        Subscribers are invoked synchronously, in subscription order,
        for every event emitted after registration.
        """
        with self._lock:
            self._subscribers.append(subscriber)

        def unsubscribe() -> None:
            with self._lock:
                try:
                    self._subscribers.remove(subscriber)
                except ValueError:
                    pass

        return unsubscribe

    def emit(self, event: TelemetryEvent) -> None:
        """Stamp, buffer, and dispatch one event (then maybe heartbeat)."""
        self._dispatch(event)
        if self.heartbeat_interval is not None and not isinstance(
            event, Heartbeat
        ):
            self._maybe_beat()

    def events(self) -> tuple[TelemetryEvent, ...]:
        """The buffered recent events, oldest first."""
        return tuple(self._buffer)

    def forward(self, event: TelemetryEvent) -> None:
        """Relay an event recorded on *another* bus (a worker process's)
        into this stream: the event gets this bus's next ``seq`` — the
        global sequence of the merged stream — but keeps the original
        ``timestamp``, because the moment it happened in the worker is
        the truth and the moment the parent collected it is not."""
        with self._lock:
            self._seq += 1
            stamped = replace(event, seq=self._seq)
            self._buffer.append(stamped)
            subscribers = tuple(self._subscribers)
        for subscriber in subscribers:
            subscriber(stamped)

    def _dispatch(self, event: TelemetryEvent) -> None:
        # The seq stamp and buffer append are guarded: the serve loop
        # and job-executor threads emit on the same bus concurrently,
        # and an unguarded `_seq += 1` can hand two events one seq.
        # Subscribers run outside the lock (they may block on I/O).
        with self._lock:
            self._seq += 1
            stamped = replace(
                event, seq=self._seq, timestamp=self._wall_clock()
            )
            self._buffer.append(stamped)
            subscribers = tuple(self._subscribers)
        for subscriber in subscribers:
            subscriber(stamped)

    def _maybe_beat(self) -> None:
        now = self._clock()
        if self._last_beat is None:
            # The first non-heartbeat event opens the cadence window.
            self._last_beat = now
            return
        if now - self._last_beat < self.heartbeat_interval:
            return
        self._last_beat = now
        self._beats += 1
        snapshot = dict(self.metrics_source()) if self.metrics_source else {}
        self._dispatch(Heartbeat(beat=self._beats, metrics=snapshot))

    def __repr__(self) -> str:
        return (
            f"EventBus(buffered={len(self._buffer)}/{self.capacity}, "
            f"subscribers={len(self._subscribers)})"
        )


# ----------------------------------------------------------------------
# The JSONL sink
# ----------------------------------------------------------------------


class JsonlSink:
    """A subscriber streaming events to a JSON-lines file.

    Accepts a path (opened and owned by the sink) or an already-open
    text handle (borrowed; ``close()`` then only flushes). Every event
    becomes one ``json.dumps(event.to_dict(), sort_keys=True)`` line.
    The stream is flushed whenever an :class:`EvaluationFinished` event
    passes through — so a consumer tailing the file sees a complete
    evaluation the moment it completes — and again on ``close()``.
    ``flush_every=N`` additionally flushes after every N written events,
    so a live consumer (``sosae tail --follow``) sees progress *during*
    a long evaluation, not only at its boundaries.
    """

    def __init__(
        self,
        target: Union[str, Path, TextIO],
        flush_every: Optional[int] = None,
    ) -> None:
        if flush_every is not None and flush_every < 1:
            raise ReproError(
                f"flush_every must be >= 1, got {flush_every}"
            )
        if isinstance(target, (str, Path)):
            self._handle: TextIO = Path(target).open("w", encoding="utf-8")
            self._owns_handle = True
        else:
            self._handle = target
            self._owns_handle = False
        self._flush_every = flush_every
        self._unflushed = 0
        self._closed = False

    def __call__(self, event: TelemetryEvent) -> None:
        if self._closed:
            return
        self._handle.write(
            json.dumps(event.to_dict(), sort_keys=True) + "\n"
        )
        self._unflushed += 1
        if isinstance(event, EvaluationFinished) or (
            self._flush_every is not None
            and self._unflushed >= self._flush_every
        ):
            self._handle.flush()
            self._unflushed = 0

    def close(self) -> None:
        """Flush, and close the handle when the sink opened it."""
        if self._closed:
            return
        self._closed = True
        self._handle.flush()
        if self._owns_handle:
            self._handle.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc_info) -> bool:
        self.close()
        return False


# ----------------------------------------------------------------------
# The current-bus indirection
# ----------------------------------------------------------------------


NULL_EVENT_BUS = NullEventBus()

_current: Union[NullEventBus, EventBus] = NULL_EVENT_BUS


def current_event_bus() -> Union[NullEventBus, EventBus]:
    """The bus instrumented code should publish to right now."""
    return _current


def events_enabled() -> bool:
    """Whether a live event bus is installed."""
    return _current.enabled


def set_event_bus(
    bus: Union[NullEventBus, EventBus],
) -> Union[NullEventBus, EventBus]:
    """Install a bus; returns the previous one (for restoring)."""
    global _current
    previous = _current
    _current = bus
    return previous


@contextmanager
def use_events(
    bus: Union[NullEventBus, EventBus],
) -> Iterator[Union[NullEventBus, EventBus]]:
    """Install a bus for the duration of the ``with`` block."""
    previous = set_event_bus(bus)
    try:
        yield bus
    finally:
        set_event_bus(previous)


# ----------------------------------------------------------------------
# Pretty-printing (the `sosae tail` renderer)
# ----------------------------------------------------------------------

_SEVERITY_BY_KIND = {
    EvaluationStarted.kind: "info",
    EvaluationFinished.kind: "info",
    StageStarted.kind: "debug",
    StageFinished.kind: "debug",
    ScenarioStarted.kind: "debug",
    ScenarioFinished.kind: "info",
    SimMessageFate.kind: "debug",
    Heartbeat.kind: "debug",
    RunRecorded.kind: "info",
    CoverageComputed.kind: "info",
    AlertResolved.kind: "info",
    JobSubmitted.kind: "info",
    JobStarted.kind: "info",
    JobRejected.kind: "warning",
}

#: Severity levels in ascending order — ``sosae tail --severity`` cuts
#: the stream at a minimum level using this ordering.
SEVERITY_LEVELS: tuple[str, ...] = ("debug", "info", "warning", "error")


def event_severity(event: TelemetryEvent) -> str:
    """The log severity of an event: ``debug``/``info``/``warning``/
    ``error`` — what ``sosae tail`` colors by and routes through the
    package logger's levels."""
    if isinstance(event, FindingEmitted):
        return "error" if event.severity == "error" else "warning"
    if isinstance(event, AlertFired):
        return "error" if event.severity == "critical" else "warning"
    if isinstance(event, EvaluationFinished) and not event.consistent:
        return "warning"
    if isinstance(event, ScenarioFinished) and not event.passed:
        return "warning"
    if isinstance(event, SimMessageFate) and event.fate in (
        "dropped",
        "rejected",
    ):
        return "warning"
    if isinstance(event, JobFinished):
        if event.state == "failed":
            return "error"
        return "info" if event.consistent else "warning"
    return _SEVERITY_BY_KIND.get(event.kind, "info")


def format_event(event: TelemetryEvent, base: Optional[float] = None) -> str:
    """One aligned, human-readable line for an event.

    ``base`` is the stream's first timestamp; when given, the line leads
    with the offset into the stream instead of an absolute epoch time.
    """
    if base is not None:
        stamp = f"+{event.timestamp - base:9.4f}s"
    else:
        stamp = time.strftime(
            "%H:%M:%S", time.localtime(event.timestamp)
        )
    return f"{stamp}  {event.seq:>5}  {event.kind:<20} {event.summary()}"
