"""Cross-process telemetry collection and deterministic merging.

A distributed evaluation produces one telemetry *partial* per worker
process: the worker's span forest (recorded under its
:class:`~repro.obs.context.TraceContext`), its full-fidelity metrics
state, its event stream, and a wall-clock anchor. The parent feeds the
partials — in whatever order workers happen to finish — into a
:class:`TelemetryCollector`, which merges them into one
recorder-compatible view that ``export.py``, ``runs.py``,
``promexp.py``, and ``dashboard.py`` consume unchanged.

The merge is deterministic and arrival-order independent:

* partials are processed in ``(shard, trace_id)`` order, never arrival
  order;
* span forests keep the ids minted at creation time (no renumbering at
  merge), and stitch under the parent-process span named by their
  context's ``parent_span_id`` when the parent's recorder is given;
* worker span times are rebased from the worker's ``perf_counter``
  epoch into the parent's, using each process's wall-clock anchor, so
  merged timelines and per-shard lanes line up;
* metric registries merge by name (counters sum, gauges max, histograms
  union exact aggregates + sample reservoirs) in shard order;
* event streams interleave sorted by ``(shard, seq)`` and are restamped
  with one global sequence, keeping each event's original timestamp.

A partial is a frozen dataclass of plain values: it travels home as the
``ProcessPoolExecutor`` task result, pickled as is.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Optional

from repro.errors import ReproError
from repro.obs.coverage import CoverageMatrix
from repro.obs.events import TelemetryEvent, event_from_dict
from repro.obs.export import spans_from_jsonl, spans_to_jsonl
from repro.obs.instruments import Instruments
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import Profile
from repro.obs.recorder import Recorder
from repro.obs.spans import Span

__all__ = [
    "MergedTelemetry",
    "ShardSummary",
    "TelemetryCollector",
    "WorkerPartial",
    "clock_anchor",
    "snapshot_partial",
]


def clock_anchor() -> float:
    """This process's wall-clock anchor: what ``time.time()`` reads when
    ``time.perf_counter()`` reads zero. Span times are ``perf_counter``
    values, whose epoch is arbitrary per process; the difference between
    two processes' anchors rebases one's span times into the other's."""
    return time.time() - time.perf_counter()


@dataclass(frozen=True)
class WorkerPartial:
    """One worker process's telemetry contribution."""

    shard: int
    trace_id: str
    anchor: float                     # the worker's clock_anchor()
    spans_jsonl: str                  # spans_to_jsonl of the worker forest
    metrics_state: dict               # MetricsRegistry.state_dict()
    events: tuple[dict, ...]          # TelemetryEvent.to_dict(), seq order
    profile_folded: str = ""          # Profile.to_folded(), "" when unprofiled


def snapshot_partial(
    shard: int, trace_id: str, instruments: Instruments
) -> WorkerPartial:
    """Freeze a worker's bundle — its recorder, its bus's buffered
    events and its sampled profile — into the partial the parent
    ingests."""
    profile = instruments.profiler.profile()
    return WorkerPartial(
        shard=shard,
        trace_id=trace_id,
        anchor=clock_anchor(),
        spans_jsonl=spans_to_jsonl(instruments.recorder.roots),
        metrics_state=instruments.recorder.metrics.state_dict(),
        events=tuple(
            event.to_dict() for event in instruments.events.events()
        ),
        profile_folded=profile.to_folded() if profile else "",
    )


# ----------------------------------------------------------------------
# The collector
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ShardSummary:
    """One shard's footprint in a merged trace (for gauges and lanes)."""

    shard: int
    spans: int
    events: int
    wall_seconds: float

    def to_dict(self) -> dict:
        return {
            "shard": self.shard,
            "spans": self.spans,
            "events": self.events,
            "wall_seconds": self.wall_seconds,
        }


@dataclass(frozen=True)
class MergedTelemetry:
    """The collector's output: one recorder-compatible view.

    ``recorder`` quacks like a live :class:`~repro.obs.recorder.Recorder`
    (``.roots``, ``.metrics``), so every existing consumer — span
    exporters, ``RunRegistry.record``, the Prometheus exposition, the
    dashboard — works on merged multi-process telemetry unchanged.
    """

    recorder: Recorder
    events: tuple[TelemetryEvent, ...]
    shards: tuple[ShardSummary, ...]
    #: The folded sampling profiles of every profiled shard, merged in
    #: shard order; ``None`` when no partial carried one.
    profile: Optional[Profile] = None

    @property
    def roots(self) -> tuple[Span, ...]:
        return self.recorder.roots

    @property
    def metrics(self) -> MetricsRegistry:
        return self.recorder.metrics

    @property
    def coverage(self) -> Optional[CoverageMatrix]:
        return self.recorder.coverage


class TelemetryCollector:
    """Ingests worker partials, merges them deterministically.

    ``parent`` (optional) is the parent process's live recorder: worker
    span forests stitch under the parent span their trace context names,
    and worker metrics fold into the parent's registry, so the parent's
    recorder *becomes* the merged view. Without a parent the collector
    builds a standalone recorder from the partials alone.
    """

    def __init__(
        self,
        parent: Optional[Recorder] = None,
        anchor: Optional[float] = None,
    ) -> None:
        self.parent = parent
        # The reference anchor worker times are rebased against. With a
        # parent it is this process's clock anchor (worker spans must
        # line up with the parent's own perf_counter domain); without
        # one it is resolved at merge time as the smallest partial
        # anchor, so a standalone merge is a *pure function of the
        # partials* — byte-identical however they arrive.
        self._anchor = anchor
        if anchor is None and parent is not None:
            self._anchor = clock_anchor()
        self._partials: list[WorkerPartial] = []
        self._merged: Optional[MergedTelemetry] = None

    def ingest(self, partial: WorkerPartial) -> None:
        """Accept one worker's partial, in any arrival order."""
        if self._merged is not None:
            raise ReproError("collector already merged; ingest before merge()")
        self._partials.append(partial)

    @property
    def partials(self) -> tuple[WorkerPartial, ...]:
        return tuple(self._partials)

    def merge(self) -> MergedTelemetry:
        """Merge everything ingested (idempotent; arrival-order
        independent — partials are processed in shard order)."""
        if self._merged is not None:
            return self._merged
        ordered = sorted(
            self._partials, key=lambda p: (p.shard, p.trace_id)
        )
        anchor = self._anchor
        if anchor is None:
            anchor = min(
                (partial.anchor for partial in ordered), default=0.0
            )
        recorder = self.parent if self.parent is not None else Recorder()
        parent_index: dict[str, Span] = {}
        for root in recorder.roots:
            for span in root.iter_spans():
                if span.span_id is not None:
                    parent_index[span.span_id] = span

        shards: list[ShardSummary] = []
        merged_events: list[TelemetryEvent] = []
        merged_profile: Optional[Profile] = None
        for partial in ordered:
            roots = spans_from_jsonl(partial.spans_jsonl)
            shift = partial.anchor - anchor
            if shift:
                for root in roots:
                    for span in root.iter_spans():
                        span.start_wall += shift
                        span.end_wall += shift
            for root in roots:
                parent_span = (
                    parent_index.get(root.parent_id) if root.parent_id else None
                )
                if parent_span is not None:
                    parent_span.add_child(root)
                else:
                    recorder.spans.roots.append(root)
            recorder.metrics.merge_state(partial.metrics_state)
            if partial.profile_folded:
                shard_profile = Profile.from_folded(partial.profile_folded)
                merged_profile = (
                    shard_profile
                    if merged_profile is None
                    else merged_profile.merge(shard_profile)
                )
            events = tuple(
                event_from_dict(event) for event in partial.events
            )
            merged_events.extend(events)
            shards.append(
                ShardSummary(
                    shard=partial.shard,
                    spans=sum(root.count() for root in roots),
                    events=len(events),
                    wall_seconds=sum(root.wall_seconds for root in roots),
                )
            )
        # One global sequence over the interleaved stream; original
        # worker timestamps survive, only seq is restamped.
        restamped = tuple(
            replace(event, seq=position)
            for position, event in enumerate(merged_events, start=1)
        )
        self._merged = MergedTelemetry(
            recorder=recorder,
            events=restamped,
            shards=tuple(shards),
            profile=merged_profile,
        )
        return self._merged
