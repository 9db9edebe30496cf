"""Exporters for recorded spans and metrics.

Three consumers, three formats:

* **JSON-lines** (:func:`spans_to_jsonl` / :func:`spans_from_jsonl`) —
  the lossless archival format: one flat record per span with an
  ``id``/``parent`` pair, full wall and CPU timestamps, and attributes.
  Round-trips exactly.
* **Chrome trace** (:func:`chrome_trace` / :func:`spans_from_chrome_trace`)
  — a ``traceEvents`` JSON loadable by ``chrome://tracing`` and Perfetto:
  each span becomes one complete (``"ph": "X"``) event with microsecond
  ``ts``/``dur`` relative to the earliest root. The reverse direction
  reconstructs the tree from interval containment (what the viewer
  renders as nesting).
* **profile summary** (:func:`render_profile`) — a human-readable tree
  for terminals. Same-named siblings aggregate into one row (×N) so a
  100-scenario walkthrough summarizes as one line, not a hundred.
"""

from __future__ import annotations

import json
from typing import Iterable, Optional, Sequence

from repro.errors import ReproError
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import Span

__all__ = [
    "chrome_trace",
    "chrome_trace_json",
    "metrics_to_json",
    "render_profile",
    "spans_from_chrome_trace",
    "spans_from_jsonl",
    "spans_to_jsonl",
]


def _json_safe(value):
    """Attributes may hold arbitrary objects; degrade them to strings."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def _safe_attributes(attributes: dict) -> dict:
    return {str(key): _json_safe(value) for key, value in attributes.items()}


# ----------------------------------------------------------------------
# JSON-lines (lossless)
# ----------------------------------------------------------------------


def spans_to_jsonl(roots: Sequence[Span]) -> str:
    """Serialize a span forest as JSON-lines (depth-first preorder).

    Every record carries the positional ``id``/``parent`` pair (what
    pre-identity readers link the tree by). Spans stamped with a stable
    identity (recorded under a :class:`~repro.obs.context.TraceContext`)
    additionally carry ``span_id``/``parent_span_id``/``trace_id``/
    ``shard``, which survive re-serialization and cross-process merging
    where positional ids do not.
    """
    lines: list[str] = []
    next_id = 0

    def emit(span: Span, parent_id: Optional[int]) -> None:
        nonlocal next_id
        span_id = next_id
        next_id += 1
        record = {
            "id": span_id,
            "parent": parent_id,
            "name": span.name,
            "start_wall": span.start_wall,
            "end_wall": span.end_wall,
            "start_cpu": span.start_cpu,
            "end_cpu": span.end_cpu,
            "attributes": _safe_attributes(span.attributes),
        }
        if span.span_id is not None:
            record["span_id"] = span.span_id
            record["parent_span_id"] = span.parent_id
            record["trace_id"] = span.trace_id
            record["shard"] = span.shard
        lines.append(json.dumps(record, sort_keys=True))
        for child in span.children:
            emit(child, span_id)

    for root in roots:
        emit(root, None)
    return "\n".join(lines) + ("\n" if lines else "")


def spans_from_jsonl(text: str) -> tuple[Span, ...]:
    """Rebuild the span forest :func:`spans_to_jsonl` serialized.

    Reads both current records (with stable ``span_id`` identities) and
    pre-identity ones (positional ``id``/``parent`` only); the tree is
    linked positionally either way, so old trace files load unchanged.
    """
    by_id: dict[int, Span] = {}
    roots: list[Span] = []
    for line_number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            raise ReproError(
                f"span JSONL line {line_number} is not valid JSON: {error}"
            ) from None
        span = Span(record["name"], dict(record.get("attributes", {})))
        span.start_wall = record["start_wall"]
        span.end_wall = record["end_wall"]
        span.start_cpu = record.get("start_cpu", 0.0)
        span.end_cpu = record.get("end_cpu", 0.0)
        span.span_id = record.get("span_id")
        span.parent_id = record.get("parent_span_id")
        span.trace_id = record.get("trace_id")
        span.shard = record.get("shard")
        by_id[record["id"]] = span
        parent_id = record.get("parent")
        if parent_id is None:
            roots.append(span)
        else:
            parent = by_id.get(parent_id)
            if parent is None:
                raise ReproError(
                    f"span JSONL line {line_number} references unknown "
                    f"parent {parent_id}"
                )
            parent.add_child(span)
    return tuple(roots)


# ----------------------------------------------------------------------
# Chrome trace (chrome://tracing / Perfetto)
# ----------------------------------------------------------------------


def chrome_trace(
    roots: Sequence[Span], process_name: str = "sosae"
) -> dict:
    """The span forest as a Chrome trace-viewer document.

    Times are microseconds relative to the earliest root start, so the
    viewer's timeline starts at zero regardless of ``perf_counter``'s
    arbitrary epoch. An empty forest yields a valid document with only
    the process-name metadata event; a span that never finished (or has
    zero duration) is emitted with ``dur`` clamped to zero rather than a
    negative value the viewer rejects.

    Each span lands on the thread lane of its shard (``tid = shard + 1``,
    named ``"shard N"``; identity-less spans share lane 1 with shard 0),
    so a sharded walk's trace renders as per-shard swimlanes in
    Perfetto. Single-shard traces keep the legacy document shape — one
    process-name metadata row, no thread rows. Spans with a stable
    identity carry ``span_id``/``parent_span_id`` in ``args``, which the
    reverse direction prefers over interval containment.
    """
    shards = sorted(
        {(span.shard or 0) for root in roots for span in root.iter_spans()}
    )
    events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 1,
            "args": {"name": process_name},
        }
    ]
    if len(shards) > 1:
        for shard in shards:
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 1,
                    "tid": shard + 1,
                    "args": {
                        "name": "main" if shard == 0 else f"shard {shard}"
                    },
                }
            )
    base = min((root.start_wall for root in roots), default=0.0)

    def emit(span: Span) -> None:
        args = _safe_attributes(span.attributes)
        if span.span_id is not None:
            args["span_id"] = span.span_id
            args["parent_span_id"] = span.parent_id
        events.append(
            {
                "name": span.name,
                "cat": "sosae",
                "ph": "X",
                "pid": 1,
                "tid": (span.shard or 0) + 1,
                "ts": (span.start_wall - base) * 1e6,
                "dur": max(span.wall_seconds, 0.0) * 1e6,
                "args": args,
            }
        )
        for child in span.children:
            emit(child)

    for root in roots:
        emit(root)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def chrome_trace_json(roots: Sequence[Span], process_name: str = "sosae") -> str:
    """:func:`chrome_trace`, serialized."""
    return json.dumps(chrome_trace(roots, process_name), indent=1)


def spans_from_chrome_trace(document: dict) -> tuple[Span, ...]:
    """Reconstruct a span forest from a Chrome trace document.

    When the events carry stable span identities (``args.span_id`` /
    ``args.parent_span_id``, written by :func:`chrome_trace` since trace
    contexts exist), the tree is linked exactly by those references — a
    multi-shard trace round-trips with each scenario span nested under
    its walkthrough stage even though they sit on different thread
    lanes. Pre-identity documents fall back to the original
    interval-containment reconstruction (per thread lane), exactly as
    the trace viewer draws nesting. Only complete (``"X"``) events
    participate; CPU times are not representable and come back as zero.
    """
    try:
        events = document["traceEvents"]
    except (TypeError, KeyError):
        raise ReproError(
            "not a Chrome trace document: no 'traceEvents' key"
        ) from None
    complete = [event for event in events if event.get("ph") == "X"]
    if complete and all(
        "span_id" in (event.get("args") or {}) for event in complete
    ):
        return _spans_from_identified_events(complete)
    roots: list[Span] = []
    by_tid: dict[int, list[dict]] = {}
    for event in complete:
        by_tid.setdefault(event.get("tid", 1), []).append(event)
    for tid in sorted(by_tid):
        lane = by_tid[tid]
        # Earlier start first; at equal starts the longer (enclosing)
        # span first, so a parent always precedes its children on the
        # stack.
        lane.sort(key=lambda event: (event["ts"], -event["dur"]))
        stack: list[tuple[Span, float]] = []  # (span, end-ts)
        for event in lane:
            span = _span_from_trace_event(event, tid)
            end = event["ts"] + event["dur"]
            while stack and event["ts"] >= stack[-1][1]:
                stack.pop()
            if stack:
                stack[-1][0].add_child(span)
            else:
                roots.append(span)
            stack.append((span, end))
    return tuple(roots)


def _span_from_trace_event(event: dict, tid: int) -> Span:
    args = dict(event.get("args", {}))
    span = Span(
        event["name"],
        {
            key: value
            for key, value in args.items()
            if key not in ("span_id", "parent_span_id")
        },
    )
    span.start_wall = event["ts"] / 1e6
    span.end_wall = (event["ts"] + event["dur"]) / 1e6
    span.span_id = args.get("span_id")
    span.parent_id = args.get("parent_span_id")
    span.shard = tid - 1 if tid >= 1 else None
    return span


def _spans_from_identified_events(complete: list[dict]) -> tuple[Span, ...]:
    """Tree linkage by stable span references (document order kept)."""
    spans: list[Span] = []
    by_id: dict[str, Span] = {}
    for event in complete:
        span = _span_from_trace_event(event, event.get("tid", 1))
        spans.append(span)
        by_id[span.span_id] = span
    roots: list[Span] = []
    for span in spans:
        parent = by_id.get(span.parent_id) if span.parent_id else None
        if parent is not None and parent is not span:
            parent.add_child(span)
        else:
            roots.append(span)
    return tuple(roots)


# ----------------------------------------------------------------------
# Human-readable profile summary
# ----------------------------------------------------------------------


def render_profile(
    roots: Sequence[Span],
    metrics: Optional[MetricsRegistry] = None,
    max_depth: Optional[int] = None,
) -> str:
    """A terminal profile tree.

    Same-named siblings are aggregated into one ``×N`` row (count, total
    wall, total CPU, share of the root's wall time); rows keep
    first-appearance order so the tree reads in pipeline order.

    Degenerate inputs stay sensible: an empty forest renders a
    placeholder line (plus any metrics) instead of nothing, and a
    zero-duration root renders its children's share column as ``n/a``
    rather than dividing by (almost) zero.
    """
    lines: list[str] = []
    if not roots:
        lines.append("(no spans recorded)")
    for root in roots:
        root_wall = root.wall_seconds if root.wall_seconds > 0 else None
        lines.append(
            f"{root.name}  "
            f"wall {_ms(root.wall_seconds)}  cpu {_ms(root.cpu_seconds)}"
            f"{_render_attributes(root.attributes)}"
        )
        _render_children(root.children, 1, root_wall, lines, max_depth)
    if metrics is not None and len(metrics):
        lines.append("metrics:")
        for name, snapshot in metrics.to_dict().items():
            if snapshot["type"] == "histogram":
                mean = snapshot["mean"]
                rendered = (
                    f"n={snapshot['count']} mean={mean:.6g}"
                    if mean is not None
                    else "n=0"
                )
            else:
                rendered = f"{snapshot['value']:g}"
            lines.append(f"  {name} = {rendered}")
    return "\n".join(lines)


def _render_children(
    children: Iterable[Span],
    depth: int,
    root_wall: Optional[float],
    lines: list[str],
    max_depth: Optional[int],
) -> None:
    if max_depth is not None and depth > max_depth:
        return
    groups: dict[str, list[Span]] = {}
    for child in children:
        groups.setdefault(child.name, []).append(child)
    for name, group in groups.items():
        wall = sum(span.wall_seconds for span in group)
        cpu = sum(span.cpu_seconds for span in group)
        count = f" ×{len(group)}" if len(group) > 1 else ""
        share = (
            f"{100.0 * wall / root_wall:5.1f}%"
            if root_wall is not None
            else "  n/a "
        )
        attributes = (
            _render_attributes(group[0].attributes) if len(group) == 1 else ""
        )
        lines.append(
            f"{'  ' * depth}{name}{count}  "
            f"wall {_ms(wall)}  cpu {_ms(cpu)}  {share}{attributes}"
        )
        merged = [
            grandchild for span in group for grandchild in span.children
        ]
        _render_children(merged, depth + 1, root_wall, lines, max_depth)


def _render_attributes(attributes: dict) -> str:
    if not attributes:
        return ""
    rendered = ", ".join(
        f"{key}={_json_safe(value)}" for key, value in attributes.items()
    )
    return f"  [{rendered}]"


def _ms(seconds: float) -> str:
    return f"{seconds * 1e3:.3f}ms"


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def metrics_to_json(metrics: MetricsRegistry, indent: int = 2) -> str:
    """The registry snapshot as JSON text."""
    return json.dumps(metrics.to_dict(), indent=indent, sort_keys=True)
