"""The unified offline observability dashboard (``sosae dashboard``).

:func:`build_dashboard` renders everything the observability layer can
capture — a span trace (flamegraph), the run registry's history (metric
trend sparklines), an evaluation report (findings with expandable
provenance chains), and a telemetry event stream (timeline) — into
**one self-contained HTML file**: inline CSS, inline SVG, a few lines
of inline JS for expand/collapse, no external references of any kind
(CI asserts the output contains no ``http://``/``https://``), so the
artifact opens offline, attaches to a CI run, and survives archiving.

Every chart keeps to the house visual rules: one series color (blue),
the sequential blue ramp for flamegraph depth, reserved status colors
with icon + label (never color alone), text in ink tokens (never the
series color), hairline rules, system sans, dark mode via
``prefers-color-scheme``, and a table view behind every graphic.

Sections degrade independently: whatever inputs are absent simply
render as a short note, so a trace-only or events-only dashboard is
still useful.
"""

from __future__ import annotations

import json
import time
from html import escape
from pathlib import Path
from typing import Optional, Sequence, Union

from repro.errors import ReproError
from repro.obs.coverage import CoverageMatrix
from repro.obs.events import TelemetryEvent, event_severity
from repro.obs.export import spans_from_chrome_trace, spans_from_jsonl
from repro.obs.profiler import (
    Profile,
    _pct,
    _short_frame,
    _signed_pct,
    diff_profiles,
)
from repro.obs.jobs import JobRecord
from repro.obs.runs import RunRecord, _metric_scalars, scenario_costs
from repro.obs.spans import Span

__all__ = ["build_dashboard", "load_trace_file"]


def load_trace_file(path: Union[str, Path]) -> tuple[Span, ...]:
    """Load a span forest from either export format.

    Accepts the Chrome ``traceEvents`` document (``--trace-out``) or the
    span-per-line JSONL stream; the format is detected from the content.
    """
    text = Path(path).read_text(encoding="utf-8")
    stripped = text.strip()
    if not stripped:
        return ()
    if stripped.startswith("{"):
        try:
            document = json.loads(stripped)
        except json.JSONDecodeError:
            document = None
        if isinstance(document, dict) and "traceEvents" in document:
            return spans_from_chrome_trace(document)
    return spans_from_jsonl(text)


# ----------------------------------------------------------------------
# Formatting helpers
# ----------------------------------------------------------------------

# Sequential blue ramp, steps 400 -> 700: flamegraph depth. All steps
# are dark enough for white in-mark labels in both color schemes.
_FLAME_RAMP = (
    "#3987e5",
    "#2a78d6",
    "#256abf",
    "#1c5cab",
    "#184f95",
    "#104281",
    "#0d366b",
)

_SEVERITY_BADGES = {
    "error": ("critical", "✖", "error"),      # ✖
    "critical": ("critical", "✖", "critical"),
    "warning": ("warning", "⚠", "warning"),   # ⚠
    "info": ("info", "•", "info"),            # •
    "debug": ("debug", "·", "debug"),         # ·
}


def _ms(seconds: Optional[float]) -> str:
    if seconds is None:
        return "-"
    return f"{seconds * 1e3:.2f}ms"


def _compact(value: float) -> str:
    """Stat-tile value formatting: 1,284 / 12.9K / 4.2M."""
    magnitude = abs(value)
    if magnitude >= 1e6:
        return f"{value / 1e6:.1f}M"
    if magnitude >= 1e4:
        return f"{value / 1e3:.1f}K"
    if value == int(value):
        return f"{int(value):,}"
    return f"{value:,.3g}" if magnitude < 1 else f"{value:,.1f}"


def _badge(severity: str) -> str:
    cls, icon, label = _SEVERITY_BADGES.get(
        severity, _SEVERITY_BADGES["info"]
    )
    return (
        f'<span class="badge badge-{cls}">'
        f'<span class="badge-icon">{icon}</span>{label}</span>'
    )


def _tile(
    label: str,
    value: str,
    note: str = "",
    delta_html: str = "",
) -> str:
    note_html = f'<div class="tile-note">{escape(note)}</div>' if note else ""
    return (
        '<div class="tile">'
        f'<div class="tile-label">{escape(label)}</div>'
        f'<div class="tile-value">{escape(value)}</div>'
        f"{delta_html}{note_html}</div>"
    )


# ----------------------------------------------------------------------
# Flamegraph
# ----------------------------------------------------------------------


def _flame_rows(root: Span) -> list[tuple[Span, int, float, float]]:
    """(span, depth, left_fraction, width_fraction) for one root."""
    total = root.wall_seconds
    rows: list[tuple[Span, int, float, float]] = []

    def visit(span: Span, depth: int) -> None:
        left = (span.start_wall - root.start_wall) / total
        width = span.wall_seconds / total
        rows.append((span, depth, left, width))
        for child in span.children:
            visit(child, depth + 1)

    visit(root, 0)
    return rows


def _span_title(span: Span, root: Span) -> str:
    share = (
        100.0 * span.wall_seconds / root.wall_seconds
        if root.wall_seconds
        else 0.0
    )
    parts = [
        f"{span.name}: {_ms(span.wall_seconds)} wall "
        f"({share:.1f}% of {root.name}), {_ms(span.self_wall_seconds)} self,"
        f" {_ms(span.cpu_seconds)} cpu"
    ]
    for key, value in span.attributes.items():
        parts.append(f"{key}={value}")
    return " | ".join(parts)


def _render_flamegraph(spans: Sequence[Span]) -> str:
    roots = [root for root in spans if root.wall_seconds > 0]
    if not roots:
        return '<p class="empty">No trace loaded — pass one with --trace.</p>'
    blocks = []
    for root in roots:
        rows = _flame_rows(root)
        depth = max(d for _, d, _, _ in rows) + 1
        cells = []
        for span, level, left, width in rows:
            color = _FLAME_RAMP[min(level, len(_FLAME_RAMP) - 1)]
            width_pct = max(width * 100.0, 0.05)
            # In-mark labels only where they comfortably fit; narrow
            # spans keep the tooltip and the table view instead.
            label = (
                f'<span class="flame-label">{escape(span.name)}</span>'
                if width_pct >= 8.0
                else ""
            )
            cells.append(
                '<div class="flame-span" style="'
                f"left:{left * 100.0:.3f}%;width:{width_pct:.3f}%;"
                f'top:{level * 28}px;background:{color};" '
                f'title="{escape(_span_title(span, root), quote=True)}">'
                f"{label}</div>"
            )
        blocks.append(
            f'<div class="flame-root">'
            f'<div class="flame-caption">{escape(root.name)} — '
            f"{_ms(root.wall_seconds)} wall, {len(rows)} span(s)</div>"
            f'<div class="flame" style="height:{depth * 28}px">'
            + "".join(cells)
            + "</div></div>"
        )
    blocks.append(_flame_table(roots))
    return "".join(blocks)


def _flame_table(roots: Sequence[Span]) -> str:
    """The flamegraph's table view: spans aggregated by name."""
    totals: dict[str, dict] = {}
    grand = sum(root.wall_seconds for root in roots) or 1.0
    for root in roots:
        for span in root.iter_spans():
            entry = totals.setdefault(
                span.name, {"count": 0, "wall": 0.0, "self": 0.0, "cpu": 0.0}
            )
            entry["count"] += 1
            entry["wall"] += span.wall_seconds
            entry["self"] += span.self_wall_seconds
            entry["cpu"] += span.cpu_seconds
    rows = "".join(
        f"<tr><td>{escape(name)}</td><td>{entry['count']}</td>"
        f"<td>{_ms(entry['wall'])}</td><td>{_ms(entry['self'])}</td>"
        f"<td>{_ms(entry['cpu'])}</td>"
        f"<td>{100.0 * entry['wall'] / grand:.1f}%</td></tr>"
        for name, entry in sorted(
            totals.items(), key=lambda item: -item[1]["wall"]
        )
    )
    return (
        "<details><summary>Table view</summary>"
        '<table class="data"><thead><tr><th>span</th><th>count</th>'
        "<th>wall</th><th>self</th><th>cpu</th><th>share</th></tr></thead>"
        f"<tbody>{rows}</tbody></table></details>"
    )


# ----------------------------------------------------------------------
# Shard lanes (multi-process traces)
# ----------------------------------------------------------------------


def _lane_blocks(spans: Sequence[Span], shard: int) -> list[Span]:
    """The spans rendered as blocks in one shard's lane.

    Scenario spans are the interesting grain (which scenario ran where,
    when); a shard with none — typically shard 0, the parent process —
    falls back to its stage spans (children of its topmost span), then
    to the topmost spans themselves.
    """
    mine = [
        span
        for root in spans
        for span in root.iter_spans()
        if (span.shard or 0) == shard
    ]
    scenarios = [s for s in mine if s.name == "walkthrough.scenario"]
    if scenarios:
        return scenarios
    tops = [
        span
        for span in mine
        if span.parent_id is None
        or not any(other.span_id == span.parent_id for other in mine)
    ]
    stages = [child for top in tops for child in top.children]
    return stages or tops


def _render_shard_lanes(spans: Sequence[Span]) -> str:
    shards = sorted(
        {span.shard or 0 for root in spans for span in root.iter_spans()}
    )
    if len(shards) <= 1:
        return (
            '<p class="empty">Single-process trace — shard lanes appear '
            "for traces captured with evaluate --workers N.</p>"
        )
    finished = [
        span
        for root in spans
        for span in root.iter_spans()
        if span.end_wall is not None
    ]
    if not finished:
        return '<p class="empty">No finished spans in the trace.</p>'
    t0 = min(span.start_wall for span in finished)
    t1 = max(span.end_wall for span in finished)
    extent = (t1 - t0) or 1.0
    lanes = []
    table_rows = []
    for shard in shards:
        blocks = [b for b in _lane_blocks(spans, shard) if b.end_wall]
        cells = []
        for span in blocks:
            left = (span.start_wall - t0) / extent * 100.0
            width = max((span.end_wall - span.start_wall) / extent * 100.0,
                        0.05)
            label = span.attributes.get("scenario", span.name)
            text = (
                f'<span class="flame-label">{escape(str(label))}</span>'
                if width >= 8.0
                else ""
            )
            title = (
                f"{label}: {_ms(span.wall_seconds)} wall, "
                f"+{span.start_wall - t0:.4f}s"
            )
            cells.append(
                '<div class="flame-span lane-span" style="'
                f'left:{left:.3f}%;width:{width:.3f}%;" '
                f'title="{escape(title, quote=True)}">{text}</div>'
            )
        name = "main" if shard == 0 else f"shard {shard}"
        lanes.append(
            f'<div class="lane"><div class="lane-name">{escape(name)}</div>'
            f'<div class="lane-track">{"".join(cells)}</div></div>'
        )
        mine = [
            span
            for root in spans
            for span in root.iter_spans()
            if (span.shard or 0) == shard
        ]
        scenario_count = sum(
            1 for s in mine if s.name == "walkthrough.scenario"
        )
        busy = sum(b.wall_seconds for b in blocks)
        table_rows.append(
            f"<tr><td>{escape(name)}</td><td>{len(mine)}</td>"
            f"<td>{scenario_count}</td><td>{_ms(busy)}</td></tr>"
        )
    table = (
        "<details><summary>Table view</summary>"
        '<table class="data"><thead><tr><th>lane</th><th>spans</th>'
        "<th>scenarios</th><th>busy wall</th></tr></thead>"
        f'<tbody>{"".join(table_rows)}</tbody></table></details>'
    )
    return (
        f'<div class="lanes">{"".join(lanes)}</div>'
        f"{table}"
    )


# ----------------------------------------------------------------------
# Per-scenario cost treemap
# ----------------------------------------------------------------------


def _cost_source(
    spans: Sequence[Span], runs: Sequence[RunRecord]
) -> tuple[dict, str]:
    """Per-scenario costs from the loaded trace, else from the newest
    recorded run carrying them; ``(costs, source_label)``."""
    if spans:
        costs = scenario_costs(spans)
        if costs:
            return costs, "loaded trace"
    for record in reversed(list(runs)):
        try:
            costs = record.scenarios
        except ReproError:
            # A missing or damaged cost table degrades to "absent",
            # like a corrupt coverage matrix.
            continue
        if costs:
            return costs, f"run {record.run_id}"
    return {}, ""


def _render_cost_treemap(
    spans: Sequence[Span], runs: Sequence[RunRecord]
) -> str:
    costs, source = _cost_source(spans, runs)
    if not costs:
        return (
            '<p class="empty">No per-scenario costs — pass a trace from '
            "this version (or record runs with --record) to attribute "
            "evaluation cost to scenarios.</p>"
        )
    total = sum(entry["wall_seconds"] for entry in costs.values()) or 1.0
    ordered = sorted(
        costs.items(), key=lambda item: -item[1]["wall_seconds"]
    )
    cells = []
    for index, (name, entry) in enumerate(ordered):
        share = entry["wall_seconds"] / total
        width = max(share * 100.0, 0.3)
        color = _FLAME_RAMP[min(index, len(_FLAME_RAMP) - 1)]
        label = (
            f'<span class="flame-label">{escape(name)}</span>'
            if width >= 8.0
            else ""
        )
        title = (
            f"{name}: {_ms(entry['wall_seconds'])} wall "
            f"({share * 100.0:.1f}%), shard {entry.get('shard', 0)}, "
            f"{entry.get('steps', 0)} steps, "
            f"{entry.get('index_queries', 0)} index queries, "
            f"{entry.get('bfs_expansions', 0)} BFS expansions, "
            f"{entry.get('findings', 0)} finding(s)"
        )
        cells.append(
            '<div class="treemap-cell" style="'
            f'width:{width:.3f}%;background:{color};" '
            f'title="{escape(title, quote=True)}">{label}</div>'
        )
    rows = "".join(
        f"<tr><td>{escape(name)}</td>"
        f"<td>{entry.get('shard', 0)}</td>"
        f"<td>{_ms(entry['wall_seconds'])}</td>"
        f"<td>{100.0 * entry['wall_seconds'] / total:.1f}%</td>"
        f"<td>{entry.get('steps', 0)}</td>"
        f"<td>{entry.get('index_queries', 0)}</td>"
        f"<td>{entry.get('bfs_expansions', 0)}</td>"
        f"<td>{entry.get('findings', 0)}</td></tr>"
        for name, entry in ordered
    )
    table = (
        "<details><summary>Table view</summary>"
        '<table class="data"><thead><tr><th>scenario</th><th>shard</th>'
        "<th>wall</th><th>share</th><th>steps</th><th>index queries</th>"
        "<th>BFS</th><th>findings</th></tr></thead>"
        f"<tbody>{rows}</tbody></table></details>"
    )
    return (
        f'<p class="section-note">source: {escape(source)}</p>'
        f'<div class="treemap">{"".join(cells)}</div>{table}'
    )


# ----------------------------------------------------------------------
# Differential flamegraph (sampled profiles)
# ----------------------------------------------------------------------

# Diverging ramps for share deltas, light -> strong. All steps stay
# dark enough for white in-mark labels; near-zero movement renders in
# the neutral step so color always means *change*, never noise.
_DIFF_REDS = ("#b55f5f", "#b23d3d", "#9c2424")      # regressed (grew)
_DIFF_BLUES = ("#5b8ec9", "#3a7ac2", "#2561a8")     # improved (shrank)
_DIFF_NEUTRAL = "#77766f"

# |cumulative share delta| bucket edges for the ramps above.
_DIFF_EDGES = (0.002, 0.02, 0.08)


def _delta_color(delta: float) -> str:
    magnitude = abs(delta)
    if magnitude < _DIFF_EDGES[0]:
        return _DIFF_NEUTRAL
    ramp = _DIFF_REDS if delta > 0 else _DIFF_BLUES
    if magnitude < _DIFF_EDGES[1]:
        return ramp[0]
    if magnitude < _DIFF_EDGES[2]:
        return ramp[1]
    return ramp[2]


def _profile_tree(before: Profile, after: Profile) -> dict:
    """The union call tree of both profiles: each node carries its
    cumulative sample count on each side."""
    root = {"before": 0, "after": 0, "children": {}}
    for profile, side in ((before, "before"), (after, "after")):
        for stack, count in profile.counts.items():
            root[side] += count
            node = root
            for frame in stack:
                node = node["children"].setdefault(
                    frame, {"before": 0, "after": 0, "children": {}}
                )
                node[side] += count
    return root


def _frame_label(frame: str) -> str:
    """``qualname`` alone — the in-mark label; tooltips carry the rest."""
    parts = frame.split(":")
    return parts[1] if len(parts) >= 2 else frame


def _render_diff_flamegraph(
    profile_before: Optional[Profile], profile_after: Optional[Profile]
) -> str:
    if profile_before is None and profile_after is None:
        return (
            '<p class="empty">No profile loaded — sample runs with '
            "--profile-hz and pass folded profiles (or profiled runs) "
            "with --profile-before/--profile-after.</p>"
        )
    before = profile_before or Profile()
    after = profile_after or Profile()
    differential = profile_before is not None and profile_after is not None
    if not before and not after:
        return (
            '<p class="empty">The loaded profile(s) contain zero samples '
            "— the run finished between sampler ticks; lower the period "
            "with a higher --profile-hz.</p>"
        )
    total_before = before.samples
    total_after = after.samples
    # Widths come from the after profile (the run under scrutiny); a
    # single loaded profile is its own width basis.
    basis_side = "after" if total_after else "before"
    basis_total = total_after or total_before
    tree = _profile_tree(before, after)
    cells: list[str] = []
    max_depth = 0

    def visit(frame: str, node: dict, depth: int, left: float) -> None:
        nonlocal max_depth
        max_depth = max(max_depth, depth)
        width = node[basis_side] / basis_total
        share_before = node["before"] / total_before if total_before else 0.0
        share_after = node["after"] / total_after if total_after else 0.0
        delta = share_after - share_before
        color = (
            _delta_color(delta)
            if differential
            else _FLAME_RAMP[min(depth, len(_FLAME_RAMP) - 1)]
        )
        width_pct = max(width * 100.0, 0.05)
        label = (
            f'<span class="flame-label">{escape(_frame_label(frame))}</span>'
            if width_pct >= 8.0
            else ""
        )
        if differential:
            title = (
                f"{frame}: cum {_pct(share_before)} -> {_pct(share_after)} "
                f"({_signed_pct(delta)}), samples "
                f"{node['before']} -> {node['after']}"
            )
        else:
            title = (
                f"{frame}: cum {_pct(width)}, {node[basis_side]} sample(s)"
            )
        cells.append(
            '<div class="flame-span" style="'
            f"left:{left * 100.0:.3f}%;width:{width_pct:.3f}%;"
            f'top:{depth * 28}px;background:{color};" '
            f'title="{escape(title, quote=True)}">{label}</div>'
        )
        child_left = left
        for child_frame in sorted(node["children"]):
            child = node["children"][child_frame]
            if not child[basis_side]:
                continue  # frames only on the zero-width side
            visit(child_frame, child, depth + 1, child_left)
            child_left += child[basis_side] / basis_total

    child_left = 0.0
    for frame in sorted(tree["children"]):
        child = tree["children"][frame]
        if not child[basis_side]:
            continue
        visit(frame, child, 0, child_left)
        child_left += child[basis_side] / basis_total

    if differential:
        caption = (
            f"before: {total_before} sample(s) @ {before.hz:g} Hz — "
            f"after: {total_after} sample(s) @ {after.hz:g} Hz "
            "(width = after-profile share)"
        )
        legend = (
            '<p class="section-note">'
            f'<span style="color:{_DIFF_REDS[1]}">■</span> regressed '
            "(self/cumulative share grew) · "
            f'<span style="color:{_DIFF_BLUES[1]}">■</span> improved '
            "(share shrank) · "
            f'<span style="color:{_DIFF_NEUTRAL}">■</span> unchanged</p>'
        )
    else:
        loaded = "after" if total_after else "before"
        caption = (
            f"single profile ({loaded}): {basis_total} sample(s) @ "
            f"{(after if total_after else before).hz:g} Hz — load both "
            "sides for differential red/blue coloring"
        )
        legend = ""
    parts = [
        f'<div class="flame-root"><div class="flame-caption">'
        f"{escape(caption)}</div>"
        f'<div class="flame" style="height:{(max_depth + 1) * 28}px">'
        + "".join(cells)
        + "</div></div>",
        legend,
    ]
    if differential:
        parts.append(_diff_table(before, after))
    return "".join(parts)


def _diff_table(before: Profile, after: Profile, top: int = 20) -> str:
    """The differential's table view: biggest self-share movers."""
    diff = diff_profiles(before, after)
    moved = [f for f in diff.frames if f.self_delta != 0.0]
    if not moved:
        return (
            '<p class="section-note">no self-time movement between '
            "the profiles</p>"
        )
    ranked = (
        list(diff.regressed[:top])
        + list(reversed(diff.improved[-top:]))
    )
    rows = "".join(
        f"<tr><td><code>{escape(_short_frame(delta.frame))}</code></td>"
        f"<td>{_pct(delta.self_before)}</td>"
        f"<td>{_pct(delta.self_after)}</td>"
        f'<td class="{"delta-bad" if delta.self_delta > 0 else "delta-good"}"'
        f">{_signed_pct(delta.self_delta)}</td>"
        f"<td>{_pct(delta.cum_before)}</td>"
        f"<td>{_pct(delta.cum_after)}</td>"
        f"<td>{_signed_pct(delta.cum_delta)}</td></tr>"
        for delta in ranked
        if delta.self_delta != 0.0
    )
    return (
        "<details><summary>Table view (top share movers)</summary>"
        '<table class="data"><thead><tr><th>frame</th>'
        "<th>self before</th><th>self after</th><th>Δself</th>"
        "<th>cum before</th><th>cum after</th><th>Δcum</th></tr></thead>"
        f"<tbody>{rows}</tbody></table></details>"
    )


# ----------------------------------------------------------------------
# Metric trends
# ----------------------------------------------------------------------

# The headline trends; every other scalar lands in the collapsed group.
_HEADLINE_TRENDS = (
    "wall_seconds",
    "findings",
    "walkthrough.scenario_seconds.p50",
    "walkthrough.scenario_seconds.p95",
    "walkthrough.steps",
    "index.hits",
)


def _run_scalars(record: RunRecord) -> dict[str, float]:
    scalars = {
        "wall_seconds": record.wall_seconds,
        "findings": float(record.findings),
    }
    for name, (value, _) in _metric_scalars(record.metrics).items():
        scalars[name] = value
    return scalars


def _sparkline(values: Sequence[float]) -> str:
    """A 2px single-series sparkline with a surface-ringed end dot."""
    width, height, pad = 220, 44, 5
    low, high = min(values), max(values)
    spread = (high - low) or 1.0
    step = (width - 2 * pad) / max(len(values) - 1, 1)
    points = [
        (
            pad + index * step,
            height - pad - (value - low) / spread * (height - 2 * pad),
        )
        for index, value in enumerate(values)
    ]
    polyline = " ".join(f"{x:.1f},{y:.1f}" for x, y in points)
    end_x, end_y = points[-1]
    return (
        f'<svg class="spark" viewBox="0 0 {width} {height}" '
        f'width="{width}" height="{height}" role="img">'
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
        f'y2="{height - pad}" class="spark-base"/>'
        f'<polyline points="{polyline}" class="spark-line"/>'
        f'<circle cx="{end_x:.1f}" cy="{end_y:.1f}" r="4" '
        'class="spark-dot"/></svg>'
    )


def _is_timing(name: str) -> bool:
    return name.endswith(
        (".mean", ".p50", ".p95", ".p99", "_seconds")
    ) or name.endswith("seconds")


def _trend_tile(
    name: str, values: Sequence[Optional[float]], run_ids: Sequence[str]
) -> str:
    present = [(i, v) for i, v in enumerate(values) if v is not None]
    if len(present) < 2:
        return ""
    series = [v for _, v in present]
    latest, previous = series[-1], series[-2]
    timing = _is_timing(name)
    shown = _ms(latest) if timing else _compact(latest)
    delta = latest - previous
    if delta:
        # Lower is better for everything trended here (durations,
        # findings, cache misses…) except plain activity counters,
        # where movement is neutral; color only clear good/bad moves.
        good_down = timing or name in ("findings",) or name.endswith(
            (".count", "misses", "invalidations")
        )
        direction = "▲" if delta > 0 else "▼"
        cls = (
            ("delta-bad" if delta > 0 else "delta-good")
            if good_down
            else "delta-flat"
        )
        rendered = _ms(abs(delta)) if timing else _compact(abs(delta))
        delta_html = (
            f'<div class="tile-delta {cls}">{direction} {rendered} '
            "vs previous run</div>"
        )
    else:
        delta_html = '<div class="tile-delta delta-flat">unchanged</div>'
    table_rows = "".join(
        f"<tr><td>{escape(run_ids[i])}</td>"
        f"<td>{_ms(v) if timing else _compact(v)}</td></tr>"
        for i, v in present
    )
    return (
        '<div class="tile trend">'
        f'<div class="tile-label">{escape(name)}</div>'
        f'<div class="tile-value">{shown}</div>'
        f"{delta_html}{_sparkline(series)}"
        "<details><summary>Table view</summary>"
        '<table class="data"><thead><tr><th>run</th><th>value</th></tr>'
        f"</thead><tbody>{table_rows}</tbody></table></details></div>"
    )


def _render_trends(runs: Sequence[RunRecord]) -> str:
    if not runs:
        return (
            '<p class="empty">No run history loaded — record runs with '
            "--record and point --runs-dir at them.</p>"
        )
    if len(runs) < 2:
        return (
            '<p class="empty">Only one run recorded — trends need at '
            "least two (run with --record again).</p>"
        )
    run_ids = [record.run_id for record in runs]
    scalars_per_run = [_run_scalars(record) for record in runs]
    names = sorted({name for scalars in scalars_per_run for name in scalars})
    tiles: dict[str, str] = {}
    for name in names:
        values = [scalars.get(name) for scalars in scalars_per_run]
        tile = _trend_tile(name, values, run_ids)
        if tile:
            tiles[name] = tile
    if not tiles:
        return '<p class="empty">No metric appears in two or more runs.</p>'
    headline = [tiles[name] for name in _HEADLINE_TRENDS if name in tiles]
    rest = [
        tiles[name] for name in names
        if name in tiles and name not in _HEADLINE_TRENDS
    ]
    parts = [
        f'<p class="section-note">{len(runs)} run(s): '
        f"{escape(run_ids[0])} … {escape(run_ids[-1])}</p>",
        f'<div class="tiles">{"".join(headline)}</div>',
    ]
    if rest:
        parts.append(
            f"<details><summary>All metric trends ({len(rest)} more)"
            f'</summary><div class="tiles">{"".join(rest)}</div></details>'
        )
    return "".join(parts)


# ----------------------------------------------------------------------
# Element coverage (evaluate --record)
# ----------------------------------------------------------------------


def _heat_cell(count: int, peak: int) -> str:
    if not count:
        return '<td class="heat-cell heat-zero" title="never exercised"></td>'
    # Alpha ramps with the cell's share of the hottest cell; the count
    # itself is printed, so shading is never the only signal.
    alpha = 0.15 + 0.75 * (count / peak)
    return (
        f'<td class="heat-cell" style="background: rgba(42, 120, 214, '
        f'{alpha:.2f})" title="{count} resolution(s)">{count}</td>'
    )


def _coverage_matrices(
    runs: Sequence[RunRecord],
) -> list[tuple[RunRecord, CoverageMatrix]]:
    matrices = []
    for record in runs:
        if not record.coverage:
            continue
        try:
            matrices.append((record, CoverageMatrix.from_dict(record.coverage)))
        except ValueError:
            # A corrupt or foreign-format record degrades to "absent"
            # rather than killing the whole dashboard.
            continue
    return matrices


def _gap_panel(title: str, items: Sequence[str], note: str) -> str:
    if not items:
        return ""
    rendered = "".join(f"<li><code>{escape(item)}</code></li>" for item in items)
    return (
        f'<div class="tile gap"><div class="tile-label">{escape(title)} '
        f"({len(items)})</div>"
        f'<div class="tile-note">{escape(note)}</div>'
        f'<ul class="gap-list">{rendered}</ul></div>'
    )


def _render_coverage(runs: Sequence[RunRecord]) -> str:
    covered = _coverage_matrices(runs)
    if not covered:
        return (
            '<p class="empty">No coverage recorded — evaluations run '
            "with --record carry an element-coverage matrix.</p>"
        )
    record, matrix = covered[-1]
    components = sorted(
        set(matrix.exercised_components) | set(matrix.untouched_components)
    )
    event_types = sorted(
        set(matrix.cells) | set(matrix.unexercised_event_types)
    )
    tiles = [
        _tile(
            "Components",
            f"{matrix.component_coverage:.0%}",
            f"{len(matrix.untouched_components)} untouched",
        ),
        _tile(
            "Links",
            f"{matrix.link_coverage:.0%}",
            f"{len(matrix.uncovered_links)} uncovered",
        ),
        _tile(
            "Event types",
            f"{matrix.event_type_coverage:.0%}",
            f"{len(matrix.unexercised_event_types)} unexercised",
        ),
        _tile(
            "Dead mappings",
            _compact(len(matrix.dead_mappings)),
            "entries no resolution used",
        ),
    ]
    parts = [
        f'<p class="section-note">latest covered run '
        f"{escape(record.run_id)} — digest "
        f"<code>{escape(matrix.digest)}</code></p>",
        f'<div class="tiles">{"".join(tiles)}</div>',
    ]
    if components and event_types:
        peak = max(
            (
                int(count)
                for row in matrix.cells.values()
                for count in row.values()
            ),
            default=1,
        )
        header = "".join(
            f'<th class="heat-col"><span>{escape(name)}</span></th>'
            for name in components
        )
        body_rows = []
        for event_type in event_types:
            row = matrix.cells.get(event_type, {})
            cells = "".join(
                _heat_cell(int(row.get(name, 0)), peak)
                for name in components
            )
            body_rows.append(
                f'<tr><th scope="row">{escape(event_type)}</th>{cells}</tr>'
            )
        parts.append(
            '<div class="heat-wrap"><table class="heat">'
            f"<thead><tr><th></th>{header}</tr></thead>"
            f'<tbody>{"".join(body_rows)}</tbody></table></div>'
        )
    gaps = "".join(
        (
            _gap_panel(
                "Untouched components",
                matrix.untouched_components,
                "no scenario event resolved here",
            ),
            _gap_panel(
                "Unexercised event types",
                matrix.unexercised_event_types,
                "no scenario uses these concrete types",
            ),
            _gap_panel(
                "Uncovered links",
                matrix.uncovered_links,
                "no walkthrough witness path crossed these",
            ),
            _gap_panel(
                "Dead mappings",
                matrix.dead_mappings,
                "entries never answering a resolution",
            ),
        )
    )
    if gaps:
        parts.append(f'<div class="tiles">{gaps}</div>')
    else:
        parts.append(
            '<p class="section-note">No gaps: every component, link, '
            "and concrete event type is exercised.</p>"
        )
    if len(covered) >= 2:
        series = [m.component_coverage for _, m in covered]
        first, last = covered[0][0].run_id, covered[-1][0].run_id
        parts.append(
            '<div class="tile trend">'
            '<div class="tile-label">component coverage over runs</div>'
            f'<div class="tile-value">{series[-1]:.0%}</div>'
            f'<div class="tile-note">{escape(first)} … {escape(last)}'
            f"</div>{_sparkline(series)}</div>"
        )
    return "".join(parts)


# ----------------------------------------------------------------------
# Tenant jobs (sosae serve --jobs)
# ----------------------------------------------------------------------

# Job state -> (icon, severity-ish tone): never color alone.
_JOB_STATE_MARKS = {
    "queued": "…",
    "running": "▶",
    "done": "✓",
    "failed": "✗",
    "rejected": "⊘",
}


def _in_flight_series(records: Sequence[JobRecord]) -> list[float]:
    """The tenant's in-flight (queued+running) depth over time: +1 at
    each accepted submission, -1 at each completion, sampled at every
    change point — the quota-pressure curve a per-tenant quota clips."""
    edges: list[tuple[float, int]] = []
    horizon = max(
        (record.finished_at or record.submitted_at for record in records),
        default=0.0,
    )
    for record in records:
        if record.state == "rejected":
            continue
        edges.append((record.submitted_at, 1))
        edges.append((record.finished_at or horizon, -1))
    if not edges:
        return []
    depth = 0
    series = [0.0]
    for _, delta in sorted(edges):
        depth += delta
        series.append(float(depth))
    return series


def _render_jobs(
    jobs: Sequence[JobRecord], tenant: Optional[str]
) -> str:
    if tenant is not None:
        jobs = [record for record in jobs if record.tenant == tenant]
    if not jobs:
        scope = f" for tenant {tenant!r}" if tenant else ""
        return (
            f'<p class="empty">No jobs recorded{scope} — submit work to '
            "a 'sosae serve --jobs' daemon and point --jobs-dir at its "
            "registry.</p>"
        )
    by_tenant: dict[str, list[JobRecord]] = {}
    for record in jobs:
        by_tenant.setdefault(record.tenant, []).append(record)
    tiles = []
    for tenant_name in sorted(by_tenant):
        records = by_tenant[tenant_name]
        series = _in_flight_series(records)
        done = sum(1 for r in records if r.state == "done")
        rejected = sum(1 for r in records if r.state == "rejected")
        summary = (
            f"{len(records)} job(s), {done} done, {rejected} rejected"
        )
        spark = (
            _sparkline(series)
            if len(series) >= 2
            else '<div class="tile-delta delta-flat">no accepted jobs</div>'
        )
        peak = int(max(series)) if series else 0
        tiles.append(
            '<div class="tile trend">'
            f'<div class="tile-label">tenant {escape(tenant_name)} — '
            "in-flight depth (quota pressure)</div>"
            f'<div class="tile-value">peak {peak}</div>'
            f'<div class="tile-delta delta-flat">{escape(summary)}</div>'
            f"{spark}</div>"
        )
    rows = "".join(
        f"<tr><td>{escape(record.job_id)}</td>"
        f"<td>{escape(record.tenant)}</td>"
        f"<td>{_JOB_STATE_MARKS.get(record.state, '?')} "
        f"{escape(record.state)}</td>"
        f"<td>{escape(record.label) or '-'}</td>"
        f"<td>{escape(record.run_id) or '-'}</td>"
        f"<td>{_ms(record.wall_seconds) if record.wall_seconds else '-'}</td>"
        f"<td>{record.findings if record.state == 'done' else '-'}</td>"
        f"<td>{escape(record.reason or record.error) or '-'}</td></tr>"
        for record in jobs
    )
    table = (
        '<table class="data"><thead><tr><th>job</th><th>tenant</th>'
        "<th>state</th><th>label</th><th>run</th><th>wall</th>"
        "<th>findings</th><th>detail</th></tr></thead>"
        f"<tbody>{rows}</tbody></table>"
    )
    scope = (
        f"tenant {escape(tenant)}" if tenant else
        f"{len(by_tenant)} tenant(s)"
    )
    return (
        f'<p class="section-note">{len(jobs)} job(s) across {scope}</p>'
        f'<div class="tiles">{"".join(tiles)}</div>{table}'
    )


# ----------------------------------------------------------------------
# Findings
# ----------------------------------------------------------------------


def _findings_with_ids(report) -> tuple:
    """Deduplicated (finding_id, finding) pairs, first occurrence kept.

    Duck-typed on the report surface so this module needs no import
    from :mod:`repro.core` (core imports obs, not the reverse).
    """
    seen: dict = {}
    for finding in report.all_inconsistencies():
        seen.setdefault(finding.finding_id, finding)
    return tuple(seen.items())


def _render_findings(report) -> str:
    if report is None:
        return (
            '<p class="empty">No report loaded — save one with '
            "--save-report and pass it with --report.</p>"
        )
    pairs = _findings_with_ids(report)
    if not pairs:
        return '<p class="empty">The report contains no findings.</p>'
    rows = []
    for finding_id, finding in pairs:
        if finding.provenance is not None and not finding.provenance.empty:
            provenance = (
                "<details><summary>causal chain</summary>"
                f"<pre>{escape(finding.provenance.render())}</pre></details>"
            )
        else:
            provenance = '<span class="muted">no provenance recorded</span>'
        where = finding.scenario or "-"
        if finding.scenario and finding.event_label:
            where = f"{finding.scenario} @ {finding.event_label}"
        rows.append(
            f"<tr><td><code>{escape(finding_id)}</code></td>"
            f"<td>{_badge(finding.severity.value)}</td>"
            f"<td>{escape(finding.kind.value)}</td>"
            f"<td>{escape(where)}</td>"
            f"<td>{escape(finding.message)}{provenance}</td></tr>"
        )
    return (
        '<table class="data"><thead><tr><th>id</th><th>severity</th>'
        "<th>kind</th><th>scenario</th><th>finding</th></tr></thead>"
        f'<tbody>{"".join(rows)}</tbody></table>'
    )


# ----------------------------------------------------------------------
# Event timeline
# ----------------------------------------------------------------------


def _render_timeline(events: Sequence[TelemetryEvent]) -> str:
    if not events:
        return (
            '<p class="empty">No event stream loaded — capture one with '
            "evaluate --events and pass it with --events.</p>"
        )
    base = events[0].timestamp
    rows = []
    for event in events:
        severity = event_severity(event)
        rows.append(
            f'<tr class="sev-{severity}">'
            f"<td>+{event.timestamp - base:.4f}s</td>"
            f"<td>{event.seq}</td>"
            f"<td><code>{escape(event.kind)}</code></td>"
            f"<td>{_badge(severity)}</td>"
            f"<td>{escape(event.summary())}</td></tr>"
        )
    return (
        f'<p class="section-note">{len(events)} event(s)</p>'
        '<table class="data timeline"><thead><tr><th>t</th><th>seq</th>'
        "<th>kind</th><th>severity</th><th>event</th></tr></thead>"
        f'<tbody>{"".join(rows)}</tbody></table>'
    )


# ----------------------------------------------------------------------
# KPI row
# ----------------------------------------------------------------------


def _render_kpis(
    spans: Sequence[Span],
    runs: Sequence[RunRecord],
    report,
    events: Sequence[TelemetryEvent],
) -> str:
    tiles = []
    if report is not None:
        verdict = "consistent" if report.consistent else "inconsistent"
        icon = "✔" if report.consistent else "✖"
        cls = "delta-good" if report.consistent else "delta-bad"
        tiles.append(
            '<div class="tile"><div class="tile-label">Verdict</div>'
            f'<div class="tile-value {cls}">{icon} {verdict}</div>'
            f'<div class="tile-note">{len(report.passed_scenarios)} '
            f"scenario(s) passed, {len(report.failed_scenarios)} failed"
            "</div></div>"
        )
        tiles.append(
            _tile("Findings", _compact(len(_findings_with_ids(report))))
        )
    elif runs:
        latest = runs[-1]
        verdict = "consistent" if latest.consistent else "inconsistent"
        icon = "✔" if latest.consistent else "✖"
        cls = "delta-good" if latest.consistent else "delta-bad"
        tiles.append(
            '<div class="tile"><div class="tile-label">Latest run</div>'
            f'<div class="tile-value {cls}">{icon} {verdict}</div>'
            f'<div class="tile-note">{escape(latest.run_id)} '
            f"({escape(latest.label)})</div></div>"
        )
        tiles.append(_tile("Findings", _compact(latest.findings)))
    if spans:
        total = sum(root.wall_seconds for root in spans)
        count = sum(root.count() for root in spans)
        tiles.append(_tile("Traced wall time", _ms(total), f"{count} spans"))
    if runs:
        tiles.append(_tile("Recorded runs", _compact(len(runs))))
    if events:
        findings_streamed = sum(
            1 for event in events if event.kind == "finding-emitted"
        )
        tiles.append(
            _tile("Events", _compact(len(events)),
                  f"{findings_streamed} finding(s) streamed")
        )
    if not tiles:
        return ""
    return f'<div class="tiles kpis">{"".join(tiles)}</div>'


# ----------------------------------------------------------------------
# Assembly
# ----------------------------------------------------------------------

_STYLE = """
:root {
  color-scheme: light;
  --page: #f9f9f7; --surface: #fcfcfb;
  --ink: #0b0b0b; --ink-2: #52514e; --muted: #898781;
  --grid: #e1e0d9; --axis: #c3c2b7;
  --border: rgba(11, 11, 11, 0.10);
  --series: #2a78d6;
  --good: #0ca30c; --warning: #fab219;
  --serious: #ec835a; --critical: #d03b3b;
  --delta-good: #006300; --delta-bad: #d03b3b;
}
@media (prefers-color-scheme: dark) {
  :root {
    color-scheme: dark;
    --page: #0d0d0d; --surface: #1a1a19;
    --ink: #ffffff; --ink-2: #c3c2b7; --muted: #898781;
    --grid: #2c2c2a; --axis: #383835;
    --border: rgba(255, 255, 255, 0.10);
    --series: #3987e5;
    --delta-good: #0ca30c;
  }
}
* { box-sizing: border-box; }
body {
  margin: 0; padding: 24px; background: var(--page); color: var(--ink);
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  font-size: 14px; line-height: 1.45;
}
header h1 { font-size: 20px; margin: 0 0 2px; }
header .subtitle { color: var(--ink-2); margin: 0 0 18px; }
section {
  background: var(--surface); border: 1px solid var(--border);
  border-radius: 8px; padding: 16px 18px; margin: 0 0 16px;
}
section h2 {
  font-size: 15px; margin: 0 0 10px; color: var(--ink);
}
.section-note, .empty, .muted { color: var(--muted); }
.empty { margin: 4px 0; }
.toolbar { margin: 0 0 14px; }
.toolbar button {
  font: inherit; color: var(--ink-2); background: var(--surface);
  border: 1px solid var(--border); border-radius: 6px;
  padding: 4px 10px; cursor: pointer; margin-right: 8px;
}
.toolbar button:hover { color: var(--ink); }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; margin: 8px 0; }
.tile {
  background: var(--surface); border: 1px solid var(--border);
  border-radius: 8px; padding: 10px 14px; min-width: 150px;
}
.kpis .tile { background: var(--page); }
.tile-label { color: var(--ink-2); }
.tile-value { font-size: 26px; font-weight: 600; }
.tile-note, .tile-delta { color: var(--muted); font-size: 12px; }
.delta-good { color: var(--delta-good); }
.delta-bad { color: var(--delta-bad); }
.delta-flat { color: var(--muted); }
.flame-caption { color: var(--ink-2); margin: 6px 0 4px; }
.flame { position: relative; width: 100%; margin-bottom: 10px; }
.flame-span {
  position: absolute; height: 26px; border-radius: 3px;
  border: 1px solid var(--surface); overflow: hidden;
  cursor: default;
}
.flame-span:hover { filter: brightness(1.15); }
.flame-label {
  color: #ffffff; font-size: 12px; line-height: 24px;
  padding: 0 6px; white-space: nowrap; display: inline-block;
}
.lanes { margin: 8px 0; }
.lane { display: flex; align-items: center; margin: 4px 0; }
.lane-name {
  flex: 0 0 90px; color: var(--ink-2); font-size: 12px;
  font-variant-numeric: tabular-nums;
}
.lane-track {
  position: relative; flex: 1; height: 28px;
  background: var(--page); border: 1px solid var(--grid);
  border-radius: 4px;
}
.lane-span { top: 0; height: 26px; background: var(--series); }
.treemap {
  display: flex; width: 100%; height: 56px; margin: 8px 0;
  border-radius: 4px; overflow: hidden;
}
.treemap-cell {
  height: 100%; overflow: hidden; white-space: nowrap;
  border-right: 1px solid var(--surface); cursor: default;
}
.treemap-cell:hover { filter: brightness(1.15); }
.treemap-cell .flame-label { line-height: 54px; }
.heat-wrap { overflow-x: auto; margin: 8px 0; }
table.heat { border-collapse: collapse; }
table.heat th {
  color: var(--ink-2); font-weight: 600; font-size: 12px;
  padding: 2px 6px; text-align: left;
}
table.heat th.heat-col span {
  writing-mode: vertical-rl; transform: rotate(180deg);
  display: inline-block; max-height: 110px; overflow: hidden;
}
table.heat td.heat-cell {
  min-width: 34px; height: 26px; text-align: center;
  border: 1px solid var(--grid); color: var(--ink); font-size: 12px;
  font-variant-numeric: tabular-nums;
}
table.heat td.heat-zero { background: var(--page); }
.gap-list {
  margin: 6px 0 0; padding-left: 18px; font-size: 12px;
  color: var(--ink-2);
}
.tile.gap { max-width: 280px; }
.spark { display: block; margin-top: 6px; }
.spark-line {
  fill: none; stroke: var(--series); stroke-width: 2;
  stroke-linejoin: round; stroke-linecap: round;
}
.spark-base { stroke: var(--grid); stroke-width: 1; }
.spark-dot { fill: var(--series); stroke: var(--surface); stroke-width: 2; }
table.data { border-collapse: collapse; width: 100%; margin-top: 6px; }
table.data th {
  text-align: left; color: var(--ink-2); font-weight: 600;
  border-bottom: 1px solid var(--axis); padding: 4px 10px 4px 0;
}
table.data td {
  border-bottom: 1px solid var(--grid); padding: 4px 10px 4px 0;
  vertical-align: top; font-variant-numeric: tabular-nums;
}
.badge { white-space: nowrap; color: var(--ink-2); }
.badge-icon { margin-right: 4px; }
.badge-critical .badge-icon, .badge-critical { color: var(--critical); }
.badge-warning .badge-icon { color: var(--warning); }
.badge-warning { color: var(--ink-2); }
.badge-info, .badge-debug { color: var(--muted); }
details { margin-top: 4px; }
details summary { cursor: pointer; color: var(--ink-2); }
pre {
  background: var(--page); border: 1px solid var(--border);
  border-radius: 6px; padding: 8px 10px; overflow-x: auto;
  font-size: 12px;
}
code { font-size: 12px; }
footer { color: var(--muted); margin-top: 10px; }
"""

_SCRIPT = """
for (const button of document.querySelectorAll("[data-details]")) {
  button.addEventListener("click", () => {
    const open = button.dataset.details === "open";
    for (const details of document.querySelectorAll("details")) {
      details.open = open;
    }
  });
}
"""


def build_dashboard(
    *,
    spans: Sequence[Span] = (),
    runs: Sequence[RunRecord] = (),
    report=None,
    events: Sequence[TelemetryEvent] = (),
    jobs: Sequence[JobRecord] = (),
    tenant: Optional[str] = None,
    profile_before: Optional[Profile] = None,
    profile_after: Optional[Profile] = None,
    title: str = "SOSAE observability",
    generated_at: Optional[float] = None,
) -> str:
    """Render one self-contained HTML dashboard from whatever the
    observability layer captured.

    All inputs are optional, but at least one must be present. The
    returned document references nothing external — no fonts, scripts,
    styles, or images outside the file itself. With ``tenant``, the run
    history, job table, and scenario-cost treemap narrow to that
    tenant's traffic (the tenant view of ``sosae serve --jobs``).
    """
    if tenant is not None:
        runs = [
            record for record in runs
            if getattr(record, "tenant", "") == tenant
        ]
        title = f"{title} — tenant {tenant}"
    if (
        not spans
        and not runs
        and report is None
        and not events
        and not jobs
        and profile_before is None
        and profile_after is None
    ):
        raise ReproError(
            "nothing to render: give the dashboard a trace, a runs "
            "directory with recorded runs, a report, an event stream, "
            "a job registry, or sampled profiles"
        )
    stamp = time.strftime(
        "%Y-%m-%d %H:%M:%S",
        time.localtime(generated_at if generated_at is not None else None),
    )
    sections = [
        (
            "Pipeline flamegraph",
            "Where the evaluation spent its wall time (depth = nesting; "
            "hover a span for exact timings; the table view aggregates "
            "by span name).",
            _render_flamegraph(spans),
        ),
        (
            "Shard lanes",
            "One lane per process of a multi-worker evaluation "
            "(evaluate --workers N): when each shard walked which "
            "scenario, on a shared time axis.",
            _render_shard_lanes(spans),
        ),
        (
            "Scenario cost",
            "Where the walkthrough budget went, scenario by scenario "
            "(width = share of walked wall time; hover for work-unit "
            "counters).",
            _render_cost_treemap(spans, runs),
        ),
        (
            "Differential profile",
            "Where interpreter time moved between two sampled profiles "
            "(union call tree; width = after-profile cumulative share; "
            "red frames regressed, blue improved; hover for exact "
            "shares).",
            _render_diff_flamegraph(profile_before, profile_after),
        ),
        (
            "Metric trends",
            "Each recorded run is one point, oldest to newest "
            "(sparklines; expand a tile for the exact values).",
            _render_trends(runs),
        ),
        (
            "Element coverage",
            "Which ontology event types exercised which architecture "
            "components in the latest covered run (cell = resolution "
            "count), what stayed untouched, and which mapping entries "
            "are dead.",
            _render_coverage(runs),
        ),
        (
            "Tenant jobs",
            "Submitted evaluation jobs and per-tenant quota pressure "
            "(in-flight depth over submissions; peak vs the daemon's "
            "--tenant-quota).",
            _render_jobs(jobs, tenant),
        ),
        (
            "Findings",
            "Every deduplicated finding of the evaluated report, with "
            "its causal provenance chain where recorded.",
            _render_findings(report),
        ),
        (
            "Event timeline",
            "The live telemetry stream, in emission order, with "
            "offsets from the first event.",
            _render_timeline(events),
        ),
    ]
    body = "".join(
        f"<section><h2>{escape(heading)}</h2>"
        f'<p class="section-note">{escape(note)}</p>{content}</section>'
        for heading, note, content in sections
    )
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">'
        '<meta name="viewport" content="width=device-width, initial-scale=1">'
        f"<title>{escape(title)}</title>"
        f"<style>{_STYLE}</style></head><body>"
        f"<header><h1>{escape(title)}</h1>"
        f'<p class="subtitle">generated {stamp}</p></header>'
        '<div class="toolbar">'
        '<button type="button" data-details="open">Expand all</button>'
        '<button type="button" data-details="close">Collapse all</button>'
        "</div>"
        f"{_render_kpis(spans, runs, report, events)}"
        f"{body}"
        "<footer>self-contained artifact — no external resources</footer>"
        f"<script>{_SCRIPT}</script></body></html>"
    )
