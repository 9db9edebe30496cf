"""Evaluation-report persistence and baseline comparison.

Evaluation belongs in continuous integration: evaluate on every change,
persist the report, and compare against the last accepted baseline so a
requirements/architecture drift shows up as a *regression* rather than a
wall of findings someone has to eyeball. This module serializes
:class:`~repro.core.consistency.EvaluationReport` to JSON (dynamic
verdicts are stored without their message traces — traces are run
artifacts, not results) and diffs two reports verdict-by-verdict.

The saved file is indent-2 JSON, byte for byte what
``json.dumps(report_to_dict(report), indent=2)`` writes. Large reports
hold thousands of walkthrough steps, so :func:`report_to_json` writes
that text straight from the report: the report, each scenario verdict,
each trace and each step stand at a fixed depth and are written from
templates cut once from the ``_*_to_dict`` functions' own output. Only
non-empty free-form subtrees (findings with their provenance, and
dynamic verdicts) are written value by value, by a plain recursive
writer that makes the stdlib encoder's text and, unlike it, no cyclic
garbage: writing any report leaves nothing for the cycle collector.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from repro.core.consistency import (
    EvaluationReport,
    Inconsistency,
    InconsistencyKind,
    ScenarioVerdict,
    Severity,
    TraceWalkthrough,
    WalkthroughStep,
)
from repro.errors import SerializationError
from repro.obs.provenance import provenance_from_dict

_FORMAT_VERSION = 1

#: The string escaper ``json.dumps`` uses by default (``ensure_ascii``).
_encode_string = json.encoder.encode_basestring_ascii


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------

def report_to_dict(
    report: EvaluationReport, kept: Optional[dict] = None
) -> dict:
    """A JSON-serializable representation of a report.

    Dynamic verdicts keep their pass/fail outcome and findings; the
    message traces are intentionally dropped.

    Without ``kept`` every part of the document is built afresh, so the
    caller may mutate it. ``kept`` maps a scenario verdict's ``id`` to
    ``(verdict, document)``: a verdict that is the same object as its
    entry's reuses the entry's document, any other is built, and the
    map is then cut down to exactly this report's verdicts (holding the
    verdict keeps its ``id`` from being reused). A verdict and all it
    holds are frozen and tuple-valued, so its document depends only on
    the object; the documents are shared with the map's next callers,
    so a caller that passes ``kept`` must not mutate the result.
    """
    verdicts = report.scenario_verdicts
    if kept is None:
        documents = [_verdict_to_dict(verdict) for verdict in verdicts]
    else:
        entries = {}
        documents = []
        for verdict in verdicts:
            entry = kept.get(id(verdict))
            if entry is None or entry[0] is not verdict:
                entry = (verdict, _verdict_to_dict(verdict))
            entries[id(verdict)] = entry
            documents.append(entry[1])
        kept.clear()
        kept.update(entries)
    return {
        "format": _FORMAT_VERSION,
        "architecture": report.architecture,
        "findings": [_inconsistency_to_dict(f) for f in report.findings],
        "scenario_verdicts": documents,
        "dynamic_verdicts": [
            _dynamic_verdict_to_dict(verdict)
            for verdict in report.dynamic_verdicts
        ],
    }


def report_to_json(report: EvaluationReport, indent: int = 2) -> str:
    """Serialize a report to indent-2 JSON text, byte for byte what
    ``json.dumps(report_to_dict(report), indent=2)`` writes, without
    building that document first.

    The report, each scenario verdict, each trace and each step stand
    at a fixed depth, so their text is the fixed text around their keys'
    values (see :func:`_template`) with the values filled in straight
    from the report's objects; a step is one ``%`` format. A step's
    label, type, note, components and path repeat across the report, so
    their text is rendered once per call and reused. Strings go through
    the stdlib's C escaper. Only non-empty free-form subtrees --
    findings with their provenance, and dynamic verdicts -- are written
    value by value (see :func:`_write`), at their depth, leaving no
    cyclic garbage. Each trace's and each verdict's text is joined from
    its pieces as soon as they are written, so no piece list holds a
    whole report.

    The layout is fixed: ``indent`` is accepted only as ``2``, for
    callers that pass it explicitly.
    """
    if indent != 2:
        raise ValueError(
            f"report JSON is indent-2 only, got indent={indent!r}"
        )
    fields = _FieldTexts()
    verdicts = [
        _verdict_text(verdict, fields) for verdict in report.scenario_verdicts
    ]
    # Each template piece but the head is named for the value before it.
    head, format_, architecture, findings, scenarios, dynamic = (
        _REPORT_PIECES
    )
    return "".join(
        [
            head,
            _leaf(_FORMAT_VERSION),
            format_,
            _leaf(report.architecture),
            architecture,
            _findings(report.findings, 1),
            findings,
            *_array(verdicts, 1),
            scenarios,
            _dynamic_verdicts(report.dynamic_verdicts),
            dynamic,
        ]
    )


def _verdict_text(verdict: ScenarioVerdict, fields: "_FieldTexts") -> str:
    """One scenario verdict's text."""
    head, scenario, negative, blocked, passed, findings, traces = (
        _VERDICT_PIECES
    )
    return "".join(
        [
            head,
            _leaf(verdict.scenario),
            scenario,
            _leaf(verdict.negative),
            negative,
            _leaf(verdict.blocked),
            blocked,
            _leaf(verdict.passed),
            passed,
            _findings(verdict.inconsistencies, 3),
            findings,
            *_array([_trace_text(t, fields) for t in verdict.traces], 3),
            traces,
        ]
    )


def _trace_text(trace: TraceWalkthrough, fields: "_FieldTexts") -> str:
    """One trace's text."""
    head, index, findings, steps = _TRACE_PIECES
    return "".join(
        [
            head,
            _leaf(trace.trace_index),
            index,
            _findings(trace.inconsistencies, 5),
            findings,
            *_array(_step_texts(trace.steps, fields), 5),
            steps,
        ]
    )


def _step_texts(steps, fields: "_FieldTexts") -> list[str]:
    """Each step's text, from one ``%`` template."""
    step_format = _STEP_FORMAT
    encode = _encode_string
    return [
        step_format
        % (
            encode(event) if event.__class__ is str else _subtree(event, 7),
            fields[label],
            fields[event_type],
            fields[components],
            fields[path],
            "true" if ok is True else _leaf(ok),
            fields[note],
        )
        for event, label, event_type, components, path, ok, note in steps
    ]


#: ``_PADS[depth]``: the newline and indent of a line at ``depth``.
_PADS = tuple("\n" + "  " * depth for depth in range(9))


def _subtree(value, depth: int) -> str:
    """``json.dumps(value, indent=2)`` for a value that stands at
    ``depth``: the free-form subtrees, and the text the templates are
    cut from."""
    pieces: list[str] = []
    _write(value, depth, pieces)
    return "".join(pieces)


def _write(value, depth: int, pieces: list) -> None:
    """Append the indent-2 text of ``value``, standing at ``depth``, to
    ``pieces``: the stdlib's pure-Python encoder's checks, in its order,
    and its output. That encoder builds its recursion from closures that
    refer to each other, a cycle left behind on every call; this plain
    recursion leaves none."""
    if isinstance(value, str):
        pieces.append(_encode_string(value))
    elif value is None:
        pieces.append("null")
    elif value is True:
        pieces.append("true")
    elif value is False:
        pieces.append("false")
    elif isinstance(value, int):
        pieces.append(int.__repr__(value))
    elif isinstance(value, float):
        pieces.append(_float_text(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            pieces.append("[]")
            return
        pad = _pad(depth + 1)
        separator, comma = "[" + pad, "," + pad
        for item in value:
            pieces.append(separator)
            separator = comma
            _write(item, depth + 1, pieces)
        pieces.append(_pad(depth) + "]")
    elif isinstance(value, dict):
        if not value:
            pieces.append("{}")
            return
        pad = _pad(depth + 1)
        separator, comma = "{" + pad, "," + pad
        for key, item in value.items():
            pieces.append(separator)
            separator = comma
            pieces.append(_encode_string(_key_text(key)))
            pieces.append(": ")
            _write(item, depth + 1, pieces)
        pieces.append(_pad(depth) + "}")
    else:
        raise TypeError(
            f"Object of type {value.__class__.__name__} "
            "is not JSON serializable"
        )


def _pad(depth: int) -> str:
    """The newline and indent of a line at ``depth``."""
    return _PADS[depth] if depth < len(_PADS) else "\n" + "  " * depth


def _float_text(value: float) -> str:
    """A float's JSON text, as the stdlib writes it."""
    if value != value:
        return "NaN"
    if value == _INFINITY:
        return "Infinity"
    if value == -_INFINITY:
        return "-Infinity"
    return float.__repr__(value)


_INFINITY = float("inf")


def _key_text(key) -> str:
    """A dict key as the string the stdlib writes for it."""
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return _float_text(key)
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(
        "keys must be str, int, float, bool or None, "
        f"not {key.__class__.__name__}"
    )


class _FieldTexts(dict):
    """Step field values -> their text at a step key's depth, rendered
    on first lookup. Only str, None and tuples of str are kept: a value
    equal to one of those has its text, but equal values of other types
    need not (``1 == True``, written ``1`` and ``true``), so any other
    value is rendered on every lookup."""

    def __missing__(self, value) -> str:
        text = _subtree(value, 7)
        if (
            value is None
            or value.__class__ is str
            or value.__class__ is tuple
            and all(item.__class__ is str for item in value)
        ):
            self[value] = text
        return text


def _leaf(value) -> str:
    """The text of a scalar field."""
    if value.__class__ is str:
        return _encode_string(value)
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value.__class__ is int:
        return repr(value)
    return _subtree(value, 0)


def _findings(findings, depth: int) -> str:
    """The text of a list of findings that stands at ``depth``."""
    if not findings:
        return "[]"
    return _subtree([_inconsistency_to_dict(f) for f in findings], depth)


def _dynamic_verdicts(verdicts) -> str:
    """The text of the report's dynamic verdicts."""
    if not verdicts:
        return "[]"
    return _subtree([_dynamic_verdict_to_dict(v) for v in verdicts], 1)


def _array(texts: list, depth: int) -> list:
    """The pieces of an array that stands at ``depth`` and whose
    elements' texts are ``texts``: ``[``, the texts with separators
    between them, ``]``."""
    if not texts:
        return ["[]"]
    pieces = ["," + _PADS[depth + 1]] * (2 * len(texts) + 1)
    pieces[0] = "[" + _PADS[depth + 1]
    pieces[1::2] = texts
    pieces[-1] = _PADS[depth] + "]"
    return pieces


def _template(document: dict, depth: int) -> tuple[str, ...]:
    """The text around the values of a dict with ``document``'s keys
    that stands at ``depth``: one piece before the first value, one
    between each two, one after the last.

    The pieces are cut from the dicts that the ``_*_to_dict`` functions
    build for empty objects, so the keys and their order are written
    down once, there."""
    mark = "\x00"
    text = _subtree(dict.fromkeys(document, mark), depth)
    return tuple(text.split(_encode_string(mark)))


def _verdict_to_dict(verdict: ScenarioVerdict) -> dict:
    return {
        "scenario": verdict.scenario,
        "negative": verdict.negative,
        "blocked": verdict.blocked,
        "passed": verdict.passed,
        "inconsistencies": [
            _inconsistency_to_dict(f) for f in verdict.inconsistencies
        ],
        "traces": [_trace_to_dict(trace) for trace in verdict.traces],
    }


def _trace_to_dict(trace: TraceWalkthrough) -> dict:
    return {
        "index": trace.trace_index,
        "inconsistencies": [
            _inconsistency_to_dict(f) for f in trace.inconsistencies
        ],
        "steps": [_step_to_dict(step) for step in trace.steps],
    }


def _step_to_dict(step: WalkthroughStep) -> dict:
    return {
        "event": step.event_rendering,
        "label": step.event_label,
        "type": step.event_type,
        "components": list(step.components),
        "path": list(step.path) if step.path is not None else None,
        "ok": step.ok,
        "note": step.note,
    }


def _dynamic_verdict_to_dict(verdict) -> dict:
    return {
        "scenario": verdict.scenario,
        "passed": verdict.passed,
        "negative": verdict.negative,
        "findings": [_inconsistency_to_dict(f) for f in verdict.findings],
    }


def _inconsistency_to_dict(finding: Inconsistency) -> dict:
    data = {
        "kind": finding.kind.value,
        "severity": finding.severity.value,
        "message": finding.message,
        "scenario": finding.scenario,
        "label": finding.event_label,
        "elements": list(finding.elements),
        "id": finding.finding_id,
    }
    if finding.provenance is not None:
        data["provenance"] = finding.provenance.to_dict()
    return data


# The writer's templates, cut from the dicts of empty objects (the
# step's values stand in for any step's).
_REPORT_PIECES = _template(report_to_dict(EvaluationReport("")), 0)
_VERDICT_PIECES = _template(_verdict_to_dict(ScenarioVerdict("", ())), 2)
_TRACE_PIECES = _template(_trace_to_dict(TraceWalkthrough(0, (), ())), 4)
_STEP_FORMAT = "%s".join(
    piece.replace("%", "%%")
    for piece in _template(
        _step_to_dict(WalkthroughStep("", None, None, (), None, True)), 6
    )
)


# ----------------------------------------------------------------------
# Deserialization
# ----------------------------------------------------------------------

def report_from_dict(data: dict) -> EvaluationReport:
    """Rebuild a report from :func:`report_to_dict` output.

    Dynamic verdicts come back as :class:`StoredDynamicVerdict` — same
    outcome surface, no trace.
    """
    if data.get("format") != _FORMAT_VERSION:
        raise SerializationError(
            f"unsupported report format {data.get('format')!r} "
            f"(expected {_FORMAT_VERSION})"
        )
    return EvaluationReport(
        architecture=data["architecture"],
        findings=tuple(
            _inconsistency_from_dict(item) for item in data.get("findings", ())
        ),
        scenario_verdicts=tuple(
            _verdict_from_dict(item)
            for item in data.get("scenario_verdicts", ())
        ),
        dynamic_verdicts=tuple(
            StoredDynamicVerdict(
                scenario=item["scenario"],
                passed=item["passed"],
                negative=item.get("negative", False),
                findings=tuple(
                    _inconsistency_from_dict(finding)
                    for finding in item.get("findings", ())
                ),
            )
            for item in data.get("dynamic_verdicts", ())
        ),
    )


def report_from_json(text: str) -> EvaluationReport:
    """Rebuild a report from JSON text."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as error:
        raise SerializationError(f"malformed report JSON: {error}") from error
    return report_from_dict(data)


@dataclass(frozen=True)
class StoredDynamicVerdict:
    """A dynamic verdict restored from persistence (trace omitted)."""

    scenario: str
    passed: bool
    negative: bool = False
    findings: tuple[Inconsistency, ...] = ()

    def render(self) -> str:
        """Match the live verdict's rendering shape."""
        status = "PASS" if self.passed else "FAIL"
        flavor = " (negative)" if self.negative else ""
        lines = [f"{status} {self.scenario}{flavor}  [stored]"]
        for finding in self.findings:
            lines.append(f"  ! {finding}")
        return "\n".join(lines)


def _verdict_from_dict(data: dict) -> ScenarioVerdict:
    return ScenarioVerdict(
        scenario=data["scenario"],
        negative=data.get("negative", False),
        blocked=data.get("blocked", False),
        inconsistencies=tuple(
            _inconsistency_from_dict(item)
            for item in data.get("inconsistencies", ())
        ),
        traces=tuple(
            TraceWalkthrough(
                trace_index=trace["index"],
                inconsistencies=tuple(
                    _inconsistency_from_dict(item)
                    for item in trace.get("inconsistencies", ())
                ),
                steps=tuple(
                    _step_from_dict(step) for step in trace.get("steps", ())
                ),
            )
            for trace in data.get("traces", ())
        ),
    )


def _step_from_dict(data: dict) -> WalkthroughStep:
    path = data.get("path")
    return WalkthroughStep(
        event_rendering=data["event"],
        event_label=data.get("label"),
        event_type=data.get("type"),
        components=tuple(data.get("components", ())),
        path=tuple(path) if path is not None else None,
        ok=data["ok"],
        note=data.get("note", ""),
    )


def _inconsistency_from_dict(data: dict) -> Inconsistency:
    try:
        kind = InconsistencyKind(data["kind"])
        severity = Severity(data.get("severity", "error"))
    except ValueError as error:
        raise SerializationError(str(error)) from error
    provenance = None
    if data.get("provenance") is not None:
        provenance = provenance_from_dict(data["provenance"])
    return Inconsistency(
        kind=kind,
        severity=severity,
        message=data["message"],
        scenario=data.get("scenario"),
        event_label=data.get("label"),
        elements=tuple(data.get("elements", ())),
        provenance=provenance,
    )


# ----------------------------------------------------------------------
# Baseline comparison
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ReportComparison:
    """How a report moved relative to a baseline."""

    regressions: tuple[str, ...]      # passed before, fails now
    fixes: tuple[str, ...]            # failed before, passes now
    new_scenarios: tuple[str, ...]    # no baseline verdict
    removed_scenarios: tuple[str, ...]

    @property
    def clean(self) -> bool:
        """Whether nothing regressed."""
        return not self.regressions

    def summary(self) -> str:
        """A human-readable movement summary."""
        parts = []
        for title, names in (
            ("regressions", self.regressions),
            ("fixes", self.fixes),
            ("new scenarios", self.new_scenarios),
            ("removed scenarios", self.removed_scenarios),
        ):
            if names:
                parts.append(f"{title}: {', '.join(names)}")
        return "; ".join(parts) if parts else "no verdict changes"


def compare_reports(
    baseline: EvaluationReport, current: EvaluationReport
) -> ReportComparison:
    """Diff two reports' scenario verdicts (static and dynamic merged:
    a scenario regresses when any of its verdicts flipped to failing)."""

    def outcomes(report: EvaluationReport) -> dict[str, bool]:
        merged: dict[str, bool] = {}
        for verdict in report.scenario_verdicts:
            merged[verdict.scenario] = (
                merged.get(verdict.scenario, True) and verdict.passed
            )
        for verdict in report.dynamic_verdicts:
            merged[verdict.scenario] = (
                merged.get(verdict.scenario, True) and verdict.passed
            )
        return merged

    before = outcomes(baseline)
    after = outcomes(current)
    regressions = tuple(
        sorted(
            name
            for name, passed in after.items()
            if name in before and before[name] and not passed
        )
    )
    fixes = tuple(
        sorted(
            name
            for name, passed in after.items()
            if name in before and not before[name] and passed
        )
    )
    new_scenarios = tuple(sorted(set(after) - set(before)))
    removed_scenarios = tuple(sorted(set(before) - set(after)))
    return ReportComparison(
        regressions=regressions,
        fixes=fixes,
        new_scenarios=new_scenarios,
        removed_scenarios=removed_scenarios,
    )
