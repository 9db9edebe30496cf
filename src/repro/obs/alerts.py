"""Declarative alert / SLO rules over metrics and the run registry.

``sosae serve`` re-evaluates continuously; this module turns each
fresh evaluation into machine-readable *alert* signals instead of a
human re-reading reports. Rules are data, loaded from a TOML or JSON
file (:func:`load_rules`)::

    [[rules]]
    name = "no-findings"
    metric = "report.findings"       # flattened scalar name
    op = ">"                         # the ALERT condition
    threshold = 0
    severity = "critical"
    for = 2                          # consecutive violating runs to fire
    cooldown = 300                   # seconds before re-firing

    [[rules]]
    name = "walk-p95-regression"
    source = "runs"                  # SLO over the run-registry window
    metric = "walkthrough.scenario_seconds.p95"
    mode = "regression-pct"          # or "delta" / "value"
    window = 5
    op = ">"
    threshold = 20                   # percent

A rule *violates* when ``value <op> threshold`` holds. ``metric``-source
rules read the flattened scalars of the latest evaluation (see
:func:`scalar_values`: counters/gauges by name, histograms as
``<name>.count`` / ``.mean`` / ``.p50`` / ``.p95`` / ``.p99``, plus the
``report.*`` values the serve loop injects). ``runs``-source rules read
a series over the last ``window`` :class:`~repro.obs.runs.RunRecord`
entries — record fields (``findings``, ``wall_seconds``, …) or any
flattened metric scalar — and compare the ``mode``-reduced series:
``value`` (latest), ``delta`` (latest − oldest), ``regression-pct``
(percent increase over the oldest; an increase from zero is +Inf), or
``anomaly`` (the latest value's median+MAD robust z-score against the
window before it, per :mod:`repro.obs.anomaly` — the same detector
``sosae runs bisect`` walks history with; ``threshold`` defaults to
3.5 "sigmas", so drift fires without hand-tuned per-metric bounds).

``mode = "coverage"`` rules watch the element-coverage matrix of the
latest evaluation (see :mod:`repro.obs.coverage`): the metric names the
``coverage.*`` scalar — ratios like ``component_ratio`` /
``link_ratio`` / ``event_type_ratio`` (0..1), gap counts like
``dead_mappings`` / ``untouched_components``, and — once a previous
covered run exists in the registry — drift values like
``newly_uncovered_links`` or ``component_drop``. The ``coverage.``
prefix may be omitted in the rule file; it is normalized in. E.g.::

    [[rules]]
    name = "coverage-regression"
    mode = "coverage"
    metric = "newly_uncovered_links"  # -> coverage.newly_uncovered_links
    op = ">"
    threshold = 0
    severity = "critical"

A runs-source rule whose ``window`` the registry cannot fill yet is
*not* silently skipped: its state reports ``insufficient-history``
(visible in ``/alerts`` and ``serve --once --check`` output) until
enough runs are recorded.

:class:`AlertEngine` keeps per-rule state across evaluations — firing
after ``for`` consecutive violations, resolving on recovery, and
suppressing re-fires inside ``cooldown`` — and emits typed
:class:`~repro.obs.events.AlertFired` / :class:`AlertResolved` events
on the current event bus. A rule naming an unknown metric logs one
warning and is skipped, never crashed on.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional, Sequence, Union

from repro.errors import ReproError
from repro.obs.anomaly import DEFAULT_ANOMALY_THRESHOLD, robust_zscore
from repro.obs.events import AlertFired, AlertResolved
from repro.obs.instruments import current_instruments
from repro.obs.log import get_logger
from repro.obs.runs import RunRecord, _metric_scalars, record_metric_value

__all__ = [
    "AlertEngine",
    "AlertRule",
    "AlertState",
    "load_rules",
    "parse_rules",
    "scalar_values",
]

_LOG = get_logger("obs.alerts")

_OPS = {
    ">": operator.gt,
    ">=": operator.ge,
    "<": operator.lt,
    "<=": operator.le,
    "==": operator.eq,
    "!=": operator.ne,
}
_SEVERITIES = ("info", "warning", "critical")
_SOURCES = ("metric", "runs")
_MODES = ("value", "delta", "regression-pct", "anomaly", "coverage")

_RULE_KEYS = {
    "name", "metric", "op", "threshold", "severity", "for", "cooldown",
    "source", "mode", "window", "description", "tenant",
}


@dataclass(frozen=True)
class AlertRule:
    """One declarative rule; see the module docstring for semantics."""

    name: str
    metric: str
    threshold: float
    op: str = ">"
    severity: str = "warning"
    for_count: int = 1
    cooldown: float = 0.0
    source: str = "metric"
    mode: str = "value"
    window: int = 1
    description: str = ""
    tenant: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ReproError("alert rule needs a non-empty name")
        if not self.metric:
            raise ReproError(f"alert rule {self.name!r} needs a metric")
        if self.op not in _OPS:
            raise ReproError(
                f"alert rule {self.name!r} has unknown op {self.op!r} "
                f"(expected one of {', '.join(_OPS)})"
            )
        if self.severity not in _SEVERITIES:
            raise ReproError(
                f"alert rule {self.name!r} has unknown severity "
                f"{self.severity!r} (expected one of {', '.join(_SEVERITIES)})"
            )
        if self.source not in _SOURCES:
            raise ReproError(
                f"alert rule {self.name!r} has unknown source {self.source!r}"
            )
        if self.mode not in _MODES:
            raise ReproError(
                f"alert rule {self.name!r} has unknown mode {self.mode!r}"
            )
        if self.mode == "coverage":
            if self.source != "metric":
                raise ReproError(
                    f"alert rule {self.name!r}: mode 'coverage' reads "
                    "the coverage scalars of the latest evaluation and "
                    "needs source = 'metric'"
                )
            # Coverage rules address the coverage.* scalar namespace
            # (see repro.obs.coverage.coverage_scalars); normalize once
            # so the condition, /alerts state, and AlertFired events
            # all show the full scalar name.
            if not self.metric.startswith("coverage."):
                object.__setattr__(self, "metric", f"coverage.{self.metric}")
        elif self.source == "metric" and self.mode != "value":
            raise ReproError(
                f"alert rule {self.name!r}: mode {self.mode!r} needs "
                "source = 'runs'"
            )
        if self.for_count < 1:
            raise ReproError(
                f"alert rule {self.name!r}: 'for' must be >= 1"
            )
        if self.cooldown < 0:
            raise ReproError(
                f"alert rule {self.name!r}: cooldown must be >= 0"
            )
        if self.mode == "anomaly":
            # window-1 baseline points feed the MAD; fewer than 3 makes
            # the robust z-score degenerate (MAD of <3 points is noise).
            minimum_window = 4
        elif self.mode in ("delta", "regression-pct"):
            minimum_window = 2
        else:
            minimum_window = 1
        if self.window < minimum_window:
            raise ReproError(
                f"alert rule {self.name!r}: window must be >= "
                f"{minimum_window} for mode {self.mode!r}"
            )
        if self.mode == "anomaly" and self.threshold <= 0:
            raise ReproError(
                f"alert rule {self.name!r}: anomaly threshold is a "
                "robust z-score and must be > 0"
            )

    def condition(self) -> str:
        """The human rendering of the alert condition."""
        reduced = self.metric
        if self.source == "runs":
            reduced = f"{self.mode}({self.metric}, window={self.window})"
        rendered = f"{reduced} {self.op} {self.threshold:g}"
        if self.tenant:
            rendered += f" [tenant {self.tenant}]"
        return rendered


def parse_rules(data: object) -> tuple[AlertRule, ...]:
    """Rules from already-decoded TOML/JSON data: a ``{"rules": [...]}``
    table or a bare list of rule tables."""
    if isinstance(data, Mapping):
        entries = data.get("rules")
        if entries is None:
            raise ReproError("rules file has no 'rules' list")
    else:
        entries = data
    if not isinstance(entries, (list, tuple)):
        raise ReproError("'rules' must be a list of rule tables")
    rules = []
    for position, entry in enumerate(entries, start=1):
        if not isinstance(entry, Mapping):
            raise ReproError(f"rule #{position} is not a table/object")
        unknown = set(entry) - _RULE_KEYS
        if unknown:
            raise ReproError(
                f"rule #{position} has unknown key(s): "
                f"{', '.join(sorted(unknown))}"
            )
        # Anomaly rules run without a hand-tuned threshold: the robust
        # z-score cut has a universal default.
        required = {"name", "metric"}
        if entry.get("mode") != "anomaly":
            required.add("threshold")
        missing = required - set(entry)
        if missing:
            raise ReproError(
                f"rule #{position} is missing required key(s): "
                f"{', '.join(sorted(missing))}"
            )
        threshold = entry.get("threshold", DEFAULT_ANOMALY_THRESHOLD)
        if isinstance(threshold, bool) or not isinstance(
            threshold, (int, float)
        ):
            raise ReproError(
                f"rule #{position}: threshold must be a number, "
                f"got {threshold!r}"
            )
        rules.append(
            AlertRule(
                name=str(entry["name"]),
                metric=str(entry["metric"]),
                threshold=float(threshold),
                op=str(entry.get("op", ">")),
                severity=str(entry.get("severity", "warning")),
                for_count=int(entry.get("for", 1)),
                cooldown=float(entry.get("cooldown", 0.0)),
                source=str(entry.get("source", "metric")),
                mode=str(entry.get("mode", "value")),
                window=int(entry.get("window", 1)),
                description=str(entry.get("description", "")),
                tenant=str(entry.get("tenant", "")),
            )
        )
    names = [rule.name for rule in rules]
    duplicates = {name for name in names if names.count(name) > 1}
    if duplicates:
        raise ReproError(
            f"duplicate rule name(s): {', '.join(sorted(duplicates))}"
        )
    return tuple(rules)


def load_rules(path: Union[str, Path]) -> tuple[AlertRule, ...]:
    """Rules from a ``.toml`` or ``.json`` file (by suffix; anything
    else is tried as JSON). TOML needs Python 3.11+ (``tomllib``)."""
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    if path.suffix.lower() == ".toml":
        try:
            import tomllib
        except ImportError:
            raise ReproError(
                f"{path}: TOML rule files need Python 3.11+ (tomllib); "
                "use the JSON form on older interpreters"
            ) from None
        try:
            data = tomllib.loads(text)
        except tomllib.TOMLDecodeError as error:
            raise ReproError(f"{path}: invalid TOML: {error}") from None
    else:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ReproError(f"{path}: invalid JSON: {error}") from None
    try:
        return parse_rules(data)
    except ReproError as error:
        raise ReproError(f"{path}: {error}") from None


# ----------------------------------------------------------------------
# Value resolution
# ----------------------------------------------------------------------


def scalar_values(
    snapshot: Mapping[str, Mapping],
    extra: Optional[Mapping[str, float]] = None,
) -> dict[str, float]:
    """A metrics snapshot flattened to the scalars rules can reference
    (the same flattening ``runs diff`` compares by), merged with the
    caller's ``extra`` values (e.g. ``report.findings``)."""
    values = {
        name: value for name, (value, _) in _metric_scalars(snapshot).items()
    }
    if extra:
        values.update({name: float(value) for name, value in extra.items()})
    return values


# Record-metric resolution lives in runs.py (record_metric_value), so
# ``runs bisect`` and runs-source rules address history identically.
_record_value = record_metric_value


def _reduce_series(series: Sequence[float], mode: str) -> float:
    if mode == "value":
        return series[-1]
    if mode == "delta":
        return series[-1] - series[0]
    if mode == "anomaly":
        # The latest value's robust z-score against the window before
        # it — the same detector `sosae runs bisect` walks history with.
        return robust_zscore(series[:-1], series[-1])
    # regression-pct
    first, last = series[0], series[-1]
    if first == 0:
        if last == 0:
            return 0.0
        return math.inf if last > 0 else -math.inf
    return 100.0 * (last - first) / first


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------


@dataclass
class AlertState:
    """One rule's mutable evaluation state.

    ``status`` says what the last evaluation could do with the rule:
    ``"pending"`` (never evaluated), ``"ok"`` (resolved to a value),
    ``"insufficient-history"`` (a runs-source rule whose window is not
    yet filled by the registry — the operator-visible state the old
    silent skip hid), or ``"no-data"`` (the metric is absent).
    ``status_detail`` carries the human wording (e.g. how many runs are
    recorded versus needed).
    """

    rule: AlertRule
    active: bool = False
    consecutive: int = 0
    last_fired: Optional[float] = None
    last_value: Optional[float] = None
    status: str = "pending"
    status_detail: str = ""

    def to_dict(self) -> dict:
        return {
            "rule": self.rule.name,
            "condition": self.rule.condition(),
            "severity": self.rule.severity,
            "active": self.active,
            "consecutive": self.consecutive,
            "last_value": self.last_value,
            "last_fired": self.last_fired,
            "description": self.rule.description,
            "tenant": self.rule.tenant,
            "status": self.status,
            "status_detail": self.status_detail,
        }


class AlertEngine:
    """Evaluates a fixed rule set after every run, tracking state.

    ``evaluate`` takes the flattened scalar values of the evaluation
    that just finished, the run-registry history (for ``runs``-source
    rules), and ``now`` (seconds; any monotone clock — cooldowns are
    measured on it). It returns the transition events it emitted, after
    publishing each on the current event bus. The bus stamps an event
    in place, so with a live bus the returned events are the stamped
    ones (``seq`` and ``timestamp`` set); without one they keep 0.
    """

    def __init__(self, rules: Sequence[AlertRule]) -> None:
        self.states = [AlertState(rule=rule) for rule in rules]
        self._warned: set[str] = set()

    @property
    def rules(self) -> tuple[AlertRule, ...]:
        return tuple(state.rule for state in self.states)

    def active_alerts(self) -> tuple[AlertState, ...]:
        return tuple(state for state in self.states if state.active)

    def insufficient_history(self) -> tuple[AlertState, ...]:
        """Rules the registry cannot answer yet (window not filled) —
        surfaced by ``/alerts`` and ``serve --once --check`` so a rule
        that never evaluates is an operator-visible state, not a silent
        skip."""
        return tuple(
            state
            for state in self.states
            if state.status == "insufficient-history"
        )

    def to_dict(self) -> list[dict]:
        return [state.to_dict() for state in self.states]

    def _resolve(
        self,
        state: AlertState,
        values: Mapping[str, float],
        runs: Sequence[RunRecord],
    ) -> Optional[float]:
        """The rule's current value, or ``None`` when unresolvable —
        with ``state.status`` recording *why* when it is."""
        rule = state.rule
        if rule.source == "metric":
            # A tenant-scoped metric rule reads the per-tenant scalar
            # the serve loop injects (``tenant.<id>.<metric>``).
            key = (
                f"tenant.{rule.tenant}.{rule.metric}"
                if rule.tenant
                else rule.metric
            )
            value = values.get(key)
            if value is None:
                state.status = "no-data"
                state.status_detail = (
                    f"metric {rule.metric!r} not present in this evaluation"
                )
                if rule.name not in self._warned:
                    self._warned.add(rule.name)
                    _LOG.warning(
                        "alert rule %r references unknown metric %r; "
                        "skipping",
                        rule.name,
                        rule.metric,
                    )
            return value
        # A tenant-scoped runs rule watches only that tenant's slice of
        # history — tenant A's SLO never fires off tenant B's traffic.
        if rule.tenant:
            runs = [
                record for record in runs if record.tenant == rule.tenant
            ]
        # Validate the window against the registry size up front: a
        # rule whose window the history cannot fill yet is explicitly
        # "insufficient history", not silently skipped.
        if len(runs) < rule.window:
            scope = f" for tenant {rule.tenant!r}" if rule.tenant else ""
            state.status = "insufficient-history"
            state.status_detail = (
                f"window needs {rule.window} runs, registry has "
                f"{len(runs)}{scope}"
            )
            return None
        window = list(runs)[-rule.window:]
        series = [
            value
            for record in window
            if (value := _record_value(record, rule.metric)) is not None
        ]
        needed = rule.window if rule.mode == "anomaly" else (
            2 if rule.mode in ("delta", "regression-pct") else 1
        )
        if len(series) < needed:
            if not series:
                state.status = "no-data"
                state.status_detail = (
                    f"metric {rule.metric!r} absent from the run registry"
                )
                if window and rule.name not in self._warned:
                    self._warned.add(rule.name)
                    _LOG.warning(
                        "alert rule %r references metric %r absent from "
                        "the run registry; skipping",
                        rule.name,
                        rule.metric,
                    )
            else:
                # Some records in the window lack the metric (recorded
                # by an older version): the effective history is short.
                state.status = "insufficient-history"
                state.status_detail = (
                    f"window needs {needed} values of {rule.metric!r}, "
                    f"the last {rule.window} runs carry {len(series)}"
                )
            return None
        return _reduce_series(series, rule.mode)

    def evaluate(
        self,
        values: Mapping[str, float],
        runs: Sequence[RunRecord] = (),
        now: float = 0.0,
    ) -> list[Union[AlertFired, AlertResolved]]:
        bus = current_instruments().events
        transitions: list[Union[AlertFired, AlertResolved]] = []
        for state in self.states:
            rule = state.rule
            value = self._resolve(state, values, runs)
            if value is None:
                # No data is neither a violation nor a recovery.
                continue
            state.status = "ok"
            state.status_detail = ""
            state.last_value = value
            if _OPS[rule.op](value, rule.threshold):
                state.consecutive += 1
                cooling = (
                    state.last_fired is not None
                    and now - state.last_fired < rule.cooldown
                )
                if (
                    not state.active
                    and state.consecutive >= rule.for_count
                    and not cooling
                ):
                    state.active = True
                    state.last_fired = now
                    fired = AlertFired(
                        rule=rule.name,
                        metric=rule.metric,
                        severity=rule.severity,
                        value=value,
                        threshold=rule.threshold,
                        message=rule.description or rule.condition(),
                    )
                    transitions.append(fired)
                    if bus.enabled:
                        bus.emit(fired)
            else:
                state.consecutive = 0
                if state.active:
                    state.active = False
                    resolved = AlertResolved(
                        rule=rule.name,
                        metric=rule.metric,
                        severity=rule.severity,
                        value=value,
                    )
                    transitions.append(resolved)
                    if bus.enabled:
                        bus.emit(resolved)
        return transitions
