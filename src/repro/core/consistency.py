"""Inconsistency findings and evaluation verdicts.

Evaluating an architecture against scenarios yields *findings*, not
exceptions. The paper names several inconsistency forms (§3.5): a missing
link between components that successive scenario events require to
communicate; a structural description violating a requirements-imposed
constraint; and a *negative* scenario that executes successfully. The
dynamic evaluation adds behavioral divergences (an expected run-time
observation did not occur). All are represented by :class:`Inconsistency`.

:class:`WalkthroughStep` records how each scenario event fared;
:class:`ScenarioVerdict` aggregates one scenario's traces;
:class:`EvaluationReport` aggregates a whole evaluation run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Optional

from repro.caching import cached_property
from repro.obs.provenance import Provenance, finding_id


class InconsistencyKind(Enum):
    """The ways an architecture can disagree with its requirements."""

    MISSING_LINK = "missing-link"
    CONSTRAINT_VIOLATION = "constraint-violation"
    NEGATIVE_SCENARIO_SUCCEEDED = "negative-scenario-succeeded"
    UNMAPPED_EVENT = "unmapped-event"
    UNMAPPED_COMPONENT = "unmapped-component"
    BEHAVIORAL_DIVERGENCE = "behavioral-divergence"
    STYLE_VIOLATION = "style-violation"
    VALIDATION_ERROR = "validation-error"


class Severity(Enum):
    """How conclusive a finding is."""

    ERROR = "error"      # the architecture cannot satisfy the requirement
    WARNING = "warning"  # evaluation was degraded (e.g. unmappable event)


@dataclass(frozen=True)
class Inconsistency:
    """One finding of disagreement between requirements and architecture.

    ``provenance`` carries the causal chain that produced the finding
    (event position, mapping resolution, index queries); it is excluded
    from equality and hashing so findings compare by what they conclude,
    not by how the conclusion was reached.
    """

    kind: InconsistencyKind
    message: str
    scenario: Optional[str] = None
    event_label: Optional[str] = None
    elements: tuple[str, ...] = ()
    severity: Severity = Severity.ERROR
    provenance: Optional[Provenance] = field(
        default=None, compare=False, repr=False
    )

    @property
    def finding_id(self) -> str:
        """The content-derived id ``sosae explain`` looks findings up by."""
        return finding_id(self)

    def __str__(self) -> str:
        location = ""
        if self.scenario:
            location = f" [{self.scenario}"
            if self.event_label:
                location += f" step {self.event_label}"
            location += "]"
        involved = f" ({', '.join(self.elements)})" if self.elements else ""
        return (
            f"{self.severity.value}/{self.kind.value}{location}: "
            f"{self.message}{involved}"
        )


class WalkthroughStep(NamedTuple):
    """How one scenario event fared during a walkthrough.

    ``components`` are the components the event's type maps to; ``path``
    is the element path used to reach them from the previous step's
    components (``None`` when no path was needed or none was found).

    A walk makes one step per scenario event, so the step is a value
    type backed by a tuple: immutable, hashable, picklable, equal by
    value, and cheap to build. The field order is the order of the
    step's keys in report JSON.
    """

    event_rendering: str
    event_label: Optional[str]
    event_type: Optional[str]
    components: tuple[str, ...]
    path: Optional[tuple[str, ...]]
    ok: bool
    note: str = ""

    def __str__(self) -> str:
        status = "ok" if self.ok else "FAIL"
        step = f" ({self.event_label})" if self.event_label else ""
        mapped = f" -> {{{', '.join(self.components)}}}" if self.components else ""
        path = ""
        if self.path:
            path = f" via {' - '.join(self.path)}"
        note = f"  # {self.note}" if self.note else ""
        return f"[{status}]{step} {self.event_rendering}{mapped}{path}{note}"


@dataclass(frozen=True)
class TraceWalkthrough:
    """The walkthrough of one expanded trace of a scenario."""

    trace_index: int
    steps: tuple[WalkthroughStep, ...]
    inconsistencies: tuple[Inconsistency, ...]

    # Verdict aggregates below are ``cached_property``: the dataclasses
    # are frozen, so the derived values can never change, and callers
    # (report rendering, alert scalars, the run registry) re-read them
    # several times per evaluation.
    @cached_property
    def passed(self) -> bool:
        """Whether every step of this trace succeeded."""
        return all(
            finding.severity is not Severity.ERROR
            for finding in self.inconsistencies
        )


@dataclass(frozen=True)
class ScenarioVerdict:
    """The aggregate outcome of walking one scenario's traces.

    For positive scenarios the architecture *covers* the scenario when all
    traces pass. For negative scenarios the polarity is inverted by
    :mod:`repro.core.negative`; ``passed`` here always means "no
    inconsistencies found", before polarity adjustment.
    """

    scenario: str
    traces: tuple[TraceWalkthrough, ...]
    inconsistencies: tuple[Inconsistency, ...] = ()
    negative: bool = False
    blocked: bool = False

    @cached_property
    def walkthrough_succeeded(self) -> bool:
        """Whether every trace walked cleanly (the raw outcome, before
        negative-scenario polarity and verdict-level findings)."""
        return all(trace.passed for trace in self.traces)

    @cached_property
    def passed(self) -> bool:
        """Whether the architecture is consistent with this scenario.

        A positive scenario passes when every trace walks cleanly and no
        verdict-level error finding exists. A negative scenario passes
        when the walkthrough is *blocked* — it fails outright, or the
        negative evaluator marked it unrealizable (``blocked``).
        """
        if self.negative:
            return self.blocked or not self.walkthrough_succeeded
        own_findings_ok = all(
            finding.severity is not Severity.ERROR
            for finding in self.inconsistencies
        )
        return own_findings_ok and self.walkthrough_succeeded

    def all_inconsistencies(self) -> tuple[Inconsistency, ...]:
        """Findings of this verdict plus those of every trace."""
        findings = list(self.inconsistencies)
        for trace in self.traces:
            findings.extend(trace.inconsistencies)
        return tuple(findings)

    def render(self) -> str:
        """A human-readable account of the scenario's walkthrough."""
        status = "PASS" if self.passed else "FAIL"
        flavor = " (negative)" if self.negative else ""
        lines = [f"{status} {self.scenario}{flavor}"]
        for trace in self.traces:
            if len(self.traces) > 1:
                lines.append(f"  trace {trace.trace_index}:")
            for step in trace.steps:
                lines.append(f"    {step}")
        for finding in self.all_inconsistencies():
            lines.append(f"    ! {finding}")
        return "\n".join(lines)


@dataclass(frozen=True)
class EvaluationReport:
    """The outcome of evaluating an architecture against a scenario set.

    ``dynamic_verdicts`` holds
    :class:`~repro.core.dynamic.DynamicVerdict` results when simulated
    execution was part of the run (duck-typed here to keep the report
    model free of simulation imports).
    """

    architecture: str
    scenario_verdicts: tuple[ScenarioVerdict, ...] = ()
    findings: tuple[Inconsistency, ...] = ()  # non-scenario findings
    dynamic_verdicts: tuple = ()

    @cached_property
    def consistent(self) -> bool:
        """Whether no error-level finding exists anywhere in the report."""
        if any(
            finding.severity is Severity.ERROR for finding in self.findings
        ):
            return False
        if not all(verdict.passed for verdict in self.dynamic_verdicts):
            return False
        return all(verdict.passed for verdict in self.scenario_verdicts)

    @cached_property
    def passed_scenarios(self) -> tuple[str, ...]:
        """Names of scenarios the architecture is consistent with."""
        return tuple(v.scenario for v in self.scenario_verdicts if v.passed)

    @cached_property
    def failed_scenarios(self) -> tuple[str, ...]:
        """Names of scenarios the architecture is inconsistent with."""
        return tuple(v.scenario for v in self.scenario_verdicts if not v.passed)

    def verdict(self, scenario: str) -> ScenarioVerdict:
        """The verdict for a named scenario."""
        for candidate in self.scenario_verdicts:
            if candidate.scenario == scenario:
                return candidate
        raise KeyError(f"report has no verdict for scenario {scenario!r}")

    @cached_property
    def finding_count(self) -> int:
        """How many findings :meth:`all_inconsistencies` returns,
        counted without building the tuple."""
        count = len(self.findings)
        for verdict in self.scenario_verdicts:
            count += len(verdict.inconsistencies)
            for trace in verdict.traces:
                count += len(trace.inconsistencies)
        return count

    def all_inconsistencies(self) -> tuple[Inconsistency, ...]:
        """Every finding in the report."""
        findings = list(self.findings)
        for verdict in self.scenario_verdicts:
            findings.extend(verdict.all_inconsistencies())
        return tuple(findings)
