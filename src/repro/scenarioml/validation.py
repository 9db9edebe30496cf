"""Validation of scenarios and scenario sets against their ontology.

Validation enforces the paper's step-1 discipline: scenarios are written by
instantiating previously defined event types, so every typed event must
reference a defined, non-abstract event type and bind its parameters with
conforming arguments; episodes must reference existing scenarios and form
no cycles.

Problems are reported as a list of :class:`ValidationIssue` rather than
raised one at a time, so an author sees every issue in one pass.
``strict`` helpers raise on the first issue for programmatic use.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from repro.errors import (
    EpisodeCycleError,
    OntologyError,
    ScenarioError,
    UnknownDefinitionError,
)
from repro.scenarioml.compiled import (
    CompiledScenario,
    CompiledSuite,
    compile_scenario,
)
from repro.scenarioml.events import Episode, TypedEvent
from repro.scenarioml.ontology import ArgumentChecker, Ontology
from repro.scenarioml.scenario import Scenario, ScenarioSet


class IssueSeverity(Enum):
    """How serious a validation issue is."""

    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class ValidationIssue:
    """One problem found while validating a scenario (set)."""

    severity: IssueSeverity
    scenario_name: str
    message: str
    event_label: Optional[str] = None

    def __str__(self) -> str:
        location = f"{self.scenario_name}"
        if self.event_label:
            location += f" step {self.event_label}"
        return f"[{self.severity.value}] {location}: {self.message}"


def validate_scenario(
    scenario: Scenario,
    ontology: Ontology,
    scenario_set: Optional[ScenarioSet] = None,
) -> list[ValidationIssue]:
    """Validate one scenario against an ontology.

    Checks, per typed event: the event type exists, is not abstract, and
    the arguments conform (arity and argument class). Per episode: the
    referenced scenario exists in ``scenario_set`` (when given). Per
    actor: it is an ontology individual or class (a warning otherwise).
    """
    return _scenario_issues(
        compile_scenario(scenario), ArgumentChecker(ontology), scenario_set
    )


def _scenario_issues(
    compiled: CompiledScenario,
    arguments: ArgumentChecker,
    scenario_set: Optional[ScenarioSet],
) -> list[ValidationIssue]:
    scenario = compiled.scenario
    issues: list[ValidationIssue] = []
    # Without episodes, the typed events are the only leaves checked.
    checked = compiled.leaves if compiled.episodes else compiled.typed_events
    for event in checked:
        if isinstance(event, TypedEvent):
            error = arguments.check(event.type_name, event.arguments)
            if error is None:
                continue
            if arguments.table(event.type_name).exists:
                message = str(error)
            else:
                message = (
                    f"typed event references unknown event type "
                    f"{event.type_name!r}"
                )
            issues.append(
                ValidationIssue(
                    IssueSeverity.ERROR, scenario.name, message, event.label
                )
            )
        elif isinstance(event, Episode):
            if scenario_set is not None and event.scenario_name not in scenario_set:
                issues.append(
                    ValidationIssue(
                        IssueSeverity.ERROR,
                        scenario.name,
                        f"episode references unknown scenario "
                        f"{event.scenario_name!r}",
                        event.label,
                    )
                )
    ontology = arguments.ontology
    for actor in scenario.actors:
        if not (ontology.has_instance(actor) or ontology.has_instance_type(actor)):
            issues.append(
                ValidationIssue(
                    IssueSeverity.WARNING,
                    scenario.name,
                    f"actor {actor!r} is not defined in the ontology",
                )
            )
    return issues


def validate_scenario_set(scenario_set: ScenarioSet) -> list[ValidationIssue]:
    """Validate every scenario in a set, plus cross-scenario properties.

    In addition to per-scenario checks, verifies that the ontology itself
    is well formed, that episode references are acyclic, and that
    ``alternative_of`` back-references resolve.
    """
    return validate_suite(CompiledSuite(scenario_set))


def validate_suite(suite: CompiledSuite) -> list[ValidationIssue]:
    """:func:`validate_scenario_set` over a compiled view of the set:
    each scenario's events are read from the view, and each distinct
    ``(type, arguments)`` binding -- or, for a type with no typed
    parameter, each ``(type, argument names)`` signature -- is checked
    once, although every occurrence gets its own issue. The view keeps
    the issues (``suite.issues``), so it validates the set once."""
    if suite.issues is None:
        suite.issues = tuple(_suite_issues(suite))
    return list(suite.issues)


def _suite_issues(suite: CompiledSuite) -> list[ValidationIssue]:
    scenario_set = suite.scenario_set
    issues: list[ValidationIssue] = []
    try:
        scenario_set.ontology.validate()
    except (OntologyError, UnknownDefinitionError) as error:
        issues.append(
            ValidationIssue(IssueSeverity.ERROR, "<ontology>", str(error))
        )
    for scenario in scenario_set:
        issues.extend(
            _scenario_issues(
                suite.scenario(scenario.name), suite.arguments, scenario_set
            )
        )
        if scenario.alternative_of and scenario.alternative_of not in scenario_set:
            issues.append(
                ValidationIssue(
                    IssueSeverity.ERROR,
                    scenario.name,
                    f"alternative_of references unknown scenario "
                    f"{scenario.alternative_of!r}",
                )
            )
        try:
            suite.resolve_episodes(scenario.name)
        except EpisodeCycleError as error:
            issues.append(
                ValidationIssue(IssueSeverity.ERROR, scenario.name, str(error))
            )
        except UnknownDefinitionError:
            pass  # already reported as a per-episode error above
    return issues


def assert_valid(scenario_set: ScenarioSet) -> None:
    """Raise :class:`ScenarioError` if the set has any error-level issue."""
    errors = [
        issue
        for issue in validate_scenario_set(scenario_set)
        if issue.severity is IssueSeverity.ERROR
    ]
    if errors:
        summary = "\n".join(str(issue) for issue in errors)
        raise ScenarioError(
            f"scenario set {scenario_set.name!r} is invalid:\n{summary}"
        )
