"""Requirement-imposed communication constraints (paper §3.5).

"Another possible inconsistency occurs when the structural description of
the architecture violates constraints imposed by the requirements. For
instance, a requirement for a distributed system could be 'Clients need to
communicate through a central server.' This constraint can be violated if
the architecture allows two clients to communicate directly, bypassing the
central server."

Constraints are checked against the architecture's structure and yield
:class:`~repro.core.consistency.Inconsistency` findings of kind
``CONSTRAINT_VIOLATION``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.adl.index import communication_index
from repro.adl.structure import Architecture
from repro.core.consistency import Inconsistency, InconsistencyKind
from repro.errors import EvaluationError
from repro.obs.coverage import constraint_label
from repro.obs.instruments import current_instruments
from repro.obs.provenance import IndexQuery, Provenance


class Constraint:
    """Base class: a named requirement on architecture structure."""

    description: str = ""

    def check(self, architecture: Architecture) -> list[Inconsistency]:
        """Violations of this constraint by the architecture."""
        raise NotImplementedError

    def dependencies(self) -> Optional[tuple[str, ...]]:
        """The architecture elements this constraint's verdict depends on,
        or ``None`` when unknown.

        Every built-in constraint is a connectivity question between named
        endpoints and returns them; the coverage matrix labels each
        constraint's row with them (:func:`repro.obs.coverage.
        constraint_label`). ``None`` (the default for custom subclasses)
        labels the row with the class name alone. Constraints are
        re-checked on every evaluation, incremental ones included.
        """
        return None

    def _violation(
        self,
        message: str,
        *elements: str,
        provenance: Optional[Provenance] = None,
    ) -> Inconsistency:
        return Inconsistency(
            kind=InconsistencyKind.CONSTRAINT_VIOLATION,
            message=f"{self.description or type(self).__name__}: {message}",
            elements=tuple(elements),
            provenance=provenance,
        )


@dataclass
class MustRouteVia(Constraint):
    """All communication between two components must pass through a
    mediator — the paper's central-server example.

    Violated when a path exists between the endpoints that avoids the
    mediator (checked by removing the mediator and re-testing
    reachability)."""

    source: str
    target: str
    via: str
    description: str = ""

    def __post_init__(self) -> None:
        if self.via in (self.source, self.target):
            # Path search ignores `avoiding` names equal to the endpoints,
            # so such a mediator would never be removed and the constraint
            # could never report a violation. Reject the degenerate
            # constraint loudly instead of silently passing.
            raise EvaluationError(
                f"MustRouteVia mediator {self.via!r} must differ from its "
                f"endpoints ({self.source!r}, {self.target!r}); the "
                "constraint would be unfalsifiable"
            )

    def dependencies(self) -> tuple[str, ...]:
        return (self.source, self.target, self.via)

    def check(self, architecture: Architecture) -> list[Inconsistency]:
        for name in (self.source, self.target, self.via):
            architecture.element(name)
        bypass = communication_index(architecture).path(
            self.source, self.target, avoiding=(self.via,)
        )
        if bypass is None:
            return []
        return [
            self._violation(
                f"{self.source!r} can reach {self.target!r} without passing "
                f"through {self.via!r} (path: {' - '.join(bypass)})",
                self.source,
                self.target,
                self.via,
                provenance=Provenance(
                    conclusion=(
                        f"the architecture admits a path between the "
                        f"endpoints that bypasses the required mediator "
                        f"{self.via!r}"
                    ),
                    queries=(
                        IndexQuery(
                            operation="path",
                            sources=(self.source,),
                            targets=(self.target,),
                            avoiding=(self.via,),
                            found=True,
                            path=bypass,
                        ),
                    ),
                ),
            )
        ]


@dataclass
class MustNotCommunicate(Constraint):
    """Two components must have no communication path at all
    (e.g. an isolation requirement between security domains)."""

    first: str
    second: str
    description: str = ""

    def dependencies(self) -> tuple[str, ...]:
        return (self.first, self.second)

    def check(self, architecture: Architecture) -> list[Inconsistency]:
        for name in (self.first, self.second):
            architecture.element(name)
        path = communication_index(architecture).path(self.first, self.second)
        if path is None:
            return []
        return [
            self._violation(
                f"{self.first!r} and {self.second!r} can communicate "
                f"(path: {' - '.join(path)})",
                self.first,
                self.second,
                provenance=Provenance(
                    conclusion=(
                        "the isolation requirement is violated: a "
                        "communication path joins the two components"
                    ),
                    queries=(
                        IndexQuery(
                            operation="path",
                            sources=(self.first,),
                            targets=(self.second,),
                            found=True,
                            path=path,
                        ),
                    ),
                ),
            )
        ]


@dataclass
class RequiresPath(Constraint):
    """Two components must be able to communicate (the structural
    precondition of any scenario step flowing between them)."""

    source: str
    target: str
    respect_directions: bool = False
    description: str = ""

    def dependencies(self) -> tuple[str, ...]:
        return (self.source, self.target)

    def check(self, architecture: Architecture) -> list[Inconsistency]:
        for name in (self.source, self.target):
            architecture.element(name)
        if communication_index(architecture).can_communicate(
            self.source,
            self.target,
            respect_directions=self.respect_directions,
        ):
            return []
        return [
            self._violation(
                f"no communication path from {self.source!r} to {self.target!r}",
                self.source,
                self.target,
                provenance=Provenance(
                    conclusion=(
                        "the structural precondition of the requirement does "
                        "not hold: the endpoints cannot communicate at all"
                    ),
                    queries=(
                        IndexQuery(
                            operation="can_communicate",
                            sources=(self.source,),
                            targets=(self.target,),
                            respect_directions=self.respect_directions,
                            found=False,
                        ),
                    ),
                ),
            )
        ]


@dataclass
class ForbidsDirectLink(Constraint):
    """Two components must not be directly linked (communication, if any,
    must be mediated by at least a connector)."""

    first: str
    second: str
    description: str = ""

    def dependencies(self) -> tuple[str, ...]:
        return (self.first, self.second)

    def check(self, architecture: Architecture) -> list[Inconsistency]:
        for name in (self.first, self.second):
            architecture.element(name)
        links = architecture.links_between(self.first, self.second)
        return [
            self._violation(
                f"direct link {link.name!r} joins {self.first!r} and "
                f"{self.second!r}",
                self.first,
                self.second,
                provenance=Provenance(
                    conclusion=(
                        "communication between the components must be "
                        "mediated, but the structure links them directly"
                    ),
                    queries=(
                        IndexQuery(
                            operation="links_between",
                            sources=(self.first,),
                            targets=(self.second,),
                            found=True,
                            path=(self.first, link.name, self.second),
                        ),
                    ),
                ),
            )
            for link in links
        ]


def check_constraints(
    architecture: Architecture, constraints: list[Constraint]
) -> list[Inconsistency]:
    """Check every constraint; return all violations."""
    instruments = current_instruments()
    recorder, coverage = instruments.recorder, instruments.coverage
    findings: list[Inconsistency] = []
    for constraint in constraints:
        violations = constraint.check(architecture)
        findings.extend(violations)
        if coverage.enabled:
            coverage.record_constraint(
                constraint_label(constraint), bool(violations)
            )
    if recorder.enabled:
        recorder.counter("constraints.checks").inc(len(constraints))
        # Attribution attribute on the enclosing evaluate.constraints
        # span, mirroring the per-scenario cost.* walkthrough attributes.
        recorder.annotate("cost.constraint_checks", len(constraints))
    return findings
