"""Architectural styles and style-conformance checking.

A :class:`Style` bundles named structural rules; checking an architecture
against its declared style yields :class:`StyleViolation`\\ s. The paper's
two case studies use the Layered style (PIMS) and the C2 style (CRASH);
both are implemented as :class:`Style` subclasses and registered here so
``check_style(architecture)`` resolves the style by the architecture's
``style`` attribute.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.adl.structure import Architecture
from repro.errors import ArchitectureError, StyleViolationError


@dataclass(frozen=True)
class StyleViolation:
    """One breach of a style rule by an architecture."""

    style: str
    rule: str
    message: str
    elements: tuple[str, ...] = ()

    def __str__(self) -> str:
        where = f" [{', '.join(self.elements)}]" if self.elements else ""
        return f"{self.style}/{self.rule}: {self.message}{where}"


class Style:
    """Base class for architectural styles.

    Subclasses register rule methods with :meth:`rule`; :meth:`check`
    runs every rule and collects violations.
    """

    name = "style"
    description = ""

    def __init__(self) -> None:
        self._rules: dict[str, Callable[[Architecture], list[StyleViolation]]] = {}
        self._register_rules()

    def _register_rules(self) -> None:
        """Subclasses override to call :meth:`rule` for each rule."""

    def rule(
        self,
        name: str,
        check: Callable[[Architecture], list[StyleViolation]],
    ) -> None:
        """Register a named rule."""
        if name in self._rules:
            raise ArchitectureError(
                f"style {self.name!r} already has a rule {name!r}"
            )
        self._rules[name] = check

    def check(self, architecture: Architecture) -> list[StyleViolation]:
        """Run every rule; return all violations found."""
        violations: list[StyleViolation] = []
        for check in self._rules.values():
            violations.extend(check(architecture))
        return violations

    def violation(
        self, rule: str, message: str, *elements: str
    ) -> StyleViolation:
        """Construct a violation attributed to this style."""
        return StyleViolation(self.name, rule, message, tuple(elements))

    def assert_conforms(self, architecture: Architecture) -> None:
        """Raise :class:`StyleViolationError` on the first rule breach."""
        violations = self.check(architecture)
        if violations:
            summary = "\n".join(str(violation) for violation in violations)
            raise StyleViolationError(
                f"architecture {architecture.name!r} violates style "
                f"{self.name!r}:\n{summary}"
            )


_REGISTRY: dict[str, Style] = {}


def register_style(style: Style) -> Style:
    """Register a style instance under its name (idempotent for the same
    instance; conflicting re-registration raises)."""
    existing = _REGISTRY.get(style.name)
    if existing is not None and existing is not style:
        raise ArchitectureError(f"style {style.name!r} is already registered")
    _REGISTRY[style.name] = style
    return style


def get_style(name: str) -> Style:
    """Resolve a registered style by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ArchitectureError(f"no registered style named {name!r}") from None


def registered_styles() -> tuple[str, ...]:
    """Names of all registered styles."""
    return tuple(_REGISTRY)


def check_style(architecture: Architecture) -> list[StyleViolation]:
    """Check an architecture against its declared style.

    An architecture with no declared style trivially conforms (returns no
    violations).
    """
    if architecture.style is None:
        return []
    return get_style(architecture.style).check(architecture)
