"""Element-level coverage of an evaluation run.

The paper motivates coverage directly (§3.2): requirements scenarios
"are often quite numerous" and evaluation time is limited, so the
evaluator must know whether the chosen scenario subset is representative
of the ontology and architecture it judges. This module answers that
from the report itself: the coverage of a run is a function of its
scenario verdicts, the mapping and the constraints it checked.

* **cells** — event-type × component exercise counts, one increment per
  typed walkthrough step per top-level component it was placed on
  (supertype hops included, exactly as the walkthrough resolves them);
* **link coverage** — every architecture link crossed by a step's
  witness path, harvested from consecutive path elements;
* **constraint coverage** — per-constraint checked/fired counts;
* **dead mappings** — direct mapping entries no scenario's resolution
  ever answered from (mapped pairs the corpus never exercises).

:meth:`Sosae.evaluate_with <repro.core.evaluator.Sosae.evaluate_with>`
folds the finished report's verdict steps into the
:class:`CoverageBuilder` of the instrument bundle
(:mod:`repro.obs.instruments`), and ``check_constraints`` reports each
constraint to it. Because the matrix is derived from the verdicts, a
sharded walk, an incremental re-evaluation that carries verdicts over,
and a serial walk of the same spec produce the same matrix. The
default :data:`NULL_COVERAGE` records nothing. The finalized
:class:`CoverageMatrix` has a canonical compact JSON serialization and
a sha256 digest.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from operator import is_
from typing import TYPE_CHECKING, Iterable, Optional

from repro.caching import cached_property
from repro.obs.events import CoverageComputed
from repro.obs.store import short_digest

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (obs <- core)
    from repro.adl.structure import Architecture
    from repro.core.consistency import ScenarioVerdict
    from repro.core.mapping import Mapping
    from repro.scenarioml.scenario import ScenarioSet

__all__ = [
    "NULL_COVERAGE",
    "CoverageBuilder",
    "CoverageDiff",
    "CoverageMatrix",
    "NullCoverage",
    "constraint_label",
    "coverage_computed_event",
    "coverage_scalars",
    "diff_coverage",
]

COVERAGE_FORMAT = 1


class NullCoverage:
    """The zero-overhead default: every record operation is a no-op."""

    enabled = False

    def record_constraint(self, label, fired) -> None:
        pass

    def __repr__(self) -> str:
        return "NullCoverage()"


NULL_COVERAGE = NullCoverage()

@lru_cache(maxsize=4096)
def _path_pairs(path: tuple[str, ...]) -> tuple[tuple[str, str], ...]:
    """A witness path's consecutive element pairs, each normalized to
    sorted order. Cached module-wide: the same few hundred paths recur
    across evaluations, so warm folds skip the zip-and-compare work."""
    previous = path[0]
    pairs = []
    for element in path[1:]:
        pairs.append(
            (previous, element) if previous <= element
            else (element, previous)
        )
        previous = element
    return tuple(pairs)


def constraint_label(constraint) -> str:
    """Stable identity for a constraint in the coverage matrix."""
    endpoints = constraint.dependencies() or ()
    if endpoints:
        return f"{type(constraint).__name__}({', '.join(endpoints)})"
    return type(constraint).__name__


def _fold(
    verdicts: Iterable["ScenarioVerdict"], memo: Optional[dict]
) -> tuple[Counter, Counter]:
    """The verdicts' typed steps counted by ``(event type, components)``
    placement, and their multi-element witness paths counted, kept in
    ``memo`` (when given) with the traces they were counted from."""
    traces = tuple(verdict.traces for verdict in verdicts)
    if memo is not None:
        kept = memo.get("coverage.fold")
        if (
            kept is not None
            and len(kept[0]) == len(traces)
            and all(map(is_, kept[0], traces))
        ):
            return kept[1], kept[2]
    steps = [
        step
        for walks in traces
        for trace in walks
        for step in trace.steps
        if step.event_type is not None
    ]
    placements = Counter((step.event_type, step.components) for step in steps)
    paths = Counter(
        step.path
        for step in steps
        if step.path is not None and len(step.path) > 1
    )
    if memo is not None:
        memo["coverage.fold"] = (traces, placements, paths)
    return placements, paths


class CoverageBuilder:
    """Accumulates exercise counts for one evaluation (or several, when
    one builder is installed across them).

    Construct with ``enabled=False`` to install a builder that records
    nothing — the benchmark baseline for measuring collection
    overhead."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._cells: dict[str, dict[str, int]] = {}
        self._event_types: dict[str, int] = {}
        self._entries: dict[str, int] = {}
        self._pairs: dict[tuple[str, str], int] = {}
        self._constraints: dict[str, list[int]] = {}
        self._resolutions = 0
        self._supertype_resolutions = 0
        self._unmapped_events = 0
        self._architecture: Optional["Architecture"] = None

    def record_verdicts(
        self,
        verdicts: Iterable["ScenarioVerdict"],
        architecture: "Architecture",
        mapping: "Mapping",
        memo: Optional[dict] = None,
    ) -> None:
        """Count what the verdicts' walkthrough steps exercised on
        ``architecture`` (which :meth:`finalize` then reads).

        Each typed step counts its event type, the top-level components
        the walkthrough placed it on, and the mapping entry that
        answered for it (``mapping.resolution_for`` walks the same
        supertype chain the walkthrough did); every consecutive pair of
        a step's witness path counts as a link crossing.

        ``memo`` is an engine session's
        :meth:`~repro.core.walkthrough.WalkthroughEngine.memo` when the
        engine walks for ``mapping``: the steps' fold is kept there,
        and verdicts whose traces are the very objects of the last
        fold's (a replay of an unchanged pipeline) reuse it."""
        self._architecture = architecture
        if not self.enabled:
            return
        placements, paths = _fold(verdicts, memo)
        event_types, entries = self._event_types, self._entries
        for (event_type, components), count in placements.items():
            event_types[event_type] = event_types.get(event_type, 0) + count
            if not components:
                self._unmapped_events += count
                continue
            _, hops = mapping.resolution_for(event_type)
            self._resolutions += count
            if len(hops) > 1:
                self._supertype_resolutions += count
            entries[hops[-1]] = entries.get(hops[-1], 0) + count
            cells = self._cells.setdefault(event_type, {})
            for component in components:
                cells[component] = cells.get(component, 0) + count
        pairs = self._pairs
        for path, count in paths.items():
            for key in _path_pairs(path):
                pairs[key] = pairs.get(key, 0) + count

    def record_constraint(self, label: str, fired: bool) -> None:
        """One constraint checked; ``fired`` when it produced findings."""
        if not self.enabled:
            return
        counts = self._constraints.get(label)
        if counts is None:
            counts = self._constraints[label] = [0, 0]
        counts[0] += 1
        if fired:
            counts[1] += 1

    # -- finalization ---------------------------------------------------

    def finalize(
        self, scenario_set: "ScenarioSet", mapping: "Mapping"
    ) -> "CoverageMatrix":
        """Close the books against the full element universe: the
        ontology's concrete event types, the recorded architecture's
        top-level components and links, and the mapping's direct
        entries."""
        architecture = self._architecture
        exercised = {
            component
            for counts in self._cells.values()
            for component in counts
        }
        untouched = tuple(
            component.name
            for component in architecture.components
            if component.name not in exercised
        )
        unexercised = tuple(
            event_type.name
            for event_type in scenario_set.ontology.event_types
            if not event_type.abstract
            and event_type.name not in self._event_types
        )
        # One pass over the links builds a pair -> link-names index;
        # probing it per witness pair beats re-scanning every link per
        # pair (``links_between``) by the full O(pairs x links) factor.
        links_by_pair: dict[tuple[str, str], list[str]] = {}
        for link in architecture.links:
            first = link.first.element
            second = link.second.element
            key = (first, second) if first <= second else (second, first)
            links_by_pair.setdefault(key, []).append(link.name)
        covered_links: dict[str, int] = {}
        for pair, count in self._pairs.items():
            for link_name in links_by_pair.get(pair, ()):
                covered_links[link_name] = (
                    covered_links.get(link_name, 0) + count
                )
        uncovered_links = tuple(
            link.name
            for link in architecture.links
            if link.name not in covered_links
        )
        dead = {
            event_type: tuple(components)
            for event_type, components in sorted(mapping.entries.items())
            if event_type not in self._entries
        }
        return CoverageMatrix(
            cells={
                event_type: dict(sorted(counts.items()))
                for event_type, counts in sorted(self._cells.items())
            },
            event_type_counts=dict(sorted(self._event_types.items())),
            unexercised_event_types=tuple(sorted(unexercised)),
            exercised_components=tuple(sorted(exercised)),
            untouched_components=tuple(sorted(untouched)),
            covered_links=dict(sorted(covered_links.items())),
            uncovered_links=tuple(sorted(uncovered_links)),
            dead_mappings=dead,
            constraints={
                label: {"checked": counts[0], "fired": counts[1]}
                for label, counts in sorted(self._constraints.items())
            },
            resolutions=self._resolutions,
            supertype_resolutions=self._supertype_resolutions,
            unmapped_events=self._unmapped_events,
        )

    def __repr__(self) -> str:
        return (
            f"CoverageBuilder(enabled={self.enabled}, "
            f"resolutions={self._resolutions})"
        )


@dataclass(frozen=True)
class CoverageMatrix:
    """The finalized element-level coverage of one evaluation run.

    Every collection is sorted, so two runs that exercised the same
    elements the same number of times serialize to the same bytes
    regardless of scenario order or shard arrival order. Coverage
    ratios treat an empty universe as fully covered (a zero-link
    architecture has 100% link coverage — there is nothing to miss)."""

    cells: dict[str, dict[str, int]]
    event_type_counts: dict[str, int]
    unexercised_event_types: tuple[str, ...]
    exercised_components: tuple[str, ...]
    untouched_components: tuple[str, ...]
    covered_links: dict[str, int]
    uncovered_links: tuple[str, ...]
    dead_mappings: dict[str, tuple[str, ...]]
    constraints: dict[str, dict[str, int]]
    resolutions: int = 0
    supertype_resolutions: int = 0
    unmapped_events: int = 0

    @property
    def component_coverage(self) -> float:
        total = len(self.exercised_components) + len(self.untouched_components)
        return len(self.exercised_components) / total if total else 1.0

    @property
    def link_coverage(self) -> float:
        total = len(self.covered_links) + len(self.uncovered_links)
        return len(self.covered_links) / total if total else 1.0

    @property
    def event_type_coverage(self) -> float:
        # Concrete universe = exercised concrete types + unexercised ones.
        exercised = len(self.event_type_counts)
        total = exercised + len(self.unexercised_event_types)
        return exercised / total if total else 1.0

    def to_payload(self) -> dict:
        """The canonical JSON-safe payload (digest input)."""
        return {
            "format": COVERAGE_FORMAT,
            "cells": self.cells,
            "event_type_counts": self.event_type_counts,
            "unexercised_event_types": list(self.unexercised_event_types),
            "exercised_components": list(self.exercised_components),
            "untouched_components": list(self.untouched_components),
            "covered_links": self.covered_links,
            "uncovered_links": list(self.uncovered_links),
            "dead_mappings": {
                event_type: list(components)
                for event_type, components in self.dead_mappings.items()
            },
            "constraints": self.constraints,
            "resolutions": self.resolutions,
            "supertype_resolutions": self.supertype_resolutions,
            "unmapped_events": self.unmapped_events,
        }

    def canonical_json(self) -> str:
        return json.dumps(
            self.to_payload(), sort_keys=True, separators=(",", ":")
        )

    @cached_property
    def digest(self) -> str:
        # cached_property writes straight into __dict__, which a frozen
        # dataclass permits; the matrix is immutable, so one hash per
        # instance is correct and spares re-serializing on every read.
        return short_digest(self.canonical_json())

    def to_dict(self) -> dict:
        return {**self.to_payload(), "digest": self.digest}

    @classmethod
    def from_dict(cls, data: dict) -> "CoverageMatrix":
        """Reconstruct; verifies the embedded digest when present."""
        if data.get("format") != COVERAGE_FORMAT:
            raise ValueError(
                f"unsupported coverage format {data.get('format')!r} "
                f"(expected {COVERAGE_FORMAT})"
            )
        matrix = cls(
            cells={
                event_type: dict(counts)
                for event_type, counts in data.get("cells", {}).items()
            },
            event_type_counts=dict(data.get("event_type_counts", {})),
            unexercised_event_types=tuple(
                data.get("unexercised_event_types", ())
            ),
            exercised_components=tuple(data.get("exercised_components", ())),
            untouched_components=tuple(data.get("untouched_components", ())),
            covered_links=dict(data.get("covered_links", {})),
            uncovered_links=tuple(data.get("uncovered_links", ())),
            dead_mappings={
                event_type: tuple(components)
                for event_type, components in data.get(
                    "dead_mappings", {}
                ).items()
            },
            constraints={
                label: dict(counts)
                for label, counts in data.get("constraints", {}).items()
            },
            resolutions=data.get("resolutions", 0),
            supertype_resolutions=data.get("supertype_resolutions", 0),
            unmapped_events=data.get("unmapped_events", 0),
        )
        stored = data.get("digest")
        if stored and stored != matrix.digest:
            raise ValueError(
                f"coverage matrix digest mismatch: stored {stored}, "
                f"recomputed {matrix.digest}"
            )
        return matrix

    def render(self) -> str:
        """A human-readable coverage summary."""
        exercised = len(self.exercised_components)
        components = exercised + len(self.untouched_components)
        covered = len(self.covered_links)
        links = covered + len(self.uncovered_links)
        used = len(self.event_type_counts)
        event_types = used + len(self.unexercised_event_types)
        lines = [
            f"components: {exercised}/{components} exercised "
            f"({self.component_coverage:.0%})",
            f"links:      {covered}/{links} covered "
            f"({self.link_coverage:.0%})",
            f"event types: {used}/{event_types} exercised "
            f"({self.event_type_coverage:.0%})",
            f"resolutions: {self.resolutions} "
            f"({self.supertype_resolutions} via supertype hop, "
            f"{self.unmapped_events} unmapped events)",
        ]
        if self.dead_mappings:
            lines.append(f"dead mapping entries: {len(self.dead_mappings)}")
        if self.constraints:
            fired = sum(
                1 for counts in self.constraints.values() if counts["fired"]
            )
            lines.append(
                f"constraints: {len(self.constraints)} checked, {fired} fired"
            )
        lines.append(f"digest: {self.digest}")
        return "\n".join(lines)

    def render_gaps(self) -> str:
        """Everything the scenario corpus never exercised."""
        sections = []
        if self.untouched_components:
            sections.append(
                "untouched components:\n  "
                + "\n  ".join(self.untouched_components)
            )
        if self.unexercised_event_types:
            sections.append(
                "unexercised event types:\n  "
                + "\n  ".join(self.unexercised_event_types)
            )
        if self.uncovered_links:
            sections.append(
                "uncovered links:\n  " + "\n  ".join(self.uncovered_links)
            )
        if self.dead_mappings:
            sections.append(
                "dead mapping entries (mapped, never resolved):\n  "
                + "\n  ".join(
                    f"{event_type} -> {', '.join(components)}"
                    for event_type, components in self.dead_mappings.items()
                )
            )
        if not sections:
            return "no gaps: every element is exercised"
        return "\n".join(sections)


@dataclass(frozen=True)
class CoverageDiff:
    """What a later run stopped covering relative to an earlier one."""

    newly_untouched_components: tuple[str, ...]
    newly_unexercised_event_types: tuple[str, ...]
    newly_uncovered_links: tuple[str, ...]
    new_dead_mappings: tuple[str, ...]
    component_drop: float
    link_drop: float
    event_type_drop: float

    @property
    def worst_drop(self) -> float:
        return max(
            self.component_drop, self.link_drop, self.event_type_drop, 0.0
        )

    @property
    def newly_uncovered(self) -> int:
        return (
            len(self.newly_untouched_components)
            + len(self.newly_unexercised_event_types)
            + len(self.newly_uncovered_links)
        )

    def regressed(self, threshold: float = 0.0) -> bool:
        """Whether the later run's coverage fell past ``threshold``
        (allowed ratio drop). At the default zero threshold, any newly
        uncovered element counts as a regression."""
        if self.worst_drop > threshold:
            return True
        return threshold <= 0.0 and self.newly_uncovered > 0

    def render(self) -> str:
        lines = [
            f"component coverage drop:  {self.component_drop:+.1%}"
            if self.component_drop
            else "component coverage drop:  none",
            f"link coverage drop:       {self.link_drop:+.1%}"
            if self.link_drop
            else "link coverage drop:       none",
            f"event-type coverage drop: {self.event_type_drop:+.1%}"
            if self.event_type_drop
            else "event-type coverage drop: none",
        ]
        ranked = [
            ("components newly untouched", self.newly_untouched_components),
            (
                "event types newly unexercised",
                self.newly_unexercised_event_types,
            ),
            ("links newly uncovered", self.newly_uncovered_links),
            ("mapping entries newly dead", self.new_dead_mappings),
        ]
        ranked.sort(key=lambda pair: -len(pair[1]))
        for title, names in ranked:
            if names:
                lines.append(f"{title} ({len(names)}):")
                lines.extend(f"  {name}" for name in names)
        if not self.newly_uncovered and not self.new_dead_mappings:
            lines.append("no newly uncovered elements")
        return "\n".join(lines)


def diff_coverage(
    before: CoverageMatrix, after: CoverageMatrix
) -> CoverageDiff:
    """Coverage drift from ``before`` to ``after``: which elements the
    later run stopped exercising, and by how much the ratios fell."""

    def newly(earlier: Iterable[str], later: Iterable[str]) -> tuple[str, ...]:
        earlier_set = set(earlier)
        return tuple(name for name in later if name not in earlier_set)

    return CoverageDiff(
        newly_untouched_components=newly(
            before.untouched_components, after.untouched_components
        ),
        newly_unexercised_event_types=newly(
            before.unexercised_event_types, after.unexercised_event_types
        ),
        newly_uncovered_links=newly(
            before.uncovered_links, after.uncovered_links
        ),
        new_dead_mappings=newly(before.dead_mappings, after.dead_mappings),
        component_drop=before.component_coverage - after.component_coverage,
        link_drop=before.link_coverage - after.link_coverage,
        event_type_drop=(
            before.event_type_coverage - after.event_type_coverage
        ),
    )


def coverage_computed_event(matrix: CoverageMatrix) -> CoverageComputed:
    """The bus announcement for a finalized matrix (``sosae tail``
    renders its one-line component/link percentage summary)."""
    return CoverageComputed(
        components_exercised=len(matrix.exercised_components),
        components_total=(
            len(matrix.exercised_components)
            + len(matrix.untouched_components)
        ),
        links_covered=len(matrix.covered_links),
        links_total=len(matrix.covered_links) + len(matrix.uncovered_links),
        event_types_used=len(matrix.event_type_counts),
        event_types_total=(
            len(matrix.event_type_counts)
            + len(matrix.unexercised_event_types)
        ),
        dead_mappings=len(matrix.dead_mappings),
        digest=matrix.digest,
    )


def coverage_scalars(
    data: dict, previous: Optional[dict] = None
) -> dict[str, float]:
    """Flat ``coverage.*`` scalars from a persisted matrix dict — the
    value universe ``mode="coverage"`` alert rules resolve against and
    the source of the ``sosae_coverage_*`` gauge families.

    With ``previous`` (the prior run's persisted matrix), drift scalars
    (``coverage.newly_*``) are included so rules like "event type newly
    unexercised" can fire on the transition itself."""
    matrix = CoverageMatrix.from_dict(data)
    scalars = {
        "coverage.component_ratio": matrix.component_coverage,
        "coverage.link_ratio": matrix.link_coverage,
        "coverage.event_type_ratio": matrix.event_type_coverage,
        "coverage.untouched_components": float(
            len(matrix.untouched_components)
        ),
        "coverage.unexercised_event_types": float(
            len(matrix.unexercised_event_types)
        ),
        "coverage.uncovered_links": float(len(matrix.uncovered_links)),
        "coverage.dead_mappings": float(len(matrix.dead_mappings)),
        "coverage.resolutions": float(matrix.resolutions),
        "coverage.supertype_resolutions": float(
            matrix.supertype_resolutions
        ),
        "coverage.unmapped_events": float(matrix.unmapped_events),
    }
    if previous:
        drift = diff_coverage(CoverageMatrix.from_dict(previous), matrix)
        scalars["coverage.newly_untouched_components"] = float(
            len(drift.newly_untouched_components)
        )
        scalars["coverage.newly_unexercised_event_types"] = float(
            len(drift.newly_unexercised_event_types)
        )
        scalars["coverage.newly_uncovered_links"] = float(
            len(drift.newly_uncovered_links)
        )
        scalars["coverage.component_drop"] = drift.component_drop
        scalars["coverage.link_drop"] = drift.link_drop
    return scalars
