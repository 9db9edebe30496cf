"""Incremental re-evaluation after architecture evolution.

The paper's maintenance story (§5): when artifacts evolve, the
requirements↔architecture trace links "assist developers in locating other
artifacts that also need modifications." This module operationalizes that
into an evaluation-time saving: given the previous
:class:`~repro.core.consistency.EvaluationReport` and the architecture
diff, only scenarios whose verdicts *may* have changed are re-walked;
every other verdict is carried over unchanged.

Two invalidation strategies are available:

**Dependency tracking** (:class:`DependencyTracker`, the fast path).
After an evaluation, :meth:`DependencyTracker.from_report` records what
each scenario's verdict actually consumed:

* the mapping-resolution chain of every typed event (the type plus any
  supertypes consulted) — so a mapping-entry edit dirties exactly the
  scenarios that resolved through the edited type;
* the mapped components and the *witness paths* justifying every passing
  connectivity check, stored as element sets and consecutive-pair edge
  sets — so a removed link dirties a scenario only when the removed
  adjacency lies on one of its witness paths;
* whether the scenario is *addition-sensitive* — it has a failing step,
  or it is a negative scenario currently blocked. Only those verdicts
  can flip when structure is *added* (a new link/component/connector or
  an interface-direction change can create connectivity but never
  destroy it), so additions dirty only them.

:meth:`DependencyTracker.dirty_scenarios` then computes the dirty set
from an :class:`~repro.adl.diff.ArchitectureDiff` in time proportional to
the diff and the per-scenario dependency sets — no communication index is
built, no reachability set is compared. See ``docs/INCREMENTAL.md`` for
the soundness argument.

**Trace-link impact** (:func:`impacted_scenario_names`, the fallback
when no tracker is available). Reachability sets are compared between the
two versions, but only for components inside
:func:`~repro.adl.index.reachability_affected_region` — components
outside the region provably keep every connectivity answer, so the
comparison cost is proportional to the affected region, not the
architecture.

:func:`reevaluate` runs the one evaluation pipeline,
:meth:`Sosae.evaluate_with <repro.core.evaluator.Sosae.evaluate_with>`,
with a carry-over walk executor (the previous verdict for a clean
scenario, a fresh walk for a dirty one) and the previous validation and
mapping-coverage findings reused when their inputs did not change. Its
report, telemetry and coverage matrix are those of a full evaluation of
the new architecture.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from repro.adl.diff import ArchitectureDiff, diff_architectures
from repro.adl.index import (
    CommunicationIndex,
    communication_index,
    reachability_affected_region,
)
from repro.adl.structure import Architecture
from repro.core.consistency import (
    EvaluationReport,
    InconsistencyKind,
    ScenarioVerdict,
)
from repro.core.constraints import Constraint
from repro.core.evaluator import Sosae, evaluate_scenario
from repro.core.mapping import Mapping
from repro.core.traceability import TraceabilityMatrix
from repro.core.walkthrough import WalkthroughOptions
from repro.errors import EvaluationError
from repro.obs.instruments import current_instruments
from repro.scenarioml.scenario import Scenario, ScenarioSet

__all__ = [
    "DependencyTracker",
    "IncrementalResult",
    "ScenarioDependencies",
    "StaleTrackerError",
    "impacted_scenario_names",
    "reevaluate",
]

class StaleTrackerError(EvaluationError):
    """A :class:`DependencyTracker` was offered for an architecture other
    than the one it recorded dependencies against."""


@dataclass(frozen=True)
class IncrementalResult:
    """The updated report plus bookkeeping about what was re-walked."""

    report: EvaluationReport
    rewalked: tuple[str, ...]
    carried_over: tuple[str, ...]
    #: Findings stages whose previous findings were reused because the
    #: diff cannot have touched their inputs; every other stage ran.
    reused_stages: tuple[str, ...] = ()
    #: Whether the dirty set came from a :class:`DependencyTracker`
    #: (vs. the trace-link fallback).
    used_tracker: bool = False

    @property
    def savings(self) -> float:
        """Fraction of scenario walkthroughs avoided."""
        total = len(self.rewalked) + len(self.carried_over)
        return len(self.carried_over) / total if total else 0.0


# ----------------------------------------------------------------------
# Dependency tracking
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioDependencies:
    """What one scenario's verdict consumed during its walkthrough.

    ``event_types`` — every ontology type consulted while resolving the
    scenario's events (each type plus the supertype chain walked for it).
    ``components`` — the top-level components its events mapped to.
    ``witness_elements`` / ``witness_edges`` — the elements and the
    unordered consecutive element pairs of every witness path justifying
    a passing connectivity check (inter-event paths and intra-event chain
    hops). A structural *removal* can only flip this scenario's verdict
    by breaking a witness adjacency or deleting a witness element.
    ``addition_sensitive`` — whether structural *additions* can flip the
    verdict (some step failed, or the scenario is negative and blocked).
    """

    scenario: str
    event_types: frozenset[str]
    components: frozenset[str]
    witness_elements: frozenset[str]
    witness_edges: frozenset[tuple[str, str]]
    addition_sensitive: bool


def _edge(first: str, second: str) -> tuple[str, str]:
    return (first, second) if first <= second else (second, first)


def _absorb_path(
    path: Sequence[str],
    elements: set[str],
    edges: set[tuple[str, str]],
) -> None:
    elements.update(path)
    for source, target in zip(path, path[1:]):
        edges.add(_edge(source, target))


class DependencyTracker:
    """Per-scenario dependency edges recorded from one evaluation.

    Built from an :class:`~repro.core.consistency.EvaluationReport` in a
    single pass over its recorded walkthrough steps (plus one index path
    query per passing intra-event chain hop, answered from the warm
    per-architecture cache). :meth:`dirty_scenarios` then turns any
    :class:`~repro.adl.diff.ArchitectureDiff` — and optionally an edited
    mapping — into the exact set of scenarios whose verdicts may change,
    in time proportional to the diff.
    """

    def __init__(
        self,
        architecture: Architecture,
        scenarios: dict[str, ScenarioDependencies],
        mapping_entries: dict[str, tuple[str, ...]],
    ) -> None:
        self.architecture = architecture
        self._scenarios = dict(scenarios)
        self._mapping_entries = dict(mapping_entries)

    @classmethod
    def from_report(
        cls,
        report: EvaluationReport,
        architecture: Architecture,
        mapping: Mapping,
        options: Optional[WalkthroughOptions] = None,
        index: Optional[CommunicationIndex] = None,
    ) -> "DependencyTracker":
        """Record dependencies for every scenario verdict in ``report``.

        ``architecture`` and ``mapping`` must be the artifacts the report
        was evaluated against; ``options`` the walkthrough options used
        (they determine which connectivity checks ran, and with which
        direction-sensitivity the witness paths must be reconstructed).
        """
        options = options or WalkthroughOptions()
        index = index or communication_index(architecture)
        scenarios: dict[str, ScenarioDependencies] = {}
        with index.pinned():
            for verdict in report.scenario_verdicts:
                scenarios[verdict.scenario] = cls._dependencies_of(
                    verdict, index, mapping, options
                )
        return cls(architecture, scenarios, mapping.entries)

    @staticmethod
    def _dependencies_of(
        verdict: ScenarioVerdict,
        index: CommunicationIndex,
        mapping: Mapping,
        options: WalkthroughOptions,
    ) -> ScenarioDependencies:
        event_types: set[str] = set()
        components: set[str] = set()
        witness_elements: set[str] = set()
        witness_edges: set[tuple[str, str]] = set()
        addition_sensitive = bool(verdict.negative and verdict.blocked)
        for trace in verdict.traces:
            for step in trace.steps:
                if not step.ok:
                    addition_sensitive = True
                if step.event_type is not None:
                    _, hops = mapping.resolution_for(step.event_type)
                    event_types.update(hops)
                components.update(step.components)
                if step.path:
                    # The recorded inter-event witness path.
                    _absorb_path(step.path, witness_elements, witness_edges)
                if (
                    options.check_intra_event_chain
                    and step.ok
                    and len(step.components) > 1
                ):
                    # The walkthrough checks intra-event chain hops with
                    # can_communicate (no path recorded); reconstruct the
                    # witnesses from the same warm index.
                    for source, target in zip(
                        step.components, step.components[1:]
                    ):
                        if source == target:
                            continue
                        path = index.path(
                            source,
                            target,
                            respect_directions=options.intra_event_directed,
                        )
                        if path:
                            _absorb_path(
                                path, witness_elements, witness_edges
                            )
        return ScenarioDependencies(
            scenario=verdict.scenario,
            event_types=frozenset(event_types),
            components=frozenset(components),
            witness_elements=frozenset(witness_elements),
            witness_edges=frozenset(witness_edges),
            addition_sensitive=addition_sensitive,
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def scenario_names(self) -> tuple[str, ...]:
        """The scenarios with recorded dependencies."""
        return tuple(self._scenarios)

    def dependencies_for(
        self, scenario_name: str
    ) -> Optional[ScenarioDependencies]:
        """The recorded dependencies of one scenario, or ``None``."""
        return self._scenarios.get(scenario_name)

    def changed_event_types(self, mapping: Mapping) -> frozenset[str]:
        """Event types whose direct mapping entry differs from the
        snapshot taken at tracker-build time (added, removed, or
        re-targeted entries)."""
        new_entries = mapping.entries
        names = set(self._mapping_entries) | set(new_entries)
        return frozenset(
            name
            for name in names
            if self._mapping_entries.get(name) != new_entries.get(name)
        )

    def dirty_scenarios(
        self,
        diff: ArchitectureDiff,
        mapping: Optional[Mapping] = None,
    ) -> frozenset[str]:
        """Scenarios whose verdicts may change under ``diff`` (and, when
        ``mapping`` is given, under its entry edits).

        A scenario is dirty when

        * a removed element is one of its mapped components or lies on a
          witness path;
        * a removed link's element pair is a witness-path adjacency;
        * an element whose interfaces changed is one of its mapped
          components or lies on a witness path (a direction flip can
          sever a directed witness edge);
        * the diff adds structure (or changes interfaces) and the
          scenario is addition-sensitive;
        * a consulted event type's mapping entry changed.

        Everything else provably keeps its verdict: its passing checks
        keep their witness paths intact, its failing checks cannot be
        repaired without an addition, and its mapping resolutions are
        untouched.
        """
        removed_elements = set(diff.removed_components)
        removed_elements.update(diff.removed_connectors)
        interface_changed = {
            change.element
            for change in diff.changed_elements
            if change.attribute == "interfaces"
        }
        removed_pairs = {
            _edge(first.split(".", 1)[0], second.split(".", 1)[0])
            for first, second in diff.removed_links
        }
        has_additions = bool(
            diff.added_components
            or diff.added_connectors
            or diff.added_links
            or interface_changed
        )
        changed_types = (
            self.changed_event_types(mapping)
            if mapping is not None
            else frozenset()
        )
        dirty: set[str] = set()
        for name, deps in self._scenarios.items():
            touched = deps.witness_elements | deps.components
            if (
                (removed_elements & touched)
                or (interface_changed & touched)
                or (removed_pairs & deps.witness_edges)
                or (has_additions and deps.addition_sensitive)
                or (changed_types & deps.event_types)
            ):
                dirty.add(name)
        return frozenset(dirty)


# ----------------------------------------------------------------------
# Trace-link impact (fallback without a tracker)
# ----------------------------------------------------------------------


def impacted_scenario_names(
    scenario_set: ScenarioSet,
    mapping: Mapping,
    diff: ArchitectureDiff,
    old_architecture: Architecture,
    new_architecture: Architecture | None = None,
) -> frozenset[str]:
    """Scenarios whose verdicts may change under ``diff``.

    With both architectures available, impact is computed from
    per-component reachability deltas restricted to the diff's affected
    region (plus directly touched components). Without
    ``new_architecture``, the older conservative widening is used: every
    changed connector pulls in its adjacent components.
    """
    touched = set(diff.touched_elements())
    if new_architecture is not None:
        changed = set(
            _reachability_changed_components(
                old_architecture, new_architecture, diff
            )
        )
        changed.update(
            element for element in touched if _is_component(old_architecture, element)
        )
        changed.update(diff.added_components)
        relevant = changed
    else:
        relevant = set(touched)
        for element in touched:
            if old_architecture.has_element(element) and (
                old_architecture.is_connector(element)
            ):
                relevant.update(old_architecture.neighbors(element))
    matrix = TraceabilityMatrix(scenario_set, mapping)
    return frozenset(matrix.impacted_scenarios(relevant))


def _is_component(architecture: Architecture, element: str) -> bool:
    return architecture.has_element(element) and architecture.is_component(element)


def _reachability_changed_components(
    old: Architecture, new: Architecture, diff: ArchitectureDiff
) -> frozenset[str]:
    """Components whose reachability set (undirected or directed) differs
    between the two architecture versions. Components present in only one
    version count as changed.

    Only components inside the diff's
    :func:`~repro.adl.index.reachability_affected_region` are compared —
    everything outside it provably keeps every reachability set — so the
    cost is proportional to the affected region, not the architecture.
    """
    old_names = {component.name for component in old.components}
    new_names = {component.name for component in new.components}
    changed = set(old_names ^ new_names)

    region = reachability_affected_region(old, new, diff)
    candidates = (old_names & new_names) & region
    if not candidates:
        return frozenset(changed)

    old_index = communication_index(old)
    new_index = communication_index(new)
    for name in candidates:
        if old_index.reachable(name) != new_index.reachable(name):
            changed.add(name)
            continue
        if old_index.reachable(name, respect_directions=True) != new_index.reachable(
            name, respect_directions=True
        ):
            changed.add(name)
    return frozenset(changed)


# ----------------------------------------------------------------------
# Re-evaluation
# ----------------------------------------------------------------------


def reevaluate(
    previous: EvaluationReport,
    scenario_set: ScenarioSet,
    old_architecture: Architecture,
    new_architecture: Architecture,
    mapping: Mapping,
    options: WalkthroughOptions | None = None,
    *,
    tracker: Optional[DependencyTracker] = None,
    constraints: Sequence[Constraint] = (),
) -> IncrementalResult:
    """Update ``previous`` for ``new_architecture``, re-walking only
    impacted scenarios.

    With a ``tracker`` (built by :meth:`DependencyTracker.from_report`
    against ``old_architecture``), the dirty set is computed from the
    recorded dependency edges in time proportional to the diff —
    including mapping-entry edits, which the trace-link fallback cannot
    see. A tracker recorded against a different architecture raises
    :class:`StaleTrackerError` (callers should fall back to a full
    evaluation).

    The report comes from the evaluation pipeline itself, so it equals
    a full :meth:`~repro.core.evaluator.Sosae.evaluate` of the new
    architecture: clean scenarios carry their previous verdicts, dirty
    and new ones are walked. Validation findings are reused unless the
    scenario names changed, and mapping-coverage findings unless the
    scenario names, the mapping entries or the component population
    changed; style and constraint findings are always recomputed.
    """
    recorder = current_instruments().recorder
    diff = diff_architectures(old_architecture, new_architecture)
    changed_types: frozenset[str] = frozenset()
    if tracker is not None:
        if tracker.architecture is not old_architecture:
            raise StaleTrackerError(
                "dependency tracker was recorded against architecture "
                f"{tracker.architecture.name!r}, not {old_architecture.name!r}; "
                "rebuild it from the previous report or fall back to a "
                "full evaluation"
            )
        changed_types = tracker.changed_event_types(mapping)
        impacted = tracker.dirty_scenarios(diff, mapping)
    else:
        impacted = impacted_scenario_names(
            scenario_set, mapping, diff, old_architecture, new_architecture
        )
    carried = {
        verdict.scenario: verdict
        for verdict in previous.scenario_verdicts
        if verdict.scenario not in impacted
    }
    names = [scenario.name for scenario in scenario_set]
    rewalked = tuple(name for name in names if name not in carried)
    carried_over = tuple(name for name in names if name in carried)
    scenario_names_changed = set(names) != {
        verdict.scenario for verdict in previous.scenario_verdicts
    }
    reuse = {
        "validation": not scenario_names_changed,
        "coverage": not (
            scenario_names_changed
            or changed_types
            or diff.added_components
            or diff.removed_components
        ),
    }
    reused_findings = {
        stage: [
            finding
            for finding in previous.findings
            if _STAGE_OF_KIND.get(finding.kind) == stage
        ]
        for stage, reusable in reuse.items()
        if reusable
    }

    def carry_over(
        sosae: Sosae, scenarios: tuple[Scenario, ...]
    ) -> Iterator[ScenarioVerdict]:
        # `evaluate_with` pins the index: one fingerprint check covers
        # every re-walk.
        for scenario in scenarios:
            verdict = carried.get(scenario.name)
            yield (
                verdict
                if verdict is not None
                else evaluate_scenario(
                    sosae.engine, scenario, sosae.scenario_set
                )
            )

    sosae = Sosae(
        scenario_set,
        new_architecture,
        mapping.rebind(new_architecture),
        constraints=constraints,
        walkthrough_options=options,
    )
    report = sosae.evaluate_with(
        carry_over,
        reused_findings=reused_findings,
        rewalked=len(rewalked),
        carried=len(carried_over),
    )
    if recorder.enabled:
        recorder.counter("incremental.reevaluations").inc()
        recorder.counter("incremental.rewalked_scenarios").inc(len(rewalked))
        recorder.counter("incremental.carried_scenarios").inc(
            len(carried_over)
        )
    return IncrementalResult(
        report=report,
        rewalked=rewalked,
        carried_over=carried_over,
        reused_stages=tuple(reused_findings),
        used_tracker=tracker is not None,
    )


_STAGE_OF_KIND = {
    InconsistencyKind.VALIDATION_ERROR: "validation",
    InconsistencyKind.UNMAPPED_EVENT: "coverage",
    InconsistencyKind.UNMAPPED_COMPONENT: "coverage",
}
