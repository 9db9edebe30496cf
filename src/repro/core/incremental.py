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

Findings are refreshed per pipeline stage rather than copied verbatim:
stages whose inputs the diff cannot have touched carry their findings
over (annotated with a ``carried_over=True`` provenance note); stages
whose inputs changed are recomputed from scratch.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.adl.diff import ArchitectureDiff, diff_architectures
from repro.adl.index import (
    CommunicationIndex,
    communication_index,
    reachability_affected_region,
    structural_seeds,
)
from repro.adl.structure import Architecture
from repro.core.consistency import (
    EvaluationReport,
    Inconsistency,
    InconsistencyKind,
    ScenarioVerdict,
)
from repro.core.constraints import Constraint, check_constraints
from repro.core.evaluator import (
    coverage_findings,
    evaluate_scenario,
    style_findings,
    validation_findings,
)
from repro.core.mapping import Mapping
from repro.core.traceability import TraceabilityMatrix
from repro.core.walkthrough import WalkthroughEngine, WalkthroughOptions
from repro.errors import EvaluationError
from repro.obs.provenance import Provenance
from repro.obs.instruments import current_instruments
from repro.scenarioml.scenario import ScenarioSet

__all__ = [
    "DependencyTracker",
    "IncrementalResult",
    "ScenarioDependencies",
    "StaleTrackerError",
    "impacted_scenario_names",
    "reevaluate",
]

CARRIED_OVER_NOTE = (
    "carried_over=True: finding carried from the previous evaluation "
    "(its dependencies are unaffected by the architecture diff)"
)


class StaleTrackerError(EvaluationError):
    """A :class:`DependencyTracker` was offered for an architecture other
    than the one it recorded dependencies against."""


@dataclass(frozen=True)
class IncrementalResult:
    """The updated report plus bookkeeping about what was re-walked."""

    report: EvaluationReport
    rewalked: tuple[str, ...]
    carried_over: tuple[str, ...]
    #: Finding stages recomputed because the diff touched their inputs.
    recomputed_stages: tuple[str, ...] = ()
    #: Finding stages whose previous findings were carried (with a
    #: ``carried_over=True`` provenance note).
    carried_stages: tuple[str, ...] = ()
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

    Findings are refreshed per stage: validation findings are recomputed
    when the scenario set changed, style findings when the diff is
    structural, coverage findings when the scenario set, mapping entries,
    or component population changed, and constraint findings (when
    ``constraints`` are given) when any constraint's declared
    :meth:`~repro.core.constraints.Constraint.dependencies` intersect the
    diff's affected region. Unrefreshed findings are carried with a
    ``carried_over=True`` provenance note. Dynamic verdicts are carried
    only across a no-op diff; re-run the full pipeline to refresh them.
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
    rebound = mapping.rebind(new_architecture)
    engine = WalkthroughEngine(new_architecture, rebound, options)

    verdicts: list[ScenarioVerdict] = []
    rewalked: list[str] = []
    carried: list[str] = []
    previous_by_name = {
        verdict.scenario: verdict for verdict in previous.scenario_verdicts
    }
    with engine.index.pinned():
        for scenario in scenario_set:
            if scenario.name in impacted or scenario.name not in previous_by_name:
                verdicts.append(
                    evaluate_scenario(engine, scenario, scenario_set)
                )
                rewalked.append(scenario.name)
            else:
                verdicts.append(previous_by_name[scenario.name])
                carried.append(scenario.name)

    scenario_names_changed = {
        scenario.name for scenario in scenario_set
    } != set(previous_by_name)
    findings, recomputed_stages, carried_stages = _refresh_findings(
        previous,
        scenario_set,
        old_architecture,
        new_architecture,
        rebound,
        diff,
        constraints,
        changed_types,
        scenario_names_changed,
    )
    dynamic_verdicts = (
        previous.dynamic_verdicts
        if diff.is_empty and not scenario_names_changed
        else ()
    )

    if recorder.enabled:
        recorder.counter("incremental.reevaluations").inc()
        recorder.counter("incremental.rewalked_scenarios").inc(len(rewalked))
        recorder.counter("incremental.carried_scenarios").inc(len(carried))

    report = EvaluationReport(
        architecture=new_architecture.name,
        scenario_verdicts=tuple(verdicts),
        findings=findings,
        dynamic_verdicts=dynamic_verdicts,
    )
    return IncrementalResult(
        report=report,
        rewalked=tuple(rewalked),
        carried_over=tuple(carried),
        recomputed_stages=recomputed_stages,
        carried_stages=carried_stages,
        used_tracker=tracker is not None,
    )


_STAGE_OF_KIND = {
    InconsistencyKind.VALIDATION_ERROR: "validation",
    InconsistencyKind.STYLE_VIOLATION: "style_check",
    InconsistencyKind.UNMAPPED_EVENT: "coverage",
    InconsistencyKind.UNMAPPED_COMPONENT: "coverage",
    InconsistencyKind.CONSTRAINT_VIOLATION: "constraints",
}

_STAGE_ORDER = ("validation", "style_check", "coverage", "constraints", "other")


def _with_carried_note(finding: Inconsistency) -> Inconsistency:
    provenance = finding.provenance
    if provenance is None:
        provenance = Provenance(
            conclusion="carried over by incremental re-evaluation",
            notes=(CARRIED_OVER_NOTE,),
        )
    elif CARRIED_OVER_NOTE in provenance.notes:
        return finding
    else:
        provenance = dataclasses.replace(
            provenance, notes=(*provenance.notes, CARRIED_OVER_NOTE)
        )
    return dataclasses.replace(finding, provenance=provenance)


def _refresh_findings(
    previous: EvaluationReport,
    scenario_set: ScenarioSet,
    old_architecture: Architecture,
    new_architecture: Architecture,
    rebound: Mapping,
    diff: ArchitectureDiff,
    constraints: Sequence[Constraint],
    changed_types: frozenset[str],
    scenario_names_changed: bool,
) -> tuple[tuple[Inconsistency, ...], tuple[str, ...], tuple[str, ...]]:
    """Carry or recompute the previous report's stage findings.

    Returns ``(findings, recomputed_stages, carried_stages)``; carried
    stages are listed only when they actually contributed findings.
    """
    structural = bool(structural_seeds(diff))
    recompute = {
        "validation": scenario_names_changed,
        "style_check": structural,
        "coverage": (
            scenario_names_changed
            or bool(changed_types)
            or bool(diff.added_components or diff.removed_components)
        ),
        "constraints": False,
        "other": False,
    }
    if constraints and structural:
        region = reachability_affected_region(
            old_architecture, new_architecture, diff
        )
        recompute["constraints"] = any(
            constraint.dependencies() is None
            or (set(constraint.dependencies()) & region)
            for constraint in constraints
        )

    previous_by_stage: dict[str, list[Inconsistency]] = {
        stage: [] for stage in _STAGE_ORDER
    }
    for finding in previous.findings:
        stage = _STAGE_OF_KIND.get(finding.kind, "other")
        previous_by_stage[stage].append(finding)

    fresh = {
        "validation": lambda: validation_findings(scenario_set),
        "style_check": lambda: style_findings(new_architecture),
        "coverage": lambda: coverage_findings(rebound, scenario_set),
        "constraints": lambda: check_constraints(
            new_architecture, list(constraints)
        ),
    }

    findings: list[Inconsistency] = []
    recomputed: list[str] = []
    carried: list[str] = []
    for stage in _STAGE_ORDER:
        if recompute[stage]:
            findings.extend(fresh[stage]())
            recomputed.append(stage)
        else:
            if previous_by_stage[stage]:
                carried.append(stage)
            findings.extend(
                _with_carried_note(finding)
                for finding in previous_by_stage[stage]
            )
    return tuple(findings), tuple(recomputed), tuple(carried)
