"""Incremental re-evaluation after architecture evolution.

The paper's maintenance story (§5): when artifacts evolve, the
requirements↔architecture trace links "assist developers in locating other
artifacts that also need modifications." This module operationalizes that
into an evaluation-time saving: given a :class:`DependencyTracker` built
from the previous :class:`~repro.core.consistency.EvaluationReport`, only
scenarios whose verdicts *may* have changed are re-walked; every other
verdict is carried over unchanged.

After an evaluation, :meth:`DependencyTracker.from_report` records what
each scenario's verdict actually consumed:

* the mapping-resolution chain of every typed event (the type plus any
  supertypes consulted) — so a mapping-entry edit dirties exactly the
  scenarios that resolved through the edited type. Each entry is
  snapshotted with the top-level component every (possibly nested)
  component of it resolves to, then in the new pipeline's architecture,
  so moving a mapped subcomponent to another top-level component counts
  as an edit of the entries naming it, although the top-level structure
  is unchanged;
* the mapped components and the *witness paths* justifying every passing
  connectivity check (a failing intra-event chain's hops up to its
  break included), stored as element sets and consecutive-pair edge
  sets — so a removed link dirties a scenario only when the removed
  adjacency lies on one of its witness paths;
* whether the scenario is *addition-sensitive* — it has a failing step,
  or it is a negative scenario currently blocked. Only those verdicts
  can flip when structure is *added* (a new link/component/connector or
  an interface-direction change can create connectivity but never
  destroy it). A new link can still replace a recorded witness path
  with a shorter one, so additions also dirty the scenarios whose
  witness paths are connected to the new structure.

:meth:`DependencyTracker.dirty_scenarios` then computes the dirty set
from an :class:`~repro.adl.diff.ArchitectureDiff` in time proportional to
the diff and the per-scenario dependency sets; only an addition asks the
recorded architecture's warm index for the connected components it
touches. A diff ignores declaration order, which decides path
tie-breaks, so :func:`reevaluate` re-walks everything when the two
architectures declare their common elements in a different order. See
``docs/INCREMENTAL.md`` for the soundness argument.

:func:`reevaluate` takes the tracker and the new pipeline and runs
:meth:`Sosae.evaluate_with <repro.core.evaluator.Sosae.evaluate_with>`
with a carry-over walk executor (the previous verdict for a clean
scenario, a fresh walk for a dirty one) and the previous validation and
mapping-coverage findings reused when their inputs did not change. Its
report, telemetry and coverage matrix are those of a full evaluation of
the new pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from repro.adl.diff import ArchitectureDiff, diff_architectures
from repro.adl.index import CommunicationIndex, communication_index
from repro.adl.structure import Architecture
from repro.core.consistency import (
    EvaluationReport,
    InconsistencyKind,
    ScenarioVerdict,
)
from repro.core.evaluator import Sosae, evaluate_scenario
from repro.core.mapping import Mapping
from repro.core.walkthrough import WalkthroughOptions
from repro.obs.instruments import current_instruments
from repro.scenarioml.scenario import Scenario

__all__ = [
    "DependencyTracker",
    "IncrementalResult",
    "ScenarioDependencies",
    "reevaluate",
]

@dataclass(frozen=True)
class IncrementalResult:
    """The updated report plus bookkeeping about what was re-walked."""

    report: EvaluationReport
    rewalked: tuple[str, ...]
    carried_over: tuple[str, ...]
    #: Findings stages whose previous findings were reused because the
    #: diff cannot have touched their inputs; every other stage ran.
    reused_stages: tuple[str, ...] = ()

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


def _resolved_entries(
    mapping: Mapping, index: CommunicationIndex
) -> dict[str, tuple[tuple[str, Optional[str]], ...]]:
    """Each direct mapping entry as ``(component, top-level component)``
    pairs placed by ``index`` (``None`` where its architecture lacks the
    component): the walkthrough places an event on the top-level
    ancestors of its entry's components, so its meaning depends on both."""
    tops = index.top_levels()
    return {
        event_type: tuple(
            (component, tops.get(component)) for component in components
        )
        for event_type, components in mapping.entries.items()
    }


class DependencyTracker:
    """Per-scenario dependency edges recorded from one evaluation.

    Built from an :class:`~repro.core.consistency.EvaluationReport` in a
    single pass over its recorded walkthrough steps (plus one index path
    query per passing intra-event chain hop, answered from the warm
    per-architecture cache). The tracker keeps that ``report`` and the
    ``architecture`` it was evaluated against, which :func:`reevaluate`
    diffs the new pipeline's against. :meth:`dirty_scenarios` turns any
    :class:`~repro.adl.diff.ArchitectureDiff` — and optionally an edited
    mapping — into the exact set of scenarios whose verdicts may change,
    in time proportional to the diff.
    """

    def __init__(
        self,
        report: EvaluationReport,
        architecture: Architecture,
        scenarios: dict[str, ScenarioDependencies],
        mapping_entries: dict[str, tuple[tuple[str, str], ...]],
    ) -> None:
        self.report = report
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
        Neither may be mutated afterwards: re-evaluate against an edited
        copy.
        """
        options = options or WalkthroughOptions()
        index = index or communication_index(architecture)
        scenarios: dict[str, ScenarioDependencies] = {}
        with index.pinned():
            for verdict in report.scenario_verdicts:
                scenarios[verdict.scenario] = cls._dependencies_of(
                    verdict, index, mapping, options
                )
            entries = _resolved_entries(mapping, index)
        return cls(report, architecture, scenarios, entries)

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
                    and len(step.components) > 1
                ):
                    # The walkthrough checks intra-event chain hops with
                    # can_communicate (no path recorded) up to the first
                    # broken one; reconstruct the witnesses of those that
                    # held (a cut one moves the break) from the same index.
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
                        if path is None:
                            break
                        _absorb_path(path, witness_elements, witness_edges)
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

    def changed_event_types(
        self, mapping: Mapping, architecture: Architecture
    ) -> frozenset[str]:
        """Event types whose direct entry in ``mapping``, placed on
        ``architecture``, differs from the snapshot taken at tracker-build
        time: added, removed or re-targeted entries, and entries with a
        (nested) component that now has another top-level component."""
        new_entries = _resolved_entries(
            mapping, communication_index(architecture)
        )
        names = set(self._mapping_entries) | set(new_entries)
        return frozenset(
            name
            for name in names
            if self._mapping_entries.get(name) != new_entries.get(name)
        )

    def dirty_scenarios(
        self,
        diff: ArchitectureDiff,
        changed_types: frozenset[str] = frozenset(),
    ) -> frozenset[str]:
        """Scenarios whose verdicts may change under ``diff`` and under
        edits to the mapping entries of ``changed_types`` (see
        :meth:`changed_event_types`).

        A scenario is dirty when

        * a removed element is one of its mapped components or lies on a
          witness path;
        * a removed link's element pair is a witness-path adjacency;
        * the diff adds structure (components, connectors, links or
          interfaces) and the scenario is addition-sensitive;
        * one of its mapped components or witness elements is linked,
          in the recorded architecture, to an added link's endpoint or
          to an element whose interfaces changed: the new structure can
          sever a directed witness edge, or offer a shorter or
          earlier-found path than the recorded witness;
        * a consulted event type's mapping entry changed.

        Everything else provably keeps its verdict and its recorded
        witness paths: no removal cuts them, no new structure is
        reachable from them, its failing checks cannot be repaired
        without an addition, and its mapping resolutions are untouched.
        """
        removed_elements = set(diff.removed_components)
        removed_elements.update(diff.removed_connectors)
        removed_pairs = {
            _edge(first.split(".", 1)[0], second.split(".", 1)[0])
            for first, second in diff.removed_links
        }
        seeds = {
            change.element
            for change in diff.changed_elements
            if change.attribute == "interfaces"
        }
        for first, second in diff.added_links:
            seeds.update((first.split(".", 1)[0], second.split(".", 1)[0]))
        has_additions = bool(
            diff.added_components or diff.added_connectors or seeds
        )
        grown = self._linked_to(seeds)
        # One pass with no per-scenario set built: a test against an
        # empty key set returns at once.
        elements = removed_elements | grown
        return frozenset(
            name
            for name, deps in self._scenarios.items()
            if (has_additions and deps.addition_sensitive)
            or not elements.isdisjoint(deps.witness_elements)
            or not elements.isdisjoint(deps.components)
            or not removed_pairs.isdisjoint(deps.witness_edges)
            or not changed_types.isdisjoint(deps.event_types)
        )

    def _linked_to(self, seeds: set[str]) -> set[str]:
        """The seeds present in the recorded architecture and every
        element linked to one of them: any path that new structure at
        the seeds opens starts from one of these elements."""
        index = communication_index(self.architecture)
        region: set[str] = set()
        for seed in seeds:
            if seed not in region and self.architecture.has_element(seed):
                region.add(seed)
                region |= index.reachable(seed)
        return region


# ----------------------------------------------------------------------
# Re-evaluation
# ----------------------------------------------------------------------


def _reordered(old: Architecture, new: Architecture) -> bool:
    """Whether components, connectors or links present in both versions
    are declared in a different relative order. A diff ignores order,
    but path search breaks ties, and coverage lists components, in
    declaration order."""
    for old_keys, new_keys in zip(_declarations(old), _declarations(new)):
        common = set(old_keys) & set(new_keys)
        if [key for key in old_keys if key in common] != [
            key for key in new_keys if key in common
        ]:
            return True
    return False


def _declarations(architecture: Architecture) -> tuple[list, list, list]:
    return (
        [component.name for component in architecture.components],
        [connector.name for connector in architecture.connectors],
        [
            tuple(sorted(str(endpoint) for endpoint in link.endpoints))
            for link in architecture.links
        ],
    )


def reevaluate(tracker: DependencyTracker, sosae: Sosae) -> IncrementalResult:
    """Evaluate ``sosae`` — the pipeline after an edit — re-walking only
    the scenarios ``tracker`` finds dirty.

    The dirty set comes from the structural diff of ``tracker.
    architecture`` against ``sosae.architecture`` and from the mapping
    entries whose resolution changed; when the two architectures
    declare their common elements in a different order, every scenario
    is dirty. ``sosae`` must keep the scenarios and walkthrough options
    the tracker's report was evaluated with; scenarios it adds are
    walked.

    The report comes from the evaluation pipeline itself, so it equals
    ``sosae.evaluate()``: clean scenarios carry their previous verdicts,
    dirty and new ones are walked. Validation findings are reused unless
    the scenario names or their order changed, and mapping-coverage
    findings unless the scenarios, the mapping entries (or their
    resolution), the component population or the declaration order
    changed; style and constraint findings are always recomputed.
    """
    recorder = current_instruments().recorder
    previous = tracker.report
    diff = diff_architectures(tracker.architecture, sosae.architecture)
    reordered = _reordered(tracker.architecture, sosae.architecture)
    changed_types = tracker.changed_event_types(
        sosae.mapping, sosae.architecture
    )
    impacted = (
        frozenset(tracker.scenario_names)
        if reordered
        else tracker.dirty_scenarios(diff, changed_types)
    )
    carried = {
        verdict.scenario: verdict
        for verdict in previous.scenario_verdicts
        if verdict.scenario not in impacted
    }
    names = [scenario.name for scenario in sosae.scenario_set]
    rewalked = tuple(name for name in names if name not in carried)
    carried_over = tuple(name for name in names if name in carried)
    # Findings follow scenario order, so a reordered set counts too.
    scenarios_changed = names != [
        verdict.scenario for verdict in previous.scenario_verdicts
    ]
    reuse = {
        "validation": not scenarios_changed,
        "coverage": not (
            scenarios_changed
            or reordered
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
        pipeline: Sosae, scenarios: tuple[Scenario, ...]
    ) -> Iterator[ScenarioVerdict]:
        # `evaluate_with` holds an engine session: one fingerprint check
        # and one step table cover every re-walk.
        for scenario in scenarios:
            verdict = carried.get(scenario.name)
            yield (
                verdict
                if verdict is not None
                else evaluate_scenario(
                    pipeline.engine, scenario, pipeline.scenario_set
                )
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
    )


_STAGE_OF_KIND = {
    InconsistencyKind.VALIDATION_ERROR: "validation",
    InconsistencyKind.UNMAPPED_EVENT: "coverage",
    InconsistencyKind.UNMAPPED_COMPONENT: "coverage",
}
