"""Scenario prioritization for evaluation budgeting.

The paper leaves ranking open: "Our approach does not propose a method
for ranking scenarios by importance, so that limited evaluation time can
be focused on the most important ones" (§3.2), and notes that "the number
of possible scenarios can be very large for even small systems" (§5).
This module fills the gap with a transparent, additive scoring model
derived from artifacts the approach already has:

* **criticality** — scenarios touching articulation components (single
  points of failure in the communication graph) matter more;
* **breadth** — scenarios exercising more distinct components cover more
  of the architecture per unit of evaluation effort;
* **quality weight** — scenarios operationalizing dependability
  attributes (availability, reliability, security, safety) outrank purely
  functional ones; negative scenarios gain the same weight;
* **representativeness** — scenarios using widely-reused event types
  stand in for many others (evaluating them validates shared mappings).

Each factor is normalized to [0, 1]; the total is a weighted sum. The
weights are explicit and adjustable (:class:`RankingWeights`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.adl.graph import articulation_components
from repro.adl.index import communication_index
from repro.core.mapping import Mapping
from repro.scenarioml.query import event_type_usage
from repro.scenarioml.scenario import QualityAttribute, Scenario, ScenarioSet

_DEPENDABILITY = frozenset(
    {
        QualityAttribute.AVAILABILITY,
        QualityAttribute.RELIABILITY,
        QualityAttribute.SECURITY,
        QualityAttribute.SAFETY,
        QualityAttribute.FAULT_TOLERANCE,
    }
)


@dataclass(frozen=True)
class RankingWeights:
    """Relative importance of the four ranking factors."""

    criticality: float = 0.35
    breadth: float = 0.25
    quality: float = 0.25
    representativeness: float = 0.15

    def total(self) -> float:
        return (
            self.criticality
            + self.breadth
            + self.quality
            + self.representativeness
        )


@dataclass(frozen=True)
class ScenarioScore:
    """A scenario's ranking with its factor breakdown."""

    scenario: str
    score: float
    criticality: float
    breadth: float
    quality: float
    representativeness: float

    def __str__(self) -> str:
        return (
            f"{self.scenario}: {self.score:.3f} "
            f"(crit={self.criticality:.2f}, breadth={self.breadth:.2f}, "
            f"quality={self.quality:.2f}, repr={self.representativeness:.2f})"
        )


def rank_scenarios(
    scenario_set: ScenarioSet,
    mapping: Mapping,
    weights: RankingWeights | None = None,
) -> tuple[ScenarioScore, ...]:
    """Score every scenario; highest first (ties broken by name).

    All factors derive from the scenario set, the mapping, and the
    architecture the mapping targets — no extra stakeholder input is
    required, though the weights encode the evaluator's priorities.
    """
    weights = weights or RankingWeights()
    architecture = mapping.architecture
    critical = articulation_components(architecture)
    tops = communication_index(architecture).top_levels()
    usage = event_type_usage(scenario_set.scenarios)
    max_usage = max(usage.values(), default=1)
    component_count = max(len(architecture.components), 1)

    scores = []
    for scenario in scenario_set:
        components = _components_touched(scenario, mapping, tops)
        criticality = (
            len(components & critical) / len(critical) if critical else 0.0
        )
        breadth = len(components) / component_count
        quality = _quality_factor(scenario)
        representativeness = _representativeness(scenario, usage, max_usage)
        score = (
            weights.criticality * criticality
            + weights.breadth * breadth
            + weights.quality * quality
            + weights.representativeness * representativeness
        ) / (weights.total() or 1.0)
        scores.append(
            ScenarioScore(
                scenario=scenario.name,
                score=score,
                criticality=criticality,
                breadth=breadth,
                quality=quality,
                representativeness=representativeness,
            )
        )
    return tuple(
        sorted(scores, key=lambda s: (-s.score, s.scenario))
    )


def top_scenarios(
    scenario_set: ScenarioSet,
    mapping: Mapping,
    count: int,
    weights: RankingWeights | None = None,
) -> tuple[str, ...]:
    """Names of the ``count`` highest-ranked scenarios."""
    ranked = rank_scenarios(scenario_set, mapping, weights)
    return tuple(score.scenario for score in ranked[:count])


def _components_touched(
    scenario: Scenario, mapping: Mapping, tops: dict[str, str]
) -> frozenset[str]:
    touched = set()
    for event_type_name in scenario.event_type_names():
        for component in mapping.components_for(event_type_name):
            touched.add(tops[component])
    return frozenset(touched)


def _quality_factor(scenario: Scenario) -> float:
    if scenario.is_negative:
        return 1.0
    if any(
        attribute in _DEPENDABILITY
        for attribute in scenario.quality_attributes
    ):
        return 1.0
    if scenario.quality_attributes:
        return 0.5
    return 0.0


def _representativeness(
    scenario: Scenario, usage, max_usage: int
) -> float:
    names = scenario.event_type_names()
    if not names:
        return 0.0
    average = sum(usage.get(name, 0) for name in names) / len(names)
    return average / max_usage
