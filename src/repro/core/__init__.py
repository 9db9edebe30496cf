"""The paper's contribution: ontology-mediated architecture evaluation.

The four steps of the approach (paper §3) map onto this package:

1. scenarios in ScenarioML — :mod:`repro.scenarioml`;
2. architecture in an ADL — :mod:`repro.adl`;
3. mapping ontology event types to components — :mod:`repro.core.mapping`
   (and the finer-grained :mod:`repro.core.entity_mapping`);
4. walkthroughs of the scenarios in the architecture —
   :mod:`repro.core.walkthrough` (static),
   :mod:`repro.core.dynamic` (simulated execution),
   :mod:`repro.core.negative` (negative scenarios), and
   :mod:`repro.core.constraints` (requirement-imposed communication
   constraints) — with results gathered by :mod:`repro.core.evaluator`
   (the SOSAE facade) into an :class:`~repro.core.consistency.EvaluationReport`.

Public API::

    from repro.core import (
        Mapping, MappingTable, EntityMapping,
        WalkthroughEngine, WalkthroughOptions,
        Inconsistency, InconsistencyKind, ScenarioVerdict, EvaluationReport,
        MustRouteVia, MustNotCommunicate, RequiresPath, ForbidsDirectLink,
        evaluate_negative_scenario,
        DynamicEvaluator, ScenarioBindings, DynamicVerdict,
        TraceabilityMatrix, Sosae,
    )
"""

from repro.core.consistency import (
    EvaluationReport,
    Inconsistency,
    InconsistencyKind,
    ScenarioVerdict,
    Severity,
    WalkthroughStep,
)
from repro.core.mapping import Mapping, MappingTable
from repro.core.entity_mapping import EntityMapping
from repro.core.walkthrough import WalkthroughEngine, WalkthroughOptions
from repro.core.constraints import (
    Constraint,
    ForbidsDirectLink,
    MustNotCommunicate,
    MustRouteVia,
    RequiresPath,
)
from repro.core.negative import evaluate_negative_scenario
from repro.core.dynamic import (
    DynamicContext,
    DynamicEvaluator,
    DynamicVerdict,
    Expectation,
    ScenarioBindings,
)
from repro.core.traceability import TraceabilityMatrix
from repro.core.evaluator import Sosae
from repro.core.report import render_report
from repro.core.ranking import (
    RankingWeights,
    ScenarioScore,
    rank_scenarios,
    top_scenarios,
)
from repro.core.behavior_check import (
    BehaviorCheckOptions,
    check_behavioral_support,
)
from repro.core.incremental import (
    DependencyTracker,
    IncrementalResult,
    reevaluate,
)
from repro.core.implied import (
    ImpliedScenario,
    ImpliedScenarioReport,
    detect_implied_scenarios,
)
from repro.core.report_io import (
    ReportComparison,
    compare_reports,
    report_from_json,
    report_to_json,
)

__all__ = [
    "BehaviorCheckOptions",
    "Constraint",
    "DependencyTracker",
    "ImpliedScenario",
    "ImpliedScenarioReport",
    "IncrementalResult",
    "RankingWeights",
    "ReportComparison",
    "ScenarioScore",
    "DynamicContext",
    "DynamicEvaluator",
    "DynamicVerdict",
    "EntityMapping",
    "EvaluationReport",
    "Expectation",
    "ForbidsDirectLink",
    "Inconsistency",
    "InconsistencyKind",
    "Mapping",
    "MappingTable",
    "MustNotCommunicate",
    "MustRouteVia",
    "RequiresPath",
    "ScenarioBindings",
    "ScenarioVerdict",
    "Severity",
    "Sosae",
    "TraceabilityMatrix",
    "WalkthroughEngine",
    "WalkthroughOptions",
    "WalkthroughStep",
    "check_behavioral_support",
    "compare_reports",
    "detect_implied_scenarios",
    "evaluate_negative_scenario",
    "rank_scenarios",
    "reevaluate",
    "render_report",
    "report_from_json",
    "report_to_json",
    "top_scenarios",
]
