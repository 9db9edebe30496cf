"""E16 (ablation) — incremental vs full re-evaluation after evolution.

The paper's maintenance argument (§5): traceability links localize what
must be revisited when artifacts evolve. This benchmark quantifies the
payoff: after the Fig. 4 excision, a :class:`DependencyTracker` built
from the previous report re-walks only the scenarios with a walk
question (an event type's resolution, a move between component groups,
an event's chain) that the excised architecture answers differently,
reproducing the full pipeline's verdicts while skipping almost all of
the work.

Both sides measure the *same* unit of work — producing a complete
post-evolution report (stage findings, constraints, and all) for a
freshly cloned excised architecture with cold index caches. The tracker
is built outside the timed region: it is recorded once per evaluation,
off the re-evaluation hot path. Each side is timed as the best of
:data:`REPETITIONS` cold repetitions (fresh clones every time):
scheduler noise on a few-millisecond measurement is additive and
positive, so the minimum estimates the true cost.

The suite is the PIMS scenario set replicated to realistic size
(:data:`SUITE_REPLICAS` copies of each top-level scenario): at the
seed's 16 scenarios, fixed per-run costs (one cold graph build) mask
the asymptotic behavior the tracker is for — a dirty set computed from
the distinct questions, not from every scenario's walk. The replicas walk
identically to their originals, so verdict parity at scale subsumes
parity on the plain set.
"""

from __future__ import annotations

import dataclasses

from _timing import timed

from repro.core.evaluator import Sosae
from repro.core.incremental import DependencyTracker, reevaluate
from repro.core.report_io import report_to_json
from repro.scenarioml.scenario import ScenarioSet
from repro.systems.pims import GET_SHARE_PRICES, build_pims

#: Copies of each top-level PIMS scenario in the benchmark suite.
SUITE_REPLICAS = 60

#: Cold repetitions per side; the minimum is asserted on.
REPETITIONS = 3

#: The minimum incremental-over-full speedup this benchmark asserts.
MIN_SPEEDUP = 10.0


def replicated_scenarios(pims, copies: int) -> ScenarioSet:
    """The PIMS scenario set plus ``copies - 1`` renamed replicas of
    every top-level scenario (alternatives stay attached to their
    originals only — a replica must not widen its original's traces)."""
    scaled = ScenarioSet(pims.ontology, name=f"pims-x{copies}")
    for scenario in pims.scenarios:
        scaled.add(scenario)
    for index in range(1, copies):
        for scenario in pims.scenarios:
            if scenario.alternative_of is not None:
                continue
            scaled.add(
                dataclasses.replace(scenario, name=f"{scenario.name}+r{index}")
            )
    return scaled


def run_incremental():
    pims = build_pims()
    scenarios = replicated_scenarios(pims, SUITE_REPLICAS)
    previous = Sosae(
        scenarios,
        pims.architecture,
        pims.mapping,
        constraints=pims.constraints,
        walkthrough_options=pims.options,
    ).evaluate()
    tracker = DependencyTracker.from_report(
        previous, pims.architecture, pims.mapping, pims.options
    )
    incremental = full = None
    incremental_seconds = full_seconds = float("inf")
    for _ in range(REPETITIONS):
        # Two separate clones so both sides start from cold index caches.
        evolved_incremental = pims.excised_architecture()
        evolved_full = pims.excised_architecture()

        with timed() as incremental_timing:
            incremental = reevaluate(
                tracker,
                Sosae(
                    scenarios,
                    evolved_incremental,
                    pims.mapping.rebind(evolved_incremental),
                    constraints=pims.constraints,
                    walkthrough_options=pims.options,
                ),
            )
        incremental_seconds = min(
            incremental_seconds, incremental_timing.seconds
        )

        with timed() as full_timing:
            full = Sosae(
                scenarios,
                evolved_full,
                pims.mapping,
                constraints=pims.constraints,
                walkthrough_options=pims.options,
            ).evaluate()
        full_seconds = min(full_seconds, full_timing.seconds)

    return scenarios, incremental, incremental_seconds, full, full_seconds


def test_bench_incremental_reevaluation(benchmark):
    scenarios, incremental, incremental_seconds, full, full_seconds = benchmark(
        run_incremental
    )

    # Verdict parity with the from-scratch pipeline.
    incremental_verdicts = {
        verdict.scenario: (verdict.passed, verdict.blocked)
        for verdict in incremental.report.scenario_verdicts
    }
    full_verdicts = {
        verdict.scenario: (verdict.passed, verdict.blocked)
        for verdict in full.scenario_verdicts
    }
    assert incremental_verdicts == full_verdicts
    assert incremental.report.consistent == full.consistent
    assert not incremental.report.consistent

    # Report parity: the incremental report is the full pipeline's,
    # byte for byte.
    assert report_to_json(incremental.report) == report_to_json(full)

    # The excision changes answers of get-share-prices and its replicas
    # only: those are the scenarios re-walked.
    assert GET_SHARE_PRICES in incremental.rewalked
    assert all(
        name.startswith(GET_SHARE_PRICES) for name in incremental.rewalked
    )
    assert incremental.savings >= 0.9

    speedup = full_seconds / incremental_seconds if incremental_seconds else 0.0
    print()
    print("=== E16: incremental vs full re-evaluation (PIMS excision) ===")
    print(
        f"re-walked {len(incremental.rewalked)}/{len(scenarios.scenarios)} "
        f"scenarios ({incremental.savings:.0%} carried over)"
    )
    print(
        f"incremental: {incremental_seconds * 1000:.2f} ms, "
        f"full: {full_seconds * 1000:.2f} ms, speedup: {speedup:.1f}x "
        "(both sides: complete report, cold caches)"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"incremental re-evaluation is only {speedup:.1f}x faster than the "
        f"full pipeline (required: {MIN_SPEEDUP}x)"
    )
