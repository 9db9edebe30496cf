"""E18 (ablation) — static walkthrough vs dynamic execution.

The paper positions the two evaluation modes as complementary: static
walkthroughs are cheap and catch structural inconsistencies; "static
walkthroughs have limited effectiveness for evaluating satisfaction of
quality attributes", which need run-time execution (§4.2). This benchmark
quantifies the trade-off on CRASH's quality scenarios: the static pass is
an order of magnitude cheaper, but only the dynamic pass distinguishes the
availability variants (E9) — price and power, side by side.
"""

from __future__ import annotations

from _timing import timed

from repro.core.dynamic import DynamicEvaluator
from repro.core.walkthrough import WalkthroughEngine
from repro.sim.network import ChannelPolicy
from repro.sim.runtime import RuntimeConfig
from repro.systems.crash import ENTITY_AVAILABILITY, build_crash


def run_comparison():
    crash = build_crash()
    quality = [
        scenario
        for scenario in crash.scenarios.quality_scenarios()
        if not scenario.is_negative
    ]

    with timed() as static_timing:
        engine = WalkthroughEngine(
            crash.architecture, crash.mapping, crash.options
        )
        static_verdicts = {
            scenario.name: engine.walk_scenario(
                scenario, crash.scenarios
            ).passed
            for scenario in quality
        }

    with timed() as dynamic_timing:
        dynamic_verdicts = {}
        for detection in (True, False):
            evaluator = DynamicEvaluator(
                crash.architecture,
                crash.bindings,
                config=RuntimeConfig(
                    policy=ChannelPolicy(
                        latency=1.0, failure_detection=detection
                    )
                ),
            )
            for scenario in quality:
                verdict = evaluator.evaluate(scenario, crash.scenarios)
                dynamic_verdicts[(scenario.name, detection)] = verdict.passed

    return (
        static_verdicts,
        static_timing.seconds,
        dynamic_verdicts,
        dynamic_timing.seconds,
    )


def test_bench_static_vs_dynamic(benchmark):
    static_verdicts, static_seconds, dynamic_verdicts, dynamic_seconds = (
        benchmark(run_comparison)
    )

    # Static: both quality scenarios look fine structurally.
    assert all(static_verdicts.values())

    # Dynamic: availability passes only with the detection mechanism.
    assert dynamic_verdicts[(ENTITY_AVAILABILITY, True)]
    assert not dynamic_verdicts[(ENTITY_AVAILABILITY, False)]

    # Static evaluation is substantially cheaper per scenario.
    static_per = static_seconds / max(len(static_verdicts), 1)
    dynamic_per = dynamic_seconds / max(len(dynamic_verdicts), 1)

    print()
    print("=== E18: static walkthrough vs dynamic execution (CRASH QA) ===")
    print(
        f"static:  {len(static_verdicts)} walkthroughs in "
        f"{static_seconds * 1000:.1f} ms ({static_per * 1000:.2f} ms each) — "
        "cannot distinguish availability variants"
    )
    print(
        f"dynamic: {len(dynamic_verdicts)} executions in "
        f"{dynamic_seconds * 1000:.1f} ms ({dynamic_per * 1000:.2f} ms each) — "
        "distinguishes them"
    )
    print(
        f"cost ratio (dynamic/static per scenario): "
        f"{dynamic_per / static_per:.1f}x"
    )
