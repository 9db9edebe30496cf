"""E15 — scalability of the automatic walkthrough.

The paper motivates tool support: "With the tool, we will be able to
automatically check all the considered scenarios, which will lead to
better results" (§7), and notes that "the number of possible scenarios can
be very large for even small systems" (§5). This benchmark measures
walkthrough throughput as the scenario count and the architecture size
grow, confirming near-linear scaling in both dimensions.
"""

from __future__ import annotations

import pytest

from _timing import timed

from repro.core.walkthrough import WalkthroughEngine
from repro.systems.generators import SyntheticSpec, build_synthetic

SCENARIO_COUNTS = (25, 50, 100, 200)
COMPONENT_COUNTS = (5, 10, 20, 40)


def walk_system(system) -> int:
    engine = WalkthroughEngine(system.architecture, system.mapping)
    verdicts = engine.walk_all(system.scenarios)
    assert all(verdict.passed for verdict in verdicts)
    return len(verdicts)


@pytest.mark.parametrize("scenario_count", SCENARIO_COUNTS)
def test_bench_scalability_scenarios(benchmark, scenario_count):
    system = build_synthetic(
        SyntheticSpec(
            event_types=40,
            components=15,
            scenarios=scenario_count,
            events_per_scenario=8,
            reuse=1.0,
            seed=3,
        )
    )
    walked = benchmark(walk_system, system)
    assert walked == scenario_count


@pytest.mark.parametrize("component_count", COMPONENT_COUNTS)
def test_bench_scalability_components(benchmark, component_count):
    system = build_synthetic(
        SyntheticSpec(
            event_types=40,
            components=component_count,
            scenarios=50,
            events_per_scenario=8,
            reuse=1.0,
            seed=4,
        )
    )
    walked = benchmark(walk_system, system)
    assert walked == 50


def test_bench_scalability_trend_is_subquadratic(benchmark):
    """Wall-clock sanity check printed as the series the figure would show:
    doubling the scenario count should roughly double the time, not
    quadruple it."""

    def measure() -> list[tuple[int, float]]:
        series = []
        for scenario_count in SCENARIO_COUNTS:
            system = build_synthetic(
                SyntheticSpec(
                    event_types=40,
                    components=15,
                    scenarios=scenario_count,
                    events_per_scenario=8,
                    seed=5,
                )
            )
            with timed() as timing:
                walk_system(system)
            series.append((scenario_count, timing.seconds))
        return series

    series = benchmark.pedantic(measure, rounds=1, iterations=1)
    (smallest_n, smallest_t) = series[0]
    (largest_n, largest_t) = series[-1]
    growth = largest_t / smallest_t if smallest_t else 1.0
    size_ratio = largest_n / smallest_n
    # Allow generous slack, but rule out quadratic blow-up.
    assert growth < size_ratio ** 2

    print()
    print("=== E15: walkthrough scalability ===")
    print(f"{'scenarios':>10} {'seconds':>10} {'scen/s':>10}")
    for count, seconds in series:
        print(f"{count:>10} {seconds:>10.4f} {count / seconds:>10.0f}")
    print(
        f"time grew {growth:.1f}x for {size_ratio:.0f}x more scenarios "
        f"(quadratic would be {size_ratio ** 2:.0f}x)"
    )
