"""Communication-index speedup on the walkthrough hot path.

Every connectivity question of the static walkthrough historically rebuilt
the NetworkX link graph from scratch, making suite evaluation quadratic in
graph-construction cost. This benchmark evaluates one generated
100-scenario suite three ways:

* **baseline** — an engine wired to ``CommunicationIndex(memoize=False)``,
  which rebuilds a fresh graph per query (the historical cost profile);
* **cold** — a freshly constructed memoized index (first evaluation pays
  graph construction plus cache fills);
* **warm** — the same memoized index evaluated again (every query answered
  from cache).

All three must produce identical verdicts, findings, and step paths; the
warm evaluation must be at least 5x faster than the baseline.
"""

from __future__ import annotations

from _timing import timed

from repro.adl.index import CommunicationIndex
from repro.core.walkthrough import WalkthroughEngine
from repro.systems.generators import SyntheticSpec, build_synthetic

SPEC = SyntheticSpec(
    event_types=60,
    components=120,
    scenarios=100,
    events_per_scenario=10,
    reuse=1.0,
    components_per_event_type=3,
    seed=11,
)

REQUIRED_SPEEDUP = 5.0


def evaluate(system, index) -> tuple:
    engine = WalkthroughEngine(
        system.architecture, system.mapping, index=index
    )
    return engine.walk_all(system.scenarios)


def test_bench_comm_index_warm_vs_fresh(benchmark):
    system = build_synthetic(SPEC)

    def measure():
        with timed() as baseline:
            baseline_verdicts = evaluate(
                system, CommunicationIndex(system.architecture, memoize=False)
            )

        index = CommunicationIndex(system.architecture)
        with timed() as cold:
            cold_verdicts = evaluate(system, index)

        with timed() as warm:
            warm_verdicts = evaluate(system, index)

        return (
            baseline_verdicts,
            cold_verdicts,
            warm_verdicts,
            baseline.seconds,
            cold.seconds,
            warm.seconds,
        )

    (
        baseline_verdicts,
        cold_verdicts,
        warm_verdicts,
        baseline_seconds,
        cold_seconds,
        warm_seconds,
    ) = benchmark.pedantic(measure, rounds=1, iterations=1)

    # Identical reports: verdicts, findings, and step paths all compare
    # through the frozen dataclasses' structural equality.
    assert baseline_verdicts == cold_verdicts == warm_verdicts
    assert all(verdict.passed for verdict in warm_verdicts)
    assert len(warm_verdicts) == SPEC.scenarios

    speedup_warm = baseline_seconds / warm_seconds
    speedup_cold = baseline_seconds / cold_seconds

    print()
    print("=== communication index: fresh-graph baseline vs memoized ===")
    print(
        f"{'mode':>10} {'seconds':>10} {'scen/s':>10} {'speedup':>10}"
    )
    for mode, seconds in (
        ("baseline", baseline_seconds),
        ("cold", cold_seconds),
        ("warm", warm_seconds),
    ):
        print(
            f"{mode:>10} {seconds:>10.4f} "
            f"{SPEC.scenarios / seconds:>10.0f} "
            f"{baseline_seconds / seconds:>9.1f}x"
        )
    print(
        f"warm index is {speedup_warm:.1f}x faster than rebuilding the "
        f"graph per query (cold: {speedup_cold:.1f}x)"
    )

    assert speedup_warm >= REQUIRED_SPEEDUP, (
        f"warm-index evaluation only {speedup_warm:.1f}x faster than the "
        f"fresh-graph baseline (required {REQUIRED_SPEEDUP:.0f}x)"
    )


def test_bench_comm_index_shared_across_engines(benchmark):
    """Engines over the same architecture share the module-level index, so
    a second engine starts warm without explicit plumbing."""
    system = build_synthetic(SPEC)

    def measure():
        first = WalkthroughEngine(system.architecture, system.mapping)
        with timed() as one:
            first_verdicts = first.walk_all(system.scenarios)

        second = WalkthroughEngine(system.architecture, system.mapping)
        assert second.index is first.index
        with timed() as two:
            second_verdicts = second.walk_all(system.scenarios)
        return first_verdicts, second_verdicts, one.seconds, two.seconds

    first_verdicts, second_verdicts, first_seconds, second_seconds = (
        benchmark.pedantic(measure, rounds=1, iterations=1)
    )
    assert first_verdicts == second_verdicts
    print()
    print(
        f"second engine over the same architecture: "
        f"{first_seconds / second_seconds:.1f}x faster "
        f"({first_seconds:.4f}s -> {second_seconds:.4f}s)"
    )
