"""Sampling-profiler overhead guard for the walkthrough hot path.

Two properties the ISSUE's acceptance bar names directly:

1. With the profiler *off* (the default), the profiled path does
   structurally zero work — ``current_instruments().profiler`` is the
   ``NULL_PROFILER`` singleton and no ``sosae-profiler`` sampler thread
   exists, so there is nothing to measure, only structure to assert.
2. With the profiler *on* at the default rate, the sampler thread's
   wall-clock tax on a warm walkthrough stays under 5%. The sampler
   reads ``sys._current_frames()`` from a separate thread, so the
   profiled thread pays only for GIL contention during each snapshot —
   at 97 Hz that is ~97 brief pauses per second.

The workload matches benchmarks/test_bench_comm_index.py so "warm path"
means the same thing across the harness.
"""

from __future__ import annotations

import threading
import time

from repro.core.walkthrough import WalkthroughEngine
from repro.obs.instruments import current_instruments, instrumented
from repro.obs.profiler import (
    DEFAULT_PROFILE_HZ,
    NULL_PROFILER,
    SamplingProfiler,
)
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

MAX_OVERHEAD_FRACTION = 0.05
# Paired rounds: each round times one un-profiled and one profiled walk
# back to back, so machine-load drift (which moves both sides together)
# cancels out of the comparison. The per-side medians then estimate the
# sampler's true tax rather than whatever else the box was doing.
ROUNDS = 20


def _sampler_threads() -> list[str]:
    return [
        thread.name
        for thread in threading.enumerate()
        if thread.name == "sosae-profiler"
    ]


def _walk_seconds(system) -> float:
    """One walk of every scenario by a new engine. An engine keeps its
    verdicts and replays them on the next walk, so a reused one would
    time a replay; every engine shares the architecture's warm index."""
    engine = WalkthroughEngine(system.architecture, system.mapping)
    start = time.perf_counter()
    engine.walk_all(system.scenarios)
    return time.perf_counter() - start


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def test_bench_profiler_disabled_path_is_structurally_zero():
    system = build_synthetic(SPEC)
    engine = WalkthroughEngine(system.architecture, system.mapping)
    assert current_instruments().profiler is NULL_PROFILER
    assert _sampler_threads() == []
    engine.walk_all(system.scenarios)
    # The walkthrough itself never consults the profiler: with nothing
    # installed there is no sampler thread to pay for, before or after.
    assert current_instruments().profiler is NULL_PROFILER
    assert _sampler_threads() == []


def test_bench_profiler_overhead(benchmark):
    system = build_synthetic(SPEC)
    _walk_seconds(system)  # warm every index cache

    def measure():
        baselines: list[float] = []
        profileds: list[float] = []
        profiles = []
        for _ in range(ROUNDS):
            baselines.append(_walk_seconds(system))
            profiler = SamplingProfiler(hz=DEFAULT_PROFILE_HZ).start()
            try:
                with instrumented(profiler=profiler):
                    profileds.append(_walk_seconds(system))
            finally:
                profiles.append(profiler.stop())
        merged = profiles[0]
        for profile in profiles[1:]:
            merged = merged.merge(profile)
        return _median(baselines), _median(profileds), merged

    baseline, profiled, profile = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    fraction = max(0.0, profiled - baseline) / baseline

    print()
    print("=== sampling-profiler overhead on the warm walkthrough ===")
    print(
        f"median walk over {ROUNDS} paired rounds — "
        f"baseline: {baseline * 1e3:.2f} ms  "
        f"profiled@{DEFAULT_PROFILE_HZ:g}Hz: {profiled * 1e3:.2f} ms  "
        f"overhead: {fraction:.2%}  samples: {profile.samples}"
    )

    assert _sampler_threads() == []
    assert fraction < MAX_OVERHEAD_FRACTION, (
        f"sampling at {DEFAULT_PROFILE_HZ:g} Hz costs {fraction:.2%} of "
        f"the warm walkthrough (allowed {MAX_OVERHEAD_FRACTION:.0%})"
    )
    # The sampler must have fired during the measurement, or the
    # overhead number is measuring nothing.
    assert profile.samples > 0
    # Capture fidelity is asserted separately at a high rate: at 97 Hz a
    # ~10 ms walk yields at most one sample, which can land in the
    # profiler's own start/stop bookkeeping instead of the workload.
    with SamplingProfiler(hz=5000.0) as profiler:
        for _ in range(10):
            _walk_seconds(system)
    captured = profiler.profile()
    flat = ";".join(frame for stack in captured.counts for frame in stack)
    assert "walkthrough" in flat
