"""The one slot instrumented code reads its observation channels from.

An evaluation is observed through four channels: the span/metrics
:class:`~repro.obs.recorder.Recorder`, the live
:class:`~repro.obs.events.EventBus`, the
:class:`~repro.obs.coverage.CoverageBuilder` and the
:class:`~repro.obs.profiler.SamplingProfiler`. Each has a null object
whose every operation is a no-op, and a frozen :class:`Instruments`
bundle holds one of each. Instrumented code reads the bundle once
(:func:`current_instruments`) and checks ``.enabled`` on the channels
it reports to; while nothing is installed every channel is its null
object, so the disabled path costs one call and an attribute check.

Turning channels on is scoping a bundle that replaces only the
channels named::

    recorder = Recorder()
    with instrumented(recorder=recorder, events=EventBus()):
        sosae.evaluate()

The slot is one module global, not a ``ContextVar``. Every install
happens in the thread that evaluates, and the serve loop and the job
executors serialize evaluations on one ``eval_lock`` around their
installs, so no caller needs a per-thread or per-task view; a
``ContextVar`` would change which threads see an install.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Iterator, Union

from repro.obs.coverage import NULL_COVERAGE, CoverageBuilder, NullCoverage
from repro.obs.events import NULL_EVENT_BUS, EventBus, NullEventBus
from repro.obs.profiler import NULL_PROFILER, NullProfiler, SamplingProfiler
from repro.obs.recorder import NULL_RECORDER, NullRecorder, Recorder

__all__ = [
    "Instruments",
    "current_instruments",
    "instrumented",
    "use",
    "use_coverage",
    "use_events",
]


@dataclass(frozen=True)
class Instruments:
    """One recorder, event bus, coverage builder and profiler."""

    recorder: Union[NullRecorder, Recorder] = NULL_RECORDER
    events: Union[NullEventBus, EventBus] = NULL_EVENT_BUS
    coverage: Union[NullCoverage, CoverageBuilder] = NULL_COVERAGE
    profiler: Union[NullProfiler, SamplingProfiler] = NULL_PROFILER


_current = Instruments()


def current_instruments() -> Instruments:
    """The bundle instrumented code should report to right now."""
    return _current


@contextmanager
def instrumented(**channels) -> Iterator[Instruments]:
    """Install the named channels (``recorder``, ``events``,
    ``coverage``, ``profiler``) over the current bundle for the
    ``with`` block; the previous bundle comes back on exit, also when
    the block raises."""
    global _current
    previous = _current
    _current = replace(previous, **channels)
    try:
        yield _current
    finally:
        _current = previous


@contextmanager
def use(recorder: Union[NullRecorder, Recorder]) -> Iterator[
    Union[NullRecorder, Recorder]
]:
    """Install a recorder for the ``with`` block."""
    with instrumented(recorder=recorder):
        yield recorder


@contextmanager
def use_events(
    bus: Union[NullEventBus, EventBus],
) -> Iterator[Union[NullEventBus, EventBus]]:
    """Install an event bus for the ``with`` block."""
    with instrumented(events=bus):
        yield bus


@contextmanager
def use_coverage(
    builder: Union[NullCoverage, CoverageBuilder],
) -> Iterator[Union[NullCoverage, CoverageBuilder]]:
    """Install a coverage builder for the ``with`` block."""
    with instrumented(coverage=builder):
        yield builder
