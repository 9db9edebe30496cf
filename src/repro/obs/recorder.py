"""The current-recorder indirection instrumented code talks to.

Instrumentation sites never hold a recorder; they fetch the module-level
current recorder (:func:`current_recorder`) and call ``span`` /
``counter`` / ``histogram`` on whatever they get. By default that is the
:data:`NULL_RECORDER`, whose every operation is a constant-time no-op on
shared singletons — no allocation, no timing calls — so instrumented
code costs nearly nothing while observability is off (the benchmark
harness's ``obs.recorder.overhead_s`` measures what turning it on
adds).

Turning observability on is scoping a real :class:`Recorder`::

    recorder = Recorder()
    with use(recorder):
        sosae.evaluate()
    print(recorder.spans.roots, recorder.metrics.to_dict())

The indirection is deliberately *not* thread-local: the pipeline is
synchronous, and a plain module global keeps the disabled fast path to a
single attribute load.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional, Union

from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import Span, SpanRecorder

__all__ = [
    "NULL_RECORDER",
    "NullRecorder",
    "Recorder",
    "current_recorder",
    "observability_enabled",
    "set_recorder",
    "use",
]


class _NullSpan:
    """The inert span yielded while observability is off."""

    __slots__ = ()

    def set_attribute(self, key, value) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


class _NullInstrument:
    """Accepts every Counter/Gauge/Histogram operation, records nothing."""

    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def add(self, amount: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL_SPAN = _NullSpan()
_NULL_INSTRUMENT = _NullInstrument()


class NullRecorder:
    """The zero-overhead default: every operation is a shared no-op."""

    enabled = False

    def span(self, name: str, **attributes) -> _NullSpan:
        return _NULL_SPAN

    def counter(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def annotate(self, key: str, value) -> None:
        pass

    def __repr__(self) -> str:
        return "NullRecorder()"


class Recorder:
    """A live recorder: a span forest plus a metrics registry."""

    enabled = True

    def __init__(
        self,
        spans: Optional[SpanRecorder] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        # Explicit None checks: an empty MetricsRegistry is falsy (it
        # has __len__), and a caller sharing one long-lived registry
        # across recorders (the serve loop) hands it over empty.
        self.spans = spans if spans is not None else SpanRecorder()
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    def span(self, name: str, **attributes):
        """Open a nested span (context manager yielding the
        :class:`~repro.obs.spans.Span`)."""
        return self.spans.span(name, **attributes)

    def counter(self, name: str):
        return self.metrics.counter(name)

    def gauge(self, name: str):
        return self.metrics.gauge(name)

    def histogram(self, name: str):
        return self.metrics.histogram(name)

    def annotate(self, key: str, value) -> None:
        self.spans.annotate(key, value)

    @property
    def roots(self) -> tuple[Span, ...]:
        """The recorded root spans."""
        return tuple(self.spans.roots)

    def __repr__(self) -> str:
        return f"Recorder({self.spans!r}, {self.metrics!r})"


NULL_RECORDER = NullRecorder()

_current: Union[NullRecorder, Recorder] = NULL_RECORDER


def current_recorder() -> Union[NullRecorder, Recorder]:
    """The recorder instrumented code should report to right now."""
    return _current


def observability_enabled() -> bool:
    """Whether a live recorder is installed."""
    return _current.enabled


def set_recorder(
    recorder: Union[NullRecorder, Recorder],
) -> Union[NullRecorder, Recorder]:
    """Install a recorder; returns the previous one (for restoring)."""
    global _current
    previous = _current
    _current = recorder
    return previous


@contextmanager
def use(recorder: Union[NullRecorder, Recorder]) -> Iterator[
    Union[NullRecorder, Recorder]
]:
    """Install a recorder for the duration of the ``with`` block."""
    previous = set_recorder(recorder)
    try:
        yield recorder
    finally:
        set_recorder(previous)
