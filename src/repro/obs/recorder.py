"""The span/metrics recorder channel of the instrument bundle.

Instrumentation sites never hold a recorder; they read the current
:class:`~repro.obs.instruments.Instruments` bundle and call ``span`` /
``counter`` / ``histogram`` on its ``recorder``. By default that is the
:data:`NULL_RECORDER`, whose every operation is a constant-time no-op on
shared singletons — no allocation, no timing calls — so instrumented
code costs nearly nothing while observability is off (the benchmark
harness's ``obs.recorder.overhead_s`` measures what turning it on
adds).

Turning observability on is scoping a real :class:`Recorder`::

    recorder = Recorder()
    with instrumented(recorder=recorder):
        sosae.evaluate()
    print(recorder.spans.roots, recorder.metrics.to_dict())
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import Span, SpanRecorder

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.coverage import CoverageMatrix

__all__ = [
    "NULL_RECORDER",
    "NullRecorder",
    "Recorder",
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
        #: The evaluation's finalized coverage matrix, attached by the
        #: pipeline; ``None`` for runs that computed none (incremental).
        self.coverage: Optional[CoverageMatrix] = None

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
