"""Nested span recording.

A :class:`Span` is one timed region of the evaluation pipeline — a whole
``Sosae.evaluate`` call, one stage of it, one scenario walk, one event
step. Spans nest: the recorder keeps a stack, so a span opened while
another is in flight becomes its child, and a finished evaluation leaves
a tree whose shape mirrors the pipeline's call structure.

Each span carries wall-clock *and* CPU time (``time.perf_counter`` /
``time.process_time``), so waiting (I/O, sleep) and computing are
distinguishable in the profile, plus a free-form attribute dict for
scenario names, architecture names, verdict summaries, and the like.

:class:`SpanRecorder` is deliberately not thread-safe: the evaluation
pipeline is synchronous, and a per-pipeline recorder keeps the hot path
free of locks. Use one recorder per concurrent evaluation.
"""

from __future__ import annotations

import time
from functools import wraps
from typing import Callable, Iterator, Optional

from repro.obs.context import TraceContext, new_trace_id, span_id_for


class Span:
    """One timed, attributed region; finished spans form a tree.

    ``span_id``/``parent_id``/``trace_id``/``shard`` are the identity
    stamped by the recorder (``None`` on spans deserialized from
    pre-identity trace files): ids are assigned at creation from the
    recorder's :class:`~repro.obs.context.TraceContext`, so a span tree
    keeps stable references when it is serialized and read back. A
    sharded walk's scenario spans carry the worker's shard number.
    """

    __slots__ = (
        "name",
        "attributes",
        "children",
        "start_wall",
        "end_wall",
        "start_cpu",
        "end_cpu",
        "span_id",
        "parent_id",
        "trace_id",
        "shard",
    )

    def __init__(self, name: str, attributes: Optional[dict] = None) -> None:
        self.name = name
        self.attributes: dict = attributes or {}
        self.children: list[Span] = []
        self.start_wall: float = 0.0
        self.end_wall: float = 0.0
        self.start_cpu: float = 0.0
        self.end_cpu: float = 0.0
        self.span_id: Optional[str] = None
        self.parent_id: Optional[str] = None
        self.trace_id: Optional[str] = None
        self.shard: Optional[int] = None

    # -- timing ---------------------------------------------------------

    def begin(self) -> None:
        self.start_wall = time.perf_counter()
        self.start_cpu = time.process_time()

    def finish(self) -> None:
        self.end_wall = time.perf_counter()
        self.end_cpu = time.process_time()

    @property
    def wall_seconds(self) -> float:
        """Elapsed wall-clock time of the span."""
        return self.end_wall - self.start_wall

    @property
    def cpu_seconds(self) -> float:
        """CPU time consumed while the span was open (includes children)."""
        return self.end_cpu - self.start_cpu

    @property
    def self_wall_seconds(self) -> float:
        """Wall time not accounted for by any child span."""
        return self.wall_seconds - sum(c.wall_seconds for c in self.children)

    # -- structure ------------------------------------------------------

    def add_child(self, child: "Span") -> "Span":
        self.children.append(child)
        return child

    def set_attribute(self, key: str, value) -> None:
        """Attach (or overwrite) one attribute."""
        self.attributes[key] = value

    def iter_spans(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first, preorder."""
        yield self
        for child in self.children:
            yield from child.iter_spans()

    def count(self) -> int:
        """Number of spans in this subtree."""
        return sum(1 for _ in self.iter_spans())

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, {self.wall_seconds * 1e3:.3f}ms, "
            f"children={len(self.children)})"
        )


class _SpanScope:
    """The context manager :meth:`SpanRecorder.span` returns.

    A class, not a ``@contextmanager`` generator, which would cost a
    generator frame and two ``next``/``throw`` round trips per span. The
    span is created, numbered and pushed on entry, and finished and
    popped on exit, also when the block raises any ``BaseException``."""

    __slots__ = ("_recorder", "_name", "_attributes", "_span")

    def __init__(
        self, recorder: "SpanRecorder", name: str, attributes: dict
    ) -> None:
        self._recorder = recorder
        self._name = name
        self._attributes = attributes

    def __enter__(self) -> Span:
        span = self._span = self._recorder._open(self._name, self._attributes)
        return span

    def __exit__(self, exc_type, exc, traceback) -> bool:
        span = self._span
        if exc_type is not None:
            span.attributes["error"] = exc_type.__name__
        span.finish()
        self._recorder._stack.pop()
        return False


class SpanRecorder:
    """Collects a forest of spans from one synchronous pipeline run.

    ``context`` fixes the recorder's identity (trace id and shard
    number); without one, a private context (fresh trace id, shard 0)
    is created on first use, so every recorded span still carries
    stable ids.
    """

    enabled = True

    def __init__(self, context: Optional[TraceContext] = None) -> None:
        self.roots: list[Span] = []
        self._stack: list[Span] = []
        self.context = context
        self._serial = 0

    def span(self, name: str, **attributes) -> "_SpanScope":
        """Open a span for the duration of the ``with`` block.

        The span nests under the innermost open span; exceptions
        propagate but still close the span (with an ``error`` attribute
        naming the exception type).
        """
        return _SpanScope(self, name, attributes)

    def _open(self, name: str, attributes: dict) -> Span:
        """Create, identify and push a span; the scope's ``__enter__``."""
        span = self._place(Span(name, attributes))
        self._stack.append(span)
        span.begin()
        return span

    def add(
        self,
        name: str,
        attributes: dict,
        start_wall: float,
        start_cpu: float,
        end_wall: float,
        end_cpu: float,
    ) -> Span:
        """Record a span that already ran, from its clocks: numbered and
        nested under the innermost open span as if opened now, never
        pushed. The walkthrough engine records its scenario spans this
        way, after the walk."""
        span = self._place(Span(name, attributes))
        span.start_wall = start_wall
        span.start_cpu = start_cpu
        span.end_wall = end_wall
        span.end_cpu = end_cpu
        return span

    def _place(self, span: Span) -> Span:
        """Give ``span`` the next id and attach it under the innermost
        open span (or as a root)."""
        context = self.context
        if context is None:
            context = self.context = TraceContext(trace_id=new_trace_id())
        self._serial += 1
        span.span_id = span_id_for(context.shard, self._serial)
        span.trace_id = context.trace_id
        span.shard = context.shard
        if self._stack:
            parent = self._stack[-1]
            parent.add_child(span)
            span.parent_id = parent.span_id
        else:
            self.roots.append(span)
        return span

    def record(self, name: Optional[str] = None) -> Callable:
        """Decorator form of :meth:`span` (span named after the function
        unless given)."""

        def decorate(function: Callable) -> Callable:
            span_name = name or function.__qualname__

            @wraps(function)
            def wrapper(*args, **kwargs):
                with self.span(span_name):
                    return function(*args, **kwargs)

            return wrapper

        return decorate

    def current_span(self) -> Optional[Span]:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    def annotate(self, key: str, value) -> None:
        """Attach an attribute to the innermost open span (no-op when no
        span is open, so callers need not guard)."""
        if self._stack:
            self._stack[-1].set_attribute(key, value)

    def clear(self) -> None:
        """Drop all recorded spans (open spans keep recording)."""
        self.roots.clear()

    def __repr__(self) -> str:
        total = sum(root.count() for root in self.roots)
        return f"SpanRecorder(roots={len(self.roots)}, spans={total})"
