"""Span identity: one trace id per recorder and a shard-namespaced id
per span.

:class:`TraceContext` is the identity a
:class:`~repro.obs.spans.SpanRecorder` records under:

* ``trace_id`` — one opaque id per recorder's trace;
* ``shard`` — the number that namespaces the recorder's span serials
  (0 for a recorder in the evaluating process).

A recorder stamps every span it opens with ``(trace_id, shard,
span_id)`` plus a ``parent_id`` reference. Ids are assigned *at
creation* from a per-recorder serial, so they are deterministic for a
given pipeline run. A recorder without an explicit context lazily
creates a private one (fresh ``trace_id``, shard 0). A sharded walk's
scenario spans are recorded in the evaluating process, so they carry
its ``s0.<serial>`` ids; their ``shard`` attribute names the worker
that walked them.
"""

from __future__ import annotations

import uuid
from dataclasses import dataclass

from repro.errors import ReproError

__all__ = [
    "TraceContext",
    "new_trace_id",
    "span_id_for",
]


def new_trace_id() -> str:
    """A fresh opaque trace id (16 hex characters)."""
    return uuid.uuid4().hex[:16]


def span_id_for(shard: int, serial: int) -> str:
    """The canonical span id for the ``serial``-th span of ``shard``.

    The shard number namespaces the per-recorder serial, so recorders
    with different shard numbers never mint the same id.
    """
    return f"s{shard}.{serial}"


@dataclass(frozen=True)
class TraceContext:
    """The identity one span recorder records under."""

    trace_id: str
    shard: int = 0

    def __post_init__(self) -> None:
        if not self.trace_id:
            raise ReproError("TraceContext requires a non-empty trace_id")
        if self.shard < 0:
            raise ReproError(
                f"TraceContext shard must be >= 0, got {self.shard}"
            )
