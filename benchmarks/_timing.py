"""Shared timing helper for the benchmarks.

:class:`timed` wraps the ``time.perf_counter()`` start/stop pair every
benchmark would otherwise hand-roll::

    with timed() as timing:
        engine.walk_all(scenarios)
    print(timing.seconds)
"""

from __future__ import annotations

import time

__all__ = ["timed"]


class timed:
    """Time the ``with`` block; ``seconds`` is valid once it exits."""

    seconds: float = 0.0

    def __enter__(self) -> "timed":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        self.seconds = time.perf_counter() - self._start
        return False
