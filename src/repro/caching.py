"""A lock-free cached property for immutable objects.

Frozen dataclasses (scenario verdicts, reports, coverage matrices)
derive aggregates from fields that never change, and callers re-read
them several times per evaluation. :class:`cached_property` computes
such a value on first read and stores it in the instance ``__dict__``;
being a non-data descriptor, every later read finds the stored value
there without calling the descriptor again.

It is :func:`functools.cached_property` without the lock: on Python
3.10 and 3.11 the standard one takes a class-wide ``RLock`` on every
first read, which a walk that builds hundreds of verdicts pays for
each one. The cached values here are pure functions of frozen fields,
so a race between two threads can at worst compute the same value
twice. As with the standard descriptor, the value bypasses a frozen
dataclass's ``__setattr__``, plays no part in the generated
``__eq__``/``__hash__`` (they compare fields only), and travels with
the instance ``__dict__`` when the object is pickled.
"""

from __future__ import annotations

from typing import Callable, Generic, TypeVar

__all__ = ["cached_property"]

T = TypeVar("T")


class cached_property(Generic[T]):
    """Compute ``function(instance)`` once per instance and keep it in
    the instance ``__dict__``; on the class, the descriptor itself."""

    def __init__(self, function: Callable[..., T]) -> None:
        self.function = function
        self.name = function.__name__
        self.__doc__ = function.__doc__

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.function(instance)
        return value
