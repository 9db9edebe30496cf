"""Process-local metric instruments.

Three instrument kinds, matching what the evaluation pipeline needs:

* :class:`Counter` — a monotonically increasing count (walkthrough steps,
  index hits, simulator sends);
* :class:`Gauge` — a point-in-time value that may go up or down (cached
  tree count, live node count);
* :class:`Histogram` — a summary (count/sum/min/max/mean and p50/p95/p99
  percentiles over a bounded, uniformly-sampled reservoir) of an
  observed distribution (per-scenario walk seconds, message latencies).

Instruments live in a :class:`MetricsRegistry`, keyed by name; asking for
an existing name returns the same instrument, so instrumentation sites
never coordinate. ``registry.to_dict()`` snapshots everything for JSON
export. No locks: the pipeline is synchronous and instruments are
process-local (use one registry per concurrent evaluation).
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from typing import Optional

from repro.errors import ReproError

#: Default cap on the samples a :class:`Histogram` retains for its
#: percentile reservoir. Bounds the memory of long-running processes
#: (``sosae serve`` observes per-scenario latencies forever) while
#: keeping percentile error negligible for evaluation-sized streams.
DEFAULT_HISTOGRAM_SAMPLE_CAP = 4096


class Counter:
    """A monotonically increasing integer metric."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: int = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ReproError(
                f"counter {self.name!r} cannot decrease (inc({amount}))"
            )
        self.value += amount

    def to_dict(self) -> dict:
        return {"type": "counter", "value": self.value}

    def __repr__(self) -> str:
        return f"Counter({self.name!r}={self.value})"


class Gauge:
    """A point-in-time value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, amount: float) -> None:
        self.value += amount

    def to_dict(self) -> dict:
        return {"type": "gauge", "value": self.value}

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}={self.value})"


class Histogram:
    """A summary (count/sum/min/max/mean/percentiles) of a distribution.

    ``count``/``sum``/``min``/``max``/``mean`` are exact over every
    observation. For percentiles, at most ``sample_cap`` observations
    are retained; past the cap each new observation replaces a retained
    one with the classic reservoir probability (Algorithm R), so the
    reservoir stays a uniform sample of the whole stream and percentiles
    remain statistically faithful while memory stays fixed — a
    long-running ``sosae serve`` loop cannot grow without bound. The
    replacement choices come from a PRNG seeded with the metric name, so
    identical observation streams yield identical snapshots.

    ``_sorted`` holds the reservoir's values in order, kept as samples
    arrive: ``observe`` inserts each retained value at its place and,
    when it replaces one, deletes the replaced value (equal values are
    interchangeable). So a snapshot sorts nothing, and each observation
    costs one binary search and one list shift, however often
    percentiles are read.
    """

    __slots__ = (
        "name", "count", "total", "min", "max",
        "sample_cap", "_samples", "_sorted", "_rng",
    )

    def __init__(
        self, name: str, sample_cap: int = DEFAULT_HISTOGRAM_SAMPLE_CAP
    ) -> None:
        if sample_cap < 1:
            raise ReproError(
                f"histogram {name!r} sample cap must be >= 1, got {sample_cap}"
            )
        self.name = name
        self.count: int = 0
        self.total: float = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.sample_cap = sample_cap
        self._samples: list[float] = []
        self._sorted: list[float] = []
        self._rng = random.Random(name)

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if len(self._samples) < self.sample_cap:
            self._samples.append(value)
            insort(self._sorted, value)
        else:
            slot = self._rng.randrange(self.count)
            if slot < self.sample_cap:
                ordered = self._sorted
                del ordered[bisect_left(ordered, self._samples[slot])]
                self._samples[slot] = value
                insort(ordered, value)

    @property
    def sample_count(self) -> int:
        """How many observations the percentile reservoir holds."""
        return len(self._samples)

    @property
    def mean(self) -> Optional[float]:
        """Arithmetic mean of the observations, ``None`` before any."""
        return self.total / self.count if self.count else None

    def percentile(self, fraction: float) -> Optional[float]:
        """The ``fraction`` quantile (0..1) of the retained reservoir,
        by linear interpolation between closest ranks; ``None`` before
        any observation. Exact while the stream fits ``sample_cap``."""
        if not 0.0 <= fraction <= 1.0:
            raise ReproError(
                f"percentile fraction must be in [0, 1], got {fraction}"
            )
        ordered = self._sorted
        if not ordered:
            return None
        rank = fraction * (len(ordered) - 1)
        low = int(rank)
        high = min(low + 1, len(ordered) - 1)
        weight = rank - low
        return ordered[low] * (1.0 - weight) + ordered[high] * weight

    @property
    def p50(self) -> Optional[float]:
        return self.percentile(0.50)

    @property
    def p95(self) -> Optional[float]:
        return self.percentile(0.95)

    @property
    def p99(self) -> Optional[float]:
        return self.percentile(0.99)

    def to_dict(self) -> dict:
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
        }

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, n={self.count}, mean={self.mean})"


class MetricsRegistry:
    """A name-keyed collection of instruments."""

    def __init__(self) -> None:
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, name: str, kind: type):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = kind(name)
            self._instruments[name] = instrument
        elif type(instrument) is not kind:
            raise ReproError(
                f"metric {name!r} already registered as "
                f"{type(instrument).__name__}, not {kind.__name__}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        """The counter of that name (created on first use)."""
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """The gauge of that name (created on first use)."""
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        """The histogram of that name (created on first use)."""
        return self._get(name, Histogram)

    def get(self, name: str):
        """An already-registered instrument, or ``None``."""
        return self._instruments.get(name)

    def value(self, name: str, default=None):
        """Shortcut: the scalar value of a counter/gauge, or ``default``."""
        instrument = self._instruments.get(name)
        if isinstance(instrument, (Counter, Gauge)):
            return instrument.value
        return default

    def names(self) -> tuple[str, ...]:
        """All registered metric names, sorted."""
        return tuple(sorted(self._instruments))

    def to_dict(self) -> dict:
        """A JSON-serializable snapshot of every instrument.

        Deterministically ordered: instruments appear sorted by name
        regardless of registration order, so serialized snapshots (and
        anything digested from them — run-record digests, ``runs diff``
        tables) are byte-stable across Python hash seeds and runs.
        """
        return {
            name: self._instruments[name].to_dict()
            for name in sorted(self._instruments)
        }

    def __len__(self) -> int:
        return len(self._instruments)

    def __repr__(self) -> str:
        return f"MetricsRegistry({len(self._instruments)} instruments)"
