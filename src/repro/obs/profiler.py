"""Statistical sampling profiler for the evaluation pipeline.

The ROADMAP's next perf milestone (a compiled walkthrough core) needs
tooling that *localizes* interpreter time, not just the stage-level
spans the recorder already captures. This module provides it with
stdlib machinery only:

- :class:`SamplingProfiler` runs a background ``threading.Thread`` that
  samples the *target* thread's stack via ``sys._current_frames()`` at a
  configurable rate (``--profile-hz``). The profiled code runs
  completely unmodified — there are no hooks on the hot path, so the
  disabled cost is exactly zero work (the ``NULL_PROFILER`` default is
  the instrument bundle's profiler channel, consulted only at
  orchestration boundaries).
- :class:`Profile` aggregates samples into folded stacks keyed by
  ``(module, qualname, line)``. ``to_folded()`` renders the standard
  ``frame;frame;frame count`` text format (root first, leaf last) with
  lines sorted, so equal sample multisets serialize byte-identically,
  however a shard worker's profiles were folded in.
- :func:`diff_profiles` computes differential folded stacks between two
  profiles: per-frame *self* and *cumulative* share deltas, ranked by
  regression. ``sosae profile diff`` prints it; the dashboard renders
  it as a red/blue differential flamegraph.

Frame keys use ``co_qualname`` where available (3.11+) and fall back to
``co_name`` on older interpreters, so folded output is comparable
within one interpreter version but method names may lack their class
prefix on 3.10.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass
from typing import Mapping, Optional

from repro.errors import ReproError
from repro.obs.store import short_digest

__all__ = [
    "DEFAULT_PROFILE_HZ",
    "FrameDelta",
    "NULL_PROFILER",
    "NullProfiler",
    "Profile",
    "ProfileDiff",
    "SamplingProfiler",
    "diff_profiles",
]

# A prime default keeps the sampling clock from phase-locking with
# periodic work in the profiled loop (the classic 100 Hz lockstep bias).
DEFAULT_PROFILE_HZ = 97.0

_FOLDED_HEADER = "# sosae-profile"
_FOLDED_FORMAT = 1

# A stack is a root-first tuple of rendered frames: "module:qualname:line".
Stack = tuple[str, ...]


def _frame_key(code, lineno: int, module: str) -> str:
    qualname = getattr(code, "co_qualname", code.co_name)
    return f"{module}:{qualname}:{lineno}"


class Profile:
    """An aggregated sample set: folded-stack counts plus metadata.

    ``counts`` maps root-first stack tuples to sample counts. Merging
    is commutative addition, and :meth:`to_folded` sorts lines, so any
    merge order of the same profiles folds to byte-identical text.
    """

    __slots__ = ("counts", "hz", "wall_seconds")

    def __init__(
        self,
        counts: Optional[Mapping[Stack, int]] = None,
        hz: float = 0.0,
        wall_seconds: float = 0.0,
    ) -> None:
        self.counts: dict[Stack, int] = dict(counts) if counts else {}
        self.hz = float(hz)
        # Quantized to the folded header's µs precision so that
        # to_folded/from_folded round-trips compare equal (merge sums
        # pass through here too).
        self.wall_seconds = round(float(wall_seconds), 6)

    @property
    def samples(self) -> int:
        """Total samples across all stacks."""
        return sum(self.counts.values())

    def __bool__(self) -> bool:
        return bool(self.counts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Profile):
            return NotImplemented
        return (
            self.counts == other.counts
            and self.hz == other.hz
            and self.wall_seconds == other.wall_seconds
        )

    def __repr__(self) -> str:
        return (
            f"Profile(samples={self.samples}, stacks={len(self.counts)}, "
            f"hz={self.hz:g})"
        )

    def merge(self, other: "Profile") -> "Profile":
        """A new profile with both sample sets (commutative)."""
        counts = dict(self.counts)
        for stack, count in other.counts.items():
            counts[stack] = counts.get(stack, 0) + count
        if self.hz and other.hz and self.hz != other.hz:
            hz = 0.0  # mixed-rate merge: rate no longer meaningful
        else:
            hz = self.hz or other.hz
        return Profile(
            counts=counts,
            hz=hz,
            wall_seconds=self.wall_seconds + other.wall_seconds,
        )

    def self_counts(self) -> dict[str, int]:
        """Samples per frame where the frame is the stack leaf."""
        totals: dict[str, int] = {}
        for stack, count in self.counts.items():
            leaf = stack[-1]
            totals[leaf] = totals.get(leaf, 0) + count
        return totals

    def cumulative_counts(self) -> dict[str, int]:
        """Samples per frame where the frame appears anywhere on the
        stack (each stack counted once per frame, recursion included)."""
        totals: dict[str, int] = {}
        for stack, count in self.counts.items():
            for frame in set(stack):
                totals[frame] = totals.get(frame, 0) + count
        return totals

    def to_folded(self) -> str:
        """The canonical folded text: a ``#`` metadata header, then
        ``frame;frame count`` lines sorted lexically. Equal sample
        multisets always render byte-identically."""
        lines = [
            f"{_FOLDED_HEADER} format={_FOLDED_FORMAT} "
            f"hz={self.hz:g} samples={self.samples} "
            f"wall_seconds={self.wall_seconds:.6f}"
        ]
        for stack in sorted(self.counts):
            lines.append(f"{';'.join(stack)} {self.counts[stack]}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_folded(cls, text: str) -> "Profile":
        """Parse :meth:`to_folded` output (header optional, so foreign
        folded files from other profilers load too)."""
        counts: dict[Stack, int] = {}
        hz = 0.0
        wall = 0.0
        for number, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                if line.startswith(_FOLDED_HEADER):
                    for token in line.split()[2:]:
                        key, _, value = token.partition("=")
                        if key == "hz":
                            hz = float(value)
                        elif key == "wall_seconds":
                            wall = float(value)
                continue
            stack_text, sep, count_text = line.rpartition(" ")
            if not sep:
                raise ReproError(
                    f"folded profile line {number} has no count: {line!r}"
                )
            try:
                count = int(count_text)
            except ValueError:
                raise ReproError(
                    f"folded profile line {number} has a non-integer "
                    f"count: {line!r}"
                ) from None
            if count < 0:
                raise ReproError(
                    f"folded profile line {number} has a negative count"
                )
            stack = tuple(stack_text.split(";"))
            counts[stack] = counts.get(stack, 0) + count
        return cls(counts=counts, hz=hz, wall_seconds=wall)

    def digest(self) -> str:
        """A short content digest of the folded form (the pointer
        ``RunRecord.profile`` stores next to the artifact path)."""
        return short_digest(self.to_folded())


class SamplingProfiler:
    """Samples one target thread's stack from a background thread.

    The profiled thread does no extra work: a daemon thread wakes at
    ``1/hz`` intervals, reads the target's frame via
    ``sys._current_frames()``, and folds it into ``counts``. Profiles
    shard workers return are queued by :meth:`ingest` and
    folded in at :meth:`stop` (keeping the sampler thread the sole
    writer of ``counts`` while running).
    """

    enabled = True

    def __init__(
        self,
        hz: float = DEFAULT_PROFILE_HZ,
        thread_id: Optional[int] = None,
        max_depth: int = 128,
    ) -> None:
        if hz <= 0:
            raise ReproError(f"profile hz must be > 0, got {hz:g}")
        self.hz = float(hz)
        self.max_depth = max_depth
        self.counts: dict[Stack, int] = {}
        self._thread_id = thread_id
        self._thread: Optional[threading.Thread] = None
        self._stop_event = threading.Event()
        self._started_at: Optional[float] = None
        self._wall_seconds = 0.0
        self._ingested: list[Profile] = []

    def start(self) -> "SamplingProfiler":
        """Start sampling the calling thread (or the ``thread_id`` the
        profiler was constructed with)."""
        if self._thread is not None:
            raise ReproError("profiler is already running")
        if self._thread_id is None:
            self._thread_id = threading.get_ident()
        self._stop_event.clear()
        self._started_at = time.perf_counter()
        self._thread = threading.Thread(
            target=self._sample_loop, name="sosae-profiler", daemon=True
        )
        self._thread.start()
        return self

    def _sample_loop(self) -> None:
        period = 1.0 / self.hz
        next_tick = time.perf_counter() + period
        while not self._stop_event.is_set():
            frame = sys._current_frames().get(self._thread_id)
            if frame is not None:
                stack = self._capture(frame)
                if stack:
                    self.counts[stack] = self.counts.get(stack, 0) + 1
            delay = next_tick - time.perf_counter()
            if delay > 0:
                self._stop_event.wait(delay)
            next_tick += period
            now = time.perf_counter()
            if next_tick < now:  # fell behind; resync instead of bursting
                next_tick = now + period

    def _capture(self, frame) -> Stack:
        stack = []
        depth = 0
        while frame is not None and depth < self.max_depth:
            stack.append(
                _frame_key(
                    frame.f_code,
                    frame.f_lineno,
                    frame.f_globals.get("__name__", "?"),
                )
            )
            frame = frame.f_back
            depth += 1
        stack.reverse()
        return tuple(stack)

    def ingest(self, profile: Optional[Profile]) -> None:
        """Queue a worker shard's profile for folding in at stop()."""
        if profile:
            self._ingested.append(profile)

    def stop(self) -> Profile:
        """Stop sampling and return the aggregate profile (own samples
        plus every ingested worker profile)."""
        if self._thread is not None:
            self._stop_event.set()
            self._thread.join()
            self._thread = None
        if self._started_at is not None:
            self._wall_seconds += time.perf_counter() - self._started_at
            self._started_at = None
        return self.profile()

    def profile(self) -> Profile:
        """The aggregate captured so far (without stopping)."""
        wall = self._wall_seconds
        if self._started_at is not None:
            wall += time.perf_counter() - self._started_at
        result = Profile(
            counts=dict(self.counts), hz=self.hz, wall_seconds=wall
        )
        for ingested in self._ingested:
            result = result.merge(ingested)
        return result

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc_info) -> bool:
        self.stop()
        return False

    def __repr__(self) -> str:
        state = "running" if self._thread is not None else "stopped"
        return f"SamplingProfiler(hz={self.hz:g}, {state})"


class NullProfiler:
    """The zero-overhead default: no thread, no samples, no state."""

    enabled = False
    hz = 0.0

    def start(self) -> "NullProfiler":
        return self

    def stop(self) -> None:
        return None

    def profile(self) -> None:
        return None

    def ingest(self, profile) -> None:
        pass

    def __enter__(self) -> "NullProfiler":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def __repr__(self) -> str:
        return "NullProfiler()"


NULL_PROFILER = NullProfiler()

# ----------------------------------------------------------------------
# Differential profiles
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FrameDelta:
    """One frame's share movement between two profiles.

    Shares are fractions of total samples (0..1), so profiles with
    different sample counts — different run lengths, different hz —
    compare on equal footing.
    """

    frame: str
    self_before: float
    self_after: float
    cum_before: float
    cum_after: float

    @property
    def self_delta(self) -> float:
        return self.self_after - self.self_before

    @property
    def cum_delta(self) -> float:
        return self.cum_after - self.cum_before


@dataclass(frozen=True)
class ProfileDiff:
    """Differential folded stacks: every frame's self/cumulative share
    in both profiles, ranked most-regressed first (by self delta)."""

    before: Profile
    after: Profile
    frames: tuple[FrameDelta, ...]

    @property
    def regressed(self) -> tuple[FrameDelta, ...]:
        return tuple(f for f in self.frames if f.self_delta > 0)

    @property
    def improved(self) -> tuple[FrameDelta, ...]:
        return tuple(f for f in self.frames if f.self_delta < 0)

    def render(self, top: int = 15) -> str:
        """A terminal table of the biggest self-share movements."""
        lines = [
            f"profile diff: {self.before.samples} -> "
            f"{self.after.samples} samples"
        ]
        if not self.before and not self.after:
            lines.append("  (both profiles are empty; nothing to compare)")
            return "\n".join(lines)
        if not self.frames:
            lines.append("  (no frames in either profile)")
            return "\n".join(lines)
        ranked = [f for f in self.frames if f.self_delta != 0][:top]
        if not ranked:
            lines.append("  (no self-time movement between the profiles)")
            return "\n".join(lines)
        width = max(len(_short_frame(f.frame)) for f in ranked)
        width = min(max(width, 5), 64)
        lines.append(
            f"  {'frame':<{width}}  {'self':>15}  {'Δself':>8}  "
            f"{'cum':>15}  {'Δcum':>8}"
        )
        for delta in ranked:
            lines.append(
                f"  {_short_frame(delta.frame):<{width}}  "
                f"{_pct(delta.self_before):>6} -> {_pct(delta.self_after):>6}"
                f"  {_signed_pct(delta.self_delta):>8}  "
                f"{_pct(delta.cum_before):>6} -> {_pct(delta.cum_after):>6}"
                f"  {_signed_pct(delta.cum_delta):>8}"
            )
        return "\n".join(lines)


def _short_frame(frame: str) -> str:
    """``module:qualname:line`` with deep module paths compressed."""
    module, _, rest = frame.partition(":")
    parts = module.split(".")
    if len(parts) > 2:
        module = ".".join(p[0] for p in parts[:-1]) + "." + parts[-1]
    return f"{module}:{rest}" if rest else module


def _pct(share: float) -> str:
    return f"{100.0 * share:.1f}%"


def _signed_pct(share: float) -> str:
    return f"{100.0 * share:+.1f}%"


def _shares(counts: Mapping[str, int], total: int) -> dict[str, float]:
    if total <= 0:
        return {frame: 0.0 for frame in counts}
    return {frame: count / total for frame, count in counts.items()}


def diff_profiles(before: Profile, after: Profile) -> ProfileDiff:
    """The differential between two profiles. Zero-sample profiles are
    legal on either side: their shares are all zero, so every frame in
    the other profile shows as pure regression/improvement."""
    self_before = _shares(before.self_counts(), before.samples)
    self_after = _shares(after.self_counts(), after.samples)
    cum_before = _shares(before.cumulative_counts(), before.samples)
    cum_after = _shares(after.cumulative_counts(), after.samples)
    # The full frame universe — interior frames (never a stack leaf)
    # still matter: a dispatcher whose callee got slower shows up only
    # in its cumulative share.
    frames = (
        set(self_before)
        | set(self_after)
        | set(cum_before)
        | set(cum_after)
    )
    deltas = [
        FrameDelta(
            frame=frame,
            self_before=self_before.get(frame, 0.0),
            self_after=self_after.get(frame, 0.0),
            cum_before=cum_before.get(frame, 0.0),
            cum_after=cum_after.get(frame, 0.0),
        )
        for frame in frames
    ]
    deltas.sort(key=lambda d: (-d.self_delta, d.frame))
    return ProfileDiff(before=before, after=after, frames=tuple(deltas))
