"""The statistical sampling profiler and differential folded stacks.

The headline properties: merging the same profiles in *any order*
folds to byte-identical text, the
disabled default does structurally zero work (no sampler thread, no
hooks on the profiled path), and zero-sample profiles flow through
``diff_profiles`` and its renderer without dividing by zero.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import ReproError
from repro.obs import (
    NULL_PROFILER,
    NullProfiler,
    Profile,
    SamplingProfiler,
    current_instruments,
    diff_profiles,
)


def _profile(counts, hz=97.0, wall=0.5):
    return Profile(
        counts={tuple(stack): count for stack, count in counts.items()},
        hz=hz,
        wall_seconds=wall,
    )


def _busy(deadline: float) -> int:
    total = 0
    while time.perf_counter() < deadline:
        total += sum(range(50))
    return total


class TestSamplingProfiler:
    def test_samples_the_calling_threads_frames(self):
        profiler = SamplingProfiler(hz=500.0)
        profiler.start()
        _busy(time.perf_counter() + 0.25)
        profile = profiler.stop()
        assert profile.samples > 0
        flat = ";".join(frame for stack in profile.counts for frame in stack)
        assert "_busy" in flat
        assert profile.hz == 500.0
        assert profile.wall_seconds >= 0.25

    def test_can_target_another_thread(self):
        deadline = time.perf_counter() + 0.25
        worker = threading.Thread(target=_busy, args=(deadline,))
        worker.start()
        profiler = SamplingProfiler(hz=500.0, thread_id=worker.ident)
        profiler.start()
        worker.join()
        profile = profiler.stop()
        flat = ";".join(frame for stack in profile.counts for frame in stack)
        assert "_busy" in flat

    def test_rejects_nonpositive_hz(self):
        with pytest.raises(ReproError, match="hz"):
            SamplingProfiler(hz=0)

    def test_rejects_double_start(self):
        profiler = SamplingProfiler(hz=50.0).start()
        try:
            with pytest.raises(ReproError, match="already running"):
                profiler.start()
        finally:
            profiler.stop()

    def test_context_manager_stops_the_thread(self):
        with SamplingProfiler(hz=50.0) as profiler:
            assert any(
                thread.name == "sosae-profiler"
                for thread in threading.enumerate()
            )
        assert not any(
            thread.name == "sosae-profiler"
            for thread in threading.enumerate()
        )
        assert isinstance(profiler.profile(), Profile)

    def test_ingested_worker_profiles_fold_in_at_stop(self):
        profiler = SamplingProfiler(hz=50.0).start()
        profiler.ingest(_profile({("m:w:1",): 7}))
        profiler.ingest(None)  # a shard that did not profile
        profile = profiler.stop()
        assert profile.counts.get(("m:w:1",)) == 7


class TestNullProfiler:
    def test_is_the_module_default(self):
        assert current_instruments().profiler is NULL_PROFILER
        assert not NULL_PROFILER.enabled

    def test_does_no_work(self):
        null = NullProfiler()
        assert null.start() is null
        assert null.stop() is None
        assert null.profile() is None
        null.ingest(_profile({("m:f:1",): 1}))
        with null:
            pass
        assert not any(
            thread.name == "sosae-profiler"
            for thread in threading.enumerate()
        )


class TestProfile:
    def test_folded_round_trip_is_byte_identical(self):
        profile = _profile(
            {("a:f:1", "a:g:2"): 3, ("a:f:1",): 1, ("b:h:9",): 2}
        )
        folded = profile.to_folded()
        again = Profile.from_folded(folded)
        assert again == profile
        assert again.to_folded() == folded

    def test_wall_quantizes_to_header_precision(self):
        # Real captures carry full float precision, but the folded
        # header prints 6 decimals — wall must quantize on construction
        # or round-trips would never compare equal.
        profile = _profile({("a:f:1",): 1}, wall=0.123456789123)
        assert profile.wall_seconds == 0.123457
        assert Profile.from_folded(profile.to_folded()) == profile
        merged = profile.merge(_profile({("a:f:1",): 1}, wall=0.1))
        assert Profile.from_folded(merged.to_folded()) == merged

    def test_folded_header_carries_metadata(self):
        folded = _profile({("a:f:1",): 4}, hz=123.0, wall=1.5).to_folded()
        header = folded.splitlines()[0]
        assert header.startswith("# sosae-profile format=1 ")
        assert "hz=123" in header
        assert "samples=4" in header
        assert "wall_seconds=1.500000" in header

    def test_headerless_foreign_folded_text_parses(self):
        profile = Profile.from_folded("main;work 10\nmain;idle 2\n")
        assert profile.samples == 12
        assert profile.hz == 0.0

    @pytest.mark.parametrize(
        "line, message",
        [
            ("justoneword", "no count"),
            ("main;work ten", "non-integer"),
            ("main;work -3", "negative"),
        ],
    )
    def test_malformed_folded_lines_error(self, line, message):
        with pytest.raises(ReproError, match=message):
            Profile.from_folded(line)

    def test_merge_is_commutative_and_sums_walls(self):
        first = _profile({("a:f:1",): 2}, wall=1.0)
        second = _profile({("a:f:1",): 3, ("b:g:2",): 1}, wall=0.5)
        merged = first.merge(second)
        assert merged == second.merge(first)
        assert merged.counts[("a:f:1",)] == 5
        assert merged.wall_seconds == pytest.approx(1.5)

    def test_mixed_rate_merge_drops_hz(self):
        merged = _profile({("a:f:1",): 1}, hz=97.0).merge(
            _profile({("a:f:1",): 1}, hz=50.0)
        )
        assert merged.hz == 0.0

    def test_self_vs_cumulative_counts(self):
        profile = _profile({("a:f:1", "a:g:2"): 3, ("a:f:1",): 2})
        assert profile.self_counts() == {"a:g:2": 3, "a:f:1": 2}
        assert profile.cumulative_counts() == {"a:f:1": 5, "a:g:2": 3}

    def test_recursive_frames_count_once_per_stack(self):
        profile = _profile({("a:f:1", "a:f:1", "a:f:1"): 4})
        assert profile.cumulative_counts() == {"a:f:1": 4}

    def test_digest_tracks_content(self):
        first = _profile({("a:f:1",): 1})
        assert first.digest() == _profile({("a:f:1",): 1}).digest()
        assert first.digest() != _profile({("a:f:1",): 2}).digest()


class TestDiffProfiles:
    def test_ranks_regressions_first(self):
        before = _profile({("m:f:1",): 8, ("m:g:2",): 2})
        after = _profile({("m:f:1",): 2, ("m:g:2",): 8})
        diff = diff_profiles(before, after)
        assert diff.frames[0].frame == "m:g:2"
        assert diff.frames[0].self_delta == pytest.approx(0.6)
        assert diff.regressed[0].frame == "m:g:2"
        assert diff.improved[-1].frame == "m:f:1"

    def test_cumulative_shares_tracked_separately(self):
        before = _profile({("m:f:1", "m:g:2"): 10})
        after = _profile({("m:f:1", "m:h:3"): 10})
        diff = diff_profiles(before, after)
        by_frame = {delta.frame: delta for delta in diff.frames}
        assert by_frame["m:f:1"].cum_delta == pytest.approx(0.0)
        assert by_frame["m:f:1"].self_delta == pytest.approx(0.0)
        assert by_frame["m:h:3"].cum_after == pytest.approx(1.0)

    def test_zero_sample_before_reads_as_pure_regression(self):
        diff = diff_profiles(Profile(), _profile({("m:f:1",): 5}))
        assert diff.frames[0].self_before == 0.0
        assert diff.frames[0].self_after == pytest.approx(1.0)
        assert "100.0%" in diff.render()

    def test_both_empty_renders_a_note_not_a_crash(self):
        rendered = diff_profiles(Profile(), Profile()).render()
        assert "both profiles are empty" in rendered

    def test_no_movement_renders_a_note(self):
        profile = _profile({("m:f:1",): 5})
        rendered = diff_profiles(profile, profile).render()
        assert "no self-time movement" in rendered

    def test_render_caps_at_top(self):
        before = _profile({(f"m:f{i}:1",): 1 for i in range(30)})
        after = _profile({(f"m:f{i}:1",): 2 + i for i in range(30)})
        rendered = diff_profiles(before, after).render(top=5)
        frame_lines = [
            line for line in rendered.splitlines() if "%" in line
        ]
        assert len(frame_lines) == 5
