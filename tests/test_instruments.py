"""The instrument bundle: one slot holding the recorder, event bus,
coverage builder and profiler that instrumented code reports to."""

from __future__ import annotations

import dataclasses

import pytest

from repro.obs import (
    NULL_COVERAGE,
    NULL_EVENT_BUS,
    NULL_PROFILER,
    NULL_RECORDER,
    CoverageBuilder,
    EventBus,
    Instruments,
    Recorder,
    SamplingProfiler,
    current_instruments,
    instrumented,
)

#: channel -> (its null default, a factory for a live one)
CHANNELS = {
    "recorder": (NULL_RECORDER, Recorder),
    "events": (NULL_EVENT_BUS, EventBus),
    "coverage": (NULL_COVERAGE, CoverageBuilder),
    "profiler": (NULL_PROFILER, lambda: SamplingProfiler(hz=50.0)),
}


def test_channels_cover_the_bundle():
    assert set(CHANNELS) == {
        field.name for field in dataclasses.fields(Instruments)
    }


class TestInstrumented:
    @pytest.mark.parametrize("channel", sorted(CHANNELS))
    def test_install_restores_previous(self, channel):
        null, live = CHANNELS[channel]
        assert getattr(current_instruments(), channel) is null
        assert not null.enabled
        before = current_instruments()
        channel_object = live()
        with instrumented(**{channel: channel_object}) as installed:
            assert installed is current_instruments()
            assert getattr(installed, channel) is channel_object
            assert getattr(installed, channel).enabled
        assert current_instruments() is before
        assert getattr(current_instruments(), channel) is null

    @pytest.mark.parametrize("channel", sorted(CHANNELS))
    def test_restores_when_the_block_raises(self, channel):
        before = current_instruments()
        with pytest.raises(RuntimeError):
            with instrumented(**{channel: CHANNELS[channel][1]()}):
                raise RuntimeError("boom")
        assert current_instruments() is before

    def test_nested_install_replaces_only_the_named_channel(self):
        recorder, bus = Recorder(), EventBus()
        builder = CoverageBuilder()
        with instrumented(recorder=recorder, events=bus) as outer:
            with instrumented(coverage=builder) as inner:
                assert inner.recorder is recorder
                assert inner.events is bus
                assert inner.coverage is builder
                assert inner.profiler is NULL_PROFILER
            assert current_instruments() is outer
            assert outer.coverage is NULL_COVERAGE
        assert current_instruments() == Instruments()

    def test_unknown_channel_is_rejected(self):
        before = current_instruments()
        with pytest.raises(TypeError):
            with instrumented(tracer=Recorder()):
                pass
        assert current_instruments() is before
