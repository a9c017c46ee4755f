"""Moving-average change detection and alarm clustering."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nilmevents import (
    HybridConfig,
    SampleSeries,
    SeriesTooShort,
    detect_base,
    detect_hybrid,
)
from nilmevents.base import _mean_difference_profile, _window_sums

from oracles import oracle_base_events, oracle_mean_difference_profile, oracle_moving_means

integer_traces = st.lists(
    st.integers(min_value=0, max_value=3000), min_size=13, max_size=120
).map(lambda xs: np.array(xs, dtype=float))

float_traces = st.lists(
    st.floats(min_value=-1e5, max_value=1e5, allow_nan=False), min_size=13, max_size=120
).map(np.array)


def series_at_20hz(values: np.ndarray) -> SampleSeries:
    return SampleSeries(values, 20.0)


def two_step_trace(rate: float = 20.0) -> SampleSeries:
    t = np.arange(int(30 * rate)) / rate
    return SampleSeries(np.where((t >= 10.0) & (t < 20.0), 100.0, 0.0), rate)


def moving_means(values: np.ndarray, center: int, n: int) -> tuple[float, float]:
    """Before/after window means at ``center``, read from the shared window sums."""
    before_sums, after_sums = _window_sums(values, n)
    return before_sums[center - n] / n, after_sums[center - n] / n


def test_moving_means_on_an_exact_step() -> None:
    values = np.array([1.0, 1.0, 1.0, 5.0, 5.0, 5.0])
    assert moving_means(values, 2, 2) == (1.0, 5.0)
    diffs = _mean_difference_profile(values, 2)
    assert diffs.size == 2  # centers 2 and 3
    assert diffs[0] == 4.0


def test_moving_means_on_a_constant_series() -> None:
    values = np.full(50, 7.5)
    for center, n in ((5, 5), (25, 1), (40, 9)):
        assert moving_means(values, center, n) == (7.5, 7.5)


def test_moving_means_with_wider_windows() -> None:
    values = np.array([0.0] * 4 + [100.0] * 5)
    assert moving_means(values, 4, 3) == (0.0, 100.0)


@given(integer_traces, st.integers(min_value=1, max_value=4))
def test_mean_difference_profile_matches_oracle_exactly_on_integers(
    values: np.ndarray, n: int
) -> None:
    diffs = _mean_difference_profile(values, n)
    expected = oracle_mean_difference_profile(values, n)
    assert sorted(expected) == list(range(n, n + diffs.size))
    for center in expected:
        assert diffs[center - n] == expected[center]


@given(float_traces, st.integers(min_value=1, max_value=4))
def test_mean_difference_profile_matches_oracle_on_floats(values: np.ndarray, n: int) -> None:
    diffs = _mean_difference_profile(values, n)
    expected = oracle_mean_difference_profile(values, n)
    scale = max(1.0, float(np.max(np.abs(values))))
    assert sorted(expected) == list(range(n, n + diffs.size))
    for center in expected:
        assert diffs[center - n] == pytest.approx(expected[center], abs=1e-9 * scale)


@given(integer_traces)
def test_profile_agrees_with_moving_means_at_every_center(values: np.ndarray) -> None:
    diffs = _mean_difference_profile(values, 3)
    for center in range(3, values.size - 3):
        before, after = oracle_moving_means(values, center, 3)
        assert moving_means(values, center, 3) == (before, after)
        assert diffs[center - 3] == pytest.approx(after - before, abs=1e-9)


def test_constant_series_yields_no_events() -> None:
    series = series_at_20hz(np.full(200, 640.0))
    assert detect_base(series, HybridConfig()) == []


def test_two_clean_steps_alarm_only_around_the_steps() -> None:
    series = two_step_trace()
    events = detect_base(series, HybridConfig())
    oracle = oracle_base_events(series.values, 20.0, 6, 25.0, 0.2)
    assert [(e.index, e.timestamp_s, e.delta_watts) for e in events] == oracle
    # The 100 W alarm region spans 0.45 s, so each step emits a short
    # cluster rather than a single alarm; both clusters sit within 0.3 s
    # of their step and nothing fires elsewhere.
    assert [e.index for e in events] == [195, 200, 395, 400]
    for event in events[:2]:
        assert abs(event.timestamp_s - 10.0) <= 0.3
        assert event.delta_watts > 0
    for event in events[2:]:
        assert abs(event.timestamp_s - 20.0) <= 0.3
        assert event.delta_watts < 0


def test_two_clean_steps_collapse_to_one_event_each_after_merging() -> None:
    result = detect_hybrid(two_step_trace(), HybridConfig())
    assert [e.index for e in result.events] == [195, 395]
    assert abs(result.events[0].timestamp_s - 10.0) <= 0.3
    assert abs(result.events[1].timestamp_s - 20.0) <= 0.3


def test_large_step_emits_a_cluster_led_by_the_first_alarm() -> None:
    t = np.arange(600) / 20.0
    series = series_at_20hz(np.where(t >= 10.0, 1600.0, 100.0))
    events = detect_base(series, HybridConfig())
    assert [e.index for e in events] == [194, 198, 203]
    assert events[0].delta_watts == pytest.approx(250.0)
    for earlier, later in zip(events, events[1:]):
        assert later.timestamp_s - earlier.timestamp_s > 0.2


def test_short_series_is_rejected() -> None:
    with pytest.raises(SeriesTooShort):
        detect_base(series_at_20hz(np.zeros(12)), HybridConfig())
    detect_base(series_at_20hz(np.zeros(13)), HybridConfig())


@given(integer_traces, st.floats(min_value=1.0, max_value=200.0), st.floats(min_value=1.0, max_value=200.0))
def test_raising_the_threshold_never_adds_raw_alarms(
    values: np.ndarray, threshold_a: float, threshold_b: float
) -> None:
    low, high = sorted((threshold_a, threshold_b))
    diffs = _mean_difference_profile(values, 3)
    assert np.count_nonzero(np.abs(diffs) > high) <= np.count_nonzero(np.abs(diffs) > low)


@given(
    st.lists(st.integers(min_value=-80, max_value=80), min_size=30, max_size=200),
    st.floats(min_value=0.05, max_value=1.0),
)
def test_emitted_events_are_separated_by_more_than_the_time_limit(
    increments: list[int], time_limit_s: float
) -> None:
    values = np.cumsum(np.array(increments, dtype=float))
    config = HybridConfig(time_limit_s=time_limit_s)
    events = detect_base(series_at_20hz(values), config)
    for earlier, later in zip(events, events[1:]):
        assert later.timestamp_s - earlier.timestamp_s > time_limit_s


@given(integer_traces, st.integers(min_value=-5000, max_value=5000))
def test_constant_offset_leaves_events_unchanged(values: np.ndarray, offset: int) -> None:
    config = HybridConfig()
    shifted = detect_base(series_at_20hz(values + float(offset)), config)
    baseline = detect_base(series_at_20hz(values), config)
    assert [(e.index, e.delta_watts) for e in shifted] == [
        (e.index, e.delta_watts) for e in baseline
    ]


@given(
    st.floats(min_value=26.0, max_value=37.0),
    st.integers(min_value=10, max_value=180),
)
def test_moderate_isolated_step_emits_exactly_one_event(magnitude: float, step_index: int) -> None:
    # Steps in this range exceed the threshold only while both windows
    # straddle the edge, so the whole alarm region fits inside the time
    # limit and greedy clustering leaves a single event near the step.
    values = np.zeros(200)
    values[step_index:] = magnitude
    events = detect_base(series_at_20hz(values), HybridConfig())
    assert len(events) == 1
    assert abs(events[0].index - step_index) <= 6
    assert events[0].delta_watts > 0
