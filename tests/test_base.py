"""Moving-average change detection and alarm clustering."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nilmevents import (
    HybridConfig,
    LldConfig,
    MagnitudeTooLarge,
    SampleSeries,
    SeriesTooShort,
    detect_base,
    detect_hybrid,
    lld_max,
)
from nilmevents.base import _mean_difference_profile, _prefix_sums, _window_sums

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
    before_sums, after_sums = _window_sums(_prefix_sums(values), n)
    return before_sums[center - n] / n, after_sums[center - n] / n


def profile(values: np.ndarray, n: int) -> np.ndarray:
    """The whole mean-difference profile; entry ``k`` belongs to center ``n + k``."""
    return _mean_difference_profile(_prefix_sums(values), n)


def test_moving_means_on_an_exact_step() -> None:
    values = np.array([1.0, 1.0, 1.0, 5.0, 5.0, 5.0])
    assert moving_means(values, 2, 2) == (1.0, 5.0)
    diffs = profile(values, 2)
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
    diffs = profile(values, n)
    expected = oracle_mean_difference_profile(values, n)
    assert sorted(expected) == list(range(n, n + diffs.size))
    for center in expected:
        assert diffs[center - n] == expected[center]


@given(float_traces, st.integers(min_value=1, max_value=4))
def test_mean_difference_profile_matches_oracle_on_floats(values: np.ndarray, n: int) -> None:
    diffs = profile(values, n)
    expected = oracle_mean_difference_profile(values, n)
    scale = max(1.0, float(np.max(np.abs(values))))
    assert sorted(expected) == list(range(n, n + diffs.size))
    for center in expected:
        assert diffs[center - n] == pytest.approx(expected[center], abs=1e-9 * scale)


@given(integer_traces)
def test_profile_agrees_with_moving_means_at_every_center(values: np.ndarray) -> None:
    diffs = profile(values, 3)
    for center in range(3, values.size - 3):
        before, after = oracle_moving_means(values, center, 3)
        assert moving_means(values, center, 3) == (before, after)
        assert diffs[center - 3] == pytest.approx(after - before, abs=1e-9)


def test_constant_series_yields_no_events() -> None:
    series = series_at_20hz(np.full(200, 640.0))
    events = detect_base(series, HybridConfig())
    assert len(events) == 0
    assert events.indices.dtype == np.int64


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
    diffs = profile(values, 3)
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


@given(
    integer_traces,
    st.sampled_from([(4.0, 0.25), (20.0, 0.2), (10.0, 0.5), (20.0, 0.05)]),
    st.sampled_from([0.0, 0.1, -30.0, 1e9 + 0.05, 3600.0 * 24 * 365]),
)
def test_base_events_match_oracle_exactly_with_start_times_and_time_limits(
    values: np.ndarray, rate_and_limit: tuple[float, float], start_time_s: float
) -> None:
    # On the 4 Hz grid with no offset, neighbouring alarms are exactly
    # time_limit_s apart, which the strict comparison must suppress.
    rate, time_limit_s = rate_and_limit
    config = HybridConfig(time_limit_s=time_limit_s)
    series = SampleSeries(values, rate, start_time_s)
    events = detect_base(series, config)
    expected = oracle_base_events(
        values,
        rate,
        config.mean_window_samples(rate),
        config.power_threshold_watts,
        time_limit_s,
        start_time_s,
    )
    assert list(zip(events.indices.tolist(), events.timestamps_s.tolist(),
                    events.deltas_watts.tolist())) == expected
    assert [(e.index, e.timestamp_s, e.delta_watts) for e in events] == expected


def test_a_mean_change_of_exactly_the_threshold_does_not_alarm() -> None:
    # The 6-sample windows sum exactly, so a clean 25 W step gives |d| = 25
    # at most, which is not above the 25 W threshold; 25.5 W is.
    for step, expected in ((25.0, 0), (-25.0, 0), (25.5, 1), (-25.5, 1)):
        values = np.concatenate([np.full(100, 500.0), np.full(100, 500.0 + step)])
        assert len(detect_base(series_at_20hz(values), HybridConfig())) == expected, step


def test_alarms_exactly_one_time_limit_apart_are_suppressed() -> None:
    # A steep ramp alarms at every sample; at 4 Hz samples are exactly
    # 0.25 s apart, so with a 0.25 s limit every other alarm is emitted.
    series = SampleSeries(np.arange(40, dtype=float) * 100.0, 4.0)
    events = detect_base(series, HybridConfig(time_limit_s=0.25))
    assert events.indices.tolist() == list(range(1, 39, 2))
    assert np.all(np.diff(events.timestamps_s) == 0.5)


def six_hour_step_trace(level_watts: float) -> SampleSeries:
    """6 h at 60 Hz at a constant level, +100 W from 3 h on."""
    values = np.full(6 * 3600 * 60, level_watts)
    values[values.size // 2 :] += 100.0
    return SampleSeries(values, 60.0)


@pytest.mark.parametrize(
    "values",
    [
        np.full(400, 1.7e308),
        np.where(np.arange(400) >= 100, 1e300, -1e300),
    ],
    ids=["overflowing-sum", "huge-step"],
)
def test_magnitudes_the_window_sums_cannot_resolve_are_refused(values: np.ndarray) -> None:
    series = series_at_20hz(values)
    with pytest.raises(MagnitudeTooLarge, match="reaches the power threshold 25 W"):
        detect_base(series, HybridConfig())
    with pytest.raises(MagnitudeTooLarge):
        detect_hybrid(series, HybridConfig())
    with pytest.raises(MagnitudeTooLarge):
        lld_max(series, LldConfig(sigma_sq=1.0))


def test_a_long_trace_at_a_high_level_is_refused_and_a_lower_level_detected() -> None:
    # 1,296,000 samples * 1e12 W * eps = 288 W >= 25 W; at 1e10 W it is 2.9 W.
    with pytest.raises(MagnitudeTooLarge, match=r"1296000 \* 2.22045e-16 = 287\.77 W"):
        detect_base(six_hour_step_trace(1e12), HybridConfig())
    series = six_hour_step_trace(1e10)
    events = detect_hybrid(series, HybridConfig()).events
    assert len(events) == 1
    assert abs(events[0].timestamp_s - 3 * 3600.0) < 0.5
    assert events[0].delta_watts > 0


def test_lld_applies_the_magnitude_check_with_its_own_threshold() -> None:
    series = series_at_20hz(np.full(400, 1e13))  # bound 400 * 1e13 * eps = 0.89
    lld_max(series, LldConfig(sigma_sq=1.0, power_threshold_watts=1.0))
    with pytest.raises(MagnitudeTooLarge, match="reaches the power threshold 0.5 W"):
        lld_max(series, LldConfig(sigma_sq=1.0, power_threshold_watts=0.5))


def events_from_whole_profile(
    values: np.ndarray, rate: float, n: int, threshold: float, time_limit_s: float
) -> list[tuple[int, float, float]]:
    """Threshold and time-limit emission over the unblocked profile, one center at a time."""
    events: list[tuple[int, float, float]] = []
    last_time = -np.inf
    for position, delta in enumerate(profile(values, n).tolist()):
        timestamp = (position + n) / rate
        if abs(delta) > threshold and timestamp - last_time > time_limit_s:
            events.append((position + n, timestamp, delta))
            last_time = timestamp
    return events


def steps_on_block_edges(block: int, n: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """Noise plus steps whose first alarm falls on, just before or just after block edges.

    A large step starting at sample ``s`` first alarms at center ``s - n``,
    which is profile entry ``s - 2n``; entries ``0, block, 2 block, ...``
    start the blocks.
    """
    values = rng.normal(0.0, 3.0, size)
    level = 0.0
    for edge in range(block, size - 2 * n, max(block, 40)):
        for step_at in (edge + 2 * n - 1, edge + 2 * n, edge + 2 * n + 1):
            if step_at < size:
                level = 1000.0 - level
                values[step_at:] += level - 500.0
    return values


@pytest.mark.parametrize("n", [1, 3, 6])
def test_blocked_base_events_match_the_oracle_on_integers(
    small_blocks: int, n: int
) -> None:
    rng = np.random.default_rng(small_blocks * 10 + n)
    for size in (2 * n + 1, 2 * n + 2, 97, 300):
        values = np.round(steps_on_block_edges(small_blocks, n, size, rng))
        config = HybridConfig(mean_window_s=n / 20.0, time_limit_s=0.05)
        events = detect_base(series_at_20hz(values), config)
        expected = oracle_base_events(values, 20.0, n, 25.0, 0.05)
        assert list(zip(events.indices.tolist(), events.timestamps_s.tolist(),
                        events.deltas_watts.tolist())) == expected


@pytest.mark.parametrize("n", [1, 3, 6])
def test_blocked_base_events_match_the_whole_profile_on_floats(
    small_blocks: int, n: int
) -> None:
    rng = np.random.default_rng(small_blocks * 10 + n)
    for size in (2 * n + 1, 97, 300):
        values = steps_on_block_edges(small_blocks, n, size, rng) * np.pi
        config = HybridConfig(mean_window_s=n / 20.0, time_limit_s=0.05)
        events = detect_base(series_at_20hz(values), config)
        expected = events_from_whole_profile(values, 20.0, n, 25.0, 0.05)
        assert list(zip(events.indices.tolist(), events.timestamps_s.tolist(),
                        events.deltas_watts.tolist())) == expected
        assert len(events) > 0 or size == 2 * n + 1
