"""Derivatives, LOESS smoothing, extrema, and transient merging."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from nilmevents import (
    Events,
    HybridConfig,
    InvalidWindow,
    MisalignedInput,
    SampleSeries,
    SeriesTooShort,
    detect_base,
    detect_extrema,
    first_derivative,
    loess_smooth,
    merge_transient_events,
)
from nilmevents.derivative import _fit_local_linear, _tricube_weights

from oracles import (
    oracle_extrema,
    oracle_first_derivative,
    oracle_loess,
    oracle_merge,
)
from replicas import run_replica

float_traces = st.lists(
    st.floats(min_value=-1e5, max_value=1e5, allow_nan=False), min_size=3, max_size=200
).map(np.array)


def series_at_20hz(values: np.ndarray) -> SampleSeries:
    return SampleSeries(values, 20.0)


def events_at(indices: list[int], series: SampleSeries) -> Events:
    return Events(indices, [series.time_at(i) for i in indices], [10.0] * len(indices))


def test_first_derivative_of_constant_is_zero() -> None:
    np.testing.assert_array_equal(first_derivative(np.full(20, 42.0)), np.zeros(20))


def test_first_derivative_of_ramp_is_the_increment() -> None:
    result = first_derivative(np.arange(30) * 2.5)
    np.testing.assert_allclose(result[1:], 2.5)
    assert result[0] == 0.0


def test_first_derivative_worked_example() -> None:
    result = first_derivative(np.array([0.0, 2.0, 6.0, 6.0]))
    np.testing.assert_array_equal(result, [0.0, 2.0, 4.0, 0.0])


def test_first_derivative_input_validation() -> None:
    with pytest.raises(SeriesTooShort):
        first_derivative(np.array([1.0]))


@given(float_traces)
def test_first_derivative_matches_oracle_exactly(values: np.ndarray) -> None:
    assert np.array_equal(first_derivative(values), oracle_first_derivative(values, 1.0))


def test_loess_keeps_constants() -> None:
    smoothed = loess_smooth(np.full(60, 13.5), 9)
    np.testing.assert_allclose(smoothed, 13.5, rtol=1e-12)


def test_loess_reproduces_lines() -> None:
    line = np.arange(80) * 0.7 - 5.0
    smoothed = loess_smooth(line, 11)
    np.testing.assert_allclose(smoothed, line, rtol=1e-9, atol=1e-9)


def test_loess_window_validation() -> None:
    with pytest.raises(InvalidWindow):
        loess_smooth(np.zeros(30), 4)
    with pytest.raises(InvalidWindow):
        loess_smooth(np.zeros(30), 1)
    with pytest.raises(InvalidWindow):
        loess_smooth(np.zeros(30), 31)


@given(
    st.lists(st.floats(min_value=-100.0, max_value=100.0), min_size=12, max_size=60).map(np.array),
    st.sampled_from([5, 7, 9, 11]),
)
def test_loess_matches_per_point_weighted_fit(values: np.ndarray, window: int) -> None:
    assume(window <= values.size)
    smoothed = loess_smooth(values, window)
    expected = oracle_loess(values, window)
    np.testing.assert_allclose(smoothed, expected, rtol=1e-8, atol=1e-8)


@pytest.mark.parametrize("window", [3, 21, 129])
def test_blocked_loess_equals_the_whole_array_convolution_and_edge_fits(
    small_blocks: int, window: int
) -> None:
    half = window // 2
    kernel = _tricube_weights(np.arange(-half, half + 1), half)
    kernel /= kernel.sum()
    rng = np.random.default_rng(window)
    for size in (window, window + 1, 500):
        values = rng.normal(0.0, 50.0, size)
        smoothed = loess_smooth(values, window)
        interior = slice(half, size - half)
        assert np.array_equal(smoothed[interior], np.convolve(values, kernel, "same")[interior])
        edge_indices = [*range(half), *range(size - half, size)]
        assert np.array_equal(
            smoothed[edge_indices], [_fit_local_linear(values, i, half) for i in edge_indices]
        )


def test_loess_reduces_noise_variance_on_step_plateaus() -> None:
    rng = np.random.default_rng(42)
    t = np.arange(1200) / 20.0
    clean = np.where(t >= 30.0, 100.0, 0.0)
    noisy = clean + rng.uniform(-5.0, 5.0, size=t.size)
    smoothed = loess_smooth(noisy, 41)
    for plateau in (slice(50, 550), slice(650, 1150)):
        assert np.var(smoothed[plateau]) < np.var(noisy[plateau])


def test_single_peak_and_valley() -> None:
    peaks = detect_extrema(np.array([1.0, 3.0, 2.0]))
    assert peaks.dtype == np.int64
    assert peaks.tolist() == [1]
    assert detect_extrema(np.array([3.0, 1.0, 2.0])).tolist() == [1]


def test_monotone_and_plateau_sequences_have_no_extrema() -> None:
    assert detect_extrema(np.arange(10, dtype=float)).size == 0
    assert detect_extrema(np.array([0.0, 1.0, 1.0, 0.0])).size == 0


def test_extrema_magnitude_screen() -> None:
    values = np.array([0.0, 0.3, 0.0, -0.2, 0.0, 5.0, 0.0])
    assert detect_extrema(values).tolist() == [1, 3, 5]
    assert detect_extrema(values, min_abs_value=0.5).tolist() == [5]


def test_extrema_need_three_samples() -> None:
    with pytest.raises(SeriesTooShort):
        detect_extrema(np.array([1.0, 2.0]))


EPSILON = 0.5
# Samples on a small grid that includes +-epsilon and its neighbouring
# floats, so that plateaus, values exactly at the threshold and extrema
# next to either end all come up often.
grid_traces = st.lists(
    st.sampled_from(
        [
            0.0,
            0.25,
            -0.25,
            EPSILON,
            -EPSILON,
            np.nextafter(EPSILON, np.inf),
            np.nextafter(-EPSILON, -np.inf),
            np.nextafter(EPSILON, 0.0),
            1.0,
            -1.0,
        ]
    ),
    min_size=3,
    max_size=12,
).map(np.array)


@given(float_traces | grid_traces, st.sampled_from([None, EPSILON, 0.0, 7.5]))
def test_extrema_match_oracle_exactly(values: np.ndarray, min_abs_value: float | None) -> None:
    expected = [
        index
        for index, _, value in oracle_extrema(values)
        if min_abs_value is None or abs(value) > min_abs_value
    ]
    assert detect_extrema(values, min_abs_value).tolist() == expected


@given(st.lists(st.integers(min_value=-50, max_value=50).filter(bool), min_size=3, max_size=80))
def test_extrema_alternate_when_no_neighbours_are_equal(increments: list[int]) -> None:
    values = np.cumsum(np.array(increments, dtype=float))
    peaks = [values[i] > values[i - 1] for i in detect_extrema(values)]
    for first, second in zip(peaks, peaks[1:]):
        assert first != second


def test_candidates_with_a_settled_gap_are_both_kept() -> None:
    series = series_at_20hz(np.zeros(200))
    smoothed = np.zeros(200)
    candidates = events_at([10, 110], series)
    survivors = merge_transient_events(candidates, smoothed, series, HybridConfig())
    assert survivors.dtype == np.int64
    assert survivors.tolist() == [0, 1]


def test_candidates_on_one_unsettled_transient_collapse_to_the_first() -> None:
    series = series_at_20hz(np.zeros(200))
    busy = np.full(200, 1.0)  # |derivative| never drops below epsilon
    candidates = events_at([20, 45, 60, 88, 105, 130], series)
    survivors = merge_transient_events(candidates, busy, series, HybridConfig())
    assert candidates[survivors].indices.tolist() == [20]


def test_a_derivative_of_exactly_epsilon_is_not_settled() -> None:
    # |s| < epsilon is strict on both signs; just inside it, the gap settles.
    series = series_at_20hz(np.zeros(200))
    candidates = events_at([10, 110], series)
    epsilon = HybridConfig().derivative_epsilon
    for level, expected in ((epsilon, [10]), (-epsilon, [10]), (-0.99 * epsilon, [10, 110])):
        smoothed = np.full(200, level)
        survivors = merge_transient_events(candidates, smoothed, series, HybridConfig())
        assert candidates[survivors].indices.tolist() == expected, level


def test_settled_run_must_exceed_the_settle_threshold() -> None:
    # 1.95 s of calm between the candidates is not enough at Th = 2 s,
    # nor is exactly 2 s (the comparison is strict); 2.05 s is.
    series = series_at_20hz(np.zeros(300))
    for calm_samples, expected in ((39, [50]), (40, [50]), (41, [50, 150])):
        smoothed = np.full(300, 1.0)
        smoothed[60 : 60 + calm_samples] = 0.0
        candidates = events_at([50, 150], series)
        survivors = merge_transient_events(candidates, smoothed, series, HybridConfig())
        assert candidates[survivors].indices.tolist() == expected, calm_samples


def test_merge_input_validation() -> None:
    series = series_at_20hz(np.zeros(100))
    good = events_at([5, 50], series)
    with pytest.raises(MisalignedInput):
        merge_transient_events(good, np.zeros(99), series, HybridConfig())
    with pytest.raises(MisalignedInput):
        merge_transient_events(good[::-1], np.zeros(100), series, HybridConfig())
    with pytest.raises(MisalignedInput):
        merge_transient_events(events_at([5, 99, 99], series),
                               np.zeros(100), series, HybridConfig())
    with pytest.raises(MisalignedInput):
        merge_transient_events(events_at([5, 100], series), np.zeros(100), series, HybridConfig())


@st.composite
def settled_run_cases(draw) -> tuple[list[int], np.ndarray]:
    """Settled runs near the 40-sample threshold, with candidates at their edges.

    Run lengths include exactly 40 samples (2.0 s at 20 Hz, which must
    not separate) and 41.  Either end of the trace may be settled, and
    candidates sit on run boundaries, one sample either side of them, at
    the trace ends, or right next to another candidate.
    """
    lengths = draw(st.lists(st.sampled_from([1, 2, 39, 40, 41, 42, 60]), min_size=1, max_size=8))
    settled = draw(st.booleans())
    values: list[float] = []
    for length in lengths:
        values += [0.0 if settled else 1.4] * length
        settled = not settled
    tail = 0.0 if draw(st.booleans()) else 1.4
    smoothed = np.array((values + [tail] * 200)[:200])
    edges = np.cumsum([0] + lengths)
    near_edges = sorted({int(e) + d for e in edges for d in (-1, 0, 1) if 0 <= e + d < 200})
    spots = st.sampled_from(near_edges + [0, 199]) | st.integers(min_value=0, max_value=199)
    chosen = draw(st.lists(spots, min_size=1, max_size=8))
    if draw(st.booleans()):
        chosen += [i + 1 for i in chosen if i < 199]
    return sorted(set(chosen)), smoothed


merge_cases = st.tuples(
    st.lists(st.integers(min_value=0, max_value=199), unique=True, min_size=1, max_size=8).map(
        sorted
    ),
    st.lists(
        st.sampled_from([0.0, 0.0, 0.0, 0.1, 0.7, 1.4, -1.0]), min_size=200, max_size=200
    ).map(np.array),
) | settled_run_cases()


@given(merge_cases)
def test_merge_agrees_with_oracle_and_never_adds_events(case) -> None:
    indices, smoothed = case
    series = series_at_20hz(np.zeros(200))
    config = HybridConfig()
    candidates = events_at(indices, series)
    survivors = candidates[merge_transient_events(candidates, smoothed, series, config)]
    expected = oracle_merge(
        [(i, series.time_at(i)) for i in indices],
        smoothed,
        20.0,
        config.derivative_epsilon,
        config.settle_threshold_s,
    )
    assert survivors.indices.tolist() == expected
    assert set(e.index for e in survivors) <= set(indices)
    assert len(survivors) <= len(candidates)
    assert survivors[0].index == indices[0]


@given(merge_cases)
def test_merge_is_idempotent(case) -> None:
    indices, smoothed = case
    series = series_at_20hz(np.zeros(200))
    config = HybridConfig()
    candidates = events_at(indices, series)
    once = candidates[merge_transient_events(candidates, smoothed, series, config)]
    again = merge_transient_events(once, smoothed, series, config)
    assert again.tolist() == list(range(len(once)))


@given(st.floats(min_value=30.0, max_value=2000.0), st.integers(min_value=100, max_value=500))
def test_isolated_clean_step_survives_the_whole_derivative_chain(
    magnitude: float, step_index: int
) -> None:
    values = np.zeros(600)
    values[step_index:] = magnitude
    series = series_at_20hz(values)
    config = HybridConfig()
    base = detect_base(series, config)
    smoothed = loess_smooth(first_derivative(values), config.loess_window_samples(20.0))
    merged = base[merge_transient_events(base, smoothed, series, config)]
    assert len(merged) == 1
    assert merged[0].index == base[0].index
    assert abs(merged[0].index - step_index) <= 6


def test_ramp_alarms_collapse_to_one_event_at_the_first_alarm() -> None:
    run = run_replica("rangehood")
    assert run.result.stage_counts.base == 11
    assert run.result.merged_positions.tolist() == [0]
    assert run.result.merged_events[0] == run.result.base_events[0]
