"""Comparison detectors: cumulative-sum traces and likelihood maxima."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nilmevents import (
    CusumVariant,
    DetectionError,
    LldConfig,
    NonPositiveVariance,
    SampleSeries,
    SeriesTooShort,
    cusum,
    lld_max,
)
from nilmevents import baselines

from oracles import oracle_cusum, oracle_lld

float_traces = st.lists(
    st.floats(min_value=-1e4, max_value=1e4, allow_nan=False), min_size=1, max_size=150
).map(np.array)

integer_traces = st.lists(
    st.integers(min_value=0, max_value=3000), min_size=13, max_size=150
).map(lambda xs: np.array(xs, dtype=float))


def series_at_20hz(values: np.ndarray) -> SampleSeries:
    return SampleSeries(values, 20.0)


def transitional_step(level: float = 250.0) -> SampleSeries:
    """Quiet, one mid-transition sample, then a steady plateau."""
    values = np.zeros(600)
    values[300] = 0.3 * level
    values[301:] = level
    return series_at_20hz(values)


def test_cusum_of_constant_series_is_zero() -> None:
    trace = cusum(series_at_20hz(np.full(50, 640.0)), 6)
    np.testing.assert_array_equal(trace, np.zeros(50))


def test_cusum_worked_example() -> None:
    trace = cusum(series_at_20hz(np.array([0.0, 0.0, 4.0, 4.0])), 2)
    np.testing.assert_array_equal(trace, [0.0, -2.0, -2.0, -2.0])


@given(float_traces, st.integers(min_value=1, max_value=10))
def test_squared_cusum_is_monotone_non_decreasing(values: np.ndarray, n: int) -> None:
    if n > values.size:
        n = values.size
    trace = cusum(series_at_20hz(values), n, CusumVariant.SQUARED)
    assert np.all(np.diff(trace) >= 0.0)


@given(float_traces, st.integers(min_value=1, max_value=10), st.sampled_from(CusumVariant))
def test_cusum_matches_oracle_exactly(
    values: np.ndarray, n: int, variant: CusumVariant
) -> None:
    if n > values.size:
        n = values.size
    trace = cusum(series_at_20hz(values), n, variant)
    expected = oracle_cusum(values, n, squared=variant is CusumVariant.SQUARED)
    assert np.array_equal(trace, expected)


@given(float_traces)
def test_cusum_with_unit_window_is_identically_zero(values: np.ndarray) -> None:
    trace = cusum(series_at_20hz(values), 1)
    np.testing.assert_array_equal(trace, np.zeros(values.size))


@given(integer_traces, st.sampled_from([1, 2, 4, 8]))
def test_cusum_increments_telescope_exactly_on_dyadic_means(
    values: np.ndarray, n: int
) -> None:
    # With integer samples and a power-of-two window every full-window
    # forward mean is dyadic, so accumulation is exact and each trace
    # increment equals the deviation it came from.  Tail indices shrink
    # the window to sizes that are not powers of two; the bit-exact
    # oracle comparison covers those.
    trace = cusum(series_at_20hz(values), n)
    for i in range(1, values.size - n + 1):
        mean_i = np.sum(values[i : i + n]) / n
        assert trace[i] - trace[i - 1] == values[i] - mean_i


def test_cusum_window_validation() -> None:
    series = series_at_20hz(np.zeros(10))
    with pytest.raises(DetectionError):
        cusum(series, 0)
    with pytest.raises(SeriesTooShort):
        cusum(series, 11)


def test_lld_config_validation() -> None:
    with pytest.raises(DetectionError):
        LldConfig(pre_window_samples=0)
    with pytest.raises(DetectionError):
        LldConfig(power_threshold_watts=0.0)
    with pytest.raises(DetectionError):
        LldConfig(maxima_precision_samples=0)
    with pytest.raises(NonPositiveVariance):
        LldConfig(sigma_sq=0.0)
    with pytest.raises(NonPositiveVariance):
        LldConfig(sigma_sq=-1.0)


def test_lld_is_silent_when_mean_changes_stay_below_threshold() -> None:
    drift = np.arange(100, dtype=float)  # mean difference is 7 W everywhere
    assert len(lld_max(series_at_20hz(drift), LldConfig(sigma_sq=1.0))) == 0


def test_lld_finds_exactly_one_event_on_a_clean_step() -> None:
    events = lld_max(transitional_step(), LldConfig(sigma_sq=1.0))
    assert [(e.index, e.delta_watts) for e in events] == [(301, 237.5)]
    assert events[0].timestamp_s == pytest.approx(15.05)


def test_lld_stays_silent_on_a_perfectly_symmetric_step() -> None:
    # The statistic is exactly tied on the two samples flanking an ideal
    # two-level step, and a tie has no strict maximum.  Any transitional
    # sample or noise breaks the tie; the pure idealization does not fire.
    t = np.arange(600) / 20.0
    values = np.where(t >= 15.0, 250.0, 0.0)
    assert len(lld_max(series_at_20hz(values), LldConfig(sigma_sq=1.0))) == 0


def lld_oracle_pairs(values: np.ndarray) -> list[tuple[int, float]]:
    return oracle_lld(values, 20.0, 6, 25.0, 10, 1.0)


def test_lld_reports_neither_of_two_equal_maxima_inside_one_window() -> None:
    # A pulse mirror-symmetric about sample 303: |ds| at 303 - k equals
    # |ds| at 303 + k, and every such pair lies within the 10-sample window.
    values = np.zeros(600)
    values[300], values[301:306], values[306] = 75.0, 250.0, 75.0
    assert len(lld_max(series_at_20hz(values), LldConfig(sigma_sq=1.0))) == 0
    assert lld_oracle_pairs(values) == []
    values[306] = 80.0  # breaks the symmetry, and with it the tie
    events = lld_max(series_at_20hz(values), LldConfig(sigma_sq=1.0))
    assert [(e.index, e.delta_watts) for e in events] == lld_oracle_pairs(values) == [
        (301, 167.5)
    ]


@pytest.mark.parametrize("block", [1, 21, 64, 1 << 14])
def test_lld_finds_maxima_within_the_precision_window_of_either_end(
    monkeypatch: pytest.MonkeyPatch, block: int
) -> None:
    # Candidates are compared in chunks of block // 21 rows (at least one).
    monkeypatch.setattr(baselines, "_BLOCK_SAMPLES", block)
    values = np.zeros(120)
    values[8], values[9:111], values[110] = 75.0, 250.0, 90.0
    values[111:] = 0.0
    events = lld_max(series_at_20hz(values), LldConfig(sigma_sq=1.0))
    # Statistic positions 3 and 103 of 108: within 10 samples of each end.
    assert [(e.index, e.delta_watts) for e in events] == lld_oracle_pairs(values) == [
        (9, 237.5),
        (109, -235.0),
    ]


def test_lld_fires_repeatedly_on_a_long_ramp() -> None:
    t = np.arange(600) / 20.0
    ramp = np.clip((t - 10.0) / 3.0, 0.0, 1.0) * 600.0
    events = lld_max(series_at_20hz(ramp), LldConfig(sigma_sq=1.0))
    assert len(events) >= 2
    assert all(10.0 <= e.timestamp_s <= 13.5 for e in events)


@given(integer_traces)
def test_lld_matches_oracle_exactly(values: np.ndarray) -> None:
    config = LldConfig(sigma_sq=1.0)
    events = lld_max(series_at_20hz(values), config)
    expected = oracle_lld(
        values, 20.0, config.pre_window_samples, config.power_threshold_watts,
        config.maxima_precision_samples, 1.0,
    )
    assert [(e.index, e.delta_watts) for e in events] == expected


@given(integer_traces, st.integers(min_value=1, max_value=12))
def test_lld_events_are_separated_by_more_than_the_precision_window(
    values: np.ndarray, precision: int
) -> None:
    config = LldConfig(maxima_precision_samples=precision, sigma_sq=1.0)
    events = lld_max(series_at_20hz(values), config)
    for earlier, later in zip(events, events[1:]):
        assert later.index - earlier.index > precision


@given(integer_traces, st.sampled_from([0.5, 2.0, 4.0]))
def test_lld_is_covariant_under_power_of_two_rescaling(
    values: np.ndarray, factor: float
) -> None:
    base_config = LldConfig(sigma_sq=1.0)
    scaled_config = LldConfig(
        power_threshold_watts=base_config.power_threshold_watts * factor,
        sigma_sq=factor * factor,
    )
    base_events = lld_max(series_at_20hz(values), base_config)
    scaled_events = lld_max(series_at_20hz(values * factor), scaled_config)
    assert [e.index for e in scaled_events] == [e.index for e in base_events]
    for scaled, original in zip(scaled_events, base_events):
        assert scaled.delta_watts == original.delta_watts * factor


def test_lld_estimates_variance_from_the_leading_window() -> None:
    rng = np.random.default_rng(3)
    values = np.where(np.arange(400) >= 200, 500.0, 0.0) + rng.normal(0.0, 2.0, 400)
    implied = lld_max(series_at_20hz(values), LldConfig())
    explicit = lld_max(
        series_at_20hz(values), LldConfig(sigma_sq=float(np.var(values[:6])))
    )
    assert [(e.index, e.delta_watts) for e in implied] == [
        (e.index, e.delta_watts) for e in explicit
    ]
    assert implied  # the step is found


def test_lld_rejects_flat_leading_window_without_explicit_variance() -> None:
    t = np.arange(600) / 20.0
    values = np.where(t >= 15.0, 250.0, 0.0)
    with pytest.raises(NonPositiveVariance):
        lld_max(series_at_20hz(values), LldConfig())


def test_lld_requires_both_windows_to_fit() -> None:
    with pytest.raises(SeriesTooShort):
        lld_max(series_at_20hz(np.zeros(12)), LldConfig(sigma_sq=1.0))
