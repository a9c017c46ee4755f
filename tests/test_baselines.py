"""Comparison detector: likelihood maxima."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nilmevents import (
    DetectionError,
    LldConfig,
    NonFiniteValue,
    SampleSeries,
    SeriesTooShort,
    lld_max,
)
from nilmevents import baselines

from oracles import oracle_lld

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


def test_lld_config_validation() -> None:
    with pytest.raises(DetectionError):
        LldConfig(pre_window_samples=0)
    with pytest.raises(DetectionError):
        LldConfig(power_threshold_watts=0.0)
    with pytest.raises(DetectionError):
        LldConfig(maxima_precision_samples=0)


def test_lld_is_silent_when_mean_changes_stay_below_threshold() -> None:
    drift = np.arange(100, dtype=float)  # mean difference is 7 W everywhere
    assert len(lld_max(series_at_20hz(drift), LldConfig())) == 0


def test_lld_finds_exactly_one_event_on_a_clean_step() -> None:
    # The trace starts flat: there is no noise to estimate, and none is needed.
    events = lld_max(transitional_step(), LldConfig())
    assert [(e.index, e.delta_watts) for e in events] == [(301, 237.5)]
    assert events[0].timestamp_s == pytest.approx(15.05)


def test_lld_stays_silent_on_a_perfectly_symmetric_step() -> None:
    # The statistic is exactly tied on the two samples flanking an ideal
    # two-level step, and a tie has no strict maximum.  Any transitional
    # sample or noise breaks the tie; the pure idealization does not fire.
    t = np.arange(600) / 20.0
    values = np.where(t >= 15.0, 250.0, 0.0)
    assert len(lld_max(series_at_20hz(values), LldConfig())) == 0


def lld_oracle_pairs(values: np.ndarray) -> list[tuple[int, float]]:
    return oracle_lld(values, 6, 25.0, 10)


def test_lld_reports_neither_of_two_equal_maxima_inside_one_window() -> None:
    # A pulse mirror-symmetric about sample 303: |ds| at 303 - k equals
    # |ds| at 303 + k, and every such pair lies within the 10-sample window.
    values = np.zeros(600)
    values[300], values[301:306], values[306] = 75.0, 250.0, 75.0
    assert len(lld_max(series_at_20hz(values), LldConfig())) == 0
    assert lld_oracle_pairs(values) == []
    values[306] = 80.0  # breaks the symmetry, and with it the tie
    events = lld_max(series_at_20hz(values), LldConfig())
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
    events = lld_max(series_at_20hz(values), LldConfig())
    # Statistic positions 3 and 103 of 108: within 10 samples of each end.
    assert [(e.index, e.delta_watts) for e in events] == lld_oracle_pairs(values) == [
        (9, 237.5),
        (109, -235.0),
    ]


def test_lld_fires_repeatedly_on_a_long_ramp() -> None:
    t = np.arange(600) / 20.0
    ramp = np.clip((t - 10.0) / 3.0, 0.0, 1.0) * 600.0
    events = lld_max(series_at_20hz(ramp), LldConfig())
    assert len(events) >= 2
    assert all(10.0 <= e.timestamp_s <= 13.5 for e in events)


@given(integer_traces)
def test_lld_matches_oracle_exactly(values: np.ndarray) -> None:
    config = LldConfig()
    events = lld_max(series_at_20hz(values), config)
    expected = oracle_lld(
        values,
        config.pre_window_samples,
        config.power_threshold_watts,
        config.maxima_precision_samples,
    )
    assert [(e.index, e.delta_watts) for e in events] == expected


@given(integer_traces, st.integers(min_value=1, max_value=6))
def test_a_numpy_integer_window_gives_the_same_events(values: np.ndarray, window: int) -> None:
    series = series_at_20hz(values)
    expected = lld_max(series, LldConfig(pre_window_samples=window))
    events = lld_max(series, LldConfig(pre_window_samples=np.int64(window)))
    assert events.indices.tolist() == expected.indices.tolist()
    assert events.deltas_watts.tolist() == expected.deltas_watts.tolist()


@given(integer_traces, st.integers(min_value=1, max_value=12))
def test_lld_events_are_separated_by_more_than_the_precision_window(
    values: np.ndarray, precision: int
) -> None:
    config = LldConfig(maxima_precision_samples=precision)
    events = lld_max(series_at_20hz(values), config)
    for earlier, later in zip(events, events[1:]):
        assert later.index - earlier.index > precision


@given(integer_traces, st.sampled_from([0.5, 2.0, 4.0]))
def test_lld_is_covariant_under_power_of_two_rescaling(
    values: np.ndarray, factor: float
) -> None:
    base_config = LldConfig()
    scaled_config = LldConfig(power_threshold_watts=base_config.power_threshold_watts * factor)
    base_events = lld_max(series_at_20hz(values), base_config)
    scaled_events = lld_max(series_at_20hz(values * factor), scaled_config)
    assert [e.index for e in scaled_events] == [e.index for e in base_events]
    for scaled, original in zip(scaled_events, base_events):
        assert scaled.delta_watts == original.delta_watts * factor


def test_lld_requires_both_windows_to_fit() -> None:
    with pytest.raises(SeriesTooShort):
        lld_max(series_at_20hz(np.zeros(12)), LldConfig())


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")], ids=str)
@pytest.mark.parametrize("name", ["power_threshold_watts"])
def test_lld_config_names_non_finite_settings_as_not_finite(name: str, value: float) -> None:
    with pytest.raises(NonFiniteValue) as excinfo:
        LldConfig(**{name: value})
    assert str(excinfo.value) == f"{name} must be finite, got {value}"


@pytest.mark.parametrize("value", [0.0, -1.0])
def test_lld_config_keeps_its_messages_for_zero_and_negative_settings(value: float) -> None:
    with pytest.raises(DetectionError) as excinfo:
        LldConfig(power_threshold_watts=value)
    assert not isinstance(excinfo.value, NonFiniteValue)
    assert str(excinfo.value) == f"power_threshold_watts must be positive, got {value}"


@pytest.mark.parametrize(
    ("name", "value"), [("pre_window_samples", 6.5), ("maxima_precision_samples", 2.5)]
)
def test_lld_config_rejects_sample_counts_that_are_not_integers(name: str, value: float) -> None:
    with pytest.raises(DetectionError) as excinfo:
        LldConfig(**{name: value})
    assert str(excinfo.value) == f"{name} must be an integer, got {value}"
