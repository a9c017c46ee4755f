"""Moving-average change detection and alarm clustering."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given
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
from nilmevents import base, core
from nilmevents.base import (
    _mean_difference_profile,
    _rounding_margin,
    _tested_entries,
    _window_sums,
)

from blocks import BLOCK_SIZES, PROOF_BLOCK_SIZES, use_blocks
from oracles import (
    oracle_base_events,
    oracle_mean_difference_profile,
    oracle_moving_means,
    oracle_window_sums,
)

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


def profile(values: np.ndarray, n: int) -> np.ndarray:
    """The whole mean-difference profile; entry ``k`` belongs to center ``n + k``."""
    return _mean_difference_profile(values, n)


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
        lld_max(series, LldConfig())


def test_a_long_trace_at_a_high_level_is_refused_and_a_lower_level_detected() -> None:
    # With n = 18 the margin r is 28.0 W at 3e15 W, whatever the length of the
    # trace, and 0.0093 W at 1e12 W.
    with pytest.raises(
        MagnitudeTooLarge,
        match=r"r = 27\.9776 W of 18-sample window sums at peak \|x\| = 3e\+15 W "
        "reaches the power threshold 25 W",
    ):
        detect_base(six_hour_step_trace(3e15), HybridConfig())
    for level in (1e10, 1e12):
        events = detect_hybrid(six_hour_step_trace(level), HybridConfig()).events
        assert len(events) == 1, level
        assert abs(events[0].timestamp_s - 3 * 3600.0) < 0.5
        assert events[0].delta_watts > 0


def test_lld_applies_the_magnitude_check_with_its_own_threshold() -> None:
    # LLD's margin is that of its own pre_window_samples = 6: 0.80 W at 2e14 W.
    series = series_at_20hz(np.full(400, 2e14))
    assert 0.5 <= _rounding_margin(2e14, 6) < 1.0
    lld_max(series, LldConfig(power_threshold_watts=1.0))
    with pytest.raises(
        MagnitudeTooLarge, match=r"of 6-sample window sums .* reaches the power threshold 0\.5 W"
    ):
        lld_max(series, LldConfig(power_threshold_watts=0.5))


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


# --- Window sums from their own samples, and quiet blocks --------------------
#
# Every window is summed from its own samples in the doubling order, so a mean
# difference is a pure function of the samples it reads.  It is at most their
# range plus the rounding margin r; detection tests the threshold only on proof
# blocks of centres where range + r does not stay below it.


def event_triples(events) -> list[tuple[int, float, float]]:
    return list(
        zip(events.indices.tolist(), events.timestamps_s.tolist(), events.deltas_watts.tolist())
    )


@st.composite
def steady_traces(draw) -> np.ndarray:
    """A level with a little noise, broken by a few steps and ramps."""
    size = draw(st.integers(min_value=13, max_value=600))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    noise = draw(st.sampled_from([0.0, 0.01, 0.5, 4.0]))
    x = draw(st.floats(min_value=-1e4, max_value=1e4)) + noise * rng.standard_normal(size)
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        at = draw(st.integers(min_value=0, max_value=size - 1))
        height = draw(st.floats(min_value=-2000.0, max_value=2000.0))
        ramp = draw(st.integers(min_value=0, max_value=30))
        x[at:] += height * np.minimum(1.0, (np.arange(size - at) + 1.0) / (ramp + 1.0))
    return x


def detect_with_blocks(
    values: np.ndarray, config: HybridConfig, block: int, proof_block: int
) -> list[tuple[int, float, float]]:
    with pytest.MonkeyPatch.context() as monkeypatch:
        use_blocks(monkeypatch, block)
        monkeypatch.setattr(base, "_PROOF_BLOCK_SAMPLES", proof_block)
        return event_triples(detect_base(series_at_20hz(values), config))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 18, 64, 300])
def test_window_sums_match_the_doubling_oracle_bit_for_bit(small_blocks: int, n: int) -> None:
    rng = np.random.default_rng(n)
    size = 2 * n + 1 + 3 * small_blocks + 17  # three blocks of entries and a partial one
    values = rng.normal(0.0, 1.0, size) * 10.0 ** rng.uniform(-3.0, 5.0, size)
    sums = oracle_window_sums(values, n)
    entries = size - 2 * n
    before_sums, after_sums = _window_sums(values, n)
    assert before_sums.tolist() == sums[:entries]
    assert after_sums.tolist() == sums[n + 1 :]
    # Nearly every centre alarms and every alarm is emitted, so the blocked
    # detector reports nearly the whole profile.
    threshold = 1e-6
    config = HybridConfig(
        mean_window_s=n / 20.0, power_threshold_watts=threshold, time_limit_s=0.01
    )
    events = detect_base(series_at_20hz(values), config)
    diffs = [(sums[k + n + 1] - sums[k]) / n for k in range(entries)]
    expected = [(n + k, delta) for k, delta in enumerate(diffs) if abs(delta) > threshold]
    assert list(zip(events.indices.tolist(), events.deltas_watts.tolist())) == expected


@given(
    float_traces | steady_traces(),
    st.integers(min_value=0, max_value=60),
    st.sampled_from(BLOCK_SIZES),
    st.sampled_from(PROOF_BLOCK_SIZES),
    st.sampled_from(BLOCK_SIZES),
    st.sampled_from(PROOF_BLOCK_SIZES),
    st.integers(min_value=1, max_value=6),
    st.sampled_from([2.0, 25.0, 300.0]),
)
def test_deltas_from_a_later_start_are_the_same_bit_for_bit(
    values: np.ndarray,
    offset: int,
    block: int,
    proof_block: int,
    tail_block: int,
    tail_proof_block: int,
    n: int,
    threshold: float,
) -> None:
    """The deltas of ``x[a:]`` are those of ``x`` at centres ``>= a + n``, for any block sizes."""
    assume(values.size - offset >= 2 * n + 1)
    config = HybridConfig(
        mean_window_s=n / 20.0, power_threshold_watts=threshold, time_limit_s=0.01
    )
    whole = detect_with_blocks(values, config, block, proof_block)
    tail = detect_with_blocks(values[offset:], config, tail_block, tail_proof_block)
    assert [(index + offset, delta) for index, _, delta in tail] == [
        (index, delta) for index, _, delta in whole if index >= offset + n
    ]


@given(
    steady_traces(),
    st.sampled_from(BLOCK_SIZES),
    st.sampled_from(PROOF_BLOCK_SIZES),
    st.integers(min_value=1, max_value=6),
    st.sampled_from([2.0, 25.0, 300.0]),
)
def test_skipping_quiet_blocks_gives_the_whole_profile_events(
    values: np.ndarray, block: int, proof_block: int, n: int, threshold: float
) -> None:
    assume(values.size >= 2 * n + 1)
    config = HybridConfig(
        mean_window_s=n / 20.0, power_threshold_watts=threshold, time_limit_s=0.05
    )
    expected = events_from_whole_profile(values, 20.0, n, threshold, 0.05)
    assert detect_with_blocks(values, config, block, proof_block) == expected


@given(
    integer_traces | steady_traces().map(np.round),
    st.sampled_from(BLOCK_SIZES),
    st.sampled_from(PROOF_BLOCK_SIZES),
    st.integers(min_value=1, max_value=4),
)
def test_skipping_quiet_blocks_matches_the_oracle_on_integers(
    values: np.ndarray, block: int, proof_block: int, n: int
) -> None:
    assume(values.size >= 2 * n + 1)
    config = HybridConfig(mean_window_s=n / 20.0, time_limit_s=0.05)
    expected = oracle_base_events(values, 20.0, n, 25.0, 0.05)
    assert detect_with_blocks(values, config, block, proof_block) == expected


@given(
    float_traces,
    st.integers(min_value=1, max_value=20),
    st.sampled_from([1.0, 1e-3, 1e6, 1e12]),
)
def test_mean_differences_stay_within_their_window_range_plus_the_margin(
    values: np.ndarray, n: int, scale: float
) -> None:
    assume(values.size >= 2 * n + 1)
    x = values * scale
    peak = max(float(x.max()), -float(x.min()))
    margin = _rounding_margin(peak, n)
    for k, delta in enumerate(profile(x, n).tolist()):
        window = x[k : k + 2 * n + 1]
        assert abs(delta) <= (window.max() - window.min()) + margin, k


@pytest.mark.parametrize("side", ["below", "above"])
def test_a_range_one_ulp_from_threshold_minus_the_margin_gives_the_whole_profile_events(
    side: str, monkeypatch: pytest.MonkeyPatch
) -> None:
    """A block whose range is one ulp below threshold - r is skipped, one ulp above tested."""
    monkeypatch.setattr(base, "_PROOF_BLOCK_SAMPLES", 32)
    n = 3
    x = 230.0 + np.random.default_rng(8).normal(0.0, 0.01, 640)
    x[100:] += 400.0
    x[400:] += 3.0  # inside block 12: centres [384, 416), profile entries [381, 413)
    low, high = core._block_ranges(x, 32, n, n)
    edge = (high[12] - low[12]) + _rounding_margin(max(high.max(), -low.min()), n)
    threshold = float(np.nextafter(edge, np.inf if side == "below" else -np.inf))
    tested = {k for start, stop in _tested_entries(x, n, threshold) for k in range(start, stop)}
    block_entries = set(range(381, 413))
    assert (block_entries <= tested) == (side == "above")
    assert block_entries.isdisjoint(tested) == (side == "below")
    assert set(range(100 - 2 * n, 100)) <= tested  # the 400 W step is tested either way
    config = HybridConfig(
        mean_window_s=n / 20.0, power_threshold_watts=threshold, time_limit_s=0.05
    )
    events = event_triples(detect_base(series_at_20hz(x), config))
    assert events == events_from_whole_profile(x, 20.0, n, threshold, 0.05)
    assert events


def test_a_margin_that_reaches_the_threshold_is_refused(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    # r is about 4 (n + 3) u peak whatever the trace length: on 17 samples with
    # n = 6 it is 25.6 W at 6.4e15 W, and rounding alone could alarm, so even
    # this short trace is refused.  At 6.0e15 W r is 24.0 W: the flat blocks
    # are proven quiet, and the step's blocks give the whole-profile events.
    monkeypatch.setattr(base, "_PROOF_BLOCK_SAMPLES", 1)

    def stepped(level: float) -> np.ndarray:
        x = np.full(17, level)
        x[9:] += 100.0
        return x

    assert _rounding_margin(6.4e15 + 100.0, 6) >= 25.0 > _rounding_margin(6.0e15 + 100.0, 6)
    with pytest.raises(MagnitudeTooLarge, match="reaches the power threshold 25 W"):
        _tested_entries(stepped(6.4e15), 6, 25.0)
    with pytest.raises(MagnitudeTooLarge):
        detect_base(series_at_20hz(stepped(6.4e15)), HybridConfig())
    assert _tested_entries(np.full(17, 6.0e15), 6, 25.0) == []
    events = event_triples(detect_base(series_at_20hz(stepped(6.0e15)), HybridConfig()))
    assert events == events_from_whole_profile(stepped(6.0e15), 20.0, 6, 25.0, 0.2)
    assert events
