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
    detect_hybrid,
    first_derivative,
    generate_scenario,
    load_trace,
    loess_smooth,
    merge_transient_events,
    smoothed_derivative,
    write_trace,
)
from nilmevents import derivative
from nilmevents.core import _Ranges, _union
from nilmevents.derivative import (
    _SmoothedDerivative,
    _edge_rows,
    _loess_kernel,
    _longest_settled,
    _tricube_weights,
)

from blocks import BLOCK_SIZES, use_blocks
from oracles import (
    oracle_extrema,
    oracle_first_derivative,
    oracle_loess,
    oracle_merge,
)
from replicas import replica_config, replica_spec, run_replica

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
        rows = _edge_rows(half)
        assert np.array_equal(smoothed[:half], (rows * values[: 2 * half]).sum(axis=1))
        tail = (rows[::-1, ::-1] * values[size - 2 * half :]).sum(axis=1)
        assert np.array_equal(smoothed[size - half :], tail)


@pytest.mark.parametrize("half", [1, 2, 3, 10, 60])
def test_loess_edge_rows_are_the_truncated_window_least_squares_fits(half: int) -> None:
    # A 3-sample window (half 1) weights one sample per edge fit, where the
    # weighted normal equations are singular; lstsq's fit is that sample.
    values = np.random.default_rng(half).normal(0.0, 50.0, 2 * half)
    expected = []
    for i in range(half):
        offsets = np.arange(i + half + 1) - i
        sw = np.sqrt(_tricube_weights(offsets, half))
        design = np.column_stack((sw, sw * offsets))
        beta, *_ = np.linalg.lstsq(design, sw * values[: i + half + 1], rcond=None)
        expected.append(beta[0])
    fits = (_edge_rows(half) * values).sum(axis=1)
    if half == 1:
        assert np.array_equal(fits, expected)
    np.testing.assert_allclose(fits, expected, rtol=1e-13, atol=1e-13 * np.abs(values).max())


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


# --- The derivative where a decision reads it ---------------------------------
#
# _SmoothedDerivative computes the smoothed derivative only on the ranges read,
# each sample bit for bit the whole-trace one.  The merge reads it between
# consecutive candidates, from a first stretch after the earlier one on, and
# the refilter's guard near a candidate.

# Steps and ramps of any size on a level, with or without noise.
moving_traces = st.builds(
    lambda seed, size, level, noise, changes: _render_changes(seed, size, level, noise, changes),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    size=st.integers(min_value=3, max_value=400),
    level=st.floats(min_value=-1e4, max_value=1e4),
    noise=st.sampled_from([0.0, 1e-3, 0.2, 5.0]),
    changes=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1.0),
            st.floats(min_value=-2000.0, max_value=2000.0),
            st.integers(min_value=0, max_value=60),
        ),
        max_size=4,
    ),
)


def _render_changes(seed, size, level, noise, changes) -> np.ndarray:
    """``level`` plus noise plus a step or ramp per ``(where, height, ramp_samples)``."""
    x = level + noise * np.random.default_rng(seed).standard_normal(size)
    for where, height, ramp in changes:
        at = int(where * (size - 1))
        x[at:] += height * np.minimum(1.0, (np.arange(size - at) + 1.0) / (ramp + 1.0))
    return x


def sample_indices(ranges: _Ranges) -> np.ndarray:
    """The sample index of every entry of ``ranges.values``."""
    return ranges.indices(np.arange(ranges.values.size))


def assert_read_is_the_whole_trace(x: np.ndarray, window: int, starts, stops) -> _Ranges:
    """Reading ``[starts, stops)`` gives their union, each sample the whole-trace one."""
    starts, stops = np.asarray(starts, dtype=np.int64), np.asarray(stops, dtype=np.int64)
    ranges = _SmoothedDerivative(x, window).read(starts, stops)
    wanted = np.zeros(x.size, dtype=bool)
    for start, stop in zip(starts.tolist(), stops.tolist()):
        wanted[start:stop] = True
    assert np.array_equal(sample_indices(ranges), np.flatnonzero(wanted))
    assert np.all(ranges.starts < ranges.stops) and np.all(ranges.stops[:-1] < ranges.starts[1:])
    whole = loess_smooth(first_derivative(x), window)
    assert np.array_equal(ranges.values, whole[wanted])
    return ranges


@pytest.mark.parametrize("window", [5, 11, 41])
def test_several_ranges_that_read_one_end_of_the_trace_are_the_whole_trace_bits(
    window: int,
) -> None:
    # Each range lies within a half window of an end, so the pieces of several
    # ranges read from sample 0, or to the last sample.  Each such piece must
    # see the trace's end: its zero pad and edge fits, not a convolution over
    # the piece gathered before it.
    x = np.random.default_rng(window).normal(0.0, 50.0, 200)
    half = window // 2
    whole = loess_smooth(first_derivative(x), window)
    for starts, stops in (([0, 2, half], [1, 3, half + 2]), ([190, 197, 199], [192, 198, 200])):
        ranges = _SmoothedDerivative(x, window).read(np.array(starts), np.array(stops))
        assert ranges.starts.size > 1
        assert ranges.values.tobytes() == whole[sample_indices(ranges)].tobytes()


@st.composite
def read_cases(draw) -> tuple[np.ndarray, int, list[int], list[int]]:
    """A trace, a window, and ranges that overlap, touch, or sit at either end."""
    x = draw(moving_traces)
    window = draw(st.sampled_from([3, 5, 9, 41, 121]))
    assume(window <= x.size)
    near_ends = [0, 1, window // 2, x.size - window // 2, x.size - 1]
    edges = st.sampled_from(near_ends) | st.integers(min_value=0, max_value=x.size)
    spans = st.lists(st.tuples(edges, st.integers(min_value=-2, max_value=50)), max_size=6)
    starts, stops = [], []
    for start, length in draw(spans):
        starts.append(start)
        stops.append(min(max(start + length, 0), x.size))
    return x, window, starts, stops


@given(read_cases(), st.sampled_from(BLOCK_SIZES))
def test_a_read_gives_the_whole_trace_samples_bit_for_bit(case, block: int) -> None:
    x, window, starts, stops = case
    with pytest.MonkeyPatch.context() as monkeypatch:
        use_blocks(monkeypatch, block)
        assert_read_is_the_whole_trace(x, window, starts, stops)


@pytest.mark.parametrize("quiet", [True, False], ids=["quiet", "step"])
def test_a_trace_exactly_one_window_long(quiet: bool) -> None:
    # Only the centre sample is interior; the rest are edge fits.
    x = 120.0 + np.random.default_rng(3).normal(0.0, 0.01, 41)
    if not quiet:
        x[18:] += 300.0
    for sample in range(41):
        assert_read_is_the_whole_trace(x, 41, [sample], [sample + 1])
    assert_read_is_the_whole_trace(x, 41, [0, 19, 21], [19, 21, 41])


@pytest.mark.parametrize("block", [1, 3, 16384])
def test_reads_that_reach_the_zero_pad_and_the_last_sample(
    block: int, monkeypatch: pytest.MonkeyPatch
) -> None:
    # The first interior sample reads d[0] = 0; the last reads x[-1].
    use_blocks(monkeypatch, block)
    x = 50.0 + np.random.default_rng(4).normal(0.0, 0.01, 400)
    x[2:] += 800.0
    x[397:] -= 300.0
    half = 10
    assert_read_is_the_whole_trace(x, 21, [half, 400 - half - 1], [half + 1, 400 - half])
    assert_read_is_the_whole_trace(x, 21, [half - 1, 390], [half + 3, 400])
    assert_read_is_the_whole_trace(x, 21, [5, 9, 12], [9, 12, 30])
    # x[0] - x[-1] overflows: a pad read from the far end would give 0 * inf.
    x = np.zeros(400)
    x[0], x[-1] = -1e308, 1e308
    assert_read_is_the_whole_trace(x, 21, [half], [half + 1])


def assert_guard_read_is_the_whole_trace(
    x: np.ndarray, window: int, centres: list[int], radius: int
) -> None:
    """The significant extrema read within ``radius + 1`` of each centre, as the
    refilter's guard reads them, are the whole-trace ones with both neighbours read."""
    c = np.array(centres, dtype=np.int64)
    starts, stops = np.maximum(c - radius - 1, 0), np.minimum(c + radius + 2, x.size)
    ranges = assert_read_is_the_whole_trace(x, window, starts, stops)
    whole = loess_smooth(first_derivative(x), window)
    read = np.zeros(x.size + 1, dtype=bool)  # one spare: no neighbour past the end
    read[sample_indices(ranges)] = True
    expected = detect_extrema(whole, EPSILON)
    told = read[expected - 1] & read[expected] & read[expected + 1]
    assert np.array_equal(detect_extrema(ranges, EPSILON), expected[told])


def assert_merge_is_the_whole_trace_merge(
    x: np.ndarray, window: int, indices: list[int], settle_s: float
) -> list[int]:
    """The merge of the computed derivative is the dense merge and the oracle's;
    returns the surviving indices."""
    series = series_at_20hz(x)
    config = HybridConfig(settle_threshold_s=settle_s, time_limit_s=0.1)
    candidates = events_at(indices, series)
    whole = loess_smooth(first_derivative(x), window)
    survivors = merge_transient_events(candidates, _SmoothedDerivative(x, window), series, config)
    assert np.array_equal(survivors, merge_transient_events(candidates, whole, series, config))
    expected = oracle_merge(
        [(i, series.time_at(i)) for i in indices], whole, 20.0, EPSILON, settle_s
    )
    assert candidates[survivors].indices.tolist() == expected
    return expected


def test_an_active_run_that_reaches_the_zero_pad(monkeypatch: pytest.MonkeyPatch) -> None:
    # A step at sample 2: the first interior samples read d[0] = 0 and the step.
    use_blocks(monkeypatch, 16)
    x = 50.0 + np.random.default_rng(4).normal(0.0, 0.01, 400)
    x[2:] += 800.0
    assert_read_is_the_whole_trace(x, 21, [0], [32])
    assert_guard_read_is_the_whole_trace(x, 21, [2, 12], 4)
    # The step keeps s unsettled to sample 12; a 1 s run settles after it.
    assert assert_merge_is_the_whole_trace_merge(x, 21, [0, 2, 40, 380], 1.0) == [0, 40, 380]


@pytest.mark.parametrize("at_end", [1, 4, 9], ids=lambda k: f"step{k}fromend")
def test_an_active_run_inside_the_last_half_window(
    at_end: int, monkeypatch: pytest.MonkeyPatch
) -> None:
    use_blocks(monkeypatch, 8)
    x = 50.0 + np.random.default_rng(at_end).normal(0.0, 0.01, 400)
    step = x.size - at_end
    x[step:] += 800.0
    assert_read_is_the_whole_trace(x, 21, [step - 10], [x.size])  # every sample that sees it
    assert_guard_read_is_the_whole_trace(x, 21, [step - 12, step], 6)
    # The gap before the step settles until its window reaches the step.
    assert assert_merge_is_the_whole_trace_merge(x, 21, [100, 300, step], 1.0) == [100, 300, step]


def test_an_active_run_inside_the_first_half_window(monkeypatch: pytest.MonkeyPatch) -> None:
    use_blocks(monkeypatch, 4)
    x = 50.0 + np.random.default_rng(5).normal(0.0, 0.01, 300)
    x[3:] -= 600.0
    assert_read_is_the_whole_trace(x, 41, [0], [3 + 21])  # every sample that sees it
    assert_guard_read_is_the_whole_trace(x, 41, [3, 19], 5)
    assert assert_merge_is_the_whole_trace_merge(x, 41, [3, 25, 200], 1.0) == [3, 200]


@pytest.mark.parametrize("window", [3, 129])
def test_a_read_that_ends_on_a_sample_moved_by_a_tiny_tap(
    window: int, monkeypatch: pytest.MonkeyPatch
) -> None:
    """A 1e7 W step at sample 64 moves ``s[64]`` (window 3) and, through the
    tiny tap ``k[1]``, ``s[127]`` (window 129), the last unsettled sample.
    Read as settled, it would lengthen the gap's settled run by one sample,
    past the settle threshold, and split the gap."""
    use_blocks(monkeypatch, 64)
    x = np.zeros(320)
    x[64:] = 1e7
    moving = 64 if window == 3 else 127
    whole = loess_smooth(first_derivative(x), window)
    assert abs(whole[moving]) >= EPSILON and np.all(whole[moving + 1 : 256] == 0.0)
    ends = [moving - 5, moving, moving], [moving + 1, moving + 1, 200]
    assert_read_is_the_whole_trace(x, window, *ends)
    a, b = (30, 100) if window == 3 else (100, 200)
    run = b - moving - 1  # the settled run after the moving sample
    # A run of ``run`` samples does not exceed the threshold, one more would.
    assert assert_merge_is_the_whole_trace_merge(x, window, [a, b], run / 20.0) == [a]


def test_many_one_sample_ranges_read_as_one_piece_each(monkeypatch) -> None:
    # Many one-sample ranges in one block: each its own piece, none computed twice.
    use_blocks(monkeypatch, 64)
    x = np.random.default_rng(6).normal(0.0, 5.0, 5000).cumsum()
    starts = np.arange(30, 4950, 7)
    ranges = assert_read_is_the_whole_trace(x, 41, starts, starts + 1)
    assert ranges.values.size == starts.size


def test_window_constants_are_built_once_and_read_only() -> None:
    for build in (_loess_kernel, _edge_rows):
        first = build(20)
        assert build(20) is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0, ...] = 1.0


@pytest.mark.parametrize("half", [*range(1, 70), 127, 500, 4096])
def test_loess_kernel_rises_to_its_centre_and_ends_in_zero_taps(half: int) -> None:
    kernel = _loess_kernel(half)
    assert kernel[0] == kernel[-1] == 0.0
    assert np.array_equal(kernel, kernel[::-1])
    assert np.all(np.diff(kernel[: half + 1]) >= 0.0)
    assert kernel.max() == kernel[half]


def reads_of(monkeypatch: pytest.MonkeyPatch) -> list[list[tuple[int, int]]]:
    """The ranges of every read the merge makes from now on, one list per read."""
    reads: list[list[tuple[int, int]]] = []
    read = derivative._read

    def recorded(smoothed, starts, stops):
        reads.append(list(zip(starts.tolist(), stops.tolist())))
        return read(smoothed, starts, stops)

    monkeypatch.setattr(derivative, "_read", recorded)
    return reads


@pytest.mark.parametrize("lazy", [False, True], ids=["dense", "computed"])
@pytest.mark.parametrize(
    ("flat", "kept"),
    [
        ((300, 345), [10, 400]),  # inside the third stretch
        ((171, 212), [10, 400]),  # 41 samples, 40 of them at the end of the second
        ((170, 211), [10, 400]),  # 41 samples at the end of the second
        ((171, 211), [10]),  # 40 samples: not longer than the threshold
        ((0, 0), [10]),  # no settled run
    ],
)
def test_a_gap_that_settles_after_its_first_stretch_is_read_in_doubling_stretches(
    lazy: bool, flat: tuple[int, int], kept: list[int], monkeypatch: pytest.MonkeyPatch
) -> None:
    """At 20 Hz and a 2 s settle threshold (40 samples) the merge first reads 80
    samples after a candidate, then stretches of 160 and 320 that start 40
    samples before the last one ended, up to the gap's end.  A settled run of 41
    samples that crosses a stretch's end is found whole in the next one."""
    # 1 W a sample, flat on ``flat``; a 3-sample window smooths nothing inside.
    samples = np.arange(500)
    x = np.cumsum(np.where((samples >= flat[0]) & (samples < flat[1]), 0.0, 1.0))
    series, config = series_at_20hz(x), HybridConfig()
    smoothed = loess_smooth(first_derivative(x), 3)
    settled = np.abs(smoothed) < config.derivative_epsilon
    assert np.array_equal(settled[1:], (samples[1:] >= flat[0]) & (samples[1:] < flat[1]))
    candidates = events_at([10, 400], series)
    reads = reads_of(monkeypatch)
    source = _SmoothedDerivative(x, 3) if lazy else smoothed
    survivors = merge_transient_events(candidates, source, series, config)
    assert candidates[survivors].indices.tolist() == kept
    stretches = [[(11, 91)], [(51, 211)], [(171, 400)]]
    assert reads == (stretches[:2] if flat == (170, 211) else stretches)


def test_a_gap_too_short_to_settle_is_not_read(monkeypatch: pytest.MonkeyPatch) -> None:
    # 2 s at 20 Hz: a gap of 40 samples cannot hold a run longer than 40.
    series = series_at_20hz(np.zeros(300))
    candidates = events_at([10, 51, 93], series)
    reads = reads_of(monkeypatch)
    survivors = merge_transient_events(candidates, np.zeros(300), series, HybridConfig())
    assert survivors.tolist() == [0, 2]
    assert reads == [[(52, 93)]]


@given(
    moving_traces,
    st.sampled_from([3, 9, 41]),
    st.lists(st.integers(min_value=0, max_value=399), unique=True, min_size=1, max_size=8),
    st.sampled_from([0.3, 0.5, 2.0]),
    st.sampled_from([0.05, EPSILON, 3.0]),
)
def test_merge_of_the_computed_derivative_is_the_dense_merge(
    values: np.ndarray, window: int, spots: list[int], settle_s: float, epsilon: float
) -> None:
    assume(window <= values.size)
    indices = sorted({i for i in spots if i < values.size})
    series = series_at_20hz(values)
    config = HybridConfig(
        settle_threshold_s=settle_s, time_limit_s=0.1, derivative_epsilon=epsilon
    )
    candidates = events_at(indices, series)
    whole = loess_smooth(first_derivative(values), window)
    computed = _SmoothedDerivative(values, window)
    survivors = merge_transient_events(candidates, computed, series, config)
    assert np.array_equal(survivors, merge_transient_events(candidates, whole, series, config))
    expected = oracle_merge(
        [(i, series.time_at(i)) for i in indices], whole, 20.0, epsilon, settle_s
    )
    assert candidates[survivors].indices.tolist() == expected


@given(
    moving_traces,
    st.sampled_from([3, 9, 41, 121]),
    st.sampled_from(BLOCK_SIZES),
    st.lists(st.integers(min_value=0, max_value=399), unique=True, min_size=1, max_size=8),
    st.integers(min_value=0, max_value=12),
)
def test_skipped_samples_never_change_the_mask_or_the_extrema(
    values: np.ndarray, window: int, block: int, spots: list[int], radius: int
) -> None:
    """Samples never computed change neither the merge nor the guard's extrema,
    and every sample read is settled exactly where the whole trace's is."""
    assume(window <= values.size)
    indices = sorted({i for i in spots if i < values.size})
    with pytest.MonkeyPatch.context() as monkeypatch:
        use_blocks(monkeypatch, block)
        reads = reads_of(monkeypatch)
        assert_merge_is_the_whole_trace_merge(values, window, indices, 0.5)
        assert_guard_read_is_the_whole_trace(values, window, indices, radius)
        whole = loess_smooth(first_derivative(values), window)
        computed = _SmoothedDerivative(values, window)
        for read in reads:
            starts, stops = (np.array(edges, dtype=np.int64) for edges in zip(*read))
            ranges = computed.read(starts, stops)
            settled = np.abs(ranges.values) < EPSILON
            assert np.array_equal(settled, np.abs(whole[sample_indices(ranges)]) < EPSILON)


def noisy_trace(
    rate_hz: float, sigma: float, seconds: float, seed: int, gaps: tuple[float, float]
) -> np.ndarray:
    """A 230 W level with ``sigma`` W of noise and a switch every ``gaps`` s: steps
    of 30-600 W either way, some of them ramped over up to 3 s."""
    rng = np.random.default_rng(seed)
    n = round(seconds * rate_hz)
    x = 230.0 + sigma * rng.standard_normal(n)
    at = 0.0
    while (at := at + rng.uniform(*gaps)) < seconds - 5.0:
        start, ramp = round(at * rate_hz), round(rng.choice([0.0, 0.5, 3.0]) * rate_hz)
        rise = np.minimum(1.0, (np.arange(n - start) + 1.0) / (ramp + 1.0))
        x[start:] += rng.choice([-1.0, 1.0]) * rng.uniform(30.0, 600.0) * rise
    return x


@pytest.mark.parametrize("sigma", [0.5, 2.0, 5.0])
@pytest.mark.parametrize("rate_hz", [20.0, 50.0, 60.0])
def test_noisy_traces_give_the_whole_trace_extrema_and_merge(
    rate_hz: float, sigma: float
) -> None:
    """The merge and the extrema near each candidate, read from the computed
    derivative, are those of the whole trace."""
    x = noisy_trace(rate_hz, sigma, 1800.0, seed=round(rate_hz * 10 + sigma * 100), gaps=(60, 300))
    series, config = SampleSeries(x, rate_hz), HybridConfig()
    window, epsilon = config.loess_window_samples(rate_hz), config.derivative_epsilon
    computed = _SmoothedDerivative(x, window)
    whole = smoothed_derivative(series, config)
    candidates = detect_base(series, config)
    assert len(candidates) > 10
    assert np.array_equal(
        merge_transient_events(candidates, computed, series, config),
        merge_transient_events(candidates, whole, series, config),
    )
    c = candidates.indices
    near = computed.read(np.maximum(c - 5, 0), np.minimum(c + 6, x.size))
    read = np.zeros(x.size, dtype=bool)
    for index in c.tolist():
        read[max(index - 5, 0) : index + 6] = True
    expected = detect_extrema(whole, epsilon)
    told = read[expected - 1] & read[expected] & read[np.minimum(expected + 1, x.size - 1)]
    assert np.array_equal(detect_extrema(near, epsilon), expected[told])


def test_the_merge_reads_a_small_share_of_a_noisy_meter_trace(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    """Three hours at 20 Hz with 2 W of noise and a switch every 20-40 minutes:
    the merge reads a few settle lengths after each candidate."""
    x = noisy_trace(20.0, 2.0, 3 * 3600.0, seed=11, gaps=(1200, 2400))
    series, config = SampleSeries(x, 20.0), HybridConfig()
    candidates = detect_base(series, config)
    reads = reads_of(monkeypatch)
    computed = _SmoothedDerivative(x, config.loess_window_samples(20.0))
    merge_transient_events(candidates, computed, series, config)
    read = sum(stop - start for ranges in reads for start, stop in ranges)
    assert 0 < read <= 0.01 * x.size


def computed_by(monkeypatch: pytest.MonkeyPatch) -> list[int]:
    """The samples each ``_SmoothedDerivative.read`` computes from now on."""
    computed: list[int] = []
    read = _SmoothedDerivative.read

    def counted(self, starts, stops):
        ranges = read(self, starts, stops)
        computed.append(ranges.values.size)
        return ranges

    monkeypatch.setattr(_SmoothedDerivative, "read", counted)
    return computed


def test_a_noisy_meter_trace_computes_a_tenth_of_its_samples(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    """The same three hours through detect_hybrid, merge and guard together:
    the derivative is computed on at most a tenth of the samples."""
    x = noisy_trace(20.0, 2.0, 3 * 3600.0, seed=11, gaps=(1200, 2400))
    computed = computed_by(monkeypatch)
    result = detect_hybrid(SampleSeries(x, 20.0), HybridConfig())
    assert len(result.base_events) > 3
    assert 0 < sum(computed) <= 0.1 * x.size


@pytest.mark.parametrize("gap_s", [60.0, 600.0])
def test_a_drift_after_each_event_is_read_past_not_to_the_gap_end(
    gap_s: float, monkeypatch: pytest.MonkeyPatch
) -> None:
    """Each event drifts for 5 s, longer than the first stretch (4 s), then the
    trace settles: the second stretch finds the run, whatever the gap's length."""
    rate, drift = 20.0, 100
    gap = round(gap_s * rate)
    indices = list(range(50, 20 * gap, gap))
    x = np.zeros(20 * gap + 50)
    for index in indices:
        x[index:] += 300.0
        x[index + 1 : index + 1 + drift] += np.arange(1, drift + 1) * 1.0
        x[index + 1 + drift :] += drift
    series, config = series_at_20hz(x), HybridConfig()
    candidates = events_at(indices, series)
    computed = computed_by(monkeypatch)
    window = config.loess_window_samples(rate)
    survivors = merge_transient_events(candidates, _SmoothedDerivative(x, window), series, config)
    assert survivors.tolist() == list(range(len(indices)))
    # The 80 samples after each event, then 160 from 40 before those end.
    assert computed == [19 * 80, 19 * 160]


def test_the_lighting_replica_from_its_csv_computes_few_derivative_samples(
    tmp_path, monkeypatch: pytest.MonkeyPatch
) -> None:
    """The CI's lighting run: ``detect --config scenarios/lighting.config`` on the
    replica written to and read back from CSV.  The merge computes the derivative
    on 249 of its 37,198 samples; a gap whose first stretch holds no settled run
    is read on in doubling stretches, not to its end."""
    series, _ = generate_scenario(replica_spec("lighting"))
    write_trace(tmp_path / "lighting.csv", series)
    loaded = load_trace(tmp_path / "lighting.csv")
    computed = computed_by(monkeypatch)
    result = detect_hybrid(loaded, replica_config("lighting"))
    assert len(loaded) == 37_198
    assert len(result.filter_verdicts) == 0  # the refilter does not fire: the merge reads all
    assert sum(computed) == 249


# --- Ranges: the extrema read only inside a range ---------------------------

RANGE_GRID = [
    0.0,
    0.0,
    0.25,
    -0.25,
    0.7,
    EPSILON,
    -EPSILON,
    np.nextafter(EPSILON, np.inf),
    np.nextafter(-EPSILON, -np.inf),
    np.nextafter(EPSILON, 0.0),
    np.nextafter(-EPSILON, 0.0),
    1.0,
    -1.0,
]


@st.composite
def ranges_of_traces(draw) -> tuple[np.ndarray, _Ranges]:
    """A dense trace and some of its samples as ranges, which may be one sample long."""
    v = np.array(draw(st.lists(st.sampled_from(RANGE_GRID), min_size=3, max_size=200)))
    inside = np.array(draw(st.lists(st.booleans(), min_size=v.size, max_size=v.size)))
    flags = np.diff(np.concatenate(([0], inside.astype(np.int8), [0])))
    starts, stops = np.flatnonzero(flags == 1), np.flatnonzero(flags == -1)
    return v, _Ranges(v.size, starts, stops, v[inside])


@given(
    ranges_of_traces(),
    st.sampled_from([None, EPSILON, float(np.nextafter(EPSILON, np.inf)), 0.7, 1.0]),
)
def test_extrema_of_ranges_are_the_dense_extrema_with_both_neighbours_inside(
    case, min_abs_value: float | None
) -> None:
    v, ranges = case
    found = detect_extrema(ranges, min_abs_value)
    assert found.dtype == np.int64
    inside = np.zeros(v.size, dtype=bool)
    inside[sample_indices(ranges)] = True
    expected = [
        index
        for index, _, value in oracle_extrema(v)
        if inside[index - 1 : index + 2].all()
        and (min_abs_value is None or abs(value) > min_abs_value)
    ]
    assert found.tolist() == expected


@given(
    st.lists(
        st.tuples(*[st.integers(min_value=-3, max_value=60)] * 2),
        max_size=8,
    )
)
def test_the_union_of_ranges_is_the_union_of_their_samples(pairs) -> None:
    starts = np.array([start for start, _ in pairs], dtype=np.int64)
    stops = np.array([stop for _, stop in pairs], dtype=np.int64)
    union_starts, union_stops = _union(starts, stops)
    assert np.all(union_starts < union_stops)
    assert np.all(union_stops[:-1] < union_starts[1:])  # disjoint, never touching
    covered = {i for start, stop in pairs for i in range(start, stop)}
    assert {
        i for start, stop in zip(union_starts.tolist(), union_stops.tolist())
        for i in range(start, stop)
    } == covered


@given(ranges_of_traces())
def test_the_longest_settled_run_of_each_range_counts_only_its_own_samples(case) -> None:
    v, ranges = case
    expected = []
    for start, stop in zip(ranges.starts.tolist(), ranges.stops.tolist()):
        longest = run = 0
        for value in v[start:stop].tolist():
            run = run + 1 if abs(value) < EPSILON else 0
            longest = max(longest, run)
        expected.append(longest)
    assert _longest_settled(ranges, EPSILON).tolist() == expected


def test_a_computed_derivative_checks_its_window_and_its_length() -> None:
    for window in (1, 4, 11):
        with pytest.raises(InvalidWindow):
            _SmoothedDerivative(np.zeros(10), window)
    series = series_at_20hz(np.zeros(100))
    with pytest.raises(MisalignedInput):
        short = _SmoothedDerivative(np.zeros(99), 3)
        merge_transient_events(events_at([5, 50], series), short, series, HybridConfig())
