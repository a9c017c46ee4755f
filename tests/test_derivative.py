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
    smoothed_derivative,
)
from nilmevents import core
from nilmevents.derivative import (
    _Support,
    _block_bounds,
    _difference_norm,
    _edge_rows,
    _loess_kernel,
    _moment_bounds,
    _moment_floors,
    _moving_smoothed_derivative,
    _settle_limit,
    _tricube_weights,
)

from blocks import PROOF_BLOCK_SIZES, use_proof_blocks
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


# --- The range and moment bounds and the settled blocks --------------------
#
# Interior smoothed derivative values obey |s[i]| <= max(k) * range and
# |s[i]| <= ||diff(k)||_2 * sqrt(sum (x - mean)**2) over [i - half, i + half - 1],
# the taps that weigh; detection skips proof blocks where either bound is below
# the settle limit (epsilon less a rounding margin) and reads 0 there.

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


def brute_block_bounds(x: np.ndarray, kernel: np.ndarray, block: int) -> np.ndarray:
    """The block widened by ``half + 1`` before and ``half`` after, then to whole
    64-sample summary blocks."""
    half = kernel.size // 2
    reads = [
        (max(start - half - 1, 0) // 64 * 64, -(-(start + block + half) // 64) * 64)
        for start in range(0, x.size, block)
    ]
    return np.array([kernel.max() * np.ptp(x[lo:hi]) for lo, hi in reads])


def densify(support: _Support) -> np.ndarray:
    """The full-length trace of a support: its values in its ranges, 0 elsewhere."""
    out = np.zeros(support.size)
    ranges = [np.arange(start, stop) for start, stop in zip(support.starts, support.stops)]
    out[np.concatenate([np.empty(0, dtype=np.int64), *ranges])] = support.values
    return out


def assert_support_invariant(support: _Support, trace: np.ndarray, epsilon: float) -> None:
    """The ranges are non-empty and never touch, cover every ``|trace| >= epsilon``
    sample, and begin and end at a trace end or at a ``|trace| < epsilon`` sample."""
    starts, stops = support.starts, support.stops
    assert support.size == trace.size
    assert np.all(starts < stops)
    assert np.all(stops[:-1] < starts[1:])
    covered = np.zeros(trace.size, dtype=bool)
    for start, stop in zip(starts, stops):
        covered[start:stop] = True
    assert np.all(covered | (np.abs(trace) < epsilon))
    for edge, end in ((starts, 0), (stops - 1, trace.size - 1)):
        assert np.all((edge == end) | (np.abs(trace[edge]) < epsilon))


def assert_same_as_whole_trace(x: np.ndarray, window: int, epsilon: float) -> np.ndarray:
    """Every computed sample is the whole-trace one bit for bit and every other
    a 0 for a value below epsilon; the support meets its invariant, and the
    settled mask and the significant extrema agree.  Returns where the samples
    are equal."""
    support = _moving_smoothed_derivative(x, window, epsilon, summary=core._Summary.of(x))
    moving = densify(support)
    whole = loess_smooth(first_derivative(x), window)
    assert_support_invariant(support, whole, epsilon)
    assert np.array_equal(support.values, whole[support.indices(np.arange(support.values.size))])
    same = moving == whole
    assert np.all(same | ((moving == 0.0) & (np.abs(whole) < epsilon)))
    assert np.array_equal(np.abs(moving) < epsilon, np.abs(whole) < epsilon)
    assert np.array_equal(detect_extrema(support, epsilon), detect_extrema(whole, epsilon))
    return same


@pytest.mark.parametrize("half", [*range(1, 70), 127, 500, 4096])
def test_loess_kernel_rises_to_its_centre_and_ends_in_zero_taps(half: int) -> None:
    # These make the kernel's total variation exactly 2 * max(k).
    kernel = _loess_kernel(half)
    assert kernel[0] == kernel[-1] == 0.0
    assert np.array_equal(kernel, kernel[::-1])
    assert np.all(np.diff(kernel[: half + 1]) >= 0.0)
    assert kernel.max() == kernel[half]


@given(moving_traces, st.integers(min_value=1, max_value=40), st.floats(0.5, 60.0))
def test_whole_trace_smoothed_derivative_obeys_the_range_bound(
    values: np.ndarray, half: int, rate_hz: float
) -> None:
    config = HybridConfig(loess_window_s=(2 * half + 1) / rate_hz)
    window = config.loess_window_samples(rate_hz)
    assume(window <= values.size)
    half = window // 2
    smoothed = smoothed_derivative(SampleSeries(values, rate_hz), config)
    kernel = _loess_kernel(half)
    # Rounding: the differences, a window-long dot product and the range.
    rounding = (window + 4) * np.finfo(float).eps
    for i in range(half, values.size - half):
        spread = np.ptp(values[i - half : i + half])  # the taps that weigh
        assert abs(smoothed[i]) <= kernel.max() * spread + rounding * spread, i


@given(
    moving_traces,
    st.integers(min_value=1, max_value=2000),
    st.sampled_from(PROOF_BLOCK_SIZES),
)
def test_block_bounds_read_the_whole_halo_for_any_window(
    values: np.ndarray, half: int, block: int
) -> None:
    kernel = _loess_kernel(half)
    with pytest.MonkeyPatch.context() as monkeypatch:
        use_proof_blocks(monkeypatch, block)
        bounds = _block_bounds(core._Summary.of(values), kernel)
    assert np.array_equal(bounds, brute_block_bounds(values, kernel, block))


@pytest.mark.parametrize("quiet", [True, False], ids=["quiet", "step"])
def test_a_trace_exactly_one_window_long(quiet: bool, monkeypatch: pytest.MonkeyPatch) -> None:
    use_proof_blocks(monkeypatch, 16)
    x = 120.0 + np.random.default_rng(3).normal(0.0, 0.01, 41)
    if not quiet:
        x[18:] += 300.0
    same = assert_same_as_whole_trace(x, 41, EPSILON)
    # Only the centre sample is interior, and both edge ranges reach it, so
    # every sample is computed, quiet or not.
    assert same.all()


def test_an_active_run_that_reaches_the_zero_pad(monkeypatch: pytest.MonkeyPatch) -> None:
    use_proof_blocks(monkeypatch, 16)
    x = 50.0 + np.random.default_rng(4).normal(0.0, 0.01, 400)
    x[2:] += 800.0
    same = assert_same_as_whole_trace(x, 21, EPSILON)
    assert same[:16].all()  # the first block, computed from d[0] = 0 on
    assert not same.all()  # and later blocks skipped


@pytest.mark.parametrize("at_end", [1, 4, 9], ids=lambda k: f"step{k}fromend")
def test_an_active_run_inside_the_last_half_window(
    at_end: int, monkeypatch: pytest.MonkeyPatch
) -> None:
    use_proof_blocks(monkeypatch, 8)
    x = 50.0 + np.random.default_rng(at_end).normal(0.0, 0.01, 400)
    step = x.size - at_end
    x[step:] += 800.0
    same = assert_same_as_whole_trace(x, 21, EPSILON)
    assert same[step - 10 :].all()  # every sample whose window sees the step
    assert not same.all()


def test_an_active_run_inside_the_first_half_window(monkeypatch: pytest.MonkeyPatch) -> None:
    use_proof_blocks(monkeypatch, 4)
    x = 50.0 + np.random.default_rng(5).normal(0.0, 0.01, 300)
    x[3:] -= 600.0
    same = assert_same_as_whole_trace(x, 41, EPSILON)
    assert same[: 3 + 21].all()  # every sample whose window sees the step
    assert not same.all()


@given(moving_traces, st.sampled_from([3, 9, 41, 121]), st.sampled_from(PROOF_BLOCK_SIZES))
def test_skipped_samples_never_change_the_mask_or_the_extrema(
    values: np.ndarray, window: int, block: int
) -> None:
    assume(window <= values.size)
    with pytest.MonkeyPatch.context() as monkeypatch:
        use_proof_blocks(monkeypatch, block)
        assert_same_as_whole_trace(values, window, EPSILON)


def epsilon_beside(bound: float, kernel: np.ndarray, side: str) -> float:
    """The smallest epsilon whose settle limit exceeds ``bound`` ("below"), or
    the float just under it, whose limit does not ("above")."""
    epsilon = bound / _settle_limit(kernel, 1.0)
    while not bound < _settle_limit(kernel, epsilon):
        epsilon = np.nextafter(epsilon, np.inf)
    while bound < _settle_limit(kernel, np.nextafter(epsilon, -np.inf)):
        epsilon = np.nextafter(epsilon, -np.inf)
    return float(epsilon if side == "below" else np.nextafter(epsilon, -np.inf))


@pytest.mark.parametrize("side", ["below", "above"])
def test_a_bound_one_ulp_from_the_settle_limit_gives_the_whole_trace_result(
    side: str, monkeypatch: pytest.MonkeyPatch
) -> None:
    """A block whose range bound is just below the settle limit is skipped, one
    ulp above it computed; its moment bound is far above either."""
    use_proof_blocks(monkeypatch, 32)
    x = 230.0 + np.random.default_rng(8).normal(0.0, 0.01, 640)
    x[100:] += 400.0
    x[400:] += 3.0  # inside block 12, [384, 416)
    kernel = _loess_kernel(10)
    summary = core._Summary.of(x)
    bound = _block_bounds(summary, kernel)[12]
    epsilon = epsilon_beside(bound, kernel, side)
    assert (bound < _settle_limit(kernel, epsilon)) == (side == "below")
    assert bound < epsilon  # the limit, not epsilon, decides
    assert _moment_bounds(x, summary, kernel, np.array([12]))[0] > 2 * epsilon
    same = assert_same_as_whole_trace(x, 21, epsilon)
    assert same[384:416].all() == (side == "above")


@pytest.mark.parametrize("window", [3, 129])
def test_a_settled_block_proves_the_sample_just_past_either_end(
    window: int, monkeypatch: pytest.MonkeyPatch
) -> None:
    """A range starts and ends where a settled block's bound reaches one sample past it.

    A 1e7 W step at sample 64 moves ``s[64]`` (window 3) and, through the
    tiny tap ``k[63]``, ``s[127]`` (window 129).  A bound over the taps alone
    would prove block 0 (window 3) or block 2 (window 129) settled, since
    both edges fall on a summary block edge, and a range would start or end
    at that moving sample.
    """
    use_proof_blocks(monkeypatch, 64)
    x = np.zeros(320)
    x[64:] = 1e7
    whole = loess_smooth(first_derivative(x), window)
    assert abs(whole[64 if window == 3 else 127]) >= EPSILON
    assert_same_as_whole_trace(x, window, EPSILON)


def no_underflow(x: np.ndarray) -> bool:
    """Whether every nonzero sample exceeds 1e-100 in magnitude, so that the
    squared deviations and the products of ``s`` stay normal numbers (the
    library settles no block where they might not: epsilon < 2**-400)."""
    return bool(np.all((x == 0.0) | (np.abs(x) > 1e-100)))


def tap_spreads(x: np.ndarray, half: int) -> np.ndarray:
    """Per interior index, ``sqrt(sum (x - mean)**2)`` over ``x[i - half .. i + half - 1]``."""
    taps = np.lib.stride_tricks.sliding_window_view(x, 2 * half)[: x.size - 2 * half]
    # About the first tap, so that equal taps give exactly 0.
    shifted = taps - taps[:, :1]
    squares = np.sum(shifted**2, axis=1) - np.sum(shifted, axis=1) ** 2 / (2 * half)
    return np.sqrt(np.maximum(squares, 0.0))


@given(moving_traces, st.integers(min_value=1, max_value=40), st.floats(0.5, 60.0))
def test_whole_trace_smoothed_derivative_obeys_the_moment_bound(
    values: np.ndarray, half: int, rate_hz: float
) -> None:
    config = HybridConfig(loess_window_s=(2 * half + 1) / rate_hz)
    window = config.loess_window_samples(rate_hz)
    assume(window <= values.size)
    assume(no_underflow(values))
    half = window // 2
    smoothed = smoothed_derivative(SampleSeries(values, rate_hz), config)
    bound = _difference_norm(_loess_kernel(half)) * tap_spreads(values, half)
    assert np.all(np.abs(smoothed[half : values.size - half]) <= bound * (1 + 1e-6))


@given(
    moving_traces,
    st.integers(min_value=1, max_value=100),
    st.sampled_from(PROOF_BLOCK_SIZES),
)
def test_moment_bounds_cover_the_taps_of_every_index_they_stand_for(
    values: np.ndarray, half: int, block: int
) -> None:
    """Each proof block's moment bound is at least the Cauchy–Schwarz bound of
    every interior index in it and one either side, and at least its floor."""
    assume(2 * half + 1 <= values.size and no_underflow(values))
    kernel = _loess_kernel(half)
    summary = core._Summary.of(values)
    with pytest.MonkeyPatch.context() as monkeypatch:
        use_proof_blocks(monkeypatch, block)
        blocks = np.arange(-(-values.size // block))
        starts = blocks * block
        interior = blocks[(starts - 1 >= half) & (starts + block < values.size - half)]
        assume(interior.size)
        bounds = _moment_bounds(values, summary, kernel, interior)
        floors = _moment_floors(summary, kernel, interior)
    spreads = _difference_norm(kernel) * tap_spreads(values, half)
    for b, bound, floor in zip(interior.tolist(), bounds, floors):
        covered = spreads[b * block - 1 - half : b * block + block + 1 - half]
        assert bound >= covered.max() * (1 - 1e-6)
        assert floor <= bound * (1 + 1e-6)


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
    x = noisy_trace(rate_hz, sigma, 1800.0, seed=round(rate_hz * 10 + sigma * 100), gaps=(60, 300))
    series, config = SampleSeries(x, rate_hz), HybridConfig()
    window, epsilon = config.loess_window_samples(rate_hz), config.derivative_epsilon
    assert_same_as_whole_trace(x, window, epsilon)
    support = _moving_smoothed_derivative(x, window, epsilon, summary=series.summary)
    whole = smoothed_derivative(series, config)
    candidates = detect_base(series, config)
    assert len(candidates) > 10
    assert np.array_equal(
        merge_transient_events(candidates, support, series, config),
        merge_transient_events(candidates, whole, series, config),
    )


def test_a_noisy_meter_trace_computes_a_tenth_of_its_samples() -> None:
    """Three hours at 20 Hz with 2 W of noise and a switch every 20-40 minutes:
    the range bound settles almost nothing there, the moment bound almost
    every block without a switch."""
    x = noisy_trace(20.0, 2.0, 3 * 3600.0, seed=11, gaps=(1200, 2400))
    config = HybridConfig()
    window, epsilon = config.loess_window_samples(20.0), config.derivative_epsilon
    summary = core._Summary.of(x)
    kernel = _loess_kernel(window // 2)
    assert np.mean(_block_bounds(summary, kernel) < _settle_limit(kernel, epsilon)) < 0.1
    support = _moving_smoothed_derivative(x, window, epsilon, summary=summary)
    assert support.values.size <= 0.1 * x.size


def tight_moment_traces(half: int, tries: int) -> list[np.ndarray]:
    """Flat traces whose taps around sample 1500 are ``level + alpha * dk``, where
    Cauchy–Schwarz is tight, and the computed ``|s|`` there exceeds the
    computed moment bound of its proof block by rounding."""
    kernel = _loess_kernel(half)
    dk = kernel[:-1] - kernel[1:]
    rng = np.random.default_rng(half)
    found = []
    for _ in range(tries):
        x = np.full(3072, rng.uniform(-1.0, 1.0))
        x[1500 - half : 1500 + half] += rng.uniform(1.0, 1e4) * dk
        s = loess_smooth(first_derivative(x), 2 * half + 1)
        bound = _moment_bounds(x, core._Summary.of(x), kernel, np.array([1]))[0]
        if np.abs(s[1023:2049]).max() > bound:
            found.append(x)
    return found


@pytest.mark.parametrize(
    "epsilon", [2.0**-400, float(np.nextafter(2.0**-400, 0.0))], ids=["smallest", "below"]
)
def test_no_block_is_settled_below_the_smallest_epsilon(epsilon: float) -> None:
    """Below 2**-400 the rounding margin would not cover underflow."""
    x = np.full(5000, 2.0**-600)
    x[2500:] = 2.0**-599
    support = _moving_smoothed_derivative(x, 41, epsilon, summary=core._Summary.of(x))
    assert (support.values.size == x.size) == (epsilon < 2.0**-400)


@pytest.mark.parametrize("half", [10, 20])
def test_a_tight_moment_bound_settles_nothing_within_its_rounding_margin(half: int) -> None:
    """Where the computed ``|s|`` is a few ulps above the computed bound, a limit
    of epsilon itself would settle the block at epsilon = max |s|; the margin
    keeps it computed."""
    traces = tight_moment_traces(half, tries=60)
    assert len(traces) >= 5
    for x in traces[:5]:
        whole = loess_smooth(first_derivative(x), 2 * half + 1)
        epsilon = float(np.abs(whole).max())
        same = assert_same_as_whole_trace(x, 2 * half + 1, epsilon)
        assert same[1023:2049].all()


@pytest.mark.parametrize(
    ("half", "spike"),
    [(64, 2 * 64 + 64 - 1), (65, 4 * 64), (1, 4 * 64)],
    ids=["first-tap", "last-tap", "last-tap-3"],
)
def test_a_window_set_holds_the_end_taps_of_the_indices_beside_its_block(
    half: int, spike: int, monkeypatch: pytest.MonkeyPatch
) -> None:
    """A 1e7 W spike on a flat trace reaches ``s`` at one index beside a proof
    block through an end tap (``dk = k[1]``), from a summary block that only
    that tap brings into the block's window sets.  The range bound sees it;
    a moment bound whose taps were one sample shorter on that side would
    settle the block, and a range would begin or end at that moving sample.
    """
    use_proof_blocks(monkeypatch, 64)
    x = np.zeros(64 * 12)
    x[spike] = 1e7
    whole = loess_smooth(first_derivative(x), 2 * half + 1)
    beside = spike + half if spike % 64 == 63 else spike - half + 1  # the index beside a block
    assert beside % 64 in (0, 63) and abs(whole[beside]) >= EPSILON
    assert_same_as_whole_trace(x, 2 * half + 1, EPSILON)


# --- Supports: the extrema and the merge read only the computed ranges -----

SUPPORT_GRID = [
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


def runs_of(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(starts, stops)`` of the runs of true samples in ``mask``."""
    flags = np.diff(np.concatenate(([0], mask.astype(np.int8), [0])))
    return np.flatnonzero(flags == 1), np.flatnonzero(flags == -1)


@st.composite
def covered_traces(draw) -> tuple[np.ndarray, _Support, list[int]]:
    """A dense trace, a support of it that meets the invariant, and candidates.

    The ranges are the runs of the samples with ``|v| >= epsilon`` plus any
    others, each run widened by one sample where it would otherwise begin
    or end on such a sample inside the trace.  Outside the ranges ``v`` may
    be nonzero below epsilon, as the true derivative is where the support
    reads 0.  Candidates sit on range edges and one sample either side of
    them, inside runs where ``|v| >= epsilon``, at the trace ends, or right
    next to another candidate.
    """
    v = np.array(draw(st.lists(st.sampled_from(SUPPORT_GRID), min_size=3, max_size=200)))
    size = v.size
    unsettled = np.abs(v) >= EPSILON
    extra = draw(st.lists(st.sampled_from([False, False, True]), min_size=size, max_size=size))
    inside = unsettled | np.array(extra)
    starts, stops = runs_of(inside)
    inside[starts[(starts > 0) & unsettled[starts]] - 1] = True
    inside[stops[(stops < size) & unsettled[stops - 1]]] = True
    starts, stops = runs_of(inside)
    support = _Support(size, starts, stops, v[inside])
    edges = {int(edge) + d for edge in [*starts, *stops] for d in (-1, 0, 1)}
    spots = edges | set(np.flatnonzero(unsettled).tolist()) | {0, size - 1}
    spots = sorted(i for i in spots if 0 <= i < size)
    chosen = draw(
        st.lists(
            st.sampled_from(spots) | st.integers(min_value=0, max_value=size - 1),
            min_size=1,
            max_size=10,
        )
    )
    if draw(st.booleans()):
        chosen += [i + 1 for i in chosen if i < size - 1]
    return v, support, sorted(set(chosen))


@given(covered_traces(), st.sampled_from([0.3, 0.5, 2.0]))
def test_merge_on_a_support_agrees_with_the_oracle_and_the_dense_trace(
    case, settle_threshold_s: float
) -> None:
    v, support, indices = case
    assert_support_invariant(support, v, EPSILON)
    series = series_at_20hz(np.zeros(v.size))
    config = HybridConfig(settle_threshold_s=settle_threshold_s, time_limit_s=0.1)
    candidates = events_at(indices, series)
    survivors = merge_transient_events(candidates, support, series, config)
    assert survivors.dtype == np.int64
    assert np.array_equal(survivors, merge_transient_events(candidates, v, series, config))
    expected = oracle_merge(
        [(i, series.time_at(i)) for i in indices],
        v,
        20.0,
        config.derivative_epsilon,
        settle_threshold_s,
    )
    assert candidates[survivors].indices.tolist() == expected


@given(
    covered_traces(),
    st.sampled_from([EPSILON, float(np.nextafter(EPSILON, np.inf)), 0.7, 1.0]),
)
def test_extrema_on_a_support_agree_with_the_oracle_and_the_dense_trace(
    case, min_abs_value: float
) -> None:
    # A support answers any min_abs_value at or above its epsilon.
    v, support, _ = case
    assert_support_invariant(support, v, EPSILON)
    found = detect_extrema(support, min_abs_value)
    assert found.dtype == np.int64
    assert np.array_equal(found, detect_extrema(v, min_abs_value))
    expected = [index for index, _, value in oracle_extrema(v) if abs(value) > min_abs_value]
    assert found.tolist() == expected
