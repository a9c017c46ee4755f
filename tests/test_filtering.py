"""Savitzky-Golay smoothing and fluctuation refiltering."""

from __future__ import annotations

import reprlib
import subprocess
import sys
from collections.abc import Callable
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import nilmevents
from nilmevents import (
    DetectionError,
    Events,
    FilterReason,
    HybridConfig,
    InvalidWindow,
    MagnitudeTooLarge,
    MisalignedInput,
    NonFiniteValue,
    OrderTooHigh,
    SampleSeries,
    SeriesTooShort,
    WrongType,
    detect_base,
    detect_extrema,
    detect_hybrid,
    first_derivative,
    loess_smooth,
    refilter_events_with_verdicts,
    savitzky_golay,
    seconds_to_samples,
)

from blocks import use_blocks
from oracles import (
    oracle_base_events,
    oracle_refilter_verdicts,
    oracle_savgol,
    oracle_savgol_exact,
)

float_traces = st.lists(
    st.floats(min_value=-1e4, max_value=1e4, allow_nan=False), min_size=9, max_size=120
).map(np.array)

windows_and_orders = st.sampled_from([(5, 2), (5, 3), (7, 2), (9, 3), (9, 4)])


def series_at_20hz(values: np.ndarray) -> SampleSeries:
    return SampleSeries(values, 20.0)


def guard_of(extrema: list[int]) -> Callable[[np.ndarray, int], np.ndarray]:
    """A guard that returns ``extrema``, whatever it is asked."""
    return lambda indices, radius: np.array(extrema, dtype=np.int64)


NO_EXTREMA = guard_of([])


def plateau_fixture() -> tuple[SampleSeries, HybridConfig]:
    """1.5 kW plateau carrying three oscillation bursts between clean steps."""
    rate = 20.0
    t = np.arange(int(60 * rate)) / rate
    values = np.where((t >= 10.0) & (t < 50.0), 1500.0, 0.0)
    for start in (20.0, 27.0, 34.0):
        mask = (t >= start) & (t < start + 1.0)
        values = values + np.where(
            mask, 40.0 * np.sin(2.0 * np.pi * (t - start) / 0.5), 0.0
        )
    config = HybridConfig(loess_window_s=3.0, sg_window_samples=41, sg_poly_order=2)
    return SampleSeries(values, rate), config


def test_savgol_reproduces_fitted_degree_polynomials() -> None:
    x = np.arange(60, dtype=float)
    cubic = 0.002 * x**3 - 0.4 * x**2 + 3.0 * x - 7.0
    np.testing.assert_allclose(savitzky_golay(cubic, 9, 3), cubic, rtol=1e-8, atol=1e-8)
    quadratic = 0.5 * x**2 - 2.0 * x
    np.testing.assert_allclose(savitzky_golay(quadratic, 5, 2), quadratic, rtol=1e-8, atol=1e-8)


def test_savgol_keeps_constants() -> None:
    for window, order in ((3, 0), (9, 3), (11, 5)):
        np.testing.assert_allclose(
            savitzky_golay(np.full(40, 250.0), window, order), 250.0, rtol=1e-12
        )


@given(float_traces, windows_and_orders)
def test_savgol_matches_normal_equations_oracle(values: np.ndarray, setup) -> None:
    window, order = setup
    assume(window <= values.size)
    smoothed = savitzky_golay(values, window, order)
    expected = oracle_savgol(values, window, order)
    scale = max(1.0, float(np.max(np.abs(values))))
    np.testing.assert_allclose(smoothed, expected, rtol=1e-8, atol=1e-8 * scale)


def test_savgol_fixed_oracle_comparison() -> None:
    rng = np.random.default_rng(7)
    values = rng.uniform(-100.0, 100.0, size=50)
    np.testing.assert_allclose(
        savitzky_golay(values, 5, 2), oracle_savgol(values, 5, 2), rtol=1e-8, atol=1e-8
    )


@given(float_traces, st.sampled_from([5, 15]))
def test_savgol_with_interpolating_order_is_the_identity(values: np.ndarray, window: int) -> None:
    assume(window <= values.size)
    scale = max(1.0, float(np.max(np.abs(values))))
    np.testing.assert_allclose(
        savitzky_golay(values, window, window - 1), values, rtol=1e-8, atol=1e-8 * scale
    )


def test_savgol_matches_an_exact_rational_fit_up_to_the_interpolating_order() -> None:
    values = np.random.default_rng(5).integers(0, 3000, 40).astype(float)
    for order in range(15):
        np.testing.assert_allclose(
            savitzky_golay(values, 15, order),
            oracle_savgol_exact(values, 15, order),
            rtol=1e-8,
            atol=1e-8 * 3000,
            err_msg=f"order {order}",
        )


@pytest.mark.parametrize(("window", "order"), [(3, 1), (9, 3), (41, 2), (129, 4)])
def test_blocked_savgol_equals_the_whole_array_convolution_and_edge_fits(
    small_blocks: int, window: int, order: int
) -> None:
    half = window // 2
    vander = np.vander(np.arange(-half, half + 1) / half, order + 1, increasing=True)
    fit = np.linalg.pinv(vander)
    projection = vander @ fit
    rng = np.random.default_rng(window)
    for size in (window, window + 1, 500):
        values = rng.normal(0.0, 50.0, size)
        smoothed = savitzky_golay(values, window, order)
        interior = slice(half, size - half)
        expected = np.convolve(values, fit[0, ::-1], "same")
        assert np.array_equal(smoothed[interior], expected[interior])
        assert np.array_equal(smoothed[:half], (projection[:half] * values[:window]).sum(axis=1))
        assert np.array_equal(
            smoothed[size - half :],
            (projection[window - half :] * values[size - window :]).sum(axis=1),
        )


@pytest.mark.parametrize(("window", "order"), [(3, 1), (9, 3), (41, 2), (129, 4)])
def test_savgol_end_fits_depend_only_on_the_end_window(window: int, order: int) -> None:
    # The refilter smooths its gathered windows in one call: where a window
    # starts or ends the trace, the gathered array shares the trace's first
    # or last SG window, wherever it sits in memory, and its end fits must be
    # the trace's own, bit for bit.
    half = window // 2
    rng = np.random.default_rng(window + order)
    x = rng.normal(0.0, 50.0, 3 * window)
    smoothed = savitzky_golay(x, window, order)
    head, tail = smoothed[:half], smoothed[-half:]
    backing = np.concatenate((rng.normal(0.0, 50.0, 7), x, rng.normal(0.0, 50.0, 5)))
    shares_both = [x.copy(), backing[7 : 7 + x.size]]  # a copy, and a slice at an odd offset
    for y in shares_both + [np.concatenate((x[:window], rng.normal(0.0, 50.0, 2 * window)))]:
        assert savitzky_golay(y, window, order)[:half].tobytes() == head.tobytes()
    for y in shares_both + [np.concatenate((rng.normal(0.0, 50.0, 5 * window), x[-window:]))]:
        assert savitzky_golay(y, window, order)[-half:].tobytes() == tail.tobytes()


def test_importing_the_package_does_not_load_scipy() -> None:
    package_root = Path(nilmevents.__file__).resolve().parent.parent
    probe = (
        f"import sys; sys.path.insert(0, {str(package_root)!r}); import nilmevents; "
        "print('scipy' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "False"


def test_savgol_window_and_order_validation() -> None:
    values = np.zeros(20)
    with pytest.raises(InvalidWindow):
        savitzky_golay(values, 8, 3)
    with pytest.raises(InvalidWindow):
        savitzky_golay(values, 1, 0)
    with pytest.raises(InvalidWindow):
        savitzky_golay(values, 21, 3)
    with pytest.raises(OrderTooHigh):
        savitzky_golay(values, 5, 5)
    with pytest.raises(OrderTooHigh):
        savitzky_golay(values, 5, -1)


def events_at(indices: list[int], series: SampleSeries, delta_watts: float) -> Events:
    return Events(indices, [series.time_at(i) for i in indices], [delta_watts] * len(indices))


def low_power_candidates(series: SampleSeries) -> Events:
    return Events([50, 150], [series.time_at(50), series.time_at(150)], [30.0, -30.0])


def test_low_power_series_passes_through_unchanged() -> None:
    t = np.arange(300) / 20.0
    series = series_at_20hz(np.where((t >= 2.5) & (t < 7.5), 40.0, 0.0))
    candidates = low_power_candidates(series)
    survivors, verdicts, read = refilter_events_with_verdicts(
        series, candidates, NO_EXTREMA, HybridConfig()
    )
    assert survivors.tolist() == [0, 1]
    assert len(verdicts) == 0 and read.size == 0


def test_all_negative_candidates_pass_through_unchanged() -> None:
    # Without a turn-on candidate there is no segment to inspect for
    # fluctuation, so the refilter leaves the list alone.
    series = series_at_20hz(np.full(300, 2000.0))
    candidates = Events([80], [4.0], [-500.0])
    survivors, verdicts, read = refilter_events_with_verdicts(
        series, candidates, guard_of([79]), HybridConfig()
    )
    assert survivors.tolist() == [0]
    assert len(verdicts) == 0 and read.size == 0


def test_empty_candidate_list_is_a_no_op() -> None:
    series = series_at_20hz(np.zeros(100))
    survivors, verdicts, read = refilter_events_with_verdicts(
        series, Events([], [], []), NO_EXTREMA, HybridConfig()
    )
    assert survivors.size == 0
    assert len(verdicts) == 0 and read.size == 0


def test_refilter_index_validation() -> None:
    series = series_at_20hz(np.zeros(100))
    stray_event = Events([100], [5.0], [50.0])
    with pytest.raises(MisalignedInput) as excinfo:
        refilter_events_with_verdicts(series, stray_event, NO_EXTREMA, HybridConfig())
    message = "candidates must increase strictly and lie in [0, 100), got candidates[0] = 100"
    assert str(excinfo.value) == message


def two_loads() -> tuple[SampleSeries, Events]:
    """2 kW on samples 100-300 and 300 W from 500, with a turn-on candidate at each start.

    The first turn-on by index, at 100, fires the refilter.
    """
    values = np.zeros(600)
    values[100:300], values[500:] = 2000.0, 300.0
    return series_at_20hz(values), Events([100, 500], [5.0, 25.0], [2000.0, 300.0])


def test_candidates_out_of_order_are_refused_whether_or_not_the_refilter_would_fire() -> None:
    # The same candidates in reverse order once read the 300 W one as the
    # first turn-on, and the refilter did not fire.
    series, ordered = two_loads()
    _, verdicts, _ = refilter_events_with_verdicts(series, ordered, NO_EXTREMA, HybridConfig())
    assert len(verdicts) == 2
    with pytest.raises(MisalignedInput) as excinfo:
        refilter_events_with_verdicts(series, ordered[::-1], NO_EXTREMA, HybridConfig())
    message = "candidates must increase strictly and lie in [0, 600), got candidates[1] = 100"
    assert str(excinfo.value) == message


RULE = "extrema must increase strictly and lie in [0, 600), got"


@pytest.mark.parametrize(
    ("returned", "error", "message"),
    [
        ([-1, 600], MisalignedInput, f"{RULE} extrema[0] = -1"),
        ([5, 600], MisalignedInput, f"{RULE} extrema[1] = 600"),
        ([7, 7], MisalignedInput, f"{RULE} extrema[1] = 7"),
        ([9, 3], MisalignedInput, f"{RULE} extrema[1] = 3"),
        ([1.0], WrongType, "extrema must be a one-dimensional array of integers, got [1.0]"),
        ([[1]], WrongType, "extrema must be a one-dimensional array of integers, got [[1]]"),
    ],
)
def test_the_extrema_a_guard_returns_are_checked_by_the_position_rule(
    returned: list, error: type, message: str
) -> None:
    # Outside the series, the first two once protected both candidates unchecked.
    series, candidates = two_loads()
    with pytest.raises(error) as excinfo:
        refilter_events_with_verdicts(series, candidates, lambda i, r: returned, HybridConfig())
    assert str(excinfo.value) == message


@pytest.mark.parametrize("extrema", [[], [79], np.array([79]), None], ids=repr)
def test_extrema_that_are_not_a_function_are_refused_by_name(extrema: object) -> None:
    series = series_at_20hz(np.full(300, 2000.0))
    candidates = Events([80], [4.0], [500.0])
    with pytest.raises(WrongType) as excinfo:
        refilter_events_with_verdicts(series, candidates, extrema, HybridConfig())
    assert str(excinfo.value) == f"extrema must be of type Callable, got {reprlib.repr(extrema)}"


def test_oscillation_alarms_are_removed_and_steps_kept() -> None:
    series, config = plateau_fixture()
    result = detect_hybrid(series, config)
    # Candidates entering the refilter: one event per step plus one per
    # oscillation burst.
    assert [e.index for e in result.merged_events] == [194, 403, 543, 683, 994]
    assert [e.index for e in result.events] == [194, 994]
    outcomes = [(v.event_index, v.kept, v.reason) for v in result.filter_verdicts]
    assert outcomes == [
        (194, True, FilterReason.SURVIVED_REFILTER),
        (403, False, FilterReason.REMOVED_AS_FLUCTUATION),
        (543, False, FilterReason.REMOVED_AS_FLUCTUATION),
        (683, False, FilterReason.REMOVED_AS_FLUCTUATION),
        (994, True, FilterReason.SURVIVED_REFILTER),
    ]
    assert result.final_positions.tolist() == result.merged_positions[[0, 4]].tolist()


def test_refilter_decisions_replay_from_first_principles() -> None:
    # Re-derive every verdict of the plateau fixture by hand: smooth the
    # trace, re-run a brute-force base detection on it, then apply the
    # tolerance match and the extremum guard.
    series, config = plateau_fixture()
    result = detect_hybrid(series, config)
    smoothed_trace = oracle_savgol(series.values, config.sg_window_samples, config.sg_poly_order)
    re_events = oracle_base_events(
        smoothed_trace, 20.0, config.mean_window_samples(20.0),
        config.power_threshold_watts, config.time_limit_s,
    )
    re_indices = [index for index, _, _ in re_events]
    whole = loess_smooth(first_derivative(series.values), config.loess_window_samples(20.0))
    guard_indices = detect_extrema(whole, config.derivative_epsilon).tolist()
    kept_expected = []
    for event in result.merged_events:
        # The 1 s tolerance and the 0.2 s time limit are 20 and 4 samples.
        confirmed = any(abs(r - event.index) <= 20 for r in re_indices)
        guarded = any(abs(g - event.index) <= 4 for g in guard_indices)
        if confirmed or guarded:
            kept_expected.append(event.index)
    assert [e.index for e in result.events] == kept_expected


def test_guarded_candidates_survive_regardless_of_redetection() -> None:
    # A 30 W wiggle on top of a 1.5 kW plateau is erased by the smoothing
    # pass, so its candidate is removal-eligible; placing an extremum
    # within the guard radius must keep it anyway.
    t = np.arange(1200) / 20.0
    values = np.where(t >= 10.0, 1500.0, 0.0)
    series = series_at_20hz(values)
    config = HybridConfig()
    candidates = Events([194, 600], [series.time_at(194), series.time_at(600)], [250.0, 28.0])
    removed, _, _ = refilter_events_with_verdicts(series, candidates, NO_EXTREMA, config)
    assert candidates.indices[removed].tolist() == [194]
    kept, verdicts, read = refilter_events_with_verdicts(
        series, candidates, guard_of([190, 603]), config
    )
    assert candidates.indices[kept].tolist() == [194, 600]
    # The extremum near the confirmed step guards nothing, so the guard does not read it.
    assert read.tolist() == [603]
    guarded = list(verdicts)[1]
    assert guarded.reason is FilterReason.PROTECTED_BY_EXTREMUM
    assert guarded.kept is True
    kept_far, _, read_far = refilter_events_with_verdicts(
        series, candidates, guard_of([610]), config
    )
    assert candidates.indices[kept_far].tolist() == [194]
    assert read_far.size == 0


@given(st.lists(st.integers(0, 1199), unique=True, min_size=1, max_size=6).map(sorted))
def test_refilter_output_is_a_subset_with_consistent_verdicts(indices: list[int]) -> None:
    t = np.arange(1200) / 20.0
    series = series_at_20hz(np.where(t >= 10.0, 1500.0, 0.0))
    config = HybridConfig()
    candidates = events_at(indices, series, 50.0)
    survivors, verdicts, _ = refilter_events_with_verdicts(series, candidates, NO_EXTREMA, config)
    survivor_indices = candidates.indices[survivors].tolist()
    assert set(survivor_indices) <= set(indices)
    assert [v.event_index for v in verdicts] == indices
    for verdict in verdicts:
        if verdict.reason is FilterReason.PROTECTED_BY_EXTREMUM:
            assert verdict.kept
        if verdict.reason is FilterReason.REMOVED_AS_FLUCTUATION:
            assert not verdict.kept
    assert [v.event_index for v in verdicts if v.kept] == survivor_indices


def test_savitzky_golay_rows_are_built_once_and_read_only() -> None:
    centre, projection = nilmevents.filtering._savitzky_golay_rows(41, 2)
    assert nilmevents.filtering._savitzky_golay_rows(41, 2)[0] is centre
    for rows in (centre, projection):
        assert not rows.flags.writeable
    values = np.random.default_rng(2).normal(0.0, 50.0, 300)
    assert np.array_equal(savitzky_golay(values, 41, 2), savitzky_golay(values, 41, 2))
    np.testing.assert_allclose(savitzky_golay(values, 41, 2), oracle_savgol(values, 41, 2),
                               rtol=1e-9, atol=1e-9)


def refilter_trace(stepped: bool) -> np.ndarray:
    """60 s at 20 Hz, above the trigger throughout once switched on.

    The stepped trace goes 0 -> 1.5 kW -> 3 kW -> 1.5 kW and is re-detected
    at each step; the flat 1.5 kW trace has no re-detection at all.
    """
    t = np.arange(1200) / 20.0
    if not stepped:
        return np.full(t.size, 1500.0)
    return np.select([t < 10.0, t < 30.0, t < 45.0], [0.0, 1500.0, 3000.0], 1500.0)


def near_tolerance(re_indices: list[int], tolerance: int, size: int) -> list[int]:
    """Candidate indices at the tolerance from a re-detection, or one sample either side."""
    return [
        edge
        for r in re_indices
        for bound in (r - tolerance, r + tolerance)
        for edge in (bound - 1, bound, bound + 1)
        if 0 <= edge < size
    ]


@given(st.data())
def test_refilter_verdicts_agree_with_full_scans(data) -> None:
    config = HybridConfig()
    tolerance = seconds_to_samples(nilmevents.filtering._CONFIRM_S, 20.0)
    guard = seconds_to_samples(config.time_limit_s, 20.0)
    stepped = data.draw(st.booleans())
    series = series_at_20hz(refilter_trace(stepped))
    smoothed = series_at_20hz(
        savitzky_golay(series.values, config.sg_window_samples, config.sg_poly_order)
    )
    re_indices = detect_base(smoothed, config).indices.tolist()
    assert bool(re_indices) == stepped
    # Candidates sit exactly at the tolerance from a re-detection, or one
    # sample either side of it, and exactly at or one past the guard radius
    # from an extremum; the extremum list may be empty.  Their timestamps
    # are drawn apart from their indices, and no verdict reads them.  Both
    # are taken in increasing index order, once each.
    extremum_indices = sorted(data.draw(st.lists(st.integers(0, 1199), max_size=6, unique=True)))
    at_guard = [
        g + d
        for g in extremum_indices
        for d in (-guard - 1, -guard, 0, guard, guard + 1)
        if 0 <= g + d < 1200
    ]
    indices = st.integers(0, 1199)
    if near := near_tolerance(re_indices, tolerance, 1200) + at_guard:
        indices = st.sampled_from(near) | indices
    specs = data.draw(st.lists(st.tuples(indices, st.floats(0.0, 60.0)), min_size=1, max_size=10))
    specs = sorted(dict(specs).items())
    candidates = Events([i for i, _ in specs], [t for _, t in specs], [50.0] * len(specs))
    # The guard is asked once, for the unconfirmed candidates.
    asked = []

    def near(unconfirmed: np.ndarray, radius: int) -> np.ndarray:
        asked.append((unconfirmed.tolist(), radius))
        return np.array(extremum_indices, dtype=np.int64)

    survivors, verdicts, read = refilter_events_with_verdicts(series, candidates, near, config)
    expected = oracle_refilter_verdicts(
        [i for i, _ in specs], re_indices, extremum_indices, tolerance, guard
    )
    assert [v.reason.value for v in verdicts] == expected
    assert [v.event_index for v in verdicts] == [i for i, _ in specs]
    kept = [k for k, reason in enumerate(expected) if reason != "removed_as_fluctuation"]
    assert survivors.tolist() == kept
    unconfirmed = [i for (i, _), reason in zip(specs, expected) if reason != "survived_refilter"]
    assert read.tolist() == [
        g for g in extremum_indices if any(abs(g - i) <= guard for i in unconfirmed)
    ]
    assert asked == [(unconfirmed, guard)]


def test_the_confirmation_reads_candidate_indices_not_timestamps() -> None:
    # The same candidates stamped on the grid, far off it, and in reverse
    # order get the same verdicts.
    series = series_at_20hz(refilter_trace(True))
    config = HybridConfig()
    indices = [150, 198, 230, 590, 612, 900, 1100]
    on_grid = events_at(indices, series, 50.0)
    verdicts = refilter_events_with_verdicts(series, on_grid, NO_EXTREMA, config)
    assert {v.reason for v in verdicts[1]} == {
        FilterReason.SURVIVED_REFILTER,
        FilterReason.REMOVED_AS_FLUCTUATION,
    }
    for stamps in ([1.7e9 + 0.3 * i for i in indices], [-float(i) for i in indices]):
        stamped = Events(indices, stamps, [50.0] * len(indices))
        survivors, restamped, read = refilter_events_with_verdicts(
            series, stamped, NO_EXTREMA, config
        )
        assert np.array_equal(survivors, verdicts[0]) and restamped == verdicts[1]
        assert np.array_equal(read, verdicts[2])


def test_kitchen_replica_removes_fluctuation_alarms_only() -> None:
    from replicas import run_replica

    run = run_replica("kitchen")
    merged = run.result.merged_events
    final = run.result.events
    assert len(merged) > len(final)
    removed = [v for v in run.result.filter_verdicts if not v.kept]
    assert all(v.reason is FilterReason.REMOVED_AS_FLUCTUATION for v in removed)
    # Every reference transition is still matched by a surviving event.
    truth_times = sorted(set(e.timestamp_s for e in run.truth))
    final_times = [e.timestamp_s for e in final]
    for truth_time in truth_times:
        assert min(abs(t - truth_time) for t in final_times) <= 1.0


# The windowed re-detection against today's whole-trace path.


def whole_trace_redetections(series: SampleSeries, config: HybridConfig) -> list[int]:
    """Re-detection indices as the whole-trace path finds them: smooth all, detect on all."""
    smoothed = SampleSeries(
        savitzky_golay(series.values, config.sg_window_samples, config.sg_poly_order),
        series.sampling_rate_hz,
        series.start_time_s,
    )
    return detect_base(smoothed, config).indices.tolist()


# The default block size, then blocks of 1, 7 and 64 samples.
REFILTER_BLOCKS = (None, 1, 7, 64)


def assert_refilter_matches_whole_trace(
    series: SampleSeries,
    config: HybridConfig,
    specs: list[tuple[int, float]],
    extremum_indices: list[int],
    re_indices: list[int],
) -> None:
    """Verdicts of ``(index, timestamp)`` candidates; the oracle reads only their indices.

    The refilter runs at the default block size and at blocks of 1, 7 and
    64 samples, so its windows are cut into many piece groups, against
    re-detections found once, at the default size.  The candidates and the
    extrema are taken in increasing index order, once each, as the
    refilter takes them.
    """
    specs, extremum_indices = sorted(dict(specs).items()), sorted(set(extremum_indices))
    rate = series.sampling_rate_hz
    guard = seconds_to_samples(config.time_limit_s, rate)
    tolerance = seconds_to_samples(nilmevents.filtering._CONFIRM_S, rate)
    candidates = Events([i for i, _ in specs], [t for _, t in specs], [50.0] * len(specs))
    expected = oracle_refilter_verdicts(
        [i for i, _ in specs], re_indices, extremum_indices, tolerance, guard
    )
    unconfirmed = [i for (i, _), reason in zip(specs, expected) if reason != "survived_refilter"]
    for block in REFILTER_BLOCKS:
        with pytest.MonkeyPatch.context() as monkeypatch:
            if block is not None:
                use_blocks(monkeypatch, block)
            survivors, verdicts, read = refilter_events_with_verdicts(
                series, candidates, guard_of(extremum_indices), config
            )
        assert [v.reason.value for v in verdicts] == expected, f"block {block}"
        assert [v.event_index for v in verdicts] == [i for i, _ in specs]
        assert survivors.tolist() == [
            k for k, reason in enumerate(expected) if reason != "removed_as_fluctuation"
        ]
        assert read.tolist() == [
            g for g in extremum_indices if any(abs(g - i) <= guard for i in unconfirmed)
        ]


def use_confirm_window(monkeypatch: pytest.MonkeyPatch, seconds: float) -> None:
    """Confirm a candidate within ``seconds`` of a re-detection, rather than 1 s."""
    monkeypatch.setattr(nilmevents.filtering, "_CONFIRM_S", seconds)


@st.composite
def busy_traces(draw) -> tuple[SampleSeries, HybridConfig, float]:
    """A trace above the trigger throughout, with steps, oscillation bursts and long ramps,
    and a confirmation window in seconds.

    A ramp alarms at every centre it covers, so a window that starts on
    one must be widened back past the ramp's start.
    """
    rate = draw(st.sampled_from([20.0, 50.0, 60.0]))
    start = draw(st.sampled_from([-7.25, 0.1, 3600.0, 1.7e9]))
    window, order = draw(st.sampled_from([(5, 2), (9, 3), (41, 2)]))
    config = HybridConfig(
        mean_window_s=draw(st.sampled_from([0.1, 0.3])),
        time_limit_s=draw(st.sampled_from([0.1, 0.2, 0.5])),
        sg_window_samples=window,
        sg_poly_order=order,
    )
    size = draw(st.integers(100, 700))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = 1500.0 + rng.normal(0.0, 5.0, size)
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["step", "burst", "ramp", "ramp"]))
        first = draw(st.integers(0, size - 1))
        length = draw(st.integers(5, 200))
        part = values[first : first + length]
        ramp = np.arange(part.size, dtype=float)
        if kind == "step":
            values[first:] += draw(st.sampled_from([-300.0, 300.0]))
        elif kind == "burst":
            part += 60.0 * np.sin(2.0 * np.pi * ramp * 2.0 / rate)
        else:
            part += ramp * draw(st.sampled_from([-15.0, 15.0, 40.0]))
    confirm_s = draw(st.sampled_from([0.05, 0.3, 1.0]))
    return SampleSeries(np.maximum(values, 1100.0), rate, start), config, confirm_s


@given(busy_traces(), st.data())
def test_windowed_redetection_verdicts_equal_the_whole_trace_path(case, data) -> None:
    series, config, confirm_s = case
    size, rate = len(series), series.sampling_rate_hz
    tolerance = seconds_to_samples(confirm_s, rate)
    half = config.sg_window_samples // 2
    re_indices = whole_trace_redetections(series, config)
    end_time = series.time_at(size - 1)
    # No verdict reads a timestamp: on the grid, off it, or far outside the trace.
    times = (
        st.floats(series.start_time_s - 5.0, end_time + 5.0)
        | st.integers(0, size - 1).map(series.time_at)
        | st.sampled_from([series.start_time_s - 100.0, end_time + 100.0])
    )
    # At the tolerance from a re-detection, within an SG half window of either end, or anywhere.
    indices = st.integers(0, half) | st.integers(size - 1 - half, size - 1)
    indices |= st.integers(0, size - 1)
    if at_tolerance := near_tolerance(re_indices, tolerance, size):
        indices = st.sampled_from(at_tolerance) | indices
    specs = data.draw(st.lists(st.tuples(indices, times), min_size=1, max_size=12))
    extrema = data.draw(st.lists(st.integers(0, size - 1), max_size=4))
    with pytest.MonkeyPatch.context() as monkeypatch:
        use_confirm_window(monkeypatch, confirm_s)
        assert_refilter_matches_whole_trace(series, config, specs, extrema, re_indices)


def smoothing_calls(monkeypatch: pytest.MonkeyPatch) -> list[int]:
    """Wrap ``nilmevents.filtering.savitzky_golay``: the sizes of the inputs it is given."""
    sizes: list[int] = []
    smooth = nilmevents.filtering.savitzky_golay

    def recording(values, window_samples, poly_order):
        sizes.append(np.asarray(values).size)
        return smooth(values, window_samples, poly_order)

    monkeypatch.setattr(nilmevents.filtering, "savitzky_golay", recording)
    return sizes


def piece_groups_read(monkeypatch: pytest.MonkeyPatch) -> list[tuple[int, int, int]]:
    """Wrap the refilter's ``_piece_groups``: per group, the block size, where its first read
    begins and where its last read ends."""
    reads: list[tuple[int, int, int]] = []
    piece_groups = nilmevents.filtering._piece_groups

    def recording(*args, **kwargs):
        for layout in piece_groups(*args, **kwargs):
            reads.append((nilmevents.core._BLOCK_SAMPLES, int(layout.lo[0]), int(layout.hi[-1])))
            yield layout

    monkeypatch.setattr(nilmevents.filtering, "_piece_groups", recording)
    return reads


def test_a_window_that_starts_inside_an_alarm_run_is_widened_back(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    # A 20 W-per-sample ramp from 10 s to 20 s alarms at every centre, and the
    # time limit emits every fifth alarm from the first one.  The window of a
    # candidate at 15 s starts mid-ramp, so its first alarm is no proven chain
    # reset until the window reaches back past the ramp's start.
    values = np.full(800, 1500.0)
    values[200:400] += 20.0 * np.arange(200)
    values[400:] = values[399]
    series = series_at_20hz(values)
    config = HybridConfig(sg_window_samples=9, sg_poly_order=3)
    re_indices = whole_trace_redetections(series, config)
    near = near_tolerance([r for r in re_indices if abs(r - 300) < 40], 20, len(series))
    specs = [(index, series.time_at(index)) for index in [300] + near]
    sizes = smoothing_calls(monkeypatch)
    assert_refilter_matches_whole_trace(series, config, specs, [], re_indices)
    assert len(sizes) > 1


def test_a_first_alarm_exactly_the_time_limit_into_its_window_is_no_proven_reset(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    # An interpolating SG filter (5 taps, order 4) leaves the trace as it is.
    # With 1-sample mean windows, a staircase rising 20 W at the samples 0
    # and 1 of every 4 alarms at every centre 0 mod 4, and the 4-sample time
    # limit emits those 4 mod 8.  A candidate at 3 mod 8 reads the centres
    # from 6 samples before it, so its window's first alarm lies exactly 4
    # samples after the alarm just before the window, which suppresses it:
    # no proven reset.  A 1-sample confirmation window then tells which is emitted.
    steps = np.where(np.arange(400) % 4 < 2, 20.0, 0.0)
    series = series_at_20hz(1500.0 + np.cumsum(steps))
    config = HybridConfig(mean_window_s=0.05, sg_window_samples=5, sg_poly_order=4)
    use_confirm_window(monkeypatch, 0.05)
    re_indices = whole_trace_redetections(series, config)
    assert re_indices == list(range(4, 397, 8))
    specs = [(index, 0.0) for index in range(43, 360, 32)]
    assert_refilter_matches_whole_trace(series, config, specs, [], re_indices)


def test_windows_at_both_ends_of_a_short_trace_take_the_edge_fits(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    # An SG window longer than two mean windows and a half window: a window at
    # a trace end reads a piece shorter than an SG window, which is stretched.
    rng = np.random.default_rng(11)
    values = 1500.0 + np.cumsum(rng.normal(0.0, 20.0, 120))
    series = SampleSeries(values, 50.0, 2.5)
    config = HybridConfig(mean_window_s=0.02, sg_window_samples=41, sg_poly_order=2)
    use_confirm_window(monkeypatch, 0.01)
    re_indices = whole_trace_redetections(series, config)
    specs = [(0, series.time_at(1)), (119, series.time_at(118)), (60, series.time_at(60))]
    specs += [(r, 5.0) for r in re_indices]
    groups = piece_groups_read(monkeypatch)
    assert_refilter_matches_whole_trace(series, config, specs, [], re_indices)
    # At every block size some group opens with a read of sample 0 and some
    # group closes with a read of the last sample.
    blocks = {nilmevents.core._BLOCK_SAMPLES, 1, 7, 64}
    assert {block for block, lo, _ in groups if lo == 0} == blocks
    assert {block for block, _, hi in groups if hi == len(series)} == blocks


# Errors: a fired refilter raises what the whole-trace path raises, with its message.


def whole_trace_error(series: SampleSeries, config: HybridConfig) -> DetectionError:
    with pytest.raises(DetectionError) as caught:
        whole_trace_redetections(series, config)
    return caught.value


def assert_refilter_raises_as_whole_trace(series: SampleSeries, config: HybridConfig) -> None:
    expected = whole_trace_error(series, config)
    candidates = Events([len(series) // 2], [series.time_at(len(series) // 2)], [50.0])
    with pytest.raises(type(expected)) as caught:
        refilter_events_with_verdicts(series, candidates, NO_EXTREMA, config)
    assert str(caught.value) == str(expected)


def test_a_smoothed_peak_past_the_magnitude_limit_is_refused_as_the_whole_trace_does() -> None:
    # The last projection row of a 41-sample, order-2 window has an L1 norm of
    # 2.05: samples of one magnitude carrying its signs overshoot there.
    config = HybridConfig(sg_window_samples=41, sg_poly_order=2)
    n = config.mean_window_samples(20.0)
    limit = config.power_threshold_watts / nilmevents.base._rounding_margin(1.0, n)
    peak = 0.7 * limit
    _, projection = nilmevents.filtering._savitzky_golay_rows(41, 2)
    values = np.full(400, peak)
    values[-41:] = peak * np.sign(projection[-1])
    series = series_at_20hz(values)
    detect_base(series, config)  # the raw peak passes
    assert isinstance(whole_trace_error(series, config), MagnitudeTooLarge)
    assert_refilter_raises_as_whole_trace(series, config)


def test_a_trace_near_the_magnitude_limit_that_smooths_below_it_is_re_detected_as_before() -> None:
    # The bound cannot rule the error out here, so the whole trace is smoothed
    # to read its peak; it passes, and the verdicts are the windowed ones.
    config = HybridConfig(sg_window_samples=41, sg_poly_order=2)
    n = config.mean_window_samples(20.0)
    limit = config.power_threshold_watts / nilmevents.base._rounding_margin(1.0, n)
    values = np.full(400, 0.7 * limit)
    values[200:] -= 1e3
    series = series_at_20hz(values)
    re_indices = whole_trace_redetections(series, config)
    specs = [(200, series.time_at(200)), (100, 5.0)]
    specs += [(index, 0.5) for index in near_tolerance(re_indices, 20, len(series))]
    assert_refilter_matches_whole_trace(series, config, specs, [], re_indices)


def test_a_smoothing_that_overflows_is_refused_as_the_whole_trace_path_refuses_it() -> None:
    _, projection = nilmevents.filtering._savitzky_golay_rows(41, 2)
    values = np.full(200, 1.5e308)
    values[:41] = 1.5e308 * np.sign(projection[0])
    series = series_at_20hz(values)
    config = HybridConfig(sg_window_samples=41, sg_poly_order=2)
    # Both paths run the same whole-trace smoothing, whose edge product overflows.
    with pytest.warns(RuntimeWarning, match="overflow"):
        expected = whole_trace_error(series, config)
    assert isinstance(expected, NonFiniteValue)
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert_refilter_raises_as_whole_trace(series, config)


@pytest.mark.parametrize(
    ("size", "window", "error"),
    [
        (30, 41, InvalidWindow),  # the SG window is longer than the series
        (3, 5, InvalidWindow),  # ... and so are the mean windows
        (10, 5, SeriesTooShort),  # two 6-sample mean windows and a centre need 13
    ],
)
def test_short_series_are_refused_as_the_whole_trace_path_refuses_them(
    size: int, window: int, error: type
) -> None:
    series = series_at_20hz(np.full(size, 1500.0))
    config = HybridConfig(sg_window_samples=window, sg_poly_order=2)
    assert isinstance(whole_trace_error(series, config), error)
    assert_refilter_raises_as_whole_trace(series, config)


def test_an_order_too_high_is_refused_as_the_whole_trace_path_refuses_it() -> None:
    # HybridConfig refuses such an order, so it is written past the config's checks.
    config = HybridConfig(sg_window_samples=9, sg_poly_order=3)
    object.__setattr__(config, "sg_poly_order", 9)
    series = series_at_20hz(np.full(100, 1500.0))
    assert isinstance(whole_trace_error(series, config), OrderTooHigh)
    assert_refilter_raises_as_whole_trace(series, config)


# What the refilter smooths.


def read_bound(series: SampleSeries, candidates: int, config: HybridConfig) -> int:
    """The samples smoothed at most, by the refilter's docstring, with no window widened back."""
    rate = series.sampling_rate_hz
    n = config.mean_window_samples(rate)
    half = config.sg_window_samples // 2
    centres = 2 * seconds_to_samples(nilmevents.filtering._CONFIRM_S, rate) + 1
    lead_in = seconds_to_samples(config.time_limit_s, rate) + 1
    return candidates * (centres + lead_in + 2 * (n + half))


def dense_trace() -> SampleSeries:
    """20 min at 20 Hz above the trigger: a 200 W step every 14 s, each followed by a burst."""
    rng = np.random.default_rng(4)
    t = np.arange(24000) / 20.0
    values = 1500.0 + 200.0 * (np.floor(t / 14.0) % 2) + rng.normal(0.0, 0.2, t.size)
    burst = (t % 14.0 > 6.0) & (t % 14.0 < 7.0)
    values[burst] += 60.0 * np.sin(2.0 * np.pi * t[burst] / 0.5)
    return series_at_20hz(values)


@pytest.mark.parametrize("block", [None, 256], ids=["default_blocks", "block256"])
@pytest.mark.parametrize("trace", ["kitchen", "dense"])
def test_the_refilter_smooths_only_its_windows(
    trace: str, block: int | None, monkeypatch: pytest.MonkeyPatch
) -> None:
    from replicas import replica_config, replica_spec

    if trace == "kitchen":
        series, _ = nilmevents.generate_scenario(replica_spec("kitchen"))
        config = replica_config("kitchen")
    else:
        series = dense_trace()
        config = HybridConfig(loess_window_s=3.0, sg_window_samples=41, sg_poly_order=2)
    if block is not None:
        use_blocks(monkeypatch, block)
    sizes = smoothing_calls(monkeypatch)
    result = detect_hybrid(series, config)
    merged = len(result.merged_events)
    assert len(result.filter_verdicts) == merged > 10
    # One call per piece group, each reading less than two blocks and a
    # window's reach on either side.
    reach = config.mean_window_samples(series.sampling_rate_hz) + config.sg_window_samples // 2
    assert sizes and max(sizes) < 2 * nilmevents.core._BLOCK_SAMPLES + 2 * reach
    # A window longer than a block is cut into pieces that each read the
    # reach again; at the default block size no window is that long.
    if block is None:
        assert sum(sizes) <= read_bound(series, merged, config)
        assert sum(sizes) < len(series)
    else:
        assert len(sizes) > 1


def test_nothing_is_smoothed_where_the_refilter_does_not_fire(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    from replicas import replica_config, replica_spec

    series, _ = nilmevents.generate_scenario(replica_spec("lighting"))
    sizes = smoothing_calls(monkeypatch)
    result = detect_hybrid(series, replica_config("lighting"))
    assert len(result.filter_verdicts) == 0
    assert sizes == []
