"""Savitzky-Golay smoothing and fluctuation refiltering."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import nilmevents
from nilmevents import (
    Events,
    FilterReason,
    HybridConfig,
    InvalidWindow,
    MisalignedInput,
    OrderTooHigh,
    SampleSeries,
    detect_base,
    detect_extrema,
    detect_hybrid,
    first_derivative,
    loess_smooth,
    refilter_events_with_verdicts,
    savitzky_golay,
    seconds_to_samples,
)

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
        assert np.array_equal(smoothed[:half], projection[:half] @ values[:window])
        assert np.array_equal(
            smoothed[size - half :], projection[window - half :] @ values[size - window :]
        )


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
    survivors, verdicts = refilter_events_with_verdicts(series, candidates, [], HybridConfig())
    assert survivors.tolist() == [0, 1]
    assert len(verdicts) == 0


def test_all_negative_candidates_pass_through_unchanged() -> None:
    # Without a turn-on candidate there is no segment to inspect for
    # fluctuation, so the refilter leaves the list alone.
    series = series_at_20hz(np.full(300, 2000.0))
    candidates = Events([80], [4.0], [-500.0])
    survivors, verdicts = refilter_events_with_verdicts(series, candidates, [], HybridConfig())
    assert survivors.tolist() == [0]
    assert len(verdicts) == 0


def test_empty_candidate_list_is_a_no_op() -> None:
    series = series_at_20hz(np.zeros(100))
    survivors, verdicts = refilter_events_with_verdicts(
        series, Events([], [], []), [], HybridConfig()
    )
    assert survivors.size == 0
    assert len(verdicts) == 0


def test_refilter_index_validation() -> None:
    series = series_at_20hz(np.zeros(100))
    stray_event = Events([100], [5.0], [50.0])
    with pytest.raises(MisalignedInput, match="candidate index 100"):
        refilter_events_with_verdicts(series, stray_event, [], HybridConfig())
    with pytest.raises(MisalignedInput, match="extremum index 100"):
        refilter_events_with_verdicts(series, Events([], [], []), [100], HybridConfig())


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
    re_times = [time for _, time, _ in re_events]
    guard_indices = result.extrema.tolist()
    kept_expected = []
    for event in result.merged_events:
        confirmed = any(abs(t - event.timestamp_s) <= config.eval_match_tolerance_s
                        for t in re_times)
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
    removed, _ = refilter_events_with_verdicts(series, candidates, [], config)
    assert candidates.indices[removed].tolist() == [194]
    kept, verdicts = refilter_events_with_verdicts(series, candidates, [603], config)
    assert candidates.indices[kept].tolist() == [194, 600]
    guarded = list(verdicts)[1]
    assert guarded.reason is FilterReason.PROTECTED_BY_EXTREMUM
    assert guarded.kept is True
    kept_far, _ = refilter_events_with_verdicts(series, candidates, [610], config)
    assert candidates.indices[kept_far].tolist() == [194]


@given(st.lists(st.integers(min_value=0, max_value=1199), unique=True, min_size=1, max_size=6).map(sorted))
def test_refilter_output_is_a_subset_with_consistent_verdicts(indices: list[int]) -> None:
    t = np.arange(1200) / 20.0
    series = series_at_20hz(np.where(t >= 10.0, 1500.0, 0.0))
    config = HybridConfig()
    candidates = events_at(indices, series, 50.0)
    survivors, verdicts = refilter_events_with_verdicts(series, candidates, [], config)
    survivor_indices = candidates.indices[survivors].tolist()
    assert set(survivor_indices) <= set(indices)
    assert [v.event_index for v in verdicts] == indices
    for verdict in verdicts:
        if verdict.reason is FilterReason.PROTECTED_BY_EXTREMUM:
            assert verdict.kept
        if verdict.reason is FilterReason.REMOVED_AS_FLUCTUATION:
            assert not verdict.kept
    assert [v.event_index for v in verdicts if v.kept] == survivor_indices


def refilter_trace(stepped: bool) -> np.ndarray:
    """60 s at 20 Hz, above the trigger throughout once switched on.

    The stepped trace goes 0 -> 1.5 kW -> 3 kW -> 1.5 kW and is re-detected
    at each step; the flat 1.5 kW trace has no re-detection at all.
    """
    t = np.arange(1200) / 20.0
    if not stepped:
        return np.full(t.size, 1500.0)
    return np.select([t < 10.0, t < 30.0, t < 45.0], [0.0, 1500.0, 3000.0], 1500.0)


@given(st.data())
def test_refilter_verdicts_agree_with_full_scans(data) -> None:
    config = HybridConfig()
    tolerance = config.eval_match_tolerance_s
    guard = seconds_to_samples(config.time_limit_s, 20.0)
    stepped = data.draw(st.booleans())
    series = series_at_20hz(refilter_trace(stepped))
    smoothed = series_at_20hz(
        savitzky_golay(series.values, config.sg_window_samples, config.sg_poly_order)
    )
    re_times = [e.timestamp_s for e in detect_base(smoothed, config)]
    assert bool(re_times) == stepped
    # Candidates sit exactly at the tolerance from a re-detection, or one
    # ulp either side of it, and exactly at or one past the guard radius
    # from an extremum; the extremum list may be empty.
    extremum_indices = data.draw(st.lists(st.integers(0, 1199), max_size=6))
    at_tolerance = [
        float(edge)
        for r in re_times
        for bound in (r - tolerance, r + tolerance)
        for edge in (np.nextafter(bound, -np.inf), bound, np.nextafter(bound, np.inf))
    ]
    at_guard = [
        g + d
        for g in extremum_indices
        for d in (-guard - 1, -guard, 0, guard, guard + 1)
        if 0 <= g + d < 1200
    ]
    times = st.floats(0.0, 60.0)
    if at_tolerance:
        times = st.sampled_from(at_tolerance) | times
    indices = st.integers(0, 1199)
    if at_guard:
        indices = st.sampled_from(at_guard) | indices
    specs = data.draw(st.lists(st.tuples(indices, times), min_size=1, max_size=10))
    candidates = Events([i for i, _ in specs], [t for _, t in specs], [50.0] * len(specs))
    survivors, verdicts = refilter_events_with_verdicts(
        series, candidates, extremum_indices, config
    )
    expected = oracle_refilter_verdicts(specs, re_times, extremum_indices, tolerance, guard)
    assert [v.reason.value for v in verdicts] == expected
    assert [v.event_index for v in verdicts] == [i for i, _ in specs]
    kept = [k for k, reason in enumerate(expected) if reason != "removed_as_fluctuation"]
    assert survivors.tolist() == kept


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
