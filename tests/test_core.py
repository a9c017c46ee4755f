"""Data-model construction, validation, and unit conversion."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nilmevents import (
    DetectedEvent,
    DetectionError,
    EmptySeries,
    EvaluationReport,
    Events,
    GroundTruthEntry,
    GroundTruthLog,
    HybridConfig,
    MisalignedInput,
    NonFiniteValue,
    NonPositiveDuration,
    NonPositiveRate,
    InconsistentCounts,
    SampleSeries,
    UnsortedInput,
    ZeroGroundTruth,
    seconds_to_samples,
    validate_series,
)
from nilmevents import core

from blocks import PROOF_BLOCK_SIZES, pairs, use_blocks, use_proof_blocks

rates = st.floats(min_value=0.1, max_value=1000.0, allow_nan=False)


def test_seconds_to_samples_known_conversions() -> None:
    assert seconds_to_samples(0.3, 20.0) == 6
    assert seconds_to_samples(0.2, 60.0) == 12
    assert seconds_to_samples(0.01, 20.0) == 1


def test_seconds_to_samples_rejects_non_positive_inputs() -> None:
    with pytest.raises(NonPositiveDuration):
        seconds_to_samples(0.0, 20.0)
    with pytest.raises(NonPositiveDuration):
        seconds_to_samples(float("nan"), 20.0)
    with pytest.raises(NonPositiveRate):
        seconds_to_samples(1.0, 0.0)
    with pytest.raises(NonPositiveRate):
        seconds_to_samples(1.0, -5.0)


def test_seconds_to_samples_caps_counts_no_series_holds() -> None:
    assert seconds_to_samples(2.0**53 - 1, 1.0) == 2**53 - 1
    assert seconds_to_samples(2.0**53, 1.0) == 2**53
    assert seconds_to_samples(2.0**60, 1.0) == 2**53
    assert seconds_to_samples(1e300, 1e10) == 2**53  # the product overflows to inf


@given(st.integers(min_value=1, max_value=1_000_000), rates)
def test_seconds_to_samples_round_trips_sample_counts(i: int, rate: float) -> None:
    assert abs(seconds_to_samples(i / rate, rate) - i) <= 1


def test_validate_series_accepts_finite_trace() -> None:
    series = SampleSeries(np.ones(100), 20.0)
    checked = validate_series(series)
    assert len(checked) == 100
    assert checked.sampling_rate_hz == 20.0
    np.testing.assert_array_equal(checked.values, series.values)


def test_series_rejects_zero_rate() -> None:
    with pytest.raises(NonPositiveRate):
        SampleSeries(np.ones(10), 0.0)


def test_series_rejects_nan_sample() -> None:
    values = np.ones(10)
    values[3] = float("nan")
    with pytest.raises(NonFiniteValue):
        SampleSeries(values, 20.0)


def test_series_rejects_empty_and_multidimensional_values() -> None:
    with pytest.raises(EmptySeries):
        SampleSeries(np.array([]), 20.0)
    with pytest.raises(DetectionError):
        SampleSeries(np.ones((4, 2)), 20.0)


def test_series_timestamps_follow_start_and_rate() -> None:
    series = SampleSeries(np.zeros(40), 20.0, start_time_s=5.0)
    assert series.time_at(0) == 5.0
    assert series.time_at(10) == pytest.approx(5.5)


def test_series_are_equal_when_values_rate_and_start_are() -> None:
    series = SampleSeries(np.arange(3.0), 20.0, 5.0)
    assert series == SampleSeries(np.arange(3.0), 20.0, 5.0)
    assert series != SampleSeries(np.array([0.0, 1.0, 2.5]), 20.0, 5.0)
    assert series != SampleSeries(np.arange(3.0), 60.0, 5.0)
    assert series != SampleSeries(np.arange(3.0), 20.0, 0.0)


INPUT_KINDS = ("owned", "reshape view", "slice", "float32", "int", "list", "frombuffer")


def input_of_kind(kind: str, x: np.ndarray, step: int):
    """``x`` as one kind of input a series may be given."""
    if kind == "owned":
        return x.copy()
    if kind == "reshape view":  # what np.load returns: a view of the array it read
        return x.copy().reshape(x.shape)
    if kind == "slice":  # every step-th sample of a larger array
        larger = np.zeros(x.size * step + 2)
        larger[1 : 1 + x.size * step : step] = x
        return larger[1 : 1 + x.size * step : step]
    if kind == "float32":
        return x.astype(np.float32)
    if kind == "int":
        return np.round(x).astype(np.int64)
    if kind == "list":
        return x.tolist()
    return np.frombuffer(x.tobytes())  # read-only memory that no ndarray owns


def base_chain(array: np.ndarray) -> list[np.ndarray]:
    """``array`` and each ndarray on its ``.base`` chain, up to the owner."""
    chain = []
    while isinstance(array, np.ndarray):
        chain.append(array)
        array = array.base
    return chain


@given(
    st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=200).map(np.array),
    st.sampled_from(INPUT_KINDS),
    st.integers(min_value=1, max_value=3),
)
def test_a_series_makes_its_samples_and_their_owners_read_only(
    x: np.ndarray, kind: str, step: int
) -> None:
    given_input = input_of_kind(kind, x, step)
    expected = np.asarray(given_input, dtype=float).copy()
    series = SampleSeries(given_input, 20.0)
    assert not any(array.flags.writeable for array in base_chain(series.values))
    if isinstance(given_input, np.ndarray) and given_input.dtype == np.float64:  # no copy
        assert np.shares_memory(given_input, series.values)
        targets = [given_input, given_input[::2]]
    else:  # converted once into memory of the series' own: the input stays writable
        if isinstance(given_input, np.ndarray):
            assert not np.shares_memory(given_input, series.values)
            assert given_input.flags.writeable
        targets = []
    for target in [series.values, series.values[::2], series.values.view(), *targets]:
        with pytest.raises(ValueError, match="read-only"):
            target[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            target += 1.0
    np.testing.assert_array_equal(series.values, expected)
    assert series.summary.peak() == np.abs(expected).max()


@pytest.mark.parametrize(
    ("reason", "error", "message"),
    [
        ("nan", NonFiniteValue, "NaN or infinite"),
        ("empty", EmptySeries, "no samples"),
        ("2-d", DetectionError, "one-dimensional"),
        ("zero rate", NonPositiveRate, "sampling_rate_hz"),
        ("infinite start", NonFiniteValue, "start_time_s"),
    ],
)
def test_a_refused_input_stays_writable(reason: str, error: type, message: str) -> None:
    owner = np.ones(26)
    if reason == "nan":
        owner[7] = np.nan
    given_input = {"empty": owner[:0], "2-d": owner[2:].reshape(4, 6)}.get(reason, owner[2:])
    rate = 0.0 if reason == "zero rate" else 20.0
    start = np.inf if reason == "infinite start" else 0.0
    with pytest.raises(error, match=message):
        SampleSeries(given_input, rate, start)
    assert base_chain(given_input)[-1] is owner
    for array in base_chain(given_input):
        assert array.flags.writeable
        array[...] = 2.0


@pytest.mark.parametrize(
    ("first_bad", "second_bad", "error", "message"),
    [
        ((-1, 0.0, 1.0), (-2, 0.0, 1.0), DetectionError, "event index must be >= 0, got -1"),
        (
            (0, float("inf"), 1.0),
            (0, float("nan"), 1.0),
            NonFiniteValue,
            "event timestamp must be finite, got inf",
        ),
        (
            (0, float("nan"), 1.0),
            (0, float("-inf"), 1.0),
            NonFiniteValue,
            "event timestamp must be finite, got nan",
        ),
        (
            (0, 0.0, float("-inf")),
            (0, 0.0, float("nan")),
            NonFiniteValue,
            "event delta must be finite, got -inf",
        ),
        (
            (0, 0.0, float("nan")),
            (0, 0.0, float("inf")),
            NonFiniteValue,
            "event delta must be finite, got nan",
        ),
    ],
)
def test_events_validate_every_position_like_a_detected_event(
    first_bad: tuple, second_bad: tuple, error: type, message: str
) -> None:
    rows = [(7, 0.5, 10.0), first_bad, (9, 1.5, -10.0), second_bad]
    with pytest.raises(error) as batch:
        Events(*zip(*rows))
    # The batch names its first invalid position, not a later one.
    assert str(batch.value) == message


def test_events_are_arrays_that_yield_detected_events() -> None:
    events = Events([3, 8, 20], [0.15, 0.4, 1.0], [120.0, -5.5, 30.0])
    assert len(events) == 3
    assert events.indices.dtype == np.int64
    assert events.timestamps_s.dtype == events.deltas_watts.dtype == np.float64
    assert list(events) == [
        DetectedEvent(3, 0.15, 120.0),
        DetectedEvent(8, 0.4, -5.5),
        DetectedEvent(20, 1.0, 30.0),
    ]
    assert events[1] == DetectedEvent(8, 0.4, -5.5)
    assert events[-1] == DetectedEvent(20, 1.0, 30.0)
    assert events[1:] == Events([8, 20], [0.4, 1.0], [-5.5, 30.0])
    assert events[np.array([0, 2])] == Events([3, 20], [0.15, 1.0], [120.0, 30.0])
    assert events != events[:2]
    assert len(Events([], [], [])) == 0
    with pytest.raises(MisalignedInput):
        Events([1, 2], [0.1], [1.0, 2.0])
    with pytest.raises(DetectionError):
        Events([[1]], [[0.1]], [[1.0]])


def test_default_config_is_valid_and_frozen() -> None:
    config = HybridConfig()
    assert config.mean_window_s == 0.3
    assert config.power_threshold_watts == 25.0
    assert config.time_limit_s == 0.2
    assert config.derivative_epsilon == 0.5
    assert config.settle_threshold_s == 2.0
    assert config.sg_window_samples == 9
    assert config.sg_poly_order == 3
    assert config.fluctuation_trigger_watts == 1000.0
    with pytest.raises(AttributeError):
        config.power_threshold_watts = 30.0  # type: ignore[misc]


@pytest.mark.parametrize(
    "overrides",
    [
        {"mean_window_s": 0.0},
        {"power_threshold_watts": -1.0},
        {"time_limit_s": 2.0, "settle_threshold_s": 2.0},
        {"time_limit_s": 3.0},
        {"sg_window_samples": 8},
        {"sg_window_samples": 1},
        {"sg_poly_order": 9},
        {"sg_poly_order": -1},
        {"loess_window_s": float("nan")},
    ],
)
def test_config_rejects_invalid_settings(overrides: dict) -> None:
    with pytest.raises(DetectionError):
        HybridConfig(**overrides)


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")], ids=str)
@pytest.mark.parametrize(
    "name", ["mean_window_s", "power_threshold_watts", "fluctuation_trigger_watts"]
)
def test_config_names_non_finite_settings_as_not_finite(name: str, value: float) -> None:
    with pytest.raises(NonFiniteValue) as excinfo:
        HybridConfig(**{name: value})
    assert str(excinfo.value) == f"{name} must be finite, got {value}"


@pytest.mark.parametrize("value", [0.0, -1.0])
def test_config_names_zero_and_negative_settings_as_not_positive(value: float) -> None:
    with pytest.raises(DetectionError) as excinfo:
        HybridConfig(power_threshold_watts=value)
    assert not isinstance(excinfo.value, NonFiniteValue)
    assert str(excinfo.value) == f"power_threshold_watts must be positive, got {value}"



@pytest.mark.parametrize(
    ("name", "value"), [("sg_window_samples", 41.5), ("sg_poly_order", 2.5)]
)
def test_config_rejects_sample_counts_that_are_not_integers(name: str, value: float) -> None:
    with pytest.raises(DetectionError) as excinfo:
        HybridConfig(**{name: value})
    assert str(excinfo.value) == f"{name} must be an integer, got {value}"

def test_config_window_conversions() -> None:
    config = HybridConfig()
    assert config.mean_window_samples(20.0) == 6
    assert config.mean_window_samples(60.0) == 18
    assert config.loess_window_samples(20.0) == 41
    assert config.loess_window_samples(10.0) == 21
    assert config.loess_window_samples(10.5) == 21


def test_ground_truth_log_allows_ties_but_not_reordering() -> None:
    log = GroundTruthLog(
        (
            GroundTruthEntry(1.0, "a on"),
            GroundTruthEntry(1.0, "b on"),
            GroundTruthEntry(2.5, "a off"),
        )
    )
    assert len(log) == 3
    assert [e.timestamp_s for e in log] == [1.0, 1.0, 2.5]
    with pytest.raises(UnsortedInput):
        GroundTruthLog((GroundTruthEntry(2.0, "a"), GroundTruthEntry(1.0, "b")))


def test_report_enforces_count_identities() -> None:
    report = EvaluationReport(tp=3, fp=1, fn=1, ground_truth_count=4)
    assert report.tp + report.fn == report.ground_truth_count
    assert (report.tpr, report.fpr, report.fnr) == (0.75, 0.25, 0.25)
    with pytest.raises(InconsistentCounts):
        EvaluationReport(tp=3, fp=0, fn=0, ground_truth_count=4)
    with pytest.raises(InconsistentCounts):
        EvaluationReport(tp=-1, fp=0, fn=5, ground_truth_count=4)
    with pytest.raises(ZeroGroundTruth):
        EvaluationReport(tp=0, fp=0, fn=0, ground_truth_count=0)


def test_proof_runs_cover_each_run_of_active_blocks_and_clip_to_the_trace(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    use_proof_blocks(monkeypatch, 10)
    active = np.array([True, True, False, False, True, False, True])
    assert pairs(core._proof_runs(active, 65)) == [(0, 20), (40, 50), (60, 65)]
    assert pairs(core._proof_runs(np.zeros(3, dtype=bool), 30)) == []
    assert pairs(core._proof_runs(np.ones(3, dtype=bool), 25)) == [(0, 25)]


@given(
    st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=400).map(np.array),
    st.sampled_from(PROOF_BLOCK_SIZES),
    st.integers(min_value=0, max_value=70),
    st.integers(min_value=0, max_value=70),
)
def test_block_ranges_reduce_each_block_with_its_halo(
    x: np.ndarray, block: int, before: int, after: int
) -> None:
    """Each proof block reads its halo widened to whole 64-sample summary blocks."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        use_proof_blocks(monkeypatch, block)
        low, high = core._Summary.of(x).block_ranges(before, after)
    windows = [
        x[max(start - before, 0) // 64 * 64 : -(-(start + block + after) // 64) * 64]
        for start in range(0, x.size, block)
    ]
    assert np.array_equal(low, [window.min() for window in windows])
    assert np.array_equal(high, [window.max() for window in windows])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("size", [1, 2, 63, 64, 65, 130, 200])
def test_the_summary_is_finite_exactly_when_every_sample_is(size: int, bad: float) -> None:
    # Every position, the partial last block included.
    x = np.random.default_rng(size).normal(0.0, 1e3, size)
    SampleSeries(x, 20.0)
    one_bad = (np.where(np.arange(size) == at, bad, x) for at in range(size))
    for y in [np.full(size, bad), *one_bad]:
        with pytest.raises(NonFiniteValue, match="^series contains NaN or infinite samples$"):
            SampleSeries(y, 20.0)


@given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=300).map(np.array))
def test_the_summary_gives_the_exact_maximum_from_every_start(x: np.ndarray) -> None:
    summary = core._Summary.of(x)
    assert [summary.max_from(x, start) for start in range(x.size)] == [
        x[start:].max() for start in range(x.size)
    ]
    assert summary.peak() == max(x.max(), -x.min())


def test_blocks_cut_any_size_into_full_blocks_and_a_shorter_last(small_blocks: int) -> None:
    size = 150
    expected = [(start, min(start + small_blocks, size)) for start in range(0, size, small_blocks)]
    assert list(core._blocks(size)) == expected
    assert list(core._blocks(0)) == []


def test_blocks_cut_the_range_in_order(monkeypatch: pytest.MonkeyPatch) -> None:
    use_blocks(monkeypatch, 7)
    assert list(core._blocks(20)) == [(0, 7), (7, 14), (14, 20)]
    assert list(core._blocks(0)) == []


# --- The piece layout ---------------------------------------------------------
#
# A stage gathers a group's reads end to end, runs a whole-array kernel over
# them and keeps the outputs at the samples its pieces own; each is the
# whole-array output bit for bit.


def test_a_layout_keeps_each_owned_output_once_and_bit_for_bit(small_blocks: int) -> None:
    rng = np.random.default_rng(small_blocks)
    for _ in range(300):
        # A valid-mode kernel whose output at s reads [s - reach_before, s + reach_after].
        reach_before, reach_after = rng.integers(0, 5, 2).tolist()
        taps = rng.normal(0.0, 1.0, reach_before + reach_after + 1)
        size = int(rng.integers(taps.size, 150))
        x = rng.normal(0.0, 1.0, size) * 10.0 ** rng.integers(-3, 4, size)
        whole = np.convolve(x, taps, "valid")  # output j is at sample j + reach_before
        # Pieces read more than the kernel does, and the ranges always include
        # the first and the last sample with a kernel output, so reads are
        # clipped at both trace ends.
        before, after = reach_before + 1 + int(rng.integers(0, 4)), reach_after + 1
        low, high = reach_before, size - reach_after
        ends = np.sort(rng.integers(low, high + 1, 2 * int(rng.integers(0, 6))))
        starts, stops = core._union(
            np.concatenate(([low, max(high - 3, low)], ends[0::2])),
            np.concatenate(([min(low + 2, high), high], ends[1::2])),
        )
        layouts = list(core._piece_groups(starts, stops, before, after, size))
        assert layouts[0].lo[0] == 0 > layouts[0].starts[0] - before
        assert layouts[-1].hi[-1] == size < layouts[-1].stops[-1] + after
        produced = []
        for layout in layouts:
            gathered = layout.take(x)
            if layout.lo.size == 1:
                assert np.shares_memory(gathered, x)
            out = np.convolve(gathered, taps, "valid")
            kept, samples = layout.own(np.arange(reach_before, reach_before + out.size))
            assert out[kept].tobytes() == whole[samples - reach_before].tobytes()
            assert (layout.owned() - reach_before).tolist() == kept.tolist()
            produced.append(samples)
        owned = [s for start, stop in zip(starts, stops) for s in range(start, stop)]
        assert np.concatenate(produced).tolist() == owned


def test_a_piece_that_reads_a_trace_end_leads_or_closes_its_group_and_reads_a_window() -> None:
    # Three ranges near each end of a 100-sample trace, each read 5 samples
    # further: two pieces read from sample 0 and two to the end.
    size, window = 100, 21
    starts, stops = np.array([0, 3, 30, 90, 95, 98]), np.array([1, 4, 31, 91, 96, 99])
    layouts = list(core._piece_groups(starts, stops, 5, 5, size, window))
    for layout in layouts:
        assert not np.any(layout.lo[1:] == 0) and not np.any(layout.hi[:-1] == size)
    lo = np.concatenate([layout.lo for layout in layouts])
    hi = np.concatenate([layout.hi for layout in layouts])
    assert lo.tolist() == [0, 0, 25, 85, 79, 79]
    assert hi.tolist() == [21, 21, 36, 96, 100, 100]
    assert core._reads(starts, stops, 5, 5, size, window)[0].tolist() == lo.tolist()
    # With no window, a read is only clipped.
    assert core._reads(starts, stops, 5, 5, size)[1].tolist() == [6, 9, 36, 96, 100, 100]
