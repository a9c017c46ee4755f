"""Comparison detector: likelihood maxima."""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from nilmevents import (
    DetectionError,
    LldConfig,
    NonFiniteValue,
    SampleSeries,
    SeriesTooShort,
    baselines,
    core,
    generate_scenario,
    lld_max,
)
from nilmevents.base import MagnitudeTooLarge, _rounding_margin, _tested_centres

from blocks import unproven_entries, use_blocks, use_proof_blocks
from oracles import exact_lld_deviation, oracle_lld
from replicas import replica_spec

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
    values = values.copy()  # the series made the symmetric pulse read-only
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
    use_blocks(monkeypatch, block)
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


# Proof blocks of 1, 7, 64 and 1024 samples, and None: one block that covers
# the whole trace, which gives the dense computation wherever the trace moves.
LLD_PROOF_BLOCKS = (1, 7, 64, 1024, None)


@st.composite
def stepped_traces(draw, integer: bool) -> np.ndarray:
    """Levels held for 1-100 samples, reached in ramps of 0-8 samples, plus noise.

    Integer traces have no ramps and integer noise.  Steps land within a
    few samples of either end and of each other, and quiet stretches of
    one or two 64-sample summary blocks separate busy ones, so the tested
    runs of small proof blocks lie close together.
    """
    size = draw(st.integers(min_value=13, max_value=400))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    levels = st.integers(0, 1500) if integer else st.floats(-1e4, 1e4)
    x = np.empty(size)
    level = float(draw(levels))
    at = 0
    while at < size:
        new = float(draw(levels))
        ramp = 0 if integer else draw(st.integers(min_value=0, max_value=8))
        steps = np.arange(1, min(ramp, size - at) + 1)
        x[at : at + steps.size] = level + (new - level) * (steps / (ramp + 1))
        at += steps.size
        hold = draw(st.integers(min_value=1, max_value=100))
        x[at : at + hold] = new
        at += hold
        level = new
    if integer:
        return x + rng.integers(0, draw(st.sampled_from([1, 2, 4])), size)
    return x + draw(st.sampled_from([0.0, 0.01, 0.5, 4.0])) * rng.standard_normal(size)


def lld_with_proof_block(values: np.ndarray, config: LldConfig, block: int | None):
    with pytest.MonkeyPatch.context() as monkeypatch:
        use_proof_blocks(monkeypatch, values.size if block is None else block)
        events = lld_max(series_at_20hz(values), config)
    return list(
        zip(events.indices.tolist(), events.timestamps_s.tolist(), events.deltas_watts.tolist())
    )


# pre_window_samples and maxima_precision_samples.  Windows up to 30 samples
# leave as few as 4 proven-quiet entries inside a quiet 64-sample summary block.
lld_windows = st.tuples(
    st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=40)
)


@given(stepped_traces(integer=True), lld_windows)
def test_restricted_lld_matches_the_oracle_for_any_proof_block(
    values: np.ndarray, windows: tuple[int, int]
) -> None:
    pw, m = windows
    assume(values.size >= 2 * pw + 1)
    config = LldConfig(pre_window_samples=pw, maxima_precision_samples=m)
    expected = oracle_lld(values, pw, config.power_threshold_watts, m)
    for block in LLD_PROOF_BLOCKS:
        events = lld_with_proof_block(values, config, block)
        assert [(index, delta) for index, _, delta in events] == expected, block


@given(stepped_traces(integer=False), lld_windows)
def test_restricted_lld_is_the_same_for_any_proof_block(
    values: np.ndarray, windows: tuple[int, int]
) -> None:
    pw, m = windows
    assume(values.size >= 2 * pw + 1)
    config = LldConfig(pre_window_samples=pw, maxima_precision_samples=m)
    dense = lld_with_proof_block(values, config, None)
    for block in LLD_PROOF_BLOCKS[:-1]:
        assert lld_with_proof_block(values, config, block) == dense, block


def test_restricted_lld_handles_close_runs_run_edges_and_trace_ends() -> None:
    # pw = 25 and m = 10.  Each step has a transitional sample, so no maxima tie.
    values = np.zeros(256)
    level = 0.0
    for at, new in ((8, 300.0), (60, 700.0), (132, 200.0), (228, 900.0)):
        values[at] = level + round(0.3 * (new - level))
        values[at + 1 :] = level = new
    pw, m = 25, 10
    with pytest.MonkeyPatch.context() as monkeypatch:
        use_proof_blocks(monkeypatch, 1)
        runs = unproven_entries(series_at_20hz(values).summary, pw, 25.0)
    # Only samples 64-127 are quiet in the 64-sample summary, so only the
    # entries 64-77, whose windows lie inside them, are proven quiet: 14 < 2m.
    assert runs == [(0, 64), (78, 206)]
    # Nonzero statistics lie within m of both edges of that gap.
    nonzero = [
        k
        for k in range(values.size - 2 * pw)
        if abs(values[k + pw + 1 : k + 2 * pw + 1].sum() - values[k : k + pw].sum()) / pw > 25.0
        and exact_lld_deviation(values, k + pw, pw) != 0
    ]
    assert set(nonzero) & set(range(64 - m, 64)) and set(nonzero) & set(range(78, 78 + m))
    expected = oracle_lld(values, pw, 25.0, m)
    # The first and the last events lie within pw + m of the trace's ends.
    assert [index for index, _ in expected] == [25, 61, 133, 229]
    config = LldConfig(pre_window_samples=pw, maxima_precision_samples=m)
    for block in LLD_PROOF_BLOCKS:
        events = lld_with_proof_block(values, config, block)
        assert [(index, delta) for index, _, delta in events] == expected, block


def test_a_maximum_beaten_across_a_proven_quiet_gap_is_not_reported() -> None:
    # pw = 30 and m = 10: only the entries 64-67 are proven quiet.  Entry 63
    # (sample 93) is the largest statistic of its run, but entry 68 (sample
    # 98), 5 entries on in the next run, is larger.
    values = np.full(256, 1000.0)
    values[63] = values[128] = 0.0
    values[93] += 5.0
    values[98] += 10.0
    config = LldConfig(pre_window_samples=30, maxima_precision_samples=10)
    with pytest.MonkeyPatch.context() as monkeypatch:
        use_proof_blocks(monkeypatch, 1)
        assert unproven_entries(series_at_20hz(values).summary, 30, 25.0) == [(0, 64), (68, 192)]
    expected = oracle_lld(values, 30, 25.0, 10)
    assert expected == [(98, -33.5)]
    for block in LLD_PROOF_BLOCKS:
        events = lld_with_proof_block(values, config, block)
        assert [(index, delta) for index, _, delta in events] == expected, block


def test_lld_reports_no_rounding_noise_inside_a_noiseless_ramp() -> None:
    # A 2.8 s ramp of 613.7 W: inside it each sample is the mean of its two
    # windows in exact arithmetic, up to the rounding of the samples, so the
    # statistic is the last bits of the sums.  Only the two ends are events.
    t = np.arange(600) / 20.0
    values = 100.3 + np.clip((t - 10.0) / 2.8, 0.0, 1.0) * 613.7
    margin = _rounding_margin(float(values.max()), 6)
    inside = [
        i
        for i in range(6, values.size - 6)
        if abs(exact_lld_deviation(values, i, 6)) <= margin / 2
        and abs(values[i + 1 : i + 7].sum() - values[i - 6 : i].sum()) / 6 > 25.0
    ]
    assert len(inside) == 45
    events = lld_max(series_at_20hz(values), LldConfig())
    assert events.indices.tolist() == [200, 256]
    assert not set(inside) & set(events.indices.tolist())


@pytest.mark.parametrize("block", LLD_PROOF_BLOCKS)
@pytest.mark.parametrize(
    ("values", "config", "message"),
    [
        (
            np.full(400, 1.7e308),
            LldConfig(),
            "the rounding margin r = 6.79456e+293 W of 6-sample window sums at peak "
            "|x| = 1.7e+308 W reaches the power threshold 25 W; the window sums cannot resolve it",
        ),
        (
            np.where(np.arange(400) >= 100, 1e300, -1e300),
            LldConfig(),
            "the rounding margin r = 3.9968e+285 W of 6-sample window sums at peak "
            "|x| = 1e+300 W reaches the power threshold 25 W; the window sums cannot resolve it",
        ),
        (
            np.full(400, 2e14),
            LldConfig(power_threshold_watts=0.5),
            "the rounding margin r = 0.799361 W of 6-sample window sums at peak "
            "|x| = 2e+14 W reaches the power threshold 0.5 W; the window sums cannot resolve it",
        ),
        (
            np.where(np.arange(3000) >= 1500, 3e15, 0.0),
            LldConfig(pre_window_samples=18),
            "the rounding margin r = 27.9776 W of 18-sample window sums at peak "
            "|x| = 3e+15 W reaches the power threshold 25 W; the window sums cannot resolve it",
        ),
    ],
    ids=["overflowing-sum", "huge-step", "low-threshold", "long-window"],
)
def test_lld_refuses_magnitudes_its_sums_cannot_resolve_for_any_proof_block(
    values: np.ndarray, config: LldConfig, message: str, block: int | None
) -> None:
    with pytest.raises(MagnitudeTooLarge) as excinfo:
        lld_with_proof_block(values, config, block)
    assert str(excinfo.value) == message


# --- Every block size: the layout walk ----------------------------------------
#
# lld_max walks its tested centres as the pieces of core._piece_groups, each
# reading pre_window + precision samples on either side, so small blocks cut
# a run into many pieces and put several runs into one gathered array.


def summary_block_steps(seed: int) -> np.ndarray:
    """An integer trace of 12 summary blocks: each flat, stepped once, or busy.

    The first and the last block are stepped within a few samples of the
    trace's ends, stepped blocks with a quiet block between them give runs
    fewer than ``2 * precision`` entries apart for the wider pre-windows,
    and two or three busy blocks in a row give a run longer than a block.
    A step has a transitional sample, and a unit of noise breaks ties.
    """
    rng = np.random.default_rng(seed)
    kinds = rng.choice(["flat", "step", "busy"], size=12, p=[0.45, 0.4, 0.15])
    kinds[0], kinds[-1] = "step", "step"
    busy_at = rng.integers(2, 9)
    kinds[busy_at : busy_at + rng.integers(2, 4)] = "busy"
    x = np.empty(12 * 64)
    level = float(rng.integers(0, 1500))
    for block, kind in enumerate(kinds):
        start = 64 * block
        x[start : start + 64] = level
        if kind == "busy":
            x[start : start + 64] += rng.integers(-300, 300, 64)
        elif kind == "step":
            at = start + (rng.integers(1, 4) if block == 0 else rng.integers(0, 63))
            if block == 11:
                at = x.size - rng.integers(2, 5)
            new = float(rng.integers(0, 1500))
            x[at] = level + round(0.3 * (new - level))
            x[at + 1 :] = level = new
    return x + rng.integers(0, 2, x.size)


LLD_BLOCK_WINDOWS = ((1, 1), (6, 10), (10, 25), (25, 10), (30, 12))


@functools.lru_cache(maxsize=None)
def summary_block_oracle(seed: int, pw: int, m: int) -> list[tuple[int, float]]:
    return oracle_lld(summary_block_steps(seed), pw, 25.0, m)


def test_the_block_traces_hold_end_runs_close_runs_and_long_runs(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    use_proof_blocks(monkeypatch, 1)
    at_ends, close, long = set(), set(), set()
    for seed in range(8):
        values = summary_block_steps(seed)
        for pw, m in LLD_BLOCK_WINDOWS:
            runs = unproven_entries(series_at_20hz(values).summary, pw, 25.0)
            at_ends.add(runs[0][0] == 0 and runs[-1][1] == values.size - 2 * pw)
            close.add(any(b[0] - a[1] < 2 * m for a, b in zip(runs, runs[1:])))
            long.add(max(stop - start for start, stop in runs) > 64)
    assert True in at_ends and True in close and long == {True}


@pytest.mark.parametrize("proof_block", [1, 7, 64, 1024])
def test_lld_matches_the_oracle_for_every_block_size(small_blocks: int, proof_block: int) -> None:
    for seed in range(8):
        values = summary_block_steps(seed)
        for pw, m in LLD_BLOCK_WINDOWS:
            config = LldConfig(pre_window_samples=pw, maxima_precision_samples=m)
            events = lld_with_proof_block(values, config, proof_block)
            expected = summary_block_oracle(seed, pw, m)
            assert [(index, delta) for index, _, delta in events] == expected, (seed, pw, m)


@pytest.mark.parametrize(
    "values",
    [
        np.r_[np.zeros(200), np.full(200, 300.0)],
        np.r_[np.zeros(200), 90.0, np.full(120, 300.0), 200.0, np.full(78, 30.0)],
    ],
    ids=["symmetric-step", "pulse"],
)
@pytest.mark.parametrize("precision", [387, 388, 389, 2**62, 10**30], ids=str)
def test_a_precision_window_past_the_profile_gives_the_oracle_events(
    values: np.ndarray, precision: int
) -> None:
    """A window as wide as the 388-entry profile already covers every eligible
    index, so a wider one, however wide, gives the same events."""
    config = LldConfig(maxima_precision_samples=precision)
    events = lld_max(series_at_20hz(values), config)
    assert [(e.index, e.delta_watts) for e in events] == oracle_lld(values, 6, 25.0, precision)


@pytest.mark.parametrize("seed", range(4))
def test_a_profile_wide_window_reads_the_trace_once(
    seed: int, monkeypatch: pytest.MonkeyPatch
) -> None:
    """Read once per 64-sample piece of each tested run, the 768-sample trace
    would be gathered 9 to 11 times over; joined, the runs read it once."""
    use_blocks(monkeypatch, 64)
    use_proof_blocks(monkeypatch, 1)
    gathered = []
    take = core._Layout.take

    def counted(layout: core._Layout, x: np.ndarray) -> np.ndarray:
        out = take(layout, x)
        gathered.append(out.size)
        return out

    monkeypatch.setattr(core._Layout, "take", counted)
    values = summary_block_steps(seed)
    config = LldConfig(maxima_precision_samples=values.size)
    events = lld_max(series_at_20hz(values), config)
    assert [(e.index, e.delta_watts) for e in events] == oracle_lld(values, 6, 25.0, values.size)
    assert sum(gathered) == values.size


@pytest.mark.parametrize("block", [64, None], ids=["block64", "default"])
def test_the_default_window_reads_the_pieces_of_each_tested_run(
    block: int | None, monkeypatch: pytest.MonkeyPatch
) -> None:
    """Tested runs lie a proof block (1024 centres) apart, far more than the
    2 * 16 samples their reads overlap by at the default window, so no two are
    joined, and every block is at least 32 samples, so pieces are blocks."""
    if block is not None:
        use_blocks(monkeypatch, block)
    series, _ = generate_scenario(replica_spec("house1"))
    layouts = []
    maxima = baselines._maxima

    def recorded(layout: core._Layout, *args) -> tuple[np.ndarray, np.ndarray]:
        layouts.append(layout)
        return maxima(layout, *args)

    monkeypatch.setattr(baselines, "_maxima", recorded)
    lld_max(series, LldConfig())
    starts, stops = _tested_centres(series.summary, 6, 25.0)
    expected = list(core._piece_groups(starts, stops, 16, 16, len(series)))
    assert sum(layout.starts.size for layout in expected) > 1  # several runs, or pieces
    assert len(layouts) == len(expected)
    for got, want in zip(layouts, expected):
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
