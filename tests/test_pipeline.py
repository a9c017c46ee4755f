"""End-to-end pipeline behaviour: staging, monotonicity, determinism."""

from __future__ import annotations

import doctest
import reprlib
import tempfile
import warnings
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nilmevents
from nilmevents import (
    ApplianceSpec,
    DetectionError,
    FilterReason,
    HybridConfig,
    InvalidWindow,
    SampleSeries,
    ScenarioSpec,
    PipelineResult,
    SeriesTooShort,
    StageCounts,
    TransientKind,
    WrongType,
    detect_base,
    detect_extrema,
    detect_hybrid,
    first_derivative,
    generate_scenario,
    lld_max,
    load_trace,
    loess_smooth,
    seconds_to_samples,
    write_trace,
)
from nilmevents import core, filtering
from nilmevents.filtering import refilter_events_with_verdicts

from blocks import BLOCK_SIZES, use_blocks, use_proof_blocks
from oracles import oracle_extrema, oracle_merge
from replicas import replica_config, replica_spec, run_replica

REPLICA_NAMES = ("house1", "kitchen", "lighting", "rangehood")


def assert_stage_lists_nest(result: PipelineResult) -> None:
    """Each stage keeps a subset of the positions of the stage before it."""
    merged, final = result.merged_positions, result.final_positions
    for positions in (merged, final):
        assert positions.dtype == np.int64
        assert np.all(np.diff(positions) > 0)
        assert np.all((0 <= positions) & (positions < len(result.base_events)))
    assert np.isin(final, merged).all()
    assert result.merged_events == result.base_events[merged]
    assert result.events == result.base_events[final]
    if len(result.filter_verdicts):
        verdicts = list(result.filter_verdicts)
        assert [v.event_index for v in verdicts] == result.merged_events.indices.tolist()
        assert [v.event_index for v in verdicts if v.kept] == result.events.indices.tolist()
    else:
        assert np.array_equal(final, merged)


def test_stage_counts_must_be_monotone_non_increasing() -> None:
    StageCounts(base=5, after_derivative=3, after_filtering=3)
    with pytest.raises(DetectionError):
        StageCounts(base=3, after_derivative=5, after_filtering=2)
    with pytest.raises(DetectionError):
        StageCounts(base=3, after_derivative=2, after_filtering=-1)


def test_silent_minute_produces_no_events_at_any_stage() -> None:
    series = SampleSeries(np.zeros(60 * 20), 20.0)
    result = detect_hybrid(series, HybridConfig())
    assert result.stage_counts == StageCounts(0, 0, 0)
    assert len(result.events) == 0
    assert len(result.base_events) == 0
    assert len(result.filter_verdicts) == 0


def test_pipeline_is_deterministic() -> None:
    spec = ScenarioSpec(
        sampling_rate_hz=20.0,
        duration_s=90.0,
        appliances=(
            ApplianceSpec("kettle", 1500.0, 15.0, 70.0, fluctuation_amplitude_watts=40.0),
            ApplianceSpec("hood", 300.0, 30.0, 80.0, TransientKind.RAMP, 2.8),
        ),
        noise_std_watts=2.0,
        seed=21,
    )
    series, _ = generate_scenario(spec)
    first = detect_hybrid(series, HybridConfig())
    second = detect_hybrid(series, HybridConfig())
    assert first.events == second.events
    assert first.stage_counts == second.stage_counts
    assert first.base_events == second.base_events
    assert first.merged_events == second.merged_events
    assert np.array_equal(first.extrema, second.extrema)
    assert first.filter_verdicts == second.filter_verdicts


@pytest.mark.parametrize("name", REPLICA_NAMES)
def test_stage_counts_shrink_and_events_trace_back_to_base(name: str) -> None:
    result = run_replica(name).result
    counts = result.stage_counts
    assert counts.base >= counts.after_derivative >= counts.after_filtering
    base_indices = set(e.index for e in result.base_events)
    merged_indices = set(e.index for e in result.merged_events)
    final_indices = set(e.index for e in result.events)
    assert final_indices <= merged_indices <= base_indices
    assert_stage_lists_nest(result)


def guard_read(extrema: np.ndarray, result: PipelineResult, radius: int) -> np.ndarray:
    """The ``extrema`` within ``radius`` of a merged event the re-detection did not
    confirm: what the refilter's guard reads, none when the refilter did not fire."""
    unconfirmed = [
        v.event_index for v in result.filter_verdicts
        if v.reason is not FilterReason.SURVIVED_REFILTER
    ]
    near = [e for e in extrema.tolist() if any(abs(e - c) <= radius for c in unconfirmed)]
    return np.array(near, dtype=np.int64)


@pytest.mark.parametrize("name", REPLICA_NAMES)
def test_intermediate_traces_stay_aligned_with_the_series(name: str) -> None:
    run = run_replica(name)
    result = run.result
    rate = run.series.sampling_rate_hz
    smoothed = loess_smooth(
        first_derivative(run.series.values), run.config.loess_window_samples(rate)
    )
    assert smoothed.size == len(run.series)
    epsilon = run.config.derivative_epsilon
    extrema = detect_extrema(smoothed, epsilon)
    assert extrema.tolist() == [
        index for index, _, value in oracle_extrema(smoothed) if abs(value) > epsilon
    ]
    radius = seconds_to_samples(run.config.time_limit_s, run.series.sampling_rate_hz)
    assert np.array_equal(result.extrema, guard_read(extrema, result, radius))
    # On house1 the guard protects candidates; on kitchen it reads no significant extremum.
    assert (result.extrema.size > 0) == (name == "house1")
    assert [e.index for e in result.merged_events] == oracle_merge(
        [(e.index, e.timestamp_s) for e in result.base_events],
        smoothed,
        run.series.sampling_rate_hz,
        run.config.derivative_epsilon,
        run.config.settle_threshold_s,
    )
    assert_stage_lists_nest(result)


@pytest.mark.parametrize("name", REPLICA_NAMES)
def test_any_block_size_gives_identical_results(name: str) -> None:
    run = run_replica(name)
    expected = detect_hybrid(run.series, run.config)
    for block in BLOCK_SIZES:
        with pytest.MonkeyPatch.context() as monkeypatch:
            use_blocks(monkeypatch, block)
            result = detect_hybrid(run.series, run.config)
        assert result.base_events == expected.base_events, block
        assert np.array_equal(result.merged_positions, expected.merged_positions)
        assert np.array_equal(result.final_positions, expected.final_positions)
        assert np.array_equal(result.extrema, expected.extrema)
        assert result.filter_verdicts == expected.filter_verdicts


def test_pipeline_propagates_short_series_errors() -> None:
    with pytest.raises(SeriesTooShort):
        detect_hybrid(SampleSeries(np.zeros(5), 20.0), HybridConfig())


@pytest.mark.parametrize(
    ("config", "minimum"),
    [
        # At 20 Hz the defaults need 13 samples for the base windows, 41
        # for LOESS and 9 for the Savitzky-Golay refilter.
        (HybridConfig(), 41),
        (HybridConfig(sg_window_samples=51, sg_poly_order=2), 51),
    ],
)
def test_short_traces_fail_up_front_with_the_stated_minimum(
    config: HybridConfig, minimum: int
) -> None:
    def step_trace(size: int) -> SampleSeries:
        return SampleSeries(np.where(np.arange(size) >= size // 2, 1500.0, 0.0), 20.0)

    with pytest.raises(SeriesTooShort, match=f"at least {minimum} samples"):
        detect_hybrid(step_trace(minimum - 1), config)
    result = detect_hybrid(step_trace(minimum), config)
    # The 1.5 kW step arms the refilter, so every stage ran at the minimum.
    assert result.filter_verdicts


def test_a_loess_window_under_three_samples_is_named_up_front() -> None:
    series = SampleSeries(np.where(np.arange(200) >= 100, 1500.0, 0.0), 20.0)
    with pytest.raises(
        InvalidWindow,
        match=r"^loess_window_s = 0\.05 s is 1 sample at 20 Hz; "
        r"the LOESS window needs at least 3 samples$",
    ):
        detect_hybrid(series, HybridConfig(loess_window_s=0.05))
    # 0.1 s is 2 samples, rounded up to an odd 3.
    assert len(detect_hybrid(series, HybridConfig(loess_window_s=0.1)).events) == 1


small_scenarios = st.builds(
    lambda seed, rate, on, span, power, kind, fluctuation, noise: ScenarioSpec(
        sampling_rate_hz=rate,
        duration_s=60.0,
        appliances=(
            ApplianceSpec(
                "load",
                power,
                on,
                min(60.0, on + span),
                kind,
                0.0 if kind is TransientKind.STEP else 1.5,
                fluctuation,
            ),
        ),
        noise_std_watts=noise,
        seed=seed,
    ),
    seed=st.integers(min_value=0, max_value=2**31),
    rate=st.sampled_from([10.0, 20.0, 50.0]),
    on=st.floats(min_value=5.0, max_value=30.0),
    span=st.floats(min_value=5.0, max_value=30.0),
    power=st.floats(min_value=30.0, max_value=2000.0),
    kind=st.sampled_from(TransientKind),
    fluctuation=st.sampled_from([0.0, 0.0, 40.0, 60.0]),
    noise=st.floats(min_value=0.0, max_value=3.0),
)


@given(small_scenarios)
def test_every_generated_scenario_respects_stage_monotonicity(spec: ScenarioSpec) -> None:
    series, _ = generate_scenario(spec)
    result = detect_hybrid(series, HybridConfig())
    counts = result.stage_counts
    assert counts.base >= counts.after_derivative >= counts.after_filtering >= 0
    base_keys = set((e.index, e.timestamp_s) for e in result.base_events)
    assert set((e.index, e.timestamp_s) for e in result.events) <= base_keys
    assert_stage_lists_nest(result)


def test_package_docstring_example_runs() -> None:
    results = doctest.testmod(nilmevents, verbose=False)
    assert results.attempted > 0
    assert results.failed == 0


def assert_whole_trace_chain(series: SampleSeries, config: HybridConfig, result) -> None:
    """``result`` is what the whole-trace smoothed derivative gives at every stage:
    the merge oracle on it, its significant extrema and the refilter on those."""
    base = detect_base(series, config)
    smoothed = loess_smooth(
        first_derivative(series.values), config.loess_window_samples(series.sampling_rate_hz)
    )
    extrema = detect_extrema(smoothed, min_abs_value=config.derivative_epsilon)
    merged_indices = oracle_merge(
        [(e.index, e.timestamp_s) for e in base],
        smoothed,
        series.sampling_rate_hz,
        config.derivative_epsilon,
        config.settle_threshold_s,
    )
    merged = np.flatnonzero(np.isin(base.indices, merged_indices))
    kept, verdicts, read = refilter_events_with_verdicts(
        series, base[merged], lambda indices, radius: extrema, config
    )
    assert result.base_events == base
    assert np.array_equal(result.merged_positions, merged)
    assert np.array_equal(result.final_positions, merged[kept])
    assert result.filter_verdicts == verdicts
    radius = seconds_to_samples(config.time_limit_s, series.sampling_rate_hz)
    assert np.array_equal(result.extrema, guard_read(extrema, result, radius))
    assert np.array_equal(result.extrema, read)


@st.composite
def quiet_stretches(draw) -> SampleSeries:
    """A level with a little noise, broken by a few steps and ramps."""
    rate = draw(st.sampled_from([10.0, 20.0, 60.0]))
    size = draw(st.integers(min_value=121, max_value=3000))
    noise = draw(st.sampled_from([0.0, 0.01, 0.3, 2.0]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    x = draw(st.floats(min_value=0.0, max_value=3000.0)) + noise * rng.standard_normal(size)
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        at = draw(st.integers(min_value=0, max_value=size - 1))
        height = draw(st.floats(min_value=-1500.0, max_value=1500.0))
        ramp = draw(st.integers(min_value=0, max_value=80))
        x[at:] += height * np.minimum(1.0, (np.arange(size - at) + 1.0) / (ramp + 1.0))
    return SampleSeries(x, rate)


@st.composite
def moving_stretches(draw) -> SampleSeries:
    """A noisy level with a few switches 0.2-20 s apart: each a step, a ramp, or both,
    and maybe an oscillation burst from the switch on.

    Ramps and bursts last up to 12 s, longer than the two settle lengths
    (4 s at the default settle threshold) the merge reads first after a
    candidate, so in some gaps the first stretch holds no settled run and
    the merge reads further.
    """
    rate = draw(st.sampled_from([20.0, 50.0, 60.0]))
    apart = draw(st.lists(st.floats(min_value=0.2, max_value=20.0), min_size=1, max_size=5))
    switches = np.round(np.cumsum(apart) * rate).astype(int)
    size = int(switches[-1]) + round(draw(st.floats(min_value=3.0, max_value=20.0)) * rate)
    noise = draw(st.sampled_from([0.0, 0.01, 0.3, 2.0]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    x = draw(st.floats(min_value=0.0, max_value=3000.0)) + noise * rng.standard_normal(size)
    seconds = st.floats(min_value=0.0, max_value=12.0)
    for at in switches.tolist():
        step, height = draw(st.floats(-1500.0, 1500.0)), draw(st.floats(-500.0, 500.0))
        ramp = round(draw(seconds) * rate)
        x[at:] += step + height * np.minimum(1.0, (np.arange(size - at) + 1.0) / (ramp + 1.0))
        if draw(st.booleans()):
            stop = min(size, at + round(draw(seconds) * rate))
            period = draw(st.floats(min_value=0.3, max_value=3.0)) * rate
            amplitude = draw(st.floats(min_value=5.0, max_value=200.0))
            x[at:stop] += amplitude * np.sin(2.0 * np.pi * np.arange(stop - at) / period)
    return SampleSeries(x, rate)


@st.composite
def fluctuating_loads(draw) -> tuple[SampleSeries, HybridConfig]:
    """A standing load switched on above the refilter trigger, then steps and square-wave
    bursts, with settings under which the refilter's smoothing can erase a burst.

    A burst's period is 3-12 samples, shorter than the 21- or 41-sample SG
    window, so the re-detection often leaves its candidate unconfirmed, and
    its edges give the smoothed derivative significant extrema within the
    guard radius (the time limit, up to 1 s) of that candidate.  In a count
    over 3,000 examples, the refilter fired on 2,449 and the guard read an
    extremum (a non-empty ``PipelineResult.extrema``) on 766, about a
    quarter.
    """
    rate = draw(st.sampled_from([20.0, 50.0, 60.0]))
    size = draw(st.integers(min_value=1000, max_value=4000))
    noise = draw(st.sampled_from([0.0, 0.3, 2.0]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    x = noise * rng.standard_normal(size)
    x[draw(st.integers(min_value=0, max_value=size // 4)) :] += draw(st.floats(1100.0, 3000.0))
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        at = draw(st.integers(min_value=0, max_value=size - 1))
        if draw(st.booleans()):
            x[at:] += draw(st.floats(min_value=-300.0, max_value=300.0))
        stop = min(size, at + round(draw(st.floats(min_value=0.5, max_value=4.0)) * rate))
        period = draw(st.floats(min_value=3.0, max_value=12.0))  # in samples
        wave = np.sign(np.sin(2.0 * np.pi * np.arange(stop - at) / period))
        x[at:stop] += draw(st.floats(min_value=50.0, max_value=200.0)) * wave
    window, order = draw(st.sampled_from([(21, 2), (41, 2)]))
    config = HybridConfig(
        mean_window_s=draw(st.sampled_from([0.1, 0.3])),
        time_limit_s=draw(st.sampled_from([0.2, 0.5, 1.0])),
        loess_window_s=draw(st.sampled_from([1.0, 2.0])),
        sg_window_samples=window,
        sg_poly_order=order,
        derivative_epsilon=draw(st.sampled_from([0.05, 0.5, 3.0])),
    )
    return SampleSeries(x, rate), config


@settings(max_examples=50)
@given(fluctuating_loads(), st.sampled_from([None, *BLOCK_SIZES]))
def test_a_fluctuating_load_gives_the_whole_trace_chain(case, block: int | None) -> None:
    series, config = case
    with pytest.MonkeyPatch.context() as monkeypatch:
        if block is not None:
            use_blocks(monkeypatch, block)
        result = detect_hybrid(series, config)
    assert_whole_trace_chain(series, config, result)


# Each of the two kinds of trace gets about the default hundred examples.
@settings(max_examples=200)
@given(
    quiet_stretches() | moving_stretches(),
    st.sampled_from(BLOCK_SIZES),
    st.sampled_from([1, 7, 64, 300, 1024]),
    st.sampled_from([0.05, 0.5, 3.0]),
)
def test_detect_hybrid_gives_the_whole_trace_chain(
    series: SampleSeries, block: int, proof_block: int, epsilon: float
) -> None:
    config = HybridConfig(derivative_epsilon=epsilon)
    with pytest.MonkeyPatch.context() as monkeypatch:
        use_blocks(monkeypatch, block)
        use_proof_blocks(monkeypatch, proof_block)
        result = detect_hybrid(series, config)
    assert_whole_trace_chain(series, config, result)


# The kitchen replica's tuned settings (scenarios/kitchen.config).
KITCHEN_SETTINGS = HybridConfig(loess_window_s=3.0, sg_window_samples=41, sg_poly_order=2)


def busy_fluctuating_trace() -> SampleSeries:
    """Ten minutes at 1.5 kW and 20 Hz, with a 30-80 W step or a 1-3 s
    oscillation burst every 4-10 s."""
    rng = np.random.default_rng(1)
    x = 1500.0 + 2.0 * rng.standard_normal(12_000)
    at = 0.0
    while (at := at + rng.uniform(4.0, 10.0)) < 595.0:
        i = round(at * 20.0)
        if rng.random() < 0.5:
            x[i:] += rng.choice([-1, 1]) * rng.uniform(30.0, 80.0)
        else:
            m, period = round(rng.uniform(1.0, 3.0) * 20.0), rng.uniform(0.3, 1.0) * 20.0
            square = np.sign(np.sin(2 * np.pi * np.arange(m) / period))
            x[i : i + m] += rng.uniform(30.0, 60.0) * square
    return SampleSeries(x, 20.0)


def test_a_busy_fluctuating_trace_gives_the_whole_trace_chain() -> None:
    """With kitchen settings the refilter fires on :func:`busy_fluctuating_trace`,
    and the guard keeps significant extrema from the candidate itself out to its
    radius."""
    series, config = busy_fluctuating_trace(), KITCHEN_SETTINGS
    result = detect_hybrid(series, config)
    assert_whole_trace_chain(series, config, result)
    radius = seconds_to_samples(config.time_limit_s, 20.0)
    unconfirmed = [
        v.event_index for v in result.filter_verdicts
        if v.reason is not FilterReason.SURVIVED_REFILTER
    ]
    distances = {min(abs(e - c) for c in unconfirmed) for e in result.extrema.tolist()}
    assert distances == set(range(radius + 1))


@pytest.mark.parametrize("name", REPLICA_NAMES)
def test_replicas_give_the_whole_trace_chain_for_any_proof_block(name: str) -> None:
    run = run_replica(name)
    assert_whole_trace_chain(run.series, run.config, run.result)
    for proof_block in (1, 64, 4096):
        with pytest.MonkeyPatch.context() as monkeypatch:
            use_proof_blocks(monkeypatch, proof_block)
            result = detect_hybrid(run.series, run.config)
        assert_whole_trace_chain(run.series, run.config, result)


def test_a_trace_one_loess_window_long_gives_the_whole_trace_chain() -> None:
    # At 20 Hz the default LOESS window, 41 samples, is the longest a stage needs.
    x = 80.0 + np.random.default_rng(9).normal(0.0, 0.05, 41)
    for values in (x, np.where(np.arange(41) >= 20, x + 1500.0, x)):
        series = SampleSeries(values, 20.0)
        assert_whole_trace_chain(series, HybridConfig(), detect_hybrid(series, HybridConfig()))


def test_a_series_refuses_writes_after_construction() -> None:
    # The samples are read-only once the series is built, so the summary it
    # built stays true: a write is refused, not checked again by a stage.
    x = 120.0 + np.random.default_rng(11).normal(0.0, 0.05, 4000)
    x[1000:] += 300.0
    series = SampleSeries(x, 20.0)
    config = HybridConfig()
    with pytest.raises(ValueError, match="read-only"):
        series.values[3000:] += 500.0  # inside blocks that were quiet
    with pytest.raises(ValueError, match="read-only"):
        x[2000] = np.nan
    later = x[1000:]
    with pytest.raises(ValueError, match="read-only"):
        later[1000] = np.nan
    fresh = SampleSeries(x.copy(), 20.0)
    result, expected = detect_hybrid(series, config), detect_hybrid(fresh, config)
    assert result.base_events == expected.base_events
    assert result.merged_events == expected.merged_events
    assert result.events == expected.events
    assert 1000 - 6 <= result.events.indices[-1] <= 1000 + 6
    assert detect_base(series, config) == detect_base(fresh, config)
    assert lld_max(series) == lld_max(fresh)

    edited = x.copy()  # a copy stays writable, and a new series describes it
    edited[3000:] += 500.0
    last = detect_hybrid(SampleSeries(edited, 20.0), config).events.indices[-1]
    assert 3000 - 6 <= last <= 3000 + 6


def test_no_stage_builds_the_summary_of_a_built_series(monkeypatch: pytest.MonkeyPatch) -> None:
    series, _ = generate_scenario(replica_spec("kitchen"))
    config = replica_config("kitchen")
    result = detect_hybrid(series, config)
    assert len(result.filter_verdicts)  # the refilter fires
    built = []
    build = core._Summary.of.__func__

    def counting(cls, x):
        built.append(x.size)
        return build(cls, x)

    monkeypatch.setattr(core._Summary, "of", classmethod(counting))
    for call in (
        lambda: detect_hybrid(series, config),
        lambda: detect_base(series, config),
        lambda: lld_max(series),
        lambda: refilter_events_with_verdicts(
            series, result.merged_events, lambda indices, radius: result.extrema, config
        ),
    ):
        call()
        assert built == []


# --- The stages decide in samples: no clock, rate rounding or file trip moves an event ---


def stage_indices(series: SampleSeries, config: HybridConfig) -> tuple[list[int], ...]:
    """The base, merged and final event indices of one run."""
    result = detect_hybrid(series, config)
    return tuple(
        events.indices.tolist()
        for events in (result.base_events, result.merged_events, result.events)
    )


def restarted(series: SampleSeries, start_time_s: float) -> SampleSeries:
    return SampleSeries(series.values, series.sampling_rate_hz, start_time_s)


def rescaled(series: SampleSeries, factor: float) -> SampleSeries:
    return SampleSeries(series.values, series.sampling_rate_hz * factor, series.start_time_s)


def reloaded(series: SampleSeries, directory: Path) -> SampleSeries:
    path = directory / "trace.csv"
    write_trace(path, series)
    return load_trace(path)


CONFIG_KINDS = ("bundled", "defaults")


def config_of(name: str, kind: str) -> HybridConfig:
    return replica_config(name) if kind == "bundled" else HybridConfig()


@pytest.mark.parametrize("kind", CONFIG_KINDS)
@pytest.mark.parametrize("name", REPLICA_NAMES)
@pytest.mark.parametrize("start_time_s", [0.0, 1e6, 1.7e9])
def test_replica_events_ignore_the_start_time(name: str, kind: str, start_time_s: float) -> None:
    series, config = run_replica(name).series, config_of(name, kind)
    assert stage_indices(restarted(series, start_time_s), config) == stage_indices(series, config)


@pytest.mark.parametrize("kind", CONFIG_KINDS)
@pytest.mark.parametrize("name", REPLICA_NAMES)
@pytest.mark.parametrize("factor", [1.0 - 1e-12, 1.0 + 1e-12])
def test_replica_events_ignore_a_rate_off_by_one_part_in_a_trillion(
    name: str, kind: str, factor: float
) -> None:
    series, config = run_replica(name).series, config_of(name, kind)
    assert stage_indices(rescaled(series, factor), config) == stage_indices(series, config)


@pytest.mark.parametrize("kind", CONFIG_KINDS)
@pytest.mark.parametrize("name", REPLICA_NAMES)
@pytest.mark.parametrize("start_time_s", [0.0, 1e6, 1.7e9])
def test_replica_events_survive_a_write_and_load_round_trip(
    name: str, kind: str, start_time_s: float, tmp_path: Path
) -> None:
    series, config = restarted(run_replica(name).series, start_time_s), config_of(name, kind)
    assert stage_indices(reloaded(series, tmp_path), config) == stage_indices(series, config)


@settings(max_examples=60)
@given(
    moving_stretches(),
    st.sampled_from([HybridConfig(), HybridConfig(sg_window_samples=41, sg_poly_order=2)]),
    st.sampled_from(
        [("start", 1e6), ("start", 1.7e9), ("rate", 1.0 - 1e-12), ("rate", 1.0 + 1e-12)]
        + [("reload", 0.0), ("reload", 1e6), ("reload", 1.7e9)]
    ),
)
def test_random_trace_events_ignore_the_clock_the_rate_rounding_and_a_file_trip(
    series: SampleSeries, config: HybridConfig, change: tuple[str, float]
) -> None:
    kind, value = change
    if kind == "start":
        changed = restarted(series, value)
    elif kind == "rate":
        changed = rescaled(series, value)
    else:
        series = restarted(series, value)
        with tempfile.TemporaryDirectory() as directory:
            changed = reloaded(series, Path(directory))
    assert stage_indices(changed, config) == stage_indices(series, config)


# --- Durations no series can hold -------------------------------------------
#
# A duration converts to at most 2**53 samples, so one longer than any trace
# decides as a long but exact one does, and raises nothing but a named error.

HUGE_DURATIONS = [
    {"mean_window_s": 1e300},
    {"time_limit_s": 1e300, "settle_threshold_s": 1e301},
    {"time_limit_s": 1e299, "settle_threshold_s": 1e300},
    {"settle_threshold_s": 1e300},
    {"loess_window_s": 1e300},
]


def pipeline_outcome(series: SampleSeries, config: HybridConfig):
    """The stage outputs of ``detect_hybrid`` as lists, or the name of its error."""
    try:
        result = detect_hybrid(series, config)
    except DetectionError as error:
        return type(error).__name__
    return (
        result.base_events.indices.tolist(),
        result.base_events.deltas_watts.tolist(),
        result.merged_positions.tolist(),
        result.final_positions.tolist(),
        result.extrema.tolist(),
        result.filter_verdicts.reason_codes.tolist(),
    )


past_any_series = pytest.mark.parametrize(
    "series",
    [
        SampleSeries(np.zeros(100), 1e10),
        SampleSeries(np.r_[np.zeros(200), np.full(200, 3000.0)], 20.0),
    ],
    ids=["flat-at-10-GHz", "refilter-fires"],
)


@pytest.mark.parametrize("durations", HUGE_DURATIONS, ids=lambda d: "+".join(d))
@past_any_series
def test_durations_past_any_series_decide_as_long_exact_ones(
    series: SampleSeries, durations: dict[str, float]
) -> None:
    outcome = pipeline_outcome(series, HybridConfig(**durations))
    long = {name: seconds * 1e-295 for name, seconds in durations.items()}  # 1e5 s and so on
    assert outcome == pipeline_outcome(series, HybridConfig(**long))
    assert outcome != "DetectionError"


@past_any_series
def test_a_confirmation_window_past_any_series_decides_as_a_long_exact_one(
    series: SampleSeries, monkeypatch: pytest.MonkeyPatch
) -> None:
    monkeypatch.setattr(filtering, "_CONFIRM_S", 1e300)
    outcome = pipeline_outcome(series, HybridConfig())
    monkeypatch.setattr(filtering, "_CONFIRM_S", 1e5)
    assert outcome == pipeline_outcome(series, HybridConfig())
    assert outcome != "DetectionError"


# --- The scoring tolerance moves no detection ----------------------------------

SCORING_TOLERANCES = [0.01, 0.05, 0.25, 1.0, 2.0, 1e300]


@pytest.mark.parametrize("name", REPLICA_NAMES)
def test_replica_detection_ignores_the_scoring_tolerance(name: str) -> None:
    run = run_replica(name)
    expected = pipeline_outcome(run.series, run.config)
    # The refilter fires on house1 and kitchen, so the verdicts are there to move.
    assert bool(expected[-1]) == (name in ("house1", "kitchen"))
    for tolerance in SCORING_TOLERANCES:
        config = replace(run.config, eval_match_tolerance_s=tolerance)
        assert pipeline_outcome(run.series, config) == expected, tolerance


@st.composite
def fluctuating_loads(draw) -> SampleSeries:
    """A load above the refilter trigger throughout, with a few steps and oscillation
    bursts, so the refilter fires and confirms some candidates but not others."""
    rate = draw(st.sampled_from([20.0, 50.0]))
    size = draw(st.integers(min_value=400, max_value=3000))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    x = 1500.0 + rng.normal(0.0, 2.0, size)
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        at = draw(st.integers(min_value=0, max_value=size - 1))
        if draw(st.booleans()):
            x[at:] += draw(st.sampled_from([-300.0, 300.0]))
        else:
            stop = min(size, at + round(draw(st.floats(0.5, 10.0)) * rate))
            period = draw(st.floats(min_value=0.3, max_value=3.0)) * rate
            amplitude = draw(st.floats(min_value=20.0, max_value=200.0))
            x[at:stop] += amplitude * np.sin(2.0 * np.pi * np.arange(stop - at) / period)
    return SampleSeries(x, rate)


@given(
    fluctuating_loads(),
    # A 41-sample SG window moves re-detections off their candidates by more than a sample.
    st.sampled_from([HybridConfig(), HybridConfig(sg_window_samples=41, sg_poly_order=2)]),
)
def test_every_scoring_tolerance_gives_the_same_detection(
    series: SampleSeries, config: HybridConfig
) -> None:
    outcomes = [
        pipeline_outcome(series, replace(config, eval_match_tolerance_s=tolerance))
        for tolerance in SCORING_TOLERANCES
    ]
    assert outcomes == outcomes[:1] * len(outcomes)


# --- Contracts as properties: power scales exactly, and an offset moves no base decision ---

# The traces below hold samples of at most 2**14 W in magnitude, and every
# nonzero sample, setting, difference, sum, product with a smoother tap and
# rounding margin they give lies above 2**-80 in magnitude (the product
# margin's subnormal term aside, which only sends work to the exact path).
# Scaled by 2**k with |k| <= 64, each stays inside [2**-144, 2**80], far in
# the normal range, where rounding commutes with the scaling: every sum,
# difference, product and quotient of scaled operands is the scaled result.
SCALE_EXPONENTS = st.integers(min_value=-64, max_value=64)


def scaled(series: SampleSeries, config: HybridConfig, k: int) -> tuple:
    """``series`` and the power settings of ``config`` multiplied by ``2**k``."""
    factor = 2.0**k
    return SampleSeries(series.values * factor, series.sampling_rate_hz), replace(
        config,
        power_threshold_watts=config.power_threshold_watts * factor,
        derivative_epsilon=config.derivative_epsilon * factor,
        fluctuation_trigger_watts=config.fluctuation_trigger_watts * factor,
    )


def results_or_error(first: tuple, second: tuple):
    """``detect_hybrid`` on both ``(series, config)`` pairs, or ``None`` when both
    raise the same error."""
    try:
        result = detect_hybrid(*first)
    except DetectionError as exc:
        with pytest.raises(type(exc)):
            detect_hybrid(*second)
        return None
    return result, detect_hybrid(*second)


def assert_scales_exactly(series: SampleSeries, config: HybridConfig, k: int):
    """Scaling the power by ``2**k`` moves no decision and scales every delta
    exactly; returns the unscaled result (``None`` if both runs raised)."""
    results = results_or_error((series, config), scaled(series, config, k))
    if results is None:
        return None
    result, other = results
    assert np.array_equal(other.base_events.indices, result.base_events.indices)
    assert np.array_equal(other.base_events.timestamps_s, result.base_events.timestamps_s)
    assert np.array_equal(other.base_events.deltas_watts, result.base_events.deltas_watts * 2.0**k)
    assert np.array_equal(other.merged_positions, result.merged_positions)
    assert other.filter_verdicts == result.filter_verdicts
    assert np.array_equal(other.extrema, result.extrema)
    assert np.array_equal(other.final_positions, result.final_positions)
    return result


@settings(derandomize=True, max_examples=40)
@given(
    quiet_stretches() | moving_stretches(),
    SCALE_EXPONENTS,
    st.sampled_from([0.05, 0.5, 3.0]),
    st.sampled_from([1.0, 1000.0, 1e9]),
)
def test_scaling_the_power_by_a_power_of_two_scales_every_stage_exactly(
    series: SampleSeries, k: int, epsilon: float, trigger: float
) -> None:
    config = HybridConfig(derivative_epsilon=epsilon, fluctuation_trigger_watts=trigger)
    assert_scales_exactly(series, config, k)


def lamp_trace() -> SampleSeries:
    """A minute at 20 Hz with a 40 W lamp on from 10 s to 40 s: the refilter's
    default trigger, 1 kW, is never reached."""
    x = 60.0 + np.random.default_rng(2).normal(0.0, 0.3, 1200)
    x[200:800] += 40.0
    return SampleSeries(x, 20.0)


@pytest.mark.parametrize("k", [-64, -3, 4, 20, 64])
@pytest.mark.parametrize("fires", [True, False], ids=["fires", "quiet"])
def test_a_short_trace_scales_exactly_whether_or_not_the_refilter_fires(
    fires: bool, k: int
) -> None:
    series, config = (busy_fluctuating_trace(), KITCHEN_SETTINGS) if fires else (
        lamp_trace(),
        HybridConfig(),
    )
    result = assert_scales_exactly(series, config, k)
    assert len(result.merged_events) >= 2
    assert bool(len(result.filter_verdicts)) == fires
    assert bool(result.extrema.size) == fires


def rounded(series: SampleSeries) -> SampleSeries:
    return SampleSeries(np.round(series.values), series.sampling_rate_hz)


def assert_offset_moves_no_base_event_or_merge(
    series: SampleSeries, config: HybridConfig, offset: int
):
    """On an integer-valued trace every window sum and difference is exact, so
    adding an integer offset moves no base event, delta or merge; returns both
    results (``None`` if both runs raised)."""
    shifted = SampleSeries(series.values + offset, series.sampling_rate_hz)
    results = results_or_error((series, config), (shifted, config))
    if results is not None:
        result, other = results
        assert other.base_events == result.base_events
        assert np.array_equal(other.merged_positions, result.merged_positions)
    return results


# Samples of at most 2**14 W plus offsets of at most 2**31 keep every window
# sum an integer below 2**53, so exact.
@settings(derandomize=True, max_examples=40)
@given(
    (quiet_stretches() | moving_stretches()).map(rounded),
    st.integers(min_value=-(2**31), max_value=2**31),
    st.sampled_from([0.05, 0.5, 3.0]),
)
def test_an_integer_offset_moves_no_base_event_or_merge_of_an_integer_trace(
    series: SampleSeries, offset: int, epsilon: float
) -> None:
    assert_offset_moves_no_base_event_or_merge(
        series, HybridConfig(derivative_epsilon=epsilon), offset
    )


@pytest.mark.parametrize("offset", [-1500, 1000, 2**20])
@pytest.mark.parametrize("fires", [True, False], ids=["fires", "quiet"])
def test_an_integer_offset_moves_no_base_event_or_merge_whether_or_not_the_refilter_fires(
    fires: bool, offset: int
) -> None:
    # The trigger reads the level, so the offset may make the refilter fire or
    # not: only the base events and the merge are compared.
    series, config = (busy_fluctuating_trace(), KITCHEN_SETTINGS) if fires else (
        lamp_trace(),
        HybridConfig(),
    )
    result, _ = assert_offset_moves_no_base_event_or_merge(rounded(series), config, offset)
    assert len(result.merged_events) >= 2
    assert bool(len(result.filter_verdicts)) == fires


# --- The contract: valid events or a named error, for any accepted config and finite series ---


def any_setting(default: float) -> st.SearchStrategy[float]:
    """A duration or power setting: mostly its default or the default times a power
    of two from 1/16 to 16; else the least or nearly the largest positive
    double, or log-uniform over 1e-6 to 1e6."""
    near = st.integers(min_value=-4, max_value=4).map(lambda k: default * 2.0**k)
    return st.one_of(
        st.just(default),
        st.just(default),
        near,
        near,
        st.sampled_from([5e-324, 1.7e308]),
        st.floats(min_value=-6.0, max_value=6.0).map(lambda e: 10.0**e),
    )


@st.composite
def any_configs(draw) -> HybridConfig | None:
    """A config drawn field by field; ``None`` where the constructor refuses it with a
    :class:`DetectionError`."""
    defaults = HybridConfig()
    values = {
        name: draw(any_setting(getattr(defaults, name)))
        for name in HybridConfig.__dataclass_fields__
        if name not in ("sg_window_samples", "sg_poly_order")
    }
    # Drawn in either order, so that the constructor's rule between them holds
    # where they differ.
    values["time_limit_s"], values["settle_threshold_s"] = sorted(
        (values["time_limit_s"], values["settle_threshold_s"])
    )
    window = draw(
        st.one_of(
            st.just(9),
            st.integers(min_value=1, max_value=30).map(lambda half: 2 * half + 1),
            st.integers(min_value=1, max_value=30).map(lambda half: 2 * half + 1),
            st.sampled_from([1, 2, 301, 2**30 + 1]),
        )
    )
    values["sg_window_samples"] = window
    values["sg_poly_order"] = draw(st.integers(min_value=0, max_value=min(12, max(window - 1, 0))))
    try:
        return HybridConfig(**values)
    except DetectionError:
        return None


# Values a rate or a start time must refuse by name: a bool, a string, None.
ill_typed = st.sampled_from([True, False, "20", None])


@st.composite
def any_finite_series(draw) -> tuple[np.ndarray, object, object]:
    """The arguments of a series of 1 to 4,000 finite samples: a level, steps and
    noise, of household size or of any magnitude from subnormal to 1e303, at 20
    or 60 Hz or any rate from 1e-3 to 1e7 Hz, with start times far from 0.  A
    rate or a start time may also be a numpy scalar, which is a number, or a
    bool, a string or None, which is not."""
    size = draw(st.integers(min_value=1, max_value=4000))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    shape = draw(st.sampled_from([0.0, 1e-3, 0.1])) * rng.standard_normal(size)
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        shape[draw(st.integers(min_value=0, max_value=size - 1)) :] += draw(st.floats(-1.0, 1.0))
    powers = st.integers(min_value=-320, max_value=303).map(lambda e: 10.0**e)
    magnitude = draw(st.sampled_from([100.0, 2000.0]) | powers)
    level = draw(st.sampled_from([0.0, 1500.0]) | powers.map(lambda p: -p) | powers)
    values = level + magnitude * np.clip(shape, -1.0, 1.0)
    rate = draw(
        st.one_of(
            st.just(20.0),
            st.just(60.0),
            st.floats(min_value=-3.0, max_value=7.0).map(lambda e: 10.0**e),
            st.sampled_from([np.float64(20.0), np.float32(60.0), np.int64(20), np.float32(1e-3)]),
            ill_typed,
        )
    )
    starts = [0.0, 1.7e9, -1e12, 1e15, np.float32(1.7e9), np.int64(-(10**12))]
    start = draw(st.sampled_from(starts) | ill_typed)
    return values, rate, start


# What may stand in for the series or the config: its samples, or its fields.
stand_ins = st.sampled_from([None, "series", "config"])


@settings(derandomize=True, max_examples=300)
@given(any_configs(), any_finite_series(), stand_ins)
def test_any_accepted_config_on_any_finite_series_gives_valid_events_or_a_named_error(
    config: HybridConfig | None, arguments: tuple[np.ndarray, object, object], stand_in: str | None
) -> None:
    if config is None:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            series = SampleSeries(*arguments)
            if stand_in is not None:
                # A record of another type is refused by name before any stage runs.
                name, kind, value = {
                    "series": ("series", SampleSeries, series.values),
                    "config": ("config", HybridConfig, asdict(config)),
                }[stand_in]
                with pytest.raises(DetectionError) as refused:
                    detect_hybrid(**{"series": series, "config": config, name: value})
                assert type(refused.value) is WrongType
                shown = reprlib.repr(value)
                assert str(refused.value) == f"{name} must be of type {kind.__name__}, got {shown}"
            result = detect_hybrid(series, config)
        except DetectionError as exc:
            # Named by the series or the stage that refused, not by the checks
            # of a result's events.
            assert type(exc) is not DetectionError and not str(exc).startswith("event ")
            return
    counts = result.stage_counts
    assert counts.base >= counts.after_derivative >= counts.after_filtering
    indices = result.base_events.indices
    assert np.all(np.diff(indices) > 0) and np.all((0 <= indices) & (indices < len(series)))
    assert np.array_equal(result.base_events.timestamps_s, series.time_at(indices))
    assert np.all((0 <= result.extrema) & (result.extrema < len(series)))
    assert_stage_lists_nest(result)
