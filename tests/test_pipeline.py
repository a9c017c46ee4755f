"""End-to-end pipeline behaviour: staging, monotonicity, determinism."""

from __future__ import annotations

import doctest

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import nilmevents
from nilmevents import (
    ApplianceSpec,
    DetectionError,
    Events,
    HybridConfig,
    InvalidWindow,
    NonFiniteValue,
    SampleSeries,
    ScenarioSpec,
    PipelineResult,
    SeriesTooShort,
    StageCounts,
    TransientKind,
    detect_base,
    detect_extrema,
    detect_hybrid,
    generate_scenario,
    lld_max,
    merge_transient_events,
    smoothed_derivative,
)
from nilmevents.filtering import refilter_events_with_verdicts

from blocks import BLOCK_SIZES, use_blocks, use_proof_blocks
from oracles import oracle_extrema, oracle_merge
from replicas import run_replica

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


@pytest.mark.parametrize("name", REPLICA_NAMES)
def test_intermediate_traces_stay_aligned_with_the_series(name: str) -> None:
    run = run_replica(name)
    result = run.result
    smoothed = smoothed_derivative(run.series, run.config)
    assert smoothed.size == len(run.series)
    epsilon = run.config.derivative_epsilon
    assert np.array_equal(result.extrema, detect_extrema(smoothed, epsilon))
    assert result.extrema.tolist() == [
        index for index, _, value in oracle_extrema(smoothed) if abs(value) > epsilon
    ]
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
    """``result`` is what the whole-trace smoothed derivative gives at every stage."""
    base = detect_base(series, config)
    smoothed = smoothed_derivative(series, config)
    extrema = detect_extrema(smoothed, min_abs_value=config.derivative_epsilon)
    merged = merge_transient_events(base, smoothed, series, config)
    kept, verdicts = refilter_events_with_verdicts(series, base[merged], extrema, config)
    assert result.base_events == base
    assert np.array_equal(result.extrema, extrema)
    assert np.array_equal(result.merged_positions, merged)
    assert np.array_equal(result.final_positions, merged[kept])
    assert result.filter_verdicts == verdicts


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


@given(
    quiet_stretches(),
    st.sampled_from(BLOCK_SIZES),
    st.sampled_from([1, 7, 64, 300, 1024]),
    st.sampled_from([0.05, 0.5, 3.0]),
)
def test_skipping_settled_blocks_changes_no_stage(
    series: SampleSeries, block: int, proof_block: int, epsilon: float
) -> None:
    config = HybridConfig(derivative_epsilon=epsilon)
    with pytest.MonkeyPatch.context() as monkeypatch:
        use_blocks(monkeypatch, block)
        use_proof_blocks(monkeypatch, proof_block)
        result = detect_hybrid(series, config)
    assert_whole_trace_chain(series, config, result)


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


def test_a_series_written_into_after_construction_is_checked_again() -> None:
    # Each entry point validates the series it is given, so it reads a fresh
    # summary, not the one built with the series.
    x = 120.0 + np.random.default_rng(11).normal(0.0, 0.05, 4000)
    x[1000:] += 300.0
    series = SampleSeries(x, 20.0)
    config = HybridConfig()
    series.values[3000:] += 500.0  # inside blocks that were quiet
    fresh = SampleSeries(series.values.copy(), 20.0)
    result = detect_hybrid(series, config)
    assert result.base_events == detect_hybrid(fresh, config).base_events
    assert result.events == detect_hybrid(fresh, config).events
    assert 3000 - 6 <= result.events.indices[-1] <= 3000 + 6
    assert detect_base(series, config) == detect_base(fresh, config)
    assert lld_max(series) == lld_max(fresh)

    series.values[2000] = np.nan
    no_candidates = Events(np.empty(0, dtype=np.int64), np.empty(0), np.empty(0))
    for call in (
        lambda: detect_hybrid(series, config),
        lambda: detect_base(series, config),
        lambda: lld_max(series),
        lambda: refilter_events_with_verdicts(series, no_candidates, np.empty(0), config),
    ):
        with pytest.raises(NonFiniteValue, match="^series contains NaN or infinite samples$"):
            call()
