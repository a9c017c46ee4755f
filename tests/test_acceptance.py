"""Release acceptance checks.

Each test exercises one end-to-end requirement and prints a single
``[acceptance] <name>: PASS`` or ``FAIL`` line (visible with ``pytest -s``
or in the captured output of a failing run).  The checks here are
deliberately coarse — replica event counts, worked rate examples,
brute-force operator equivalence, runtime budgets — and rely on the
per-module suites for fine-grained behaviour.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Iterator

import numpy as np
import pytest

from nilmevents import (
    ApplianceSpec,
    EvaluationReport,
    Events,
    GroundTruthEntry,
    GroundTruthLog,
    LldConfig,
    ScenarioSpec,
    TransientKind,
    detect_extrema,
    detect_hybrid,
    evaluate_detections,
    first_derivative,
    generate_scenario,
    lld_max,
    load_ground_truth,
    load_trace,
    savitzky_golay,
)

from oracles import (
    oracle_extrema,
    oracle_first_derivative,
    oracle_savgol,
)
from replicas import run_replica


@contextmanager
def criterion(name: str) -> Iterator[None]:
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    print(f"[acceptance] {name}: PASS")


def random_scenario(seed: int) -> ScenarioSpec:
    """A reproducible random household: 1-4 appliances, mixed transients."""
    rng = np.random.default_rng(seed)
    rate = float(rng.choice((10.0, 20.0, 50.0)))
    duration = float(rng.uniform(40.0, 120.0))
    kinds = list(TransientKind)
    appliances = []
    for k in range(int(rng.integers(1, 5))):
        on = float(rng.uniform(2.0, duration - 10.0))
        off = float(rng.uniform(on + 4.0, duration))
        kind = kinds[int(rng.integers(0, len(kinds)))]
        appliances.append(
            ApplianceSpec(
                label=f"appliance{k}",
                power_watts=float(rng.uniform(20.0, 2000.0)),
                on_time_s=on,
                off_time_s=off,
                transient=kind,
                transient_duration_s=(
                    0.0
                    if kind is TransientKind.STEP
                    else float(rng.uniform(0.1, min(3.0, off - on)))
                ),
                fluctuation_amplitude_watts=float(rng.choice((0.0, 0.0, 40.0, 60.0))),
            )
        )
    return ScenarioSpec(
        sampling_rate_hz=rate,
        duration_s=duration,
        appliances=tuple(appliances),
        noise_std_watts=float(rng.uniform(0.0, 3.0)),
        seed=seed,
    )


def test_random_scenarios_never_gain_events_across_stages() -> None:
    with criterion("200 random scenarios: stage counts monotone, events trace to base"):
        started = time.perf_counter()
        for seed in range(200):
            series, _ = generate_scenario(random_scenario(seed))
            result = detect_hybrid(series)
            counts = result.stage_counts
            assert counts.base >= counts.after_derivative >= counts.after_filtering
            base_indices = {event.index for event in result.base_events}
            assert {event.index for event in result.events} <= base_indices
        assert time.perf_counter() - started < 60.0


def test_house_day_replica_finds_every_transition_quickly() -> None:
    with criterion("house replica: 20/20 transitions within 1 s, no false alarms, < 5 s"):
        run = run_replica("house1")
        started = time.perf_counter()
        result = detect_hybrid(run.series, run.config)
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0
        report = evaluate_detections(result.events, run.truth, tolerance_s=1.0)
        assert report.ground_truth_count == 20
        assert (report.tp, report.fp, report.fn) == (20, 0, 0)
        assert result.stage_counts.base > 20
        assert len(result.events) == 20


def test_lighting_replica_keeps_small_loads_through_the_refilter() -> None:
    with criterion("lighting replica: 18/18 small-load transitions, refilter removes nothing"):
        run = run_replica("lighting")
        report = evaluate_detections(run.result.events, run.truth, tolerance_s=1.0)
        assert report.ground_truth_count == 18
        assert (report.tp, report.fp, report.fn) == (18, 0, 0)
        assert run.result.events == run.result.merged_events
        assert len(run.result.events) == 18


def test_long_ramp_yields_one_event_where_the_likelihood_baseline_splinters() -> None:
    with criterion("ramp transient: one hybrid event, repeated likelihood maxima"):
        run = run_replica("rangehood")
        assert len(run.result.events) == 1
        lld_events = lld_max(
            run.series,
            LldConfig(
                pre_window_samples=6,
                power_threshold_watts=25.0,
                maxima_precision_samples=10,
            ),
        )
        assert len(lld_events) >= 2



@pytest.mark.parametrize(
    ("name", "counts"),
    [
        # house1's ramps are noiseless: inside them the statistic is rounding
        # noise, which lld_max zeroes.
        ("house1", (4, 14, 16)),
        ("kitchen", (1, 18, 5)),
        ("lighting", (6, 0, 12)),
        ("rangehood", (1, 2, 0)),
    ],
)
def test_likelihood_baseline_scores_every_replica_with_its_defaults(
    name: str, counts: tuple[int, int, int]
) -> None:
    # house1, kitchen and lighting start flat: there is no noise to estimate.
    with criterion(f"{name} replica: LLD-Max defaults give tp, fp, fn = {counts}"):
        run = run_replica(name)
        report = evaluate_detections(lld_max(run.series, LldConfig()), run.truth, tolerance_s=1.0)
        assert (report.tp, report.fp, report.fn) == counts

def test_kitchen_replica_rejects_fluctuation_bursts_exactly() -> None:
    with criterion("kitchen replica: exactly 6 events despite load fluctuation"):
        run = run_replica("kitchen")
        report = evaluate_detections(run.result.events, run.truth, tolerance_s=1.0)
        assert report.ground_truth_count == 6
        assert (report.tp, report.fp, report.fn) == (6, 0, 0)
        assert len(run.result.events) == 6


def test_evaluating_a_hundred_thousand_events_stays_within_budget() -> None:
    with criterion("100k detections against 100k reference entries: under 10 s"):
        rng = np.random.default_rng(11)
        truth_times = np.cumsum(rng.exponential(2.0, 100_000))
        detected_times = truth_times + rng.normal(0.0, 0.6, truth_times.size)
        log = GroundTruthLog(
            entries=tuple(GroundTruthEntry(float(t), "load") for t in truth_times)
        )
        detections = Events(
            np.arange(detected_times.size), detected_times, np.full(detected_times.size, 100.0)
        )
        started = time.perf_counter()
        report = evaluate_detections(detections, log, tolerance_s=1.0)
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0
        assert report.tp + report.fn == 100_000
        assert report.tp > 80_000


def test_rate_arithmetic_matches_worked_examples() -> None:
    with criterion("evaluation rates match the worked examples to 0.05 pp"):
        daily = EvaluationReport(117, 1, 4, 121)
        assert abs(100 * daily.tpr - 96.7) <= 0.05
        assert abs(100 * daily.fpr - 0.81) <= 0.05
        assert abs(100 * daily.fnr - 3.3) <= 0.05
        weekly = EvaluationReport(837, 7, 52, 889)
        assert abs(100 * weekly.tpr - 94.15) <= 0.05
        assert abs(100 * weekly.fpr - 0.79) <= 0.05
        assert abs(100 * weekly.fnr - 5.85) <= 0.05


def test_operators_agree_with_brute_force_references() -> None:
    with criterion("operators match brute-force references on 100 random traces"):
        rng = np.random.default_rng(2024)
        sg_shapes = [(5, 2), (7, 3), (9, 3), (9, 4), (11, 4)]
        for _ in range(100):
            n = int(rng.integers(20, 201))
            values = rng.normal(500.0, 200.0, n)
            if rng.random() < 0.5:
                values[int(rng.integers(5, n - 5)) :] += float(rng.uniform(-800.0, 800.0))
            # Unused draws: later draws stay on the fixed stream.
            rng.uniform(0.5, 2.0), rng.integers(2, 9), rng.random()

            np.testing.assert_array_equal(
                first_derivative(values), oracle_first_derivative(values, 1.0)
            )
            found = detect_extrema(values).tolist()
            assert found == [index for index, _, _ in oracle_extrema(values)]

            sg_window, sg_order = sg_shapes[int(rng.integers(0, len(sg_shapes)))]
            np.testing.assert_allclose(
                savitzky_golay(values, sg_window, sg_order),
                oracle_savgol(values, sg_window, sg_order),
                rtol=1e-8,
                atol=1e-8,
            )


def test_external_building_dataset_hook() -> None:
    trace_path = os.environ.get("NILM_BLUED_TRACE")
    truth_path = os.environ.get("NILM_BLUED_TRUTH")
    if not trace_path or not truth_path:
        print("[acceptance] external dataset: SKIP "
              "(set NILM_BLUED_TRACE and NILM_BLUED_TRUTH to enable)")
        pytest.skip("external dataset paths not configured")
    with criterion("external dataset: pipeline runs and scores"):
        series = load_trace(trace_path)
        truth = load_ground_truth(truth_path)
        result = detect_hybrid(series)
        report = evaluate_detections(result.events, truth, tolerance_s=1.0)
        assert report.ground_truth_count > 0
        print(
            f"[acceptance] external dataset rates: tpr={100 * report.tpr:.2f}% "
            f"fpr={100 * report.fpr:.2f}%"
        )


def _day_long_spec() -> ScenarioSpec:
    appliances = tuple(
        ApplianceSpec(
            label=f"a{hour}",
            power_watts=200.0 + 50.0 * (hour % 5),
            on_time_s=3600.0 * hour + 600.0,
            off_time_s=3600.0 * hour + 2400.0,
        )
        for hour in range(24)
    )
    return ScenarioSpec(
        sampling_rate_hz=60.0,
        duration_s=86_400.0,
        appliances=appliances,
        noise_std_watts=2.0,
        seed=9,
    )


def test_full_day_at_sixty_hertz_processes_within_a_minute() -> None:
    with criterion("day-long 60 Hz trace: full pipeline under 60 s"):
        series, _ = generate_scenario(_day_long_spec())
        assert len(series) == 5_184_000
        started = time.perf_counter()
        result = detect_hybrid(series)
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0
        counts = result.stage_counts
        assert (counts.base, counts.after_derivative, counts.after_filtering) == (144, 48, 48)
