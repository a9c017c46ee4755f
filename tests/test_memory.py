"""Traced allocation peaks of the CSV reader, a smoothed derivative read, the base detector
and the scenario renderer.

numpy reports its array buffers to ``tracemalloc``, so a traced peak
counts every temporary a call holds at once.  Each test runs its call
once on a small input first, so that modules numpy imports on first use
do not count.
"""

from __future__ import annotations

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from nilmevents import (
    ApplianceSpec,
    HybridConfig,
    SampleSeries,
    ScenarioSpec,
    TransientKind,
    core,
    detect_base,
    generate_scenario,
    load_trace,
)
from nilmevents.derivative import _SmoothedDerivative

from blocks import unproven_entries


def traced_peak(call) -> tuple[object, int]:
    """``call()`` and the peak bytes it held at once."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def write_meter_csv(path: Path, n: int, seed: int) -> None:
    """``n`` rows at 20 Hz, written with ``%.3f`` as a meter exports them."""
    values = np.random.default_rng(seed).normal(500.0, 2.0, n).tolist()
    rows = (f"{i / 20.0:.3f},{v:.3f}\n" for i, v in enumerate(values))
    path.write_text("timestamp_s,power_w\n" + "".join(rows))


def test_load_trace_peaks_at_the_parse_array_plus_one_column(tmp_path: Path) -> None:
    n = 100_000
    write_meter_csv(tmp_path / "warm.csv", 100, seed=1)
    load_trace(tmp_path / "warm.csv")
    write_meter_csv(tmp_path / "trace.csv", n, seed=2)
    series, peak = traced_peak(lambda: load_trace(tmp_path / "trace.csv"))
    assert len(series) == n
    parse_and_column = (2 * n + n) * 8  # the (n, 2) float64 parse plus the kept column
    assert peak <= 1.25 * parse_and_column


def test_a_derivative_read_holds_its_windows_and_a_few_blocks() -> None:
    window = 41  # 2 s at 20 Hz
    rng = np.random.default_rng(3)
    warm = rng.normal(500.0, 5.0, 4096)
    _SmoothedDerivative(warm, window).read(np.array([0, 1000]), np.array([100, 4096]))
    values = rng.normal(500.0, 5.0, 200_000)  # meter noise: no stretch is skipped for it
    # As the merge reads: 80 samples after each of 1,500 candidates, and one long gap.
    starts = np.concatenate((np.arange(1, 150_000, 100), [150_000]))
    stops = np.concatenate((starts[:-1] + 80, [200_000]))
    derivative = _SmoothedDerivative(values, window)
    ranges, peak = traced_peak(lambda: derivative.read(starts, stops))
    assert ranges.values.size == 1500 * 80 + 50_000
    # The values, a few int64 words of bookkeeping per window, and a few blocks.
    assert peak <= ranges.values.nbytes + 8 * 8 * starts.size + 8 * core._BLOCK_SAMPLES * 8


def noisy_steps(steps: int, sigma: float) -> SampleSeries:
    """1 M samples at 20 Hz around 500 W with ``sigma`` W of noise and ``steps`` switches."""
    rng = np.random.default_rng(steps)
    values = 500.0 + rng.normal(0.0, sigma, 1_000_000)
    for k in range(steps):  # at most 200, one every 5,000 samples
        values[5000 * k + 2500 :] += rng.choice([-1.0, 1.0]) * rng.uniform(50.0, 300.0)
    return SampleSeries(values, 20.0)


@pytest.mark.parametrize(
    ("steps", "sigma", "runs"),
    [
        (200, 2.0, 200),  # meter noise: 200 short runs, gathered a group at a time
        (0, 5.0, 1),  # noise no range bound proves quiet: one run, profiled in place
    ],
    ids=["many_groups", "one_run"],
)
def test_detect_base_holds_a_few_blocks(steps: int, sigma: float, runs: int) -> None:
    config = HybridConfig()
    detect_base(SampleSeries(np.random.default_rng(4).normal(500.0, 2.0, 4096), 20.0), config)
    series = noisy_steps(steps, sigma)
    assert len(unproven_entries(series.summary, 6, 25.0)) == runs
    events, peak = traced_peak(lambda: detect_base(series, config))
    assert len(events) >= steps
    assert peak <= 8 * 8 * core._BLOCK_SAMPLES  # eight blocks of float64; the trace is 8 MB


def every_kind(duration_s: float) -> ScenarioSpec:
    """A noisy 20 Hz scenario: a fluctuating fridge on throughout, one appliance per transient."""
    fridge = ApplianceSpec("fridge", 120.0, 0.0, duration_s, fluctuation_amplitude_watts=30.0)
    appliances = [fridge]
    for k, kind in enumerate(TransientKind):
        on = duration_s * (k + 1) / 6
        off = on + duration_s / 8
        appliances.append(ApplianceSpec(kind.value, 800.0, on, off, kind, 5.0, 20.0))
    return ScenarioSpec(20.0, duration_s, tuple(appliances), noise_std_watts=2.0, seed=5)


def test_generate_scenario_holds_the_trace_and_a_few_blocks() -> None:
    generate_scenario(every_kind(100.0))
    spec = every_kind(10_000.0)  # 200,000 samples
    (series, truth), peak = traced_peak(lambda: generate_scenario(spec))
    assert len(series) == 200_000 and len(truth) == 10
    # The trace, its summary and a few blocks of sample times and temporaries.
    assert peak <= series.values.nbytes + 8 * 8 * core._BLOCK_SAMPLES
