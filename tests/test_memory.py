"""Traced allocation peaks of the CSV reader and of a smoothed derivative read.

numpy reports its array buffers to ``tracemalloc``, so a traced peak
counts every temporary a call holds at once.  Each test runs its call
once on a small input first, so that modules numpy imports on first use
do not count.
"""

from __future__ import annotations

import tracemalloc
from pathlib import Path

import numpy as np

from nilmevents import core, load_trace
from nilmevents.derivative import _SmoothedDerivative


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
