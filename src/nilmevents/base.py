"""Moving-average change detector with an emission time limit.

The detector compares the mean power of the ``n`` samples just before
each candidate index against the mean of the ``n`` samples just after it
(the candidate sample itself belongs to neither window).  An alarm is
raised where the absolute mean difference exceeds the power threshold,
and alarms are clustered so that one transition emits a single event:
after an event is emitted, further alarms are suppressed until more than
``time_limit_s`` has passed.
"""

from __future__ import annotations

import numpy as np

from .core import (
    DetectedEvent,
    HybridConfig,
    SampleSeries,
    SeriesTooShort,
    validate_series,
)

__all__ = ["detect_base"]


def _window_sums(values: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Sums of the ``n`` samples before and after every eligible center.

    Entry ``k`` belongs to center ``n + k``, for every center with a full
    window on both sides.  The before window covers
    ``[center - n, center - 1]`` and the after window
    ``[center + 1, center + n]``; the center sample is excluded so a step
    landing exactly on it biases neither mean.  Both sums are differences
    of slices of one cumulative sum.
    """
    csum = np.concatenate(([0.0], np.cumsum(values)))
    size = values.size
    before_sums = csum[n : size - n] - csum[: size - 2 * n]
    after_sums = csum[2 * n + 1 :] - csum[n + 1 : size - n + 1]
    return before_sums, after_sums


def _mean_difference_profile(values: np.ndarray, n: int) -> np.ndarray:
    """After-minus-before window means; entry ``k`` belongs to center ``n + k``.

    Computed as ``(sum_after - sum_before) / n`` with a single division,
    so a constant offset added to every sample cancels exactly whenever
    the window sums are exact (integer-valued data, for instance).
    """
    before_sums, after_sums = _window_sums(values, n)
    return (after_sums - before_sums) / n


def detect_base(series: SampleSeries, config: HybridConfig) -> list[DetectedEvent]:
    """Detect state transitions by thresholded mean change.

    Parameters
    ----------
    series:
        Aggregate power trace.
    config:
        Uses ``mean_window_s``, ``power_threshold_watts`` and
        ``time_limit_s``.

    Returns
    -------
    list of DetectedEvent
        Events in increasing index order, every consecutive pair
        separated by more than ``time_limit_s``.  Each event carries the
        mean difference observed at its own index, so one physical
        transition that alarms over several samples is reported once, at
        the first alarming index.

    Raises
    ------
    SeriesTooShort
        If the series cannot hold one before window, one center sample
        and one after window.
    """
    series = validate_series(series)
    n = config.mean_window_samples(series.sampling_rate_hz)
    if len(series) < 2 * n + 1:
        raise SeriesTooShort(
            f"need at least {2 * n + 1} samples for window {n}, got {len(series)}"
        )
    diffs = _mean_difference_profile(series.values, n)
    alarm_positions = np.flatnonzero(np.abs(diffs) > config.power_threshold_watts)

    events: list[DetectedEvent] = []
    last_time = -np.inf
    for pos in alarm_positions:
        index = n + int(pos)
        timestamp = series.time_at(index)
        if timestamp - last_time > config.time_limit_s:
            events.append(
                DetectedEvent(
                    index=index,
                    timestamp_s=timestamp,
                    delta_watts=float(diffs[pos]),
                )
            )
            last_time = timestamp
    return events
