"""Moving-average change detector with an emission time limit.

The detector compares the mean power of the ``n`` samples just before
each candidate index against the mean of the ``n`` samples just after it
(the candidate sample itself belongs to neither window).  An alarm is
raised where the absolute mean difference exceeds the power threshold,
and alarms are clustered so that one transition emits a single event:
after an event is emitted, further alarms are suppressed until more than
``time_limit_s`` has passed.

The detector works on arrays throughout and returns :class:`Events`;
the only Python loop is the time-limit emission over the alarm times.
Window sums are differences of one cumulative sum, whose rounding error
grows with the trace's magnitude times its length, so a trace where that
error could reach the threshold is refused with :class:`MagnitudeTooLarge`.
"""

from __future__ import annotations

import numpy as np

from .core import (
    DetectionError,
    Events,
    HybridConfig,
    SampleSeries,
    SeriesTooShort,
    validate_series,
)

__all__ = ["MagnitudeTooLarge", "detect_base"]


class MagnitudeTooLarge(DetectionError):
    """A trace's magnitude is too large for its window sums to resolve the threshold."""


def _check_sum_resolution(values: np.ndarray, threshold_watts: float) -> None:
    """Refuse traces where cumulative-sum rounding could reach ``threshold_watts``.

    Every partial sum of ``len(x)`` samples carries a rounding error of up
    to about ``max|x| * len(x) * eps``, and a window mean difference
    inherits it, so at or above the threshold an alarm may be spurious or
    a real step lost.  ``max|x|`` is taken as ``max(x.max(), -x.min())``,
    which builds no full-length temporary.
    """
    peak = max(float(values.max()), -float(values.min()))
    eps = float(np.finfo(float).eps)
    bound = peak * values.size * eps
    if bound >= threshold_watts:
        raise MagnitudeTooLarge(
            f"max |x| * len(x) * eps = {peak:.6g} * {values.size} * {eps:.6g} = "
            f"{bound:.6g} W reaches the power threshold {threshold_watts:.6g} W; "
            "the window sums cannot resolve it"
        )


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


def detect_base(series: SampleSeries, config: HybridConfig) -> Events:
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
    Events
        Events in increasing index order, every consecutive pair
        separated by more than ``time_limit_s``.  Each event carries the
        mean difference observed at its own index, so one physical
        transition that alarms over several samples is reported once, at
        the first alarming index.  Timestamps are
        ``start_time_s + index / sampling_rate_hz``, as
        :meth:`SampleSeries.time_at` computes them.

    Raises
    ------
    SeriesTooShort
        If the series cannot hold one before window, one center sample
        and one after window.
    MagnitudeTooLarge
        If ``max|x| * len(x) * eps`` reaches ``power_threshold_watts``.
    """
    series = validate_series(series)
    n = config.mean_window_samples(series.sampling_rate_hz)
    if len(series) < 2 * n + 1:
        raise SeriesTooShort(
            f"need at least {2 * n + 1} samples for window {n}, got {len(series)}"
        )
    _check_sum_resolution(series.values, config.power_threshold_watts)
    diffs = _mean_difference_profile(series.values, n)
    alarm_positions = np.flatnonzero(np.abs(diffs) > config.power_threshold_watts)
    alarm_indices = alarm_positions + n
    alarm_times = series.start_time_s + alarm_indices / series.sampling_rate_hz

    # Sequential on purpose: whether an alarm is emitted depends on the
    # last emitted one, and ``t - last > limit`` is not the same test as
    # ``t > last + limit`` in floating point.
    emitted: list[int] = []
    last_time = -np.inf
    for k, timestamp in enumerate(alarm_times.tolist()):
        if timestamp - last_time > config.time_limit_s:
            emitted.append(k)
            last_time = timestamp
    keep = np.array(emitted, dtype=np.int64)
    return Events(alarm_indices[keep], alarm_times[keep], diffs[alarm_positions[keep]])
