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
The cumulative sum is one pass; the mean differences and the threshold
test then run block by block, and every block reads the same sums the
whole profile would.
"""

from __future__ import annotations

import numpy as np

from .core import (
    DetectionError,
    Events,
    HybridConfig,
    SampleSeries,
    SeriesTooShort,
    _map_blocks,
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


def _prefix_sums(values: np.ndarray) -> np.ndarray:
    """``[0, x0, x0 + x1, ...]``: one sequential cumulative sum, written in place."""
    csum = np.empty(values.size + 1)
    csum[0] = 0.0
    np.cumsum(values, out=csum[1:])
    return csum


def _window_sums(
    csum: np.ndarray, n: int, start: int = 0, stop: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Sums of the ``n`` samples before and after eligible centers.

    ``csum`` comes from :func:`_prefix_sums`.  Entry ``k`` of the profile
    belongs to center ``n + k``, for every center with a full window on
    both sides; this returns entries ``[start, stop)``, all of them by
    default.  The before window covers ``[center - n, center - 1]`` and
    the after window ``[center + 1, center + n]``; the center sample is
    excluded so a step landing exactly on it biases neither mean.  Each
    sum is a difference of two cumulative-sum entries, so a block of
    entries is bit-identical to the same entries of the whole profile.
    """
    if stop is None:
        stop = csum.size - 1 - 2 * n
    before_sums = csum[n + start : n + stop] - csum[start:stop]
    after_sums = csum[2 * n + 1 + start : 2 * n + 1 + stop] - csum[n + 1 + start : n + 1 + stop]
    return before_sums, after_sums


def _mean_difference_profile(
    csum: np.ndarray, n: int, start: int = 0, stop: int | None = None
) -> np.ndarray:
    """After-minus-before window means for profile entries ``[start, stop)``.

    Computed as ``(sum_after - sum_before) / n`` with a single division,
    so a constant offset added to every sample cancels exactly whenever
    the window sums are exact (integer-valued data, for instance).
    """
    before_sums, after_sums = _window_sums(csum, n, start, stop)
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
        the first alarming index.  Timestamps come from
        :meth:`SampleSeries.time_at`.

    Notes
    -----
    The mean-difference profile and its threshold test run in blocks, so
    no full-length temporary is built beyond the cumulative sum; the
    events are identical for any block size.

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
    csum = _prefix_sums(series.values)
    threshold = config.power_threshold_watts

    def alarms(start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        diffs = _mean_difference_profile(csum, n, start, stop)
        # |d| > threshold as two comparisons, with no |d| temporary.
        positions = np.flatnonzero((diffs > threshold) | (diffs < -threshold))
        return positions + (n + start), diffs[positions]

    blocks = _map_blocks(alarms, csum.size - 1 - 2 * n)
    alarm_indices = np.concatenate([indices for indices, _ in blocks])
    alarm_deltas = np.concatenate([deltas for _, deltas in blocks])
    alarm_times = series.time_at(alarm_indices)

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
    return Events(alarm_indices[keep], alarm_times[keep], alarm_deltas[keep])
