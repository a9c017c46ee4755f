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

No full-length temporary is built.  The cumulative sum runs block by
block through one small buffer that carries its running value, and its
entries equal the whole-trace sum's bit for bit.  A mean difference is
at most the range of the samples its windows read, plus a bound on the
rounding, so a block of centres whose range stays below the threshold by
that bound cannot alarm and is not tested; on a mostly steady household
trace that is nearly all of them.  The other blocks read the same sums
the whole profile would.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .core import (
    DetectionError,
    Events,
    HybridConfig,
    SampleSeries,
    SeriesTooShort,
    _block_ranges,
    _blocks,
    _halo_runs,
    validate_series,
)

__all__ = ["MagnitudeTooLarge", "detect_base"]


# Centres per proof block of the quiet-window bound: a transient keeps only
# a block or two tested, and the per-block work stays small.
_PROOF_BLOCK_SAMPLES = 1024


class MagnitudeTooLarge(DetectionError):
    """A trace's magnitude is too large for its window sums to resolve the threshold."""


def _check_sum_resolution(peak: float, size: int, threshold_watts: float) -> None:
    """Refuse traces where cumulative-sum rounding could reach ``threshold_watts``.

    ``peak`` is ``max|x|`` over the ``size`` samples.  A partial sum of
    them carries a rounding error of typically about ``peak * size * eps``,
    and a window mean difference inherits it, so at or above the threshold
    an alarm may be spurious or a real step lost.  That is the typical
    size, not a bound: the worst case is ``gamma_(size - 1) * sum|x|``
    (see :func:`_rounding_margin`), up to about ``size / 2`` times more.
    The guard is unchanged and stays at the typical size: 400 samples of
    1.7e308 W, a -1e300 -> +1e300 step and 6 h at 60 Hz at 1e12 W are
    refused, and a +100 W step in 6 h at 60 Hz at 1e10 W is still found.
    """
    eps = float(np.finfo(float).eps)
    bound = peak * size * eps
    if bound >= threshold_watts:
        raise MagnitudeTooLarge(
            f"max |x| * len(x) * eps = {peak:.6g} * {size} * {eps:.6g} = "
            f"{bound:.6g} W reaches the power threshold {threshold_watts:.6g} W; "
            "the window sums cannot resolve it"
        )


def _prefix_sums(values: np.ndarray) -> np.ndarray:
    """``[0, x0, x0 + x1, ...]``: one sequential cumulative sum, written in place."""
    csum = np.empty(values.size + 1)
    csum[0] = 0.0
    np.cumsum(values, out=csum[1:])
    return csum


def _prefix_sum_blocks(values: np.ndarray, n: int) -> Iterator[tuple[int, int, np.ndarray]]:
    """``(start, stop, sums)`` for each block ``[start, stop)`` of profile entries, in order.

    The ``values.size - 2n`` profile entries are cut by
    :func:`~nilmevents.core._blocks`.  ``sums`` holds the cumulative sums
    ``_prefix_sums(values)[start : stop + 2n + 1]``, all that the block's
    window sums read, bit for bit: each block keeps the last ``2n + 1``
    sums of the block before, copies its new samples after them, adds the
    carried running sum to the first and accumulates in place, which are
    the additions of the one sequential cumulative sum, in its order.
    Every block is a view of one buffer of ``_BLOCK_SAMPLES + 2n + 1``
    entries, overwritten by the next block.
    """
    width = 2 * n + 1
    buffer = np.empty(0)
    kept = 0  # where the sums the next block keeps start in the buffer
    for start, stop in _blocks(values.size - 2 * n):
        if start == 0:
            buffer = np.empty(stop + width)  # the first block is as long as any
            buffer[0] = 0.0
            np.cumsum(values[: stop + width - 1], out=buffer[1:])
        else:
            buffer[:width] = buffer[kept : kept + width]
            fresh = buffer[width : stop - start + width]
            fresh[:] = values[start + width - 1 : stop + width - 1]
            fresh[0] += buffer[width - 1]
            np.cumsum(fresh, out=fresh)
        kept = stop - start
        yield start, stop, buffer[: stop - start + width]


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
    entries is bit-identical to the same entries of the whole profile,
    and so is a block read from :func:`_prefix_sum_blocks`, whose sums
    start at its first entry.
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


def _rounding_margin(peak: float, size: int, n: int) -> float:
    """``r``: a computed mean difference exceeds its windows' range by less than this.

    **The bound.**  Take ``u = 2**-53``, ``N = size`` and the exact
    window sums ``B`` and ``A`` of the ``n`` samples before and after a
    centre ``c``.  Then ``|A|, |B| <= n * peak``, and ``|A - B| <= n * R``
    with ``R`` the range of ``x`` over ``[c - n, c + n]``, since ``A - B``
    pairs each after sample with a before sample.  The cumulative sum is
    recursive summation, so each computed prefix sum lies within
    ``E = gamma_N * N * peak`` of the exact one, ``gamma_N = N u / (1 - N u)``
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2002,
    section 4.2, which bounds it by ``gamma_(j-1) * sum|x_i|`` whatever the
    order).  Each window sum is one rounded subtraction of two prefix sums,
    so it errs by at most ``e = 2E + u * (n * peak + 2E)``.  The numerator
    is then at most ``n R + 2e`` before its own rounding and the division
    by ``n`` adds one more, so the computed mean difference obeys
    ``|d| <= (1 + u)**2 * (R + 2e / n)``.

    **The margin.**  The range is read as ``R' = fl(max - min)``, so
    ``R <= R' / (1 - u)`` and ``R' <= 2 * peak * (1 + u)``.  Collecting
    the ``(1 + u)`` factors, ``|d| <= R' + (4E / n) * (1 + 4u) + 12u * peak``.
    This returns ``r = 2 * (4E / n + 8u * peak)``: the factor 2 covers the
    ``1 + 4u`` and the few roundings of ``r``'s own arithmetic.  So
    ``fl(R' + r) < threshold`` implies ``R' + r < threshold`` (the
    threshold is a float and rounding is monotone), hence
    ``|d| < threshold``: no centre of a block where that holds alarms.
    ``r`` grows with ``N**2 * peak / n``; on long traces at high levels it
    reaches the threshold, no block is quiet and every block is tested.
    An overflow makes ``r`` infinite, with the same effect.
    """
    u = 2.0**-53
    gamma = size * u / (1.0 - size * u)
    prefix_error = gamma * size * peak
    return 2.0 * (4.0 * prefix_error / n + 8.0 * u * peak)


def _tested_entries(values: np.ndarray, n: int, threshold: float) -> list[tuple[int, int]]:
    """The profile entries ``[start, stop)`` the threshold test must run on, in order.

    Centres are cut into proof blocks of ``_PROOF_BLOCK_SAMPLES``.  A
    block is quiet when ``range + r < threshold``, with ``range`` the
    range of ``x`` over the block widened by ``n`` samples on either
    side, which covers both windows of every centre in it, and ``r`` from
    :func:`_rounding_margin`; a non-finite range never is.  The runs of
    blocks that are not quiet, cut to the centres with full windows, are
    returned as profile entries (entry ``k`` is centre ``n + k``).

    Raises :class:`MagnitudeTooLarge` as :func:`_check_sum_resolution`
    does; ``peak`` comes from the same per-block extremes.
    """
    low, high = _block_ranges(values, _PROOF_BLOCK_SAMPLES, n, n)
    peak = max(float(high.max()), -float(low.min()))
    _check_sum_resolution(peak, values.size, threshold)
    quiet = (high - low) + _rounding_margin(peak, values.size, n) < threshold
    entries = values.size - 2 * n
    runs = _halo_runs(~quiet, _PROOF_BLOCK_SAMPLES, 0, values.size)
    return [
        (max(start - n, 0), min(stop - n, entries))
        for start, stop in runs
        if start - n < entries and stop - n > 0
    ]


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
    The cumulative sum runs in blocks (:func:`_prefix_sum_blocks`) and
    the threshold test only on the centres not proven quiet
    (:func:`_tested_entries`), so no full-length temporary is built; the
    events are identical for any block and proof-block size.

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
    threshold = config.power_threshold_watts
    tested = _tested_entries(series.values, n, threshold)

    found = [(np.empty(0, dtype=np.int64), np.empty(0))]
    run = 0
    for start, stop, sums in _prefix_sum_blocks(series.values, n):
        while run < len(tested) and tested[run][1] <= start:
            run += 1
        if run == len(tested):
            break  # the rest is quiet: no later sum is read
        for lo, hi in tested[run:]:
            if lo >= stop:
                break
            lo, hi = max(lo, start), min(hi, stop)
            diffs = _mean_difference_profile(sums, n, lo - start, hi - start)
            # |d| > threshold as two comparisons, with no |d| temporary.
            positions = np.flatnonzero((diffs > threshold) | (diffs < -threshold))
            found.append((positions + (n + lo), diffs[positions]))
    alarm_indices = np.concatenate([indices for indices, _ in found])
    alarm_deltas = np.concatenate([deltas for _, deltas in found])
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
