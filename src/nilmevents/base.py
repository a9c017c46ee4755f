"""Moving-average change detector with an emission time limit.

The detector compares the mean power of the ``n`` samples just before
each candidate index against the mean of the ``n`` samples just after it
(the candidate sample itself belongs to neither window).  An alarm is
raised where the absolute mean difference exceeds the power threshold,
and alarms are clustered so that one transition emits a single event:
after an event is emitted, further alarms are suppressed until more than
``k`` samples have passed, ``k`` being ``time_limit_s`` in whole samples
(:meth:`HybridConfig.time_limit_samples`).  The limit is an integer test
on sample indices, so the events do not depend on the start time.

The detector works on arrays throughout and returns :class:`Events`.
The time-limit emission (:func:`_emitted`) cuts the alarms into the
chains that the limit cannot link, in one array pass, and moves every
chain on by one emitted alarm per array pass; only the last few chains
are walked an alarm at a time.
Each window is summed from its own ``n`` samples in one fixed order
(:func:`_window_sums`), so a mean difference is a pure function of the
``2n + 1`` samples around its centre, whatever the block sizes or the
position in the trace, and its rounding error grows with ``n``, not
with the trace length.  A trace whose rounding margin
(:func:`_rounding_margin`, about ``4 (n + 3) u`` times its peak) reaches
the threshold is refused with :class:`MagnitudeTooLarge`, since rounding
alone could then make a flat stretch alarm.

No full-length temporary is built.  A mean difference is at most the
range of the samples its windows read, plus a bound on the rounding, so
a block of centres whose range stays below the threshold by that bound
cannot alarm and is not tested; on a mostly steady household trace that
is nearly all of them.  The ranges and the peak are read from the
series' summary.  The other centres are summed and tested a piece
group at a time, each group as one array, exactly as the whole trace
would be (:mod:`nilmevents.core`).  So one switch costs a share of a
group's few array passes, not passes of its own, and quiet stretches are
never summed.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from .core import (
    DetectionError,
    Events,
    HybridConfig,
    SampleSeries,
    SeriesTooShort,
    _Layout,
    _Summary,
    _aranges,
    _blocks,
    _check_type,
    _piece_groups,
    _proof_runs,
)

# ``validate_series`` is no longer called here, but stays importable under
# this module: the benchmark's tracer (perfbench/tracer.py) wraps
# ``nilmevents.base.validate_series`` by name.
from .core import validate_series  # noqa: F401

__all__ = ["MagnitudeTooLarge", "detect_base"]


class MagnitudeTooLarge(DetectionError):
    """A trace's magnitude is too large for its window sums to resolve the threshold."""


def _window_sums(values: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Sums of the ``n`` samples before and after each centre with a full window on both sides.

    Entry ``k`` of the profile belongs to centre ``n + k``.  The before
    window covers ``[centre - n, centre - 1]`` and the after window
    ``[centre + 1, centre + n]``; the centre sample is excluded so a step
    landing exactly on it biases neither mean.

    Every window is summed from its own samples in one fixed order, binary
    doubling: ``W_1 = x`` and ``W_2p[k] = W_p[k] + W_p[k + p]`` is the sum
    of the ``2p`` samples from ``k``, and a window of ``n`` adds its
    power-of-two parts from the lowest set bit of ``n`` up, each part
    starting where the ones before it end.  So a sum depends only on the
    samples it reads, bit for bit, and takes ``O(log n)`` vectorised
    passes over ``values``; the sums of a slice of ``values`` are those
    of the whole.  One array of window sums serves both windows: an
    entry's before sum is its entry ``k`` and its after sum entry ``k + n
    + 1``; the two results are views of it.
    """
    count = values.size - n + 1  # the windows starting at samples [0, size - n]
    part = values  # W_1
    sums = None
    offset = 0
    for bit in range(n.bit_length()):
        width = 1 << bit
        if bit:
            part = part[: -(width >> 1)] + part[width >> 1 :]  # W_width from W_(width/2)
        if n & width:
            piece = part[offset : offset + count]
            sums = piece if sums is None else sums + piece
            offset += width
    return sums[: values.size - 2 * n], sums[n + 1 :]


def _mean_difference_profile(values: np.ndarray, n: int) -> np.ndarray:
    """After-minus-before window means for every centre with full windows.

    Computed as ``(sum_after - sum_before) / n`` with a single division,
    so a constant offset added to every sample cancels exactly whenever
    the window sums are exact (integer-valued data, for instance).
    """
    before_sums, after_sums = _window_sums(values, n)
    return (after_sums - before_sums) / n


def _rounding_margin(peak: float, n: int) -> float:
    """``r``: a computed mean difference exceeds its windows' range by less than this.

    **The bound.**  Take ``u = 2**-53``, ``peak = max|x|`` and the exact
    sums ``B`` and ``A`` of the ``n`` samples before and after a centre
    ``c``.  Then ``|A - B| <= n * R`` with ``R`` the range of ``x`` over
    ``[c - n, c + n]``, since ``A - B`` pairs each after sample with a
    before sample.  A computed sum of ``n`` terms, in any order, lies
    within ``gamma_(n-1) * sum|x_i|`` of the exact one, with
    ``gamma_k = k u / (1 - k u)`` (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2002, section 4.2: no term passes through more
    than ``n - 1`` additions), so each window sum of :func:`_window_sums`
    errs by at most ``e = gamma_(n-1) * n * peak``.  The numerator is then
    at most ``n R + 2e`` before its own rounding and the division by ``n``
    adds one more, so the computed mean difference obeys
    ``|d| <= (1 + u)**2 * (R + 2 * gamma_(n-1) * peak)``.

    **The margin.**  The range is read as ``R' = fl(max - min)``, so
    ``R <= R' / (1 - u)`` and ``R' <= 2 * peak * (1 + u)``.  Collecting
    the ``(1 + u)`` factors,
    ``|d| <= R' + (2 * gamma_(n-1) + 8u) * peak * (1 + u)**2``.  This
    returns ``r = 2 * (2 * gamma_(n-1) + 8u) * peak``: the factor 2 covers
    the ``(1 + u)**2`` and the few roundings of ``r``'s own arithmetic.
    So ``fl(R' + r) < threshold`` implies ``R' + r < threshold`` (the
    threshold is a float and rounding is monotone), hence
    ``|d| < threshold``: no centre of a block where that holds alarms.
    ``r`` is about ``4 (n + 3) u * peak`` and does not depend on the trace
    length.

    **LLD.**  :func:`~nilmevents.baselines.lld_max` forms ``mu1 - mu0`` as
    ``fl(A'/n) - fl(B'/n)`` from the same computed sums ``A'`` and ``B'``,
    with ``|A'| / n`` and ``|B'| / n`` at most ``(1 + gamma_(n-1)) * peak``.
    The sums err by ``2 * gamma_(n-1) * peak`` after the division, each
    quotient's rounding by ``u (1 + gamma_(n-1)) * peak`` and the
    subtraction's by ``2u (1 + gamma_(n-1)) (1 + u) * peak``, so the
    computed ``mu1 - mu0`` lies within
    ``(2 * gamma_(n-1) + 4u) (1 + gamma_(n-1)) (1 + u) * peak < r`` of the
    exact ``(A - B) / n``.  So ``r`` bounds what rounding adds to either
    statistic.

    The same steps bound LLD's deviation ``x[c] - (mu1 + mu0) / 2``.  Each
    quotient lies within ``(gamma_(n-1) + u (1 + gamma_(n-1))) * peak`` of
    the exact mean, their sum's rounding adds ``2u (1 + gamma_(n-1)) (1 +
    u) * peak``, the halving is exact, and the subtraction from ``x[c]``
    adds ``2u (1 + gamma_(n-1)) (1 + u)**2 * peak``.  So the computed
    deviation lies within ``(gamma_(n-1) + 4u (1 + gamma_(n-1)) (1 +
    u)**2) * peak < r`` of the exact one.  Where the exact deviation is 0,
    as inside a noiseless ramp, the computed one is at most ``r``, and
    ``lld_max`` zeroes its statistic wherever it is.
    """
    u = 2.0**-53
    gamma = (n - 1) * u / (1.0 - (n - 1) * u)
    return 2.0 * (2.0 * gamma + 8.0 * u) * peak


def _checked_margin(peak: float, n: int, threshold: float) -> float:
    """``r = _rounding_margin(peak, n)``, or :class:`MagnitudeTooLarge` if ``r >= threshold``.

    Where ``r`` reaches the threshold, rounding alone could make a flat
    stretch alarm, so the window sums cannot resolve the threshold.
    """
    margin = _rounding_margin(peak, n)
    if not margin < threshold:
        raise MagnitudeTooLarge(
            f"the rounding margin r = {margin:.6g} W of {n}-sample window sums at peak "
            f"|x| = {peak:.6g} W reaches the power threshold {threshold:.6g} W; "
            "the window sums cannot resolve it"
        )
    return margin


def _tested_centres(summary: _Summary, n: int, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """``(starts, stops)``: the centres ``[start, stop)`` the threshold test must run on, in order.

    A centre ``c`` reads ``x[c - n .. c + n]``, so a proof block of
    centres is quiet when ``range + r < threshold``, with ``range`` read
    from the trace's summary over the block widened by ``n`` samples on
    either side, and ``r`` from :func:`_rounding_margin`; a non-finite
    range never is.  The runs of blocks that are not quiet are returned,
    cut to the centres with full windows, ``[n, size - n)``.
    :func:`~nilmevents.baselines.lld_max` reads the same runs, since its
    ``mu1 - mu0`` obeys the same bound.

    Raises :class:`MagnitudeTooLarge` from :func:`_checked_margin`.
    """
    low, high = summary.block_ranges(n, n)
    quiet = (high - low) + _checked_margin(summary.peak(), n, threshold) < threshold
    starts, stops = _proof_runs(~quiet, summary.size)
    starts, stops = np.maximum(starts, n), np.minimum(stops, summary.size - n)
    return starts[starts < stops], stops[starts < stops]


def _require_windows(size: int, n: int) -> None:
    """:class:`SeriesTooShort` unless ``size`` samples hold two ``n``-sample windows.

    The two windows and the centre between them take ``2n + 1`` samples.
    """
    if size < 2 * n + 1:
        raise SeriesTooShort(f"need at least {2 * n + 1} samples for window {n}, got {size}")


def _alarming(diffs: np.ndarray, threshold: float) -> np.ndarray:
    """The positions of the mean differences with ``|d| > threshold``.

    Two comparisons, with no ``|d|`` temporary.
    """
    return np.flatnonzero((diffs > threshold) | (diffs < -threshold))


def _owned_alarms(
    groups: Iterable[tuple[_Layout, np.ndarray]], n: int, threshold: float
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Per piece group, the increasing alarm centres its pieces own and their mean differences.

    Each group comes with the samples its pieces read, laid end to end:
    :meth:`~nilmevents.core._Layout.take` of the trace, or of a smoothed
    trace that agrees with the whole-trace smoothing over those reads.  A
    centre reads ``n`` samples on either side, so entry ``k`` of a group's
    profile is the centre ``n + k`` of its samples.  One group is yielded
    at a time, so a caller that keeps only the centres holds no more.
    """
    for layout, samples in groups:
        diffs = _mean_difference_profile(samples, n)
        positions = _alarming(diffs, threshold)
        kept, centres = layout.own(positions + n)
        yield centres, diffs[positions[kept]]


# Once no more than this many alarm chains are left to walk, each is finished
# one alarm at a time: an array pass per emitted alarm would cost more.
_LOCKSTEP_CHAINS = 64


def _walked(indices: np.ndarray, k: int) -> np.ndarray:
    """The positions of the alarms the time limit emits, walking the alarm ``indices`` in order.

    An alarm is emitted when ``index - last > k``, ``last`` being the
    index of the last alarm emitted before it (none before the first).
    The indices are walked a block at a time, so only a block of them is
    ever a Python list.
    """
    emitted: list[int] = []
    last = -np.inf
    for start, stop in _blocks(indices.size):
        for position, index in enumerate(indices[start:stop].tolist(), start):
            if index - last > k:
                emitted.append(position)
                last = index
    return np.array(emitted, dtype=np.int64)


def _emitted(indices: np.ndarray, k: int) -> np.ndarray:
    """:func:`_walked` of the increasing alarm ``indices``, with most chains walked in lockstep.

    **Chains.**  An alarm more than ``k`` samples after the one before it
    is more than ``k`` after any earlier one: it is always emitted, and it
    heads a chain.  One array pass finds the heads.  Within a chain, the
    alarm emitted after the one at ``cur`` is the first past ``cur + k``,
    ``searchsorted(indices, cur + k, side="right")``; the next chain's head
    is past it too, and past the last alarm lies the end.

    **Lockstep.**  Each array pass moves every chain still walked on by
    one emitted alarm; a chain stops when it reaches the next head.  Once
    no more than ``_LOCKSTEP_CHAINS`` are left, as on one long chain, the
    rest of each, from its last emitted alarm on, is laid end to end and
    walked by :func:`_walked`: each chain's first alarm there passes the
    test, as a head does, so the walk restarts at each chain.  With that
    few chains from the start, :func:`_walked` walks all the alarms.
    """
    size = indices.size
    restarts = np.ones(size + 1, dtype=bool)
    np.greater(np.diff(indices), k, out=restarts[1:size])
    walking = np.flatnonzero(restarts[:-1] & ~restarts[1:])  # chains of more than one alarm
    if walking.size <= _LOCKSTEP_CHAINS:
        return _walked(indices, k)
    emitted = restarts.copy()
    while walking.size > _LOCKSTEP_CHAINS:
        following = np.searchsorted(indices, indices[walking] + k, side="right")
        emitted[following] = True
        walking = following[~restarts[following]]
    heads = np.flatnonzero(restarts)
    rest = _aranges(walking, heads[np.searchsorted(heads, walking, side="right")] - walking)
    emitted[rest[_walked(indices[rest], k)]] = True
    return np.flatnonzero(emitted[:size])


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
        Events in increasing index order, every consecutive pair more
        than ``k`` samples apart, ``k`` being ``time_limit_s`` in whole
        samples (:meth:`HybridConfig.time_limit_samples`).  Each event
        carries the mean difference observed at its own index, so one
        physical transition that alarms over several samples is reported
        once, at the first alarming index.  Timestamps come from
        :meth:`SampleSeries.time_at`, for the emitted alarms only.

    Notes
    -----
    Only the centres not proven quiet (:func:`_tested_centres`) are
    summed and tested (module docstring).  The time-limit emission
    (:func:`_emitted`) moves every alarm chain on by one emitted alarm per
    array pass until ``_LOCKSTEP_CHAINS`` or fewer are left, and walks
    those an alarm at a time (:func:`_walked`), a block of alarm indices at
    a time, so only a block of them is ever a Python list.

    Raises
    ------
    SeriesTooShort
        If the series cannot hold one before window, one center sample
        and one after window.
    MagnitudeTooLarge
        If the rounding margin of its window sums
        (:func:`_rounding_margin`) reaches ``power_threshold_watts``.
    """
    _check_type("series", series, SampleSeries)
    _check_type("config", config, HybridConfig)
    n = config.mean_window_samples(series.sampling_rate_hz)
    _require_windows(len(series), n)
    threshold = config.power_threshold_watts

    starts, stops = _tested_centres(series.summary, n, threshold)
    groups = _piece_groups(starts, stops, n, n, len(series))
    takes = ((layout, layout.take(series.values)) for layout in groups)
    found = [(np.empty(0, dtype=np.int64), np.empty(0)), *_owned_alarms(takes, n, threshold)]
    alarm_indices = np.concatenate([indices for indices, _ in found])
    alarm_deltas = np.concatenate([deltas for _, deltas in found])
    del found  # copied into the two arrays above, so not held through the emission
    keep = _emitted(alarm_indices, config.time_limit_samples(series.sampling_rate_hz))
    indices = alarm_indices[keep]
    return Events(indices, series.time_at(indices), alarm_deltas[keep])
