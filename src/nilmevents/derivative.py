"""Derivative analysis: smoothing, extrema, and transient merging.

Long or complex appliance transients (motor ramps, multi-stage starts)
keep the base detector alarming for seconds, producing several events for
one physical transition.  This module decides which consecutive events
belong to the same transient by looking at the smoothed first derivative
of the trace: a transition is only considered finished once the absolute
smoothed derivative stays below a small epsilon for longer than a settle
threshold.  Consecutive events with no such settled gap between them are
merged into the earliest event of their group.

Extrema come back as an index array and the merge as positions into its
candidates, so no per-extremum or per-event object is built here.

On a steady stretch the smoothed derivative cannot reach epsilon: its
magnitude is at most the largest kernel weight times the local range of
the trace, read from the series' summary.  ``_moving_smoothed_derivative``
uses that bound to compute the derivative only on the blocks where it
might, with a margin of epsilon / 2, and returns just those samples as a
``_Support``: a few sample ranges and their values, with a proven 0
everywhere else.  Each range starts and ends on a proven-settled sample,
so :func:`detect_extrema` and :func:`merge_transient_events` run their
dense code on the support's values, which is the one-range case, and
return the same as on the whole-trace derivative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core
from .core import (
    DetectionError,
    Events,
    HybridConfig,
    MisalignedInput,
    SampleSeries,
    SeriesTooShort,
    _Summary,
    _blocks,
    _proof_runs,
)

__all__ = [
    "InvalidWindow",
    "first_derivative",
    "loess_smooth",
    "detect_extrema",
    "merge_transient_events",
]


class InvalidWindow(DetectionError):
    """A smoothing window was even, too small, or longer than the series."""


@dataclass(frozen=True, eq=False)
class _Support:
    """A trace of ``size`` samples that is 0 outside a few sample ranges.

    Range ``k`` is ``[starts[k], stops[k])``; the ranges are non-empty,
    increasing and disjoint, and ``values`` holds their samples,
    concatenated in range order.  A dense array is the one-range case.

    It answers ``min_abs_value >= epsilon`` in :func:`detect_extrema` and
    the settle test ``|s| < epsilon`` from ``values`` alone when no two
    ranges touch and each begins and ends at a trace end or a sample with
    ``|s| < epsilon``: then a sample with ``|s| >= epsilon`` has its trace
    neighbours beside it, and no run of them crosses into the next range.
    """

    size: int
    starts: np.ndarray
    stops: np.ndarray
    values: np.ndarray

    @classmethod
    def of(cls, trace: np.ndarray | _Support) -> _Support:
        """``trace`` itself if it is a support, else the dense array as one range."""
        if isinstance(trace, _Support):
            return trace
        x = np.asarray(trace, dtype=float)
        return cls(x.size, np.array([0]), np.array([x.size]), x)

    def indices(self, positions: np.ndarray) -> np.ndarray:
        """The sample indices of the non-decreasing ``positions`` into ``values``."""
        lengths = self.stops - self.starts
        offsets = np.cumsum(lengths) - lengths  # where each range starts in ``values``
        per_range = np.diff(np.searchsorted(positions, offsets), append=positions.size)
        return positions + np.repeat(self.starts - offsets, per_range)


def _checked_window(window_samples: int, size: int) -> int:
    """The window as an int, if it is odd, at least 3 and at most ``size``."""
    win = int(window_samples)
    if win < 3 or win % 2 == 0:
        raise InvalidWindow(f"window_samples must be an odd integer >= 3, got {window_samples}")
    if win > size:
        raise InvalidWindow(f"window {win} exceeds series length {size}")
    return win


def _convolve_interior(x: np.ndarray, kernel: np.ndarray, out: np.ndarray) -> None:
    """Set ``out[half : x.size - half]`` to ``np.convolve(x, kernel, "valid")``.

    That is ``np.convolve(x, kernel, "same")`` wherever the odd kernel fits
    inside ``x``.  The range is convolved block by block (each block reads
    its own samples plus ``half`` on either side) and equals the
    whole-array convolution bit for bit, for any block size: every output
    sample is the same dot product of the same ``kernel.size`` inputs.
    Nothing else of ``out`` is written.
    """
    half = kernel.size // 2
    for start, stop in _blocks(x.size - 2 * half):
        out[half + start : half + stop] = np.convolve(
            x[start : stop + 2 * half], kernel, mode="valid"
        )


def _difference(x: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """``first_derivative(x)[lo:hi]``, read from ``x[lo - 1 : hi]`` alone (``x[:hi]`` at 0)."""
    out = np.empty(hi - lo)
    if lo == 0:
        out[0] = 0.0
        np.subtract(x[1:hi], x[: hi - 1], out=out[1:])
    else:
        np.subtract(x[lo:hi], x[lo - 1 : hi - 1], out=out)
    return out


def first_derivative(values: np.ndarray) -> np.ndarray:
    """Backward-difference first derivative ``x[j] - x[j-1]``, in watts per sample.

    The first entry is zero padding so that ``out[i]`` refers to the same
    sample instant as ``values[i]``.
    """
    x = np.asarray(values, dtype=float)
    if x.size < 2:
        raise SeriesTooShort(f"first derivative needs >= 2 samples, got {x.size}")
    return _difference(x, 0, x.size)


def _tricube_weights(offsets: np.ndarray, half_width: int) -> np.ndarray:
    u = np.abs(offsets) / half_width
    return (1.0 - u**3) ** 3


def _loess_kernel(half: int) -> np.ndarray:
    """The normalised tricube weights of a full ``2 * half + 1`` window; both end taps are 0."""
    kernel = _tricube_weights(np.arange(-half, half + 1), half)
    return kernel / kernel.sum()


def _edge_rows(half: int) -> np.ndarray:
    """The ``half x 2 * half`` weights of the first ``half`` outputs on the first inputs.

    Output ``i`` is the tricube-weighted linear fit over inputs
    ``[0, i + half]``, read at input ``i``: with offsets ``t_j = j - i``
    and moments ``S_k = sum_j w_j * t_j**k``, it is ``sum_j r_ij * y_j``
    with ``r_ij = w_j * (S_2 - S_1 * t_j) / (S_0 * S_2 - S_1**2)``.  The
    last outputs use the rows mirrored, ``rows[::-1, ::-1]``.  In a
    3-sample window the normal equations are singular: each truncated fit
    weights only its own sample, and its row picks that sample.
    """
    t = np.arange(2 * half) - np.arange(half)[:, None]
    # No input lies before i - half, and those past i + half get weight 0.
    w = _tricube_weights(np.minimum(t, half), half)
    if half == 1:
        return w
    s0, s1, s2 = ((w * t**k).sum(axis=1, keepdims=True) for k in range(3))
    return w * (s2 - s1 * t) / (s0 * s2 - s1 * s1)


def _edge_fits(head: np.ndarray, tail: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first and the last ``half`` outputs, from the first and last ``2 * half`` inputs.

    The products are a fresh array summed along its rows, so the bits do
    not depend on where ``head`` and ``tail`` sit in memory, which a BLAS
    matrix product does not promise.
    """
    rows = _edge_rows(head.size // 2)
    return (rows * head).sum(axis=1), (rows[::-1, ::-1] * tail).sum(axis=1)


def loess_smooth(values: np.ndarray, window_samples: int) -> np.ndarray:
    """Locally weighted linear smoothing with tricube weights.

    Each output sample is the value at the window center of a degree-1
    least-squares fit over the surrounding ``window_samples`` points,
    weighted by ``(1 - |u|**3)**3`` where ``u`` is the offset normalized
    by the half width.  Windows are truncated at the array ends, so the
    output has the same length as the input.

    For full interior windows the symmetric weights make the fitted
    center value equal a tricube-weighted average, which is computed as a
    single convolution; the truncated edge windows are fixed weight rows
    too (:func:`_edge_rows`).  The convolution runs in blocks, and the
    result is identical for any block size.

    Parameters
    ----------
    values:
        Input samples.
    window_samples:
        Odd window length, at least 3 and at most ``len(values)``.
    """
    x = np.asarray(values, dtype=float)
    half = _checked_window(window_samples, x.size) // 2
    kernel = _loess_kernel(half)
    out = np.empty_like(x)
    _convolve_interior(x, kernel, out)
    out[:half], out[x.size - half :] = _edge_fits(x[: 2 * half], x[x.size - 2 * half :])
    return out


def _block_bounds(summary: _Summary, kernel: np.ndarray) -> np.ndarray:
    """Per proof block, a bound on ``|s[i]|`` at its interior indices and one either side.

    ``max(kernel)`` times the summary's range over the block widened by
    ``half + 1`` samples before and ``half`` after, which holds the taps
    that weigh (``x[i - half .. i + half - 1]``) at each of those indices.
    """
    half = kernel.size // 2
    low, high = summary.block_ranges(half + 1, half)
    return kernel.max() * (high - low)


def _moving_smoothed_derivative(
    values: np.ndarray, window_samples: int, epsilon: float, *, summary: _Summary
) -> _Support:
    """The smoothed first derivative where it is not proven small, as a support.

    That is ``loess_smooth(first_derivative(values), window_samples)``;
    ``summary`` is that of ``values``.

    Every sample of the returned :class:`_Support` equals the
    whole-trace smoothed derivative ``s`` bit for bit; every sample
    outside its ranges is 0 where ``|s| < epsilon / 2 +`` rounding
    ``< epsilon``.  Only the samples near a transient are computed, which
    on a mostly steady household trace is a few percent of them, and no
    full-length array is built.

    **The bound.**  At an interior index ``i`` (``half <= i < n - half``),
    ``s[i] = sum_j k[j] * d[i + j]`` over ``j`` in ``[-half, half]``, with
    ``d`` the first derivative and ``k`` the normalised tricube kernel,
    whose end taps are exactly 0 (so the zero pad ``d[0]`` is never
    weighted).  Summing by parts with ``d[m] = x[m] - x[m - 1]`` and ``k``
    extended by zeros,
    ``s[i] = sum_m (k[m - i] - k[m - i + 1]) * (x[m] - c)`` over ``m`` in
    ``[i - half, i + half - 1]``, the taps that weigh, for any constant
    ``c``, since the coefficients telescope to 0.  With ``c`` the midpoint
    of ``x`` over that range ``R``, ``|s[i]| <= TV(k) * range(x over R) /
    2``, where ``TV(k) = sum |k[m] - k[m + 1]| = 2 * max(k)``: the kernel
    rises to its centre and falls back to 0.  So ``|s[i]| <= max(k) * range``.

    **Settled blocks.**  The trace is cut into proof blocks; a block's
    bound (:func:`_block_bounds`) reads ``x`` over at least the block
    widened by ``half + 1`` samples before and ``half`` after, which
    covers ``R`` for every interior index in the block and for the
    interior index just past either end of it.  A block is settled only
    when its bound is ``< epsilon / 2``; a non-finite bound never is.  The
    computed ``s`` differs from the exact one by at most about
    ``(2 * half + 3) * 2**-53 * range``, which stays below the
    ``epsilon / 2`` margin for any window under ``10**7`` samples, so
    every index a settled block's bound covers has ``|s| < epsilon``.
    So a block can be settled only where ``max(k) * range < epsilon /
    2``: at 20 Hz with the default 2 s window ``max(k) = 0.0432``, and
    with the default ``epsilon = 0.5`` the widened range must stay under
    5.8 W.  A trace with 2 W of noise rarely does, and on such a trace
    the whole derivative is computed.

    **What is computed.**  The ranges are the runs of active blocks
    (:func:`~nilmevents.core._proof_runs`), where a block is active when
    it is not settled or holds one of the first or the last ``half + 1``
    samples, which the edge fits need.  So the first run begins at 0 and
    the last ends at the trace's end.  Every other run begins just past a
    settled block, at an index that block's bound covers.  That index is
    interior: the settled block holds none of the first ``half + 1``
    samples, so it lies past them, and none of the last ``half + 1``, so
    the index just past it lies before them.  Likewise every other run
    ends just before a settled block, at an interior index its bound
    covers.  Runs never touch, so each range begins and ends at a trace
    end or at a covered interior index, as :class:`_Support` needs.  The
    interior part of a range is convolved one block of
    :func:`~nilmevents.core._blocks` at a time, each block from the first
    difference of its own samples widened by ``half`` on either side
    (``d[0] = 0`` where that reaches the start), so no range-long
    difference array is built.  Every sample is the same dot product of
    the same inputs as in :func:`loess_smooth`, whatever the block size.
    Besides the support, the call holds a block's difference and its
    convolution, and per-proof-block bounds.

    **Why 0 changes no result.**  The merge's settled test is
    ``|s| < epsilon``, which holds for the 0 as for the true value.  A
    significant extremum needs ``|s[i]| > epsilon``, so it lies inside a
    range with both trace neighbours beside it in ``values``.  Hence
    :func:`detect_extrema` with ``min_abs_value=epsilon`` and
    :func:`merge_transient_events` return what they return on ``s``.
    """
    x = np.asarray(values, dtype=float)
    half = _checked_window(window_samples, x.size) // 2
    kernel = _loess_kernel(half)
    active = ~(_block_bounds(summary, kernel) < epsilon / 2)
    block = core._PROOF_BLOCK_SAMPLES
    active[: half // block + 1] = active[(x.size - half - 1) // block :] = True
    ranges = _proof_runs(active, x.size)
    interior = x.size - half

    out = np.empty(sum(stop - start for start, stop in ranges))
    offset = 0  # where the range starts in ``out``
    for start, stop in ranges:
        lo, hi = max(start, half), min(stop, interior)
        at = offset + lo - start  # where sample ``lo`` sits in ``out``
        for first, last in _blocks(hi - lo):
            d = _difference(x, lo + first - half, lo + last + half)
            out[at + first : at + last] = np.convolve(d, kernel, mode="valid")
        offset += stop - start
    head = _difference(x, 0, 2 * half)
    tail = _difference(x, x.size - 2 * half, x.size)
    out[:half], out[out.size - half :] = _edge_fits(head, tail)
    starts, stops = (np.array(bounds, dtype=np.int64) for bounds in zip(*ranges))
    return _Support(x.size, starts, stops, out)


def detect_extrema(
    values: np.ndarray | _Support, min_abs_value: float | None = None
) -> np.ndarray:
    """Indices of the strict interior peaks and valleys of a sequence.

    A peak at ``i`` requires ``values[i] > values[i-1]`` and
    ``values[i] > values[i+1]``; valleys are symmetric.  End points are
    never extrema.  With ``min_abs_value`` set, extrema whose absolute
    value does not exceed it are dropped, which separates significant
    transient lobes from noise-level wiggle.  The threshold is applied
    first, and neighbours are compared only where a sample passes it.

    ``values`` is an array or a :class:`_Support`, whose samples outside
    its ranges are 0.  A support gives the extrema of its trace for any
    ``min_abs_value`` at or above its ``epsilon``: every sample that
    passes has its trace neighbours beside it in ``values``.

    Returns an increasing int64 array; a peak is told from a valley by
    comparing ``values[i]`` with ``values[i-1]``.

    Raises
    ------
    SeriesTooShort
        If fewer than 3 values are given (no interior point exists).
    """
    trace = _Support.of(values)
    if trace.size < 3:
        raise SeriesTooShort(f"extremum detection needs >= 3 values, got {trace.size}")
    v = trace.values
    if min_abs_value is None:
        positions = np.arange(v.size)
    else:
        # |v| > m as two comparisons, with no float temporary.
        positions = np.flatnonzero((v > min_abs_value) | (v < -min_abs_value))
    value = v[positions]
    # The two ends have no neighbour and read their own value: no extremum.
    before = v.take(positions - 1, mode="clip")
    after = v.take(positions + 1, mode="clip")
    strict = ((value > before) & (value > after)) | ((value < before) & (value < after))
    return trace.indices(positions[strict]).astype(np.int64, copy=False)


def _unsettled_runs(trace: _Support, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """``(starts, stops)`` of the runs of ``not |s| < epsilon``, as sample indices.

    They are the runs in ``values``: no run of a support crosses from one
    range into the next (see :class:`_Support`).
    """
    v = trace.values
    # not |s| < eps as two comparisons, with no float temporary for |s|.
    moving = ~((v < epsilon) & (v > -epsilon))
    opens = moving.copy()
    opens[1:] &= ~moving[:-1]
    closes = moving.copy()
    closes[:-1] &= ~moving[1:]
    return trace.indices(np.flatnonzero(opens)), trace.indices(np.flatnonzero(closes)) + 1


def merge_transient_events(
    candidates: Events,
    smoothed_derivative: np.ndarray | _Support,
    series: SampleSeries,
    config: HybridConfig,
) -> np.ndarray:
    """Collapse events that sit on one continuing transient.

    Two consecutive candidates are separate transitions only if the
    appliance settled between them: there must be a contiguous run of
    samples strictly between their indices where the absolute smoothed
    derivative stays below ``derivative_epsilon`` and whose duration
    exceeds ``settle_threshold_s``.  Without such a run the later event
    is merged into the earlier event's group, and each group is reported
    as its first event.

    ``smoothed_derivative`` is an array or a :class:`_Support` at
    ``derivative_epsilon``, whose 0s outside its ranges are settled.  No
    full-length mask is built: the unsettled samples are the runs of
    ``|s| >= derivative_epsilon`` in its values plus every candidate
    index, taken as intervals and sorted by start.  The settled runs are
    the gaps between them, where a gap ends at the next interval's start
    and starts at the furthest end of the intervals before it (a running
    maximum, so a candidate inside an unsettled run leaves no gap).  Each
    settled run lies strictly between two consecutive candidates and is
    assigned to that candidate gap by binary search: O(S + U log U) for S
    support samples and U intervals, with no per-pair loop.

    Returns the increasing int64 positions, into ``candidates``, of the
    events that survive; ``candidates[positions]`` are the merged events.
    """
    trace = _Support.of(smoothed_derivative)
    if trace.size != len(series):
        raise MisalignedInput(
            f"smoothed derivative length {trace.size} != series length {len(series)}"
        )
    indices = candidates.indices
    if np.any(np.diff(indices) <= 0):
        raise MisalignedInput("candidates must be in strictly increasing index order")
    if indices.size and indices[-1] >= len(series):
        raise MisalignedInput("candidate index exceeds series length")

    if not indices.size:
        return np.empty(0, dtype=np.int64)
    run_starts, run_stops = _unsettled_runs(trace, config.derivative_epsilon)
    starts = np.concatenate((run_starts, indices))
    stops = np.concatenate((run_stops, indices + 1))
    order = np.argsort(starts, kind="stable")
    starts, reach = starts[order], np.maximum.accumulate(stops[order])
    gap = np.flatnonzero(starts[1:] > reach[:-1])
    settled_starts, settled_lengths = reach[gap], starts[gap + 1] - reach[gap]
    # The settled run from s lies between candidate g and g + 1, g + 1 being
    # the number of candidates before s; runs outside [first, last] drop out.
    gaps = np.searchsorted(indices, settled_starts) - 1
    between = (gaps >= 0) & (gaps < indices.size - 1)
    longest = np.zeros(indices.size - 1, dtype=np.int64)
    np.maximum.at(longest, gaps[between], settled_lengths[between])
    separate = longest / series.sampling_rate_hz > config.settle_threshold_s
    return np.concatenate(([0], np.flatnonzero(separate) + 1)).astype(np.int64, copy=False)
