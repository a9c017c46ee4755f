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

The merge reads the smoothed derivative ``s`` only between consecutive
candidates, and the refilter's guard only near a candidate, so
:class:`_SmoothedDerivative` computes ``s`` only on the sample ranges
read, by the smoother of :func:`loess_smooth` on gathered pieces of the
trace, fitting an end only where a piece reads the trace's end, each
sample bit for bit the whole-trace one by the argument of
:mod:`nilmevents.core`.  ``s`` on ``[lo, hi)`` reads the trace on
``[lo - half - 1, hi + half)``, ``half`` being the LOESS half window, and
at least one window from a trace end that this reaches.
"""

from __future__ import annotations

import functools

import numpy as np

from .core import (
    DetectionError,
    Events,
    HybridConfig,
    MisalignedInput,
    SampleSeries,
    SeriesTooShort,
    _Layout,
    _Ranges,
    _blocks,
    _piece_groups,
    _union,
)

__all__ = [
    "InvalidWindow",
    "first_derivative",
    "loess_smooth",
    "detect_extrema",
    "merge_transient_events",
]


# The merge first reads this many settle lengths of a gap, and where that
# stretch holds no settled run long enough, stretches twice as long each time.
_SETTLE_SPANS = 2


class InvalidWindow(DetectionError):
    """A smoothing window was even, too small, or longer than the series."""


def _checked_window(window_samples: int, size: int) -> int:
    """The window as an int, if it is odd, at least 3 and at most ``size``."""
    win = int(window_samples)
    if win < 3 or win % 2 == 0:
        raise InvalidWindow(f"window_samples must be an odd integer >= 3, got {window_samples}")
    if win > size:
        raise InvalidWindow(f"window {win} exceeds series length {size}")
    return win


def _smooth(
    x: np.ndarray, kernel: np.ndarray, head: np.ndarray | None, tail: np.ndarray | None
) -> np.ndarray:
    """``x`` smoothed by the odd ``kernel`` where it fits, and by weight rows at the ends.

    Output ``half + j`` is ``np.convolve(x, kernel, "valid")[j]``, run
    block by block, each block reading ``half`` samples more on either
    side, bit for bit as the whole array is (:mod:`nilmevents.core`).  The
    first ``half`` outputs are the rows of ``head`` times the first
    ``head.shape[1]`` samples, and the last ``half`` those of ``tail``
    times the last ``tail.shape[1]``: each a fresh product array summed
    along its rows, so that its bits depend only on those samples, not on
    where they sit in memory, which a BLAS matrix product does not promise.
    An end given no rows (``None``) is not fitted, and its outputs are NaN.
    """
    half = kernel.size // 2
    out = np.empty_like(x)
    for start, stop in _blocks(x.size - 2 * half):
        out[half + start : half + stop] = np.convolve(
            x[start : stop + 2 * half], kernel, mode="valid"
        )
    out[:half] = np.nan if head is None else (head * x[: head.shape[1]]).sum(axis=1)
    out[x.size - half :] = (
        np.nan if tail is None else (tail * x[x.size - tail.shape[1] :]).sum(axis=1)
    )
    return out


def first_derivative(values: np.ndarray) -> np.ndarray:
    """Backward-difference first derivative ``x[j] - x[j-1]``, in watts per sample.

    The first entry is zero padding so that ``out[i]`` refers to the same
    sample instant as ``values[i]``.
    """
    x = np.asarray(values, dtype=float)
    if x.size < 2:
        raise SeriesTooShort(f"first derivative needs >= 2 samples, got {x.size}")
    out = np.empty_like(x)
    out[0] = 0.0
    np.subtract(x[1:], x[:-1], out=out[1:])
    return out


def _tricube_weights(offsets: np.ndarray, half_width: int) -> np.ndarray:
    u = np.abs(offsets) / half_width
    return (1.0 - u**3) ** 3


def _read_only(array: np.ndarray) -> np.ndarray:
    """``array``, made read-only: a cached array is shared by every caller."""
    array.flags.writeable = False
    return array


@functools.lru_cache(maxsize=None)
def _loess_kernel(half: int) -> np.ndarray:
    """The normalised tricube weights of a ``2 * half + 1`` window, end taps 0; cached."""
    kernel = _tricube_weights(np.arange(-half, half + 1), half)
    return _read_only(kernel / kernel.sum())


@functools.lru_cache(maxsize=None)
def _edge_rows(half: int) -> np.ndarray:
    """The ``half x 2 * half`` weights of the first ``half`` outputs on the first inputs.

    Output ``i`` is the tricube-weighted linear fit over inputs
    ``[0, i + half]``, read at input ``i``: with offsets ``t_j = j - i``
    and moments ``S_k = sum_j w_j * t_j**k``, it is ``sum_j r_ij * y_j``
    with ``r_ij = w_j * (S_2 - S_1 * t_j) / (S_0 * S_2 - S_1**2)``.  The
    last outputs use the rows mirrored, ``rows[::-1, ::-1]``.  In a
    3-sample window the normal equations are singular: each truncated fit
    weights only its own sample, and its row picks that sample.  Cached
    and read-only, like :func:`_loess_kernel`.
    """
    t = np.arange(2 * half) - np.arange(half)[:, None]
    # No input lies before i - half, and those past i + half get weight 0.
    w = _tricube_weights(np.minimum(t, half), half)
    if half == 1:
        return _read_only(w)
    s0, s1, s2 = ((w * t**k).sum(axis=1, keepdims=True) for k in range(3))
    return _read_only(w * (s2 - s1 * t) / (s0 * s2 - s1 * s1))


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
    too (:func:`_edge_rows`).  Both are applied by :func:`_smooth`, whose
    result is identical for any block size, and whose first and last
    ``window_samples // 2`` outputs depend only on the first and last
    ``window_samples - 1`` samples.

    Parameters
    ----------
    values:
        Input samples.
    window_samples:
        Odd window length, at least 3 and at most ``len(values)``.
    """
    x = np.asarray(values, dtype=float)
    half = _checked_window(window_samples, x.size) // 2
    rows = _edge_rows(half)
    return _smooth(x, _loess_kernel(half), rows, rows[::-1, ::-1])


class _SmoothedDerivative:
    """``loess_smooth(first_derivative(values), window_samples)``, computed only where read."""

    def __init__(self, values: np.ndarray, window_samples: int) -> None:
        self.values = np.asarray(values, dtype=float)
        self.window = _checked_window(window_samples, self.values.size)
        self.size = self.values.size

    def read(self, starts: np.ndarray, stops: np.ndarray) -> _Ranges:
        """The samples of the union of the ranges ``[starts, stops)`` inside the trace.

        The ranges are laid out in the piece groups of
        :func:`~nilmevents.core._piece_groups`, each piece reading ``x``
        from ``half + 1`` before to ``half`` after its samples, and at least
        one window from a trace end that this reaches.  Each group keeps
        the outputs its pieces own of the smoother of :func:`loess_smooth`
        over the :func:`first_derivative` of its reads.  Each is bit for
        bit the whole-trace one by the argument of :mod:`nilmevents.core`:
        an interior output reads its own piece, and a piece that reads from
        sample 0 comes first in its group, so that its derivative starts
        with the zero pad and its edge fits read the trace's first window;
        a piece that reads to the end comes last, for the last window.  A
        group fits only the ends where it reads a trace end: its other ends
        lie in a piece's halo, which no piece owns, and are left NaN.
        """
        x, half = self.values, self.window // 2
        kernel, rows = _loess_kernel(half), _edge_rows(half)
        starts, stops = _union(np.maximum(starts, 0), np.minimum(stops, x.size))
        ranges = _Ranges(x.size, starts, stops, np.empty(int((stops - starts).sum())))
        done = 0
        for layout in _piece_groups(starts, stops, half + 1, half, x.size, self.window):
            head = rows if layout.lo[0] == 0 else None
            tail = rows[::-1, ::-1] if layout.hi[-1] == x.size else None
            kept = _smooth(first_derivative(layout.take(x)), kernel, head, tail)[layout.owned()]
            ranges.values[done : done + kept.size] = kept
            done += kept.size
        return ranges


def detect_extrema(
    values: np.ndarray | _Ranges, min_abs_value: float | None = None
) -> np.ndarray:
    """Indices of the strict interior peaks and valleys of a sequence.

    A peak at ``i`` requires ``values[i] > values[i-1]`` and
    ``values[i] > values[i+1]``; valleys are symmetric.  End points are
    never extrema.  With ``min_abs_value`` set, extrema whose absolute
    value does not exceed it are dropped, which separates significant
    transient lobes from noise-level wiggle.  The comparisons run on
    contiguous slices, ``values[1:-1]`` against ``values[:-2]`` and
    ``values[2:]``, and the threshold masks their result, so no index
    array is gathered.

    ``values`` is an array or :class:`_Ranges`.  Of ranges, it returns the
    extrema of the trace that lie inside a range with both neighbours:
    the first and the last sample of each range are never extrema.

    Returns an increasing int64 array; a peak is told from a valley by
    comparing ``values[i]`` with ``values[i-1]``.

    Raises
    ------
    SeriesTooShort
        If fewer than 3 values are given (no interior point exists).
    """
    trace = _Ranges.of(values)
    if trace.size < 3:
        raise SeriesTooShort(f"extremum detection needs >= 3 values, got {trace.size}")
    v = trace.values
    # The two ends have no neighbour and are never extrema.
    middle, before, after = v[1:-1], v[:-2], v[2:]
    strict = (middle > before) & (middle > after)
    strict |= (middle < before) & (middle < after)
    if min_abs_value is not None:
        # |v| > m as two comparisons, with no float temporary.
        strict &= (middle > min_abs_value) | (middle < -min_abs_value)
    # Where two ranges meet in ``values``, neither edge sample has its trace neighbour.
    meet = np.cumsum(trace.stops - trace.starts)[:-1]
    edges = np.concatenate((meet - 1, meet))
    strict[edges[(edges >= 1) & (edges <= v.size - 2)] - 1] = False
    return trace.indices(np.flatnonzero(strict) + 1).astype(np.int64, copy=False)


def _longest_settled(trace: _Ranges, epsilon: float) -> np.ndarray:
    """Per range of ``trace``, the longest run of ``|s| < epsilon`` inside it.

    The runs are those of the values read, cut at the edges of every
    range, so each lies in one range.  No full-length mask is built and
    no range is looped over.
    """
    v = trace.values
    settled = (v < epsilon) & (v > -epsilon)  # no float temporary for |s|
    lengths = trace.stops - trace.starts
    offsets = np.cumsum(lengths) - lengths  # where each range starts in ``values``
    cut = np.zeros(v.size, dtype=bool)
    cut[offsets] = True
    opens, closes = settled.copy(), settled.copy()
    opens[1:] &= cut[1:] | ~settled[:-1]
    closes[:-1] &= cut[1:] | ~settled[1:]
    begins = np.flatnonzero(opens)
    longest = np.zeros(lengths.size, dtype=np.int64)
    held = np.searchsorted(offsets, begins, side="right") - 1  # the range of each run
    np.maximum.at(longest, held, np.flatnonzero(closes) + 1 - begins)
    return longest


def _read(
    smoothed: np.ndarray | _SmoothedDerivative, starts: np.ndarray, stops: np.ndarray
) -> _Ranges:
    """The samples of ``smoothed`` on the increasing, non-touching ranges ``[starts, stops)``."""
    if isinstance(smoothed, _SmoothedDerivative):
        return smoothed.read(starts, stops)
    values = _Layout(starts, stops, starts, stops).take(smoothed)
    return _Ranges(smoothed.size, starts, stops, values)


def merge_transient_events(
    candidates: Events,
    smoothed_derivative: np.ndarray | _SmoothedDerivative,
    series: SampleSeries,
    config: HybridConfig,
) -> np.ndarray:
    """Collapse events that sit on one continuing transient.

    Two consecutive candidates are separate transitions only if the
    appliance settled between them: there must be a contiguous run of
    samples strictly between their indices where the absolute smoothed
    derivative stays below ``derivative_epsilon`` and that is longer than
    ``m`` samples, ``m`` being ``settle_threshold_s`` in whole samples
    (:meth:`~nilmevents.core.HybridConfig.settle_samples`).  Without such
    a run the later event is merged into the earlier event's group, and
    each group is reported as its first event.

    ``smoothed_derivative`` is the whole-trace array or a
    :class:`_SmoothedDerivative`, which computes only the samples read.
    The merge reads ``s`` only strictly between consecutive candidates
    ``a < b`` whose ``b - a - 1`` samples could hold a run long enough; a
    shorter gap merges unread.  It reads ``[a + 1, a + 1 + K)``, ``K``
    being ``_SETTLE_SPANS`` settle lengths, and where a stretch ends before
    ``b`` with no run long enough, the next one: twice as long, starting
    ``m`` samples before the last one ended, and cut at ``b``.  A run
    found is a settled run of the gap (samples not read count as
    unsettled), so a run long enough separates.
    Any ``m + 1`` settled samples are long enough, so a run that crosses a
    stretch's end unfound has at most ``m`` samples before it: it starts
    inside the next stretch, which holds it whole or at least ``m + 1`` of
    it.  So a gap read to its end with no run long enough has none, and
    the decisions are those of the whole trace.
    Each stretch ``[start, stop)`` read has ``a < start < stop <= b``, so
    each range of a read is one pending gap, in gap order, and holds no
    candidate.

    Returns the increasing int64 positions, into ``candidates``, of the
    events that survive; ``candidates[positions]`` are the merged events.
    """
    if not isinstance(smoothed_derivative, _SmoothedDerivative):
        smoothed_derivative = np.asarray(smoothed_derivative, dtype=float)
    if smoothed_derivative.size != len(series):
        raise MisalignedInput(
            f"smoothed derivative length {smoothed_derivative.size} != "
            f"series length {len(series)}"
        )
    indices = candidates.indices
    if np.any(np.diff(indices) <= 0):
        raise MisalignedInput("candidates must be in strictly increasing index order")
    if indices.size and indices[-1] >= len(series):
        raise MisalignedInput("candidate index exceeds series length")

    if not indices.size:
        return np.empty(0, dtype=np.int64)
    settle, epsilon = config.settle_samples(series.sampling_rate_hz), config.derivative_epsilon
    before, after = indices[:-1], indices[1:]
    # Only a gap whose every sample settled could pass; shorter gaps merge unread.
    pending = np.flatnonzero(after - before - 1 > settle)
    separate = np.zeros(indices.size - 1, dtype=bool)
    starts, span = before[pending] + 1, _SETTLE_SPANS * settle
    while pending.size:
        stops = np.minimum(after[pending], starts + span)
        longest = _longest_settled(_read(smoothed_derivative, starts, stops), epsilon)
        separate[pending] = longest > settle
        # A stretch short of its gap and with no run long enough is followed
        # by one twice as long that starts a settle length before it ends.
        grow = (stops < after[pending]) & ~separate[pending]
        pending, starts, span = pending[grow], stops[grow] - settle, 2 * span
    return np.concatenate(([0], np.flatnonzero(separate) + 1)).astype(np.int64, copy=False)
