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
read, each sample bit for bit the whole-trace one.  ``s`` on ``[lo, hi)``
reads the trace on ``[lo - half - 1, hi + half)``, ``half`` being the
LOESS half window (and the first or last ``2 * half`` samples for the
edge fits).
"""

from __future__ import annotations

import functools
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
    _blocks,
    seconds_to_samples,
)

__all__ = [
    "InvalidWindow",
    "first_derivative",
    "loess_smooth",
    "detect_extrema",
    "merge_transient_events",
]


# The merge first reads this many settle lengths of a gap, and where that
# stretch holds no settled run long enough, the whole gap.
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


def _aranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The integers of the ranges ``[starts, starts + lengths)``, laid end to end in order.

    ``x[_aranges(starts, lengths)]`` gathers the samples of several ranges
    of ``x`` into one array with no Python loop per range.
    """
    offsets = np.cumsum(lengths) - lengths  # where each range begins in the result
    out = np.repeat(starts - offsets, lengths)
    out += np.arange(out.size)
    return out


def _union(starts: np.ndarray, stops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The union of the ranges ``[starts, stops)``: increasing, disjoint, never touching."""
    keep = starts < stops
    order = np.argsort(starts[keep], kind="stable")
    starts, reach = starts[keep][order], np.maximum.accumulate(stops[keep][order])
    opens = np.flatnonzero(starts[1:] > reach[:-1]) + 1
    return (
        np.concatenate((starts[:1], starts[opens])),
        np.concatenate((reach[opens - 1], reach[-1:])),
    )


@dataclass(frozen=True, eq=False)
class _Ranges:
    """The samples of a trace of ``size`` samples on a few sample ranges.

    Range ``k`` is ``[starts[k], stops[k])``; the ranges are non-empty,
    increasing, disjoint and never touch, and ``values`` holds their
    samples, concatenated in range order.  Nothing is known of the
    samples outside them.  A dense array is the one-range case.
    """

    size: int
    starts: np.ndarray
    stops: np.ndarray
    values: np.ndarray

    @classmethod
    def of(cls, trace: np.ndarray | _Ranges) -> _Ranges:
        """``trace`` itself if it is ranges, else the dense array as one range."""
        if isinstance(trace, _Ranges):
            return trace
        x = np.asarray(trace, dtype=float)
        return cls(x.size, np.array([0]), np.array([x.size]), x)

    def indices(self, positions: np.ndarray) -> np.ndarray:
        """The sample indices of the non-decreasing ``positions`` into ``values``."""
        lengths = self.stops - self.starts
        offsets = np.cumsum(lengths) - lengths  # where each range starts in ``values``
        per_range = np.diff(np.searchsorted(positions, offsets), append=positions.size)
        return positions + np.repeat(self.starts - offsets, per_range)


class _SmoothedDerivative:
    """``loess_smooth(first_derivative(values), window_samples)``, computed only where read."""

    def __init__(self, values: np.ndarray, window_samples: int) -> None:
        self.values = np.asarray(values, dtype=float)
        self.half = _checked_window(window_samples, self.values.size) // 2
        self.size = self.values.size

    def read(self, starts: np.ndarray, stops: np.ndarray) -> _Ranges:
        """The samples of the union of the ranges ``[starts, stops)`` inside the trace.

        The first and the last ``half`` samples are the edge fits of
        :func:`loess_smooth`.  The rest are cut into pieces of at most
        ``_BLOCK_SAMPLES``, and each group of pieces that reads about a
        block is one :func:`numpy.convolve` over their first differences
        laid end to end, each piece widened by ``half`` on either side.
        An output that reaches across two pieces is dropped; each one kept
        is the dot product :func:`loess_smooth` takes, of the same inputs.
        A piece reads ``x`` from one sample before its first difference,
        so the zero pad ``d[0] = 0`` comes as ``x[0] - x[0]``.  No Python
        loop runs per range, and no full-length array is built.
        """
        x, half = self.values, self.half
        kernel = _loess_kernel(half)
        starts, stops = _union(np.maximum(starts, 0), np.minimum(stops, x.size))
        ranges = _Ranges(x.size, starts, stops, np.empty(int((stops - starts).sum())))
        out, inner = ranges.values, x.size - half
        # The ranges are sorted, so the edge fits' samples come first and last in ``out``.
        first = int((np.minimum(stops, half) - starts).clip(0).sum())
        last = out.size - int((stops - np.maximum(starts, inner)).clip(0).sum())
        if first or last < out.size:
            head, tail = _edge_fits(
                first_derivative(x[: 2 * half]), np.diff(x[x.size - 2 * half - 1 :])
            )
            out[:first] = head[ranges.indices(np.arange(first))]
            out[last:] = tail[ranges.indices(np.arange(last, out.size)) - inner]
        # The interior of each range, in pieces of at most a block, read a group at a time.
        lo, hi = np.clip(starts, half, inner), np.clip(stops, half, inner)
        block = core._BLOCK_SAMPLES
        count = -(-(hi - lo) // block)  # pieces per range
        skip = np.repeat(np.cumsum(count) - count, count)
        begins = np.repeat(lo, count) + block * (np.arange(skip.size) - skip)
        lengths = np.minimum(begins + block, np.repeat(hi, count)) - begins
        widths = lengths + 2 * half + 1  # samples a piece reads
        opens = np.flatnonzero(np.diff((np.cumsum(widths) - widths) // block, prepend=-1))
        done = first
        for a, b in zip(opens.tolist(), [*opens[1:].tolist(), begins.size]):
            at = np.cumsum(widths[a:b]) - widths[a:b]  # where each piece begins in ``window``
            reads = _aranges(begins[a:b] - half - 1, widths[a:b])
            window = x[np.maximum(reads, 0, out=reads)]
            del reads
            full = np.convolve(np.diff(window), kernel, mode="valid")
            del window
            keep = _aranges(at, lengths[a:b])
            out[done : done + keep.size] = full[keep]
            done += keep.size
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
    return _Ranges(smoothed.size, starts, stops, smoothed[_aranges(starts, stops - starts)])


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
    derivative stays below ``derivative_epsilon`` and whose duration
    exceeds ``settle_threshold_s``.  Without such a run the later event
    is merged into the earlier event's group, and each group is reported
    as its first event.

    ``smoothed_derivative`` is the whole-trace array or a
    :class:`_SmoothedDerivative`, which computes only the samples read.
    The merge reads ``s`` only strictly between consecutive candidates
    ``a < b`` whose ``b - a - 1`` samples could hold a run long enough; a
    shorter gap merges unread.  It reads ``[a + 1, a + 1 + K)``, ``K``
    being ``_SETTLE_SPANS`` settle lengths, and where that stretch ends
    before ``b`` with no run long enough, the whole gap ``[a + 1, b)``.
    A run found is a settled run of the gap (samples not read count as
    unsettled), and a gap read to its end gives its longest run, so the
    decisions are those of the whole trace.
    Each window ``[a + 1, stop)`` read has ``stop <= b`` and a sample at
    least, so each range of a read is one pending gap, in gap order, and
    holds no candidate.

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
    rate, settle = series.sampling_rate_hz, config.settle_threshold_s
    epsilon = config.derivative_epsilon
    before, after = indices[:-1], indices[1:]
    # Only a gap whose every sample settled could pass; shorter gaps merge unread.
    pending = np.flatnonzero((after - before - 1) / rate > settle)
    separate = np.zeros(indices.size - 1, dtype=bool)
    reach = np.minimum(after, before + 1 + _SETTLE_SPANS * seconds_to_samples(settle, rate))
    while pending.size:
        starts, stops = before[pending] + 1, reach[pending]
        longest = _longest_settled(_read(smoothed_derivative, starts, stops), epsilon)
        separate[pending] = longest / rate > settle
        # A stretch short of its gap and with no run long enough is read to the gap's end.
        pending = pending[(stops < after[pending]) & ~separate[pending]]
        reach = after
    return np.concatenate(([0], np.flatnonzero(separate) + 1)).astype(np.int64, copy=False)
