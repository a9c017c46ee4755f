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

On a steady stretch the smoothed derivative cannot reach epsilon.  Its
magnitude is at most the largest kernel weight times the local range of
the trace, read from the series' summary, and at most the norm of the
kernel's differences times the root of the local centred sum of squares
(Cauchy–Schwarz), combined from the moments of 64-sample blocks; the
second holds on meter noise, where the first fails.
``_moving_smoothed_derivative`` computes the derivative only on the
blocks where neither bound stays below epsilon less a proven rounding
margin, and returns just those samples as a ``_Support``: a few sample
ranges and their values, with a proven 0 everywhere else.  Each range
starts and ends on a proven-settled sample, so :func:`detect_extrema`
and :func:`merge_transient_events` run their dense code on the support's
values, which is the one-range case, and return the same as on the
whole-trace derivative.
"""

from __future__ import annotations

import functools
import math
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
    _SUMMARY_SAMPLES,
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


# The unit roundoff of float64.
_UNIT = 2.0**-53

# Below this epsilon no block is settled: the rounding margin covers underflow
# only from here on (see "Rounding" in _moving_smoothed_derivative).
_SMALLEST_EPSILON = 2.0**-400


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
    """Per proof block, the range bound on ``|s[i]|`` at its interior indices and one either side.

    ``max(kernel)`` times the summary's range over the block widened by
    ``half + 1`` samples before and ``half`` after, which holds the taps
    that weigh (``x[i - half .. i + half - 1]``) at each of those indices.
    """
    half = kernel.size // 2
    low, high = summary.block_ranges(half + 1, half)
    return kernel.max() * (high - low)


def _window_blocks(half: int) -> int:
    """The most summary blocks that the ``2 * half`` taps of one index meet."""
    return 1 + (2 * half + _SUMMARY_SAMPLES - 2) // _SUMMARY_SAMPLES


def _difference_norm(kernel: np.ndarray) -> float:
    """``||diff(kernel)||_2``, as computed; "Rounding" in :func:`_moving_smoothed_derivative`
    bounds its error."""
    return math.sqrt(float(np.sum(np.diff(kernel) ** 2)))


def _window_sets(
    blocks: np.ndarray, half: int, count: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(first, last, read)``: where the window sets of each proof block start, and what they read.

    A window set is the :func:`_window_blocks` summary blocks from the one
    that holds an index's first tap ``x[i - half]`` (fewer at the trace's
    end), so it holds all of that index's taps.  Those of proof block
    ``blocks[j]`` start at summary blocks ``[first[j], last[j]]``; ``read``
    is the increasing union of the summary blocks they meet.  ``blocks``
    is increasing and non-empty, and every index it stands for is interior.
    """
    width, proof = _window_blocks(half), core._PROOF_BLOCK_SAMPLES
    first = np.maximum(blocks * proof - 1 - half, 0) // _SUMMARY_SAMPLES
    last = (blocks * proof + proof - half) // _SUMMARY_SAMPLES
    last = np.minimum(np.maximum(last, first), count - 1)
    reach = np.minimum(last + width, count)
    # Proof block j + 1 opens a new run of blocks read where it starts past j's reach.
    new = (first[1:] > reach[:-1]).nonzero()[0]
    opens = np.concatenate((first[:1], first[new + 1]))
    lengths = np.concatenate((reach[new], reach[-1:])) - opens
    read = np.arange(lengths.sum()) + np.repeat(opens - np.cumsum(lengths) + lengths, lengths)
    return first, last, read


def _largest_per_block(
    per_start: np.ndarray, first: np.ndarray, last: np.ndarray, read: np.ndarray
) -> np.ndarray:
    """Per proof block, the largest of ``per_start`` (one entry per block ``read``) over its
    window sets' starts ``[first, last]``, as in :meth:`_Summary.block_ranges`."""
    cuts = np.empty(2 * first.size, dtype=np.int64)
    cuts[0::2], cuts[1::2] = first, last + 1
    padded = np.concatenate((per_start, [-np.inf]))
    return np.maximum.reduceat(padded, np.searchsorted(read, cuts))[::2]


def _spreads(
    centres: np.ndarray, sums: np.ndarray, squares: np.ndarray, counts: np.ndarray, width: int
) -> np.ndarray:
    """Per entry ``j``, the centred sum of squares of blocks ``j .. j + width - 1``.

    Block ``b`` holds ``counts[b]`` samples whose deviations from
    ``centres[b]`` sum to ``sums[b]`` and their squares to ``squares[b]``.
    The sums are taken about block ``j``'s centre, then about the mean.
    Past the last entry a set has fewer blocks.
    """
    total, linear, samples = squares.copy(), sums.copy(), counts.copy()
    with np.errstate(invalid="ignore", over="ignore"):
        for k in range(1, width):
            shift = centres[k:] - centres[:-k]
            total[:-k] += squares[k:] + shift * (2 * sums[k:] + counts[k:] * shift)
            linear[:-k] += sums[k:] + counts[k:] * shift
            samples[:-k] += counts[k:]
        return total - linear * linear / samples


def _moment_floors(summary: _Summary, kernel: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """Per proof block in ``blocks``, at most its :func:`_moment_bounds`, read from the summary.

    Every summary block holds its min and its max, so a window set's
    centred sum of squares is at least that of those extremes alone,
    which :func:`_spreads` takes from their midrange, a zero sum and
    ``range**2 / 2``.
    """
    half, count = kernel.size // 2, summary.low.size
    first, last, read = _window_sets(blocks, half, count)
    low, high = summary.low[read], summary.high[read]
    with np.errstate(over="ignore", invalid="ignore"):
        extremes = _spreads(
            (low + high) / 2,
            np.zeros(read.size),
            (high - low) ** 2 / 2,
            np.full(read.size, 2.0),
            _window_blocks(half),
        )
        return _difference_norm(kernel) * np.sqrt(_largest_per_block(extremes, first, last, read))


def _block_moments(
    x: np.ndarray, summary: _Summary, blocks: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(c, S, Q)`` of the summary blocks ``blocks``: ``c_b`` and ``sum (x - c_b)**k``, k = 1, 2.

    ``c_b`` is the block's midrange, read from the summary.  The blocks
    are read ``_BLOCK_SAMPLES`` samples at a time.
    """
    centres = (summary.low[blocks] + summary.high[blocks]) / 2
    sums, squares = np.empty(blocks.size), np.empty(blocks.size)
    rows = x[: x.size - x.size % _SUMMARY_SAMPLES].reshape(-1, _SUMMARY_SAMPLES)
    full = blocks.size - int(blocks[-1] == rows.shape[0])
    step = max(1, core._BLOCK_SAMPLES // _SUMMARY_SAMPLES)
    for start in range(0, full, step):
        part = slice(start, min(start + step, full))
        deviations = rows[blocks[part]]
        deviations -= centres[part, None]
        np.einsum("ij->i", deviations, out=sums[part])
        np.einsum("ij,ij->i", deviations, deviations, out=squares[part])
    if full < blocks.size:  # the trace's last block, shorter than the rest
        rest = x[rows.size :] - centres[-1]
        sums[-1], squares[-1] = rest.sum(), np.einsum("i,i->", rest, rest)
    return centres, sums, squares


def _moment_bounds(
    x: np.ndarray, summary: _Summary, kernel: np.ndarray, blocks: np.ndarray
) -> np.ndarray:
    """Per proof block in ``blocks``, the Cauchy–Schwarz bound on ``|s[i]|`` at its
    interior indices and one either side.

    ``||diff(kernel)||_2`` times the root of the largest centred sum of
    squares ``sum (x - mean)**2`` over one of its window sets
    (:func:`_window_sets`).  Each sum combines the moments of its
    summary blocks (:func:`_block_moments`), which are computed only over
    the blocks ``read``.
    """
    if not blocks.size:
        return np.empty(0)
    half, count = kernel.size // 2, summary.low.size
    first, last, read = _window_sets(blocks, half, count)
    centres, sums, squares = _block_moments(x, summary, read)
    counts = np.full(read.size, float(_SUMMARY_SAMPLES))
    if read[-1] == count - 1:
        counts[-1] = x.size - (count - 1) * _SUMMARY_SAMPLES
    spreads = _spreads(centres, sums, squares, counts, _window_blocks(half))
    with np.errstate(invalid="ignore"):
        return _difference_norm(kernel) * np.sqrt(_largest_per_block(spreads, first, last, read))


def _settle_limit(kernel: np.ndarray, epsilon: float) -> float:
    """``epsilon - rho * epsilon``: a block is settled when a bound of it is below this."""
    if not epsilon >= _SMALLEST_EPSILON:
        return 0.0
    return epsilon - _rounding_share(kernel.size // 2) * epsilon


@functools.lru_cache(maxsize=None)
def _rounding_share(half: int) -> float:
    """``rho = 4 * S``: ``S`` bounds the rounding of the computed derivative and of both
    bounds, relative to the bound (see "Rounding" in :func:`_moving_smoothed_derivative`).

    It depends on the window alone, so it is computed once per window.
    """
    def gamma(m: int) -> float:
        return m * _UNIT / (1 - m * _UNIT) if m * _UNIT < 1 else math.inf

    kernel = _loess_kernel(half)
    size, width = kernel.size, _window_blocks(half)
    derivative = gamma(size + 1) * (
        (1 + gamma(size + 1)) / float(kernel.max())
        + 2 * math.sqrt(float(np.sum(kernel**2))) / _difference_norm(kernel)
    )
    spread = (1 + 2 * width * _SUMMARY_SAMPLES) * gamma(16000 + 256 * width)
    return 4 * (derivative + gamma(size + 3) + spread)


def _moving_smoothed_derivative(
    values: np.ndarray, window_samples: int, epsilon: float, *, summary: _Summary
) -> _Support:
    """The smoothed first derivative where it is not proven small, as a support.

    That is ``loess_smooth(first_derivative(values), window_samples)``;
    ``summary`` is that of ``values``.

    Every sample of the returned :class:`_Support` equals the
    whole-trace smoothed derivative ``s`` bit for bit; every sample
    outside its ranges is 0 where the computed ``|s| < epsilon``.  Only
    the samples near a transient are computed, which on a mostly steady
    household trace is a few percent of them, and no full-length array is
    built.

    **The bounds.**  At an interior index ``i`` (``half <= i < n - half``),
    ``s[i] = sum_j k[j] * d[i + j]`` over ``j`` in ``[-half, half]``, with
    ``d`` the first derivative and ``k`` the normalised tricube kernel,
    whose end taps are exactly 0 (so the zero pad ``d[0]`` is never
    weighted).  Summing by parts with ``d[m] = x[m] - x[m - 1]`` and ``k``
    extended by zeros,
    ``s[i] = sum_m (k[m - i] - k[m - i + 1]) * (x[m] - c)`` over ``m`` in
    ``[i - half, i + half - 1]``, the taps that weigh, for any constant
    ``c``, since the coefficients ``dk`` telescope to 0.  Two bounds
    follow.  With ``c`` the midpoint of the taps, ``|s[i]| <= TV(k) *
    range / 2``, where ``TV(k) = sum |dk| = 2 * max(k)``: the kernel rises
    to its centre and falls back to 0.  So ``|s[i]| <= max(k) * range``,
    the range bound.  With ``c`` their mean, Cauchy–Schwarz gives
    ``|s[i]| <= ||dk||_2 * sqrt(sum (x[m] - c)**2)``, the moment bound.
    At 20 Hz with the default 2 s window ``max(k) = 0.0432`` and
    ``||dk||_2 = 0.0167``.

    **Settled blocks.**  The trace is cut into proof blocks.  A block's
    range bound (:func:`_block_bounds`) reads ``x`` over at least the
    block widened by ``half + 1`` samples before and ``half`` after, which
    holds the taps of every interior index in the block and of the
    interior index just past either end of it.  Its moment bound
    (:func:`_moment_bounds`) covers the same indices: each index's taps
    lie in one window set, the :func:`_window_blocks` 64-sample summary
    blocks from the one that holds its first tap, and the bound reads the
    largest centred sum of squares over the window sets of those indices.
    Each sum combines per-block moments ``sum (x - c_b)`` and
    ``sum (x - c_b)**2`` about the block's midrange ``c_b``, taken about
    the first block's centre and then about the set's mean.  The moments
    are summed only for the blocks that the range bound leaves and whose
    floor (:func:`_moment_floors`: the same sums over the summary blocks'
    minima and maxima alone, which are samples among them) is below the
    limit, one ``_BLOCK_SAMPLES`` stretch at a time.  A block is settled
    when either bound is below ``epsilon - delta`` (:func:`_settle_limit`);
    a non-finite bound never is.

    **Rounding.**  ``delta = 4 * S * epsilon``, where ``S`` sums the
    relative rounding terms below (``u = 2**-53``, ``g_m = m u / (1 - m
    u)``, ``N = 2 * half + 1``, ``w`` summary blocks per window set).  The
    computed ``s`` differs from the exact one by at most ``g_(N+1) * sum
    |k[j] d[j]|``, which is at most ``(1 + g_(N+1)) * range`` and at most
    ``2 * ||k||_2`` times the root sum of squares.  So ``|s|`` exceeds the
    range bound by at most the share ``g_(N+1) (1 + g_(N+1)) / max(k)``
    and the moment bound by ``2 g_(N+1) ||k||_2 / ||dk||_2``.  The
    computed ``||dk||_2``, products and roots add ``g_(N+3)``.  Each
    computed moment errs by ``g_66`` of its exact value, the ``S_b`` by
    ``g_64 sqrt(n_b Q_b)``, and a block's terms, ``Q_b + n_b e_b**2``
    with ``e_b = c_b - c``, sum to at most ``97`` times its sum of
    squares about ``c``, since ``c_b`` lies within the block's range and
    ``n_b <= 64``.  So the combined sum errs by ``g_(16000 + 256 w)`` of
    the sum about ``c``, which is at most ``1 + 128 w`` times the centred
    one, as ``c`` lies within the set's range: the share ``(1 + 128 w)
    g_(16000 + 256 w)``.  A computed bound ``B < epsilon - delta`` then
    gives ``|s| <= B (1 + 2 S) < epsilon`` at every index it covers.  At
    20 Hz with the default window ``delta = 1.9e-9 * epsilon``; for a
    window of ``10**6`` samples it is ``0.016 * epsilon``, and where ``S``
    passes 1/2 no block is settled.  Underflow, which these relative terms
    do not cover, moves a bound or ``s`` by less than ``2**-500``, within
    the spare half of ``delta`` for ``epsilon >= 2**-400``; below that no
    block is settled.

    **Reach.**  Neither bound settles a block that holds a switch.  With
    the default ``epsilon = 0.5`` at 20 Hz and the default window, the
    range bound needs a widened range under 11.6 W, and the moment bound
    a root sum of squares under 29.9 W over the 128 samples of a window
    set.  On 2 W of noise a block's widened range is about 13 W, while a
    window set's root sum of squares is about 23 W.  On the seed-1300
    ``csv_ingest`` benchmark trace (20 Hz, 2 W noise) the range bound
    settles 10 of the 420 interior proof blocks and the moment bound 397
    more, so 15,232 of 432,000 samples are computed.

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
    convolution, per-proof-block bounds, and three moments per summary
    block read.

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
    limit = _settle_limit(kernel, epsilon)
    active = ~(_block_bounds(summary, kernel) < limit)
    block = core._PROOF_BLOCK_SAMPLES
    head, tail = half // block + 1, (x.size - half - 1) // block
    unproven = np.flatnonzero(active[head:tail]) + head
    if unproven.size:
        # The moments are summed only where the summary leaves them a chance.
        hopeful = unproven[_moment_floors(summary, kernel, unproven) < limit]
        active[hopeful] = ~(_moment_bounds(x, summary, kernel, hopeful) < limit)
    active[:head] = active[tail:] = True
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
    transient lobes from noise-level wiggle.  The comparisons run on
    contiguous slices, ``values[1:-1]`` against ``values[:-2]`` and
    ``values[2:]``, and the threshold masks their result, so no index
    array is gathered.

    ``values`` is an array or a :class:`_Support`, whose samples outside
    its ranges are 0.  A support gives the extrema of its trace for any
    ``min_abs_value`` at or above its ``epsilon``: every sample that
    passes has its trace neighbours beside it in ``values``, and a sample
    compared across two ranges, which begin and end below ``epsilon``,
    never passes.

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
    # The two ends have no neighbour and are never extrema.
    middle, before, after = v[1:-1], v[:-2], v[2:]
    strict = (middle > before) & (middle > after)
    strict |= (middle < before) & (middle < after)
    if min_abs_value is not None:
        # |v| > m as two comparisons, with no float temporary.
        strict &= (middle > min_abs_value) | (middle < -min_abs_value)
    return trace.indices(np.flatnonzero(strict) + 1).astype(np.int64, copy=False)


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
