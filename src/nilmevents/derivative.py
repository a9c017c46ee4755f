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
the trace.  ``_moving_smoothed_derivative`` uses that bound to compute
the derivative only on the blocks where it might, with a margin of
epsilon / 2, and leaves 0 elsewhere; the merge and the significant
extrema come out the same as from the whole-trace derivative.
"""

from __future__ import annotations

import numpy as np

from .core import (
    DetectionError,
    Events,
    HybridConfig,
    MisalignedInput,
    SampleSeries,
    SeriesTooShort,
    _halo_runs,
    _map_blocks,
)

__all__ = [
    "InvalidWindow",
    "first_derivative",
    "loess_smooth",
    "detect_extrema",
    "merge_transient_events",
]


# Samples per proof block of the settled-derivative bound: one transient
# keeps only a few blocks active, and the per-block work stays small.
_PROOF_BLOCK_SAMPLES = 1024


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


def _convolve_interior(
    x: np.ndarray, kernel: np.ndarray, out: np.ndarray, offset: int = 0
) -> None:
    """Set ``out[offset + half : offset + x.size - half]`` to ``np.convolve(x, kernel, "valid")``.

    That is ``np.convolve(x, kernel, "same")`` wherever the odd kernel fits
    inside ``x``, written where ``x`` sits in ``out`` when ``x`` starts at
    ``out[offset]``.  The range is convolved block by block (each block
    reads its own samples plus ``half`` on either side) and equals the
    whole-array convolution bit for bit, for any block size and any
    ``offset``: every output sample is the same dot product of the same
    ``kernel.size`` inputs.  Nothing else of ``out`` is written.
    """
    half = kernel.size // 2

    def convolve_block(start: int, stop: int) -> None:
        out[offset + half + start : offset + half + stop] = np.convolve(
            x[start : stop + 2 * half], kernel, mode="valid"
        )

    _map_blocks(convolve_block, x.size - 2 * half)


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


def _fit_local_linear(values: np.ndarray, center: int, half_width: int) -> float:
    """Weighted degree-1 fit over a window truncated at the array ends."""
    lo = max(0, center - half_width)
    hi = min(values.size - 1, center + half_width)
    offsets = np.arange(lo, hi + 1) - center
    w = _tricube_weights(offsets, half_width)
    sw = np.sqrt(w)
    design = np.column_stack((sw, sw * offsets))
    beta, *_ = np.linalg.lstsq(design, sw * values[lo : hi + 1], rcond=None)
    return float(beta[0])


def _loess_kernel(half: int) -> np.ndarray:
    """The normalised tricube weights of a full ``2 * half + 1`` window; both end taps are 0."""
    kernel = _tricube_weights(np.arange(-half, half + 1), half)
    return kernel / kernel.sum()


def _fit_edges(out: np.ndarray, head: np.ndarray, tail: np.ndarray) -> None:
    """Set the first and last ``half`` entries of ``out`` by truncated-window fits.

    ``head`` and ``tail`` are the first and last ``2 * half`` input
    samples, all that those fits read; each fit equals the one over the
    whole input.
    """
    half = head.size // 2
    for i in range(half):
        out[i] = _fit_local_linear(head, i, half)
        out[out.size - 1 - i] = _fit_local_linear(tail, tail.size - 1 - i, half)


def loess_smooth(values: np.ndarray, window_samples: int) -> np.ndarray:
    """Locally weighted linear smoothing with tricube weights.

    Each output sample is the value at the window center of a degree-1
    least-squares fit over the surrounding ``window_samples`` points,
    weighted by ``(1 - |u|**3)**3`` where ``u`` is the offset normalized
    by the half width.  Windows are truncated at the array ends, so the
    output has the same length as the input.

    For full interior windows the symmetric weights make the fitted
    center value equal a tricube-weighted average, which is computed as a
    single convolution; only the truncated edge windows solve an explicit
    least-squares system.  The convolution runs in blocks, and the result
    is identical for any block size.

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
    _fit_edges(out, x[: 2 * half], x[x.size - 2 * half :])
    return out


def _block_bounds(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Per proof block, a bound on ``|s[i]|`` at its interior indices (see below).

    Block ``b`` covers ``[b * P, (b + 1) * P)`` with ``P`` =
    ``_PROOF_BLOCK_SAMPLES``; its bound is ``max(kernel)`` times the
    range (max - min) of ``x`` over the block widened by ``half + 1``
    samples before and ``half`` after, whatever ``half`` is.
    """
    half = kernel.size // 2
    starts = np.arange(0, x.size, _PROOF_BLOCK_SAMPLES)
    lo = np.maximum(starts - half - 1, 0)
    hi = np.minimum(starts + _PROOF_BLOCK_SAMPLES + half, x.size)
    # One reduceat per extreme over the cuts lo[0], hi[0], lo[1], hi[1], ...:
    # its even entries reduce x[lo:hi], overlapping or not, and each odd one
    # reads a single sample, since hi[b] > lo[b + 1].  A cut must be below
    # x.size, so a range that ends there stops one short and takes x[-1] after.
    cuts = np.column_stack((lo, np.minimum(hi, x.size - 1))).ravel()
    low = np.minimum.reduceat(x, cuts)[::2]
    high = np.maximum.reduceat(x, cuts)[::2]
    at_end = hi == x.size
    low[at_end] = np.minimum(low[at_end], x[-1])
    high[at_end] = np.maximum(high[at_end], x[-1])
    return kernel.max() * (high - low)


def _moving_smoothed_derivative(
    values: np.ndarray, window_samples: int, epsilon: float
) -> np.ndarray:
    """The smoothed first derivative, with 0 wherever it is proven small.

    That is ``loess_smooth(first_derivative(values), window_samples)``.

    Every returned sample either equals the whole-trace smoothed
    derivative ``s`` bit for bit, or is 0 where ``|s| < epsilon / 2 +``
    rounding ``< epsilon``.  Only the samples near a transient are
    computed, which on a mostly steady household trace is a few percent
    of them.

    **The bound.**  At an interior index ``i`` (``half <= i < n - half``),
    ``s[i] = sum_j k[j] * d[i + j]`` over ``j`` in ``[-half, half]``, with
    ``d`` the first derivative and ``k`` the normalised tricube kernel,
    whose end taps are exactly 0 (so the zero pad ``d[0]`` is never
    weighted).  Summing by parts with ``d[m] = x[m] - x[m - 1]`` and ``k``
    extended by zeros,
    ``s[i] = sum_m (k[m - i] - k[m - i + 1]) * (x[m] - c)`` over ``m`` in
    ``[i - half - 1, i + half]``, for any constant ``c``, since the
    coefficients telescope to 0.  With ``c`` the midpoint of ``x`` over
    that range ``R``, ``|s[i]| <= TV(k) * range(x over R) / 2``, where
    ``TV(k) = sum |k[m] - k[m + 1]| = 2 * max(k)``: the kernel rises to
    its centre and falls back to 0.  So ``|s[i]| <= max(k) * range``.

    **Settled blocks.**  The trace is cut into proof blocks of
    ``_PROOF_BLOCK_SAMPLES``; a block's bound (:func:`_block_bounds`)
    reads ``x`` over the block widened by ``half + 1`` samples before and
    ``half`` after, which covers ``R`` for every index in the block.  A
    block is settled only when its bound is ``< epsilon / 2``; a
    non-finite bound never is.  The computed ``s`` differs from the exact
    one by at most about ``(2 * half + 3) * 2**-53 * range``, which stays
    below the ``epsilon / 2`` margin for any window under ``10**7``
    samples, so every settled index has ``|s| < epsilon``.

    **What is computed.**  The first derivative and the interior
    convolution run only on runs of active (not settled) blocks, each
    widened by ``half`` samples (:func:`nilmevents.core._halo_runs`), with
    the same blocked convolution as :func:`loess_smooth`; ``d[0] = 0``
    where a run reaches the start.  The truncated-window edge fits run
    once, at the true ends of the trace, whatever the blocks say.  Every
    other sample is 0.

    **Why 0 changes no result.**  The merge's settled mask is
    ``|s| < epsilon``, which holds for the 0 as for the true value.  A
    significant extremum needs ``|s[i]| > epsilon``; a skipped neighbour's
    true value and its 0 both lie strictly between ``-epsilon`` and
    ``epsilon``, so every strict comparison with ``s[i]`` has the same
    outcome.  Hence :func:`detect_extrema` with ``min_abs_value=epsilon``
    and :func:`merge_transient_events` return what they return on ``s``.
    """
    x = np.asarray(values, dtype=float)
    half = _checked_window(window_samples, x.size) // 2
    kernel = _loess_kernel(half)
    active = ~(_block_bounds(x, kernel) < epsilon / 2)
    out = np.zeros(x.size)  # calloc: pages never written stay unallocated
    for lo, hi in _halo_runs(active, _PROOF_BLOCK_SAMPLES, half, x.size):
        _convolve_interior(_difference(x, lo, hi), kernel, out, lo)
    _fit_edges(out, _difference(x, 0, 2 * half), _difference(x, x.size - 2 * half, x.size))
    return out


def detect_extrema(values: np.ndarray, min_abs_value: float | None = None) -> np.ndarray:
    """Indices of the strict interior peaks and valleys of a sequence.

    A peak at ``i`` requires ``values[i] > values[i-1]`` and
    ``values[i] > values[i+1]``; valleys are symmetric.  End points are
    never extrema.  With ``min_abs_value`` set, extrema whose absolute
    value does not exceed it are dropped, which separates significant
    transient lobes from noise-level wiggle.  The threshold is applied
    first, and neighbours are compared only where a sample passes it.

    Returns an increasing int64 array; a peak is told from a valley by
    comparing ``values[i]`` with ``values[i-1]``.

    Raises
    ------
    SeriesTooShort
        If fewer than 3 values are given (no interior point exists).
    """
    x = np.asarray(values, dtype=float)
    if x.size < 3:
        raise SeriesTooShort(f"extremum detection needs >= 3 values, got {x.size}")
    if min_abs_value is None:
        candidates = np.arange(1, x.size - 1, dtype=np.int64)
    else:
        inner = x[1:-1]
        # |v| > m as two comparisons, with no full-length float temporary.
        passing = (inner > min_abs_value) | (inner < -min_abs_value)
        candidates = np.flatnonzero(passing).astype(np.int64, copy=False) + 1
    value, before, after = x[candidates], x[candidates - 1], x[candidates + 1]
    strict = ((value > before) & (value > after)) | ((value < before) & (value < after))
    return candidates[strict]


def merge_transient_events(
    candidates: Events,
    smoothed_derivative: np.ndarray,
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

    The settled mask over ``[first, last]`` is cleared at every candidate
    index, so each settled run lies strictly inside one candidate gap.
    The runs are found once and assigned to their gaps by binary search:
    O(S + C log C) for S samples in that span and C candidates, with no
    per-pair loop.

    Returns the increasing int64 positions, into ``candidates``, of the
    events that survive; ``candidates[positions]`` are the merged events.
    """
    smoothed = np.asarray(smoothed_derivative, dtype=float)
    if smoothed.size != len(series):
        raise MisalignedInput(
            f"smoothed derivative length {smoothed.size} != series length {len(series)}"
        )
    indices = candidates.indices
    if np.any(np.diff(indices) <= 0):
        raise MisalignedInput("candidates must be in strictly increasing index order")
    if indices.size and indices[-1] >= len(series):
        raise MisalignedInput("candidate index exceeds series length")

    if not indices.size:
        return np.empty(0, dtype=np.int64)
    first = indices[0]
    span = smoothed[first : indices[-1] + 1]
    # |s| < eps as two comparisons, with no float temporary for |s|.
    settled = (span < config.derivative_epsilon) & (span > -config.derivative_epsilon)
    settled[indices - first] = False
    # Both ends of the span are candidates, so every run starts and ends inside it.
    edges = np.flatnonzero(np.diff(settled.view(np.int8))) + 1
    starts, ends = edges[0::2], edges[1::2]
    gaps = np.searchsorted(indices, starts + first) - 1
    longest = np.zeros(indices.size - 1, dtype=np.int64)
    np.maximum.at(longest, gaps, ends - starts)
    separate = longest / series.sampling_rate_hz > config.settle_threshold_s
    return np.concatenate(([0], np.flatnonzero(separate) + 1)).astype(np.int64, copy=False)
