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
    _map_blocks,
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


def _checked_window(window_samples: int, size: int) -> int:
    """The window as an int, if it is odd, at least 3 and at most ``size``."""
    win = int(window_samples)
    if win < 3 or win % 2 == 0:
        raise InvalidWindow(f"window_samples must be an odd integer >= 3, got {window_samples}")
    if win > size:
        raise InvalidWindow(f"window {win} exceeds series length {size}")
    return win


def _convolve_interior(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """``np.convolve(x, kernel, "same")`` wherever the odd kernel fits inside ``x``.

    The interior is convolved block by block (each block reads its own
    samples plus ``half`` on either side) and equals the whole-array
    convolution bit for bit.  The first and last ``half``
    entries of the result are left unset for the caller's edge rule.
    """
    half = kernel.size // 2
    out = np.empty_like(x)

    def convolve_block(start: int, stop: int) -> None:
        out[half + start : half + stop] = np.convolve(
            x[start : stop + 2 * half], kernel, mode="valid"
        )

    _map_blocks(convolve_block, x.size - 2 * half)
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
    kernel = _tricube_weights(np.arange(-half, half + 1), half)
    kernel /= kernel.sum()
    out = _convolve_interior(x, kernel)
    for i in range(half):
        out[i] = _fit_local_linear(x, i, half)
        out[x.size - 1 - i] = _fit_local_linear(x, x.size - 1 - i, half)
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
