"""Fluctuation refiltering with a Savitzky-Golay smoothed re-detection.

Heavily loaded appliances can oscillate strongly enough in steady state
to trip the base detector.  When the trace carries that much power, the
series is smoothed with a Savitzky-Golay filter and detection is run a
second time: candidates with no counterpart in the re-detection are
presumed to be fluctuation artifacts.  A candidate is only actually
dropped if the smoothed derivative also shows no significant peak or
valley near it, so genuine small transitions that the smoothing erased
survive on the evidence of their derivative signature.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .base import detect_base
from .core import (
    DetectedEvent,
    DetectionError,
    HybridConfig,
    MisalignedInput,
    SampleSeries,
    seconds_to_samples,
)
from .derivative import Extremum, _checked_window

__all__ = [
    "OrderTooHigh",
    "FilterReason",
    "FilterVerdict",
    "savitzky_golay",
    "refilter_events_with_verdicts",
]


class OrderTooHigh(DetectionError):
    """A polynomial order was too high for its window."""


class FilterReason(enum.Enum):
    SURVIVED_REFILTER = "survived_refilter"
    REMOVED_AS_FLUCTUATION = "removed_as_fluctuation"
    PROTECTED_BY_EXTREMUM = "protected_by_extremum"


@dataclass(frozen=True)
class FilterVerdict:
    """Outcome of the refilter decision for one candidate event."""

    event_index: int
    reason: FilterReason

    @property
    def kept(self) -> bool:
        return self.reason is not FilterReason.REMOVED_AS_FLUCTUATION


def savitzky_golay(values: np.ndarray, window_samples: int, poly_order: int) -> np.ndarray:
    """Least-squares polynomial smoothing over sliding centered windows.

    Every interior sample is replaced by the value at the center of a
    degree-``poly_order`` polynomial fitted to its ``window_samples``
    neighbourhood.  Samples closer than half a window to either end take
    their value from the polynomial fitted to the first (or last) full
    window, evaluated at the off-center position.

    The fit is done in scaled coordinates: window offsets are divided by
    the half width, so the Vandermonde matrix ``V`` holds powers of values
    in ``[-1, 1]`` and stays well conditioned up to the interpolating
    order.  Interior samples apply the center row of ``pinv(V)`` as one
    convolution; each edge applies ``half`` rows of the projection
    ``V @ pinv(V)`` to its end window.

    Parameters
    ----------
    values:
        Input samples.
    window_samples:
        Odd window length, at least 3 and at most ``len(values)``.
    poly_order:
        Polynomial degree, ``0 <= poly_order < window_samples``.  With
        ``poly_order == window_samples - 1`` the fit interpolates and the
        filter is the identity.
    """
    x = np.asarray(values, dtype=float)
    win = _checked_window(window_samples, x.size)
    if not 0 <= poly_order < win:
        raise OrderTooHigh(
            f"poly_order must satisfy 0 <= order < window, got {poly_order} with window {win}"
        )
    half = win // 2
    vander = np.vander(np.arange(-half, half + 1) / half, poly_order + 1, increasing=True)
    fit = np.linalg.pinv(vander)
    out = np.convolve(x, fit[0, ::-1], mode="same")
    projection = vander @ fit
    out[:half] = projection[:half] @ x[:win]
    out[x.size - half :] = projection[win - half :] @ x[x.size - win :]
    return out


def _nearest_distance(sorted_values: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """``min(abs(sorted_values - q))`` for every query, from its two neighbours.

    ``fl(v - q)`` is monotone in ``v``, so the minimum over the whole array
    is attained at the nearest value on one side of ``q`` or the other.
    With no values at all, every distance is infinite.
    """
    if sorted_values.size == 0:
        return np.full(queries.shape, np.inf)
    above = np.searchsorted(sorted_values, queries)
    below = np.maximum(above - 1, 0)
    above = np.minimum(above, sorted_values.size - 1)
    return np.minimum(
        np.abs(sorted_values[above] - queries), np.abs(sorted_values[below] - queries)
    )


def _first_outside(indices: np.ndarray, size: int) -> int | None:
    """Position of the first index outside ``[0, size)``, if any."""
    outside = np.flatnonzero((indices < 0) | (indices >= size))
    return int(outside[0]) if outside.size else None


def refilter_events_with_verdicts(
    series: SampleSeries,
    candidates: list[DetectedEvent],
    extrema: list[Extremum],
    config: HybridConfig,
) -> tuple[list[DetectedEvent], list[FilterVerdict]]:
    """Drop fluctuation-induced candidates; see module docstring.

    Returns the surviving candidate objects themselves and one verdict per
    candidate.  When the trace never exceeds ``fluctuation_trigger_watts``
    after the first turn-on candidate, the refilter does not trigger: the
    candidates come back unchanged and the verdict list is empty.
    """
    extremum_indices = np.array([e.index for e in extrema], dtype=np.int64)
    bad = _first_outside(extremum_indices, len(series))
    if bad is not None:
        raise MisalignedInput(
            f"extremum index {extrema[bad].index} outside series of length {len(series)}"
        )
    candidate_indices = np.array([e.index for e in candidates], dtype=np.int64)
    bad = _first_outside(candidate_indices, len(series))
    if bad is not None:
        raise MisalignedInput(
            f"candidate index {candidates[bad].index} outside series of length {len(series)}"
        )
    if not candidates:
        return [], []

    first_on = next((e for e in candidates if e.delta_watts > 0), None)
    if first_on is None:
        return list(candidates), []
    segment_max = float(series.values[first_on.index :].max())
    if segment_max <= config.fluctuation_trigger_watts:
        return list(candidates), []

    filtered = SampleSeries(
        savitzky_golay(series.values, config.sg_window_samples, config.sg_poly_order),
        series.sampling_rate_hz,
        series.start_time_s,
    )
    redetected = detect_base(filtered, config)
    re_times = np.sort(np.array([e.timestamp_s for e in redetected], dtype=float))
    guard_radius = seconds_to_samples(config.time_limit_s, series.sampling_rate_hz)

    times = np.array([e.timestamp_s for e in candidates], dtype=float)
    confirmed = _nearest_distance(re_times, times) <= config.eval_match_tolerance_s
    guarded = _nearest_distance(np.sort(extremum_indices), candidate_indices) <= guard_radius

    survivors: list[DetectedEvent] = []
    verdicts: list[FilterVerdict] = []
    for event, is_confirmed, is_guarded in zip(candidates, confirmed.tolist(), guarded.tolist()):
        if is_confirmed:
            reason = FilterReason.SURVIVED_REFILTER
        elif is_guarded:
            reason = FilterReason.PROTECTED_BY_EXTREMUM
        else:
            reason = FilterReason.REMOVED_AS_FLUCTUATION
        verdict = FilterVerdict(event_index=event.index, reason=reason)
        verdicts.append(verdict)
        if verdict.kept:
            survivors.append(event)
    return survivors, verdicts
