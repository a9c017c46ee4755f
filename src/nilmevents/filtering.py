"""Fluctuation refiltering with a Savitzky-Golay smoothed re-detection.

Heavily loaded appliances can oscillate strongly enough in steady state
to trip the base detector.  When the trace carries that much power, the
series is smoothed with a Savitzky-Golay filter and detection is run a
second time: candidates with no counterpart in the re-detection are
presumed to be fluctuation artifacts.  A candidate is only actually
dropped if the smoothed derivative also shows no significant peak or
valley near it, so genuine small transitions that the smoothing erased
survive on the evidence of their derivative signature.

Candidates arrive as :class:`~nilmevents.core.Events` and extrema as an
index array; the survivors come back as positions into the candidates and
the verdicts as :class:`FilterVerdicts` arrays, so no per-candidate object
is built.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .base import detect_base
from .core import (
    DetectionError,
    Events,
    HybridConfig,
    MisalignedInput,
    SampleSeries,
    _Summary,
    seconds_to_samples,
    validate_series,
)
from .derivative import _checked_window, _convolve_interior, _read_only

__all__ = [
    "OrderTooHigh",
    "FilterReason",
    "FilterVerdict",
    "FilterVerdicts",
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


_REASONS = tuple(FilterReason)


@dataclass(frozen=True, eq=False)
class FilterVerdicts:
    """Refilter verdicts as arrays, one per candidate.

    ``event_indices`` holds each candidate's sample index and
    ``reason_codes`` the position of its reason in ``tuple(FilterReason)``.
    ``len()`` is the verdict count, and iterating yields
    :class:`FilterVerdict` views.  Two instances are equal when both
    arrays are.
    """

    event_indices: np.ndarray
    reason_codes: np.ndarray

    def __len__(self) -> int:
        return self.event_indices.size

    def __iter__(self) -> Iterator[FilterVerdict]:
        reasons = [_REASONS[code] for code in self.reason_codes.tolist()]
        return map(FilterVerdict, self.event_indices.tolist(), reasons)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FilterVerdicts):
            return NotImplemented
        return np.array_equal(self.event_indices, other.event_indices) and np.array_equal(
            self.reason_codes, other.reason_codes
        )


_NO_VERDICTS = FilterVerdicts(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int8))
_NO_EXTREMA = _read_only(np.empty(0, dtype=np.int64))


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
    convolution, run in blocks with a result identical for any block
    size; each edge applies ``half`` rows of the projection
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
    centre, projection = _savitzky_golay_rows(win, poly_order)
    out = np.empty_like(x)
    _convolve_interior(x, centre, out)
    out[:half] = projection[:half] @ x[:win]
    out[x.size - half :] = projection[win - half :] @ x[x.size - win :]
    return out


@functools.lru_cache(maxsize=None)
def _savitzky_golay_rows(window: int, poly_order: int) -> tuple[np.ndarray, np.ndarray]:
    """The reversed centre row of ``pinv(V)`` and the projection ``V @ pinv(V)``.

    Built once per ``(window, poly_order)`` and read-only, since every
    caller shares them.
    """
    half = window // 2
    vander = np.vander(np.arange(-half, half + 1) / half, poly_order + 1, increasing=True)
    fit = np.linalg.pinv(vander)
    return _read_only(fit[0, ::-1]), _read_only(vander @ fit)


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
    candidates: Events,
    extrema: np.ndarray | Callable[[np.ndarray, int], np.ndarray],
    config: HybridConfig,
    *,
    summary: _Summary | None = None,
) -> tuple[np.ndarray, FilterVerdicts, np.ndarray]:
    """Drop fluctuation-induced candidates; see module docstring.

    ``extrema`` holds the sample indices of the significant extrema that
    guard a candidate, or is a function that finds them: it is called
    once, when the refilter fires, with the sample indices of the
    candidates the re-detection did not confirm and the guard radius in
    samples, and returns the significant extrema within that radius of
    them; any further ones are dropped.

    Returns the increasing int64 positions, into ``candidates``, of the
    survivors, one verdict per candidate, and the extrema the guard read:
    those of ``extrema`` within the guard radius of a candidate the
    re-detection did not confirm, in their given order.  When the trace
    never exceeds ``fluctuation_trigger_watts`` after the first turn-on
    candidate, the refilter does not trigger: every candidate survives,
    and there are no verdicts and no extrema read.  ``summary`` is
    ``series.summary``, from a caller that built or validated ``series``
    in the same call; without it, ``series`` is validated here.
    """
    if summary is None:
        series = validate_series(series)
        summary = series.summary
    if not callable(extrema):
        extrema = np.asarray(extrema, dtype=np.int64)
        bad = _first_outside(extrema, len(series))
        if bad is not None:
            raise MisalignedInput(
                f"extremum index {extrema[bad]} outside series of length {len(series)}"
            )
    candidate_indices = candidates.indices
    bad = _first_outside(candidate_indices, len(series))
    if bad is not None:
        raise MisalignedInput(
            f"candidate index {candidate_indices[bad]} outside series of length {len(series)}"
        )
    unfired = np.arange(len(candidates), dtype=np.int64), _NO_VERDICTS, _NO_EXTREMA
    turn_ons = np.flatnonzero(candidates.deltas_watts > 0)
    if not turn_ons.size:
        return unfired
    segment_max = summary.max_from(series.values, candidate_indices[turn_ons[0]])
    if segment_max <= config.fluctuation_trigger_watts:
        return unfired

    filtered = SampleSeries(
        savitzky_golay(series.values, config.sg_window_samples, config.sg_poly_order),
        series.sampling_rate_hz,
        series.start_time_s,
    )
    # Re-detected times are non-decreasing, as their indices increase.
    re_times = detect_base(filtered, config, summary=filtered.summary).timestamps_s
    guard_radius = seconds_to_samples(config.time_limit_s, series.sampling_rate_hz)

    confirmed = (
        _nearest_distance(re_times, candidates.timestamps_s) <= config.eval_match_tolerance_s
    )
    unconfirmed = candidate_indices[~confirmed]
    if callable(extrema):
        extrema = np.asarray(extrema(unconfirmed, guard_radius), dtype=np.int64)
    read = extrema[_nearest_distance(np.sort(unconfirmed), extrema) <= guard_radius]
    # A confirmed candidate survives whatever lies near it, so only ``read`` guards.
    guarded = _nearest_distance(np.sort(read), candidate_indices) <= guard_radius
    codes = np.full(len(candidates), _REASONS.index(FilterReason.REMOVED_AS_FLUCTUATION), np.int8)
    codes[guarded] = _REASONS.index(FilterReason.PROTECTED_BY_EXTREMUM)
    codes[confirmed] = _REASONS.index(FilterReason.SURVIVED_REFILTER)
    return np.flatnonzero(confirmed | guarded), FilterVerdicts(candidate_indices, codes), read
