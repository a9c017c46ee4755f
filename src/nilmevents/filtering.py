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

Candidates are matched to re-detections by sample index: a candidate
is confirmed by a re-detection within ``t`` samples of its own index,
``t`` being 1 s in whole samples (``_CONFIRM_S``, converted by
:func:`~nilmevents.core.seconds_to_samples`); the candidates' timestamps
are not read.  So a confirmation reads only the re-detections within
``t`` samples of its candidate, and the trace is smoothed and
re-detected only in windows around the candidates (:func:`_redetected`):
pieces of :mod:`nilmevents.core`, smoothed and profiled one piece group
at a time, one :func:`savitzky_golay` call per group, each alarm the
whole-trace one, since an end fit depends only on the end window it
reads.  So the refilter holds a group, not every window at once.
Where the refilter does not fire, nothing is smoothed.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

# ``detect_base`` is no longer called here, but stays importable under this
# module: the benchmark's tracer (perfbench/tracer.py) wraps
# ``nilmevents.filtering.detect_base`` by name.
from .base import (  # noqa: F401
    _alarming,
    _checked_margin,
    _emitted,
    _mean_difference_profile,
    _require_windows,
    _rounding_margin,
    detect_base,
)
from .core import (
    DetectionError,
    Events,
    HybridConfig,
    MisalignedInput,
    SampleSeries,
    _piece_groups,
    _union,
    seconds_to_samples,
)
from .derivative import _checked_window, _read_only, _smooth

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


# The refilter's confirmation window ``t``, in seconds.  It is not the scoring
# tolerance ``eval_match_tolerance_s``, so a score at another tolerance scores
# the same events; and 1 s is the only window any bundled config or workload
# uses, so it is a constant rather than a config field.
_CONFIRM_S = 1.0

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
    ``V @ pinv(V)`` to its end window, with bits that depend only on the
    samples of that window (:func:`~nilmevents.derivative._smooth`).  So
    the first and the last ``half`` outputs of any array that shares the
    first or the last ``window_samples`` samples of ``values`` are these.

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
    win = _checked_sg_window(window_samples, poly_order, x.size)
    centre, projection = _savitzky_golay_rows(win, poly_order)
    return _smooth(x, centre, projection[: win // 2], projection[win - win // 2 :])


def _checked_sg_window(window_samples: int, poly_order: int, size: int) -> int:
    """The window as an int, if it is valid for ``size`` samples and ``poly_order`` fits it."""
    win = _checked_window(window_samples, size)
    if not 0 <= poly_order < win:
        raise OrderTooHigh(
            f"poly_order must satisfy 0 <= order < window, got {poly_order} with window {win}"
        )
    return win


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

    The minimum over the increasing ``sorted_values`` is attained at the
    nearest value on one side of ``q`` or the other.  With no values at
    all, every distance is infinite.
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


def _confirmation_windows(
    indices: np.ndarray, size: int, tolerance: int, k: int, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per candidate index ``c``, the alarm centres ``[lo, hi)`` its confirmation can read.

    They are the centres within ``tolerance`` samples of ``c`` and, where
    that holds a centre, a lead-in of ``k + 1`` centres before them, ``k``
    being the time limit in samples; all clipped to the centres with full
    windows, ``[n, size - n)``.  A candidate with no centre within the
    tolerance gets an empty window.
    """
    lo = np.maximum(indices - tolerance, n)
    hi = np.minimum(indices + tolerance + 1, size - n)
    return np.where(lo < hi, np.maximum(lo - (k + 1), n), hi), hi


def _window_alarms(
    x: np.ndarray, lo: np.ndarray, hi: np.ndarray, n: int, config: HybridConfig
) -> np.ndarray:
    """The increasing indices of the smoothed trace's alarms at centres in ``[lo, hi)``.

    The windows are increasing and disjoint.  They are cut into the pieces
    of :func:`~nilmevents.core._piece_groups`, each reading ``x``
    ``n + half`` samples further on either side, ``half`` being the SG half
    window, and one piece group at a time is gathered, smoothed by one
    :func:`savitzky_golay` call and profiled, so the refilter holds a group
    (less than two blocks and ``2 (n + half)`` samples), not every window.
    A piece is no shorter than its reads on either side, or than a block,
    so a window is smoothed at most about twice over.  A piece whose read
    touches an end of the trace spans at least one SG window there and is
    the first, or the last, of its group: there the smoothed samples are
    the end fits of ``x`` itself.
    """
    win, reach = config.sg_window_samples, n + config.sg_window_samples // 2
    found = [np.empty(0, dtype=np.int64)]
    for pieces in _piece_groups(lo, hi, reach, reach, x.size, win, piece=2 * reach):
        smoothed = savitzky_golay(pieces.take(x), win, config.sg_poly_order)
        diffs = _mean_difference_profile(smoothed, n)
        found.append(pieces.own(_alarming(diffs, config.power_threshold_watts) + n)[1])
    return np.concatenate(found)


def _redetected(
    series: SampleSeries, indices: np.ndarray, tolerance: int, config: HybridConfig, peak: float
) -> np.ndarray:
    """Re-detection indices of the smoothed trace: every one within ``tolerance`` of ``indices``.

    They are the indices of :func:`detect_base` run on the whole
    ``savitzky_golay(series.values, ...)``, on the windows of
    :func:`_confirmation_windows`, each joined with any window less than
    ``2 (n + half)`` centres away, and smoothed and profiled one piece
    group at a time (:func:`_window_alarms`).  A window's alarms are
    emitted as the whole-trace run emits them once its first alarm
    ``first`` is a proven chain reset: ``first - (lo - 1) > k``, so that it
    is more than ``k`` samples after any alarm before the window, or
    ``lo = n``, where the whole-trace chain starts.  A window where neither
    holds is widened back to twice its length, at most to ``n``, and its
    alarms computed again, until one does.  Then the alarms of all
    windows go through one :func:`~nilmevents.base._emitted` call, chain
    by chain as the whole-trace run's alarms do.

    Raises what the whole-trace run raises, in its order.  A smoothed
    sample is at most ``l1 * peak`` in magnitude, ``l1`` the largest L1
    norm of a projection row, plus the rounding of its dot product.  Where
    that bound cannot rule out an overflow or a rounding margin that
    reaches the threshold, the whole trace is smoothed once, to read its
    finiteness and peak.
    """
    size, rate, order = len(series), series.sampling_rate_hz, config.sg_poly_order
    win = _checked_sg_window(config.sg_window_samples, order, size)
    n = config.mean_window_samples(rate)
    centre, projection = _savitzky_golay_rows(win, order)
    l1 = max(float(np.abs(projection).sum(axis=1).max()), float(np.abs(centre).sum()))
    bound = l1 * peak * (1.0 + 4.0 * (win + 2) * 2.0**-53)
    exact_peak = None
    if not (bound < math.inf and _rounding_margin(bound, n) < config.power_threshold_watts):
        exact_peak = SampleSeries(savitzky_golay(series.values, win, order), rate).summary.peak()
    _require_windows(size, n)
    if exact_peak is not None:
        _checked_margin(exact_peak, n, config.power_threshold_watts)

    k = config.time_limit_samples(rate)
    lo, hi = _confirmation_windows(indices, size, tolerance, k, n)
    lo, hi = lo[lo < hi], hi[lo < hi]
    reach = n + win // 2
    accepted = []
    while lo.size:
        starts, stops = _union(lo - reach, hi + reach)
        lo, hi = starts + reach, stops - reach
        alarms = _window_alarms(series.values, lo, hi, n, config)
        first = np.append(alarms, size)[np.searchsorted(alarms, lo)]
        reset = (first >= hi) | (lo == n) | (first - (lo - 1) > k)
        accepted.append(alarms[reset[np.searchsorted(lo, alarms, side="right") - 1]])
        lo, hi = np.maximum(2 * lo - hi, n)[~reset], hi[~reset]
    alarms = np.concatenate([np.empty(0, dtype=np.int64), *accepted])
    if len(accepted) > 1:  # a window widened back may overlap one proven before
        alarms = np.unique(alarms)
    return alarms[_emitted(alarms, k)]


def refilter_events_with_verdicts(
    series: SampleSeries,
    candidates: Events,
    extrema: np.ndarray | Callable[[np.ndarray, int], np.ndarray],
    config: HybridConfig,
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
    re-detection did not confirm, in their given order.  A candidate is
    confirmed by a re-detection within ``t`` samples of its index, ``t``
    being 1 s in whole samples at the series' rate, whatever the config's
    scoring tolerance; its timestamp is not read.  When the trace never
    exceeds ``fluctuation_trigger_watts`` after the first turn-on
    candidate, the refilter does not trigger: every candidate survives,
    and there are no verdicts and no extrema read.  When it triggers, it
    smooths only the windows of the module docstring, one piece group at
    a time, so it holds at most about two blocks and ``2 (n + half)``
    smoothed samples at once, whatever the trace's length.  Unless a
    window is widened back, the windows are at most ``2 * t + 1``
    centres, the lead-in of ``k + 1`` and ``2 * (n + half)`` samples per
    candidate, ``k`` being the time limit in samples, ``n`` the base half
    window and ``half`` the SG half window.
    """
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
    segment_max = series.summary.max_from(series.values, candidate_indices[turn_ons[0]])
    if segment_max <= config.fluctuation_trigger_watts:
        return unfired

    rate = series.sampling_rate_hz
    t = seconds_to_samples(_CONFIRM_S, rate)
    redetected = _redetected(series, candidate_indices, t, config, series.summary.peak())
    confirmed = _nearest_distance(redetected, candidate_indices) <= t
    guard_radius = config.time_limit_samples(rate)
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
