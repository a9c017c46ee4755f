"""Reference detector used for side-by-side comparison.

:func:`lld_max` does not feed the hybrid pipeline; it exists so that the
pipeline's behaviour on long transients can be contrasted with a classic
change-detection approach.  It scores each sample with a
log-likelihood-style detection statistic and reports strict local maxima
of its magnitude as :class:`~nilmevents.core.Events`, like the hybrid
pipeline.  On transients longer than its window it fires repeatedly,
which is the failure mode the hybrid pipeline's merge stage is built to
avoid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .base import _alarming, _require_windows, _rounding_margin, _tested_centres, _window_sums
from .core import (
    DetectionError,
    Events,
    SampleSeries,
    _BLOCK_SAMPLES,
    _Layout,
    _check_integer,
    _check_setting,
    _piece_groups,
)

__all__ = ["LldConfig", "lld_max"]


@dataclass(frozen=True)
class LldConfig:
    """Tunables for :func:`lld_max`.

    Defaults describe the same 0.3 s / 25 W operating point as the base
    detector at 20 Hz with a 0.5 s maxima window.
    """

    pre_window_samples: int = 6
    power_threshold_watts: float = 25.0
    maxima_precision_samples: int = 10

    def __post_init__(self) -> None:
        _check_setting("power_threshold_watts", self.power_threshold_watts)
        for name in ("pre_window_samples", "maxima_precision_samples"):
            value = getattr(self, name)
            _check_integer(name, value)
            if value < 1:
                raise DetectionError(f"{name} must be >= 1, got {value}")


def lld_max(series: SampleSeries, config: LldConfig = LldConfig()) -> Events:
    """Detect transitions as strict local maxima of a likelihood statistic.

    For each eligible index the statistic's magnitude is

    ``|ds[i]| = |mu1 - mu0| * |x[i] - (mu1 + mu0) / 2|``

    where ``mu0``/``mu1`` are the means of the ``pre_window_samples``
    samples before/after ``i`` (the index itself excluded), and ``ds`` is
    zeroed wherever ``|mu1 - mu0|`` does not exceed the power threshold,
    and wherever the computed ``|x[i] - (mu1 + mu0) / 2|`` is at most the
    rounding margin ``r`` (:func:`~nilmevents.base._rounding_margin` with
    ``n = pre_window_samples``), which rounding alone can reach: on a
    noiseless ramp the exact deviation is 0 and the computed one its last
    bits.  A noise variance would divide every magnitude by the same
    constant, so it could not change which maxima are strict, and there
    is none.  An event is reported at ``i`` when ``|ds[i]|`` is nonzero
    and a strict maximum over all eligible indices within
    ``maxima_precision_samples`` of ``i``, so reported events are always
    separated by more than that many samples.

    Returns :class:`~nilmevents.core.Events` in increasing index order,
    each carrying ``mu1 - mu0`` as its delta.  The window sums are the
    base detector's (:func:`~nilmevents.base._window_sums`), each summed
    from its own samples, so a delta depends only on the ``2 *
    pre_window_samples`` samples it reads.  Like :func:`detect_base`, it
    raises :class:`~nilmevents.base.MagnitudeTooLarge` when ``r`` reaches
    ``power_threshold_watts``.

    The statistic is computed only where the series summary's range proof
    fails (:func:`~nilmevents.base._tested_centres`): elsewhere ``|mu1 -
    mu0|`` is below the threshold, so ``ds`` is 0.  The tested centres are
    walked as the pieces of :mod:`nilmevents.core`, each reading
    ``pre_window_samples + maxima_precision_samples`` samples past either
    end, so that every entry within ``maxima_precision_samples`` of a
    centre it owns is computed from the piece's own reads, and only the
    candidates at centres a piece owns are tested.  A piece's entries
    beyond its tested centres come out 0, as over the whole trace, since
    ``r`` bounds the computed ``mu1 - mu0`` too.  Past a trace end there is no
    entry, and the gathered array's zero padding stands for it: a nonzero
    candidate never ties with a 0.  So the events are those of the
    statistic over the whole trace, for any block and proof-block size.  A
    window as wide as the profile already covers every eligible index, so
    ``maxima_precision_samples`` is read as at most the profile length.
    """
    pw = int(config.pre_window_samples)  # _window_sums reads the bits of a Python int
    _require_windows(len(series), pw)
    threshold = config.power_threshold_watts
    m = min(int(config.maxima_precision_samples), len(series) - 2 * pw)
    starts, stops = _tested_centres(series.summary, pw, threshold)
    margin = _rounding_margin(series.summary.peak(), pw)

    found = [(np.empty(0, dtype=np.int64), np.empty(0))]
    for layout in _piece_groups(starts, stops, pw + m, pw + m, len(series)):
        found.append(_maxima(layout, series.values, pw, threshold, margin, m))
    indices = np.concatenate([centres for centres, _ in found])
    deltas = np.concatenate([deltas for _, deltas in found])
    return Events(indices, series.time_at(indices), deltas)


def _maxima(
    layout: _Layout, values: np.ndarray, pw: int, threshold: float, margin: float, m: int
) -> tuple[np.ndarray, np.ndarray]:
    """Centres and deltas of the strict maxima of ``|ds|`` that the ``layout``'s pieces own.

    ``|ds|`` is computed over ``layout.take(values)``, with zeros past its ends.
    """
    x = layout.take(values)
    before_sums, after_sums = _window_sums(x, pw)  # views of one array of window sums
    mean_diff = after_sums / pw
    mean_diff -= before_sums / pw  # mu1 - mu0
    # ds is zero wherever |mu1 - mu0| <= threshold, so it is computed only
    # at the other positions, each by the formula of lld_max.
    active = _alarming(mean_diff, threshold)
    midpoint = (after_sums[active] / pw + before_sums[active] / pw) / 2.0
    deviation = np.abs(x[pw + active] - midpoint)
    deviation[deviation <= margin] = 0.0  # what rounding alone can give

    # Entries within m of the array's ends see the zero padding beyond them.
    # No candidate (a nonzero magnitude) ties with a zero, so a window at a
    # profile end is in effect truncated.
    padded = np.zeros(mean_diff.size + 2 * m)
    magnitude = padded[m:-m]
    magnitude[active] = np.abs(mean_diff[active]) * deviation
    candidates = active[magnitude[active] > 0]
    # Only owned candidates are tested: the others lie in a halo or straddle two pieces.
    kept, centres = layout.own(candidates + pw)
    candidates = candidates[kept]
    windows = sliding_window_view(padded, 2 * m + 1)
    # A strict maximum is the only entry of its window that is >= it.  The
    # candidates go in chunks, so the (chunk, 2m + 1) comparison stays small.
    chunk = max(1, _BLOCK_SAMPLES // (2 * m + 1))
    strict = [
        np.count_nonzero(windows[part] >= magnitude[part, None], axis=1) == 1
        for part in (candidates[i : i + chunk] for i in range(0, candidates.size, chunk))
    ]
    is_max = np.concatenate([np.empty(0, dtype=bool), *strict])
    return centres[is_max], mean_diff[candidates[is_max]]
