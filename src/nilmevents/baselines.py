"""Reference detectors used for side-by-side comparison.

Neither detector feeds the hybrid pipeline; they exist so that the
pipeline's behaviour on long transients and fluctuating loads can be
contrasted against two classic change-detection approaches:

* :func:`cusum` accumulates deviations of each sample from the mean of
  the window ahead of it, producing a drift trace whose slope changes at
  state transitions.  It is exported as a trace, not as events.
* :func:`lld_max` scores each sample with a log-likelihood-style
  detection statistic and reports strict local maxima of its magnitude
  as :class:`~nilmevents.core.Events`, like the hybrid pipeline.
  On transients longer than its window it fires repeatedly, which is the
  failure mode the hybrid pipeline's merge stage is built to avoid.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .base import _check_sum_resolution, _prefix_sums, _window_sums
from .core import (
    DetectionError,
    Events,
    SampleSeries,
    SeriesTooShort,
    _BLOCK_SAMPLES,
    validate_series,
)

__all__ = [
    "NonPositiveVariance",
    "CusumVariant",
    "LldConfig",
    "cusum",
    "lld_max",
]


class NonPositiveVariance(DetectionError):
    """A variance that must be positive was zero or negative."""


class CusumVariant(enum.Enum):
    LINEAR = "linear"
    SQUARED = "squared"


def cusum(
    series: SampleSeries,
    window_samples: int,
    variant: CusumVariant = CusumVariant.LINEAR,
) -> np.ndarray:
    """Cumulative sum of deviations from a forward-window mean.

    For each index ``i`` the reference mean is taken over the ``n``
    samples starting at ``i`` (shrinking at the tail), and the trace
    accumulates ``x[i] - mean[i]`` (linear) or its square (squared)
    starting from ``S[0] = 0``.  The returned trace is aligned with the
    series: ``S[i]`` belongs to sample ``i``.

    Parameters
    ----------
    series:
        Power trace.
    window_samples:
        Forward mean window length ``n``, at least 1 and at most the
        series length.
    variant:
        LINEAR drifts with signed deviations; SQUARED is monotone
        non-decreasing and reacts to change energy regardless of sign.
    """
    series = validate_series(series)
    n = int(window_samples)
    if n < 1:
        raise DetectionError(f"window_samples must be >= 1, got {window_samples}")
    if n > len(series):
        raise SeriesTooShort(f"window {n} exceeds series length {len(series)}")
    x = series.values
    full = x.size - n + 1
    forward_means = np.empty_like(x)
    forward_means[:full] = np.add.reduce(sliding_window_view(x, n), axis=-1) / n
    for i in range(full, x.size):
        forward_means[i] = np.sum(x[i:]) / (x.size - i)
    deviations = x - forward_means
    deviations[0] = 0.0
    if variant is CusumVariant.SQUARED:
        deviations = deviations**2
    return np.cumsum(deviations)


@dataclass(frozen=True)
class LldConfig:
    """Tunables for :func:`lld_max`.

    ``sigma_sq`` scales the detection statistic; when left ``None`` it is
    estimated as the variance of the first pre-window of the series.
    Defaults describe the same 0.3 s / 25 W operating point as the base
    detector at 20 Hz with a 0.5 s maxima window.
    """

    pre_window_samples: int = 6
    power_threshold_watts: float = 25.0
    maxima_precision_samples: int = 10
    sigma_sq: float | None = None

    def __post_init__(self) -> None:
        if self.pre_window_samples < 1:
            raise DetectionError(
                f"pre_window_samples must be >= 1, got {self.pre_window_samples}"
            )
        if not math.isfinite(self.power_threshold_watts) or self.power_threshold_watts <= 0:
            raise DetectionError(
                f"power_threshold_watts must be positive, got {self.power_threshold_watts}"
            )
        if self.maxima_precision_samples < 1:
            raise DetectionError(
                f"maxima_precision_samples must be >= 1, got {self.maxima_precision_samples}"
            )
        if self.sigma_sq is not None and (
            not math.isfinite(self.sigma_sq) or self.sigma_sq <= 0
        ):
            raise NonPositiveVariance(f"sigma_sq must be positive, got {self.sigma_sq}")


def lld_max(series: SampleSeries, config: LldConfig = LldConfig()) -> Events:
    """Detect transitions as strict local maxima of a likelihood statistic.

    For each eligible index the statistic is

    ``ds[i] = (mu1 - mu0) / sigma_sq * |x[i] - (mu1 + mu0) / 2|``

    where ``mu0``/``mu1`` are the means of the ``pre_window_samples``
    samples before/after ``i`` (the index itself excluded), and ``ds`` is
    zeroed wherever ``|mu1 - mu0|`` does not exceed the power threshold.
    An event is reported at ``i`` when ``|ds[i]|`` is nonzero and a
    strict maximum over all eligible indices within
    ``maxima_precision_samples`` of ``i``, so reported events are always
    separated by more than that many samples.

    Returns :class:`~nilmevents.core.Events` in increasing index order,
    each carrying ``mu1 - mu0`` as its delta.  Like :func:`detect_base`,
    it raises :class:`~nilmevents.base.MagnitudeTooLarge` when
    ``max|x| * len(x) * eps`` reaches ``power_threshold_watts``.
    """
    series = validate_series(series)
    pw = config.pre_window_samples
    if len(series) < 2 * pw + 1:
        raise SeriesTooShort(
            f"need at least {2 * pw + 1} samples for pre-window {pw}, got {len(series)}"
        )
    x = series.values
    _check_sum_resolution(x, config.power_threshold_watts)
    sigma_sq = config.sigma_sq
    if sigma_sq is None:
        sigma_sq = float(np.var(x[:pw]))
    if not math.isfinite(sigma_sq) or sigma_sq <= 0:
        raise NonPositiveVariance(
            f"sigma_sq must be positive, got {sigma_sq} (flat leading window?)"
        )

    mu0, mu1 = _window_sums(_prefix_sums(x), pw)
    mu0 /= pw
    mu1 /= pw
    mean_diff = mu1 - mu0
    threshold = config.power_threshold_watts
    # ds is zero wherever |mu1 - mu0| <= threshold, so it is computed only
    # at the other positions, each by the formula above.
    active = np.flatnonzero((mean_diff > threshold) | (mean_diff < -threshold))
    ds = mean_diff[active] / sigma_sq * np.abs(x[pw + active] - (mu1[active] + mu0[active]) / 2.0)

    m = config.maxima_precision_samples
    # Entries within m of an end see zeros beyond it, which no candidate
    # (a nonzero magnitude) ties with, so the window is in effect truncated.
    padded = np.zeros(mean_diff.size + 2 * m)
    magnitude = padded[m:-m]
    magnitude[active] = np.abs(ds)
    candidates = active[magnitude[active] > 0]
    windows = sliding_window_view(padded, 2 * m + 1)
    # A strict maximum is the only entry of its window that is >= it.  The
    # candidates go in chunks, so the (chunk, 2m + 1) comparison stays small.
    chunk = max(1, _BLOCK_SAMPLES // (2 * m + 1))
    maxima = [
        part[np.count_nonzero(windows[part] >= magnitude[part, None], axis=1) == 1]
        for part in (candidates[i : i + chunk] for i in range(0, candidates.size, chunk))
    ]
    positions = np.concatenate([np.empty(0, dtype=np.int64), *maxima])
    indices = pw + positions
    return Events(indices, series.time_at(indices), mean_diff[positions])
