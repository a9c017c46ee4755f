"""The hybrid detection pipeline.

Runs the base mean-change detector, merges events that share one long
transient using the smoothed first derivative, then refilters candidates
on heavily loaded traces with a Savitzky-Golay re-detection.  Each stage
can only remove or confirm events produced by the stage before it, so
stage counts are monotone non-increasing and every reported event
originates from a base alarm.

The pipeline looks at most ``max(settle_threshold_s, loess_window_s,
sg window)`` past any emitted index, so detection latency is bounded by
the configured windows rather than the trace length.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import detect_base
from .core import (
    DetectedEvent,
    DetectionError,
    HybridConfig,
    SampleSeries,
    SeriesTooShort,
    validate_series,
)
from .derivative import (
    DerivativeSeries,
    Extremum,
    detect_extrema,
    first_derivative,
    loess_smooth,
    merge_transient_events,
)
from .filtering import FilterVerdict, refilter_events_with_verdicts

__all__ = ["StageCounts", "PipelineResult", "detect_hybrid"]


@dataclass(frozen=True)
class StageCounts:
    """Event counts after each pipeline stage."""

    base: int
    after_derivative: int
    after_filtering: int

    def __post_init__(self) -> None:
        if not self.base >= self.after_derivative >= self.after_filtering >= 0:
            raise DetectionError(
                "stage counts must be monotone non-increasing, got "
                f"{self.base} / {self.after_derivative} / {self.after_filtering}"
            )


@dataclass(frozen=True)
class PipelineResult:
    """Everything the pipeline computed for one trace.

    ``events`` holds the final detections; the per-stage lists and traces
    are retained for inspection and plotting.
    """

    events: tuple[DetectedEvent, ...]
    stage_counts: StageCounts
    derivative_trace: DerivativeSeries
    smoothed_derivative: np.ndarray
    extrema: tuple[Extremum, ...]
    base_events: tuple[DetectedEvent, ...]
    merged_events: tuple[DetectedEvent, ...]
    filter_verdicts: tuple[FilterVerdict, ...]


def detect_hybrid(series: SampleSeries, config: HybridConfig = HybridConfig()) -> PipelineResult:
    """Run the full hybrid event detection pipeline on one trace.

    Parameters
    ----------
    series:
        Aggregate power trace.
    config:
        Detection tunables; see :class:`HybridConfig`.

    Returns
    -------
    PipelineResult
        Final events plus per-stage events, the first derivative, its
        smoothed version, and the significant extrema used by the
        refilter guard (strict extrema of the smoothed derivative whose
        magnitude exceeds ``derivative_epsilon``).

    Raises
    ------
    SeriesTooShort
        Before any stage runs, if the series is shorter than the longest
        window a stage needs: ``max(2n + 1, LOESS window, SG window)``,
        where ``n`` is the base detector's half-window in samples.

    Notes
    -----
    The result is a pure function of ``(series, config)``: repeated calls
    return identical results.
    """
    series = validate_series(series)
    base_span = 2 * config.mean_window_samples(series.sampling_rate_hz) + 1
    loess_window = config.loess_window_samples(series.sampling_rate_hz)
    minimum = max(base_span, loess_window, config.sg_window_samples)
    if len(series) < minimum:
        raise SeriesTooShort(
            f"need at least {minimum} samples (base windows {base_span}, LOESS window "
            f"{loess_window}, SG window {config.sg_window_samples}), got {len(series)}"
        )
    base_events = detect_base(series, config)

    derivative = first_derivative(series, spacing_h=1.0)
    smoothed = loess_smooth(derivative.values, loess_window)
    significant_extrema = detect_extrema(smoothed, min_abs_value=config.derivative_epsilon)

    merged_events = merge_transient_events(base_events, smoothed, series, config)
    final_events, verdicts = refilter_events_with_verdicts(
        series, merged_events, significant_extrema, config
    )

    return PipelineResult(
        events=tuple(final_events),
        stage_counts=StageCounts(
            base=len(base_events),
            after_derivative=len(merged_events),
            after_filtering=len(final_events),
        ),
        derivative_trace=derivative,
        smoothed_derivative=smoothed,
        extrema=tuple(significant_extrema),
        base_events=tuple(base_events),
        merged_events=tuple(merged_events),
        filter_verdicts=tuple(verdicts),
    )
