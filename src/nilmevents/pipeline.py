"""The hybrid detection pipeline.

Runs the base mean-change detector, merges events that share one long
transient using the smoothed first derivative, then refilters candidates
on heavily loaded traces with a Savitzky-Golay re-detection.  Each stage
can only remove or confirm events produced by the stage before it, so
stage counts are monotone non-increasing and every reported event
originates from a base alarm.

The stages carry arrays, not event objects: the base detector returns
:class:`~nilmevents.core.Events`, the extrema are an index array, and the
merge and the refilter return the positions of the candidates they keep.
:class:`PipelineResult` stores the base events once plus the positions
that survive each stage; a :class:`~nilmevents.core.DetectedEvent` is a
view built only when a caller iterates or indexes an event list.

Detection pays only where the trace moves or a decision reads, and
builds no full-length window sums, derivative or smoothed trace.
Every stage reads the series' summary (the min and max of each 64-sample
block), kept true by its read-only samples: its range bounds, the peak
and the refilter trigger.  The stages compute on the piece layouts of
:mod:`nilmevents.core`, so by the argument there the events and verdicts
are those of the whole-trace stages.  What each reads:

- the base detector sums and tests only the blocks no range bound proves
  quiet (:func:`nilmevents.base._rounding_margin`), each centre reading
  ``n`` samples on either side;
- the merge reads the smoothed derivative ``s``
  (:class:`nilmevents.derivative._SmoothedDerivative`) strictly between
  consecutive base events ``a < b`` whose gap could hold a settled run
  long enough: first two settle lengths after ``a``, and where those hold
  no settled run long enough, stretches that double in length, each
  starting a settle length before the last one ended, until one holds
  such a run or reaches ``b``.  It tests only ``|s| < epsilon``: each
  decision is the whole-trace one, taken from a blocked matrix product
  where a proven rounding bound allows and from the exact smoother
  elsewhere (:meth:`nilmevents.derivative._SmoothedDerivative.settled`);
- the refilter's guard, a function the refilter asks once and only when
  it fires, reads ``s`` within ``r + 1`` samples of each candidate the
  re-detection did not confirm, ``r`` being the guard radius, and returns
  the significant extrema it finds there, whose indices increase, as
  :func:`~nilmevents.derivative.detect_extrema` gives them; the refilter
  keeps those within ``r``;
- ``s`` on a stretch reads the trace a LOESS half window further on
  either side;
- the refilter's re-detection, only when the refilter fires, runs on the
  Savitzky-Golay-smoothed trace at the alarm centres within ``t``
  samples of each candidate's index, ``t`` being the confirmation window
  of 1 s in whole samples (not the scoring tolerance), since a candidate
  is confirmed by index distance, plus a lead-in of ``k + 1`` centres,
  ``k`` being the time limit in samples, widened back where needed to an
  alarm that provably restarts the time-limit chain
  (:mod:`nilmevents.filtering`), and reads ``n + h`` samples of trace
  beyond them on either side, ``h`` being the SG half window.

Look-ahead is not bounded by the configured windows.  The per-candidate
decisions read a bounded stretch past a candidate (the base after-window,
the LOESS and Savitzky-Golay half windows, the confirmation window and
the extremum guard radius), but the refilter trigger compares the maximum
of ``series.values[first_on.index:]``, which runs to the end of the
trace, with ``fluctuation_trigger_watts``.  Whether the refilter runs at
all, and so whether an early candidate is kept, can therefore depend on
samples arbitrarily far ahead.  ROADMAP item 6 replaces it with a local
trigger.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import detect_base
from .core import DetectionError, Events, HybridConfig, SampleSeries, SeriesTooShort, _check_type

# ``validate_series`` is no longer called here, but stays importable under
# this module: the benchmark's tracer (perfbench/tracer.py) wraps
# ``nilmevents.pipeline.validate_series`` by name.
from .core import validate_series  # noqa: F401
from .derivative import InvalidWindow, _SmoothedDerivative, detect_extrema, merge_transient_events

# ``first_derivative`` and ``loess_smooth`` are not called here, but stay
# importable under this module: the benchmark's tracer (perfbench/tracer.py)
# wraps ``nilmevents.pipeline.first_derivative`` and
# ``nilmevents.pipeline.loess_smooth`` by name.
from .derivative import first_derivative, loess_smooth  # noqa: F401
from .filtering import FilterVerdicts, refilter_events_with_verdicts

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


@dataclass(frozen=True, eq=False)
class PipelineResult:
    """The events, extrema and verdicts the pipeline found in one trace.

    ``base_events`` holds every base detection once.  ``merged_positions``
    and ``final_positions`` are the increasing positions, into
    ``base_events``, of the events that survive the merge and the
    refilter; ``merged_events`` and ``events`` are those subsets, so every
    final event is a merged event and every merged event a base event.
    ``extrema`` holds the sample indices of the significant extrema the
    refilter's guard read: those within the guard radius of a candidate
    the re-detection did not confirm, and none when the refilter did not
    fire.  ``filter_verdicts`` holds one verdict per merged event when the
    refilter fired (none otherwise).  No full-length trace is kept:
    :func:`~nilmevents.derivative.first_derivative` of ``series.values``
    recomputes the derivative trace, and
    :func:`~nilmevents.derivative.loess_smooth` of that, with
    ``config.loess_window_samples(series.sampling_rate_hz)``, the smoothed
    one, on which :func:`~nilmevents.derivative.detect_extrema` finds every
    significant extremum.
    """

    base_events: Events
    merged_positions: np.ndarray
    final_positions: np.ndarray
    extrema: np.ndarray
    filter_verdicts: FilterVerdicts

    @property
    def merged_events(self) -> Events:
        return self.base_events[self.merged_positions]

    @property
    def events(self) -> Events:
        """The final detections."""
        return self.base_events[self.final_positions]

    @property
    def stage_counts(self) -> StageCounts:
        return StageCounts(
            len(self.base_events), self.merged_positions.size, self.final_positions.size
        )


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
        Final events plus per-stage events, the refilter verdicts, and
        the significant extrema the refilter's guard read (strict
        extrema of the smoothed derivative whose magnitude exceeds
        ``derivative_epsilon``).  The derivative traces are not kept;
        :class:`PipelineResult` says how to recompute them.

    Raises
    ------
    WrongType
        If ``series`` is not a :class:`SampleSeries` or ``config`` not a
        :class:`HybridConfig`.
    InvalidWindow
        Before any stage runs, if ``loess_window_s`` is shorter than the
        3 samples a LOESS window needs at the series' rate.
    SeriesTooShort
        Before any stage runs, if the series is shorter than the longest
        window a stage needs: ``max(2n + 1, LOESS window, SG window)``,
        where ``n`` is the base detector's half-window in samples.

    Notes
    -----
    The result is a pure function of ``(series, config)``: repeated calls
    return identical results.
    """
    _check_type("series", series, SampleSeries)
    _check_type("config", config, HybridConfig)
    base_span = 2 * config.mean_window_samples(series.sampling_rate_hz) + 1
    loess_window = config.loess_window_samples(series.sampling_rate_hz)
    if loess_window < 3:
        raise InvalidWindow(
            f"loess_window_s = {config.loess_window_s:g} s is {loess_window} sample at "
            f"{series.sampling_rate_hz:g} Hz; the LOESS window needs at least 3 samples"
        )
    minimum = max(base_span, loess_window, config.sg_window_samples)
    if len(series) < minimum:
        raise SeriesTooShort(
            f"need at least {minimum} samples (base windows {base_span}, LOESS window "
            f"{loess_window}, SG window {config.sg_window_samples}), got {len(series)}"
        )
    base_events = detect_base(series, config)

    derivative = _SmoothedDerivative(series.values, loess_window)
    merged_positions = merge_transient_events(base_events, derivative, series, config)

    def guard_extrema(indices: np.ndarray, radius: int) -> np.ndarray:
        # An extremum within the radius is told by its neighbours, one sample further.
        near = derivative.read(indices - radius - 1, indices + radius + 2)
        return detect_extrema(near, min_abs_value=config.derivative_epsilon)

    kept, verdicts, extrema = refilter_events_with_verdicts(
        series, base_events[merged_positions], guard_extrema, config
    )
    return PipelineResult(
        base_events=base_events,
        merged_positions=merged_positions,
        final_positions=merged_positions[kept],
        extrema=extrema,
        filter_verdicts=verdicts,
    )
