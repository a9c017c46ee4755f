"""Shared data model for power-draw event detection.

A trace is a uniformly sampled sequence of aggregate power readings in
watts.  Detectors report state-transition events as sample indices plus
timestamps, and every tunable quantity lives in :class:`HybridConfig` so
that a single frozen object describes one detection run.  Detectors
return, and scorers and writers take, :class:`Events`: three parallel
arrays that enforce the event rules once; a :class:`DetectedEvent` is an
unchecked view of one position, built only where a caller reads events
one at a time.  Durations are configured in seconds and converted to
sample counts at the configured sampling rate via
:func:`seconds_to_samples`.  The full-length passes of the other modules
cut their range into blocks with ``_map_blocks``, so that each block's
temporaries stay in cache, and return the same results for any block size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, TypeVar

import numpy as np

__all__ = [
    "DetectionError",
    "EmptySeries",
    "NonPositiveRate",
    "NonPositiveDuration",
    "NonFiniteValue",
    "SeriesTooShort",
    "MisalignedInput",
    "UnsortedInput",
    "InconsistentCounts",
    "ZeroGroundTruth",
    "SampleSeries",
    "DetectedEvent",
    "Events",
    "HybridConfig",
    "GroundTruthEntry",
    "GroundTruthLog",
    "EvaluationReport",
    "seconds_to_samples",
    "validate_series",
]


class DetectionError(ValueError):
    """Root of every domain error raised by this package."""


class EmptySeries(DetectionError):
    """A trace contained no samples."""


class NonPositiveRate(DetectionError):
    """A sampling rate was zero, negative, or not finite."""


class NonPositiveDuration(DetectionError):
    """A duration that must be positive was zero or negative."""


class NonFiniteValue(DetectionError):
    """A value that must be finite was NaN or infinite."""


class SeriesTooShort(DetectionError):
    """A trace had too few samples for the requested analysis window."""


class MisalignedInput(DetectionError):
    """Two inputs that must describe the same trace disagree in extent."""


class UnsortedInput(DetectionError):
    """Entries that must be in non-decreasing time order were not."""


class InconsistentCounts(DetectionError):
    """Outcome counts were negative or do not add up."""


class ZeroGroundTruth(DetectionError):
    """Rates were requested against an empty reference log."""


def seconds_to_samples(duration_s: float, rate_hz: float) -> int:
    """Convert a duration to a sample count, never returning less than 1.

    Parameters
    ----------
    duration_s:
        Duration in seconds, must be positive.
    rate_hz:
        Sampling rate in hertz, must be positive.

    Returns
    -------
    int
        ``max(1, round(duration_s * rate_hz))``.
    """
    if not math.isfinite(duration_s) or duration_s <= 0:
        raise NonPositiveDuration(f"duration_s must be positive, got {duration_s}")
    if not math.isfinite(rate_hz) or rate_hz <= 0:
        raise NonPositiveRate(f"rate_hz must be positive, got {rate_hz}")
    return max(1, round(duration_s * rate_hz))


@dataclass(frozen=True)
class SampleSeries:
    """Uniformly sampled power trace in watts."""

    values: np.ndarray
    sampling_rate_hz: float
    start_time_s: float = 0.0

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", arr)
        if arr.ndim != 1:
            raise DetectionError(f"values must be one-dimensional, got shape {arr.shape}")
        if arr.size == 0:
            raise EmptySeries("series contains no samples")
        if not math.isfinite(self.sampling_rate_hz) or self.sampling_rate_hz <= 0:
            raise NonPositiveRate(
                f"sampling_rate_hz must be positive, got {self.sampling_rate_hz}"
            )
        if not np.isfinite(arr).all():
            raise NonFiniteValue("series contains NaN or infinite samples")
        if not math.isfinite(self.start_time_s):
            raise NonFiniteValue(f"start_time_s must be finite, got {self.start_time_s}")

    def __len__(self) -> int:
        return self.values.size

    def time_at(self, index: int | np.ndarray) -> float | np.ndarray:
        """Absolute timestamp of the sample at ``index``.

        ``index`` is an int or an integer index array; an array gives the
        array of timestamps, each computed by the same formula.
        """
        return self.start_time_s + index / self.sampling_rate_hz


# Samples per block of a full-length pass: small enough that a block's
# temporaries stay in cache, large enough that dispatch costs little.
_BLOCK_SAMPLES = 1 << 14

_T = TypeVar("_T")


def _map_blocks(fn: Callable[[int, int], _T], size: int) -> list[_T]:
    """``[fn(start, stop) for each block [start, stop) of [0, size)]``, in block order.

    ``[0, size)`` is cut into blocks of ``_BLOCK_SAMPLES``, run one after
    another on the calling thread.  The outcome does not depend on the
    block size as long as ``fn`` reads only its own block and writes only
    its own slice of any shared output.  An exception in a block stops
    the map and reaches the caller unchanged.
    """
    block_size = _BLOCK_SAMPLES
    return [fn(start, min(start + block_size, size)) for start in range(0, size, block_size)]


def validate_series(series: SampleSeries) -> SampleSeries:
    """Re-run every series invariant and return an equivalent series.

    Raises the same errors as the :class:`SampleSeries` constructor, which
    makes it a cheap guard at pipeline entry points that accept
    caller-built instances.
    """
    return SampleSeries(series.values, series.sampling_rate_hz, series.start_time_s)


@dataclass(frozen=True)
class DetectedEvent:
    """One detected state transition: a view of one :class:`Events` position.

    ``delta_watts`` is the before/after mean power difference measured at
    the emitting detector's alarm index; its sign distinguishes turn-on
    from turn-off transitions.  An event carries no stage tag: its stage
    is the :class:`~nilmevents.pipeline.PipelineResult` list that holds it.
    The view is not checked again: the :class:`Events` it came from holds
    the event rules, and no function takes a ``DetectedEvent``.
    """

    index: int
    timestamp_s: float
    delta_watts: float


@dataclass(frozen=True, eq=False)
class Events:
    """Detected events as three parallel arrays, in the order given.

    Every detector returns one, and every scorer and writer takes one.
    ``indices`` (int64), ``timestamps_s`` and ``deltas_watts`` (float64)
    describe one event per position and are checked once, vectorised:
    an index must be non-negative (:class:`DetectionError`) and a
    timestamp or delta finite (:class:`NonFiniteValue`); the message
    names the first bad value.  ``len()`` is the event count; iterating,
    or indexing with an integer, yields :class:`DetectedEvent` views,
    while indexing with a slice, a mask or an array of positions yields
    another :class:`Events`.  Two :class:`Events` are equal when all
    three arrays are.
    """

    indices: np.ndarray
    timestamps_s: np.ndarray
    deltas_watts: np.ndarray

    def __post_init__(self) -> None:
        indices = np.asarray(self.indices, dtype=np.int64)
        timestamps = np.asarray(self.timestamps_s, dtype=float)
        deltas = np.asarray(self.deltas_watts, dtype=float)
        if not indices.ndim == timestamps.ndim == deltas.ndim == 1:
            raise DetectionError("event arrays must be one-dimensional")
        if not indices.size == timestamps.size == deltas.size:
            raise MisalignedInput(
                "event arrays differ in length: "
                f"{indices.size} / {timestamps.size} / {deltas.size}"
            )
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "timestamps_s", timestamps)
        object.__setattr__(self, "deltas_watts", deltas)
        negative = np.flatnonzero(indices < 0)
        if negative.size:
            raise DetectionError(f"event index must be >= 0, got {indices[negative[0]]}")
        bad = np.flatnonzero(~np.isfinite(timestamps))
        if bad.size:
            raise NonFiniteValue(f"event timestamp must be finite, got {timestamps[bad[0]]}")
        bad = np.flatnonzero(~np.isfinite(deltas))
        if bad.size:
            raise NonFiniteValue(f"event delta must be finite, got {deltas[bad[0]]}")

    def __len__(self) -> int:
        return self.indices.size

    def __iter__(self) -> Iterator[DetectedEvent]:
        return map(
            DetectedEvent,
            self.indices.tolist(),
            self.timestamps_s.tolist(),
            self.deltas_watts.tolist(),
        )

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            return DetectedEvent(
                int(self.indices[key]),
                float(self.timestamps_s[key]),
                float(self.deltas_watts[key]),
            )
        return Events(self.indices[key], self.timestamps_s[key], self.deltas_watts[key])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Events):
            return NotImplemented
        return (
            np.array_equal(self.indices, other.indices)
            and np.array_equal(self.timestamps_s, other.timestamps_s)
            and np.array_equal(self.deltas_watts, other.deltas_watts)
        )


@dataclass(frozen=True)
class HybridConfig:
    """Tunables for the hybrid detection pipeline.

    Defaults suit a 20 Hz residential trace with appliance steps well
    above 25 W.  Installations dominated by very small loads or long
    fluctuating transients are expected to tune the threshold, the two
    smoothing windows, and the settle threshold for the appliance mix at
    hand.
    """

    mean_window_s: float = 0.3
    power_threshold_watts: float = 25.0
    time_limit_s: float = 0.2
    derivative_epsilon: float = 0.5
    settle_threshold_s: float = 2.0
    loess_window_s: float = 2.0
    sg_window_samples: int = 9
    sg_poly_order: int = 3
    fluctuation_trigger_watts: float = 1000.0
    eval_match_tolerance_s: float = 1.0

    def __post_init__(self) -> None:
        positive = (
            ("mean_window_s", self.mean_window_s),
            ("power_threshold_watts", self.power_threshold_watts),
            ("time_limit_s", self.time_limit_s),
            ("derivative_epsilon", self.derivative_epsilon),
            ("settle_threshold_s", self.settle_threshold_s),
            ("loess_window_s", self.loess_window_s),
            ("fluctuation_trigger_watts", self.fluctuation_trigger_watts),
            ("eval_match_tolerance_s", self.eval_match_tolerance_s),
        )
        for name, value in positive:
            if not math.isfinite(value) or value <= 0:
                raise DetectionError(f"{name} must be positive, got {value}")
        if self.time_limit_s >= self.settle_threshold_s:
            raise DetectionError(
                "time_limit_s must be smaller than settle_threshold_s, got "
                f"{self.time_limit_s} >= {self.settle_threshold_s}"
            )
        if self.sg_window_samples < 3 or self.sg_window_samples % 2 == 0:
            raise DetectionError(
                f"sg_window_samples must be an odd integer >= 3, got {self.sg_window_samples}"
            )
        if not 0 <= self.sg_poly_order < self.sg_window_samples:
            raise DetectionError(
                "sg_poly_order must satisfy 0 <= order < sg_window_samples, got "
                f"{self.sg_poly_order}"
            )

    def mean_window_samples(self, rate_hz: float) -> int:
        """Half-window length of the base detector, in samples."""
        return seconds_to_samples(self.mean_window_s, rate_hz)

    def loess_window_samples(self, rate_hz: float) -> int:
        """Derivative smoothing window in samples, rounded up to odd."""
        n = seconds_to_samples(self.loess_window_s, rate_hz)
        return n if n % 2 == 1 else n + 1


@dataclass(frozen=True)
class GroundTruthEntry:
    """One labelled reference transition time."""

    timestamp_s: float
    label: str

    def __post_init__(self) -> None:
        if not math.isfinite(self.timestamp_s):
            raise NonFiniteValue(f"truth timestamp must be finite, got {self.timestamp_s}")


@dataclass(frozen=True)
class GroundTruthLog:
    """Reference transitions in non-decreasing time order."""

    entries: tuple[GroundTruthEntry, ...]

    def __post_init__(self) -> None:
        entries = tuple(self.entries)
        object.__setattr__(self, "entries", entries)
        for earlier, later in zip(entries, entries[1:]):
            if later.timestamp_s < earlier.timestamp_s:
                raise UnsortedInput(
                    "ground truth entries must be in non-decreasing time order: "
                    f"{later.timestamp_s} follows {earlier.timestamp_s}"
                )

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


@dataclass(frozen=True)
class EvaluationReport:
    """Detection quality counts and the rates derived from them.

    All three rates are fractions of the reference event count ``E``:
    ``tpr = tp / E``, ``fpr = fp / E`` and ``fnr = 1 - tpr``.  Note that
    ``fpr`` divides by the reference count, not by a negative count, so
    it measures spurious detections per true event and may exceed 1.
    Computing ``fnr`` as the complement keeps ``tpr + fnr == 1.0`` exact
    in floating point.

    ``matches`` holds ``(detection_position, truth_position)`` pairs into
    the sequences the report was computed from.

    Raises
    ------
    InconsistentCounts
        If any count is negative or ``tp + fn != ground_truth_count``.
    ZeroGroundTruth
        If ``ground_truth_count`` is zero.
    """

    tp: int
    fp: int
    fn: int
    ground_truth_count: int
    matches: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        for name in ("tp", "fp", "fn"):
            if getattr(self, name) < 0:
                raise InconsistentCounts(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.tp + self.fn != self.ground_truth_count:
            raise InconsistentCounts(
                "tp + fn must equal ground_truth_count, got "
                f"{self.tp} + {self.fn} != {self.ground_truth_count}"
            )
        if self.ground_truth_count == 0:
            raise ZeroGroundTruth("rates are undefined without reference events")
        object.__setattr__(self, "matches", tuple(self.matches))

    @property
    def tpr(self) -> float:
        return self.tp / self.ground_truth_count

    @property
    def fpr(self) -> float:
        return self.fp / self.ground_truth_count

    @property
    def fnr(self) -> float:
        return 1.0 - self.tpr
