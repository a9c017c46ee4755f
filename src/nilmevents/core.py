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
:func:`seconds_to_samples`, at most ``2**53`` samples.  The passes over
one contiguous range (the smoothers' interior convolution, the
refilter's profile, the time-limit walk and the trace writer) walk it in
the blocks of ``_blocks``, so that each block's temporaries stay in
cache, and return the same results for any block size.

A stage that computes only near where it reads (``detect_base``, the
smoothed derivative and ``lld_max``) lays out the ranges it needs as
pieces (:class:`_Layout`), each owning a range of samples and reading it
widened by ``before`` and ``after`` samples, clipped to the trace
(``_reads``); ``_piece_groups`` groups pieces of at most a block about a
block at a time.  The stage runs its whole-array kernel once over a
group's reads laid end to end (:meth:`_Layout.take`), and keeps the
outputs whose sample the piece holding them owns (:meth:`_Layout.own`).

**Exactness.**  Let the kernel's output at sample ``s`` read only
samples in ``[s - before, s + after]``.  Then an output that ``own``
keeps reads only its own piece's samples, laid out as in the trace: it
is the dot product the kernel takes over the whole trace, of the same
samples in the same order, so bit for bit the same for any block size.
An output that straddles two pieces is owned by neither, and dropped.
An output whose reads would pass an end of the trace (the derivative's
zero pad, a smoother's end fits, LLD-Max's zeros past the profile) is
the whole-trace one where its piece is the first, or the last, in the
gathered array, and reads at least one smoothing window from that end:
the kernel then sees the trace's end and the trace's own end window.
So a read that touches an end spans at least one window (``_reads``), a
piece whose read does so comes first, or last, in its group
(``_piece_groups``), and a smoother's end fits depend only on the
samples of its end window, not on where they sit in memory.

Every trace-wide fact the detectors need comes from one summary that a
:class:`SampleSeries` builds at construction, the min and the max of each
64-sample block (:class:`_Summary`): finiteness, the peak, the refilter
trigger's maximum, and the range bounds that prove blocks quiet, whose
runs of unproven proof blocks ``_proof_runs`` turns into sample ranges.
A series makes its samples read-only, so the summary stays true and no
stage builds it again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Iterator, NamedTuple

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


# The most samples a duration converts to: more than any series holds.
_MAX_SAMPLES = 2**53


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
        ``max(1, round(duration_s * rate_hz))``, at most ``2**53``.  No
        series holds that many samples, so a longer duration takes every
        decision as its exact count would, and index arithmetic on it
        stays inside int64.
    """
    if not math.isfinite(duration_s) or duration_s <= 0:
        raise NonPositiveDuration(f"duration_s must be positive, got {duration_s}")
    if not math.isfinite(rate_hz) or rate_hz <= 0:
        raise NonPositiveRate(f"rate_hz must be positive, got {rate_hz}")
    samples = duration_s * rate_hz  # may overflow to inf
    return _MAX_SAMPLES if samples >= _MAX_SAMPLES else max(1, round(samples))


# Samples per block of a series' summary: fine enough that a range bound
# widened to whole blocks reads few samples more than it needs.
_SUMMARY_SAMPLES = 64

# Samples per proof block of a range bound: a transient keeps only a block or
# two unproven, and the per-block work stays small.
_PROOF_BLOCK_SAMPLES = 1024


@dataclass(frozen=True, eq=False)
class _Summary:
    """The min and the max of each 64-sample block of a trace, the last maybe shorter.

    A NaN propagates through ``np.minimum`` and ``np.maximum``, and an
    infinite sample is itself an extreme, so the block extremes are all
    finite exactly when every sample is.  ``low`` and ``high`` are views
    of ``padded_low`` and ``padded_high``, which end in one more entry,
    ``+inf`` and ``-inf``, for :meth:`block_ranges` to cut at.
    """

    size: int
    padded_low: np.ndarray
    padded_high: np.ndarray

    @classmethod
    def of(cls, x: np.ndarray) -> _Summary:
        starts = np.arange(0, x.size, _SUMMARY_SAMPLES)
        low = np.full(starts.size + 1, np.inf)
        high = np.full(starts.size + 1, -np.inf)
        np.minimum.reduceat(x, starts, out=low[:-1])
        np.maximum.reduceat(x, starts, out=high[:-1])
        return cls(x.size, low, high)

    @property
    def low(self) -> np.ndarray:
        return self.padded_low[:-1]

    @property
    def high(self) -> np.ndarray:
        return self.padded_high[:-1]

    def peak(self) -> float:
        """``max|x|``, exactly."""
        return max(float(self.high.max()), -float(self.low.min()))

    def max_from(self, x: np.ndarray, start: int) -> float:
        """``x[start:].max()``, exactly: the samples up to the next block, then block maxima."""
        first = -(-start // _SUMMARY_SAMPLES)  # the first block that starts at or after start
        parts = (x[start : first * _SUMMARY_SAMPLES], self.high[first:])
        return max(float(part.max()) for part in parts if part.size)

    def block_ranges(self, before: int, after: int) -> tuple[np.ndarray, np.ndarray]:
        """Per proof block, a min and a max over at least the block and its halo.

        Proof block ``b`` covers ``[b * P, (b + 1) * P)``, ``P =
        _PROOF_BLOCK_SAMPLES``.  Its entries reduce the summary blocks that
        meet it widened by ``before`` samples before and ``after`` after,
        clipped to the trace: at most 63 samples more on either side.
        """
        starts = np.arange(0, self.size, _PROOF_BLOCK_SAMPLES)
        lo = np.maximum(starts - before, 0) // _SUMMARY_SAMPLES
        hi = -(-np.minimum(starts + _PROOF_BLOCK_SAMPLES + after, self.size) // _SUMMARY_SAMPLES)
        # One reduceat per extreme over the cuts lo[0], hi[0], lo[1], hi[1], ...:
        # its even entries reduce the blocks [lo, hi), and each odd one a single
        # block, since hi[b] >= lo[b + 1].  The padding entry lets a cut be the count.
        cuts = np.column_stack((lo, hi)).ravel()
        low = np.minimum.reduceat(self.padded_low, cuts)[::2]
        high = np.maximum.reduceat(self.padded_high, cuts)[::2]
        return low, high


@dataclass(frozen=True, eq=False)
class SampleSeries:
    """Uniformly sampled power trace in watts, whose samples are read-only.

    ``values`` is the array given, with no copy when it is a float64
    ndarray; any other input is converted once.  Once every check has
    passed, the series clears ``flags.writeable`` on ``values`` and on
    each ndarray on its ``.base`` chain, so a write through ``values``,
    through the array passed in, or through any view taken afterwards
    raises numpy's ``ValueError``; an input that is refused is left as it
    was.  Copy the array first to keep writing into it.  So ``summary``
    (:class:`_Summary`), built at construction, stays true for the life
    of the series, and every stage reads it.  Not supported: a writable
    view of the same memory taken *before* construction, or a buffer
    under the array that is not an ndarray (``np.frombuffer`` of a
    ``bytearray``); a write through either goes unseen by the summary.

    Two series are equal when their values, rate and start time are; the
    summary takes no part.
    """

    values: np.ndarray
    sampling_rate_hz: float
    start_time_s: float = 0.0
    summary: _Summary = field(init=False, repr=False)

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
        summary = _Summary.of(arr)
        if not (np.isfinite(summary.low).all() and np.isfinite(summary.high).all()):
            raise NonFiniteValue("series contains NaN or infinite samples")
        if not math.isfinite(self.start_time_s):
            raise NonFiniteValue(f"start_time_s must be finite, got {self.start_time_s}")
        object.__setattr__(self, "summary", summary)
        owner = arr
        while isinstance(owner, np.ndarray):
            owner.flags.writeable = False
            owner = owner.base

    def __len__(self) -> int:
        return self.values.size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SampleSeries):
            return NotImplemented
        return (
            np.array_equal(self.values, other.values)
            and self.sampling_rate_hz == other.sampling_rate_hz
            and self.start_time_s == other.start_time_s
        )

    def time_at(self, index: int | np.ndarray) -> float | np.ndarray:
        """Absolute timestamp of the sample at ``index``.

        ``index`` is an int or an integer index array; an array gives the
        array of timestamps, each computed by the same formula.
        """
        return self.start_time_s + index / self.sampling_rate_hz


# Samples per block of a full-length pass: small enough that a block's
# temporaries stay in cache, large enough that dispatch costs little.
_BLOCK_SAMPLES = 1 << 14


def _blocks(size: int) -> Iterator[tuple[int, int]]:
    """The blocks ``[start, stop)`` of ``_BLOCK_SAMPLES`` that cut ``[0, size)``, in order.

    Every block but the last is ``_BLOCK_SAMPLES`` long, so none is longer
    than the first.
    """
    block_size = _BLOCK_SAMPLES
    return ((start, min(start + block_size, size)) for start in range(0, size, block_size))


def _aranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The integers of the ranges ``[starts, starts + lengths)``, laid end to end in order.

    ``x[_aranges(starts, lengths)]`` gathers the samples of several ranges
    of ``x`` into one array with no Python loop per range.
    """
    offsets = np.cumsum(lengths) - lengths  # where each range begins in the result
    out = np.repeat(starts - offsets, lengths)
    out += np.arange(out.size)
    return out


def _union(starts: np.ndarray, stops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The union of the ranges ``[starts, stops)``: increasing, disjoint, never touching."""
    keep = starts < stops
    order = np.argsort(starts[keep], kind="stable")
    starts, reach = starts[keep][order], np.maximum.accumulate(stops[keep][order])
    opens = np.flatnonzero(starts[1:] > reach[:-1]) + 1
    return (
        np.concatenate((starts[:1], starts[opens])),
        np.concatenate((reach[opens - 1], reach[-1:])),
    )


class _Layout(NamedTuple):
    """Pieces of a trace: piece ``k`` owns ``[starts[k], stops[k])`` and reads ``[lo[k], hi[k])``.

    The owned ranges are increasing and disjoint, each inside its reads.
    """

    starts: np.ndarray
    stops: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    def take(self, x: np.ndarray) -> np.ndarray:
        """The pieces' reads of ``x``, laid end to end; a view of ``x`` for one piece."""
        if self.lo.size == 1:
            return x[int(self.lo[0]) : int(self.hi[0])]
        return x[_aranges(self.lo, self.hi - self.lo)]

    def own(self, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(kept, samples)`` of the non-decreasing ``positions`` into :meth:`take`'s array.

        ``kept`` indexes the positions whose sample the piece holding them
        owns, and ``samples`` holds those samples.  The pieces' ``2P`` cuts
        are searched among the positions, not each position among the cuts.
        """
        widths = self.hi - self.lo
        shift = self.lo - (np.cumsum(widths) - widths)  # a sample's index less its position
        first = np.searchsorted(positions, self.starts - shift)
        counts = np.searchsorted(positions, self.stops - shift) - first
        kept = _aranges(first, counts)
        return kept, positions[kept] + np.repeat(shift, counts)

    def owned(self) -> np.ndarray:
        """The positions, in :meth:`take`'s array, of every sample the pieces own, in order."""
        widths = self.hi - self.lo
        at = np.cumsum(widths) - widths  # where each piece's reads begin
        return _aranges(self.starts - self.lo + at, self.stops - self.starts)


def _reads(
    starts: np.ndarray, stops: np.ndarray, before: int, after: int, size: int, window: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """The reads ``[lo, hi)`` of pieces that own ``[starts, stops)``.

    A piece reads ``before`` and ``after`` samples more, clipped to the
    ``size`` samples of the trace.  A read that touches an end of the trace
    spans at least ``window <= size`` samples from that end, so that a
    smoother of that window reads the trace's own end window there.
    """
    lo, hi = np.maximum(starts - before, 0), np.minimum(stops + after, size)
    hi = np.where(lo == 0, np.maximum(hi, window), hi)
    return np.where(hi == size, np.minimum(lo, size - window), lo), hi


def _piece_groups(
    starts: np.ndarray,
    stops: np.ndarray,
    before: int,
    after: int,
    size: int,
    window: int = 0,
    piece: int = 0,
) -> Iterator[_Layout]:
    """The ranges ``[starts, stops)`` in pieces of at most ``_BLOCK_SAMPLES``, a group at a time.

    A piece reads as :func:`_reads` says.  With all reads laid end to end,
    a group opens at each piece whose read begins past another block
    multiple, so a group reads less than two blocks and ``before + after``
    (or ``window``).  A group also opens at each piece whose read begins at
    sample 0, and after each whose read ends at ``size``: such a piece is
    the first, or the last, of its group.  A ``piece`` longer than a block
    cuts the ranges into pieces of at most that many samples instead.
    """
    block = _BLOCK_SAMPLES
    length = max(block, piece)
    count = -(-(stops - starts) // length)  # pieces per range
    begins = np.repeat(starts, count) + length * _aranges(np.zeros_like(count), count)
    ends = np.minimum(begins + length, np.repeat(stops, count))
    lo, hi = _reads(begins, ends, before, after, size, window)
    reads = hi - lo
    opens = np.diff((np.cumsum(reads) - reads) // block, prepend=-1) != 0
    opens |= lo == 0
    opens[1:] |= hi[:-1] == size
    opens = np.flatnonzero(opens)
    for a, b in zip(opens.tolist(), [*opens[1:].tolist(), begins.size]):
        yield _Layout(begins[a:b], ends[a:b], lo[a:b], hi[a:b])


@dataclass(frozen=True, eq=False)
class _Ranges:
    """The samples of a trace of ``size`` samples on a few sample ranges.

    Range ``k`` is ``[starts[k], stops[k])``; the ranges are non-empty,
    increasing, disjoint and never touch, and ``values`` holds their
    samples, concatenated in range order.  Nothing is known of the
    samples outside them.  A dense array is the one-range case.
    """

    size: int
    starts: np.ndarray
    stops: np.ndarray
    values: np.ndarray

    @classmethod
    def of(cls, trace: np.ndarray | _Ranges) -> _Ranges:
        """``trace`` itself if it is ranges, else the dense array as one range."""
        if isinstance(trace, _Ranges):
            return trace
        x = np.asarray(trace, dtype=float)
        return cls(x.size, np.array([0]), np.array([x.size]), x)

    def indices(self, positions: np.ndarray) -> np.ndarray:
        """The sample indices of the non-decreasing ``positions`` into ``values``."""
        lengths = self.stops - self.starts
        offsets = np.cumsum(lengths) - lengths  # where each range starts in ``values``
        per_range = np.diff(np.searchsorted(positions, offsets), append=positions.size)
        return positions + np.repeat(self.starts - offsets, per_range)


def _proof_runs(active: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """``(starts, stops)``: each run of active proof blocks as a range, clipped to ``[0, size)``.

    Proof block ``b`` covers samples ``[b * P, (b + 1) * P)``, with ``P =
    _PROOF_BLOCK_SAMPLES``, and is active where ``active[b]`` is true.  Each
    maximal run of consecutive active blocks gives one range; the ranges
    come in increasing order and no two touch.
    """
    flags = np.concatenate(([0], np.asarray(active, dtype=np.int8), [0]))
    edges = np.flatnonzero(np.diff(flags)) * _PROOF_BLOCK_SAMPLES
    return edges[0::2], np.minimum(edges[1::2], size)


def validate_series(series: SampleSeries) -> SampleSeries:
    """Re-run every series invariant and return an equivalent series.

    Raises the same errors as the :class:`SampleSeries` constructor.  The
    series is rebuilt on the same read-only samples, so its ``summary`` is
    built again, a full pass over the trace.  No stage calls it: a
    series' samples cannot change after construction, so its own
    ``summary`` already describes them.
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


_POSITIVE_SETTINGS = frozenset(
    (
        "mean_window_s",
        "power_threshold_watts",
        "time_limit_s",
        "derivative_epsilon",
        "settle_threshold_s",
        "loess_window_s",
        "fluctuation_trigger_watts",
        "eval_match_tolerance_s",
    )
)


def _check_integer(name: str, value: object) -> None:
    """Reject a sample count or polynomial order that is not an integer."""
    if not isinstance(value, (int, np.integer)):
        raise DetectionError(f"{name} must be an integer, got {value}")


def _check_setting(name: str, value: float) -> None:
    """Reject a :class:`HybridConfig` value that is wrong whatever the other fields hold.

    The rules that relate two fields are checked by the config itself, so
    a config file can be checked one line at a time.
    """
    if name in ("sg_window_samples", "sg_poly_order"):
        _check_integer(name, value)
    if name in _POSITIVE_SETTINGS:
        if not math.isfinite(value):
            raise NonFiniteValue(f"{name} must be finite, got {value}")
        if value <= 0:
            raise DetectionError(f"{name} must be positive, got {value}")
    elif name == "sg_window_samples" and (value < 3 or value % 2 == 0):
        raise DetectionError(f"sg_window_samples must be an odd integer >= 3, got {value}")
    elif name == "sg_poly_order" and value < 0:
        raise DetectionError(
            f"sg_poly_order must satisfy 0 <= order < sg_window_samples, got {value}"
        )


@dataclass(frozen=True)
class HybridConfig:
    """Tunables for the hybrid detection pipeline.

    Defaults suit a 20 Hz residential trace with appliance steps well
    above 25 W.  Installations dominated by very small loads or long
    fluctuating transients are expected to tune the threshold, the two
    smoothing windows, and the settle threshold for the appliance mix at
    hand.

    Every duration is rounded to the nearest whole sample, at least 1 and
    at most ``2**53``, by :func:`seconds_to_samples` at the series' rate
    before any decision reads it, so every detection decision is an
    integer test on sample indices: no timestamp is compared.
    ``eval_match_tolerance_s`` only scores: ``evaluate`` and ``compare``
    match detections to a reference log within it, and no detection
    reads it.
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
        for field in fields(self):
            _check_setting(field.name, getattr(self, field.name))
        if self.time_limit_s >= self.settle_threshold_s:
            raise DetectionError(
                "time_limit_s must be smaller than settle_threshold_s, got "
                f"{self.time_limit_s} >= {self.settle_threshold_s}"
            )
        if self.sg_poly_order >= self.sg_window_samples:
            raise DetectionError(
                "sg_poly_order must satisfy 0 <= order < sg_window_samples, got "
                f"{self.sg_poly_order}"
            )

    def mean_window_samples(self, rate_hz: float) -> int:
        """Half-window length of the base detector, in samples."""
        return seconds_to_samples(self.mean_window_s, rate_hz)

    def time_limit_samples(self, rate_hz: float) -> int:
        """``k``: an alarm is emitted more than ``k`` samples after the last one."""
        return seconds_to_samples(self.time_limit_s, rate_hz)

    def settle_samples(self, rate_hz: float) -> int:
        """``m``: a settled run of more than ``m`` samples separates two transitions."""
        return seconds_to_samples(self.settle_threshold_s, rate_hz)

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
