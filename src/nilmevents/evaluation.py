"""Scoring detections against a labelled reference log.

Matching is greedy in reference order: each reference transition claims
the nearest not-yet-claimed detection, provided the time gap is within
the tolerance, breaking distance ties toward the earlier detection.
Reference entries that share one timestamp describe a single aggregate
transition (several appliances switching in the same instant are
indistinguishable in a sum signal), so they are coalesced into one entry
before matching.  The rates are defined by :class:`EvaluationReport`.
"""

from __future__ import annotations

import bisect
import math

from .core import (
    DetectionError,
    EvaluationReport,
    Events,
    GroundTruthEntry,
    GroundTruthLog,
)

__all__ = ["NegativeTolerance", "coalesce_simultaneous", "match_events", "evaluate_detections"]


class NegativeTolerance(DetectionError):
    """A matching tolerance was not a positive finite number."""


def coalesce_simultaneous(log: GroundTruthLog) -> GroundTruthLog:
    """Merge reference entries that share an exact timestamp.

    Labels of merged entries are joined with ``"+"`` in log order.  Entry
    order is otherwise preserved; timestamps that differ at all, however
    slightly, stay separate.
    """
    merged: list[GroundTruthEntry] = []
    for entry in log:
        if merged and entry.timestamp_s == merged[-1].timestamp_s:
            merged[-1] = GroundTruthEntry(
                timestamp_s=merged[-1].timestamp_s,
                label=f"{merged[-1].label}+{entry.label}",
            )
        else:
            merged.append(entry)
    return GroundTruthLog(entries=tuple(merged))


def match_events(
    detections: Events,
    truth: GroundTruthLog,
    tolerance_s: float,
) -> tuple[int, int, int, list[tuple[int, int]]]:
    """Pair detections with reference transitions, one-to-one.

    Walks the reference entries in time order; each entry claims the
    unclaimed detection nearest in time, provided the gap is at most
    ``tolerance_s``.  Equal distances resolve to the detection earlier in
    ``detections``, so with detections in time order the earlier one
    wins.

    The detections are stably sorted by time once, each with a claimed
    flag.  For each entry a binary search finds its place; from there the
    search walks right, then left, while the distance (``det - truth`` or
    ``truth - det``: the rounded ``abs(det - truth)``, which never
    decreases along a walk) is at most the best so far, at first
    ``tolerance_s``.  It steps over claimed detections; an unclaimed one
    becomes the best when strictly nearer, or equally near with a smaller
    position.  The cost is O(D log D) to sort D detections, then per
    entry O(log D) to place it plus one step per detection within the
    best distance, claimed ones included: a tolerance of minutes makes
    the walks long.

    Returns
    -------
    tuple
        ``(tp, fp, fn, matches)`` where ``tp`` counts matched pairs,
        ``fp`` unmatched detections, ``fn`` unmatched reference entries.
        ``matches`` holds ``(detection_position, truth_position)`` pairs
        ordered by truth position; each position appears at most once.

    Raises
    ------
    NegativeTolerance
        If ``tolerance_s`` is not a positive finite number.
    """
    if not math.isfinite(tolerance_s) or tolerance_s <= 0:
        raise NegativeTolerance(f"tolerance_s must be positive, got {tolerance_s}")
    stamps = detections.timestamps_s.tolist()
    order = sorted(range(len(stamps)), key=stamps.__getitem__)
    times = [stamps[pos] for pos in order]
    size = len(times)
    claimed = [False] * size

    pairs: list[tuple[int, int]] = []
    for truth_pos, entry in enumerate(truth):
        t = entry.timestamp_s
        split = bisect.bisect_left(times, t)
        best, best_distance = -1, tolerance_s
        k = split
        while k < size and (distance := times[k] - t) <= best_distance:
            if not claimed[k] and (distance < best_distance or best < 0 or order[k] < order[best]):
                best, best_distance = k, distance
            k += 1
        k = split - 1
        while k >= 0 and (distance := t - times[k]) <= best_distance:
            if not claimed[k] and (distance < best_distance or best < 0 or order[k] < order[best]):
                best, best_distance = k, distance
            k -= 1
        if best >= 0:
            claimed[best] = True
            pairs.append((order[best], truth_pos))
    tp = len(pairs)
    return tp, len(detections) - tp, len(truth) - tp, pairs


def evaluate_detections(
    detections: Events,
    truth: GroundTruthLog,
    tolerance_s: float,
) -> EvaluationReport:
    """Match detections against a reference log and compute rates.

    Simultaneous reference entries are merged first, and the reported
    match positions refer to the coalesced log.  Raises
    :class:`~nilmevents.core.ZeroGroundTruth` when the log is empty.
    """
    truth = coalesce_simultaneous(truth)
    tp, fp, fn, pairs = match_events(detections, truth, tolerance_s)
    return EvaluationReport(tp, fp, fn, len(truth), pairs)
