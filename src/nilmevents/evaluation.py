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

__all__ = [
    "NegativeTolerance",
    "coalesce_simultaneous",
    "match_events",
    "evaluate_detections",
]


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


def _find(parent: list[int], k: int) -> int:
    """Root of ``k`` in a pointer forest, halving the path on the way."""
    while parent[k] != k:
        parent[k] = parent[parent[k]]
        k = parent[k]
    return k


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

    The detections are stably sorted by time once.  For each entry a
    binary search finds its place, and two pointer forests skip claimed
    detections to the nearest unclaimed one on either side.  Since
    ``fl(det - truth)`` is monotone in ``det``, the nearest candidates
    lie next to that place; only detections at exactly the same distance
    are compared by position.  The cost is O((D + T) log D) for D
    detections and T entries, against O(D * T) for a full scan per entry.

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
    # Slots k with equal times form one group [group_start[k], group_end[k]).
    group_start = list(range(size))
    for k in range(1, size):
        if times[k] == times[k - 1]:
            group_start[k] = group_start[k - 1]
    group_end = [size] * size
    for k in range(size - 2, -1, -1):
        group_end[k] = group_end[k + 1] if times[k] == times[k + 1] else k + 1
    # _find(upward, k) is the first unclaimed slot >= k (size if none);
    # _find(downward, k + 1) - 1 is the last unclaimed slot <= k (-1 if none).
    upward = list(range(size + 1))
    downward = list(range(size + 1))

    pairs: list[tuple[int, int]] = []
    for truth_pos, entry in enumerate(truth):
        t = entry.timestamp_s
        split = bisect.bisect_left(times, t)
        right = _find(upward, split)
        left = _find(downward, split) - 1
        right_distance = abs(times[right] - t) if right < size else math.inf
        left_distance = abs(times[left] - t) if left >= 0 else math.inf
        best_distance = min(right_distance, left_distance)
        if not best_distance <= tolerance_s:
            continue
        # Every group at best_distance offers its first unclaimed slot,
        # which holds the group's smallest unclaimed position.
        best_slot = -1
        slot = right
        while slot < size and abs(times[slot] - t) == best_distance:
            first = _find(upward, group_start[slot])
            if best_slot < 0 or order[first] < order[best_slot]:
                best_slot = first
            slot = _find(upward, group_end[slot])
        slot = left
        while slot >= 0 and abs(times[slot] - t) == best_distance:
            first = _find(upward, group_start[slot])
            if best_slot < 0 or order[first] < order[best_slot]:
                best_slot = first
            slot = _find(downward, group_start[slot]) - 1
        upward[best_slot] = best_slot + 1
        downward[best_slot + 1] = best_slot
        pairs.append((order[best_slot], truth_pos))
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
