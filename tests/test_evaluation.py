"""Reference matching, coalescing, and rate computation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from nilmevents import (
    EvaluationReport,
    Events,
    GroundTruthEntry,
    GroundTruthLog,
    InconsistentCounts,
    NegativeTolerance,
    ZeroGroundTruth,
    coalesce_simultaneous,
    evaluate_detections,
    match_events,
)

from oracles import oracle_match

time_lists = st.lists(
    st.floats(min_value=0.0, max_value=500.0, allow_nan=False), min_size=0, max_size=25
).map(sorted)


def detections_at(times: list[float]) -> Events:
    return Events(np.arange(len(times)), times, np.full(len(times), 100.0))


def truth_at(times: list[float]) -> GroundTruthLog:
    return GroundTruthLog(
        entries=tuple(GroundTruthEntry(t, f"entry{i}") for i, t in enumerate(times))
    )


def log_with_shared_timestamps(distinct: int, shared: int) -> GroundTruthLog:
    """``distinct`` distinct-time entries plus ``shared`` duplicated ones."""
    entries = []
    for i in range(distinct):
        entries.append(GroundTruthEntry(float(10 * i), f"load{i} on"))
        if i < shared:
            entries.append(GroundTruthEntry(float(10 * i), f"extra{i} on"))
    return GroundTruthLog(entries=tuple(entries))


def test_coalesce_leaves_distinct_timestamps_alone() -> None:
    log = truth_at([1.0, 2.0, 2.0000001, 3.0])
    assert coalesce_simultaneous(log) == log


def test_coalesce_merges_exact_ties_and_joins_labels() -> None:
    log = GroundTruthLog(
        entries=(
            GroundTruthEntry(5.0, "kettle on"),
            GroundTruthEntry(7.5, "hood off"),
            GroundTruthEntry(7.5, "light on"),
            GroundTruthEntry(9.0, "kettle off"),
        )
    )
    merged = coalesce_simultaneous(log)
    assert len(merged) == 3
    assert merged.entries[1] == GroundTruthEntry(7.5, "hood off+light on")


def test_coalesce_count_arithmetic_for_large_logs() -> None:
    # 125 recorded entries, 8 of which share 4 timestamps pairwise.
    day = log_with_shared_timestamps(distinct=121, shared=4)
    assert len(day) == 125
    assert len(coalesce_simultaneous(day)) == 121
    # 904 recorded entries with 30 sharing 15 timestamps.
    week = log_with_shared_timestamps(distinct=889, shared=15)
    assert len(week) == 904
    assert len(coalesce_simultaneous(week)) == 889


def test_exact_detections_match_perfectly() -> None:
    times = [3.0, 17.5, 44.0, 118.25]
    tp, fp, fn, pairs = match_events(detections_at(times), truth_at(times), 1.0)
    assert (tp, fp, fn) == (4, 0, 0)
    assert pairs == [(0, 0), (1, 1), (2, 2), (3, 3)]


def test_single_detection_between_two_truths_matches_the_nearer() -> None:
    tp, fp, fn, pairs = match_events(detections_at([10.4]), truth_at([10.0, 11.0]), 0.5)
    assert (tp, fp, fn) == (1, 0, 1)
    assert pairs == [(0, 0)]


def test_distance_ties_resolve_to_the_earlier_detection() -> None:
    tp, fp, fn, pairs = match_events(detections_at([9.5, 10.5]), truth_at([10.0]), 0.6)
    assert (tp, fp, fn) == (1, 1, 0)
    assert pairs == [(0, 0)]


def test_detections_outside_tolerance_stay_unmatched() -> None:
    tp, fp, fn, pairs = match_events(detections_at([10.9]), truth_at([10.0, 11.0]), 0.5)
    assert (tp, fp, fn) == (1, 0, 1)
    assert pairs == [(0, 1)]


def test_tolerance_must_be_positive_and_finite() -> None:
    for bad in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(NegativeTolerance):
            match_events(detections_at([]), truth_at([1.0]), bad)


@given(time_lists, time_lists, st.floats(min_value=0.01, max_value=20.0))
def test_match_counts_agree_with_oracle(
    detected: list[float], truths: list[float], tolerance: float
) -> None:
    tp, fp, fn, pairs = match_events(detections_at(detected), truth_at(truths), tolerance)
    assert (tp, fp, fn, pairs) == oracle_match(detected, truths, tolerance)
    assert len(pairs) == tp
    assert len(set(d for d, _ in pairs)) == tp
    assert len(set(t for _, t in pairs)) == tp


# Times on a quarter-second grid give exact distance ties and shared
# timestamps; the tiny values next to zero give ties between different
# times, because ``fl(det - truth)`` rounds them to the same distance.
tie_prone_times = st.sampled_from(
    [0.0, 1e-20, 2e-20, -1e-20, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 2.5, 3.0, 5.0]
)


@given(
    st.lists(tie_prone_times, max_size=30),
    st.lists(tie_prone_times, max_size=30).map(sorted),
    st.sampled_from([0.25, 0.5, 1.0, 1.5, 10.0]),
)
# 0.5 - 1e-20 and 0.5 - 2e-20 both round to 0.5: position 0 must win either way.
@example([1e-20, 2e-20], [0.5], 1.0)
@example([2e-20, 1e-20], [0.5], 1.0)
def test_match_agrees_with_the_full_scan_on_ties_clusters_and_unsorted_input(
    detected: list[float], truths: list[float], tolerance: float
) -> None:
    result = match_events(detections_at(detected), truth_at(truths), tolerance)
    assert result == oracle_match(detected, truths, tolerance)


@given(
    time_lists,
    time_lists,
    st.floats(min_value=0.01, max_value=5.0),
    st.floats(min_value=0.01, max_value=5.0),
)
def test_shrinking_the_tolerance_never_increases_tp(
    detected: list[float], truths: list[float], tol_a: float, tol_b: float
) -> None:
    small, large = sorted((tol_a, tol_b))
    tp_small, _, _, _ = match_events(detections_at(detected), truth_at(truths), small)
    tp_large, _, _, _ = match_events(detections_at(detected), truth_at(truths), large)
    assert tp_small <= tp_large


@given(
    st.lists(st.floats(min_value=2.5, max_value=10.0), min_size=1, max_size=12),
    time_lists,
)
def test_greedy_matching_is_optimal_for_well_separated_truths(
    gaps: list[float], detected: list[float]
) -> None:
    # Truths spaced more than twice the tolerance apart give each
    # detection at most one eligible truth, so the optimal assignment
    # simply matches every truth that has any detection in range.
    tolerance = 1.0
    truths = list(np.cumsum(gaps))
    tp, _, _, _ = match_events(detections_at(detected), truth_at(truths), tolerance)
    optimal = sum(
        1 for t in truths if any(abs(d - t) <= tolerance for d in detected)
    )
    assert tp == optimal


def test_rates_for_a_mostly_matched_day() -> None:
    report = EvaluationReport(117, 1, 4, 121)
    assert (report.tp, report.fp, report.fn) == (117, 1, 4)
    assert abs(report.tpr * 100 - 96.7) <= 0.05
    assert abs(report.fpr * 100 - 0.81) <= 0.05
    assert abs(report.fnr * 100 - 3.3) <= 0.05


def test_rates_for_a_mostly_matched_week() -> None:
    report = EvaluationReport(837, 7, 52, 889)
    assert round(report.tpr * 100, 2) == 94.15
    assert round(report.fpr * 100, 2) == 0.79
    assert round(report.fnr * 100, 2) == 5.85


def test_perfect_detection_rates() -> None:
    report = EvaluationReport(57, 0, 0, 57)
    assert report.tpr == 1.0
    assert report.fpr == 0.0
    assert report.fnr == 0.0


def test_metrics_error_cases_and_precedence() -> None:
    with pytest.raises(InconsistentCounts):
        EvaluationReport(-1, 0, 1, 0)
    with pytest.raises(InconsistentCounts):
        EvaluationReport(3, 0, 1, 3)
    # A count mismatch is reported even when the reference count is zero.
    with pytest.raises(InconsistentCounts):
        EvaluationReport(1, 0, 0, 0)
    with pytest.raises(ZeroGroundTruth):
        EvaluationReport(0, 0, 0, 0)


@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=0, max_value=10_000),
)
def test_metrics_identities_hold_for_every_report(tp: int, fp: int, fn: int) -> None:
    if tp + fn == 0:
        with pytest.raises(ZeroGroundTruth):
            EvaluationReport(tp, fp, fn, tp + fn)
        return
    report = EvaluationReport(tp, fp, fn, tp + fn)
    assert report.tp + report.fn == report.ground_truth_count
    assert report.tpr + report.fnr == 1.0
    assert report.fpr >= 0.0


def test_evaluate_detections_coalesces_by_default() -> None:
    truth = GroundTruthLog(
        entries=(
            GroundTruthEntry(10.0, "a on"),
            GroundTruthEntry(10.0, "b on"),
            GroundTruthEntry(30.0, "a off"),
        )
    )
    detections = detections_at([10.1, 29.9])
    report = evaluate_detections(detections, truth, tolerance_s=1.0)
    assert (report.tp, report.fp, report.fn) == (2, 0, 0)
    assert report.ground_truth_count == 2
    assert match_events(detections, truth, tolerance_s=1.0)[:3] == (2, 0, 1)


def test_evaluate_detections_rejects_an_empty_reference_log() -> None:
    with pytest.raises(ZeroGroundTruth):
        evaluate_detections(detections_at([1.0]), GroundTruthLog(entries=()), 1.0)
