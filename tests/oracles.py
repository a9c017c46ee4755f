"""Independent brute-force reference implementations for cross-checking.

Every function re-derives a quantity the library computes through a
different (usually vectorised) code path, using the most literal
transcription available: python loops, per-window sums, per-point
least-squares solves.  Tests compare library output against these so
that an algebra slip in either implementation surfaces as a mismatch.

Window sums deliberately use :func:`numpy.sum` on the exact slice rather
than a python accumulation loop: both the library and numpy reduce
contiguous float windows pairwise, so on identical slices the results
are bit-identical, which lets the equivalence tests demand exact
equality for the discrete operators.
"""

from __future__ import annotations

import math
from fractions import Fraction
from pathlib import Path

import numpy as np


def oracle_first_derivative(values: np.ndarray, h: float = 1.0) -> np.ndarray:
    x = np.asarray(values, dtype=float)
    out = [0.0]
    for j in range(1, x.size):
        out.append((x[j] - x[j - 1]) / h)
    return np.array(out)


def oracle_moving_means(values: np.ndarray, center: int, n: int) -> tuple[float, float]:
    """Mean of the n samples strictly before / strictly after ``center``."""
    x = np.asarray(values, dtype=float)
    before = float(np.sum(x[center - n : center]) / n)
    after = float(np.sum(x[center + 1 : center + 1 + n]) / n)
    return before, after


def oracle_mean_difference_profile(values: np.ndarray, n: int) -> dict[int, float]:
    """after-mean minus before-mean at every eligible center index.

    Computed as ``(sum_after - sum_before) / n`` — the single-division
    form — from per-window slice sums, so integer-valued input yields the
    exact same float as any other correct single-division implementation.
    """
    x = np.asarray(values, dtype=float)
    profile = {}
    for center in range(n, x.size - n):
        sum_before = np.sum(x[center - n : center])
        sum_after = np.sum(x[center + 1 : center + 1 + n])
        profile[center] = float((sum_after - sum_before) / n)
    return profile


def oracle_base_events(
    values: np.ndarray,
    rate_hz: float,
    n: int,
    threshold: float,
    time_limit_s: float,
    start_time_s: float = 0.0,
) -> list[tuple[int, float, float]]:
    """Greedy threshold-and-cluster scan; returns (index, time, delta) triples."""
    profile = oracle_mean_difference_profile(values, n)
    events: list[tuple[int, float, float]] = []
    last_time = None
    for center in sorted(profile):
        delta = profile[center]
        if abs(delta) <= threshold:
            continue
        timestamp = start_time_s + center / rate_hz
        if last_time is not None and not timestamp - last_time > time_limit_s:
            continue
        events.append((center, timestamp, delta))
        last_time = timestamp
    return events


def oracle_tricube(offsets: np.ndarray, half: int) -> np.ndarray:
    u = np.abs(np.asarray(offsets, dtype=float)) / half
    return (1.0 - u**3) ** 3


def oracle_loess(values: np.ndarray, window: int) -> np.ndarray:
    """Per-point weighted degree-1 polyfit, evaluated at the window center."""
    x = np.asarray(values, dtype=float)
    half = window // 2
    out = np.empty_like(x)
    for center in range(x.size):
        lo = max(0, center - half)
        hi = min(x.size - 1, center + half)
        offsets = np.arange(lo, hi + 1) - center
        weights = oracle_tricube(offsets, half)
        coeffs = np.polyfit(offsets, x[lo : hi + 1], 1, w=np.sqrt(weights))
        out[center] = np.polyval(coeffs, 0.0)
    return out


def oracle_extrema(values: np.ndarray) -> list[tuple[int, str, float]]:
    """Strict interior peaks/valleys as (index, "peak"|"valley", value)."""
    x = np.asarray(values, dtype=float)
    found = []
    for i in range(1, x.size - 1):
        if x[i] > x[i - 1] and x[i] > x[i + 1]:
            found.append((i, "peak", float(x[i])))
        elif x[i] < x[i - 1] and x[i] < x[i + 1]:
            found.append((i, "valley", float(x[i])))
    return found


def oracle_longest_settled_run_s(
    smoothed: np.ndarray, lo: int, hi: int, epsilon: float, rate_hz: float
) -> float:
    """Longest run of |smoothed| < epsilon strictly inside (lo, hi), in seconds."""
    best = 0
    current = 0
    for i in range(lo + 1, hi):
        if abs(smoothed[i]) < epsilon:
            current += 1
            best = max(best, current)
        else:
            current = 0
    return best / rate_hz


def oracle_merge(
    candidates: list[tuple[int, float]],
    smoothed: np.ndarray,
    rate_hz: float,
    epsilon: float,
    settle_threshold_s: float,
) -> list[int]:
    """Surviving candidate indices under the settled-run rule."""
    if not candidates:
        return []
    survivors = [candidates[0][0]]
    for (prev_index, _), (cur_index, _) in zip(candidates, candidates[1:]):
        run = oracle_longest_settled_run_s(smoothed, prev_index, cur_index, epsilon, rate_hz)
        if run > settle_threshold_s:
            survivors.append(cur_index)
    return survivors


def _polyfit_window(window_values: np.ndarray, offsets: np.ndarray, order: int) -> np.ndarray:
    """Least-squares polynomial coefficients via explicit normal equations."""
    design = np.vander(np.asarray(offsets, dtype=float), order + 1, increasing=True)
    gram = design.T @ design
    rhs = design.T @ np.asarray(window_values, dtype=float)
    return np.linalg.solve(gram, rhs)


def oracle_savgol(values: np.ndarray, window: int, order: int) -> np.ndarray:
    """Per-window least-squares smoothing with polynomial edge extension.

    Interior points evaluate the centered-window fit at offset 0; the
    first and last half windows evaluate the polynomial fitted to the
    first/last full window at their off-center offsets.
    """
    x = np.asarray(values, dtype=float)
    half = window // 2
    out = np.empty_like(x)
    for center in range(half, x.size - half):
        coeffs = _polyfit_window(
            x[center - half : center + half + 1], np.arange(-half, half + 1), order
        )
        out[center] = coeffs[0]
    head = _polyfit_window(x[:window], np.arange(window), order)
    for i in range(half):
        out[i] = np.polynomial.polynomial.polyval(float(i), head)
    tail = _polyfit_window(x[x.size - window :], np.arange(window), order)
    for i in range(x.size - half, x.size):
        out[i] = np.polynomial.polynomial.polyval(float(i - (x.size - window)), tail)
    return out


def oracle_savgol_exact(values: np.ndarray, window: int, order: int) -> np.ndarray:
    """Savitzky-Golay smoothing in exact rational arithmetic, for integer input.

    Builds the hat matrix ``V (V^T V)^-1 V^T`` of the integer-offset
    window with :class:`fractions.Fraction`, so it carries no rounding
    error at any order.  Row ``half`` smooths the interior samples; the
    outer rows project the first and last full windows, as in
    :func:`oracle_savgol`.
    """
    m = order + 1
    vander = [[Fraction(t) ** k for k in range(m)] for t in range(window)]
    # Gauss-Jordan on [V^T V | V^T] leaves (V^T V)^-1 V^T on the right.
    rows = [
        [sum(v[i] * v[j] for v in vander) for j in range(m)] + [v[i] for v in vander]
        for i in range(m)
    ]
    for c in range(m):
        pivot = next(r for r in range(c, m) if rows[r][c] != 0)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        rows[c] = [a / rows[c][c] for a in rows[c]]
        for r in range(m):
            factor = rows[r][c]
            if r != c and factor != 0:
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[c])]
    hat = [
        [sum(vander[s][j] * rows[j][m + t] for j in range(m)) for t in range(window)]
        for s in range(window)
    ]
    x = [Fraction(int(v)) for v in values]
    n, half = len(x), window // 2
    out = []
    for i in range(n):
        if i < half:
            row, start = hat[i], 0
        elif i >= n - half:
            row, start = hat[i - (n - window)], n - window
        else:
            row, start = hat[half], i - half
        out.append(float(sum(w * x[start + k] for k, w in enumerate(row))))
    return np.array(out)


def oracle_lld(
    values: np.ndarray,
    pre_window: int,
    threshold: float,
    precision: int,
) -> list[tuple[int, float]]:
    """Strict local maxima of the likelihood statistic as (index, delta)."""
    x = np.asarray(values, dtype=float)
    centers = list(range(pre_window, x.size - pre_window))
    ds = []
    deltas = []
    for i in centers:
        mu0 = float(np.sum(x[i - pre_window : i]) / pre_window)
        mu1 = float(np.sum(x[i + 1 : i + 1 + pre_window]) / pre_window)
        diff = mu1 - mu0
        deltas.append(diff)
        if abs(diff) > threshold:
            ds.append(diff * abs(x[i] - (mu1 + mu0) / 2.0))
        else:
            ds.append(0.0)
    magnitude = [abs(v) for v in ds]
    events = []
    for pos, mag in enumerate(magnitude):
        if not mag > 0:
            continue
        lo = max(0, pos - precision)
        neighbourhood = magnitude[lo : pos + precision + 1]
        if all(other < mag for j, other in enumerate(neighbourhood, start=lo) if j != pos):
            events.append((centers[pos], deltas[pos]))
    return events


def oracle_match(
    detected_times: list[float], truth_times: list[float], tolerance_s: float
) -> tuple[int, int, int, list[tuple[int, int]]]:
    """Greedy nearest-unclaimed matching in truth order, by full scan.

    Every truth entry scans all detections; a strictly smaller distance
    replaces the best so far, so ties go to the smaller detection
    position.  Returns ``(tp, fp, fn, matches)`` with ``matches`` as
    ``(detection_position, truth_position)`` pairs in truth order.
    """
    pairs = []
    claimed = [False] * len(detected_times)
    for truth_pos, truth in enumerate(truth_times):
        best_pos = -1
        best_distance = math.inf
        for det_pos, det in enumerate(detected_times):
            if claimed[det_pos]:
                continue
            distance = abs(det - truth)
            if distance < best_distance:
                best_pos, best_distance = det_pos, distance
        if best_pos >= 0 and best_distance <= tolerance_s:
            claimed[best_pos] = True
            pairs.append((best_pos, truth_pos))
    tp = len(pairs)
    return tp, len(detected_times) - tp, len(truth_times) - tp, pairs


def oracle_refilter_verdicts(
    candidates: list[tuple[int, float]],
    re_times: list[float],
    extremum_indices: list[int],
    tolerance_s: float,
    guard_radius: int,
) -> list[str]:
    """Refilter reason per ``(index, time)`` candidate, by full scans.

    A candidate within ``tolerance_s`` of any re-detection survives;
    otherwise one within ``guard_radius`` samples of any extremum is
    protected; otherwise it is removed.
    """
    reasons = []
    for index, time in candidates:
        if any(abs(r - time) <= tolerance_s for r in re_times):
            reasons.append("survived_refilter")
        elif any(abs(g - index) <= guard_radius for g in extremum_indices):
            reasons.append("protected_by_extremum")
        else:
            reasons.append("removed_as_fluctuation")
    return reasons


def oracle_write_trace(path: Path, series) -> None:
    """Write a trace one row at a time: ``time_at(i)`` and ``float(value)`` per sample."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("timestamp_s,power_w\n")
        for i, value in enumerate(series.values):
            handle.write(f"{series.time_at(i)!r},{float(value)!r}\n")
