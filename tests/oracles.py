"""Independent brute-force reference implementations for cross-checking.

Every function re-derives a quantity the library computes through a
different (usually vectorised) code path, using the most literal
transcription available: python loops, per-window sums, per-point
least-squares solves.  Tests compare library output against these so
that an algebra slip in either implementation surfaces as a mismatch.

Two references cover the base detector's window sums.
:func:`oracle_mean_difference_profile` sums each window with
:func:`numpy.sum`, an order the library does not use: it is exact on
integer-valued traces, and tests hold floats to a tolerance against it.
:func:`oracle_window_sums` adds each window's samples one Python float
addition at a time in the library's own doubling order, so tests demand
bit-equality with it on any float trace.
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


def oracle_window_sums(values: np.ndarray, n: int) -> list[float]:
    """``sum(values[k : k + n])`` for every ``k``, each window in the binary doubling order.

    ``part(k, p)``, the sum of the ``p`` samples from ``k`` for a power of
    two ``p``, is ``part(k, p / 2) + part(k + p / 2, p / 2)``; a window of
    ``n`` adds its power-of-two parts from the lowest set bit of ``n`` up,
    each part starting where the ones before it end.
    """
    x = [float(v) for v in values]

    def part(k: int, p: int) -> float:
        if p == 1:
            return x[k]
        return part(k, p // 2) + part(k + p // 2, p // 2)

    sums = []
    for k in range(len(x) - n + 1):
        total = None
        offset = 0
        p = 1
        while p <= n:
            if n & p:
                term = part(k + offset, p)
                total = term if total is None else total + term
                offset += p
            p *= 2
        sums.append(total)
    return sums


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


def oracle_samples(duration_s: float, rate_hz: float) -> int:
    """A duration in whole samples: the nearest count, at least 1."""
    return max(1, round(duration_s * rate_hz))


def oracle_emitted(indices: list[int], k: int) -> list[int]:
    """Positions of the alarms the time limit emits, walking the alarm ``indices`` in order.

    The first alarm is emitted, and each later one when ``index - last >
    k``, ``last`` being the index of the last alarm emitted.
    """
    emitted: list[int] = []
    last = None
    for position, index in enumerate(indices):
        if last is None or index - last > k:
            emitted.append(position)
            last = index
    return emitted


def oracle_base_events(
    values: np.ndarray,
    rate_hz: float,
    n: int,
    threshold: float,
    time_limit_s: float,
    start_time_s: float = 0.0,
) -> list[tuple[int, float, float]]:
    """Greedy threshold-and-cluster scan; returns (index, time, delta) triples.

    The time limit is ``time_limit_s`` in whole samples (:func:`oracle_samples`).
    """
    profile = oracle_mean_difference_profile(values, n)
    alarms = [(center, delta) for center, delta in sorted(profile.items()) if abs(delta) > threshold]
    k = oracle_samples(time_limit_s, rate_hz)
    emitted = [alarms[p] for p in oracle_emitted([center for center, _ in alarms], k)]
    return [(center, start_time_s + center / rate_hz, delta) for center, delta in emitted]


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


def oracle_longest_settled_run(smoothed: np.ndarray, lo: int, hi: int, epsilon: float) -> int:
    """Longest run of |smoothed| < epsilon strictly inside (lo, hi), in samples."""
    best = 0
    current = 0
    for i in range(lo + 1, hi):
        if abs(smoothed[i]) < epsilon:
            current += 1
            best = max(best, current)
        else:
            current = 0
    return best


def oracle_merge(
    candidates: list[tuple[int, float]],
    smoothed: np.ndarray,
    rate_hz: float,
    epsilon: float,
    settle_threshold_s: float,
) -> list[int]:
    """Surviving candidate indices under the settled-run rule.

    A run separates when it is longer than ``settle_threshold_s`` in whole
    samples (:func:`oracle_samples`).
    """
    if not candidates:
        return []
    survivors = [candidates[0][0]]
    settle = oracle_samples(settle_threshold_s, rate_hz)
    for (prev_index, _), (cur_index, _) in zip(candidates, candidates[1:]):
        if oracle_longest_settled_run(smoothed, prev_index, cur_index, epsilon) > settle:
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


def exact_lld_deviation(x: np.ndarray, i: int, pre_window: int) -> Fraction:
    """``x[i] - (mu1 + mu0) / 2`` in rational arithmetic, exactly."""
    window = [Fraction(v) for v in x[i - pre_window : i + pre_window + 1].tolist()]
    return window[pre_window] - (sum(window) - window[pre_window]) / (2 * pre_window)


def oracle_lld(
    values: np.ndarray,
    pre_window: int,
    threshold: float,
    precision: int,
) -> list[tuple[int, float]]:
    """Strict local maxima of the likelihood statistic as (index, delta).

    ``ds`` is zero where ``|mu1 - mu0|`` does not exceed the threshold, and
    where ``x[i]`` is exactly the mean of its two windows, in rational
    arithmetic.  On integer-valued samples whose rounding margin is below
    ``1 / (4 * pre_window)`` that is the library's rule: a nonzero exact
    deviation is then at least ``1 / (2 * pre_window)``, and the computed
    one is within the margin of the exact one.
    """
    x = np.asarray(values, dtype=float)
    centers = list(range(pre_window, x.size - pre_window))
    ds = []
    deltas = []
    for i in centers:
        mu0 = float(np.sum(x[i - pre_window : i]) / pre_window)
        mu1 = float(np.sum(x[i + 1 : i + 1 + pre_window]) / pre_window)
        diff = mu1 - mu0
        deltas.append(diff)
        if abs(diff) > threshold and exact_lld_deviation(x, i, pre_window) != 0:
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
    candidates: list[int],
    re_indices: list[int],
    extremum_indices: list[int],
    tolerance: int,
    guard_radius: int,
) -> list[str]:
    """Refilter reason per candidate index, by full scans.

    A candidate within ``tolerance`` samples of any re-detection survives;
    otherwise one within ``guard_radius`` samples of any extremum is
    protected; otherwise it is removed.
    """
    reasons = []
    for index in candidates:
        if any(abs(r - index) <= tolerance for r in re_indices):
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
