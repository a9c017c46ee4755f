"""File formats for traces, reference logs, detections and configs.

Traces are two-column CSV files (``timestamp_s,power_w`` header or
headerless; comma- or whitespace-separated), with ``#`` comments and
blank lines ignored.  The sampling rate is inferred from the timestamps,
which must be uniform to within 1 % of the median spacing.
:func:`write_trace` emits full-precision ``repr`` floats, so a written
trace reloads with bit-identical sample values.

Reference logs travel as ``timestamp_s,label`` CSV and events as
``index,timestamp_s,delta_watts`` CSV with six-decimal reals.  A report
renders as a plain-text table followed by ``key=value`` lines so shell
scripts can grep single fields.  Config files are ``key = value`` lines
naming :class:`HybridConfig` fields, layered over an existing config,
with unknown keys rejected.
"""

from __future__ import annotations

import csv
import os
import re
import typing
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .core import (
    DetectedEvent,
    DetectionError,
    EvaluationReport,
    GroundTruthEntry,
    GroundTruthLog,
    HybridConfig,
    SampleSeries,
)

__all__ = [
    "ParseError",
    "NonUniformSampling",
    "EmptyFile",
    "load_trace",
    "write_trace",
    "load_ground_truth",
    "write_ground_truth",
    "read_events",
    "write_events",
    "format_report",
    "load_config_file",
]

_UNIFORMITY_REL_TOL = 0.01
_SPLIT = re.compile(r"[,\s]+")
_TRACE_HEADER = "timestamp_s,power_w"
_TRUTH_HEADER = ["timestamp_s", "label"]
_EVENT_HEADER = ["index", "timestamp_s", "delta_watts"]


class ParseError(DetectionError):
    """A file's contents do not match the expected format."""


class NonUniformSampling(DetectionError):
    """Trace timestamps are not uniformly spaced within tolerance."""


class EmptyFile(DetectionError):
    """A file contained no data rows."""


def _looks_like_header(line: str) -> bool:
    parts = [p for p in _SPLIT.split(line.strip()) if p]
    if not parts:
        return False
    try:
        float(parts[0])
    except ValueError:
        return True
    return False


def _parse_trace_rows(path: Path) -> np.ndarray:
    """Line-by-line trace parser used to produce precise error positions."""
    rows: list[tuple[float, float]] = []
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if lineno == 1 and _looks_like_header(line):
                continue
            parts = [p for p in _SPLIT.split(line) if p]
            if len(parts) != 2:
                raise ParseError(f"{path}:{lineno}: expected 2 columns, got {len(parts)}")
            try:
                rows.append((float(parts[0]), float(parts[1])))
            except ValueError:
                raise ParseError(f"{path}:{lineno}: not a number: {line!r}") from None
    return np.array(rows, dtype=float).reshape(-1, 2)


def _load_trace_columns(path: Path) -> np.ndarray:
    """Fast bulk parse; falls back to the line parser on any mismatch."""
    try:
        with open(path, encoding="utf-8") as handle:
            first = handle.readline()
            second = handle.readline()
        skiprows = 1 if _looks_like_header(first) else 0
        sample = second if skiprows else first
        delimiter = "," if "," in sample else None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            data = np.loadtxt(
                path, comments="#", delimiter=delimiter, skiprows=skiprows, ndmin=2
            )
        if data.size and data.shape[1] != 2:
            raise ValueError
        return data
    except OSError:
        raise
    except Exception:
        return _parse_trace_rows(path)


def load_trace(path: str | Path) -> SampleSeries:
    """Read a two-column (timestamp, watts) trace file.

    An optional first-line header (``timestamp_s,power_w``) is skipped.
    The sampling rate is the reciprocal of the median timestamp spacing.
    Raises :class:`NonUniformSampling` when any spacing deviates from the
    median by more than 1 %, and :class:`EmptyFile` when no data rows
    remain after stripping the header, comments and blank lines.
    """
    path = Path(path)
    data = _load_trace_columns(path)
    if data.size == 0:
        raise EmptyFile(f"{path}: no data rows")
    if data.shape[0] < 2:
        raise ParseError(f"{path}: need at least 2 samples to infer the sampling rate")

    timestamps = data[:, 0]
    spacings = np.diff(timestamps)
    if np.any(spacings <= 0):
        first = int(np.argmax(spacings <= 0))
        raise NonUniformSampling(
            f"{path}: timestamps must be strictly increasing "
            f"(sample {first + 1} does not advance)"
        )
    median_dt = float(np.median(spacings))
    deviation = np.abs(spacings - median_dt)
    if np.any(deviation > _UNIFORMITY_REL_TOL * median_dt):
        first = int(np.argmax(deviation > _UNIFORMITY_REL_TOL * median_dt))
        raise NonUniformSampling(
            f"{path}: spacing at sample {first + 1} deviates more than "
            f"{_UNIFORMITY_REL_TOL:.0%} from the median {median_dt:g} s"
        )
    return SampleSeries(
        values=data[:, 1],
        sampling_rate_hz=1.0 / median_dt,
        start_time_s=float(timestamps[0]),
    )


def write_trace(path: str | Path, series: SampleSeries) -> None:
    """Write a trace in the format :func:`load_trace` reads.

    Floats are written with ``repr`` precision, so sample values survive
    a round trip exactly and the inferred rate matches to float
    precision.
    """
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"{_TRACE_HEADER}\n")
        for i, value in enumerate(series.values):
            handle.write(f"{series.time_at(i)!r},{float(value)!r}\n")


def load_ground_truth(path: str | Path) -> GroundTruthLog:
    """Read a reference log: CSV rows of ``timestamp_s,label``.

    An optional header row is skipped; a file with no data rows yields an
    empty log (evaluation against it then fails with ZeroGroundTruth).
    Entries must be in non-decreasing time order.
    """
    path = Path(path)
    entries: list[GroundTruthEntry] = []
    with open(path, newline="", encoding="utf-8") as handle:
        for lineno, row in enumerate(csv.reader(handle), start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if row[0].lstrip().startswith("#"):
                continue
            if lineno == 1 and _looks_like_header(row[0]):
                continue
            if len(row) != 2:
                raise ParseError(f"{path}:{lineno}: expected 2 fields, got {len(row)}")
            try:
                timestamp = float(row[0])
            except ValueError:
                raise ParseError(f"{path}:{lineno}: not a timestamp: {row[0]!r}") from None
            entries.append(GroundTruthEntry(timestamp_s=timestamp, label=row[1].strip()))
    return GroundTruthLog(entries=tuple(entries))


def write_ground_truth(path: str | Path, log: GroundTruthLog) -> None:
    """Write a reference log in the format :func:`load_ground_truth` reads."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(_TRUTH_HEADER)
        for entry in log:
            writer.writerow([repr(entry.timestamp_s), entry.label])


def write_events(
    target: str | Path | typing.TextIO, events: typing.Iterable[DetectedEvent]
) -> None:
    """Write detections as ``index,timestamp_s,delta_watts`` CSV.

    ``target`` is a path or an open text stream (``sys.stdout``, for
    instance).  Reals carry six decimal places.  An event's stage is the
    list it came from, so per-stage event files are told apart by name.
    """
    if isinstance(target, (str, os.PathLike)):
        with open(target, "w", newline="", encoding="utf-8") as handle:
            write_events(handle, events)
        return
    writer = csv.writer(target)
    writer.writerow(_EVENT_HEADER)
    for event in events:
        writer.writerow([event.index, f"{event.timestamp_s:.6f}", f"{event.delta_watts:.6f}"])


def read_events(path: str | Path) -> list[DetectedEvent]:
    """Read detections written by :func:`write_events`."""
    path = Path(path)
    events: list[DetectedEvent] = []
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != _EVENT_HEADER:
            raise ParseError(f"{path}:1: expected header {','.join(_EVENT_HEADER)!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise ParseError(f"{path}:{lineno}: expected 3 fields, got {len(row)}")
            try:
                events.append(
                    DetectedEvent(
                        index=int(row[0]),
                        timestamp_s=float(row[1]),
                        delta_watts=float(row[2]),
                    )
                )
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from None
    return events


def format_report(report: EvaluationReport) -> str:
    """Render a report as a plain-text table plus ``key=value`` lines.

    Rates appear as percentages with two decimals in both renderings.
    """
    header = f"{'TP':>6} {'FP':>6} {'FN':>6} {'E':>6} {'TPR%':>8} {'FPR%':>8} {'FNR%':>8}"
    row = (
        f"{report.tp:>6} {report.fp:>6} {report.fn:>6} {report.ground_truth_count:>6} "
        f"{100 * report.tpr:>8.2f} {100 * report.fpr:>8.2f} {100 * report.fnr:>8.2f}"
    )
    return "\n".join(
        [
            header,
            row,
            f"tp={report.tp}",
            f"fp={report.fp}",
            f"fn={report.fn}",
            f"tpr={100 * report.tpr:.2f}",
            f"fpr={100 * report.fpr:.2f}",
            f"fnr={100 * report.fnr:.2f}",
        ]
    )


def _config_field_types() -> dict[str, type]:
    hints = typing.get_type_hints(HybridConfig)
    return {f.name: hints[f.name] for f in fields(HybridConfig)}


def load_config_file(path: str | Path, base: HybridConfig = HybridConfig()) -> HybridConfig:
    """Layer ``key = value`` lines from a file over an existing config.

    Keys name :class:`HybridConfig` fields; values are converted to the
    field's type.  Unknown keys, malformed lines and unconvertible values
    raise :class:`ParseError`; field constraints (positivity, odd
    windows, ...) are enforced by :class:`HybridConfig` itself.
    """
    path = Path(path)
    field_types = _config_field_types()
    overrides: dict[str, object] = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ParseError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in field_types:
                raise ParseError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                overrides[key] = field_types[key](value)
            except ValueError:
                raise ParseError(
                    f"{path}:{lineno}: cannot read {value!r} as "
                    f"{field_types[key].__name__} for {key!r}"
                ) from None
    return replace(base, **overrides)
