"""File formats for traces, reference logs, detections and configs.

Every input file is read as UTF-8, with or without a byte-order mark.
Traces follow one grammar, the one ``np.loadtxt`` parses: an optional
header (``timestamp_s,power_w``) on line 1 only; ``#`` starting a
comment anywhere on a line; blank lines skipped; one delimiter per file
(a comma when the first data row holds one, else whitespace); and
exactly two finite numbers on every data row.  The sampling rate is
inferred from the timestamps, which must be uniform to within 1 % of the
median spacing.  The checks read one array of spacings: its min and max
decide them, and the median partitions it in place, so loading peaks at
the ``(n, 2)`` parse array plus the one column the series keeps.
:func:`write_trace` emits full-precision ``repr`` floats, so a written
trace reloads with bit-identical sample values.  It renders the rows a
block of samples at a time (the same blocks as the full-length passes)
and writes each block with one call.  A trace of at least four blocks,
in a process that may run on two or more CPUs, has its later half
rendered at the same time by a helper process that runs no numpy; the
file is the same byte for byte.  Each process holds a block at a time,
while the later half waits in the temporary directory, as float64s and
then as text: about 43 bytes for each of its samples.

Reference logs travel as ``timestamp_s,label`` CSV.  Detections go out
only, as ``index,timestamp_s,delta_watts`` CSV with six-decimal reals,
written straight from the :class:`Events` arrays a detector returns.
Every CSV file but the trace goes out through one row writer,
``csv.writer`` with ``\r\n`` line ends: reference logs, detections, and
the extrema and verdicts that ``detect --emit-stages`` writes.  A
report renders as a plain-text table followed by ``key=value`` lines so
shell scripts can grep single fields.  Config files are ``key = value``
lines naming :class:`HybridConfig` fields, layered over the defaults,
with unknown keys rejected.
"""

from __future__ import annotations

import csv
import math
import os
import re
import sys
import typing
from contextlib import ExitStack, contextmanager
from dataclasses import fields
from pathlib import Path
from types import MappingProxyType

import numpy as np

from . import _rows, core
from .core import (
    DetectionError,
    EvaluationReport,
    Events,
    GroundTruthEntry,
    GroundTruthLog,
    HybridConfig,
    NonFiniteValue,
    SampleSeries,
    _blocks,
    _check_setting,
    _check_type,
)

__all__ = [
    "ParseError",
    "NonUniformSampling",
    "EmptyFile",
    "load_trace",
    "write_trace",
    "load_ground_truth",
    "write_ground_truth",
    "write_events",
    "format_report",
    "load_config_file",
]

_UNIFORMITY_REL_TOL = 0.01
_SPLIT = re.compile(r"[,\s]+")
_TRACE_HEADER = "timestamp_s,power_w"
_TRUTH_HEADER = ["timestamp_s", "label"]
_EVENT_HEADER = ["index", "timestamp_s", "delta_watts"]
# write_trace splits a trace of at least this many blocks.  Against one
# process, a split write won most alternating pairs from three or four blocks
# up and never at two; a split that loses costs more (about 18 ms in a fresh
# process) than it gains at three (BENCH_2026-10-20_split.json, "threshold").
_SPLIT_BLOCKS = 4


class ParseError(DetectionError):
    """A file's contents do not match the expected format."""


class NonUniformSampling(DetectionError):
    """Trace timestamps are not uniformly spaced within tolerance."""


class EmptyFile(DetectionError):
    """A file contained no data rows."""


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _looks_like_header(line: str) -> bool:
    parts = [p for p in _SPLIT.split(line.strip()) if p]
    return bool(parts) and not _is_number(parts[0])


@contextmanager
def _decoding(path: str | Path, error: type[DetectionError] = ParseError) -> typing.Iterator[None]:
    """Report bytes that are not UTF-8 as an ``error`` naming the file."""
    try:
        yield
    except UnicodeDecodeError as exc:
        bad = exc.object[exc.start : exc.end]
        raise error(f"{path}: not UTF-8 text: {exc.reason} {bad!r}") from None


def _data_lines(path: Path, delimiter: str | None) -> typing.Iterator[tuple[int, list[str]]]:
    """Yield ``(line number, fields)`` for each line ``np.loadtxt`` reads as data.

    With a comma delimiter, a line of spaces is data: one empty field.
    """
    with open(path, encoding="utf-8-sig") as handle:
        for lineno, line in enumerate(handle, start=1):
            text = line.partition("#")[0].rstrip("\n")
            if text.strip() if delimiter is None else text:
                yield lineno, text.split(delimiter)


def _load_trace_columns(path: Path) -> np.ndarray:
    """Parse a trace into an ``(n, 2)`` array with one ``np.loadtxt`` call.

    Walks over the lines find the header (line 1 only) and the delimiter
    (a comma when the first data row holds one), and name the first line
    of a rejected file that is not two numbers.
    """
    skiprows = 0
    for lineno, fields in _data_lines(path, None):
        if lineno == 1 and _looks_like_header(fields[0]):
            skiprows = 1
            continue
        delimiter = "," if any("," in field for field in fields) else None
        break
    else:
        raise EmptyFile(f"{path}: no data rows")
    problem = None
    try:
        data = np.loadtxt(
            path, delimiter=delimiter, skiprows=skiprows, ndmin=2, encoding="utf-8-sig"
        )
        if data.shape[1] == 2:
            return data
    except ValueError as exc:
        problem = str(exc)
    # A wrong column count is on every data row, so the walk names the first;
    # only a number that Python reads and np.loadtxt does not is left for it.
    for lineno, fields in _data_lines(path, delimiter):
        if lineno > skiprows and (len(fields) != 2 or not all(map(_is_number, fields))):
            fields = [field.strip() for field in fields]
            raise ParseError(f"{path}:{lineno}: expected 2 numeric columns, got {fields}")
    raise ParseError(f"{path}: {problem}")


def _median_in_place(values: np.ndarray) -> float:
    """``np.median(values)``, bit for bit, partitioning the finite ``values`` in place.

    Like ``np.median``, it places the two middle order statistics (a
    single ``kth`` is several times slower on spacings that repeat a few
    values) and takes the middle one, or their mean ``(a + b) / 2``.
    ``np.median``'s first call imports ``numpy.ma``, which nothing else in
    a CLI run loads.
    """
    middle = values.size // 2
    values.partition((middle - 1, middle))
    if values.size % 2:
        return float(values[middle])
    return float((values[middle - 1] + values[middle]) / 2)


def load_trace(path: str | Path) -> SampleSeries:
    """Read a two-column (timestamp, watts) trace file.

    The file is UTF-8 text, with or without a byte-order mark.  Line 1
    may be a header (``timestamp_s,power_w``); ``#`` starts a comment
    anywhere and blank lines are skipped.  Every other line holds exactly
    two finite numbers, separated by one comma throughout the file when
    the first data row has one, else by whitespace.  A single
    ``np.loadtxt`` call parses the rows; when it rejects the file, the
    :class:`ParseError` names the first offending line.

    The sampling rate is the reciprocal of the median timestamp spacing.
    Raises :class:`EmptyFile` when no data rows remain,
    :class:`NonFiniteValue` for a NaN or infinite field, and
    :class:`NonUniformSampling` when any spacing deviates from the median
    by more than 1 %.

    The checks read one spacing array.  Its min decides "strictly
    increasing" and its min and max "within 1 %", exactly: ``fl(s - m)``
    is monotone in ``s``, so ``|fl(s - m)|`` is largest at an extreme
    spacing.  The median partitions the array in place, and only an error
    takes a fresh difference to name the first bad sample.  The spacings
    and then the values fill one column, so loading peaks at the parse
    array plus that column.
    """
    path = Path(path)
    with _decoding(path):
        data = _load_trace_columns(path)
    if data.shape[0] < 2:
        raise ParseError(f"{path}: need at least 2 samples to infer the sampling rate")
    if not np.isfinite(data).all():
        sample, column = np.argwhere(~np.isfinite(data))[0]
        name = ("timestamp", "power")[column]
        raise NonFiniteValue(
            f"{path}: sample {sample} {name} {data[sample, column]} is not finite"
        )

    timestamps = data[:, 0]
    # One column holds the spacings, then the values the series keeps.
    column = np.empty(data.shape[0])
    spacings = np.subtract(timestamps[1:], timestamps[:-1], out=column[:-1])
    least, most = float(spacings.min()), float(spacings.max())
    if least <= 0:
        first = int(np.argmax(spacings <= 0))
        raise NonUniformSampling(
            f"{path}: timestamps must be strictly increasing "
            f"(sample {first + 1} does not advance)"
        )
    median_dt = _median_in_place(spacings)
    del spacings  # partitioned in place by the median
    tolerance = _UNIFORMITY_REL_TOL * median_dt
    if abs(least - median_dt) > tolerance or abs(most - median_dt) > tolerance:
        first = int(np.argmax(np.abs(np.diff(timestamps) - median_dt) > tolerance))
        raise NonUniformSampling(
            f"{path}: spacing at sample {first + 1} deviates more than "
            f"{_UNIFORMITY_REL_TOL:.0%} from the median {median_dt:g} s"
        )
    column[:] = data[:, 1]
    return SampleSeries(
        values=column,
        sampling_rate_hz=1.0 / median_dt,
        start_time_s=float(timestamps[0]),
    )


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _render_blocks(
    handle: typing.TextIO, series: SampleSeries, blocks: typing.Iterable[tuple[int, int]]
) -> None:
    """Write the rows of ``blocks`` of ``series``, each block's text in one ``write``."""
    for start, stop in blocks:
        stamps = series.time_at(np.arange(start, stop)).tolist()
        handle.write(_rows.render(stamps, series.values[start:stop].tolist()))


def _render_split(handle: typing.TextIO, series: SampleSeries, block: int) -> None:
    """Write the rows of ``series``, the later half rendered by a ``_rows.py`` helper.

    Without temporary space or a process to start, every row is rendered
    here.  The helper is killed and reaped before this returns or raises.
    """
    # Imported here: only a split write needs them, and nothing else loads
    # subprocess, so importing the package does not.
    import shutil
    import subprocess
    import tempfile

    blocks = list(_blocks(len(series)))
    middle = (len(blocks) + 1) // 2  # the helper starts later, so it takes fewer
    first, later = blocks[:middle], blocks[middle:]
    with ExitStack() as stack:
        try:
            samples = stack.enter_context(tempfile.TemporaryFile())
            text = stack.enter_context(tempfile.TemporaryFile())
            for start, stop in later:
                samples.write(series.time_at(np.arange(start, stop)).tobytes())
                samples.write(series.values[start:stop].tobytes())
            samples.seek(0)
            command = [sys.executable, "-I", "-S", _rows.__file__, str(block)]
            helper = stack.enter_context(
                subprocess.Popen(command, stdin=samples, stdout=text, stderr=subprocess.PIPE)
            )
        except OSError:
            _render_blocks(handle, series, blocks)
            return
        try:
            _render_blocks(handle, series, first)
            _, err = helper.communicate()
        finally:
            helper.kill()
            helper.wait()
        if helper.returncode:
            message = err.decode(errors="replace").strip()
            raise OSError(
                f"{handle.name}: the row helper exited with code {helper.returncode}: {message}"
            )
        handle.flush()
        text.seek(0)
        shutil.copyfileobj(text, handle.buffer)


def write_trace(path: str | Path, series: SampleSeries) -> None:
    """Write a trace in the format :func:`load_trace` reads.

    Floats are written with ``repr`` precision, so sample values survive
    a round trip exactly and the inferred rate matches to float
    precision.  Rows are rendered one block of samples at a time: each
    block's timestamps come from :meth:`SampleSeries.time_at` on an index
    array, the same formula as for a single index, and its text goes out
    in one ``write``.  The file does not depend on the block size.

    A trace of at least four blocks (``core._BLOCK_SAMPLES``, read at
    call time), in a process that may run on two or more CPUs, is
    rendered in two halves at once.  This process renders the first half
    while a helper process, ``python -I -S _rows.py``, renders the later
    half from its stamps and values, read a block at a time from an
    anonymous temporary file.  The helper imports only ``sys``, so it
    starts and exits in under 10 ms, and ``-I`` keeps the package
    directory, whose ``io.py`` would shadow the standard library's, off
    its ``sys.path``.  Its text is appended from a second anonymous
    temporary file, so the file is the same byte for byte.  Neither
    process holds more than a block, but the temporary directory holds
    the later half, as float64s (16 bytes a sample) and then as text:
    about 43 bytes a sample in all, 8.8 MB for a 432,000-sample trace,
    in memory when the directory is a tmpfs.  Pinned to one CPU, a split
    write was about 10 % slower than one process, hence the CPU check.

    With no temporary file to stage the later half in, or no helper
    process to start (``OSError`` from ``Popen``), this process renders
    every row.  A helper that starts and exits non-zero raises
    :class:`OSError` with its exit code and what it wrote to stderr; no
    helper outlives the call, and no named file is left behind.
    ``sys.executable`` must be a Python interpreter, as it is outside
    embedding hosts.
    """
    _check_type("series", series, SampleSeries)
    block = core._BLOCK_SAMPLES
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"{_TRACE_HEADER}\n")
        if len(series) >= _SPLIT_BLOCKS * block and sys.executable and _cpus() > 1:
            _render_split(handle, series, block)
        else:
            _render_blocks(handle, series, _blocks(len(series)))


def load_ground_truth(path: str | Path) -> GroundTruthLog:
    """Read a reference log: CSV rows of ``timestamp_s,label``.

    An optional header row is skipped; a file with no data rows yields an
    empty log (evaluation against it then fails with ZeroGroundTruth).
    Entries must be in non-decreasing time order; a NaN or infinite
    timestamp raises :class:`NonFiniteValue` naming the file and line.
    An error names the line a record starts on, counting every line of a
    quoted label that spans several.
    """
    path = Path(path)
    entries: list[GroundTruthEntry] = []
    with _decoding(path), open(path, newline="", encoding="utf-8-sig") as handle:
        reader, next_line = csv.reader(handle), 1
        for row in reader:
            lineno, next_line = next_line, reader.line_num + 1
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
            if not math.isfinite(timestamp):
                raise NonFiniteValue(f"{path}:{lineno}: timestamp {timestamp} is not finite")
            entries.append(GroundTruthEntry(timestamp_s=timestamp, label=row[1].strip()))
    return GroundTruthLog(entries=tuple(entries))


def _write_rows(target: str | Path | typing.TextIO, header: list, rows: typing.Iterable) -> None:
    """Write ``header`` and then ``rows`` as CSV to a path or an open text stream."""
    if isinstance(target, (str, os.PathLike)):
        with open(target, "w", newline="", encoding="utf-8") as handle:
            _write_rows(handle, header, rows)
        return
    writer = csv.writer(target)
    writer.writerow(header)
    writer.writerows(rows)


def write_ground_truth(path: str | Path, log: GroundTruthLog) -> None:
    """Write a reference log in the format :func:`load_ground_truth` reads."""
    _check_type("log", log, GroundTruthLog)
    _write_rows(path, _TRUTH_HEADER, ([repr(e.timestamp_s), e.label] for e in log))


def write_events(target: str | Path | typing.TextIO, events: Events) -> None:
    """Write detections as ``index,timestamp_s,delta_watts`` CSV.

    ``target`` is a path or an open text stream (``sys.stdout``, for
    instance).  Reals carry six decimal places.  An event's stage is the
    list it came from, so per-stage event files are told apart by name.
    """
    _check_type("events", events, Events)
    rows = zip(events.indices.tolist(), events.timestamps_s.tolist(), events.deltas_watts.tolist())
    _write_rows(target, _EVENT_HEADER, ([i, f"{t:.6f}", f"{delta:.6f}"] for i, t, delta in rows))


def format_report(report: EvaluationReport) -> str:
    """Render a report as a plain-text table plus ``key=value`` lines.

    Rates appear as percentages with two decimals in both renderings.
    """
    _check_type("report", report, EvaluationReport)
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


def load_config_file(
    path: str | Path, overrides: typing.Mapping[str, object] = MappingProxyType({})
) -> HybridConfig:
    """Layer ``key = value`` lines from a file over the :class:`HybridConfig` defaults.

    Keys name :class:`HybridConfig` fields; values are converted to the
    field's type.  Unknown keys, a key given twice, malformed lines and
    unconvertible values raise :class:`ParseError`.  A value that no
    config may hold (not finite, not positive, an even window, ...) raises
    the error :class:`HybridConfig` would raise, with ``<path>:<line>:``
    in front.
    ``overrides``, such as explicit command-line flags, are layered over
    the file and checked the same way, without a place.  Rules that relate
    two fields (``time_limit_s < settle_threshold_s``, ``sg_poly_order <
    sg_window_samples``) are judged on the layered config; their error
    names the file when the file's values alone break a rule too.
    """
    path = Path(path)
    field_types = _config_field_types()
    values: dict[str, object] = {}
    set_on: dict[str, int] = {}  # the line that set each key
    with _decoding(path), open(path, encoding="utf-8-sig") as handle:
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
            if key in set_on:
                raise ParseError(f"{path}:{lineno}: {key} already set on line {set_on[key]}")
            set_on[key] = lineno
            try:
                values[key] = field_types[key](value)
            except ValueError:
                raise ParseError(
                    f"{path}:{lineno}: cannot read {value!r} as "
                    f"{field_types[key].__name__} for {key!r}"
                ) from None
            try:
                _check_setting(key, values[key])
            except DetectionError as exc:
                raise type(exc)(f"{path}:{lineno}: {exc}") from None
    for key, value in overrides.items():
        _check_setting(key, value)
    try:
        return HybridConfig(**{**values, **overrides})
    except DetectionError as exc:
        try:
            HybridConfig(**values)
        except DetectionError:
            raise type(exc)(f"{path}: {exc}") from None
        raise
