"""Trace, reference-log, event and config file formats."""

from __future__ import annotations

import csv
import io
import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import nilmevents
from nilmevents import _rows, core
from nilmevents import (
    DetectionError,
    EmptyFile,
    EvaluationReport,
    Events,
    GroundTruthEntry,
    GroundTruthLog,
    HybridConfig,
    NonFiniteValue,
    NonUniformSampling,
    ParseError,
    SampleSeries,
    UnsortedInput,
    format_report,
    load_config_file,
    load_ground_truth,
    load_trace,
    write_events,
    write_ground_truth,
    write_trace,
)

from nilmevents.io import _median_in_place

from blocks import use_blocks
from oracles import oracle_write_trace
from replicas import SCENARIO_DIR


def test_trace_round_trip_is_bit_exact(tmp_path: Path) -> None:
    rng = np.random.default_rng(4)
    series = SampleSeries(
        values=rng.normal(500.0, 100.0, 300), sampling_rate_hz=20.0, start_time_s=5.0
    )
    path = tmp_path / "trace.csv"
    write_trace(path, series)
    loaded = load_trace(path)
    assert np.array_equal(loaded.values, series.values)
    assert loaded.sampling_rate_hz == pytest.approx(20.0, rel=1e-9)
    assert loaded.start_time_s == 5.0


def test_loaded_values_are_a_contiguous_copy_of_the_power_column(tmp_path: Path) -> None:
    values = np.random.default_rng(5).normal(0.0, 1e3, 50)
    path = tmp_path / "trace.csv"
    path.write_text("".join(f"{0.05 * i!r},{v!r}\n" for i, v in enumerate(values.tolist())))
    loaded = load_trace(path).values
    assert loaded.flags.c_contiguous
    assert loaded.tobytes() == values.tobytes()


def test_trace_header_is_optional_and_whitespace_works_as_a_separator(
    tmp_path: Path,
) -> None:
    with_header = tmp_path / "a.csv"
    with_header.write_text("timestamp_s,power_w\n0.0,100\n0.05,100\n0.1,200\n")
    headerless = tmp_path / "b.csv"
    headerless.write_text("0.0,100\n0.05,100\n0.1,200\n")
    spaced = tmp_path / "c.csv"
    spaced.write_text("0.0 100\n0.05\t100\n0.1  200\n")
    reference = load_trace(with_header)
    for path in (headerless, spaced):
        other = load_trace(path)
        assert np.array_equal(other.values, reference.values)
        assert other.sampling_rate_hz == reference.sampling_rate_hz
    assert np.array_equal(reference.values, [100.0, 100.0, 200.0])
    assert reference.sampling_rate_hz == pytest.approx(20.0)


def test_trace_comments_and_blank_lines_are_ignored(tmp_path: Path) -> None:
    path = tmp_path / "trace.csv"
    path.write_text("# recorded at the meter\n\n0.0,100\n0.05,150\n\n# done\n0.1,200\n")
    series = load_trace(path)
    assert np.array_equal(series.values, [100.0, 150.0, 200.0])


def test_trace_parse_errors_name_the_line(tmp_path: Path) -> None:
    bad_number = tmp_path / "bad.csv"
    bad_number.write_text("timestamp_s,power_w\n0.0,100\n0.05,oops\n")
    with pytest.raises(ParseError, match=r"bad\.csv:3"):
        load_trace(bad_number)
    bad_columns = tmp_path / "cols.csv"
    bad_columns.write_text("0.0,100\n0.05,100,7\n")
    with pytest.raises(ParseError, match=r"cols\.csv:2.*columns"):
        load_trace(bad_columns)


PLAIN_TRACE = "timestamp_s,power_w\n0.0,100\n0.05,150\n0.1,200\n0.15,250\n"
HEADERLESS_TRACE = PLAIN_TRACE.split("\n", 1)[1]


def write_bytes(path: Path, text: str) -> Path:
    """Write ``text`` as UTF-8 with its line ends exactly as given."""
    path.write_bytes(text.encode("utf-8"))
    return path


@pytest.mark.parametrize(
    "text",
    [
        pytest.param("\n" + HEADERLESS_TRACE, id="blank-first-line"),
        pytest.param(
            PLAIN_TRACE.replace("power_w\n", "power_w\n# note\n"), id="comment-after-header"
        ),
        pytest.param(PLAIN_TRACE.replace("150\n", "150  # note\n"), id="inline-comment"),
        pytest.param(PLAIN_TRACE.replace("\n", "\r\n"), id="crlf"),
        pytest.param("\ufeff" + PLAIN_TRACE, id="bom-with-header"),
        pytest.param("\ufeff" + HEADERLESS_TRACE, id="bom-headerless"),
    ],
)
def test_trace_layouts_the_grammar_allows_load_like_the_plain_file(
    text: str, tmp_path: Path
) -> None:
    plain = load_trace(write_bytes(tmp_path / "plain.csv", PLAIN_TRACE))
    other = load_trace(write_bytes(tmp_path / "other.csv", text))
    assert np.array_equal(other.values, plain.values)
    assert np.array_equal(plain.values, [100.0, 150.0, 200.0, 250.0])
    assert other.sampling_rate_hz == plain.sampling_rate_hz
    assert other.start_time_s == plain.start_time_s == 0.0


@pytest.mark.parametrize(
    ("text", "message"),
    [
        pytest.param(
            PLAIN_TRACE.replace("0.05,150\n", "0.05,150,\n"),
            ":3: expected 2 numeric columns, got ['0.05', '150', '']",
            id="trailing-comma",
        ),
        pytest.param(
            PLAIN_TRACE.replace("0.05,150\n", "0.05,,150\n"),
            ":3: expected 2 numeric columns, got ['0.05', '', '150']",
            id="doubled-comma",
        ),
        pytest.param(
            PLAIN_TRACE.replace("0.05,150\n", "0.05 150\n"),
            ":3: expected 2 numeric columns, got ['0.05 150']",
            id="space-row-in-a-comma-file",
        ),
        pytest.param(
            HEADERLESS_TRACE.replace("0.0,100\n", "0.0 100\n"),
            ":2: expected 2 numeric columns, got ['0.05,150']",
            id="comma-row-in-a-space-file",
        ),
        pytest.param(
            HEADERLESS_TRACE.replace("0.05,150\n", "0.05,150\n   # note\n"),
            ":3: expected 2 numeric columns, got ['']",
            id="spaces-before-a-comment-in-a-comma-file",
        ),
        pytest.param(
            PLAIN_TRACE.replace("power_w\n", "power_w\ntimestamp_s,power_w\n"),
            ":2: expected 2 numeric columns, got ['timestamp_s', 'power_w']",
            id="second-header-line",
        ),
        pytest.param(
            "\n" + PLAIN_TRACE,
            ":2: expected 2 numeric columns, got ['timestamp_s', 'power_w']",
            id="header-after-a-blank-line",
        ),
        pytest.param(
            "timestamp_s,power_w\n0.0,100 # note\n0.05,oops\n0.1,200\n",
            ":3: expected 2 numeric columns, got ['0.05', 'oops']",
            id="inline-comment-then-bad-number",
        ),
        pytest.param(  # np.loadtxt reads this file whole, as three columns
            "timestamp_s,power_w,volts\n0.0,1,230\n0.05,1,230\n",
            ":2: expected 2 numeric columns, got ['0.0', '1', '230']",
            id="three-columns-on-every-row",
        ),
        pytest.param(  # ... and this one as one column, split on whitespace
            "0.0\n0.05\n0.1\n",
            ":1: expected 2 numeric columns, got ['0.0']",
            id="one-column-on-every-row",
        ),
    ],
)
def test_trace_rows_outside_the_grammar_are_rejected_at_their_line(
    text: str, message: str, tmp_path: Path
) -> None:
    path = write_bytes(tmp_path / "bad.csv", text)
    with pytest.raises(ParseError) as excinfo:
        load_trace(path)
    assert str(excinfo.value) == f"{path}{message}"


def test_a_number_only_python_reads_is_rejected_with_numpys_message(tmp_path: Path) -> None:
    path = write_bytes(tmp_path / "under.csv", "0.0,100\n0.05,1_000\n")
    with pytest.raises(ParseError, match=r"under\.csv: .*1_000"):
        load_trace(path)


def test_trace_values_come_from_one_loadtxt_call(tmp_path: Path, monkeypatch) -> None:
    calls, results = [], []
    loadtxt = np.loadtxt

    def recorded(*args, **kwargs):
        calls.append(Path(args[0]).name)
        results.append(loadtxt(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(np, "loadtxt", recorded)
    blank_first = write_bytes(tmp_path / "blank.csv", "\n" + HEADERLESS_TRACE)
    commented = write_bytes(
        tmp_path / "commented.csv", PLAIN_TRACE.replace("power_w\n", "power_w\n# note\n")
    )
    for path in (blank_first, commented):
        series = load_trace(path)
        assert calls[-1] == path.name
        assert series.values.tobytes() == results[-1][:, 1].tobytes()
    with pytest.raises(ParseError):
        load_trace(write_bytes(tmp_path / "bad.csv", PLAIN_TRACE.replace("150", "oops")))
    assert calls == ["blank.csv", "commented.csv", "bad.csv"]


@pytest.mark.parametrize(
    ("text", "message"),
    [
        ("0.0,100\n0.05,100\nnan,100\n0.15,100\n", "sample 2 timestamp nan"),
        ("0.0,100\n0.05,100\n0.1,100\ninf,100\n", "sample 3 timestamp inf"),
        ("0.0,100\n0.05,nan\n0.1,100\n", "sample 1 power nan"),
    ],
)
def test_non_finite_trace_fields_are_named(text: str, message: str, tmp_path: Path) -> None:
    path = write_bytes(tmp_path / "odd.csv", text)
    with pytest.raises(NonFiniteValue) as excinfo:
        load_trace(path)
    assert str(excinfo.value) == f"{path}: {message} is not finite"


def test_bytes_that_are_not_utf8_are_a_parse_error_naming_the_file(tmp_path: Path) -> None:
    trace = tmp_path / "trace.csv"
    trace.write_bytes(b"0.0,100\n0.05,1\xff0\n0.1,200\n")
    truth = tmp_path / "truth.csv"
    truth.write_bytes(b"3.5,kettle \xff on\n")
    config = tmp_path / "tuned.config"
    config.write_bytes(b"power_threshold_watts = 3\xff0\n")
    readers = ((trace, load_trace), (truth, load_ground_truth), (config, load_config_file))
    for path, reader in readers:
        with pytest.raises(ParseError, match=rf"{path.name}: not UTF-8 text"):
            reader(path)


def test_a_byte_order_mark_is_not_part_of_the_first_row(tmp_path: Path) -> None:
    truth = write_bytes(tmp_path / "truth.csv", "\ufeff3.5,kettle on\n8.0,kettle off\n")
    assert [entry.timestamp_s for entry in load_ground_truth(truth)] == [3.5, 8.0]
    config = write_bytes(tmp_path / "tuned.config", "\ufeffpower_threshold_watts = 30\n")
    assert load_config_file(config).power_threshold_watts == 30.0


def test_trace_rejects_irregular_timestamps(tmp_path: Path) -> None:
    jittered = tmp_path / "jitter.csv"
    jittered.write_text("0.0,1\n0.05,1\n0.1,1\n0.2,1\n")
    with pytest.raises(NonUniformSampling, match="sample 3"):
        load_trace(jittered)
    stalled = tmp_path / "stalled.csv"
    stalled.write_text("0.0,1\n0.05,1\n0.05,1\n")
    with pytest.raises(NonUniformSampling, match="does not advance"):
        load_trace(stalled)


def write_stamps(path: Path, stamps, fmt: str = "{!r}") -> Path:
    path.write_text("".join(f"{fmt.format(t)},1\n" for t in stamps))
    return path


def test_the_only_deviant_spacing_near_the_end_of_a_long_file_is_named(tmp_path: Path) -> None:
    n = 50_000
    stamps = np.arange(n) / 20.0
    stamps[n - 5 :] += 0.01  # one spacing 20 % long, four samples before the end
    path = write_stamps(tmp_path / "late.csv", stamps.tolist(), "{:.3f}")
    with pytest.raises(NonUniformSampling, match=f"spacing at sample {n - 5} deviates"):
        load_trace(path)


@pytest.mark.parametrize("spacing", [101.0, 99.0])
def test_a_spacing_off_by_exactly_one_percent_loads_and_one_ulp_more_does_not(
    spacing: float, tmp_path: Path
) -> None:
    # The median spacing is 100, so the tolerance 0.01 * 100 rounds to
    # exactly 1.0, which |spacing - 100| equals.  The first row is -spacing,
    # so the first spacing is the spacing itself, bit for bit.
    stamps = [-spacing, *range(0, 1100, 100)]
    series = load_trace(write_stamps(tmp_path / "edge.csv", stamps))
    assert series.sampling_rate_hz == 1 / 100
    beyond = float(np.nextafter(spacing, 2 * spacing - 100))  # one ulp further from 100
    path = write_stamps(tmp_path / "beyond.csv", [-beyond, *range(0, 1100, 100)])
    with pytest.raises(NonUniformSampling, match="spacing at sample 1 deviates more than 1%"):
        load_trace(path)


@pytest.mark.parametrize("repeat", [1, 2_500, 4_999])
def test_a_repeated_timestamp_does_not_advance_at_its_sample(
    repeat: int, tmp_path: Path
) -> None:
    stamps = (np.arange(5_000) / 20.0).tolist()
    stamps[repeat] = stamps[repeat - 1]
    path = write_stamps(tmp_path / "stalled.csv", stamps, "{:.3f}")
    with pytest.raises(NonUniformSampling, match=rf"\(sample {repeat} does not advance\)"):
        load_trace(path)


@pytest.mark.parametrize("fmt", ["{!r}", "{:.3f}"], ids=["repr", "3f"])
@pytest.mark.parametrize("rate", [20.0, 50.0, 1 / 3], ids=["20Hz", "50Hz", "third-Hz"])
@pytest.mark.parametrize("n", [1_000, 1_001])
def test_the_inferred_rate_is_the_reciprocal_of_the_median_spacing(
    fmt: str, rate: float, n: int, tmp_path: Path
) -> None:
    stamps = [float(fmt.format(t)) for t in (1e6 + np.arange(n) / rate).tolist()]
    series = load_trace(write_stamps(tmp_path / "trace.csv", stamps, fmt))
    expected = 1.0 / float(np.median(np.diff(stamps)))
    assert series.sampling_rate_hz.hex() == expected.hex()
    assert series.start_time_s == stamps[0]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 999, 1_000])
def test_the_in_place_median_is_numpys_median_bit_for_bit(n: int) -> None:
    rng = np.random.default_rng(n)
    for spacings in (
        rng.uniform(0.04, 0.06, n),
        np.round(rng.uniform(0.0, 1.0, n), 3),
        rng.choice([0.05, 0.05000000000000001, 0.049999999999999996, 1e300], n),
    ):
        expected = float(np.median(spacings))
        assert _median_in_place(spacings.copy()).hex() == expected.hex()


def test_loading_a_trace_does_not_import_numpy_ma(tmp_path: Path) -> None:
    """``np.median`` imports ``numpy.ma`` on its first call; the loader does not use it."""
    path = write_stamps(tmp_path / "trace.csv", [0.05 * i for i in range(101)], "{!r}")
    package_root = Path(nilmevents.__file__).resolve().parent.parent
    probe = (
        f"import sys; sys.path.insert(0, {str(package_root)!r}); import nilmevents; "
        f"nilmevents.load_trace({str(path)!r}); print('numpy.ma' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "False"


def test_trace_with_no_data_rows_is_empty(tmp_path: Path) -> None:
    path = tmp_path / "empty.csv"
    path.write_text("timestamp_s,power_w\n# nothing yet\n\n")
    with pytest.raises(EmptyFile):
        load_trace(path)


def test_trace_needs_two_samples_to_infer_a_rate(tmp_path: Path) -> None:
    path = tmp_path / "single.csv"
    path.write_text("0.0,100\n")
    with pytest.raises(ParseError, match="at least 2 samples"):
        load_trace(path)


def test_hour_long_sixty_hertz_trace_loads_with_the_right_rate(tmp_path: Path) -> None:
    n = 216_000  # one hour at 60 Hz
    series = SampleSeries(values=np.full(n, 120.0), sampling_rate_hz=60.0)
    path = tmp_path / "hour.csv"
    write_trace(path, series)
    loaded = load_trace(path)
    assert len(loaded) == n
    assert abs(loaded.sampling_rate_hz - 60.0) <= 0.6


WRITER_VALUES = {
    "floats": np.array([-0.0, 5e-324, 1e300, 512.25, 0.1, -3.5, 2.0 / 3.0]),
    "integers": np.array([0, -3, 7, 2**53, 100, -100_000]),
}


@pytest.mark.parametrize("values", WRITER_VALUES.values(), ids=WRITER_VALUES.keys())
@pytest.mark.parametrize("rate", [20.0, 60.0, 1 / 3], ids=["20Hz", "60Hz", "third-Hz"])
@pytest.mark.parametrize("start", [0.0, 0.1, -30.0, 1e9 + 0.05], ids=str)
def test_blocked_writer_matches_the_row_oracle_byte_for_byte(
    start: float,
    rate: float,
    values: np.ndarray,
    small_blocks: int,
    helpers: list,
    tmp_path: Path,
) -> None:
    # Two samples, one block with one sample less and one more, and the sizes
    # around four blocks, where a helper process starts rendering the later half.
    b = small_blocks
    sizes = sorted({2, b - 1, b, b + 1, 4 * b - 1, 4 * b, 4 * b + 1, 9 * b} - {0})
    for n in sizes:
        series = SampleSeries(np.resize(values, n), rate, start)
        written, expected = tmp_path / f"blocked{n}.csv", tmp_path / f"rows{n}.csv"
        write_trace(written, series)
        oracle_write_trace(expected, series)
        assert written.read_bytes() == expected.read_bytes()
        if n >= 2:
            loaded = load_trace(written)
            assert loaded.values.tobytes() == series.values.tobytes()
            assert loaded.start_time_s == start
    assert len(helpers) == sum(n >= 4 * b for n in sizes)
    assert [helper.returncode for helper in helpers] == [0] * len(helpers)


def test_a_split_trace_reloads_bit_for_bit(helpers: list, tmp_path: Path) -> None:
    n = 4 * core._BLOCK_SAMPLES
    values = np.random.default_rng(33).normal(500.0, 100.0, n)
    series = SampleSeries(values, 60.0, 1.7e9)
    write_trace(tmp_path / "split.csv", series)
    assert len(helpers) == 1
    loaded = load_trace(tmp_path / "split.csv")
    assert loaded.values.tobytes() == series.values.tobytes()
    assert loaded.start_time_s == 1.7e9
    oracle_write_trace(tmp_path / "rows.csv", series)
    assert (tmp_path / "split.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_one_cpu_renders_every_row_in_process(
    helpers: list, monkeypatch: pytest.MonkeyPatch, tmp_path: Path
) -> None:
    use_blocks(monkeypatch, 7)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    series = SampleSeries(np.arange(9 * 7) * 0.5, 20.0, 3.0)
    write_trace(tmp_path / "one.csv", series)
    oracle_write_trace(tmp_path / "rows.csv", series)
    assert helpers == []
    assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def cannot_start(*args: object, **kwargs: object) -> None:
    raise BlockingIOError("fork: Resource temporarily unavailable")


@pytest.mark.parametrize("missing", ["process", "temporary directory"])
def test_without_a_helper_every_row_is_rendered_in_process(
    missing: str, helpers: list, monkeypatch: pytest.MonkeyPatch, tmp_path: Path
) -> None:
    use_blocks(monkeypatch, 7)
    temporary = tmp_path / "tmp"
    if missing == "process":
        temporary.mkdir()
        monkeypatch.setattr(subprocess, "Popen", cannot_start)
    monkeypatch.setattr(tempfile, "tempdir", str(temporary))
    series = SampleSeries(np.arange(9 * 7) * 0.5, 20.0, 3.0)
    write_trace(tmp_path / "trace.csv", series)
    oracle_write_trace(tmp_path / "rows.csv", series)
    assert helpers == []
    assert (tmp_path / "trace.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
    assert not temporary.exists() or list(temporary.iterdir()) == []


def helper_script(monkeypatch: pytest.MonkeyPatch, tmp_path: Path, source: str) -> Path:
    """Run ``source`` as the row helper, with temporary files in a directory of their own.

    Returns that directory.
    """
    script = tmp_path / "bin" / "helper.py"
    script.parent.mkdir()
    script.write_text(source)
    monkeypatch.setattr(_rows, "__file__", str(script))
    temporary = tmp_path / "tmp"
    temporary.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temporary))
    return temporary


def test_a_failing_helper_raises_and_leaves_no_process_or_file(
    helpers: list, monkeypatch: pytest.MonkeyPatch, tmp_path: Path
) -> None:
    use_blocks(monkeypatch, 7)
    source = "import sys\nsys.stderr.write('no rows today\\n')\nsys.exit(3)\n"
    temporary = helper_script(monkeypatch, tmp_path, source)
    out = tmp_path / "out"
    out.mkdir()
    with pytest.raises(OSError, match="exited with code 3: no rows today$"):
        write_trace(out / "trace.csv", SampleSeries(np.ones(28), 20.0))
    assert [helper.returncode for helper in helpers] == [3]
    assert [path.name for path in out.iterdir()] == ["trace.csv"]
    assert list(temporary.iterdir()) == []


def test_an_interrupted_write_kills_and_reaps_the_helper(
    helpers: list, monkeypatch: pytest.MonkeyPatch, tmp_path: Path
) -> None:
    use_blocks(monkeypatch, 7)
    temporary = helper_script(monkeypatch, tmp_path, "import time\ntime.sleep(60)\n")

    def interrupted(stamps: list, values: list) -> str:
        raise KeyboardInterrupt

    monkeypatch.setattr(_rows, "render", interrupted)
    with pytest.raises(KeyboardInterrupt):
        write_trace(tmp_path / "trace.csv", SampleSeries(np.ones(28), 20.0))
    assert [helper.returncode for helper in helpers] == [-signal.SIGKILL]
    assert list(temporary.iterdir()) == []


def test_ground_truth_round_trip_keeps_duplicate_timestamps(tmp_path: Path) -> None:
    log = GroundTruthLog(
        entries=(
            GroundTruthEntry(10.0, "kettle on"),
            GroundTruthEntry(10.0, "lamp on"),
            GroundTruthEntry(25.5, "kettle off"),
        )
    )
    path = tmp_path / "truth.csv"
    write_ground_truth(path, log)
    assert load_ground_truth(path) == log


def test_ground_truth_labels_may_contain_commas(tmp_path: Path) -> None:
    log = GroundTruthLog(entries=(GroundTruthEntry(5.0, "oven, top element on"),))
    path = tmp_path / "truth.csv"
    write_ground_truth(path, log)
    assert load_ground_truth(path) == log


def test_ground_truth_header_is_optional_and_an_empty_file_is_an_empty_log(
    tmp_path: Path,
) -> None:
    headerless = tmp_path / "truth.csv"
    headerless.write_text("3.5,kettle on\n8.0,kettle off\n")
    log = load_ground_truth(headerless)
    assert [entry.timestamp_s for entry in log] == [3.5, 8.0]
    empty = tmp_path / "empty.csv"
    empty.write_text("timestamp_s,label\n")
    assert len(load_ground_truth(empty)) == 0


def test_ground_truth_parse_and_order_errors(tmp_path: Path) -> None:
    wide = tmp_path / "wide.csv"
    wide.write_text("3.5,kettle,on\n")
    with pytest.raises(ParseError, match=r"wide\.csv:1"):
        load_ground_truth(wide)
    bad_time = tmp_path / "bad.csv"
    # A non-numeric first line reads as a header, so the bad row goes second.
    bad_time.write_text("3.0,kettle on\nnoon,kettle off\n")
    with pytest.raises(ParseError, match="not a timestamp"):
        load_ground_truth(bad_time)
    unsorted = tmp_path / "unsorted.csv"
    unsorted.write_text("8.0,kettle off\n3.5,kettle on\n")
    with pytest.raises(UnsortedInput):
        load_ground_truth(unsorted)


@pytest.mark.parametrize("stamp", ["nan", "inf", "-inf"])
def test_non_finite_truth_timestamps_name_the_file_and_line(stamp: str, tmp_path: Path) -> None:
    path = write_bytes(tmp_path / "truth.csv", f"1.0,a\n{stamp},b\n")
    with pytest.raises(NonFiniteValue) as excinfo:
        load_ground_truth(path)
    assert str(excinfo.value) == f"{path}:2: timestamp {float(stamp)} is not finite"


def test_ground_truth_errors_name_the_line_after_a_label_that_spans_lines(
    tmp_path: Path,
) -> None:
    # csv reads a quoted label over two lines as one record, so records and
    # lines part after it: the bad timestamp is on line 5, in record 4.
    path = write_bytes(tmp_path / "truth.csv", '1.0,a\n2.0,"two\nlines"\n3.0,c\nnoon,d\n')
    with pytest.raises(ParseError) as excinfo:
        load_ground_truth(path)
    assert str(excinfo.value) == f"{path}:5: not a timestamp: 'noon'"
    # A record that spans lines is named by the line it starts on.
    path = write_bytes(tmp_path / "spanning.csv", '1.0,a\nnoon,"two\nlines"\n')
    with pytest.raises(ParseError) as excinfo:
        load_ground_truth(path)
    assert str(excinfo.value) == f"{path}:2: not a timestamp: 'noon'"
    path = write_bytes(tmp_path / "good.csv", '1.0,a\n2.0,"two\nlines"\n3.0,c\n')
    assert [entry.label for entry in load_ground_truth(path)] == ["a", "two\nlines", "c"]


def test_ground_truth_skips_blank_and_comment_rows_and_keeps_counting_lines(
    tmp_path: Path,
) -> None:
    text = "timestamp_s,label\n\n   \n# a note, with a comma\n  # indented\n1.0,a\n\n2.0,b\n"
    path = write_bytes(tmp_path / "truth.csv", text)
    assert [(e.timestamp_s, e.label) for e in load_ground_truth(path)] == [(1.0, "a"), (2.0, "b")]
    path = write_bytes(tmp_path / "bad.csv", text + "# done\nnoon,c\n")
    with pytest.raises(ParseError) as excinfo:
        load_ground_truth(path)
    assert str(excinfo.value) == f"{path}:10: not a timestamp: 'noon'"


@pytest.mark.parametrize("stamp", [float("nan"), float("inf"), float("-inf")])
def test_a_reference_entry_built_with_a_non_finite_time_is_refused(stamp: float) -> None:
    with pytest.raises(NonFiniteValue) as excinfo:
        GroundTruthEntry(stamp, "kettle on")
    assert str(excinfo.value) == f"truth timestamp must be finite, got {stamp}"


def test_event_files_round_trip_with_the_documented_header(tmp_path: Path) -> None:
    events = Events([195, 703], [9.75, 35.15], [100.123456, -240.5])
    path = tmp_path / "events.csv"
    write_events(path, events)
    assert path.read_text().splitlines()[0] == "index,timestamp_s,delta_watts"
    with open(path, newline="", encoding="utf-8") as handle:
        _, *rows = csv.reader(handle)
    assert [int(row[0]) for row in rows] == [195, 703]
    for row, original in zip(rows, events):
        assert float(row[1]) == pytest.approx(original.timestamp_s, abs=5e-7)
        assert float(row[2]) == pytest.approx(original.delta_watts, abs=5e-7)


def test_events_written_to_a_stream_match_the_file(tmp_path: Path) -> None:
    events = Events([195], [9.75], [100.123456])
    path = tmp_path / "events.csv"
    write_events(str(path), events)
    stream = io.StringIO(newline="")
    write_events(stream, events)
    assert stream.getvalue() == path.read_bytes().decode("utf-8")


def test_report_rendering_shows_counts_and_two_decimal_percentages() -> None:
    text = format_report(EvaluationReport(117, 1, 4, 121))
    lines = text.splitlines()
    assert "TPR%" in lines[0]
    assert "96.69" in lines[1]
    assert "tp=117" in lines
    assert "fp=1" in lines
    assert "fn=4" in lines
    assert "tpr=96.69" in lines
    assert "fpr=0.83" in lines
    assert "fnr=3.31" in lines


def test_config_files_layer_over_an_existing_config(tmp_path: Path) -> None:
    path = tmp_path / "tuned.config"
    path.write_text(
        "# site-specific tuning\n"
        "\n"
        "power_threshold_watts = 30\n"
        "sg_window_samples = 11\n"
    )
    config = load_config_file(path)
    assert config.power_threshold_watts == 30.0
    assert config.sg_window_samples == 11
    assert config.mean_window_s == HybridConfig().mean_window_s
    layered = load_config_file(path, overrides={"derivative_epsilon": 2.0})
    assert layered.derivative_epsilon == 2.0
    assert layered.power_threshold_watts == 30.0


def test_config_parse_errors_name_the_problem(tmp_path: Path) -> None:
    unknown = tmp_path / "a.config"
    unknown.write_text("not_a_field = 3\n")
    with pytest.raises(ParseError, match="not_a_field"):
        load_config_file(unknown)
    no_equals = tmp_path / "b.config"
    no_equals.write_text("power_threshold_watts 30\n")
    with pytest.raises(ParseError, match="key=value"):
        load_config_file(no_equals)
    bad_value = tmp_path / "c.config"
    bad_value.write_text("sg_window_samples = 11.5\n")
    with pytest.raises(ParseError, match="sg_window_samples"):
        load_config_file(bad_value)


def test_a_key_given_twice_in_one_file_names_both_lines(tmp_path: Path) -> None:
    path = tmp_path / "twice.config"
    path.write_text("power_threshold_watts = 30\n# retuned\npower_threshold_watts = 40\n")
    with pytest.raises(ParseError) as excinfo:
        load_config_file(path)
    assert str(excinfo.value) == f"{path}:3: power_threshold_watts already set on line 1"


def test_config_field_constraints_still_apply_after_parsing(tmp_path: Path) -> None:
    path = tmp_path / "even.config"
    path.write_text("sg_window_samples = 8\n")
    with pytest.raises(DetectionError) as excinfo:
        load_config_file(path)
    assert not isinstance(excinfo.value, ParseError)


@pytest.mark.parametrize(
    ("line", "error", "message"),
    [
        (
            "power_threshold_watts = -5",
            DetectionError,
            "power_threshold_watts must be positive, got -5.0",
        ),
        ("loess_window_s = inf", NonFiniteValue, "loess_window_s must be finite, got inf"),
        (
            "sg_window_samples = 8",
            DetectionError,
            "sg_window_samples must be an odd integer >= 3, got 8",
        ),
        (
            "sg_poly_order = -1",
            DetectionError,
            "sg_poly_order must satisfy 0 <= order < sg_window_samples, got -1",
        ),
    ],
)
def test_a_rejected_config_value_names_the_file_and_line(
    line: str, error: type, message: str, tmp_path: Path
) -> None:
    path = tmp_path / "tuned.config"
    path.write_text(f"# tuned\n{line}\nsettle_threshold_s = 3\n")
    with pytest.raises(error) as excinfo:
        load_config_file(path)
    assert type(excinfo.value) is error
    assert str(excinfo.value) == f"{path}:2: {message}"


def test_config_rules_across_fields_are_judged_on_the_layered_config(tmp_path: Path) -> None:
    # Line 1 alone breaks time_limit_s < settle_threshold_s against the default 2 s.
    both = tmp_path / "both.config"
    both.write_text("time_limit_s = 3\nsettle_threshold_s = 5\n")
    assert load_config_file(both).time_limit_s == 3.0
    alone = tmp_path / "alone.config"
    alone.write_text("time_limit_s = 3\n")
    assert load_config_file(alone, overrides={"settle_threshold_s": 5.0}).time_limit_s == 3.0
    with pytest.raises(DetectionError) as excinfo:
        load_config_file(alone)
    assert str(excinfo.value) == (
        f"{alone}: time_limit_s must be smaller than settle_threshold_s, got 3.0 >= 2.0"
    )
    # A rule that only the overrides break is reported without the file.
    with pytest.raises(DetectionError) as excinfo:
        load_config_file(both, overrides={"settle_threshold_s": 2.5})
    assert str(excinfo.value) == (
        "time_limit_s must be smaller than settle_threshold_s, got 3.0 >= 2.5"
    )



def test_bundled_scenario_configs_parse() -> None:
    house = load_config_file(SCENARIO_DIR / "house1.config")
    assert house.derivative_epsilon == 1.0
    assert house.sg_window_samples == 41
    assert house.sg_poly_order == 2
    lighting = load_config_file(SCENARIO_DIR / "lighting.config")
    assert lighting.power_threshold_watts == 15.0
    assert lighting.settle_threshold_s == 0.3
