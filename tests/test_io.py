"""Trace, reference-log, event and config file formats."""

from __future__ import annotations

import io
from pathlib import Path

import numpy as np
import pytest

from nilmevents import (
    DetectedEvent,
    DetectionError,
    EmptyFile,
    EvaluationReport,
    GroundTruthEntry,
    GroundTruthLog,
    HybridConfig,
    NonUniformSampling,
    ParseError,
    SampleSeries,
    UnsortedInput,
    format_report,
    load_config_file,
    load_ground_truth,
    load_trace,
    read_events,
    write_events,
    write_ground_truth,
    write_trace,
)

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


def test_trace_rejects_irregular_timestamps(tmp_path: Path) -> None:
    jittered = tmp_path / "jitter.csv"
    jittered.write_text("0.0,1\n0.05,1\n0.1,1\n0.2,1\n")
    with pytest.raises(NonUniformSampling, match="sample 3"):
        load_trace(jittered)
    stalled = tmp_path / "stalled.csv"
    stalled.write_text("0.0,1\n0.05,1\n0.05,1\n")
    with pytest.raises(NonUniformSampling, match="does not advance"):
        load_trace(stalled)


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


def test_event_files_round_trip_with_the_documented_header(tmp_path: Path) -> None:
    events = [
        DetectedEvent(index=195, timestamp_s=9.75, delta_watts=100.123456),
        DetectedEvent(index=703, timestamp_s=35.15, delta_watts=-240.5),
    ]
    path = tmp_path / "events.csv"
    write_events(path, events)
    assert path.read_text().splitlines()[0] == "index,timestamp_s,delta_watts"
    loaded = read_events(path)
    assert [e.index for e in loaded] == [195, 703]
    for read_back, original in zip(loaded, events):
        assert read_back.timestamp_s == pytest.approx(original.timestamp_s, abs=5e-7)
        assert read_back.delta_watts == pytest.approx(original.delta_watts, abs=5e-7)


def test_events_written_to_a_stream_match_the_file(tmp_path: Path) -> None:
    events = [
        DetectedEvent(index=195, timestamp_s=9.75, delta_watts=100.123456),
    ]
    path = tmp_path / "events.csv"
    write_events(str(path), events)
    stream = io.StringIO(newline="")
    write_events(stream, events)
    assert stream.getvalue() == path.read_bytes().decode("utf-8")


def test_event_reader_rejects_foreign_files(tmp_path: Path) -> None:
    wrong_header = tmp_path / "other.csv"
    wrong_header.write_text("idx,time,delta\n1,2,3\n")
    with pytest.raises(ParseError, match=r"other\.csv:1"):
        read_events(wrong_header)
    bad_row = tmp_path / "bad.csv"
    bad_row.write_text("index,timestamp_s,delta_watts\n1.5,2.0,3.0\n")
    with pytest.raises(ParseError, match=r"bad\.csv:2"):
        read_events(bad_row)
    short_row = tmp_path / "short.csv"
    short_row.write_text("index,timestamp_s,delta_watts\n1,2.0\n")
    with pytest.raises(ParseError, match="3 fields"):
        read_events(short_row)


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
    base = HybridConfig(derivative_epsilon=2.0)
    layered = load_config_file(path, base=base)
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


def test_config_field_constraints_still_apply_after_parsing(tmp_path: Path) -> None:
    path = tmp_path / "even.config"
    path.write_text("sg_window_samples = 8\n")
    with pytest.raises(DetectionError) as excinfo:
        load_config_file(path)
    assert not isinstance(excinfo.value, ParseError)


def test_bundled_scenario_configs_parse() -> None:
    house = load_config_file(SCENARIO_DIR / "house1.config")
    assert house.derivative_epsilon == 1.0
    assert house.sg_window_samples == 41
    assert house.sg_poly_order == 2
    lighting = load_config_file(SCENARIO_DIR / "lighting.config")
    assert lighting.power_threshold_watts == 15.0
    assert lighting.settle_threshold_s == 0.3
