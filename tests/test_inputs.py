"""One input rule: every public record and entry point checks its own inputs.

A number is an int, a float or a numpy real scalar, never a bool, and
finite; a count, a window, an order or a seed is an integer; a label or a
name is a string; a transient is a :class:`TransientKind`, and a log or a
scenario holds records of its own entry type.  An array of samples is a
one-dimensional array of integers or floats; the candidates of the merge
and the refilter, and the extrema the refilter's guard returns, increase
strictly inside the series; and a record argument is of its record type.
A value that breaks the rule raises a named :class:`DetectionError`
subclass whose message names the field, never a bare ``TypeError``,
``AttributeError``, ``ValueError`` or ``OverflowError``.
"""

from __future__ import annotations

import json
import math
import os
import reprlib
from pathlib import Path

import numpy as np
import pytest

from nilmevents import (
    ApplianceSpec,
    DetectionError,
    EvaluationReport,
    Events,
    GroundTruthEntry,
    GroundTruthLog,
    HybridConfig,
    InconsistentCounts,
    InvalidSpec,
    InvalidWindow,
    LldConfig,
    MisalignedInput,
    NegativeTolerance,
    NonFiniteValue,
    NonPositiveDuration,
    NonPositiveRate,
    OrderTooHigh,
    SampleSeries,
    ScenarioSpec,
    TransientKind,
    WrongType,
    coalesce_simultaneous,
    detect_base,
    detect_extrema,
    detect_hybrid,
    evaluate_detections,
    first_derivative,
    format_report,
    generate_scenario,
    lld_max,
    load_scenario,
    loess_smooth,
    match_events,
    merge_transient_events,
    refilter_events_with_verdicts,
    savitzky_golay,
    scenario_from_dict,
    seconds_to_samples,
    validate_series,
    write_events,
    write_ground_truth,
    write_trace,
)

LAMP = {"label": "lamp", "power_watts": 60.0, "on_time_s": 1.0, "off_time_s": 5.0}
SCENARIO = {"sampling_rate_hz": 20.0, "duration_s": 10.0}
EVENTS = Events([20], [1.0], [60.0])
TRUTH = GroundTruthLog((GroundTruthEntry(1.0, "lamp on"),))

# The values every row is called with: none of them is a finite number.
BAD = [True, "1", None, 10**400, math.nan]

# One row per (record or function, field): what to call with the value, the
# field the message names, the kind of value the field takes, and the class
# the record raises for a bad one (None: WrongType for a value of another
# type, NonFiniteValue for one that is not finite).
ROWS = [
    (
        "SampleSeries",
        lambda v: SampleSeries(np.ones(4), v),
        "sampling_rate_hz",
        "number",
        NonPositiveRate,
    ),
    ("SampleSeries", lambda v: SampleSeries(np.ones(4), 20.0, v), "start_time_s", "number", None),
    (
        "seconds_to_samples",
        lambda v: seconds_to_samples(v, 20.0),
        "duration_s",
        "number",
        NonPositiveDuration,
    ),
    (
        "seconds_to_samples",
        lambda v: seconds_to_samples(1.0, v),
        "rate_hz",
        "number",
        NonPositiveRate,
    ),
    ("GroundTruthEntry", lambda v: GroundTruthEntry(v, "a"), "timestamp_s", "number", None),
    ("GroundTruthEntry", lambda v: GroundTruthEntry(1.0, v), "label", str, None),
    ("GroundTruthLog", lambda v: GroundTruthLog((v,)), "entries[0]", GroundTruthEntry, None),
    *(
        ("EvaluationReport", call, key, "integer", InconsistentCounts)
        for key, call in [
            ("tp", lambda v: EvaluationReport(v, 0, 0, 1)),
            ("fp", lambda v: EvaluationReport(1, v, 0, 1)),
            ("fn", lambda v: EvaluationReport(0, 0, v, 1)),
            ("ground_truth_count", lambda v: EvaluationReport(1, 0, 0, v)),
        ]
    ),
    (
        "match_events",
        lambda v: match_events(EVENTS, TRUTH, v),
        "tolerance_s",
        "number",
        NegativeTolerance,
    ),
    (
        "evaluate_detections",
        lambda v: evaluate_detections(EVENTS, TRUTH, v),
        "tolerance_s",
        "number",
        NegativeTolerance,
    ),
    *(
        ("ScenarioSpec", lambda v, k=key: ScenarioSpec(**SCENARIO | {k: v}), key, kind, InvalidSpec)
        for key, kind in [
            ("sampling_rate_hz", "number"),
            ("duration_s", "number"),
            ("noise_std_watts", "number"),
            ("seed", "integer"),
            ("name", str),
        ]
    ),
    (
        "ScenarioSpec",
        lambda v: ScenarioSpec(**SCENARIO, appliances=(v,)),
        "appliances[0]",
        ApplianceSpec,
        InvalidSpec,
    ),
    *(
        ("ApplianceSpec", lambda v, k=key: ApplianceSpec(**{**LAMP, k: v}), key, kind, InvalidSpec)
        for key, kind in [
            ("label", str),
            ("power_watts", "number"),
            ("on_time_s", "number"),
            ("off_time_s", "number"),
            ("transient", TransientKind),
            ("transient_duration_s", "number"),
            ("fluctuation_amplitude_watts", "number"),
        ]
    ),
    *(
        ("HybridConfig", lambda v, k=key: HybridConfig(**{k: v}), key, kind, None)
        for key, kind in [("mean_window_s", "number"), ("sg_window_samples", "integer")]
    ),
    *(
        ("LldConfig", lambda v, k=key: LldConfig(**{k: v}), key, kind, None)
        for key, kind in [("power_threshold_watts", "number"), ("pre_window_samples", "integer")]
    ),
    (
        "loess_smooth",
        lambda v: loess_smooth(np.ones(9), v),
        "window_samples",
        "integer",
        InvalidWindow,
    ),
    (
        "savitzky_golay",
        lambda v: savitzky_golay(np.ones(9), 9, v),
        "poly_order",
        "integer",
        OrderTooHigh,
    ),
]


def expected_refusal(value: object, field: str, kind: object, error: type | None) -> tuple:
    """The class and the message that the rule gives ``value`` in a field of ``kind``."""
    shown = reprlib.repr(value)
    if not isinstance(kind, str):
        return error or WrongType, f"{field} must be of type {kind.__name__}, got {shown}"
    a_number = type(value) in (int, float) and (kind == "number" or type(value) is int)
    if a_number:  # a number of the field's type that is not finite
        return error or NonFiniteValue, f"{field} must be finite, got {shown}"
    what = "an integer" if kind == "integer" else "a number"
    return error or WrongType, f"{field} must be {what}, got {shown}"


CASES = [
    pytest.param(call, field, kind, error, value, id=f"{name}.{field}={reprlib.repr(value)}")
    for name, call, field, kind, error in ROWS
    for value in BAD
    if not (isinstance(kind, type) and isinstance(value, kind))  # "1" is a label
]


@pytest.mark.parametrize(("call", "field", "kind", "error", "value"), CASES)
def test_a_value_that_breaks_the_rule_is_refused_by_name(
    call, field: str, kind: object, error: type | None, value: object
) -> None:
    expected, message = expected_refusal(value, field, kind, error)
    assert issubclass(expected, DetectionError) and expected is not DetectionError
    with pytest.raises(DetectionError) as excinfo:
        call(value)
    assert type(excinfo.value) is expected
    assert str(excinfo.value) == message


SPEC_CASES = [
    pytest.param(record, key, value, id=f"{record}.{key}={reprlib.repr(value)}")
    for record, keys in [
        ("scenario", ["sampling_rate_hz", "duration_s", "noise_std_watts", "seed", "name"]),
        ("appliance", [*LAMP, "transient", "transient_duration_s", "fluctuation_amplitude_watts"]),
    ]
    for key in keys
    for value in [*BAD, [1], {"a": 1}]
    if not (key in ("name", "label") and isinstance(value, str))
]


@pytest.mark.parametrize(("record", "key", "value"), SPEC_CASES)
def test_the_scenario_reader_and_a_python_spec_refuse_a_value_alike(
    record: str, key: str, value: object, tmp_path: Path
) -> None:
    if record == "scenario":
        built, arguments = ScenarioSpec, {**SCENARIO, key: value}
        payload = arguments
    else:
        built, arguments = ApplianceSpec, {**LAMP, key: value}
        payload = {**SCENARIO, "appliances": [arguments]}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(InvalidSpec) as from_python:
        built(**arguments)
    with pytest.raises(InvalidSpec) as from_file:
        load_scenario(path)
    assert str(from_file.value) == str(from_python.value)
    assert key in str(from_python.value)


def test_a_transient_is_a_kind_in_python_and_read_as_one_from_its_name() -> None:
    hood = {"label": "hood", "power_watts": 100.0, "on_time_s": 0.0, "off_time_s": 5.0}
    with pytest.raises(InvalidSpec) as excinfo:
        ApplianceSpec(**hood, transient="ramp", transient_duration_s=2.0)
    assert str(excinfo.value) == "transient must be of type TransientKind, got 'ramp'"
    read = {**hood, "transient": "ramp", "transient_duration_s": 2.0}
    spec = scenario_from_dict({**SCENARIO, "appliances": [read]})
    assert spec.appliances[0].transient is TransientKind.RAMP
    series, _ = generate_scenario(spec)
    # At 20 Hz a 2 s ramp to 100 W rises 2.5 W a sample, not a step to 50 W.
    np.testing.assert_allclose(series.values[:3], [2.5, 5.0, 7.5])


def test_a_log_of_tuples_is_refused_before_evaluation_reads_it() -> None:
    with pytest.raises(WrongType) as excinfo:
        evaluate_detections(EVENTS, GroundTruthLog(((1.0, "lamp on"),)), 1.0)
    assert str(excinfo.value) == "entries[0] must be of type GroundTruthEntry, got (1.0, 'lamp on')"


@pytest.mark.parametrize("entries", [None, 1.0, "lamp on", {"a": 1}], ids=repr)
def test_a_log_takes_a_tuple_or_a_list_of_entries(entries: object) -> None:
    with pytest.raises(WrongType) as excinfo:
        GroundTruthLog(entries)  # type: ignore[arg-type]
    assert str(excinfo.value) == f"entries must be a tuple or a list, got {reprlib.repr(entries)}"
    assert GroundTruthLog([GroundTruthEntry(1.0, "a")]).entries == (GroundTruthEntry(1.0, "a"),)


def test_numpy_scalars_are_numbers_and_are_stored_as_python_scalars() -> None:
    series = SampleSeries(np.ones(4), np.float32(20.0), np.int64(-3))
    assert (series.sampling_rate_hz, series.start_time_s) == (20.0, -3.0)
    assert type(series.sampling_rate_hz) is type(series.start_time_s) is float
    spec = ScenarioSpec(np.int64(20), np.float64(10.0), seed=np.uint8(7))
    assert type(spec.sampling_rate_hz) is float and type(spec.seed) is int
    report = EvaluationReport(np.int64(1), np.int32(0), 0, 1)
    assert type(report.tp) is type(report.fp) is int
    assert seconds_to_samples(np.float32(0.5), np.int64(20)) == 10


# --- Records: a record argument of another type is refused by name ---

SERIES = SampleSeries(np.ones(40), 20.0)
CONFIG = HybridConfig()
REPORT = EvaluationReport(1, 0, 0, 1)
SPEC = ScenarioSpec(**SCENARIO)


def no_extrema(indices: np.ndarray, radius: int) -> np.ndarray:
    """A guard that finds no extremum."""
    return np.empty(0, dtype=np.int64)


# One row per (function, record parameter): what to call with the value, the
# parameter, and its type.  Writers write to the null device.
RECORD_ROWS = [
    ("detect_hybrid", lambda v: detect_hybrid(v, CONFIG), "series", SampleSeries),
    ("detect_hybrid", lambda v: detect_hybrid(SERIES, v), "config", HybridConfig),
    ("detect_base", lambda v: detect_base(v, CONFIG), "series", SampleSeries),
    ("detect_base", lambda v: detect_base(SERIES, v), "config", HybridConfig),
    ("lld_max", lambda v: lld_max(v, LldConfig()), "series", SampleSeries),
    ("lld_max", lambda v: lld_max(SERIES, v), "config", LldConfig),
    (
        "merge_transient_events",
        lambda v: merge_transient_events(v, np.zeros(40), SERIES, CONFIG),
        "candidates",
        Events,
    ),
    (
        "merge_transient_events",
        lambda v: merge_transient_events(EVENTS, np.zeros(40), v, CONFIG),
        "series",
        SampleSeries,
    ),
    (
        "merge_transient_events",
        lambda v: merge_transient_events(EVENTS, np.zeros(40), SERIES, v),
        "config",
        HybridConfig,
    ),
    (
        "refilter_events_with_verdicts",
        lambda v: refilter_events_with_verdicts(v, EVENTS, no_extrema, CONFIG),
        "series",
        SampleSeries,
    ),
    (
        "refilter_events_with_verdicts",
        lambda v: refilter_events_with_verdicts(SERIES, v, no_extrema, CONFIG),
        "candidates",
        Events,
    ),
    (
        "refilter_events_with_verdicts",
        lambda v: refilter_events_with_verdicts(SERIES, EVENTS, no_extrema, v),
        "config",
        HybridConfig,
    ),
    ("validate_series", validate_series, "series", SampleSeries),
    ("coalesce_simultaneous", coalesce_simultaneous, "log", GroundTruthLog),
    ("match_events", lambda v: match_events(v, TRUTH, 1.0), "detections", Events),
    ("match_events", lambda v: match_events(EVENTS, v, 1.0), "truth", GroundTruthLog),
    ("evaluate_detections", lambda v: evaluate_detections(v, TRUTH, 1.0), "detections", Events),
    (
        "evaluate_detections",
        lambda v: evaluate_detections(EVENTS, v, 1.0),
        "truth",
        GroundTruthLog,
    ),
    ("write_trace", lambda v: write_trace(os.devnull, v), "series", SampleSeries),
    ("write_ground_truth", lambda v: write_ground_truth(os.devnull, v), "log", GroundTruthLog),
    ("write_events", lambda v: write_events(os.devnull, v), "events", Events),
    ("format_report", format_report, "report", EvaluationReport),
    ("generate_scenario", generate_scenario, "spec", ScenarioSpec),
]

# None, an array, a dict, and a record of another type.
RECORD_CASES = [
    pytest.param(call, field, kind, value, id=f"{name}.{field}={label}")
    for name, call, field, kind in RECORD_ROWS
    for label, value in [
        ("None", None),
        ("ndarray", np.ones(40)),
        ("dict", {"values": [1.0]}),
        ("record", TRUTH if kind is not GroundTruthLog else EVENTS),
    ]
]


@pytest.mark.parametrize(("call", "field", "kind", "value"), RECORD_CASES)
def test_a_record_argument_of_another_type_is_refused_by_name(
    call, field: str, kind: type, value: object
) -> None:
    with pytest.raises(DetectionError) as excinfo:
        call(value)
    assert type(excinfo.value) is WrongType
    shown = reprlib.repr(value)
    assert str(excinfo.value) == f"{field} must be of type {kind.__name__}, got {shown}"


def test_report_matches_are_a_tuple_or_a_list_of_pairs() -> None:
    with pytest.raises(InconsistentCounts) as excinfo:
        EvaluationReport(1, 0, 0, 1, matches=5)
    assert str(excinfo.value) == "matches must be a tuple or a list, got 5"
    with pytest.raises(InconsistentCounts) as excinfo:
        EvaluationReport(1, 0, 0, 1, matches=[5])
    assert str(excinfo.value) == "matches[0] must be of type tuple, got 5"
    assert EvaluationReport(1, 0, 0, 1, matches=[(0, 0)]).matches == ((0, 0),)


# --- Sample arrays: a one-dimensional array of integers or floats ---

# One row per (function or record, array argument).
SAMPLE_ROWS = [
    ("SampleSeries", lambda v: SampleSeries(v, 20.0), "values"),
    ("Events", lambda v: Events([1], v, [1.0]), "timestamps_s"),
    ("Events", lambda v: Events([1], [1.0], v), "deltas_watts"),
    ("first_derivative", first_derivative, "values"),
    ("loess_smooth", lambda v: loess_smooth(v, 3), "values"),
    ("savitzky_golay", lambda v: savitzky_golay(v, 3, 1), "values"),
    ("detect_extrema", detect_extrema, "values"),
    (
        "merge_transient_events",
        lambda v: merge_transient_events(EVENTS, v, SERIES, CONFIG),
        "smoothed_derivative",
    ),
]

# A string, strings, bools, complex numbers, a 2-D array and a None among floats.
SAMPLE_CASES = [
    pytest.param(call, field, value, id=f"{name}.{field}={label}")
    for name, call, field in SAMPLE_ROWS
    for label, value in [
        ("str", "abc"),
        ("strs", ["1", "2"]),
        ("bool", np.array([True, False, True])),
        ("complex", np.array([1.0, 2.0, 3.0]) + 1j),
        ("2-d", np.ones((3, 9))),
        ("None", [None, 1.0]),
    ]
]


@pytest.mark.parametrize(("call", "field", "value"), SAMPLE_CASES)
def test_an_array_that_is_not_samples_is_refused_by_name(
    call, field: str, value: object
) -> None:
    with pytest.raises(DetectionError) as excinfo:
        call(value)
    assert type(excinfo.value) is WrongType
    shown = reprlib.repr(value)
    assert str(excinfo.value) == f"{field} must be a one-dimensional array of numbers, got {shown}"


def test_a_float64_array_of_samples_is_taken_with_no_copy() -> None:
    values = np.linspace(0.0, 1.0, 40)
    assert SampleSeries(values, 20.0).values is values
    stamps = np.arange(2.0)
    assert Events([1, 2], stamps, np.ones(2)).timestamps_s is stamps
    assert SampleSeries([1, 2, 3], 20.0).values.dtype == np.float64


# --- Positions: the merge and the refilter check candidates by one rule ---


@pytest.mark.parametrize(
    ("indices", "bad"),
    [
        ([30, 5], "candidates[1] = 5"),
        ([5, 5], "candidates[1] = 5"),
        ([5, 40], "candidates[1] = 40"),
    ],
)
def test_the_merge_and_the_refilter_refuse_the_same_candidates_alike(
    indices: list[int], bad: str
) -> None:
    candidates = Events(indices, [0.0, 1.0], [1.0, -1.0])
    message = f"candidates must increase strictly and lie in [0, 40), got {bad}"
    for call in (
        lambda: merge_transient_events(candidates, np.zeros(40), SERIES, CONFIG),
        lambda: refilter_events_with_verdicts(SERIES, candidates, no_extrema, CONFIG),
    ):
        with pytest.raises(MisalignedInput) as excinfo:
            call()
        assert str(excinfo.value) == message
