"""Command-line interface, run in-process."""

from __future__ import annotations

import csv
import json
import re
import shlex
import shutil
from collections import Counter
from pathlib import Path

import pytest

import nilmevents.cli
import nilmevents.derivative
import nilmevents.filtering
from nilmevents import _rows, core
from nilmevents import (
    ApplianceSpec,
    HybridConfig,
    LldConfig,
    NonFiniteValue,
    ScenarioSpec,
    detect_base,
    detect_extrema,
    detect_hybrid,
    first_derivative,
    generate_scenario,
    lld_max,
    load_config_file,
    load_ground_truth,
    load_scenario,
    load_trace,
    loess_smooth,
    merge_transient_events,
    write_events,
    write_trace,
)
from nilmevents.cli import cli_main
from nilmevents.filtering import refilter_events_with_verdicts

from blocks import use_blocks
from oracles import oracle_write_trace
from replicas import SCENARIO_DIR


def render_scenario(name: str, tmp_path: Path) -> tuple[Path, Path]:
    trace = tmp_path / f"{name}.csv"
    truth = tmp_path / f"{name}_truth.csv"
    code = cli_main(
        [
            "synth",
            str(SCENARIO_DIR / f"{name}.json"),
            "--out",
            str(trace),
            "--truth",
            str(truth),
        ]
    )
    assert code == 0
    return trace, truth


def write_small_step_trace(tmp_path: Path) -> Path:
    """A clean +20 W step at 10 s: below the default alarm threshold."""
    spec = ScenarioSpec(
        sampling_rate_hz=20.0,
        duration_s=60.0,
        appliances=(
            ApplianceSpec(label="lamp", power_watts=20.0, on_time_s=10.0, off_time_s=60.0),
        ),
    )
    series, _ = generate_scenario(spec)
    path = tmp_path / "step.csv"
    write_trace(path, series)
    return path


def test_synth_writes_trace_and_truth_files(tmp_path: Path, capsys) -> None:
    trace, truth = render_scenario("kitchen", tmp_path)
    err = capsys.readouterr().err
    assert "samples=11398" in err
    assert "entries=6" in err
    assert len(load_trace(trace)) == 11398
    assert len(load_ground_truth(truth)) == 6


def test_synth_writes_the_file_the_row_oracle_writes(
    small_blocks: int, helpers: list, tmp_path: Path
) -> None:
    trace, _ = render_scenario("kitchen", tmp_path)
    assert [helper.returncode for helper in helpers] == [0]
    series, _ = generate_scenario(load_scenario(SCENARIO_DIR / "kitchen.json"))
    expected = tmp_path / "rows.csv"
    oracle_write_trace(expected, series)
    assert trace.read_bytes() == expected.read_bytes()


def test_synth_exits_with_code_two_when_the_row_helper_fails(
    helpers: list, monkeypatch: pytest.MonkeyPatch, tmp_path: Path, capsys
) -> None:
    script = tmp_path / "failing.py"
    script.write_text("import sys\nsys.exit('cannot render')\n")
    monkeypatch.setattr(_rows, "__file__", str(script))
    use_blocks(monkeypatch, 256)
    out = tmp_path / "trace.csv"
    assert cli_main(["synth", str(SCENARIO_DIR / "kitchen.json"), "--out", str(out)]) == 2
    message = f"error: {out}: the row helper exited with code 1: cannot render\n"
    assert capsys.readouterr().err == message
    assert [helper.returncode for helper in helpers] == [1]


def test_detect_prints_final_events_and_stage_counts(tmp_path: Path, capsys) -> None:
    trace, _ = render_scenario("rangehood", tmp_path)
    capsys.readouterr()
    assert cli_main(["detect", str(trace)]) == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0] == "index,timestamp_s,delta_watts"
    assert len(lines) == 2
    index, timestamp, delta = lines[1].split(",")
    assert 19.5 <= float(timestamp) <= 21.5
    assert float(delta) > 0
    assert re.search(r"stages base=\d+ after_derivative=1 final=1", captured.err)


STAGE_FILES = [
    "events_base.csv",
    "events_final.csv",
    "events_merged.csv",
    "extrema.csv",
    "verdicts.csv",
]


def test_detect_emit_stages_writes_the_five_stage_files(tmp_path: Path, capsys) -> None:
    trace, _ = render_scenario("rangehood", tmp_path)
    stage_dir = tmp_path / "stages"
    assert cli_main(["detect", str(trace), "--emit-stages", str(stage_dir)]) == 0
    capsys.readouterr()
    assert sorted(path.name for path in stage_dir.iterdir()) == STAGE_FILES
    stage_rows = {}
    for stage in ("base", "merged", "final"):
        with open(stage_dir / f"events_{stage}.csv", newline="", encoding="utf-8") as handle:
            header, *stage_rows[stage] = csv.reader(handle)
        assert header == ["index", "timestamp_s", "delta_watts"]
    assert len(stage_rows["base"]) >= len(stage_rows["merged"]) >= len(stage_rows["final"]) == 1
    assert (stage_dir / "extrema.csv").read_text().splitlines()[0] == "index"


@pytest.mark.parametrize("name", ["kitchen", "house1"])
def test_detect_emit_stages_lists_the_extrema_the_guard_read(
    name: str, tmp_path: Path, capsys
) -> None:
    # The refilter fires on both replicas, but only on house1 does its guard
    # read extrema: one for each of its 7 candidates protected by an extremum.
    trace, _ = render_scenario(name, tmp_path)
    config_path = SCENARIO_DIR / f"{name}.config"
    stage_dir = tmp_path / "stages"
    argv = ["detect", str(trace), "--config", str(config_path), "--emit-stages", str(stage_dir)]
    assert cli_main(argv) == 0
    capsys.readouterr()
    extrema = detect_hybrid(load_trace(trace), load_config_file(config_path)).extrema.tolist()
    assert extrema == {
        "kitchen": [],
        "house1": [3462, 17598, 18482, 19846, 21786, 24187, 26308],
    }[name]
    expected = ["index"] + [str(index) for index in extrema]
    assert (stage_dir / "extrema.csv").read_text().splitlines() == expected


def test_evaluate_scores_a_clean_scenario_perfectly(tmp_path: Path, capsys) -> None:
    trace, truth = render_scenario("rangehood", tmp_path)
    capsys.readouterr()
    assert cli_main(["evaluate", str(trace), str(truth)]) == 0
    out = capsys.readouterr().out
    assert "tp=1" in out
    assert "fp=0" in out
    assert "fn=0" in out
    assert "tpr=100.00" in out


def test_evaluate_honours_a_config_file(tmp_path: Path, capsys) -> None:
    trace, truth = render_scenario("kitchen", tmp_path)
    capsys.readouterr()
    code = cli_main(
        ["evaluate", str(trace), str(truth), "--config", str(SCENARIO_DIR / "kitchen.config")]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "tp=6" in out
    assert "fp=0" in out
    assert "tpr=100.00" in out


@pytest.mark.parametrize("name", ["house1", "kitchen", "lighting", "rangehood"])
def test_compare_with_no_flags_reports_both_detectors(name: str, tmp_path: Path, capsys) -> None:
    # house1, kitchen and lighting are noise-free and start flat.
    trace, truth = render_scenario(name, tmp_path)
    capsys.readouterr()
    assert cli_main(["compare", str(trace), str(truth)]) == 0
    out = capsys.readouterr().out
    assert "detector=hybrid" in out
    assert "detector=lld" in out
    assert out.count("tpr=") == 2


@pytest.mark.parametrize("command", ["detect", "evaluate", "compare"])
def test_each_command_builds_the_trace_summary_once(
    command: str, tmp_path: Path, monkeypatch, capsys
) -> None:
    # The refilter does not fire on the lighting replica, so it builds no
    # smoothed series of its own; the loaded series' summary serves every stage.
    trace, truth = render_scenario("lighting", tmp_path)
    samples = len(load_trace(trace))
    built = []
    build = core._Summary.of.__func__

    def counting(cls, x):
        built.append(x.size)
        return build(cls, x)

    monkeypatch.setattr(core._Summary, "of", classmethod(counting))
    args = [str(trace)] if command == "detect" else [str(trace), str(truth)]
    assert cli_main([command, *args]) == 0
    assert built == [samples]
    capsys.readouterr()


def test_compare_applies_only_the_given_likelihood_flags(tmp_path: Path, capsys) -> None:
    trace, truth = render_scenario("rangehood", tmp_path)
    series = load_trace(trace)
    threshold_and_precision = LldConfig(power_threshold_watts=35.0, maxima_precision_samples=4)
    # The threshold alone gives 2 events here and the precision alone 6.
    for flags, config, expected in (
        ([], LldConfig(), 3),
        (["--lld-threshold", "35", "--lld-precision", "4"], threshold_and_precision, 5),
    ):
        capsys.readouterr()
        assert cli_main(["compare", str(trace), str(truth), *flags]) == 0
        lld_block = capsys.readouterr().out.split("detector=lld")[1]
        assert len(lld_max(series, config)) == expected
        assert f"events={expected}\n" in lld_block


def test_explicit_flags_override_the_config_file(tmp_path: Path, capsys) -> None:
    trace = write_small_step_trace(tmp_path)
    config = tmp_path / "sensitive.config"
    config.write_text("power_threshold_watts = 10\n")

    assert cli_main(["detect", str(trace)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1  # header only

    assert cli_main(["detect", str(trace), "--threshold", "10"]) == 0
    flagged = capsys.readouterr().out.splitlines()
    assert len(flagged) == 2
    assert 9.0 <= float(flagged[1].split(",")[1]) <= 11.5

    assert cli_main(["detect", str(trace), "--config", str(config)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2

    assert cli_main(["detect", str(trace), "--config", str(config), "--threshold", "50"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1


def test_missing_or_malformed_inputs_exit_with_code_two(tmp_path: Path, capsys) -> None:
    missing = tmp_path / "nowhere.csv"
    assert cli_main(["detect", str(missing)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "nowhere.csv" in err

    trace, _ = render_scenario("rangehood", tmp_path)
    assert cli_main(["evaluate", str(trace), str(tmp_path / "no_truth.csv")]) == 2
    assert "no_truth.csv" in capsys.readouterr().err

    malformed = tmp_path / "malformed.csv"
    malformed.write_text("0.0,100\n0.05,oops\n")
    assert cli_main(["detect", str(malformed)]) == 2

    bad_config = tmp_path / "bad.config"
    bad_config.write_text("warp_factor = 9\n")
    assert cli_main(["detect", str(trace), "--config", str(bad_config)]) == 2


@pytest.mark.parametrize("reader", ["trace", "truth", "config", "scenario"])
def test_input_that_is_not_utf8_exits_with_code_two(reader: str, tmp_path: Path, capsys) -> None:
    trace, truth = render_scenario("rangehood", tmp_path)
    sources = {
        "trace": trace,
        "truth": truth,
        "config": SCENARIO_DIR / "kitchen.config",
        "scenario": SCENARIO_DIR / "rangehood.json",
    }
    data = sources[reader].read_bytes()
    bad = tmp_path / f"bad_{reader}"
    bad.write_bytes(data[: len(data) // 2] + b"\xff" + data[len(data) // 2 :])
    argv = {
        "trace": ["detect", str(bad)],
        "truth": ["evaluate", str(trace), str(bad)],
        "config": ["detect", str(trace), "--config", str(bad)],
        "scenario": ["synth", str(bad), "--out", str(tmp_path / "out.csv")],
    }[reader]
    capsys.readouterr()
    assert cli_main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {bad}: not UTF-8 text")
    assert "Traceback" not in captured.err
    assert captured.out == ""


LAMP = {"label": "lamp", "power_watts": 60.0, "on_time_s": 1.0, "off_time_s": 5.0}


@pytest.mark.parametrize(
    ("overrides", "key"),
    [
        ({"appliances": [{**LAMP, "power_watts": "abc"}]}, "power_watts"),
        ({"appliances": [{**LAMP, "power_watts": None}]}, "power_watts"),
        ({"appliances": [{**LAMP, "power_watts": True}]}, "power_watts"),
        ({"appliances": [{**LAMP, "power_watts": 10**400}]}, "power_watts"),
        ({"appliances": [5]}, "appliances"),
        ({"seed": "x"}, "seed"),
        ({"seed": 1.5}, "seed"),
        ({"appliances": [{**LAMP, "label": 5}]}, "label"),
        ({"name": 7}, "name"),
        ({"sampling_rate_hz": 1e308, "duration_s": 1e308}, "duration_s"),
    ],
)
def test_a_malformed_scenario_exits_with_code_two_and_names_the_key(
    overrides: dict, key: str, tmp_path: Path, capsys
) -> None:
    # Apart from the 1e308 case, each scenario here would render only 200 samples.
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"sampling_rate_hz": 20.0, "duration_s": 10.0, **overrides}))
    out = tmp_path / "out.csv"
    assert cli_main(["synth", str(scenario), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert re.fullmatch(rf"error: [^\n]*\b{key}\b[^\n]*\n", captured.err)
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    ("text", "message"),
    [
        ("[" * 100_000 + "]" * 100_000, "nested too deeply"),  # 200 kB
        ('{"sampling_rate_hz": 20, "duration_s": 10, "seed": 1, "seed": 2}', "'seed' is set twice"),
        (
            '{"sampling_rate_hz": 20, "duration_s": 10, "appliances": [{"label": "lamp", '
            '"power_watts": 60, "power_watts": 70, "on_time_s": 1, "off_time_s": 5}]}',
            "'power_watts' is set twice",
        ),
    ],
)
def test_a_scenario_file_that_json_would_misread_exits_with_code_two(
    text: str, message: str, tmp_path: Path, capsys
) -> None:
    """Nesting past the recursion limit, and a key set twice, which ``json``
    would read as its last value, are refused as malformed scenarios."""
    scenario = tmp_path / "scenario.json"
    scenario.write_text(text)
    out = tmp_path / "out.csv"
    assert cli_main(["synth", str(scenario), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert re.fullmatch(rf"error: [^\n]*{re.escape(message)}[^\n]*\n", captured.err)
    assert not out.exists()


@pytest.mark.parametrize(
    ("rows", "message"),
    [
        ("0.0,100\n0.05,100\nnan,100\n0.15,100\n", "sample 2 timestamp nan"),
        ("0.0,100\n0.05,100\n0.1,100\ninf,100\n", "sample 3 timestamp inf"),
        ("0.0,100\n0.05,nan\n0.1,100\n", "sample 1 power nan"),
    ],
)
def test_non_finite_trace_fields_exit_with_code_two(
    rows: str, message: str, tmp_path: Path, capsys
) -> None:
    trace = tmp_path / "odd.csv"
    trace.write_text(rows)
    assert cli_main(["detect", str(trace)]) == 2
    assert capsys.readouterr().err == f"error: {trace}: {message} is not finite\n"


@pytest.mark.parametrize("source", ["config", "flag"])
def test_a_non_finite_setting_exits_with_code_two_and_says_not_finite(
    source: str, tmp_path: Path, capsys
) -> None:
    trace = write_small_step_trace(tmp_path)
    config = tmp_path / "odd.config"
    config.write_text("power_threshold_watts = inf\n")
    with pytest.raises(NonFiniteValue, match="power_threshold_watts must be finite, got inf"):
        load_config_file(config)
    flags = {"config": ["--config", str(config)], "flag": ["--threshold", "inf"]}[source]
    where = {"config": f"{config}:1: ", "flag": ""}[source]
    assert cli_main(["detect", str(trace), *flags]) == 2
    message = "power_threshold_watts must be finite, got inf"
    assert capsys.readouterr().err == f"error: {where}{message}\n"


@pytest.mark.parametrize("name", ["house1", "rangehood"])
def test_a_loess_window_under_three_samples_exits_with_code_two_and_names_the_setting(
    name: str, tmp_path: Path, capsys
) -> None:
    trace, _ = render_scenario(name, tmp_path)
    capsys.readouterr()
    assert cli_main(["detect", str(trace), "--loess-window", "0.05"]) == 2
    assert capsys.readouterr().err == (
        "error: loess_window_s = 0.05 s is 1 sample at 20 Hz; "
        "the LOESS window needs at least 3 samples\n"
    )


def test_a_rejected_config_value_exits_with_code_two_and_names_the_line(
    tmp_path: Path, capsys
) -> None:
    trace = write_small_step_trace(tmp_path)
    config = tmp_path / "odd.config"
    config.write_text("loess_window_s = 3.0\npower_threshold_watts = -5\n")
    assert cli_main(["detect", str(trace), "--config", str(config)]) == 2
    assert capsys.readouterr().err == (
        f"error: {config}:2: power_threshold_watts must be positive, got -5.0\n"
    )



@pytest.mark.parametrize(
    ("line", "flags", "message"),
    [
        (
            "time_limit_s = 3",
            ["--settle", "5"],
            "time_limit_s must be smaller than settle_threshold_s, got 3.0 >= 2.0",
        ),
        (
            "sg_poly_order = 9",
            ["--sg-window", "11"],
            "sg_poly_order must satisfy 0 <= order < sg_window_samples, got 9",
        ),
    ],
    ids=["time-limit", "sg-order"],
)
def test_flags_are_layered_over_the_config_file_before_the_rules_that_relate_two_fields(
    line: str, flags: list[str], message: str, tmp_path: Path, capsys
) -> None:
    trace = write_small_step_trace(tmp_path)
    config = tmp_path / "layered.config"
    config.write_text(f"{line}\n")
    assert cli_main(["detect", str(trace), "--config", str(config), *flags]) == 0
    capsys.readouterr()
    assert cli_main(["detect", str(trace), "--config", str(config)]) == 2
    assert capsys.readouterr().err == f"error: {config}: {message}\n"
    argv = ["detect", str(trace), "--config", str(config), *flags, "--threshold", "-5"]
    assert cli_main(argv) == 2
    assert capsys.readouterr().err == "error: power_threshold_watts must be positive, got -5.0\n"


@pytest.mark.parametrize(("flag", "name"), [("--lld-threshold", "power_threshold_watts")])
def test_a_non_finite_likelihood_setting_exits_with_code_two_and_says_not_finite(
    flag: str, name: str, tmp_path: Path, capsys
) -> None:
    trace, truth = render_scenario("kitchen", tmp_path)
    capsys.readouterr()
    assert cli_main(["compare", str(trace), str(truth), flag, "inf"]) == 2
    assert capsys.readouterr().err == f"error: {name} must be finite, got inf\n"


def test_detect_with_stages_detects_once_and_recomputes_nothing(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch, capsys
) -> None:
    # The smoothing kernels every stage computes through, each counted where
    # its callers look it up, so that a stage file computed again shows up.
    trace, _ = render_scenario("kitchen", tmp_path)
    capsys.readouterr()
    calls: Counter = Counter()
    for module, name in (
        (nilmevents.cli, "detect_hybrid"),
        (nilmevents.derivative, "first_derivative"),
        (nilmevents.derivative, "_smooth"),
        (nilmevents.derivative, "_settled_of"),
        (nilmevents.filtering, "savitzky_golay"),
    ):
        wrapped = getattr(module, name)

        def counting(*args, _name=name, _wrapped=wrapped, **kwargs):
            calls[_name] += 1
            return _wrapped(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    argv = ["detect", str(trace), "--config", str(SCENARIO_DIR / "kitchen.config")]
    assert cli_main(argv) == 0
    plain, plain_calls = capsys.readouterr(), calls.copy()
    calls.clear()
    assert cli_main([*argv, "--emit-stages", str(tmp_path / "stages")]) == 0
    assert capsys.readouterr() == plain
    assert calls == plain_calls
    assert calls["detect_hybrid"] == 1
    assert len(calls) == 5  # every kernel runs, so one run again would show


@pytest.mark.parametrize("name", ["kitchen", "lighting", "house1"])
def test_emitted_stage_files_are_what_the_whole_trace_chain_decides(
    name: str, tmp_path: Path, capsys
) -> None:
    trace, _ = render_scenario(name, tmp_path)
    capsys.readouterr()
    config_path = SCENARIO_DIR / f"{name}.config"
    stage_dir = tmp_path / "stages"
    argv = ["detect", str(trace), "--config", str(config_path), "--emit-stages", str(stage_dir)]
    assert cli_main(argv) == 0
    err = capsys.readouterr().err

    series, config = load_trace(trace), load_config_file(config_path)
    smoothed = loess_smooth(
        first_derivative(series.values), config.loess_window_samples(series.sampling_rate_hz)
    )
    base = detect_base(series, config)
    merged = base[merge_transient_events(base, smoothed, series, config)]
    extrema = detect_extrema(smoothed, config.derivative_epsilon)
    kept, verdicts, read = refilter_events_with_verdicts(
        series, merged, lambda indices, radius: extrema, config
    )
    final = merged[kept]
    assert err == f"stages base={len(base)} after_derivative={len(merged)} final={len(final)}\n"
    # On kitchen and house1 the refilter fires, one verdict per merged event; on
    # lighting it does not.  house1 gives all three verdicts.
    assert len(verdicts) == {"kitchen": 15, "lighting": 0, "house1": 26}[name]
    assert len(verdicts) in (0, len(merged))
    assert Counter(v.reason.value for v in verdicts) == {
        "kitchen": {"removed_as_fluctuation": 9, "survived_refilter": 6},
        "lighting": {},
        "house1": {
            "survived_refilter": 13,
            "protected_by_extremum": 7,
            "removed_as_fluctuation": 6,
        },
    }[name]
    expected = tmp_path / "expected"
    expected.mkdir()
    for stage, events in (("base", base), ("merged", merged), ("final", final)):
        write_events(expected / f"events_{stage}.csv", events)
    (expected / "verdicts.csv").write_text(
        "index,reason\r\n"
        + "".join(f"{v.event_index},{v.reason.value}\r\n" for v in verdicts),
        newline="",
    )
    (expected / "extrema.csv").write_text(
        "index\r\n" + "".join(f"{i}\r\n" for i in read.tolist()), newline=""
    )
    names = sorted(path.name for path in stage_dir.iterdir())
    assert names == sorted(path.name for path in expected.iterdir()) == STAGE_FILES
    for file_name in names:
        written = (stage_dir / file_name).read_bytes()
        assert written == (expected / file_name).read_bytes(), file_name


def test_usage_errors_exit_with_code_one(tmp_path: Path, capsys) -> None:
    assert cli_main(["frobnicate"]) == 1
    assert cli_main([]) == 1
    trace, _ = render_scenario("rangehood", tmp_path)
    assert cli_main(["detect", str(trace), "--sg-window", "many"]) == 1
    capsys.readouterr()


def test_detect_takes_no_tolerance_flag_but_any_command_takes_the_config_key(
    tmp_path: Path, capsys
) -> None:
    # The tolerance only scores, and detect scores nothing.
    trace, truth = render_scenario("rangehood", tmp_path)
    capsys.readouterr()
    assert cli_main(["detect", str(trace), "--tolerance", "0.5"]) == 1
    assert "unrecognized arguments: --tolerance" in capsys.readouterr().err
    config = tmp_path / "scoring.config"
    config.write_text("eval_match_tolerance_s = 0.5\n")
    for args in (["detect", str(trace)], ["evaluate", str(trace), str(truth)]):
        assert cli_main([*args, "--config", str(config)]) == 0
    assert cli_main(["compare", str(trace), str(truth), "--config", str(config)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("name", ["house1", "kitchen"])
def test_compare_scores_the_same_hybrid_events_at_any_tolerance(
    name: str, tmp_path: Path, capsys
) -> None:
    # The refilter fires on both replicas; the tolerance must not change what it keeps.
    trace, truth = render_scenario(name, tmp_path)
    config = str(SCENARIO_DIR / f"{name}.config")
    hybrid_events = []
    for tolerance in ("1.0", "0.05"):
        capsys.readouterr()
        argv = ["compare", str(trace), str(truth), "--config", config, "--tolerance", tolerance]
        assert cli_main(argv) == 0
        hybrid = capsys.readouterr().out.split("detector=lld")[0]
        hybrid_events.append(re.search(r"^events=\d+$", hybrid, re.M).group())
    assert hybrid_events[0] == hybrid_events[1]


def test_readme_cli_example_runs_as_written(tmp_path: Path, monkeypatch, capsys) -> None:
    readme = (SCENARIO_DIR.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.strip()]
    assert lines
    shutil.copytree(SCENARIO_DIR, tmp_path / "scenarios")
    monkeypatch.chdir(tmp_path)
    for line in lines:
        program, *args = shlex.split(line)
        assert program == "nilmevents"
        assert cli_main(args) == 0, (line, capsys.readouterr().err)
    # The plotting recipe reads the trace the commands wrote.
    recipe = readme.split("## CLI", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    exec(compile(recipe, "README.md", "exec"), namespace)
    assert namespace["s"].size == len(load_trace("kitchen.csv"))


def test_readme_library_example_runs_as_written(capsys) -> None:
    readme = (SCENARIO_DIR.parent / "README.md").read_text()
    block = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert len(namespace["result"].events) == 1
    assert capsys.readouterr().out.splitlines() == ["9.70s  +250 W"]


def test_help_and_version_exit_cleanly(capsys) -> None:
    assert cli_main(["--help"]) == 0
    assert "COMMAND" in capsys.readouterr().out
    assert cli_main(["--version"]) == 0
    assert "nilmevents" in capsys.readouterr().out
