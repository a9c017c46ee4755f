"""Command-line interface, run in-process."""

from __future__ import annotations

import re
import shlex
import shutil
from pathlib import Path

import numpy as np
import pytest

from nilmevents import (
    ApplianceSpec,
    HybridConfig,
    LldConfig,
    ScenarioSpec,
    first_derivative,
    generate_scenario,
    lld_max,
    load_config_file,
    load_ground_truth,
    load_trace,
    read_events,
    smoothed_derivative,
    write_trace,
)
from nilmevents.cli import cli_main

from oracles import oracle_extrema
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


def test_detect_emit_stages_writes_reloadable_files(tmp_path: Path, capsys) -> None:
    trace, _ = render_scenario("rangehood", tmp_path)
    stage_dir = tmp_path / "stages"
    assert cli_main(["detect", str(trace), "--emit-stages", str(stage_dir)]) == 0
    capsys.readouterr()
    series = load_trace(stage_dir / "trace.csv")
    derivative = load_trace(stage_dir / "derivative.csv")
    smoothed = load_trace(stage_dir / "smoothed_derivative.csv")
    assert len(series) == 1200
    assert np.array_equal(derivative.values, first_derivative(series.values))
    assert np.array_equal(smoothed.values, smoothed_derivative(series, HybridConfig()))
    base = read_events(stage_dir / "events_base.csv")
    merged = read_events(stage_dir / "events_merged.csv")
    final = read_events(stage_dir / "events_final.csv")
    assert len(base) >= len(merged) >= len(final) == 1
    extrema_lines = (stage_dir / "extrema.csv").read_text().splitlines()
    assert extrema_lines[0] == "index,kind,value"
    assert len(extrema_lines) >= 2


@pytest.mark.parametrize("name", ["kitchen", "house1"])
def test_detect_emit_stages_writes_the_oracle_extrema(name: str, tmp_path: Path, capsys) -> None:
    trace, _ = render_scenario(name, tmp_path)
    config_path = SCENARIO_DIR / f"{name}.config"
    stage_dir = tmp_path / "stages"
    argv = ["detect", str(trace), "--config", str(config_path), "--emit-stages", str(stage_dir)]
    assert cli_main(argv) == 0
    capsys.readouterr()
    config = load_config_file(config_path)
    smoothed = smoothed_derivative(load_trace(trace), config)
    expected = ["index,kind,value"] + [
        f"{index},{kind.upper()},{value:.6f}"
        for index, kind, value in oracle_extrema(smoothed)
        if abs(value) > config.derivative_epsilon
    ]
    assert len(expected) > 2
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


def test_compare_reports_both_detectors_and_exports_cusum(tmp_path: Path, capsys) -> None:
    trace, truth = render_scenario("rangehood", tmp_path)
    cusum_out = tmp_path / "cusum.csv"
    capsys.readouterr()
    code = cli_main(
        ["compare", str(trace), str(truth), "--cusum-out", str(cusum_out), "--cusum-variant", "squared"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "detector=hybrid" in out
    assert "detector=lld" in out
    assert out.count("tpr=") == 2
    assert len(load_trace(cusum_out)) == 1200


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


def test_usage_errors_exit_with_code_one(tmp_path: Path, capsys) -> None:
    assert cli_main(["frobnicate"]) == 1
    assert cli_main([]) == 1
    trace, _ = render_scenario("rangehood", tmp_path)
    assert cli_main(["detect", str(trace), "--sg-window", "many"]) == 1
    capsys.readouterr()


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


def test_help_and_version_exit_cleanly(capsys) -> None:
    assert cli_main(["--help"]) == 0
    assert "COMMAND" in capsys.readouterr().out
    assert cli_main(["--version"]) == 0
    assert "nilmevents" in capsys.readouterr().out
