"""Command-line front end.

Four subcommands cover the library's workflow::

    nilmevents detect   TRACE            run the hybrid pipeline
    nilmevents evaluate TRACE TRUTH      run the pipeline and score it
    nilmevents compare  TRACE TRUTH      hybrid vs. the likelihood baseline
    nilmevents synth    SCENARIO.json    render a synthetic scenario

``detect`` prints final events as ``index,timestamp_s,delta_watts`` CSV
on stdout.  With ``--emit-stages DIR`` it also writes what each stage
decided, rendered from its :class:`~nilmevents.pipeline.PipelineResult`
with nothing recomputed: ``events_base.csv``, ``events_merged.csv`` and
``events_final.csv``; ``verdicts.csv``, the refilter's ``index,reason``
per merged event; and ``extrema.csv``, the ``index`` of each extremum the
refilter's guard read.  The last two hold their header alone when the
refilter did not fire.  Config files are ``key = value`` lines naming
config fields; any explicit flag overrides the file.  ``--tolerance``
only scores, so ``detect`` does not take it.  Exit codes: 0 on success,
1 for usage errors, 2 when an input file is missing or malformed or a
domain check fails.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from . import __version__
from .baselines import LldConfig, lld_max
from .core import DetectionError, HybridConfig
from .evaluation import evaluate_detections
from .io import (
    _write_rows,
    format_report,
    load_config_file,
    load_ground_truth,
    load_trace,
    write_events,
    write_ground_truth,
    write_trace,
)
from .pipeline import PipelineResult, detect_hybrid
from .synth import generate_scenario, load_scenario

__all__ = ["cli_main"]

_CONFIG_FLAGS = (
    ("--mean-window", "mean_window_s", float, "base detector half-window in seconds"),
    ("--threshold", "power_threshold_watts", float, "base detector power threshold in watts"),
    ("--time-limit", "time_limit_s", float, "base events are > this apart (s; whole samples)"),
    ("--epsilon", "derivative_epsilon", float, "settled-derivative band in watts/sample"),
    ("--settle", "settle_threshold_s", float, "settled runs > this separate (s; whole samples)"),
    ("--loess-window", "loess_window_s", float, "derivative smoothing window in seconds"),
    ("--sg-window", "sg_window_samples", int, "refilter smoothing window in samples (odd)"),
    ("--sg-order", "sg_poly_order", int, "refilter polynomial order"),
    ("--trigger", "fluctuation_trigger_watts", float, "refilter activation level in watts"),
    ("--tolerance", "eval_match_tolerance_s", float, "match tolerance for scoring (s)"),
)
# ``detect`` scores nothing, so it takes every config flag but the scoring tolerance.
_DETECTION_FLAGS = tuple(flag for flag in _CONFIG_FLAGS if flag[1] != "eval_match_tolerance_s")


class _UsageError(Exception):
    """Raised instead of exiting so ``cli_main`` can return 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: D102 - argparse hook
        raise _UsageError(f"{self.prog}: error: {message}")


def _add_config_flags(parser: argparse.ArgumentParser, config_flags: tuple) -> None:
    parser.add_argument("--config", metavar="FILE", help="key=value config file")
    for flag, dest, kind, help_text in config_flags:
        parser.add_argument(flag, dest=dest, type=kind, default=None, help=help_text)


def _assemble_config(args: argparse.Namespace) -> HybridConfig:
    """Defaults, then the config file, then explicit flags.

    The rules that relate two fields are judged once, on the result, so a
    flag can make a file value valid.
    """
    flags = {
        dest: getattr(args, dest)
        for _, dest, _, _ in _CONFIG_FLAGS
        if getattr(args, dest, None) is not None
    }
    if args.config:
        return load_config_file(args.config, overrides=flags)
    return HybridConfig(**flags)


def _emit_stage_files(directory: str, result: PipelineResult) -> None:
    """Write the events, verdicts and extrema of each stage of ``result`` under ``directory``."""
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    stages = {"base": result.base_events, "merged": result.merged_events, "final": result.events}
    for stage, events in stages.items():
        write_events(out / f"events_{stage}.csv", events)
    verdicts = ((v.event_index, v.reason.value) for v in result.filter_verdicts)
    _write_rows(out / "verdicts.csv", ["index", "reason"], verdicts)
    _write_rows(out / "extrema.csv", ["index"], ([i] for i in result.extrema.tolist()))


def _cmd_detect(args: argparse.Namespace) -> int:
    series = load_trace(args.trace)
    config = _assemble_config(args)
    result = detect_hybrid(series, config)
    write_events(sys.stdout, result.events)
    counts = result.stage_counts
    print(
        f"stages base={counts.base} after_derivative={counts.after_derivative} "
        f"final={counts.after_filtering}",
        file=sys.stderr,
    )
    if args.emit_stages:
        _emit_stage_files(args.emit_stages, result)
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    series = load_trace(args.trace)
    truth = load_ground_truth(args.truth)
    config = _assemble_config(args)
    result = detect_hybrid(series, config)
    report = evaluate_detections(
        result.events, truth, tolerance_s=config.eval_match_tolerance_s
    )
    print(format_report(report))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    series = load_trace(args.trace)
    truth = load_ground_truth(args.truth)
    config = _assemble_config(args)

    hybrid_events = detect_hybrid(series, config).events
    lld_flags = {
        "pre_window_samples": args.lld_pre_window,
        "power_threshold_watts": args.lld_threshold,
        "maxima_precision_samples": args.lld_precision,
    }
    lld_config = LldConfig(**{key: value for key, value in lld_flags.items() if value is not None})
    lld_events = lld_max(series, lld_config)

    for name, events in (("hybrid", hybrid_events), ("lld", lld_events)):
        report = evaluate_detections(events, truth, tolerance_s=config.eval_match_tolerance_s)
        print(f"detector={name}")
        print(f"events={len(events)}")
        print(format_report(report))
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    spec = load_scenario(args.scenario)
    series, truth = generate_scenario(spec)
    write_trace(args.out, series)
    print(f"trace={args.out} samples={len(series)}", file=sys.stderr)
    if args.truth:
        write_ground_truth(args.truth, truth)
        print(f"truth={args.truth} entries={len(truth)}", file=sys.stderr)
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="nilmevents", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    detect = sub.add_parser("detect", help="run the hybrid pipeline on a trace file")
    detect.add_argument("trace", help="two-column (timestamp, watts) trace file")
    detect.add_argument(
        "--emit-stages",
        metavar="DIR",
        help="write each stage's events, the refilter verdicts and the extrema it read into DIR",
    )
    _add_config_flags(detect, _DETECTION_FLAGS)
    detect.set_defaults(func=_cmd_detect)

    evaluate = sub.add_parser("evaluate", help="run the pipeline and score it against a log")
    evaluate.add_argument("trace", help="two-column (timestamp, watts) trace file")
    evaluate.add_argument("truth", help="reference log CSV")
    _add_config_flags(evaluate, _CONFIG_FLAGS)
    evaluate.set_defaults(func=_cmd_evaluate)

    compare = sub.add_parser(
        "compare", help="run hybrid and likelihood detectors on the same trace"
    )
    compare.add_argument("trace", help="two-column (timestamp, watts) trace file")
    compare.add_argument("truth", help="reference log CSV")
    _add_config_flags(compare, _CONFIG_FLAGS)
    for flag, kind, help_text in (
        ("--lld-pre-window", int, "likelihood pre/post window in samples"),
        ("--lld-threshold", float, "likelihood mean-change threshold"),
        ("--lld-precision", int, "likelihood maxima separation in samples"),
    ):
        compare.add_argument(flag, type=kind, help=help_text)
    compare.set_defaults(func=_cmd_compare)

    synth = sub.add_parser("synth", help="render a synthetic scenario to files")
    synth.add_argument("scenario", help="scenario description JSON")
    synth.add_argument("--out", required=True, metavar="FILE", help="trace output path")
    synth.add_argument("--truth", metavar="FILE", help="reference log output path")
    synth.set_defaults(func=_cmd_synth)
    return parser


def cli_main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code instead of raising."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help / --version
        return 0 if exc.code in (0, None) else 1
    if getattr(args, "func", None) is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.func(args)
    except (DetectionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(cli_main())
