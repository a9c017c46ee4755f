#!/usr/bin/env python3
"""Render a synthetic scenario, run the hybrid pipeline, and score it.

Shows what the CLI does not: per-stage event lists, refilter verdicts,
and the evaluation report against the scenario's own reference log.

    python3 scripts/run_scenario.py scenarios/house1.json \
        --config scenarios/house1.config

For files to plot, render the scenario with ``nilmevents synth --out
TRACE --truth TRUTH`` and run ``nilmevents detect TRACE --emit-stages
DIR`` on it.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from nilmevents import (
    HybridConfig,
    detect_hybrid,
    evaluate_detections,
    format_report,
    generate_scenario,
    load_config_file,
    load_scenario,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("scenario", type=Path, help="scenario description JSON")
    parser.add_argument("--config", type=Path, help="key=value config file")
    parser.add_argument(
        "--tolerance", type=float, default=None, help="match tolerance in seconds"
    )
    args = parser.parse_args(argv)

    spec = load_scenario(args.scenario)
    config = load_config_file(args.config) if args.config else HybridConfig()
    tolerance = args.tolerance if args.tolerance is not None else config.eval_match_tolerance_s

    series, truth = generate_scenario(spec)
    started = time.perf_counter()
    result = detect_hybrid(series, config)
    elapsed = time.perf_counter() - started

    counts = result.stage_counts
    print(f"scenario={spec.name} samples={len(series)} rate={series.sampling_rate_hz:g}Hz")
    print(
        f"stages base={counts.base} after_derivative={counts.after_derivative} "
        f"final={counts.after_filtering} ({elapsed:.3f} s)"
    )
    for label, events in (
        ("base", result.base_events),
        ("merged", result.merged_events),
        ("final", result.events),
    ):
        times = " ".join(f"{event.timestamp_s:.2f}" for event in events)
        print(f"{label:>6}: {times}")
    for verdict in result.filter_verdicts:
        print(
            f"verdict: index={verdict.event_index} kept={verdict.kept} "
            f"reason={verdict.reason.name}"
        )

    if len(truth):
        print(format_report(evaluate_detections(result.events, truth, tolerance_s=tolerance)))
    else:
        print("no reference entries; skipping evaluation")
    return 0


if __name__ == "__main__":
    sys.exit(main())
