"""The nilmevents benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src``.  Workloads (see ``BENCHMARK.json`` for why each exists):

- ``quiet_day``: ``detect_hybrid`` + ``evaluate_detections`` in memory on
  a light 24 h, 60 Hz trace (5.18 M samples); the refilter never fires.
- ``busy_fluct``: the same calls with the kitchen settings on a heavily
  loaded 8 h, 20 Hz trace (576 k samples) with dense alarms and
  fluctuation bursts; the refilter fires.
- ``csv_ingest``: ``nilmevents compare`` on a 6 h, 20 Hz CSV trace
  (432 k rows) and its reference log.
- ``synth_export``: ``nilmevents synth`` on the same spec as JSON.

The parent process renders the seeded inputs with numpy alone
(``workloads.py``, in a child process), times ``import nilmevents`` in
fresh interpreters, and runs the workload in a fresh worker process
(``worker.py``), so that input generation does not count towards peak
memory.  All times are scaled to one reference machine speed by a probe
run around each timed step (``speed.py``); raw times are printed too.
With ``--trace 0`` the last line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics from spans recorded
around calls into each module (``tracer.py``), and the spans are written
to ``perfbench/_work/<workload>/spans.json``.  ``--scale`` shrinks the
inputs for smoke runs (``test_smoke.py``).

Any seed works; development used seeds 1 to 50, so seeds from 1000 up
are held out for checking a claim.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
import speed
from tracer import LAYER_METRICS, MISSING

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
DEADLINE_S = 170.0
IMPORT_RUNS = 3
BULKY_FILES = ("trace.npy", "trace.csv", "synth_trace.csv")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "throughput_msps": "Msamples/s",
    "peak_rss_mb": "MB",
    "tpr": "ratio",
    "precision": "ratio",
    "ok_share": "ratio",
}
SETUP_UNITS = {
    "setup.import.numpy.s": "s",
    "setup.import.scipy.s": "s",
    "setup.import.nilmevents_self.s": "s",
}
TRACE_UNITS = {"trace.overhead_s": "s", "trace.missing_names": "count"}
PER_LAYER_UNITS = {
    **{name: unit for name, (unit, _, _) in LAYER_METRICS.items()},
    **SETUP_UNITS,
    **TRACE_UNITS,
}

IMPORT_SNIPPET = (
    "import time; t = time.perf_counter(); import nilmevents; "
    "print(time.perf_counter() - t)"
)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict[str, str]:
    """Environment for every child: the checkout's ``src`` only, one thread per library."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(SRC)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_child(argv: list[str], deadline: float) -> subprocess.CompletedProcess:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting " + " ".join(argv[:3]))
    try:
        done = subprocess.run(
            [sys.executable, *argv],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child timed out: {' '.join(argv[:3])}") from exc
    if done.returncode != 0:
        raise BenchError(f"child failed ({done.returncode}): {done.stderr.strip()[-2000:]}")
    return done


def cold_imports(deadline: float) -> list[tuple[float, float]]:
    """``import nilmevents`` in fresh interpreters, as (raw seconds, scale) pairs.

    Each import is bracketed by probes (see ``speed.py``); the first run
    only warms the disk cache and writes bytecode, and is discarded.
    """
    samples = []
    for _ in range(IMPORT_RUNS + 1):
        before = speed.probe_s()
        seconds = float(run_child(["-c", IMPORT_SNIPPET], deadline).stdout)
        samples.append((seconds, speed.factor(before, speed.probe_s())))
    return samples[1:]


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative seconds of numpy, of scipy and of the rest of ``import nilmevents``.

    ``-X importtime`` prints one line per module after its imports, with
    two spaces of indent per nesting level.  A library's time is the sum
    of the cumulative times of its modules that no numpy or scipy module
    imported, so numpy modules that scipy pulls in count as scipy's.
    """
    entries = []
    for line in stderr.splitlines():
        match = re.match(r"import time:\s+(\d+) \|\s+(\d+) \| ( *)(\S+)", line)
        if match:
            entries.append((int(match[2]) * 1e-6, len(match[3]) // 2, match[4]))
    totals = {"numpy": 0.0, "scipy": 0.0, "nilmevents": 0.0}
    stack: list[tuple[int, str]] = []  # (depth, top-level package) of ancestors, in pre-order
    for cumulative, depth, name in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        package = name.split(".")[0]
        ancestors = {p for _, p in stack}
        if package == "nilmevents" and not ancestors:
            totals[package] += cumulative
        elif package in ("numpy", "scipy") and not ancestors & {"numpy", "scipy"}:
            totals[package] += cumulative
        stack.append((depth, package))
    return {
        "setup.import.numpy.s": totals["numpy"],
        "setup.import.scipy.s": totals["scipy"],
        "setup.import.nilmevents_self.s": totals["nilmevents"] - totals["numpy"] - totals["scipy"],
    }


def import_breakdown(deadline: float) -> dict[str, float]:
    """Median import-time breakdown over fresh interpreters, at reference speed."""
    runs = []
    for _ in range(IMPORT_RUNS):
        before = speed.probe_s()
        done = run_child(["-X", "importtime", "-c", "import nilmevents"], deadline)
        scale = speed.factor(before, speed.probe_s())
        runs.append({k: v * scale for k, v in parse_importtime(done.stderr).items()})
    return {name: statistics.median(run[name] for run in runs) for name in runs[0]}


def setup_samples(result: dict, imports: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """The import-only runs plus the worker's own cold import, as (raw seconds, scale)."""
    return [*imports, (result["import_s"], result["import_scale"])]


def end_to_end(result: dict, inputs: dict, imports: list[tuple[float, float]]) -> dict:
    wall = statistics.median(result["walls"])
    return {
        "setup_s": statistics.median(raw * scale for raw, scale in setup_samples(result, imports)),
        "wall_s": wall,
        "throughput_msps": inputs["samples"] / wall / 1e6,
        "peak_rss_mb": result["peak_rss_mb"],
        "tpr": result["quality"]["tpr"],
        "precision": result["quality"]["precision"],
        "ok_share": (result["attempted"] - result["failed"]) / result["attempted"],
    }


def per_layer(result: dict, breakdown: dict[str, float]) -> dict[str, float]:
    if not result["layers"] or not result["walls"]:
        raise BenchError("no traced and untraced operation both succeeded")
    overhead = statistics.median(result["traced_walls"]) - statistics.median(result["walls"])
    return {
        **result["layers"],
        **breakdown,
        "trace.overhead_s": overhead,
        "trace.missing_names": float(len(result["missing"])),
    }


def stress_checks(workload: str, layers: dict[str, float], traced_wall: float) -> list[str]:
    """Whether the traced run shows the workload stressing what it was built to stress."""
    leaves = {
        name: value
        for name, value in layers.items()
        if name.endswith(".s")
        and not name.startswith(("setup.", "trace."))
        and name[: -len(".s")] + ".self_s" not in layers
    }
    leaves.update({n: v for n, v in layers.items() if n.endswith(".self_s")})
    largest = max(leaves, key=leaves.get)
    fired = layers["filtering.fired"]

    def share(names: tuple[str, ...], whole: float) -> float:
        return sum(layers[n] for n in names) / whole if whole > 0 else 0.0

    if workload == "quiet_day":
        part = share(
            ("base.detect_base.s", "derivative.loess_smooth.s", "derivative.detect_extrema.s"),
            layers["pipeline.detect_hybrid.s"],
        )
        claims = [
            ("refilter never fires", fired == 0),
            (f"base+LOESS+extrema are {part:.0%} of detect_hybrid", part > 0.5),
        ]
    elif workload == "busy_fluct":
        part = share(
            (
                "derivative.merge_transient_events.s",
                "filtering.refilter.s",
                "evaluation.evaluate_detections.s",
            ),
            traced_wall,
        )
        claims = [
            ("refilter fires", fired == 1),
            (f"merge+refilter+evaluation are {part:.0%} of wall_s", part > 0.5),
        ]
    elif workload == "csv_ingest":
        claims = [(f"largest layer is {largest}", largest == "io.load_trace.s")]
    else:
        claims = [(f"largest layer is {largest}", largest == "io.write_trace.s")]
    return [f"expect: {text}: {'PASS' if ok else 'FAIL'}" for text, ok in claims]


def run_workload(args: argparse.Namespace, deadline: float) -> tuple[dict, dict, object]:
    """Render the inputs, time the imports and run the worker.

    Returns the input description, the worker's result and the import
    timings: cold-import seconds, or with tracing the import breakdown.
    The bulky inputs and outputs are deleted afterwards; the seed
    recreates them.
    """
    workdir = WORK / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        # Rendering runs in its own process: a child started from a process
        # that once held the inputs would inherit that peak as its own.
        run_child(
            [str(HERE / "workloads.py"), str(workdir), args.workload]
            + [str(args.seed), str(args.scale)],
            deadline,
        )
        with open(workdir / "inputs.json", encoding="utf-8") as handle:
            inputs = json.load(handle)
        imports = import_breakdown(deadline) if args.trace else cold_imports(deadline)
        before = speed.probe_s()
        run_child(
            [str(HERE / "worker.py"), str(workdir), str(args.seconds), str(args.trace)], deadline
        )
        with open(workdir / "result.json", encoding="utf-8") as handle:
            result = json.load(handle)
        # The worker's first probe follows its import, so these two bracket it.
        result["import_scale"] = speed.factor(before, result["first_probe_s"])
    finally:
        for name in BULKY_FILES:
            (workdir / name).unlink(missing_ok=True)
    return inputs, result, imports


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0, help="input duration factor (smoke runs use < 1)"
    )
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "nilmevents" / "__init__.py").is_file():
        raise BenchError(f"no nilmevents package under {SRC}; run from a source checkout")
    inputs, result, imports = run_workload(args, deadline)
    if not Path(result["nilmevents_file"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"imported nilmevents from {result['nilmevents_file']}, not {SRC}")
    ok = result["attempted"] - result["failed"]
    if ok == 0 or not result["walls"]:
        raise BenchError("no operation succeeded:\n" + "\n".join(result["errors"]))

    if args.trace:
        metrics, units = per_layer(result, imports), PER_LAYER_UNITS
    else:
        metrics, units = end_to_end(result, inputs, imports), END_TO_END_UNITS

    print(
        f"workload={args.workload} seed={args.seed} samples={inputs['samples']} "
        f"attempted={result['attempted']} failed={result['failed']} trace={args.trace}"
    )
    print("env " + json.dumps(result["env"], sort_keys=True))
    walls = sorted(result["walls"])
    print(
        f"untraced op wall s at reference speed: n={len(walls)} min={walls[0]:.4f} "
        f"median={statistics.median(walls):.4f} max={walls[-1]:.4f}; "
        f"raw median={statistics.median(result['raw_walls']):.4f}"
    )
    if not args.trace:
        raw_setup = statistics.median(raw for raw, _ in setup_samples(result, imports))
        print(f"raw setup_s={raw_setup:.4f}")
    for error in result["errors"]:
        print("error " + error.strip().replace("\n", "\n      "))
    if args.trace:
        if result["missing"]:
            print("missing " + " ".join(result["missing"]))
        traced_wall = statistics.median(result["traced_walls"])
        for line in stress_checks(args.workload, metrics, traced_wall):
            print(line)
    for name, value in metrics.items():
        shown = "MISSING" if args.trace and value == MISSING else f"{value:.6g}"
        print(f"  {name:<38} {shown:>14} {units[name]}")
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
