"""Run one prepared workload in a fresh process and record raw measurements.

    python3 perfbench/worker.py WORKDIR SECONDS TRACE

``run.py`` starts this with ``src`` as the only ``PYTHONPATH`` entry,
after writing the inputs into WORKDIR.  The worker first times a cold
``import nilmevents``, so nothing before it may import numpy.  It then
repeats the workload's operation until SECONDS have passed (at least
``MIN_OPS`` times), checks every output outside the timed section, and
writes ``result.json`` (and, with TRACE=1, ``spans.json``) into WORKDIR.
Input generation ran in the parent process, so the peak resident memory
read here covers import, input loading and the timed operations only;
``rss_before_mb`` records the peak before the first operation.

With TRACE=1, operations alternate between untraced and traced, so the
tracing overhead is the difference of the two medians.  Times are
scaled to reference speed as ``speed.py`` describes; raw ones are kept.
"""

import sys
import time


def _timed_import() -> float:
    start = time.perf_counter()
    import nilmevents  # noqa: F401

    return time.perf_counter() - start


IMPORT_S = _timed_import()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import nilmevents  # noqa: E402
from nilmevents import GroundTruthEntry, GroundTruthLog, HybridConfig, SampleSeries  # noqa: E402
from nilmevents import cli, evaluation, pipeline  # noqa: E402

import speed  # noqa: E402
from tracer import Tracer  # noqa: E402

MIN_OPS = 3


class CheckFailed(Exception):
    """An operation's output broke one of the benchmark's checks."""


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _reference_count(truth: list) -> int:
    """Reference events after simultaneous entries are coalesced."""
    return len({t for t, _ in truth})


def check_pipeline(result) -> None:
    """Stage lists are consistent, monotone and nested, with one verdict per merged event."""
    base = [e.index for e in result.base_events]
    merged = [e.index for e in result.merged_events]
    final = [e.index for e in result.events]
    counts = result.stage_counts
    _check(
        (counts.base, counts.after_derivative, counts.after_filtering)
        == (len(base), len(merged), len(final)),
        "stage counts disagree with the stage lists",
    )
    _check(len(base) >= len(merged) >= len(final), "stage counts are not monotone")
    for name, indices in (("base", base), ("merged", merged), ("final", final)):
        _check(
            all(a < b for a, b in zip(indices, indices[1:])),
            f"{name} indices are not strictly increasing",
        )
    _check(set(final) <= set(merged) <= set(base), "final, merged and base events are not nested")
    verdicts = result.filter_verdicts
    if verdicts:
        _check([v.event_index for v in verdicts] == merged, "not one verdict per merged event")
        _check([v.event_index for v in verdicts if v.kept] == final, "kept verdicts != final")


def _rates(tp: int, fp: int, reference: int) -> dict:
    return {"tpr": tp / reference, "precision": tp / (tp + fp) if tp + fp else 0.0}


class InMemory:
    """``detect_hybrid`` then ``evaluate_detections`` on arrays already in memory."""

    def __init__(self, workdir: Path, inputs: dict) -> None:
        self.series = SampleSeries(np.load(workdir / "trace.npy"), inputs["rate_hz"])
        self.truth = GroundTruthLog(
            tuple(GroundTruthEntry(timestamp_s=t, label=label) for t, label in inputs["truth"])
        )
        self.reference = _reference_count(inputs["truth"])
        self.config = HybridConfig(**inputs["config"])

    def op(self):
        # Looked up at call time so that installed tracing wrappers are used.
        result = pipeline.detect_hybrid(self.series, self.config)
        report = evaluation.evaluate_detections(
            result.events, self.truth, tolerance_s=self.config.eval_match_tolerance_s
        )
        return result, report

    def check(self, output) -> tuple:
        result, report = output
        check_pipeline(result)
        _check(report.ground_truth_count == self.reference, "report scored the wrong log")
        _check(report.tp + report.fp == len(result.events), "report does not cover every event")
        fingerprint = (tuple(e.index for e in result.events), report.tp, report.fp)
        return fingerprint, _rates(report.tp, report.fp, self.reference)


def _run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.cli_main(argv)
    return code, out.getvalue(), err.getvalue()


def parse_compare(text: str) -> dict[str, dict[str, float]]:
    """``key=value`` lines of ``nilmevents compare`` output, grouped by detector."""
    blocks: dict[str, dict[str, float]] = {}
    current = None
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if not sep:
            continue
        if key == "detector":
            current = blocks.setdefault(value, {})
        elif current is not None:
            current[key] = float(value)
    return blocks


class CsvIngest:
    """``nilmevents compare TRACE TRUTH`` on CSV files written before timing."""

    def __init__(self, workdir: Path, inputs: dict) -> None:
        self.argv = ["compare", str(workdir / "trace.csv"), str(workdir / "truth.csv")]
        self.reference = _reference_count(inputs["truth"])

    def op(self):
        return _run_cli(self.argv)

    def check(self, output) -> tuple:
        code, out, err = output
        _check(code == 0, f"compare exited with {code}: {err.strip()}")
        blocks = parse_compare(out)
        _check(set(blocks) == {"hybrid", "lld"}, f"compare reported detectors {sorted(blocks)}")
        for name, block in blocks.items():
            _check(
                {"events", "tp", "fp", "fn"} <= set(block), f"{name} report lacks a count"
            )
            _check(block["tp"] + block["fn"] == self.reference, f"{name}: tp + fn != reference")
            _check(block["tp"] + block["fp"] == block["events"], f"{name}: tp + fp != events")
        hybrid = blocks["hybrid"]
        return out, _rates(int(hybrid["tp"]), int(hybrid["fp"]), self.reference)


def _count_rows(path: Path) -> tuple[int, bytes]:
    """Newline count and last line of a file, read in chunks."""
    newlines, tail = 0, b""
    with open(path, "rb") as handle:
        while chunk := handle.read(1 << 20):
            newlines += chunk.count(b"\n")
            tail = (tail + chunk)[-256:]
    return newlines, tail.rstrip(b"\n").rsplit(b"\n", 1)[-1]


class SynthExport:
    """``nilmevents synth SPEC --out TRACE --truth TRUTH``; the files are reloaded and checked."""

    def __init__(self, workdir: Path, inputs: dict) -> None:
        self.out, self.truth_out = workdir / "synth_trace.csv", workdir / "synth_truth.csv"
        self.argv = ["synth", str(workdir / "spec.json"), "--out", str(self.out)]
        self.argv += ["--truth", str(self.truth_out)]
        self.inputs = inputs

    def op(self):
        return _run_cli(self.argv)

    def check(self, output) -> tuple:
        code, _, err = output
        inputs = self.inputs
        samples, expected = inputs["samples"], inputs["truth"]
        _check(code == 0, f"synth exited with {code}: {err.strip()}")
        _check(f"samples={samples}" in err, "synth reported the wrong sample count")
        _check(f"entries={len(expected)}" in err, "synth reported the wrong entry count")
        newlines, last = _count_rows(self.out)
        _check(newlines == samples + 1, f"trace file holds {newlines - 1} rows, not {samples}")
        timestamp, value = (float(x) for x in last.split(b","))
        _check(
            abs(timestamp - (samples - 1) / inputs["rate_hz"]) < 1e-6
            and abs(value - inputs["last_value"]) <= 1e-9 * max(1.0, abs(inputs["last_value"])),
            "last trace row differs from the rendered scenario",
        )
        with open(self.truth_out, encoding="utf-8") as handle:
            rows = [line.split(",", 1) for line in handle.read().splitlines()[1:]]
        written = [(float(t), label) for t, label in rows]
        _check(len(written) == len(expected), f"truth file holds {len(written)} entries")
        matched = sum(
            label == exp_label and abs(t - exp_t) <= 1e-6
            for (t, label), (exp_t, exp_label) in zip(written, expected)
        )
        return None, {"tpr": matched / len(expected), "precision": matched / len(written)}


WORKLOADS = {
    "quiet_day": InMemory,
    "busy_fluct": InMemory,
    "csv_ingest": CsvIngest,
    "synth_export": SynthExport,
}


def environment() -> dict:
    """Interpreter, library and thread settings recorded beside the results."""
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nilmevents": nilmevents.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        **{k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, seconds: float, tracer: Tracer | None) -> dict:
    """Repeat the operation for ``seconds``; failed checks are counted, not timed.

    Each operation is followed by a probe, once its output is checked and
    freed, and its time is scaled to reference speed by the probes on
    either side of it; raw times are kept too.
    """
    walls, raw_walls, traced_walls = [], [], []
    scales: dict[int, float] = {}
    quality: dict[str, list[float]] = {"tpr": [], "precision": []}
    attempted = failed = 0
    errors: list[str] = []
    first = None
    min_ops = 2 * MIN_OPS if tracer else MIN_OPS
    rss_before = _peak_rss_mb()
    first_probe = probe_before = speed.probe_s()
    loop_start = time.perf_counter()
    while attempted < min_ops or time.perf_counter() - loop_start < seconds:
        traced = tracer is not None and attempted % 2 == 1
        if traced:
            tracer.op = attempted
            tracer.install()
        try:
            start = time.perf_counter()
            try:
                output = workload.op()
            finally:
                wall = time.perf_counter() - start
                if traced:
                    tracer.uninstall()
            fingerprint, rates = workload.check(output)
            if first is None:
                first = fingerprint
            _check(fingerprint == first, "output differs from the first operation's")
        except Exception:  # a failed operation is counted and reported, never timed
            failed += 1
            if len(errors) < 5:
                errors.append(traceback.format_exc(limit=3))
            rates = None
        # Neither the next operation nor the probe may run beside this result.
        output = None
        probe_after = speed.probe_s()
        scale = speed.factor(probe_before, probe_after)
        probe_before = probe_after
        if rates is not None:
            if traced:
                traced_walls.append(wall * scale)
                scales[attempted] = scale
            else:
                walls.append(wall * scale)
                raw_walls.append(wall)
            for key, value in rates.items():
                quality[key].append(value)
        attempted += 1
    result = {
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "walls": walls,
        "raw_walls": raw_walls,
        "traced_walls": traced_walls,
        "first_probe_s": first_probe,
        "quality": {key: statistics.median(v) if v else None for key, v in quality.items()},
        "peak_rss_mb": _peak_rss_mb(),
        "rss_before_mb": rss_before,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(scales) if scales else None
        result["missing"] = tracer.missing
    return result


def main(argv: list[str]) -> int:
    workdir, seconds, trace = Path(argv[0]), float(argv[1]), argv[2] == "1"
    with open(workdir / "inputs.json", encoding="utf-8") as handle:
        inputs = json.load(handle)
    workload = WORKLOADS[inputs["workload"]](workdir, inputs)
    tracer = Tracer() if trace else None
    result = measure(workload, seconds, tracer)
    result["import_s"] = IMPORT_S
    result["env"] = environment()
    result["nilmevents_file"] = nilmevents.__file__
    with open(workdir / "result.json", "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    if tracer is not None:
        with open(workdir / "spans.json", "w", encoding="utf-8") as handle:
            json.dump({"missing": tracer.missing, "spans": tracer.spans}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
