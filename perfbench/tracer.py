"""Spans around calls into each ``nilmevents`` module, and the per-layer metrics.

The tracer replaces module attributes at the names the callers look up
(``nilmevents.pipeline.detect_base`` is the name ``detect_hybrid`` calls,
for instance) with wrappers that record one span per call: name, start,
end, the enclosing span and the operation id.  Nothing in the program is
edited; :meth:`Tracer.uninstall` puts the original functions back.

A target whose module or attribute no longer exists is listed in
``Tracer.missing``, and every metric that depends only on missing
targets reads ``MISSING`` (-1) instead of 0.
"""

from __future__ import annotations

import importlib
import statistics
import time
from collections import Counter, defaultdict
from os.path import getsize

MISSING = -1.0


# (module, attribute looked up by the caller, span name)
TARGETS = (
    ("nilmevents.pipeline", "detect_hybrid", "pipeline.detect_hybrid"),
    ("nilmevents.cli", "detect_hybrid", "pipeline.detect_hybrid"),
    ("nilmevents.pipeline", "validate_series", "core.validate_series"),
    ("nilmevents.base", "validate_series", "core.validate_series"),
    ("nilmevents.pipeline", "detect_base", "base.detect_base"),
    ("nilmevents.pipeline", "first_derivative", "derivative.first_derivative"),
    ("nilmevents.pipeline", "loess_smooth", "derivative.loess_smooth"),
    ("nilmevents.pipeline", "detect_extrema", "derivative.detect_extrema"),
    ("nilmevents.pipeline", "merge_transient_events", "derivative.merge_transient_events"),
    ("nilmevents.pipeline", "refilter_events_with_verdicts", "filtering.refilter"),
    ("nilmevents.filtering", "savitzky_golay", "filtering.savitzky_golay"),
    ("nilmevents.filtering", "detect_base", "filtering.redetect"),
    ("nilmevents.evaluation", "evaluate_detections", "evaluation.evaluate_detections"),
    ("nilmevents.cli", "evaluate_detections", "evaluation.evaluate_detections"),
    ("nilmevents.cli", "lld_max", "baselines.lld_max"),
    ("nilmevents.cli", "load_trace", "io.load_trace"),
    ("nilmevents.cli", "load_ground_truth", "io.load_ground_truth"),
    ("nilmevents.cli", "write_trace", "io.write_trace"),
    ("nilmevents.cli", "write_ground_truth", "io.write_ground_truth"),
    ("nilmevents.cli", "load_scenario", "synth.load_scenario"),
    ("nilmevents.cli", "generate_scenario", "synth.generate_scenario"),
    ("nilmevents.cli", "cli_main", "cli.cli_main"),
)


def _verdict_counts(result) -> dict:
    reasons = Counter(v.reason.value for v in result[1])
    return {
        "out": len(result[0]),
        "removed": reasons["removed_as_fluctuation"],
        "protected": reasons["protected_by_extremum"],
        "survived": reasons["survived_refilter"],
    }


# Counts recorded at the span boundary, from the call's positional arguments
# and result.  A call these cannot read (after a signature change, say) keeps
# its span and records the error instead of counts.
OBSERVERS = {
    "base.detect_base": lambda a, r: {"out": len(r)},
    "derivative.detect_extrema": lambda a, r: {"out": len(r)},
    "derivative.merge_transient_events": lambda a, r: {"in": len(a[0]), "out": len(r)},
    "filtering.refilter": lambda a, r: {"in": len(a[1]), **_verdict_counts(r)},
    "evaluation.evaluate_detections": lambda a, r: {"detections": len(a[0]), "truth": len(a[1])},
    "baselines.lld_max": lambda a, r: {"out": len(r)},
    "io.load_trace": lambda a, r: {"rows": len(r), "bytes_read": getsize(a[0])},
    "io.load_ground_truth": lambda a, r: {"rows": len(r), "bytes_read": getsize(a[0])},
    "io.write_trace": lambda a, r: {"rows": len(a[1]), "bytes_written": getsize(a[0])},
    "io.write_ground_truth": lambda a, r: {"rows": len(a[1]), "bytes_written": getsize(a[0])},
}


class Tracer:
    """Records spans in memory while installed."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.op = -1
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self.present_spans: set[str] = set()
        for module_name, attr, span in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            if module is None or not callable(getattr(module, attr, None)):
                self.missing.append(f"{module_name}.{attr}")
            else:
                self.present_spans.add(span)

    def _wrap(self, func, name):
        observe = OBSERVERS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span_id = len(spans)
            record = {"id": span_id, "name": name, "op": self.op,
                      "parent": stack[-1] if stack else None}
            spans.append(record)
            stack.append(span_id)
            record["start"] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                record["end"] = clock()
                stack.pop()
            if observe is not None:
                try:
                    record["counts"] = observe(args, result)
                except (IndexError, TypeError, AttributeError, OSError) as exc:
                    record["counts_error"] = repr(exc)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, span in TARGETS:
            if f"{module_name}.{attr}" in self.missing:
                continue
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def op_metrics(self, op: int, scale: float) -> dict[str, float]:
        """Per-layer metrics of one traced operation, span times multiplied by ``scale``."""
        spans = [s for s in self.spans if s["op"] == op]
        total: dict[str, float] = defaultdict(float)
        child: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        counts: dict[str, Counter] = defaultdict(Counter)
        by_id = {s["id"]: s for s in spans}
        for s in spans:
            duration = (s["end"] - s["start"]) * scale
            total[s["name"]] += duration
            calls[s["name"]] += 1
            counts[s["name"]].update(s.get("counts", {}))
            if s["parent"] in by_id:
                child[by_id[s["parent"]]["name"]] += duration
        return {
            name: fn(total, child, calls, counts) for name, (_, _, fn) in LAYER_METRICS.items()
        }

    def layer_metrics(self, scales: dict[int, float]) -> dict[str, float]:
        """Median over traced operations, each scaled to reference speed by ``scales[op]``.

        Metrics whose every source target is gone read MISSING.
        """
        per_op = [self.op_metrics(op, scale) for op, scale in scales.items()]
        out = {}
        for name, (_, sources, _) in LAYER_METRICS.items():
            if not any(src in self.present_spans for src in sources):
                out[name] = MISSING
            else:
                out[name] = statistics.median(m[name] for m in per_op)
        return out


def _s(name):
    return "s", [name], lambda t, c, n, k: t[name]


def _self_s(name):
    return "s", [name], lambda t, c, n, k: t[name] - c[name]


def _count(name, key):
    return "count", [name], lambda t, c, n, k: float(k[name][key])


def _ratio(name, num, den):
    return "ratio", [name], lambda t, c, n, k: k[name][num] / k[name][den] if k[name][den] else 0.0


def _rate(name):
    return "1/s", [name], lambda t, c, n, k: k[name]["rows"] / t[name] if t[name] else 0.0


def _bytes(key, *names):
    return "bytes", list(names), lambda t, c, n, k: float(sum(k[name][key] for name in names))


# name -> (unit, span names it is computed from, function of the
# per-span-name total seconds, child seconds, calls and counts)
LAYER_METRICS = {
    "pipeline.detect_hybrid.s": _s("pipeline.detect_hybrid"),
    "pipeline.detect_hybrid.self_s": _self_s("pipeline.detect_hybrid"),
    "core.validate_series.s": _s("core.validate_series"),
    "core.validate_series.calls": (
        "count", ["core.validate_series"], lambda t, c, n, k: float(n["core.validate_series"])
    ),
    "base.detect_base.s": _s("base.detect_base"),
    "base.events_out": _count("base.detect_base", "out"),
    "derivative.first_derivative.s": _s("derivative.first_derivative"),
    "derivative.loess_smooth.s": _s("derivative.loess_smooth"),
    "derivative.detect_extrema.s": _s("derivative.detect_extrema"),
    "derivative.extrema_out": _count("derivative.detect_extrema", "out"),
    "derivative.merge_transient_events.s": _s("derivative.merge_transient_events"),
    "derivative.merge.kept_ratio": _ratio("derivative.merge_transient_events", "out", "in"),
    "filtering.refilter.s": _s("filtering.refilter"),
    "filtering.refilter.self_s": _self_s("filtering.refilter"),
    "filtering.savitzky_golay.s": _s("filtering.savitzky_golay"),
    "filtering.redetect.s": _s("filtering.redetect"),
    "filtering.fired": (
        "count",
        ["filtering.savitzky_golay"],
        lambda t, c, n, k: float(n["filtering.savitzky_golay"] > 0),
    ),
    "filtering.verdicts.removed": _count("filtering.refilter", "removed"),
    "filtering.verdicts.protected": _count("filtering.refilter", "protected"),
    "filtering.verdicts.survived": _count("filtering.refilter", "survived"),
    "filtering.kept_ratio": _ratio("filtering.refilter", "out", "in"),
    "evaluation.evaluate_detections.s": _s("evaluation.evaluate_detections"),
    "evaluation.detections_in": _count("evaluation.evaluate_detections", "detections"),
    "evaluation.truth_in": _count("evaluation.evaluate_detections", "truth"),
    "baselines.lld_max.s": _s("baselines.lld_max"),
    "baselines.lld_events_out": _count("baselines.lld_max", "out"),
    "io.load_trace.s": _s("io.load_trace"),
    "io.load_trace.rows_per_s": _rate("io.load_trace"),
    "io.load_ground_truth.s": _s("io.load_ground_truth"),
    "io.write_trace.s": _s("io.write_trace"),
    "io.write_trace.rows_per_s": _rate("io.write_trace"),
    "io.write_ground_truth.s": _s("io.write_ground_truth"),
    "io.bytes_read": _bytes("bytes_read", "io.load_trace", "io.load_ground_truth"),
    "io.bytes_written": _bytes("bytes_written", "io.write_trace", "io.write_ground_truth"),
    "synth.load_scenario.s": _s("synth.load_scenario"),
    "synth.generate_scenario.s": _s("synth.generate_scenario"),
    "cli.cli_main.s": _s("cli.cli_main"),
    "cli.cli_main.self_s": _self_s("cli.cli_main"),
}
