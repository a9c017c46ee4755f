"""The benchmark tracer still sees every pipeline stage and can count its output.

``perfbench/tracer.py`` wraps module attributes by name and reads counts
from each call's arguments and result with ``len()``.  A stage that is no
longer called through its traced name, or whose result stops having the
event count as its length, would silently zero the per-layer metrics;
this test makes either fail the suite.  The blocked passes must call
nothing the tracer wraps from inside a block: the spans of a run cut into
many blocks must be the same spans, each inside its parent.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

import nilmevents.pipeline
from nilmevents import generate_scenario

from blocks import use_blocks, use_proof_blocks
from replicas import replica_config, replica_spec

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_replica_run(name: str = "kitchen"):
    """One traced ``detect_hybrid`` call on a replica, the kitchen by default: (tracer, result)."""
    series, _ = generate_scenario(replica_spec(name))
    config = replica_config(name)
    tracer = load_tracer_module().Tracer()
    assert tracer.missing == []
    tracer.op = 0
    tracer.install()
    try:
        result = nilmevents.pipeline.detect_hybrid(series, config)
    finally:
        tracer.uninstall()
    return tracer, result


def span_counts(tracer) -> dict:
    assert not [span for span in tracer.spans if "counts_error" in span]
    counts = {}
    for span in tracer.spans:
        if "counts" in span:
            assert span["name"] not in counts, f"{span['name']} traced twice"
            counts[span["name"]] = span["counts"]
    return counts


def test_tracer_counts_match_the_pipeline_result_on_the_kitchen_replica() -> None:
    tracer, result = traced_replica_run()
    verdicts = [v.reason.value for v in result.filter_verdicts]
    assert verdicts, "the kitchen replica should arm the refilter"
    assert span_counts(tracer) == {
        "base.detect_base": {"out": len(result.base_events)},
        # The guard's windows around the unconfirmed candidates do not meet on
        # this replica, so it keeps every extremum they hold.
        "derivative.detect_extrema": {"out": len(result.extrema)},
        "derivative.merge_transient_events": {
            "in": len(result.base_events),
            "out": len(result.merged_events),
        },
        "filtering.refilter": {
            "in": len(result.merged_events),
            "out": len(result.events),
            "removed": verdicts.count("removed_as_fluctuation"),
            "protected": verdicts.count("protected_by_extremum"),
            "survived": verdicts.count("survived_refilter"),
        },
    }
    # The refilter smooths its windows with one traced savitzky_golay call and
    # re-detects on them itself, so the re-detection runs in its self time.
    by_id = {span["id"]: span for span in tracer.spans}
    smoothing = [span for span in tracer.spans if span["name"] == "filtering.savitzky_golay"]
    assert [by_id[span["parent"]]["name"] for span in smoothing] == ["filtering.refilter"]
    assert "filtering.redetect" not in {span["name"] for span in tracer.spans}
    # The guard reads its extrema inside the refilter, once it knows what the
    # re-detection left unconfirmed.
    (extrema,) = [span for span in tracer.spans if span["name"] == "derivative.detect_extrema"]
    assert by_id[extrema["parent"]]["name"] == "filtering.refilter"


def test_no_extrema_are_read_where_the_refilter_does_not_fire() -> None:
    tracer, result = traced_replica_run("lighting")
    assert not len(result.filter_verdicts) and not result.extrema.size
    names = [span["name"] for span in tracer.spans]
    assert "derivative.detect_extrema" not in names
    assert names.count("derivative.merge_transient_events") == 1


def test_one_detect_hybrid_validates_no_series() -> None:
    # Every stage reads the summary the series built at construction, and the
    # refilter's windowed re-detection builds no series, so nothing is
    # validated, even though the refilter fires.
    tracer, result = traced_replica_run()
    assert len(result.filter_verdicts)
    names = [span["name"] for span in tracer.spans]
    assert "core.validate_series" not in names
    assert "filtering.savitzky_golay" in names


def test_many_blocks_leave_the_spans_unchanged(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    whole, _ = traced_replica_run()
    use_blocks(monkeypatch, 64)  # the 11,398-sample trace spans about 180 blocks
    blocked, _ = traced_replica_run()
    assert [(s["name"], s["parent"]) for s in blocked.spans] == [
        (s["name"], s["parent"]) for s in whole.spans
    ]
    assert span_counts(blocked) == span_counts(whole)
    by_id = {span["id"]: span for span in blocked.spans}
    for span in blocked.spans:
        if span["parent"] is not None:
            parent = by_id[span["parent"]]
            assert parent["start"] <= span["start"] <= span["end"] <= parent["end"], span


@pytest.mark.parametrize("proof_block", [1024, 64])
def test_the_derivative_path_calls_nothing_traced_per_active_run(
    proof_block: int, monkeypatch: pytest.MonkeyPatch
) -> None:
    # The base detector tests more runs at 64-sample proof blocks than at 1024,
    # and the derivative reads its windows with no traced call in either case.
    whole, _ = traced_replica_run()
    use_proof_blocks(monkeypatch, proof_block)
    skipping, _ = traced_replica_run()
    names = [span["name"] for span in skipping.spans]
    assert "derivative.first_derivative" not in names
    assert "derivative.loess_smooth" not in names
    assert [(s["name"], s["parent"]) for s in skipping.spans] == [
        (s["name"], s["parent"]) for s in whole.spans
    ]
