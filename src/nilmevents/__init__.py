"""Event detection for aggregate household power traces.

The package turns a uniformly sampled power signal into a list of
appliance state-transition events.  :func:`detect_hybrid` is the main
entry point: a moving-mean change detector proposes candidates, a
smoothed-derivative stage merges candidates that ride one long transient,
and a smoothing refilter drops candidates caused by periodic load
fluctuation.  A classical likelihood detector is included for
comparison, together with synthetic scenario generation, file formats
and an evaluation harness.

>>> from nilmevents import HybridConfig, SampleSeries, detect_hybrid
>>> import numpy as np
>>> trace = np.concatenate([np.full(200, 100.0), np.full(200, 1600.0)])
>>> series = SampleSeries(values=trace, sampling_rate_hz=20.0)
>>> result = detect_hybrid(series, HybridConfig())
>>> [round(e.timestamp_s, 2) for e in result.events]
[9.7]
"""

from .base import MagnitudeTooLarge, detect_base
from .baselines import LldConfig, lld_max
from .core import (
    DetectedEvent,
    DetectionError,
    EmptySeries,
    EvaluationReport,
    Events,
    GroundTruthEntry,
    GroundTruthLog,
    HybridConfig,
    InconsistentCounts,
    MisalignedInput,
    NonFiniteValue,
    NonPositiveDuration,
    NonPositiveRate,
    SampleSeries,
    SeriesTooShort,
    UnsortedInput,
    WrongType,
    ZeroGroundTruth,
    seconds_to_samples,
    validate_series,
)
from .derivative import (
    InvalidWindow,
    detect_extrema,
    first_derivative,
    loess_smooth,
    merge_transient_events,
)
from .evaluation import (
    NegativeTolerance,
    coalesce_simultaneous,
    evaluate_detections,
    match_events,
)
from .filtering import (
    FilterReason,
    FilterVerdict,
    FilterVerdicts,
    OrderTooHigh,
    refilter_events_with_verdicts,
    savitzky_golay,
)
from .io import (
    EmptyFile,
    NonUniformSampling,
    ParseError,
    format_report,
    load_config_file,
    load_ground_truth,
    load_trace,
    write_events,
    write_ground_truth,
    write_trace,
)
from .pipeline import PipelineResult, StageCounts, detect_hybrid
from .synth import (
    ApplianceSpec,
    InvalidSpec,
    ScenarioSpec,
    TransientKind,
    generate_scenario,
    load_scenario,
    scenario_from_dict,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core data model
    "SampleSeries",
    "DetectedEvent",
    "Events",
    "HybridConfig",
    "GroundTruthEntry",
    "GroundTruthLog",
    "EvaluationReport",
    "seconds_to_samples",
    "validate_series",
    # errors
    "DetectionError",
    "EmptySeries",
    "WrongType",
    "NonPositiveRate",
    "NonPositiveDuration",
    "NonFiniteValue",
    "SeriesTooShort",
    "MagnitudeTooLarge",
    "MisalignedInput",
    "UnsortedInput",
    "InvalidWindow",
    "OrderTooHigh",
    "NegativeTolerance",
    "ZeroGroundTruth",
    "InconsistentCounts",
    "InvalidSpec",
    "ParseError",
    "NonUniformSampling",
    "EmptyFile",
    # detectors and pipeline
    "detect_base",
    "first_derivative",
    "loess_smooth",
    "detect_extrema",
    "merge_transient_events",
    "savitzky_golay",
    "refilter_events_with_verdicts",
    "FilterReason",
    "FilterVerdict",
    "FilterVerdicts",
    "detect_hybrid",
    "PipelineResult",
    "StageCounts",
    "lld_max",
    "LldConfig",
    # evaluation
    "coalesce_simultaneous",
    "match_events",
    "evaluate_detections",
    # synthesis
    "ScenarioSpec",
    "ApplianceSpec",
    "TransientKind",
    "generate_scenario",
    "scenario_from_dict",
    "load_scenario",
    # file formats
    "load_trace",
    "write_trace",
    "load_ground_truth",
    "write_ground_truth",
    "write_events",
    "format_report",
    "load_config_file",
]
