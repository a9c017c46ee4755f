"""Synthetic household traces with exactly known transition times.

A scenario is a list of appliances, each switching on once and off once.
The turn-on transient can be an instant step, a spiked exponential decay,
a linear ramp, or a two-stage step; turn-off is always an instant step.
Appliances may carry a periodic fluctuation: short sinusoidal bursts that
mimic load oscillation without any state change, which is exactly the
disturbance the refilter stage exists to reject.  Gaussian sample noise
is drawn from :func:`numpy.random.default_rng`, so a scenario is fully
reproducible from its spec.

Burst geometry is fixed: a burst lasts ``BURST_CYCLES`` periods of a
``BURST_CARRIER_PERIOD_S`` sine, the first burst starts
``BURST_FIRST_OFFSET_S`` after turn-on, bursts repeat every
``BURST_PERIOD_S``, and no burst starts within ``BURST_TAIL_MARGIN_S`` of
the end of the trace.  Bursts are emitted only while the appliance is on.

Both specs check their own values, by the rule every record of this
package follows (``core._number``): a number field takes an ``int``, a
``float`` or a numpy real scalar that is finite, never a bool, and is
stored as a float; ``seed`` takes an integer, ``label`` and ``name`` a
string, ``transient`` a :class:`TransientKind`, and ``appliances`` a
tuple or list of :class:`ApplianceSpec`.  A value that breaks it raises
:class:`InvalidSpec` naming the field.  A scenario file is a JSON object
that one reader maps onto the specs' fields: it refuses unknown and
missing keys itself, and leaves every value to the constructors.
"""

from __future__ import annotations

import enum
import json
import math
import typing
from contextlib import suppress
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

from .core import (
    _MAX_SAMPLES,
    DetectionError,
    GroundTruthEntry,
    GroundTruthLog,
    SampleSeries,
    _blocks,
    _check_fields,
    _check_items,
    _check_type,
    _positive,
)
from .io import _decoding

__all__ = [
    "InvalidSpec",
    "TransientKind",
    "ApplianceSpec",
    "ScenarioSpec",
    "generate_scenario",
    "scenario_from_dict",
    "load_scenario",
    "BURST_CARRIER_PERIOD_S",
    "BURST_CYCLES",
    "BURST_FIRST_OFFSET_S",
    "BURST_PERIOD_S",
    "BURST_TAIL_MARGIN_S",
]

BURST_CARRIER_PERIOD_S = 0.5
BURST_CYCLES = 2
BURST_FIRST_OFFSET_S = 14.0
BURST_PERIOD_S = 30.0
BURST_TAIL_MARGIN_S = 2.0

_BURST_LENGTH_S = BURST_CYCLES * BURST_CARRIER_PERIOD_S


class InvalidSpec(DetectionError):
    """A scenario description is malformed or internally inconsistent."""


class TransientKind(enum.Enum):
    """Shape of the turn-on transient."""

    STEP = "step"
    SPIKE_DECAY = "spike_decay"
    RAMP = "ramp"
    MULTI_STAGE = "multi_stage"


@dataclass(frozen=True)
class ApplianceSpec:
    """One appliance's contribution to the aggregate trace.

    The appliance draws power on ``[on_time_s, off_time_s)``.  With
    ``off_time_s`` equal to the scenario duration the appliance never
    turns off and no turn-off reference entry is emitted.

    Transient shapes, with ``P`` the rated power and ``d`` the transient
    duration measured from turn-on:

    - ``STEP``: instantly ``P``.
    - ``SPIKE_DECAY``: starts at ``1.5 * P`` and decays toward ``P`` with
      time constant ``d / 3``.
    - ``RAMP``: rises linearly, reaching ``P`` after ``d``.
    - ``MULTI_STAGE``: ``P / 2`` for the first ``d / 2``, then ``P``.
    """

    label: str
    power_watts: float
    on_time_s: float
    off_time_s: float
    transient: TransientKind = TransientKind.STEP
    transient_duration_s: float = 0.0
    fluctuation_amplitude_watts: float = 0.0

    def __post_init__(self) -> None:
        _check_fields(self, InvalidSpec)
        _check_type("transient", self.transient, TransientKind, InvalidSpec)
        if not self.label:
            raise InvalidSpec("appliance label must be non-empty")
        _positive("power_watts", self.power_watts, InvalidSpec)
        _positive("on_time_s", self.on_time_s, InvalidSpec, or_zero=True)
        if self.off_time_s <= self.on_time_s:
            raise InvalidSpec(
                f"off_time_s must exceed on_time_s, got {self.off_time_s} <= {self.on_time_s}"
            )
        if self.transient is not TransientKind.STEP:
            span = self.off_time_s - self.on_time_s
            if self.transient_duration_s <= 0:
                raise InvalidSpec(
                    f"{self.transient.value} transient needs a positive "
                    f"transient_duration_s, got {self.transient_duration_s}"
                )
            if self.transient_duration_s > span:
                raise InvalidSpec(
                    f"transient_duration_s {self.transient_duration_s} exceeds the "
                    f"on-span {span}"
                )
            if self.transient is TransientKind.SPIKE_DECAY and self.transient_duration_s / 3.0 == 0:
                raise InvalidSpec(
                    f"spike_decay transient_duration_s {self.transient_duration_s} gives "
                    "a time constant of 0"
                )
        fluctuation = self.fluctuation_amplitude_watts
        _positive("fluctuation_amplitude_watts", fluctuation, InvalidSpec, or_zero=True)


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete synthetic household scenario."""

    sampling_rate_hz: float
    duration_s: float
    appliances: tuple[ApplianceSpec, ...] = ()
    noise_std_watts: float = 0.0
    seed: int = 0
    name: str = "scenario"

    def __post_init__(self) -> None:
        _check_fields(self, InvalidSpec)
        appliances = _check_items("appliances", self.appliances, ApplianceSpec, InvalidSpec)
        object.__setattr__(self, "appliances", appliances)
        if not self.name:
            raise InvalidSpec("scenario name must be non-empty")
        _positive("sampling_rate_hz", self.sampling_rate_hz, InvalidSpec)
        _positive("duration_s", self.duration_s, InvalidSpec)
        _positive("noise_std_watts", self.noise_std_watts, InvalidSpec, or_zero=True)
        _positive("seed", self.seed, InvalidSpec, or_zero=True)
        for appliance in self.appliances:
            if appliance.off_time_s > self.duration_s:
                raise InvalidSpec(
                    f"appliance {appliance.label!r} off_time_s {appliance.off_time_s} "
                    f"exceeds scenario duration {self.duration_s}"
                )


def _transient_profile(appliance: ApplianceSpec, elapsed: np.ndarray, dt: float) -> np.ndarray:
    """Power contribution over the active samples, ``elapsed`` >= 0.

    A transient so short that ``elapsed / d`` overflows to inf has ended:
    the ramp's ``minimum`` and the decay's ``exp`` read inf as such.
    """
    power = appliance.power_watts
    d = appliance.transient_duration_s
    if appliance.transient is TransientKind.STEP:
        return np.full_like(elapsed, power)
    with np.errstate(over="ignore"):
        if appliance.transient is TransientKind.SPIKE_DECAY:
            return power * (1.0 + 0.5 * np.exp(-elapsed / (d / 3.0)))
        if appliance.transient is TransientKind.RAMP:
            return power * np.minimum(1.0, (elapsed + dt) / d)
    return np.where(elapsed < d / 2.0, power / 2.0, power)


def _burst_starts(appliance: ApplianceSpec, duration_s: float) -> list[float]:
    starts = []
    start = appliance.on_time_s + BURST_FIRST_OFFSET_S
    while (
        start + _BURST_LENGTH_S <= appliance.off_time_s
        and start <= duration_s - BURST_TAIL_MARGIN_S
    ):
        starts.append(start)
        start += BURST_PERIOD_S
    return starts


def _first_at(t: float, rate: float, n: int) -> int:
    """The first sample ``i`` of ``[0, n)`` whose time ``i / rate`` is ``>= t``, else ``n``.

    What ``np.searchsorted(np.arange(n) / rate, t)`` returns: ``ceil(t *
    rate)`` is a guess within a sample or two, corrected by the same
    division, which rounds the same way in Python as in numpy.
    """
    i = min(max(math.ceil(t * rate), 0), n)
    while i > 0 and (i - 1) / rate >= t:
        i -= 1
    while i < n and i / rate < t:
        i += 1
    return i


def _blocks_between(
    start: float, stop: float, rate: float, n: int
) -> typing.Iterator[tuple[slice, np.ndarray]]:
    """The samples ``i`` of ``[0, n)`` with ``start <= i / rate < stop``, a block at a time.

    Yields each block's slice of the trace and its sample times.
    """
    lo, hi = _first_at(start, rate, n), _first_at(stop, rate, n)
    for a, b in _blocks(hi - lo):
        yield slice(lo + a, lo + b), np.arange(lo + a, lo + b) / rate


def generate_scenario(spec: ScenarioSpec) -> tuple[SampleSeries, GroundTruthLog]:
    """Render a scenario into a trace and its reference transition log.

    Returns
    -------
    tuple[SampleSeries, GroundTruthLog]
        The aggregate trace sampled at ``spec.sampling_rate_hz`` starting
        at time zero, and one reference entry per appliance transition:
        ``"<label> on"`` at turn-on, ``"<label> mode"`` at a multi-stage
        transient's intermediate step, and ``"<label> off"`` at turn-off
        (omitted when the appliance stays on through the end).  Entries
        are sorted by time; simultaneous transitions keep appliance
        order.

    The trace is the one full-length array allocated: it is filled a
    ``core._BLOCK_SAMPLES`` block at a time, so besides it and the
    series' summary the call holds one block's sample times and a few
    blocks of temporaries.  Sample ``i`` is at time ``i / rate``; an
    appliance adds its power to the samples with ``on <= t < off`` and a
    burst its sine to those in ``[start, start + BURST_CYCLES *
    BURST_CARRIER_PERIOD_S)``.  Each sample gets its appliances in order,
    each followed by its bursts, then its noise, drawn block after block
    from one generator, which gives the same stream as one draw: so the
    trace does not depend on the block size.
    """
    _check_type("spec", spec, ScenarioSpec)
    rate = spec.sampling_rate_hz
    dt = 1.0 / rate
    samples = spec.duration_s * rate  # may overflow to inf
    if not 0.5 < samples < _MAX_SAMPLES:  # so it rounds to a count a trace can hold
        raise InvalidSpec(
            f"duration_s {spec.duration_s} at sampling_rate_hz {rate} gives {samples:g} "
            "samples, outside 1 to 2**53"
        )
    n = round(samples)
    try:
        total = np.zeros(n)
    except MemoryError as exc:
        raise InvalidSpec(
            f"duration_s {spec.duration_s} at sampling_rate_hz {rate} gives {n} samples, "
            f"whose trace needs {8 * n} bytes: more than can be allocated"
        ) from exc

    labelled: list[tuple[float, str]] = []
    for appliance in spec.appliances:
        on = appliance.on_time_s
        for part, times in _blocks_between(on, appliance.off_time_s, rate, n):
            total[part] += _transient_profile(appliance, times - on, dt)
        if appliance.fluctuation_amplitude_watts > 0:
            for start in _burst_starts(appliance, spec.duration_s):
                for part, times in _blocks_between(start, start + _BURST_LENGTH_S, rate, n):
                    total[part] += appliance.fluctuation_amplitude_watts * np.sin(
                        2.0 * np.pi * (times - start) / BURST_CARRIER_PERIOD_S
                    )
        labelled.append((appliance.on_time_s, f"{appliance.label} on"))
        if appliance.transient is TransientKind.MULTI_STAGE:
            labelled.append(
                (
                    appliance.on_time_s + appliance.transient_duration_s / 2.0,
                    f"{appliance.label} mode",
                )
            )
        if appliance.off_time_s < spec.duration_s:
            labelled.append((appliance.off_time_s, f"{appliance.label} off"))

    if spec.noise_std_watts > 0:
        rng = np.random.default_rng(spec.seed)
        for a, b in _blocks(n):
            total[a:b] += rng.normal(0.0, spec.noise_std_watts, b - a)

    labelled.sort(key=lambda pair: pair[0])
    truth = GroundTruthLog(
        entries=tuple(GroundTruthEntry(timestamp_s=t, label=label) for t, label in labelled)
    )
    return SampleSeries(values=total, sampling_rate_hz=rate), truth


def _read_spec(cls: type, payload: object) -> ApplianceSpec | ScenarioSpec:
    """Build a spec dataclass from a JSON object, whose values its constructor checks.

    Only two values are converted first: a ``transient`` that names a
    :class:`TransientKind` to that kind, and each object of an
    ``appliances`` list to an :class:`ApplianceSpec`, read by this function.
    """
    what = cls.__name__.removesuffix("Spec").lower()
    if not isinstance(payload, dict):
        raise InvalidSpec(f"{what} must be a JSON object, got {type(payload).__name__}")
    unknown = set(payload) - {f.name for f in fields(cls)}
    if unknown:
        raise InvalidSpec(f"unknown {what} keys: {sorted(unknown)}")
    missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in payload]
    if missing:
        raise InvalidSpec(f"{what} is missing required key {missing[0]!r}")
    values = dict(payload)
    with suppress(KeyError, ValueError):  # no transient, or no such kind: left to the constructor
        values["transient"] = TransientKind(values["transient"])
    if isinstance(values.get("appliances"), list):  # each object read as a spec
        values["appliances"] = [
            _read_spec(ApplianceSpec, x) if isinstance(x, dict) else x for x in values["appliances"]
        ]
    return cls(**values)


def scenario_from_dict(payload: dict) -> ScenarioSpec:
    """Build a :class:`ScenarioSpec` from plain JSON-style data, as in a scenario file.

    Unknown keys and missing required keys raise :class:`InvalidSpec`
    naming the key, so that typos in hand-written scenario files fail
    loudly instead of silently using a default.  The values are checked
    by the :class:`ScenarioSpec` and :class:`ApplianceSpec` constructors,
    so a bad value gets the message it would get in Python, naming the
    key.  Only a ``transient`` that names a :class:`TransientKind` is read
    as that kind, and each object of an ``appliances`` list as an
    :class:`ApplianceSpec`, first.
    """
    return _read_spec(ScenarioSpec, payload)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's ``(key, value)`` pairs as a dict; a key set twice is :class:`InvalidSpec`."""
    payload: dict = {}
    for key, value in pairs:
        if key in payload:
            raise InvalidSpec(f"key {key!r} is set twice in one JSON object")
        payload[key] = value
    return payload


def load_scenario(path: str | Path) -> ScenarioSpec:
    """Read a scenario description from a UTF-8 JSON file (a byte-order mark is allowed).

    A key set twice in one object, at any level, raises
    :class:`InvalidSpec`, since ``json`` would keep its last value.
    """
    with _decoding(path, InvalidSpec):
        text = Path(path).read_text(encoding="utf-8-sig")
    try:
        payload = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise InvalidSpec(f"{path}: not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise InvalidSpec(f"{path}: JSON nested too deeply to read") from exc
    return scenario_from_dict(payload)
