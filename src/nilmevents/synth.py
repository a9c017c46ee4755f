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
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .core import DetectionError, GroundTruthEntry, GroundTruthLog, SampleSeries

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
        if not self.label:
            raise InvalidSpec("appliance label must be non-empty")
        if not math.isfinite(self.power_watts) or self.power_watts <= 0:
            raise InvalidSpec(f"power_watts must be positive, got {self.power_watts}")
        if not math.isfinite(self.on_time_s) or self.on_time_s < 0:
            raise InvalidSpec(f"on_time_s must be >= 0, got {self.on_time_s}")
        if not math.isfinite(self.off_time_s) or self.off_time_s <= self.on_time_s:
            raise InvalidSpec(
                f"off_time_s must exceed on_time_s, got {self.off_time_s} <= {self.on_time_s}"
            )
        if self.transient is not TransientKind.STEP:
            span = self.off_time_s - self.on_time_s
            if not math.isfinite(self.transient_duration_s) or self.transient_duration_s <= 0:
                raise InvalidSpec(
                    f"{self.transient.value} transient needs a positive "
                    f"transient_duration_s, got {self.transient_duration_s}"
                )
            if self.transient_duration_s > span:
                raise InvalidSpec(
                    f"transient_duration_s {self.transient_duration_s} exceeds the "
                    f"on-span {span}"
                )
        if (
            not math.isfinite(self.fluctuation_amplitude_watts)
            or self.fluctuation_amplitude_watts < 0
        ):
            raise InvalidSpec(
                "fluctuation_amplitude_watts must be >= 0, got "
                f"{self.fluctuation_amplitude_watts}"
            )


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
        object.__setattr__(self, "appliances", tuple(self.appliances))
        if not self.name:
            raise InvalidSpec("scenario name must be non-empty")
        if not math.isfinite(self.sampling_rate_hz) or self.sampling_rate_hz <= 0:
            raise InvalidSpec(
                f"sampling_rate_hz must be positive, got {self.sampling_rate_hz}"
            )
        if not math.isfinite(self.duration_s) or self.duration_s <= 0:
            raise InvalidSpec(f"duration_s must be positive, got {self.duration_s}")
        if not math.isfinite(self.noise_std_watts) or self.noise_std_watts < 0:
            raise InvalidSpec(f"noise_std_watts must be >= 0, got {self.noise_std_watts}")
        if self.seed < 0:
            raise InvalidSpec(f"seed must be >= 0, got {self.seed}")
        for appliance in self.appliances:
            if appliance.off_time_s > self.duration_s:
                raise InvalidSpec(
                    f"appliance {appliance.label!r} off_time_s {appliance.off_time_s} "
                    f"exceeds scenario duration {self.duration_s}"
                )


def _transient_profile(appliance: ApplianceSpec, elapsed: np.ndarray, dt: float) -> np.ndarray:
    """Power contribution over the active samples, ``elapsed`` >= 0."""
    power = appliance.power_watts
    d = appliance.transient_duration_s
    if appliance.transient is TransientKind.STEP:
        return np.full_like(elapsed, power)
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
    """
    rate = spec.sampling_rate_hz
    dt = 1.0 / rate
    n = round(spec.duration_s * rate)
    if n < 1:
        raise InvalidSpec(
            f"duration {spec.duration_s} s yields no samples at {rate} Hz"
        )
    times = np.arange(n) / rate
    total = np.zeros(n)

    labelled: list[tuple[float, str]] = []
    for appliance in spec.appliances:
        # On the increasing grid, [lo, hi) holds exactly the samples with on <= t < off.
        lo, hi = np.searchsorted(times, (appliance.on_time_s, appliance.off_time_s))
        elapsed = times[lo:hi] - appliance.on_time_s
        total[lo:hi] += _transient_profile(appliance, elapsed, dt)
        if appliance.fluctuation_amplitude_watts > 0:
            for start in _burst_starts(appliance, spec.duration_s):
                b_lo, b_hi = np.searchsorted(times, (start, start + _BURST_LENGTH_S))
                total[b_lo:b_hi] += appliance.fluctuation_amplitude_watts * np.sin(
                    2.0 * np.pi * (times[b_lo:b_hi] - start) / BURST_CARRIER_PERIOD_S
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
        total += rng.normal(0.0, spec.noise_std_watts, n)

    labelled.sort(key=lambda pair: pair[0])
    truth = GroundTruthLog(
        entries=tuple(GroundTruthEntry(timestamp_s=t, label=label) for t, label in labelled)
    )
    return SampleSeries(values=total, sampling_rate_hz=rate), truth


_APPLIANCE_KEYS = {field.name for field in fields(ApplianceSpec)}
_SCENARIO_KEYS = {field.name for field in fields(ScenarioSpec)}


def _appliance_from_dict(payload: dict) -> ApplianceSpec:
    unknown = set(payload) - _APPLIANCE_KEYS
    if unknown:
        raise InvalidSpec(f"unknown appliance keys: {sorted(unknown)}")
    try:
        kind = TransientKind(payload.get("transient", "step"))
    except ValueError as exc:
        raise InvalidSpec(f"unknown transient kind {payload.get('transient')!r}") from exc
    try:
        return ApplianceSpec(
            label=payload["label"],
            power_watts=float(payload["power_watts"]),
            on_time_s=float(payload["on_time_s"]),
            off_time_s=float(payload["off_time_s"]),
            transient=kind,
            transient_duration_s=float(payload.get("transient_duration_s", 0.0)),
            fluctuation_amplitude_watts=float(
                payload.get("fluctuation_amplitude_watts", 0.0)
            ),
        )
    except KeyError as exc:
        raise InvalidSpec(f"appliance is missing required key {exc.args[0]!r}") from exc


def scenario_from_dict(payload: dict) -> ScenarioSpec:
    """Build a :class:`ScenarioSpec` from plain JSON-style data.

    Unknown keys raise :class:`InvalidSpec` so that typos in hand-written
    scenario files fail loudly instead of silently using a default.
    """
    if not isinstance(payload, dict):
        raise InvalidSpec(f"scenario must be a JSON object, got {type(payload).__name__}")
    unknown = set(payload) - _SCENARIO_KEYS
    if unknown:
        raise InvalidSpec(f"unknown scenario keys: {sorted(unknown)}")
    appliances = payload.get("appliances", [])
    if not isinstance(appliances, list):
        raise InvalidSpec("appliances must be a list")
    try:
        return ScenarioSpec(
            sampling_rate_hz=float(payload["sampling_rate_hz"]),
            duration_s=float(payload["duration_s"]),
            appliances=tuple(_appliance_from_dict(item) for item in appliances),
            noise_std_watts=float(payload.get("noise_std_watts", 0.0)),
            seed=int(payload.get("seed", 0)),
            name=payload.get("name", "scenario"),
        )
    except KeyError as exc:
        raise InvalidSpec(f"scenario is missing required key {exc.args[0]!r}") from exc


def load_scenario(path: str | Path) -> ScenarioSpec:
    """Read a scenario description from a UTF-8 JSON file (a byte-order mark is allowed)."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8-sig"))
    except UnicodeDecodeError as exc:
        bad = exc.object[exc.start : exc.end]
        raise InvalidSpec(f"{path}: not UTF-8 text: {exc.reason} {bad!r}") from None
    except json.JSONDecodeError as exc:
        raise InvalidSpec(f"{path}: not valid JSON: {exc}") from exc
    return scenario_from_dict(payload)
