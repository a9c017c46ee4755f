"""Seeded benchmark inputs, rendered with numpy alone.

Scenarios use the JSON layout that ``nilmevents synth`` reads (rate,
duration, noise, seed and a list of appliances, each switching on once
and off once), so the ``synth_export`` workload can hand the same day
spec to the CLI.  The detection workloads never go through
``nilmevents.synth``: :func:`render` is this benchmark's own renderer of
that format, so a change to the program's generator cannot change what
the detector sees.

Transient shapes and fluctuation-burst geometry follow the scenario
format's documented semantics; see ``render``.
"""

from __future__ import annotations

import json
import math

import numpy as np

QUIET_RATE_HZ = 60.0
QUIET_HOURS = 24
# The file workloads use a quarter day, so that one operation lasts about a
# second and the probes around it (see speed.py) track the machine's speed.
INGEST_RATE_HZ = 20.0
INGEST_HOURS = 6
BUSY_RATE_HZ = 20.0
BUSY_HOURS = 8

# Fluctuation bursts: two periods of a 0.5 s sine, the first 14 s after
# turn-on, repeating every 30 s while the appliance is on, never starting
# within 2 s of the end of the trace.
BURST_CARRIER_PERIOD_S = 0.5
BURST_CYCLES = 2
BURST_FIRST_OFFSET_S = 14.0
BURST_PERIOD_S = 30.0
BURST_TAIL_MARGIN_S = 2.0

# The tuned detection settings of the bundled kitchen scenario
# (scenarios/kitchen.config), used on the busy trace.
KITCHEN_CONFIG = {"loess_window_s": 3.0, "sg_window_samples": 41, "sg_poly_order": 2}


def _hours(base_hours: int, scale: float) -> int:
    return max(1, round(base_hours * scale))


def day_spec(seed: int, rate_hz: float, hours: int) -> dict:
    """A light load: one staggered step cycle of at most 400 W per hour."""
    rng = np.random.default_rng([seed, 1])
    appliances = []
    for hour in range(hours):
        on = 3600.0 * hour + round(float(rng.uniform(300.0, 900.0)), 1)
        off = on + round(float(rng.uniform(1200.0, 2400.0)), 1)
        appliances.append(
            {
                "label": f"a{hour}",
                "power_watts": round(float(rng.uniform(150.0, 400.0)), 1),
                "on_time_s": on,
                "off_time_s": off,
            }
        )
    return {
        "name": "day",
        "sampling_rate_hz": rate_hz,
        "duration_s": 3600.0 * hours,
        "noise_std_watts": 2.0,
        "seed": seed,
        "appliances": appliances,
    }


def busy_spec(seed: int, hours: int) -> dict:
    """A heavily loaded trace with dense overlapping cycles and fluctuation bursts.

    A standing 1100 W load keeps the trace above the refilter trigger.
    On top of it 110 cycles start per hour, one in each 1/110 h slot,
    lasting 1 to 10 minutes and cycling through the four transient
    kinds; every fifth is a large appliance that carries fluctuation
    bursts.  Powers, durations and burst amplitudes are evenly spread
    values shuffled by the seed, so every seed gives the same amount of
    work and only its arrangement changes.
    """
    rng = np.random.default_rng([seed, 2])
    duration = 3600.0 * hours
    count = 110 * hours
    large = np.arange(count) % 5 == 0
    slot = (duration - 30.0) / count
    starts = 10.0 + slot * (np.arange(count) + rng.random(count))
    lengths = rng.permutation(np.linspace(60.0, 600.0, count))
    powers = np.empty(count)
    powers[large] = rng.permutation(np.linspace(800.0, 2000.0, large.sum()))
    powers[~large] = rng.permutation(np.linspace(60.0, 400.0, (~large).sum()))
    amplitudes = rng.permutation(np.linspace(80.0, 250.0, large.sum()))
    kinds = ("step", "spike_decay", "ramp", "multi_stage")
    transient_s = {"spike_decay": (0.5, 3.0), "ramp": (2.0, 10.0), "multi_stage": (4.0, 20.0)}
    appliances = [
        {"label": "standing", "power_watts": 1100.0, "on_time_s": 5.0, "off_time_s": duration}
    ]
    for k in range(count):
        on = round(float(starts[k]), 2)
        kind = kinds[k % 4]
        appliance = {
            "label": f"c{k}",
            "power_watts": round(float(powers[k]), 1),
            "on_time_s": on,
            "off_time_s": round(min(on + float(lengths[k]), duration - 10.0), 2),
            "transient": kind,
        }
        if kind != "step":
            lo, hi = transient_s[kind]
            appliance["transient_duration_s"] = round(float(rng.uniform(lo, hi)), 2)
        if large[k]:
            appliance["fluctuation_amplitude_watts"] = round(float(amplitudes[k // 5]), 1)
        appliances.append(appliance)
    return {
        "name": "busy",
        "sampling_rate_hz": BUSY_RATE_HZ,
        "duration_s": duration,
        "noise_std_watts": 5.0,
        "seed": seed,
        "appliances": appliances,
    }


def render(spec: dict) -> tuple[np.ndarray, list[tuple[float, str]]]:
    """Render a scenario spec into samples and its time-sorted reference log.

    An appliance draws power on the samples whose time ``t`` satisfies
    ``on <= t < off``.  With rated power ``P``, transient duration ``d``
    and ``e`` the time since turn-on: ``step`` is ``P``; ``spike_decay``
    is ``P * (1 + 0.5 * exp(-3e / d))``; ``ramp`` is
    ``P * min(1, (e + dt) / d)``; ``multi_stage`` is ``P / 2`` for
    ``e < d / 2`` and ``P`` after.  Reference entries are ``"<label> on"``,
    ``"<label> mode"`` at a multi-stage midpoint and ``"<label> off"``
    unless the appliance is still on at the end.
    """
    rate = float(spec["sampling_rate_hz"])
    duration = float(spec["duration_s"])
    dt = 1.0 / rate
    n = round(duration * rate)
    times = np.arange(n) / rate
    total = np.zeros(n)
    truth: list[tuple[float, str]] = []
    burst_len = BURST_CYCLES * BURST_CARRIER_PERIOD_S
    for app in spec["appliances"]:
        power = float(app["power_watts"])
        on, off = float(app["on_time_s"]), float(app["off_time_s"])
        kind = app.get("transient", "step")
        d = float(app.get("transient_duration_s", 0.0))
        lo, hi = np.searchsorted(times, (on, off))
        elapsed = times[lo:hi] - on
        if kind == "step":
            total[lo:hi] += power
        elif kind == "spike_decay":
            total[lo:hi] += power * (1.0 + 0.5 * np.exp(-elapsed / (d / 3.0)))
        elif kind == "ramp":
            total[lo:hi] += power * np.minimum(1.0, (elapsed + dt) / d)
        elif kind == "multi_stage":
            total[lo:hi] += np.where(elapsed < d / 2.0, power / 2.0, power)
        else:
            raise ValueError(f"unknown transient kind {kind!r}")
        amplitude = float(app.get("fluctuation_amplitude_watts", 0.0))
        start = on + BURST_FIRST_OFFSET_S
        last_start = min(off - burst_len, duration - BURST_TAIL_MARGIN_S)
        while amplitude > 0 and start <= last_start:
            b_lo, b_hi = np.searchsorted(times, (start, start + burst_len))
            total[b_lo:b_hi] += amplitude * np.sin(
                2.0 * math.pi * (times[b_lo:b_hi] - start) / BURST_CARRIER_PERIOD_S
            )
            start += BURST_PERIOD_S
        truth.append((on, f"{app['label']} on"))
        if kind == "multi_stage":
            truth.append((on + d / 2.0, f"{app['label']} mode"))
        if off < duration:
            truth.append((off, f"{app['label']} off"))
    noise = float(spec.get("noise_std_watts", 0.0))
    if noise > 0:
        total += np.random.default_rng(int(spec["seed"])).normal(0.0, noise, n)
    truth.sort(key=lambda pair: pair[0])
    return total, truth


def write_trace_csv(path, values: np.ndarray, rate_hz: float) -> None:
    """Write ``timestamp_s,power_w`` rows with millisecond and milliwatt precision."""
    times = (np.arange(values.size) / rate_hz).tolist()
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("timestamp_s,power_w\n")
        handle.write("\n".join(f"{t:.3f},{v:.3f}" for t, v in zip(times, values.tolist())))
        handle.write("\n")


def write_truth_csv(path, truth: list[tuple[float, str]]) -> None:
    """Write a ``timestamp_s,label`` reference log."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("timestamp_s,label\n")
        handle.writelines(f"{t!r},{label}\n" for t, label in truth)


WORKLOADS = ("quiet_day", "busy_fluct", "csv_ingest", "synth_export")


def prepare(workload: str, seed: int, scale: float, workdir) -> None:
    """Write one workload's inputs into ``workdir`` and describe them.

    ``quiet_day`` and ``busy_fluct`` get the rendered samples as
    ``trace.npy``; ``csv_ingest`` gets ``trace.csv`` and ``truth.csv``;
    ``synth_export`` gets the scenario as ``spec.json``.  The description
    in ``inputs.json`` carries the sample count, detection settings and
    reference log the checks need.
    """
    if workload == "quiet_day":
        spec, config = day_spec(seed, QUIET_RATE_HZ, _hours(QUIET_HOURS, scale)), {}
    elif workload == "busy_fluct":
        spec, config = busy_spec(seed, _hours(BUSY_HOURS, scale)), KITCHEN_CONFIG
    elif workload in ("csv_ingest", "synth_export"):
        spec, config = day_spec(seed, INGEST_RATE_HZ, _hours(INGEST_HOURS, scale)), {}
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    values, truth = render(spec)
    rate = float(spec["sampling_rate_hz"])
    inputs = {
        "workload": workload,
        "seed": seed,
        "samples": int(values.size),
        "rate_hz": rate,
        "config": config,
        "truth": truth,
    }
    if workload in ("quiet_day", "busy_fluct"):
        np.save(workdir / "trace.npy", values)
    elif workload == "csv_ingest":
        write_trace_csv(workdir / "trace.csv", values, rate)
        write_truth_csv(workdir / "truth.csv", truth)
    else:
        with open(workdir / "spec.json", "w", encoding="utf-8") as handle:
            json.dump(spec, handle)
        inputs["last_value"] = float(values[-1])
    with open(workdir / "inputs.json", "w", encoding="utf-8") as handle:
        json.dump(inputs, handle)


if __name__ == "__main__":
    import sys
    from pathlib import Path

    # python3 perfbench/workloads.py WORKDIR WORKLOAD SEED SCALE
    prepare(sys.argv[2], int(sys.argv[3]), float(sys.argv[4]), Path(sys.argv[1]))
