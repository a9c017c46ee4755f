"""Synthetic scenario rendering and its reference transition log."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nilmevents import (
    ApplianceSpec,
    GroundTruthEntry,
    InvalidSpec,
    ScenarioSpec,
    TransientKind,
    coalesce_simultaneous,
    generate_scenario,
    load_scenario,
    scenario_from_dict,
)
from nilmevents.synth import (
    BURST_CARRIER_PERIOD_S,
    BURST_CYCLES,
    BURST_FIRST_OFFSET_S,
    BURST_PERIOD_S,
    BURST_TAIL_MARGIN_S,
)

from replicas import replica_spec


def single_appliance(appliance: ApplianceSpec, duration_s: float = 60.0) -> ScenarioSpec:
    return ScenarioSpec(sampling_rate_hz=20.0, duration_s=duration_s, appliances=(appliance,))


def test_empty_scenario_is_all_zero_with_an_empty_log() -> None:
    series, truth = generate_scenario(ScenarioSpec(sampling_rate_hz=20.0, duration_s=10.0))
    assert len(series) == 200
    assert not series.values.any()
    assert len(truth) == 0


def test_step_appliance_draws_exactly_its_rated_power() -> None:
    spec = single_appliance(
        ApplianceSpec(label="heater", power_watts=100.0, on_time_s=10.0, off_time_s=20.0)
    )
    series, truth = generate_scenario(spec)
    assert not series.values[:200].any()
    assert (series.values[200:400] == 100.0).all()
    assert not series.values[400:].any()
    assert truth.entries == (
        GroundTruthEntry(10.0, "heater on"),
        GroundTruthEntry(20.0, "heater off"),
    )


def test_appliance_on_through_the_end_logs_no_turn_off() -> None:
    spec = single_appliance(
        ApplianceSpec(label="fridge", power_watts=80.0, on_time_s=10.0, off_time_s=60.0)
    )
    series, truth = generate_scenario(spec)
    assert (series.values[200:] == 80.0).all()
    assert truth.entries == (GroundTruthEntry(10.0, "fridge on"),)


def test_spike_decay_starts_half_again_above_rated_power() -> None:
    spec = single_appliance(
        ApplianceSpec(
            label="motor",
            power_watts=200.0,
            on_time_s=10.0,
            off_time_s=40.0,
            transient=TransientKind.SPIKE_DECAY,
            transient_duration_s=1.0,
        )
    )
    series, _ = generate_scenario(spec)
    assert series.values[200] == 300.0
    assert series.values[220] == pytest.approx(200.0 * (1.0 + 0.5 * math.exp(-3.0)))
    assert (np.diff(series.values[200:221]) < 0).all()
    # The decay tail eventually rounds to exactly the rated power.
    assert (series.values[200:800] >= 200.0).all()
    assert (series.values[200:260] > 200.0).all()


def test_ramp_reaches_rated_power_after_the_transient_duration() -> None:
    spec = single_appliance(
        ApplianceSpec(
            label="hood",
            power_watts=400.0,
            on_time_s=10.0,
            off_time_s=40.0,
            transient=TransientKind.RAMP,
            transient_duration_s=2.0,
        )
    )
    series, _ = generate_scenario(spec)
    assert series.values[200] == pytest.approx(10.0)
    assert series.values[238] == pytest.approx(390.0)
    assert series.values[239] == pytest.approx(400.0, rel=1e-12)
    assert (np.diff(series.values[200:240]) > 0).all()
    assert (series.values[240:800] == 400.0).all()


def test_multi_stage_holds_half_power_then_logs_a_mode_change() -> None:
    spec = single_appliance(
        ApplianceSpec(
            label="washer",
            power_watts=600.0,
            on_time_s=10.0,
            off_time_s=40.0,
            transient=TransientKind.MULTI_STAGE,
            transient_duration_s=4.0,
        )
    )
    series, truth = generate_scenario(spec)
    assert (series.values[200:240] == 300.0).all()
    assert (series.values[240:800] == 600.0).all()
    assert truth.entries == (
        GroundTruthEntry(10.0, "washer on"),
        GroundTruthEntry(12.0, "washer mode"),
        GroundTruthEntry(40.0, "washer off"),
    )


def test_fluctuation_bursts_follow_the_fixed_schedule() -> None:
    spec = single_appliance(
        ApplianceSpec(
            label="dryer",
            power_watts=100.0,
            on_time_s=5.0,
            off_time_s=55.0,
            fluctuation_amplitude_watts=40.0,
        )
    )
    series, _ = generate_scenario(spec)
    burst_len = BURST_CYCLES * BURST_CARRIER_PERIOD_S
    starts = [5.0 + BURST_FIRST_OFFSET_S, 5.0 + BURST_FIRST_OFFSET_S + BURST_PERIOD_S]
    assert starts == [19.0, 49.0]
    times = np.arange(len(series)) / 20.0
    in_burst = np.zeros(len(series), dtype=bool)
    for start in starts:
        in_burst |= (times >= start) & (times < start + burst_len)
    on_plateau = (times >= 5.0) & (times < 55.0) & ~in_burst
    assert (series.values[on_plateau] == 100.0).all()
    deviation = series.values[in_burst] - 100.0
    assert np.abs(deviation).max() > 30.0
    assert np.abs(deviation).max() <= 40.0 + 1e-9
    # Whole sine cycles cancel on average.
    assert deviation.sum() == pytest.approx(0.0, abs=1e-9)


def test_no_burst_starts_inside_the_tail_margin() -> None:
    # The only candidate start, 45 + 14 = 59 s, falls within the final
    # two seconds of the trace and is therefore dropped.
    spec = single_appliance(
        ApplianceSpec(
            label="fan",
            power_watts=100.0,
            on_time_s=45.0,
            off_time_s=60.0,
            fluctuation_amplitude_watts=40.0,
        )
    )
    assert 45.0 + BURST_FIRST_OFFSET_S > 60.0 - BURST_TAIL_MARGIN_S
    series, _ = generate_scenario(spec)
    assert (series.values[900:] == 100.0).all()


def test_no_burst_that_would_outlive_the_appliance() -> None:
    spec = single_appliance(
        ApplianceSpec(
            label="fan",
            power_watts=100.0,
            on_time_s=5.0,
            off_time_s=19.5,
            fluctuation_amplitude_watts=40.0,
        )
    )
    series, _ = generate_scenario(spec)
    assert (series.values[100:390] == 100.0).all()


def test_noise_is_reproducible_from_the_seed() -> None:
    spec = ScenarioSpec(
        sampling_rate_hz=20.0,
        duration_s=30.0,
        appliances=(
            ApplianceSpec(label="a", power_watts=200.0, on_time_s=5.0, off_time_s=25.0),
        ),
        noise_std_watts=2.0,
        seed=5,
    )
    first, _ = generate_scenario(spec)
    second, _ = generate_scenario(spec)
    assert np.array_equal(first.values, second.values)
    reseeded, _ = generate_scenario(
        ScenarioSpec(
            sampling_rate_hz=spec.sampling_rate_hz,
            duration_s=spec.duration_s,
            appliances=spec.appliances,
            noise_std_watts=spec.noise_std_watts,
            seed=6,
        )
    )
    assert not np.array_equal(first.values, reseeded.values)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(label="", power_watts=100.0, on_time_s=0.0, off_time_s=10.0),
        dict(label="x", power_watts=0.0, on_time_s=0.0, off_time_s=10.0),
        dict(label="x", power_watts=-5.0, on_time_s=0.0, off_time_s=10.0),
        dict(label="x", power_watts=math.inf, on_time_s=0.0, off_time_s=10.0),
        dict(label="x", power_watts=100.0, on_time_s=-1.0, off_time_s=10.0),
        dict(label="x", power_watts=100.0, on_time_s=10.0, off_time_s=10.0),
        dict(label="x", power_watts=100.0, on_time_s=10.0, off_time_s=5.0),
        dict(
            label="x",
            power_watts=100.0,
            on_time_s=0.0,
            off_time_s=10.0,
            transient=TransientKind.RAMP,
        ),
        dict(
            label="x",
            power_watts=100.0,
            on_time_s=0.0,
            off_time_s=10.0,
            transient=TransientKind.RAMP,
            transient_duration_s=11.0,
        ),
        dict(
            label="x",
            power_watts=100.0,
            on_time_s=0.0,
            off_time_s=10.0,
            fluctuation_amplitude_watts=-1.0,
        ),
    ],
)
def test_malformed_appliances_are_rejected(kwargs: dict) -> None:
    with pytest.raises(InvalidSpec):
        ApplianceSpec(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(sampling_rate_hz=20.0, duration_s=60.0, name=""),
        dict(sampling_rate_hz=0.0, duration_s=60.0),
        dict(sampling_rate_hz=20.0, duration_s=0.0),
        dict(sampling_rate_hz=20.0, duration_s=60.0, noise_std_watts=-1.0),
        dict(sampling_rate_hz=20.0, duration_s=60.0, seed=-1),
        dict(
            sampling_rate_hz=20.0,
            duration_s=20.0,
            appliances=(
                ApplianceSpec(label="x", power_watts=100.0, on_time_s=5.0, off_time_s=30.0),
            ),
        ),
    ],
)
def test_malformed_scenarios_are_rejected(kwargs: dict) -> None:
    with pytest.raises(InvalidSpec):
        ScenarioSpec(**kwargs)


def test_a_duration_shorter_than_one_sample_cannot_render() -> None:
    with pytest.raises(InvalidSpec):
        generate_scenario(ScenarioSpec(sampling_rate_hz=20.0, duration_s=0.01))


def test_scenario_from_dict_round_trips_and_applies_defaults() -> None:
    # The payload sets every field of both specs, so a key that either key
    # set lacks is refused here.
    payload = {
        "name": "demo",
        "sampling_rate_hz": 20,
        "duration_s": 60,
        "noise_std_watts": 1.5,
        "seed": 7,
        "appliances": [
            {
                "label": "hood",
                "power_watts": 400,
                "on_time_s": 10,
                "off_time_s": 40,
                "transient": "ramp",
                "transient_duration_s": 2.0,
                "fluctuation_amplitude_watts": 30.0,
            },
            {"label": "lamp", "power_watts": 60, "on_time_s": 15, "off_time_s": 45},
        ],
    }
    spec = scenario_from_dict(payload)
    assert spec == ScenarioSpec(
        sampling_rate_hz=20.0,
        duration_s=60.0,
        appliances=(
            ApplianceSpec(
                label="hood",
                power_watts=400.0,
                on_time_s=10.0,
                off_time_s=40.0,
                transient=TransientKind.RAMP,
                transient_duration_s=2.0,
                fluctuation_amplitude_watts=30.0,
            ),
            ApplianceSpec(label="lamp", power_watts=60.0, on_time_s=15.0, off_time_s=45.0),
        ),
        noise_std_watts=1.5,
        seed=7,
        name="demo",
    )
    assert type(spec.sampling_rate_hz) is type(spec.appliances[1].power_watts) is float
    assert spec.appliances[1].transient is TransientKind.STEP
    assert spec.appliances[1].fluctuation_amplitude_watts == 0.0
    defaults = scenario_from_dict({"sampling_rate_hz": 20, "duration_s": 60})
    assert (defaults.name, defaults.noise_std_watts, defaults.seed) == ("scenario", 0.0, 0)
    assert defaults.appliances == ()


@pytest.mark.parametrize(
    "payload",
    [
        [1, 2, 3],
        {"sampling_rate_hz": 20, "duration_s": 60, "typo": 1},
        {"sampling_rate_hz": 20, "duration_s": 60, "appliances": {"label": "x"}},
        {
            "sampling_rate_hz": 20,
            "duration_s": 60,
            "appliances": [{"label": "x", "power_watts": 10, "on_time_s": 0, "off_time_s": 5, "colour": "red"}],
        },
        {
            "sampling_rate_hz": 20,
            "duration_s": 60,
            "appliances": [
                {"label": "x", "power_watts": 10, "on_time_s": 0, "off_time_s": 5, "transient": "teleport"}
            ],
        },
        {
            "sampling_rate_hz": 20,
            "duration_s": 60,
            "appliances": [{"label": "x", "on_time_s": 0, "off_time_s": 5}],
        },
        {"duration_s": 60},
    ],
)
def test_malformed_scenario_payloads_are_rejected(payload: object) -> None:
    with pytest.raises(InvalidSpec):
        scenario_from_dict(payload)  # type: ignore[arg-type]


def test_load_scenario_reads_a_json_file(tmp_path: Path) -> None:
    payload = {
        "name": "file-demo",
        "sampling_rate_hz": 20.0,
        "duration_s": 60.0,
        "appliances": [
            {"label": "lamp", "power_watts": 60.0, "on_time_s": 15.0, "off_time_s": 45.0}
        ],
    }
    path = tmp_path / "demo.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert load_scenario(path) == scenario_from_dict(payload)


def test_load_scenario_reports_broken_json_with_the_path(tmp_path: Path) -> None:
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(InvalidSpec, match="broken.json"):
        load_scenario(path)


def test_load_scenario_reads_utf8_with_a_byte_order_mark(tmp_path: Path) -> None:
    payload = {"name": "café", "sampling_rate_hz": 20.0, "duration_s": 60.0, "appliances": []}
    path = tmp_path / "bom.json"
    path.write_text(json.dumps(payload, ensure_ascii=False), encoding="utf-8-sig")
    assert load_scenario(path) == scenario_from_dict(payload)
    path.write_bytes(b'{"name": "caf\xe9"}')
    with pytest.raises(InvalidSpec, match=r"bom\.json: not UTF-8 text"):
        load_scenario(path)


@pytest.mark.parametrize("allocation", ["arange", "zeros"])
def test_a_trace_past_memory_is_an_invalid_spec_naming_its_size(
    allocation: str, monkeypatch: pytest.MonkeyPatch
) -> None:
    """Allocating the trace or its sample times fails as it would for a trace
    past memory; no large array is allocated."""

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(np, allocation, exhausted)
    spec = ScenarioSpec(sampling_rate_hz=20.0, duration_s=10.0)
    with pytest.raises(InvalidSpec, match=r"gives 200 samples, .* need 3200 bytes"):
        generate_scenario(spec)


transition_kinds = st.sampled_from(list(TransientKind))


@st.composite
def random_appliances(draw: st.DrawFn) -> ApplianceSpec:
    kind = draw(transition_kinds)
    on = draw(st.floats(min_value=0.0, max_value=20.0))
    span = draw(st.floats(min_value=5.0, max_value=20.0))
    return ApplianceSpec(
        label=draw(st.sampled_from(["a", "b", "c"])),
        power_watts=draw(st.floats(min_value=20.0, max_value=2000.0)),
        on_time_s=on,
        off_time_s=on + span,
        transient=kind,
        transient_duration_s=0.0 if kind is TransientKind.STEP else 1.5,
        fluctuation_amplitude_watts=draw(st.sampled_from([0.0, 40.0])),
    )


@given(
    st.lists(random_appliances(), min_size=0, max_size=3),
    st.floats(min_value=0.0, max_value=3.0),
    st.integers(min_value=0, max_value=2**31),
)
def test_rendered_scenarios_are_finite_with_a_complete_log(
    appliances: list[ApplianceSpec], noise: float, seed: int
) -> None:
    spec = ScenarioSpec(
        sampling_rate_hz=20.0,
        duration_s=60.0,
        appliances=tuple(appliances),
        noise_std_watts=noise,
        seed=seed,
    )
    series, truth = generate_scenario(spec)
    assert len(series) == 1200
    assert np.isfinite(series.values).all()
    expected_entries = sum(
        2 + (a.transient is TransientKind.MULTI_STAGE) for a in appliances
    )
    assert len(truth) == expected_entries
    stamps = [entry.timestamp_s for entry in truth.entries]
    assert stamps == sorted(stamps)
    assert all(0.0 <= t <= 60.0 for t in stamps)


def test_house_replica_log_coalesces_to_twenty_transitions() -> None:
    _, truth = generate_scenario(replica_spec("house1"))
    assert len(truth) == 24
    merged = coalesce_simultaneous(truth)
    assert [entry.timestamp_s for entry in merged.entries] == [
        69.85, 173.1, 280.2, 329.8, 375.2, 443.1, 547.6, 604.05, 815.15, 879.9,
        907.3, 924.1, 992.3, 997.3, 1089.3, 1139.25, 1209.35, 1232.45, 1266.4, 1315.4,
    ]
    by_time = {entry.timestamp_s: entry.label for entry in merged.entries}
    assert by_time[547.6] == "range_hood_speed3 off+range_hood_speed2 on"
    assert by_time[1266.4] == "hair_dryer_fan off+hair_dryer_heat_high off"
