"""Analytical SoC energy/timing model."""

import math
from dataclasses import asdict, astuple, fields, replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from euphrates.errors import ConfigError
from euphrates.motion import uniform_field
from euphrates.roi import Roi
from euphrates.scheduler import PipelineConfig, StoredMotion, TraceProvider, run_pipeline
from euphrates.socmodel import (
    CPU_EXTRAPOLATE_POWER_MW,
    CPU_EXTRAPOLATE_TIME_S,
    FIELD_RANGE,
    MDNET_GOP,
    PRESETS,
    SocConfig,
    YOLOV2_GOP,
    achieved_fps,
    constant_schedule_kinds,
    frame_energy,
    inference_time,
    summarize,
)

from test_config import PROPERTY


def test_inference_time_yolov2():
    cfg = PRESETS["yolov2"]
    t = inference_time(cfg)
    assert t == pytest.approx(0.0590, abs=2e-4)  # ~58.9 ms
    assert achieved_fps(cfg, 1) == pytest.approx(17.0, abs=1.0)


def test_inference_time_raw_peak():
    cfg = SocConfig(nnx_utilization=1.0)
    assert inference_time(cfg) * 1000 == pytest.approx(49.5, abs=0.1)


def test_inference_time_mdnet_sustains_capture_rate():
    cfg = PRESETS["mdnet"]
    t = inference_time(cfg)
    assert t * 1000 == pytest.approx(10.9, abs=0.1)
    assert t < 1.0 / cfg.capture_fps
    assert achieved_fps(cfg, 1) == 60.0


def test_achieved_fps_detection_ladder():
    cfg = PRESETS["yolov2"]
    assert achieved_fps(cfg, 1) == pytest.approx(17.0, abs=1.0)
    assert achieved_fps(cfg, 2) == pytest.approx(35.0, abs=2.0)
    assert achieved_fps(cfg, 4) == 60.0  # frontend-capped


def test_achieved_fps_monotone_and_capped():
    cfg = PRESETS["yolov2"]
    prev = 0.0
    for ew in range(1, 64):
        fps = achieved_fps(cfg, ew)
        assert fps >= prev
        assert fps <= cfg.capture_fps
        prev = fps
    with pytest.raises(ConfigError):
        achieved_fps(cfg, 0)


def test_frame_energy_frontend_identical_for_kinds():
    cfg = PRESETS["yolov2"]
    ei = frame_energy("I", cfg)
    ee = frame_energy("E", cfg)
    assert ei.frontend_mj == ee.frontend_mj == pytest.approx(5.61, abs=0.01)


def test_frame_energy_eframe_traffic():
    cfg = PRESETS["yolov2"]
    ee = frame_energy("E", cfg)
    idle = cfg.dram_idle_power_mw / cfg.capture_fps
    assert ee.dram_mj - idle == pytest.approx(1.824, abs=1e-9)  # 22.8 MB * 80 pJ/B


def test_frame_energy_degenerate_frame():
    cfg = SocConfig(iframe_traffic_bytes=1e-9, net_ops_gop=1e-12, mc_power_mw=1e-9)
    e = frame_energy("I", cfg)
    idle = cfg.dram_idle_power_mw / cfg.capture_fps
    assert e.frontend_mj + e.dram_mj + e.backend_mj == pytest.approx(e.frontend_mj + idle, abs=1e-6)


def test_frame_energy_unknown_kind():
    with pytest.raises(ValueError):
        frame_energy("X", PRESETS["yolov2"])


def test_constant_schedule_needs_an_ew_of_at_least_1():
    assert constant_schedule_kinds(3, 1) == ["I", "I", "I"]
    with pytest.raises(ConfigError, match="ew must be >= 1, got 0"):
        constant_schedule_kinds(3, 0)


def test_detection_savings_match_measured_ratios():
    cfg = PRESETS["yolov2"]
    r2 = summarize(constant_schedule_kinds(1000, 2), cfg)
    r4 = summarize(constant_schedule_kinds(1000, 4), cfg)
    assert r2.saving_vs_baseline == pytest.approx(0.45, abs=0.05)
    assert r4.saving_vs_baseline == pytest.approx(0.66, abs=0.05)


def test_tracking_savings_match_measured_ratios():
    cfg = PRESETS["mdnet"]
    r2 = summarize(constant_schedule_kinds(1000, 2), cfg)
    r4 = summarize(constant_schedule_kinds(1000, 4), cfg)
    r32 = summarize(constant_schedule_kinds(3200, 32), cfg)
    assert r2.saving_vs_baseline == pytest.approx(0.21, abs=0.05)
    assert r4.saving_vs_baseline == pytest.approx(0.31, abs=0.05)
    assert r32.saving_vs_baseline == pytest.approx(0.42, abs=0.05)
    assert r2.achieved_fps == r4.achieved_fps == 60.0


def test_saving_is_exactly_zero_at_ew1():
    for cfg in (PRESETS["yolov2"], PRESETS["mdnet"], PRESETS["tiny-yolo"]):
        rep = summarize(constant_schedule_kinds(500, 1), cfg)
        assert rep.saving_vs_baseline == 0.0
        assert rep.inference_rate == 1.0


def test_energy_monotone_non_increasing_in_ew():
    for cfg in (PRESETS["yolov2"], PRESETS["mdnet"]):
        totals = []
        for ew in range(1, 33):
            rep = summarize(constant_schedule_kinds(960, ew), cfg)
            totals.append(rep.total_mj)
        assert all(a >= b for a, b in zip(totals, totals[1:]))


def test_per_frame_energy_approaches_frontend_floor():
    cfg = PRESETS["yolov2"]
    rep = summarize(["I"] + ["E"] * 99_999, cfg)
    ee = frame_energy("E", cfg)
    assert rep.per_frame_mj == pytest.approx(ee.frontend_mj + ee.dram_mj + ee.backend_mj, rel=1e-2)
    # frontend + memory dominate the long-window limit
    assert rep.frontend_mj + rep.dram_mj > 0.9 * rep.total_mj


def test_components_sum_to_total_and_nonnegative():
    cfg = PRESETS["mdnet"]
    rep = summarize(constant_schedule_kinds(777, 5), cfg)
    assert rep.total_mj == rep.frontend_mj + rep.dram_mj + rep.backend_mj
    assert min(rep.frontend_mj, rep.dram_mj, rep.backend_mj) >= 0.0


def test_inference_rate_exact():
    rep = summarize(constant_schedule_kinds(960, 4), PRESETS["yolov2"])
    assert rep.inference_rate == 0.25
    assert rep.n_iframes == 240


def test_summarize_accepts_result_trace():
    fields = [uniform_field(64, 64)] * 9
    provider = TraceProvider({i: [Roi(5, 5, 10, 10)] for i in range(10)})
    trace = run_pipeline(provider, PipelineConfig(mode="ew:5"), StoredMotion(fields))
    rep = summarize(trace, PRESETS["yolov2"])
    assert rep.n_frames == 10 and rep.n_iframes == 2


def test_summarize_empty_trace():
    with pytest.raises(ValueError):
        summarize([], PRESETS["yolov2"])


def test_csv_rows_structure():
    rep = summarize(constant_schedule_kinds(100, 2), PRESETS["yolov2"])
    rows = rep.csv_rows()
    assert [r[0] for r in rows] == ["frontend", "dram", "backend", "total"]
    assert sum(r[1] for r in rows[:3]) == pytest.approx(rows[3][1])
    assert sum(r[2] for r in rows[:3]) == pytest.approx(100.0)


CPU_CONFIG = SocConfig(extrapolate_power_mw=CPU_EXTRAPOLATE_POWER_MW, t_extrapolate_s=CPU_EXTRAPOLATE_TIME_S)


def test_software_extrapolation_negates_most_savings():
    """Software extrapolation burns CPU power per E-frame: an EW-8 run lands
    near the dedicated-hardware EW-4 energy, the task-autonomy argument."""
    mc = summarize(constant_schedule_kinds(960, 4), PRESETS["yolov2"])
    cpu = summarize(constant_schedule_kinds(960, 8), CPU_CONFIG)
    assert cpu.total_mj == pytest.approx(mc.total_mj, rel=0.15)
    hw8 = summarize(constant_schedule_kinds(960, 8), PRESETS["yolov2"])
    assert cpu.total_mj > 1.4 * hw8.total_mj


@pytest.mark.parametrize(
    "cfg, report, fps_ew2, fps_all_e",
    [
        (
            PRESETS["yolov2"],
            (960, 120, 5389.199999999999, 11413.760000000002, 4611.846958333334, 21414.806958333334,
             22.307090581597222, 60.0, 0.125, 95561.99166666667, 0.7759066488167061, 7.13125, 100.7),
            33.358107390712625,
            1000.0,
        ),
        (
            PRESETS["mdnet"],
            (960, 120, 5389.199999999999, 5548.160000000001, 860.6316805555557, 11797.991680555557,
             12.289574667245372, 60.0, 0.125, 18627.469444444447, 0.3666347586427392, 1.3229166666666667, 24.325),
            60.0,
            1000.0,
        ),
        (
            CPU_CONFIG,
            (960, 120, 5389.199999999999, 11413.760000000002, 14689.998958333334, 31492.958958333333,
             32.80516558159722, 60.0, 0.125, 95561.99166666667, 0.6704447196100193, 7.13125, 100.7),
            31.76850175112835,
            250.0,
        ),
    ],
    ids=["yolov2", "mdnet", "cpu"],
)
def test_model_numbers_are_pinned_bit_for_bit(cfg, report, fps_ew2, fps_all_e):
    """Exact floats of an EW-8 report, the EW-2 frame rate and an all-E run's
    frame rate at a 10 kHz capture, as the model has always computed them."""
    assert astuple(summarize(constant_schedule_kinds(960, 8), cfg)) == report
    assert achieved_fps(cfg, 2) == fps_ew2
    assert summarize("EEE", replace(cfg, capture_fps=1e4)).achieved_fps == fps_all_e


def test_config_presets_and_overrides():
    assert PRESETS["yolov2"].net_ops_gop == pytest.approx(YOLOV2_GOP)
    assert PRESETS["mdnet"].net_ops_gop == pytest.approx(MDNET_GOP)
    cfg = SocConfig.from_dict({"preset": "mdnet", "capture_fps": 30.0})
    assert cfg.capture_fps == 30.0
    assert cfg.net_ops_gop == pytest.approx(MDNET_GOP)


def test_config_validation():
    with pytest.raises(ConfigError):
        SocConfig(nnx_utilization=0.0)
    with pytest.raises(ConfigError):
        SocConfig(nnx_utilization=1.5)
    with pytest.raises(ConfigError):
        SocConfig(sensor_power_mw=-1.0)
    with pytest.raises(ConfigError):
        SocConfig.from_dict({"warp_drive_power": 1.21})


NUMERIC_FIELDS = [f.name for f in fields(SocConfig)]


@PROPERTY
@given(
    st.fixed_dictionaries({name: st.sampled_from(FIELD_RANGE) for name in NUMERIC_FIELDS}),
    st.lists(st.sampled_from("IE"), min_size=1, max_size=50),
)
def test_field_range_keeps_every_report_value_finite(values, kinds):
    values["nnx_utilization"] = min(values["nnx_utilization"], 1.0)
    report = summarize(kinds, SocConfig(**values))
    assert all(math.isfinite(v) for v in astuple(report))
    assert report.baseline_total_mj > 0 and report.achieved_fps > 0


def test_field_range_bounds_every_numeric_field():
    lo, hi = FIELD_RANGE
    for name in NUMERIC_FIELDS:
        for bad in (lo / 10, hi * 10, 5e-324, 1e308):
            with pytest.raises(ConfigError, match=f"{name} must be within"):
                SocConfig(**{name: bad})


def test_config_file_round_trip(tmp_path):
    import json

    cfg = PRESETS["mdnet"]
    p = tmp_path / "soc.json"
    p.write_text(json.dumps(cfg.to_dict()))
    again = SocConfig.from_dict(json.loads(p.read_text()))
    assert again == cfg


def test_report_dict_equals_asdict():
    report = summarize(constant_schedule_kinds(10, 3), PRESETS["mdnet"])
    assert repr(report.to_dict()) == repr(asdict(report))
