"""Analytical SoC energy and timing model for the vision pipeline.

The model splits per-frame energy into three components:

* frontend: sensor + ISP, always running at the capture rate, identical for
  every frame kind (the ISP's motion-estimation overhead is folded into its
  power figure);
* DRAM: an idle floor at the capture rate plus a per-byte cost for the
  frame kind's memory traffic (inference traffic is dominated by weight and
  activation spills, extrapolation touches only pixels and motion metadata);
* backend: the inference accelerator active for the duration of an
  inference on I-frames, the extrapolation engine active briefly on E-frames.

Energy is accounted per captured frame over a fixed-length sequence, so
savings are reported against an every-frame-inference baseline of the same
length. All functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import NamedTuple

from .config import ConfigNode, build
from .errors import ConfigError
from .scheduler import E_FRAME, I_FRAME

# Per-inference compute of the modeled networks (giga-operations), derived
# from their per-second demand at a 60 FPS target.
YOLOV2_GOP = 3423 / 60  # 57.05
TINY_YOLO_GOP = 675 / 60  # 11.25
MDNET_GOP = 635 / 60  # 10.58

# E-frames extrapolated in software on the CPU, the task-autonomy what-if.
CPU_EXTRAPOLATE_POWER_MW = 3000.0
CPU_EXTRAPOLATE_TIME_S = 4e-3

# Every SocConfig field lies within this range. Then each product, sum and
# quotient the model forms stays finite and nonzero for every trace a run can
# hold, so no report divides by an underflowed time or holds an infinity or a
# NaN.
FIELD_RANGE = (1e-12, 1e12)


@dataclass(frozen=True)
class SocConfig(ConfigNode):
    """Calibrated component powers, rates, and per-frame traffic volumes.

    Defaults describe a 1080p60 capture pipeline with a 1.152 TOPS
    accelerator running YOLOv2-class detection. `nnx_utilization` and
    `dram_energy_per_byte_pj` are calibration knobs: sustained accelerator
    throughput and the effective DRAM cost per byte are not public, so both
    are fitted to measured frame rates and energy ratios.
    """

    sensor_power_mw: float = 180.0
    isp_power_mw: float = 153.0 * 1.025  # +2.5% motion-estimation overhead
    nnx_power_mw: float = 651.0
    nnx_peak_tops: float = 1.152
    nnx_utilization: float = 0.84
    mc_power_mw: float = 2.2
    dram_idle_power_mw: float = 230.0
    dram_energy_per_byte_pj: float = 80.0
    capture_fps: float = 60.0
    iframe_traffic_bytes: float = 646e6
    eframe_traffic_bytes: float = 22.8e6
    net_ops_gop: float = YOLOV2_GOP
    extrapolate_power_mw: float = 2.2  # the engine that extrapolates E-frames: the MC
    t_extrapolate_s: float = 1e-3

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not FIELD_RANGE[0] <= v <= FIELD_RANGE[1]:
                raise ConfigError(f"{f.name} must be within [{FIELD_RANGE[0]:g}, {FIELD_RANGE[1]:g}], got {v}")
        if not self.nnx_utilization <= 1.0:
            raise ConfigError(f"nnx_utilization must be at most 1, got {self.nnx_utilization}")

    extra_keys = ("preset",)

    @classmethod
    def from_dict(cls, data, path: str = "") -> "SocConfig":
        """Fields over the values of `"preset"` (a PRESETS name) or the defaults."""
        if isinstance(data, dict) and "preset" in data:
            data = dict(data)
            name = data.pop("preset")
            if not isinstance(name, str) or name not in PRESETS:
                where = f"{path}.preset" if path else "preset"
                raise ConfigError(f"{where}: unknown preset {name!r}, expected one of {sorted(PRESETS)}")
            data = {**PRESETS[name].to_dict(), **data}
        return build(cls, data, path)


PRESETS = {
    # Heavy detection network: baseline cannot sustain the capture rate.
    "yolov2": SocConfig(),
    # Traffic estimated by scaling the measured detection traffic with the
    # networks' compute ratio; no measured figure exists for this network.
    "tiny-yolo": SocConfig(net_ops_gop=TINY_YOLO_GOP, iframe_traffic_bytes=646e6 * (675 / 3423)),
    # I-frame traffic calibrated so constant-window savings land on the
    # measured tracking results; the tracking network is far smaller than
    # the detection one and spills correspondingly less.
    "mdnet": SocConfig(net_ops_gop=MDNET_GOP, iframe_traffic_bytes=35e6),
}


class EnergyBreakdown(NamedTuple):
    """Energy of one frame in millijoules, by component."""

    frontend_mj: float
    dram_mj: float
    backend_mj: float


def inference_time(cfg: SocConfig) -> float:
    """Seconds per inference at sustained accelerator throughput."""
    gops = cfg.nnx_peak_tops * 1000.0 * cfg.nnx_utilization
    return cfg.net_ops_gop / gops


def achieved_fps(cfg: SocConfig, ew: int | float) -> float:
    """Steady-state frame rate at extrapolation window `ew`, capture-capped."""
    if ew < 1:
        raise ConfigError(f"ew must be >= 1, got {ew}")
    t = inference_time(cfg) + (ew - 1) * cfg.t_extrapolate_s
    return min(cfg.capture_fps, ew / t)


def frame_energy(kind: str, cfg: SocConfig) -> EnergyBreakdown:
    """Energy of a single frame of the given kind ("I" or "E"), in mJ.

    mW / Hz = mJ; bytes * pJ/B / 1e9 = mJ.
    """
    period = 1.0 / cfg.capture_fps
    frontend = (cfg.sensor_power_mw + cfg.isp_power_mw) * period
    dram_idle = cfg.dram_idle_power_mw * period
    if kind == I_FRAME:
        traffic = cfg.iframe_traffic_bytes
        backend = cfg.nnx_power_mw * inference_time(cfg) + cfg.mc_power_mw * period
    elif kind == E_FRAME:
        traffic = cfg.eframe_traffic_bytes
        backend = cfg.extrapolate_power_mw * cfg.t_extrapolate_s
    else:
        raise ValueError(f"unknown frame kind {kind!r}")
    dram = dram_idle + traffic * cfg.dram_energy_per_byte_pj / 1e9
    return EnergyBreakdown(frontend, dram, backend)


@dataclass(frozen=True)
class EnergyReport:
    """Energy/FPS summary of a simulated run, normalized against EW = 1."""

    n_frames: int
    n_iframes: int
    frontend_mj: float
    dram_mj: float
    backend_mj: float
    total_mj: float
    per_frame_mj: float
    achieved_fps: float
    inference_rate: float
    baseline_total_mj: float
    saving_vs_baseline: float
    ops_per_frame_gop: float
    traffic_per_frame_mb: float

    def csv_rows(self) -> list[tuple[str, float, float]]:
        """(component, energy mJ, percent of total) rows."""
        rows = []
        for name, mj in [("frontend", self.frontend_mj), ("dram", self.dram_mj), ("backend", self.backend_mj)]:
            pct = 100.0 * mj / self.total_mj if self.total_mj > 0 else 0.0
            rows.append((name, mj, pct))
        rows.append(("total", self.total_mj, 100.0))
        return rows

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def to_text(self) -> str:
        lines = [
            f"frames: {self.n_frames} ({self.n_iframes} inference, "
            f"rate {self.inference_rate:.3f})",
            f"achieved fps: {self.achieved_fps:.2f}",
        ]
        for name, mj, pct in self.csv_rows():
            lines.append(f"{name:>9}: {mj:12.3f} mJ ({pct:5.1f}%)")
        lines.append(f"per frame: {self.per_frame_mj:.3f} mJ")
        lines.append(
            f"saving vs every-frame inference: {100.0 * self.saving_vs_baseline:.1f}%"
        )
        return "\n".join(lines)


def summarize(trace, cfg: SocConfig) -> EnergyReport:
    """Aggregate per-frame energies over a result trace (or a kind sequence).

    Savings are normalized against a baseline of the same length running
    inference on every frame.
    """
    kinds = trace.kinds() if hasattr(trace, "kinds") else list(trace)
    n = len(kinds)
    if n == 0:
        raise ValueError("trace is empty")
    n_i = sum(1 for k in kinds if k == I_FRAME)
    n_e = n - n_i

    e_i = frame_energy(I_FRAME, cfg)
    e_e = frame_energy(E_FRAME, cfg)
    frontend = n_i * e_i.frontend_mj + n_e * e_e.frontend_mj
    dram = n_i * e_i.dram_mj + n_e * e_e.dram_mj
    backend = n_i * e_i.backend_mj + n_e * e_e.backend_mj
    total = frontend + dram + backend

    # Same summation form as `total` so an all-inference run saves exactly 0.
    baseline_total = n * e_i.frontend_mj + n * e_i.dram_mj + n * e_i.backend_mj
    if n_i > 0:
        fps = achieved_fps(cfg, n / n_i)
    else:
        fps = min(cfg.capture_fps, 1.0 / cfg.t_extrapolate_s)

    return EnergyReport(
        n_frames=n,
        n_iframes=n_i,
        frontend_mj=frontend,
        dram_mj=dram,
        backend_mj=backend,
        total_mj=total,
        per_frame_mj=total / n,
        achieved_fps=fps,
        inference_rate=n_i / n,
        baseline_total_mj=baseline_total,
        saving_vs_baseline=1.0 - total / baseline_total,
        ops_per_frame_gop=n_i * cfg.net_ops_gop / n,
        traffic_per_frame_mb=(n_i * cfg.iframe_traffic_bytes + n_e * cfg.eframe_traffic_bytes)
        / n
        / 1e6,
    )


def constant_schedule_kinds(n_frames: int, ew: int) -> list[str]:
    """Frame kinds of a constant-EW schedule: inference at multiples of ew."""
    if ew < 1:
        raise ConfigError(f"ew must be >= 1, got {ew}")
    return [I_FRAME if t % ew == 0 else E_FRAME for t in range(n_frames)]
