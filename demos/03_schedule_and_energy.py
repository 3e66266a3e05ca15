"""
Scheduling and the SoC energy model
===================================

Sweep the extrapolation window and read off inference rate, frame rate, and
where the energy goes. Larger windows replace more inference frames with
cheap extrapolation until the always-on frontend dominates.
"""

from euphrates.motion import uniform_field
from euphrates.roi import Roi
from euphrates.scheduler import PipelineConfig, StoredMotion, TraceProvider, run_pipeline
from euphrates.socmodel import (
    CPU_EXTRAPOLATE_POWER_MW,
    CPU_EXTRAPOLATE_TIME_S,
    PRESETS,
    SocConfig,
    constant_schedule_kinds,
    frame_energy,
    inference_time,
    summarize,
)

det = PRESETS["yolov2"]
trk = PRESETS["mdnet"]

print(f"detection inference: {inference_time(det) * 1000:.1f} ms per frame")
print(f"tracking inference : {inference_time(trk) * 1000:.1f} ms per frame\n")

# Constant windows, heavy detection network. The baseline (EW=1) cannot
# sustain the 60 FPS capture rate; EW=4 reaches it and cuts energy by 2/3.
print("detection (heavy network):")
print("  EW  inf.rate    fps   mJ/frame   saving")
for ew in (1, 2, 4, 8, 16, 32):
    rep = summarize(constant_schedule_kinds(960, ew), det)
    print(
        f"  {ew:2d}   {rep.inference_rate:7.3f}  {rep.achieved_fps:5.1f}   "
        f"{rep.per_frame_mj:8.2f}   {rep.saving_vs_baseline:6.1%}"
    )

print("\ntracking (light network, 60 FPS already at EW=1):")
print("  EW  inf.rate    fps   mJ/frame   saving")
for ew in (1, 2, 4, 32):
    rep = summarize(constant_schedule_kinds(960, ew), trk)
    print(
        f"  {ew:2d}   {rep.inference_rate:7.3f}  {rep.achieved_fps:5.1f}   "
        f"{rep.per_frame_mj:8.2f}   {rep.saving_vs_baseline:6.1%}"
    )

# Per-frame energy split: inference frames pay for the accelerator and its
# memory traffic; extrapolation frames pay almost nothing beyond the
# always-on sensor+ISP frontend and DRAM floor.
ei = frame_energy("I", det)
ee = frame_energy("E", det)
print(f"\nI-frame: frontend {ei.frontend_mj:.1f}, dram {ei.dram_mj:.1f}, backend {ei.backend_mj:.1f} mJ")
print(f"E-frame: frontend {ee.frontend_mj:.1f}, dram {ee.dram_mj:.1f}, backend {ee.backend_mj:.3f} mJ")

# Running extrapolation on the CPU instead of a dedicated controller burns
# most of the benefit: an EW-8 software run costs about as much as EW-4 in
# hardware (task autonomy matters).
cpu_cfg = SocConfig(extrapolate_power_mw=CPU_EXTRAPOLATE_POWER_MW, t_extrapolate_s=CPU_EXTRAPOLATE_TIME_S)
cpu = summarize(constant_schedule_kinds(960, 8), cpu_cfg)
hw4 = summarize(constant_schedule_kinds(960, 4), det)
print(f"\nEW-8 with CPU extrapolation: {cpu.per_frame_mj:.1f} mJ/frame vs EW-4 hardware {hw4.per_frame_mj:.1f}")

# Adaptive mode grows the window while extrapolation keeps agreeing with
# inference, one step per clean comparison streak, capped at 32.
fields = [uniform_field(64, 64)] * 599
provider = TraceProvider({i: [Roi(10, 10, 30, 20)] for i in range(600)})
trace = run_pipeline(provider, PipelineConfig(mode="adaptive"), StoredMotion(fields))
ews = [f.ew for f in trace.frames if f.kind == "I"]
print(f"\nadaptive EW trajectory (static scene): {ews[:8]} ... -> {ews[-1]}")
rep = summarize(trace, trk)
print(f"adaptive run: inference rate {rep.inference_rate:.3f}, saving {rep.saving_vs_baseline:.1%}")
