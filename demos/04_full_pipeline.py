"""
End-to-end experiment
=====================

Generate a synthetic sequence, run the extrapolating pipeline against its
ground truth, and score accuracy and energy, exactly as the command line
does it. Equivalent shell session:

    euphrates synth    --out work/frames --canvas 160x120 --object 48x32 \
                       --frames 40 --velocity 2,1 --start 10,20 --seed 11
    euphrates estimate --frames work/frames --out work/mv
    euphrates simulate --config run.json --mode ew:4 --out work/sim
    euphrates evaluate --trace work/sim/trace.jsonl \
                       --truth work/frames/truth.jsonl --out work/eval
    euphrates sweep    --config run.json --axis ew --values 1,2,4,8 \
                       --out work/sweep
"""

import json
import sys
import tempfile
from pathlib import Path

from euphrates.cli import main


def step(argv: list[str]) -> None:
    """Run one CLI step; a failing step ends the demo with its exit status."""
    status = main(argv)
    if status:
        sys.exit(status)


work = Path(tempfile.mkdtemp(prefix="euphrates-demo-"))
print(f"working in {work}\n")

# 1. A 40-frame sequence with exact ground truth.
step(["synth", "--out", str(work / "frames"), "--canvas", "160x120",
      "--object", "48x32", "--frames", "40", "--velocity", "2,1",
      "--start", "10,20", "--seed", "11"])

# 2. Motion metadata for every consecutive frame pair, as an ISP would
#    deposit it into the frame buffer.
step(["estimate", "--frames", str(work / "frames"), "--out", str(work / "mv")])

# 3. Simulate: inference only on every 4th frame, extrapolation between.
#    The ground-truth trace doubles as a perfect inference provider.
run_cfg = {
    "metadata_dir": str(work / "mv"),
    "detections": str(work / "frames" / "truth.jsonl"),
    "mode": "ew:4",
    "soc": {"preset": "yolov2"},
}
(work / "run.json").write_text(json.dumps(run_cfg, indent=2))
step(["simulate", "--config", str(work / "run.json"), "--out", str(work / "sim")])

# 4. Score the result trace against the ground truth.
print()
step(["evaluate", "--trace", str(work / "sim" / "trace.jsonl"),
      "--truth", str(work / "frames" / "truth.jsonl"), "--out", str(work / "eval")])

# 5. The accuracy/energy trade-off across window sizes, one CSV.
print()
step(["sweep", "--config", str(work / "run.json"), "--axis", "ew",
      "--values", "1,2,4,8", "--out", str(work / "sweep")])

print(f"\nartifacts under {work}")
for p in sorted(work.rglob("*.csv")):
    print(f"  {p.relative_to(work)}")
