"""Output checks of the euphrates benchmark, and the simulated-result metrics
read from the same outputs.

Every check is one operation of the run: a failed check counts towards
`failed` like a failed job. Checks read the last job's outputs, which stand
for every job's: a job whose output digests differ from the first job's is
failed before the checks run.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from euphrates.cli import run_simulation
from euphrates.motion import (
    MotionParams,
    decode_metadata,
    encode_metadata,
    encoded_size,
    estimate_motion_field,
    exhaustive_search,
)
from euphrates.pixels import load_sequence
from euphrates.scheduler import ResultTrace
from euphrates.socmodel import SocConfig, summarize

from workloads import MB_SIZE, SEARCH_RANGE, Scene

SAMPLED_MBS = 16


@dataclass
class Outcome:
    checks: list[tuple[str, bool, str]]
    ap50: float
    energy_saving: float
    mv_exact_ratio: float

    @property
    def failed(self) -> list[tuple[str, bool, str]]:
        return [c for c in self.checks if not c[1]]


def _padded(px: np.ndarray, L: int) -> np.ndarray:
    h, w = px.shape
    return np.pad(px, ((0, (-h) % L), (0, (-w) % L)), mode="edge")


def check_codec(path: Path) -> tuple[str, bool, str]:
    data = path.read_bytes()
    field = decode_metadata(data)
    again = encode_metadata(field)
    ok = (again == data and decode_metadata(again) == field
          and len(data) == encoded_size(field.width, field.height, field.params))
    return f"codec {path.name}", ok, f"{len(data)} bytes"


def check_motion_sample(field, prev, cur, rng: np.random.Generator, label: str) -> tuple[str, bool, str]:
    """Sampled MBs of `field` must equal the per-MB exhaustive search on the
    padded frames."""
    p = field.params
    prev_px, cur_px = _padded(prev.pixels, p.mb_size), _padded(cur.pixels, p.mb_size)
    cells = rng.choice(field.rows * field.cols, size=min(SAMPLED_MBS, field.rows * field.cols), replace=False)
    bad = []
    for cell in cells:
        r, c = divmod(int(cell), field.cols)
        mv, s = exhaustive_search(prev_px, cur_px, (c * p.mb_size, r * p.mb_size), p)
        if (mv.u, mv.v) != tuple(int(x) for x in field.vectors[r, c]) or s != int(field.sads[r, c]):
            bad.append((r, c))
    return f"motion {label}", not bad, f"mismatched MBs {bad}" if bad else f"{len(cells)} MBs agree"


def exact_counts(field, scene: Scene, t: int) -> tuple[int, int]:
    """(MBs whose vector equals the known true motion, MBs with known true motion)
    of the field pairing frames t-1 and t.

    Motion is known for a full MB that lies wholly inside one object at frame
    t (its content moved with that object) or that touches no object in
    either frame (static background).
    """
    L = field.params.mb_size
    now = [(p[t][0], p[t][1], p[t][0] + w, p[t][1] + h, p[t][0] - p[t - 1][0], p[t][1] - p[t - 1][1])
           for w, h, p in scene.objects]
    before = [(p[t - 1][0], p[t - 1][1], p[t - 1][0] + w, p[t - 1][1] + h) for w, h, p in scene.objects]
    exact = known = 0
    for r in range(scene.height // L):
        for c in range(scene.width // L):
            x0, y0, x1, y1 = c * L, r * L, c * L + L, r * L + L
            truth = None
            for ox0, oy0, ox1, oy1, u, v in now:
                if ox0 <= x0 and x1 <= ox1 and oy0 <= y0 and y1 <= oy1:
                    truth = (u, v)
            if truth is None and not any(
                x0 < bx1 and bx0 < x1 and y0 < by1 and by0 < y1 for bx0, by0, bx1, by1, *_ in now + before
            ):
                truth = (0, 0)
            if truth is not None:
                known += 1
                exact += tuple(int(x) for x in field.vectors[r, c]) == truth
    return exact, known


def _exact_ratio(fields_by_t, scene: Scene) -> float:
    exact = known = 0
    for t, field in fields_by_t:
        e, k = exact_counts(field, scene, t)
        exact, known = exact + e, known + k
    return exact / known


def check_simulation(sim: Path, label: str) -> tuple[list[tuple[str, bool, str]], float]:
    """Checks of one simulate output dir; returns them and the energy saving."""
    text = (sim / "trace.jsonl").read_text()
    trace = ResultTrace.load(sim / "trace.jsonl")
    checks = [(f"trace round-trip {label}", trace.to_jsonl() == text, f"{len(trace.frames)} frames")]

    iframes = [f for f in trace.frames if f.kind == "I"]
    n = len(trace.frames)
    bad = [f.index for f, nxt in zip(iframes, iframes[1:] + [None])
           if f.ew is None or (nxt.index if nxt is not None else max(n, f.index + f.ew)) != f.index + f.ew]
    checks.append((f"I-frame spacing {label}", not bad, f"spacing differs from echoed ew after frames {bad}"
                   if bad else f"{len(iframes)} I-frames"))

    energy = json.loads((sim / "energy.json").read_text())
    report = summarize(trace, SocConfig.from_dict(energy["config"]["soc"]))
    agree = report.n_iframes == energy["report"]["n_iframes"] == len(iframes)
    checks.append((f"summarize n_iframes {label}", agree,
                   f"trace {len(iframes)}, summarize {report.n_iframes}, energy.json {energy['report']['n_iframes']}"))
    return checks, energy["report"]["saving_vs_baseline"]


def _ap50(eval_dir: Path) -> float:
    summary = json.loads((eval_dir / "summary.json").read_text())
    return dict((float(t), a) for t, a in summary["result"]["ap"])[0.5]


def check_crowd(inputs: Path, out: Path, scene: Scene, seed: int) -> Outcome:
    checks, saving = check_simulation(out / "sim", "sim")
    # The .mvm fields the job decoded: the codec must round-trip them, and
    # their vectors must be those of the per-MB search on the frames.
    frames = load_sequence(inputs / "frames")
    rng = np.random.default_rng([seed, 1])
    fields = []
    for path in sorted((inputs / "mv").glob("*.mvm")):
        t = int(path.stem)
        checks.append(check_codec(path))
        field = decode_metadata(path.read_bytes())
        checks.append(check_motion_sample(field, frames[t - 1], frames[t], rng, path.name))
        fields.append((t, field))
    expected = len(frames) - 1
    checks.append(("field count", len(fields) == expected, f"{len(fields)} of {expected} fields"))
    return Outcome(checks, _ap50(out / "eval"), saving, _exact_ratio(fields, scene))


def check_sweep(inputs: Path, out: Path, scene: Scene, seed: int) -> Outcome:
    sweep = out / "sweep"
    lines = [line for line in (sweep / "sweep.csv").read_text().splitlines() if not line.startswith("#")]
    rows = [{k: float(v) for k, v in row.items()} for row in csv.DictReader(lines)]
    checks = []
    ew1 = [r for r in rows if r["ew"] == 1]
    checks.append(("ew:1 saves nothing", len(ew1) == 1 and ew1[0]["energy_saving"] == 0.0,
                   f"ew:1 rows {ew1}"))
    for row in rows:
        sim_checks, _ = check_simulation(sweep / f"ew_{int(row['ew'])}", f"ew:{int(row['ew'])}")
        checks += sim_checks

    # One seeded variant must equal a standalone simulate of its echoed config.
    ew = int(rows[int(np.random.default_rng([seed, 2]).integers(len(rows)))]["ew"])
    variant = sweep / f"ew_{ew}"
    energy = json.loads((variant / "energy.json").read_text())
    trace, report = run_simulation(energy["config"])
    same = (trace.to_jsonl() == (variant / "trace.jsonl").read_text()
            and json.loads(json.dumps(report.to_dict())) == energy["report"])
    checks.append((f"sweep ew:{ew} equals standalone simulate", same, "trace and energy report"))

    frames = load_sequence(inputs / "frames")
    params = MotionParams(MB_SIZE, SEARCH_RANGE, "es")
    fields = [(t, estimate_motion_field(frames[t - 1], frames[t], params)) for t in range(1, len(frames))]
    ap50 = float(np.mean([r["accuracy_at_0.5"] for r in rows]))
    saving = float(np.mean([r["energy_saving"] for r in rows]))
    return Outcome(checks, ap50, saving, _exact_ratio(fields, scene))


CHECKS = {
    "sim_metadata_crowd": check_crowd,
    "sweep_ew_frames": check_sweep,
}
