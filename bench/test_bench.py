"""Tests of the benchmark itself, on tiny inputs.

Run from the repository root: python3 -m pytest bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from tracer import Span, _self_time  # noqa: E402
from workloads import WORKLOADS, prepare  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in DECLARED["workloads"]]


def bench(capsys, monkeypatch, workload: str, seed: int, trace: int) -> tuple[list[str], dict, dict]:
    """Run the benchmark's entry point on tiny inputs; return (stdout lines,
    result line, run details)."""
    monkeypatch.chdir(ROOT)
    rc = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0.01",
                   "--trace", str(trace), "--size", "tiny"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert rc == 0
    details = json.loads(Path(f".bench_work/results/{workload}-tiny-seed{seed}-trace{trace}.json").read_text())
    return lines, json.loads(lines[-1]), details


def test_declared_workloads_are_defined():
    assert {w["name"]: w["why"] for w in DECLARED["workloads"]} == {n: w.why for n, w in WORKLOADS.items()}


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_workload_reports_every_metric_with_its_unit(capsys, monkeypatch, workload):
    lines, result, details = bench(capsys, monkeypatch, workload, 3, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, details["failures"]
    assert result["attempted"] == details["attempted"] >= 4
    for m in DECLARED["end_to_end"]:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert entry["value"] > 0, m["name"]
        assert any(line.startswith(f"{m['name']}: ") and line.endswith(f" {m['unit']}") for line in lines)
    assert set(result["metrics"]) == {m["name"] for m in DECLARED["end_to_end"]}
    assert any(line.startswith("error_rate: 0 ratio") for line in lines)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_run_reports_layers_and_keeps_digests(capsys, monkeypatch, workload):
    _, _, untraced = bench(capsys, monkeypatch, workload, 3, 0)
    lines, result, traced = bench(capsys, monkeypatch, workload, 3, 1)
    assert result["correct"], traced["failures"]
    assert {n: e["unit"] for n, e in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    # Every job of both runs, traced or not, wrote the same outputs.
    digests = [j["digests"] for j in untraced["jobs"] + traced["jobs"]]
    assert digests[0] and all(d == digests[0] for d in digests)
    layers = {n: e["value"] for n, e in result["metrics"].items()}
    if workload == "sim_metadata_crowd":
        assert layers["motion.decode.calls"] == 11
        assert layers["extrapolate.calls"] > 0 and layers["metrics.iou_pairs"] > 0
    else:
        assert layers["cli.sweep.variants"] == 3
        assert layers["pixels.loads_per_unique_frame"] == 3.0
        assert 0 < layers["motion.unique_field_ratio"] < 1
        assert 0 < layers["motion.mb_used_ratio"] < 1
        assert layers["motion.es.gops_per_s"] > 0


def test_seed_changes_inputs_but_not_metric_names(capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    for name in WORKLOAD_NAMES:
        (a, _), (b, _) = prepare(name, "tiny", 3), prepare(name, "tiny", 4)
        assert (a / "frames" / "000001.pgm").read_bytes() != (b / "frames" / "000001.pgm").read_bytes()
        assert (a / "truth.jsonl").read_text() != (b / "truth.jsonl").read_text()
    _, first, _ = bench(capsys, monkeypatch, "sim_metadata_crowd", 3, 0)
    _, second, _ = bench(capsys, monkeypatch, "sim_metadata_crowd", 4, 0)
    assert set(first["metrics"]) == set(second["metrics"])


def test_same_seed_gives_same_inputs(monkeypatch, tmp_path):
    monkeypatch.chdir(ROOT)
    inputs, _ = prepare("sweep_ew_frames", "tiny", 5)
    kept = tmp_path / "kept"
    shutil.copytree(inputs, kept)
    shutil.rmtree(inputs)
    again, _ = prepare("sweep_ew_frames", "tiny", 5)
    for f in sorted(kept.rglob("*")):
        if f.is_file():
            assert (again / f.relative_to(kept)).read_bytes() == f.read_bytes(), f.name


def test_self_time_subtracts_the_union_of_children():
    parent = Span(0, "p", 0.0, 10.0, None, 0)
    children = [Span(1, "c", 1.0, 4.0, 0, 0), Span(2, "c", 3.0, 6.0, 0, 0), Span(3, "c", 8.0, 12.0, 0, 0)]
    assert _self_time(parent, children) == pytest.approx(10.0 - 5.0 - 2.0)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", WORKLOAD_NAMES[0], "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
