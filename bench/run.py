"""Benchmark of the euphrates simulator.

Usage (from the repository root):

  python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 -m pytest bench           # the benchmark's own tests (tiny inputs)

Workloads, metrics, units, directions and regression bounds are declared in
BENCHMARK.json; each workload's reason is next to its definition in
bench/workloads.py. The run generates the workload's inputs from the seed
(untimed, cached per seed), measures set-up time in fresh interpreters, runs
the job back to back in a worker process for S seconds, checks the outputs,
and prints every metric by name and unit. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics. --trace 1 first runs the job
untraced for S/2 seconds, then traced for S/2 seconds, and reports the
per-layer metrics derived from the traced spans plus the tracing overhead.
Per-run details (job times, output digests, failed checks) and the spans go
to .bench_work/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# Set-up launches run half before and half after the jobs, so their median
# spans the run rather than one stretch of the host's varying speed.
SETUP_LAUNCHES = 9
WORKER_TIMEOUT_S = 150
# EUPHRATES_THREADS for the jobs. On a 2-vCPU VM two busy threads slow each
# other, and a sweep on two threads waits for the slower one: its rate
# spread 0.18 (quartile distance over median) across five seeds, against
# 0.11 on one thread.
THREADS = 1
# Set-up as a user pays it: a fresh interpreter imports the CLI and builds
# the run config of the job's first command.
SETUP_SNIPPET = """
import json, sys
sys.path.insert(0, "src")
from euphrates import cli
args = cli.build_parser().parse_args(json.loads(sys.argv[1]))
if getattr(args, "config", None):
    cli.build_run_config(args.config, args)
"""


def measure_setup(argv: list[str], launches: int) -> list[float]:
    """Wall seconds of each of `launches` fresh set-ups."""
    times = []
    for _ in range(launches):
        start = time.perf_counter()
        # No timeout: with one, subprocess polls for the exit in steps of up to
        # 50 ms, which would quantize the measurement.
        subprocess.run([sys.executable, "-c", SETUP_SNIPPET, json.dumps(argv)], check=True)
        times.append(time.perf_counter() - start)
    return times


def run_worker(spec: dict, spec_path: Path) -> dict:
    spec_path.write_text(json.dumps(spec, indent=2))
    subprocess.run([sys.executable, str(ROOT / "bench" / "worker.py"), str(spec_path)],
                   check=True, timeout=WORKER_TIMEOUT_S)
    return json.loads(Path(spec["result"]).read_text())


def fps(jobs: list[dict], frames_per_job: int) -> float:
    """Input frames completed per second of job wall time, where a job's
    time is the sum over its commands of that command's least wall time in
    the run.

    On a shared VM, other tenants slow the host by 1.3x to 2x for stretches
    of seconds to tens of seconds, which the guest cannot see (CPU time
    grows with wall time). The median job of a run then flips between the
    fast and the slow mode from run to run; the least time is the steadiest
    estimate of the program's own speed. Taking it per command lets a job's
    commands be timed in different fast stretches.
    """
    n = max(len(j["command_s"]) for j in jobs)  # jobs that failed early ran fewer
    per_command = zip(*(j["command_s"] for j in jobs if len(j["command_s"]) == n))
    return frames_per_job / sum(min(walls) for walls in per_command)


def run_benchmark(name: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """Run one workload; return the result line's fields plus run details."""
    # These import euphrates, which needs the source tree main() checks for.
    from checks import CHECKS
    from tracer import Span, layer_metrics
    from workloads import WORK_DIR, WORKLOADS, prepare, work_paths

    wl = WORKLOADS[name]
    _, out = work_paths(name, size, seed)
    inputs, scene = prepare(name, size, seed)
    commands = wl.commands(inputs, out, size)
    frames_per_job = wl.frames_per_job(scene, size)

    key = f"{name}-{size}-seed{seed}-trace{int(trace)}"
    results = WORK_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    if trace:
        phases = [{"traced": False, "seconds": seconds / 2, "min_jobs": 2},
                  {"traced": True, "seconds": seconds / 2, "min_jobs": 2}]
    else:
        phases = [{"traced": False, "seconds": seconds, "min_jobs": 3}]
    spec = {"commands": commands, "out": str(out), "digest_globs": list(wl.digest_globs),
            "threads": THREADS, "phases": phases,
            "result": str(results / f"{key}-worker.json")}
    launches_before = 0 if trace else (SETUP_LAUNCHES + 1) // 2
    setup_times = measure_setup(commands[0], launches_before)
    worker = run_worker(spec, results / f"{key}-spec.json")
    if not trace:
        setup_times += measure_setup(commands[0], SETUP_LAUNCHES - launches_before)

    # Every job must reproduce the first job's outputs, traced or not.
    jobs = [j for p in worker["phases"] for j in p["jobs"]]
    reference = jobs[0]["digests"]
    for j in jobs:
        if j["error"] is None and j["digests"] != reference:
            j["error"] = "output digests differ from the first job's"
    failures = [f"job {j['id']}: {j['error']}" for j in jobs if j["error"]]

    outcome = CHECKS[name](inputs, out, scene, seed)
    failures += [f"check {c[0]}: {c[2]}" for c in outcome.failed]
    attempted = len(jobs) + len(outcome.checks)

    untraced = worker["phases"][0]["jobs"]
    if trace:
        traced = worker["phases"][1]
        spans = [Span(**s) for s in traced["spans"]]
        with open(results / f"{key}-spans.jsonl", "w") as fh:
            for s in traced["spans"]:
                fh.write(json.dumps(s) + "\n")
        metrics = layer_metrics(spans, len(traced["jobs"]))
        metrics["trace.overhead_ratio"] = fps(untraced, frames_per_job) / fps(traced["jobs"], frames_per_job) - 1
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "frames_per_s": fps(untraced, frames_per_job),
            "peak_rss_mb": worker["peak_rss_kb"] / 1024,
            "ap50": outcome.ap50,
            "energy_saving": outcome.energy_saving,
            "mv_exact_ratio": outcome.mv_exact_ratio,
        }
    details = {
        "workload": name, "seed": seed, "size": size, "trace": int(trace),
        "attempted": attempted, "failed": len(failures), "failures": failures,
        "error_rate": len(failures) / attempted, "frames_per_job": frames_per_job,
        "jobs": jobs, "metrics": metrics,
        "median_job_frames_per_s": frames_per_job / statistics.median(j["wall_s"] for j in untraced),
    }
    (results / f"{key}.json").write_text(json.dumps(details, indent=2) + "\n")
    return details


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size; tiny inputs are for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "euphrates" / "cli.py").is_file():
        print(f"error: {ROOT} holds no euphrates source tree (src/euphrates)", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in declared["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)

    details = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(details["metrics"]):
        print(f"error: metrics {sorted(set(details['metrics']) ^ set(units))} disagree with BENCHMARK.json",
              file=sys.stderr)
        return 2
    for name, value in details["metrics"].items():
        print(f"{name}: {value:.6g} {units[name]}")
    print(f"error_rate: {details['error_rate']:.6g} ratio "
          f"({details['failed']} failed of {details['attempted']} jobs and checks)")
    for failure in details["failures"]:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": details["failed"] == 0,
        "attempted": details["attempted"],
        "failed": details["failed"],
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in details["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
