"""Job runner of the euphrates benchmark, run in a process of its own so its
peak memory counts the jobs and not the input generator.

Usage: python3 bench/worker.py SPEC.json  (from the repository root)

The spec names the job's commands, the output dir, the files to digest and
the phases to run. A phase runs the job back to back until its time is up,
and at least `min_jobs` times; a traced phase records spans of every layer.
The result (per-job wall times, digests and errors, per-phase spans, and the
process's peak RSS) is written to the spec's `result` path.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

from tracer import Tracer, instrument


def digest_outputs(out: Path, globs: list[str]) -> dict[str, str]:
    """sha256 of every output file matching `globs`, keyed by relative path."""
    files = sorted({p for g in globs for p in out.glob(g)})
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest() for p in files}


def run_job(cli, commands: list[list[str]], tracer: Tracer | None) -> tuple[list[float], str | None]:
    """Run the job's commands in order; return (wall seconds of each command
    run, error or None)."""
    sink = io.StringIO()
    walls: list[float] = []
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for argv in commands:
                if tracer is None:
                    rc = cli.main(argv)
                else:
                    with tracer.span("cli.main", {"command": argv[0]}):
                        rc = cli.main(argv)
                walls.append(time.perf_counter() - start)
                start += walls[-1]
                if rc != 0:
                    return walls, f"{argv[0]} exited {rc}: {sink.getvalue().strip()[-500:]}"
    except SystemExit as e:  # argparse rejects a command line by exiting
        return walls + [time.perf_counter() - start], f"exited {e.code}: {sink.getvalue().strip()[-500:]}"
    except Exception:  # a job that raises counts as failed; the run goes on
        return walls + [time.perf_counter() - start], traceback.format_exc(limit=5)
    return walls, None


def run_phase(cli, spec: dict, phase: dict, first_job: int) -> dict:
    out = Path(spec["out"])
    tracer = None
    if phase["traced"]:
        tracer = Tracer()
        instrument(tracer)
    jobs = []
    start = time.perf_counter()
    try:
        while len(jobs) < phase["min_jobs"] or time.perf_counter() - start < phase["seconds"]:
            shutil.rmtree(out, ignore_errors=True)
            out.mkdir(parents=True)
            job_id = first_job + len(jobs)
            if tracer is not None:
                tracer.job = job_id
                with tracer.span("job"):
                    walls, error = run_job(cli, spec["commands"], tracer)
                tracer.end_job()
            else:
                walls, error = run_job(cli, spec["commands"], None)
            jobs.append({"id": job_id, "wall_s": sum(walls), "command_s": walls, "error": error,
                         "digests": digest_outputs(out, spec["digest_globs"])})
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = {"traced": phase["traced"], "jobs": jobs}
    if tracer is not None:
        result["spans"] = [s.to_dict() for s in tracer.spans]
    return result


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, str(Path("src").resolve()))
    os.environ["EUPHRATES_THREADS"] = str(spec["threads"])
    from euphrates import cli

    phases = []
    for phase in spec["phases"]:
        phases.append(run_phase(cli, spec, phase, sum(len(p["jobs"]) for p in phases)))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(spec["result"]).write_text(json.dumps({"phases": phases, "peak_rss_kb": peak_kb}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
