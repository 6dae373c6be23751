#!/usr/bin/env python3
"""schwarzlab benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload bounds-ring --seed 1 --seconds 25 --trace 0

Run from the repository root (or anywhere: paths are resolved from this
file).  The package is imported from `src/` of the same checkout; nothing is
installed or built.  With --trace 0 the last line of standard output is a
JSON object with the end-to-end metrics, with --trace 1 the per-module
metrics.  The full report, with its environment stamp, is written to
`.perfbench-out/results/`.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
WORKLOADS = ("bounds-ring", "oracle-fd")
LIMIT_S = 170.0     # the whole run ends within 180 s
END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "op_p90_s": "s",
              "peak_rss_mb": "MB"}


def git_commit() -> str | None:
    """HEAD of the checkout, when it is a git work tree of its own."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel",
                              "HEAD"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def run_worker(args, workdir: Path, *extra: str) -> dict:
    out = workdir / "worker.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir), "--out", str(out),
           *extra]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(
                   p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    # the worker prints nothing of its own; keep our stdout for the result.
    # It runs in a session of its own, so that a timeout also ends the
    # set-up interpreters it starts.
    worker = subprocess.Popen(cmd, env=env, stdout=sys.stderr, cwd=ROOT,
                              start_new_session=True)
    try:
        code = worker.wait(timeout=LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(worker.pid, signal.SIGKILL)
        worker.wait()
        raise
    if code != 0:
        raise subprocess.CalledProcessError(code, cmd)
    return json.loads(out.read_text())


def measure(args) -> dict:
    """One worker interpreter sets up, measures and times further set-ups."""
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        extra = () if args.invert is None else ("--invert", str(args.invert))
        report = run_worker(args, workdir, *extra)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report["environment"].update({
        "git_commit": git_commit(), "seed": args.seed, "traced": bool(args.trace),
        "workload": args.workload, "seconds": args.seconds})
    return report


def result_line(args, report: dict) -> dict:
    if args.trace:
        metrics = report["layers"]
    else:
        metrics = {name: {"value": float(report[name]), "unit": unit}
                   for name, unit in END_TO_END.items()}
    return {"correct": report["failed"] == 0, "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--invert", type=int, default=None,
                        help="invert the expected verdict of this op once (self-test)")
    args = parser.parse_args(argv)

    if not (SRC / "schwarzlab" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC}", file=sys.stderr)
        return 2
    try:
        report = measure(args)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: worker failed: {exc}", file=sys.stderr)
        return 1
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    path = OUT / "results" / (f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    summary = {key: report.get(key) for key in (
        "ops", "cycles", "tail_percentile", "ops_beyond_tail", "check_err_ratio",
        "setup_runs_s", "trace_cycles", "failures")}
    print(f"perfbench: report {path.relative_to(ROOT)}: {json.dumps(summary)}")
    print(json.dumps(result_line(args, report)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
