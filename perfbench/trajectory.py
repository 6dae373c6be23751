#!/usr/bin/env python3
"""Record one entry of the benchmark trajectory.

    python3 perfbench/trajectory.py --label seed

Runs `run.py` untraced once per seed (seeds 1..10) on each workload, then once
traced, and writes perfbench/BENCH_<label>.json: per end-to-end metric the
ten values, their median, quartiles and spread (interquartile range over the
median, as `statistics.quantiles(values, n=4)` gives the quartiles), the
per-module metrics and tracing overhead of the traced run, and the
environment stamp.  A performance change commits one entry from its parent
and one from itself, measured with the same benchmark code and settings.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDS = range(1, 11)


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, check=True, cwd=ROOT)
    line = json.loads(proc.stdout.splitlines()[-1])
    report = json.loads((ROOT / ".perfbench-out" / "results"
                         / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return line, report


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--label", required=True)
    args = parser.parse_args()

    entry = {"label": args.label, "run_seconds": SPEC["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in SPEC["workloads"]):
        values: dict[str, list[float]] = {m["name"]: [] for m in SPEC["end_to_end"]}
        runs = []
        for seed in SEEDS:
            line, report = run(workload, seed, 0)
            for name in values:
                values[name].append(line["metrics"][name]["value"])
            runs.append({key: report[key] for key in (
                "attempted", "failed", "ops", "cycles", "tail_percentile",
                "ops_beyond_tail", "check_err_ratio", "setup_runs_s")})
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)
        line, report = run(workload, 1, 1)
        entry["environment"] = {k: v for k, v in report["environment"].items()
                                if k not in ("seed", "traced", "workload")}
        entry["workloads"][workload] = {
            "end_to_end": {name: summarize(v) for name, v in values.items()},
            "failed_frac": sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs),
            "runs": runs,
            "traced": {"seed": 1, "correct": line["correct"],
                       "per_layer": {k: v["value"] for k, v in line["metrics"].items()},
                       "traced_ops": report["ops"],
                       "trace_cycles": report["trace_cycles"]},
        }
        for name, s in entry["workloads"][workload]["end_to_end"].items():
            print(f"{workload} {name}: median {s['median']:.4g} spread {s['spread']:.3f}")
    path = HERE / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(entry, indent=1) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
