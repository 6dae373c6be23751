#!/usr/bin/env python3
"""Self-test of the benchmark: a short run of each workload.

    python3 perfbench/selftest.py

For each workload it checks that
  * an untraced run prints every end-to-end metric of BENCHMARK.json with its
    unit, and reports a failed op when one op's expected verdict is inverted;
  * a traced run passes every verdict, prints every per-module metric with
    its unit, and records, for its first traced op, closed spans that nest
    inside their parents' intervals, with self times that sum to the op's
    latency as the closed loop measured it;
and, once, that the benchmark refuses to run (non-zero exit, no result) in
a directory holding only BENCHMARK.json and perfbench/.  Takes about two
minutes on a 2-core machine.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *SPEC["command"][1:], *args], cwd=cwd,
                          capture_output=True, text=True, timeout=200)


def result(workload: str, *args: str) -> dict:
    proc = bench("--workload", workload, "--seed", "11", "--seconds", "0.1", *args)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} {args}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def check_metrics(line: dict, expected: list[dict], where: str) -> None:
    metrics = line["metrics"]
    names = {m["name"] for m in expected}
    assert set(metrics) == names, f"{where}: metrics differ: {set(metrics) ^ names}"
    for m in expected:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], f"{where}: {m['name']} unit {got['unit']}"
        assert math.isfinite(got["value"]), f"{where}: {m['name']} = {got['value']}"


def check_workload(workload: str) -> None:
    line = result(workload, "--trace", "0", "--invert", "0")
    check_metrics(line, SPEC["end_to_end"], f"{workload} untraced")
    assert all(v["value"] > 0 for v in line["metrics"].values()), line
    assert line["failed"] >= 1 and not line["correct"], \
        f"{workload}: an inverted verdict was not counted as failed: {line}"

    line = result(workload, "--trace", "1")
    check_metrics(line, SPEC["per_layer"], f"{workload} traced")
    assert line["correct"] and line["failed"] == 0, line
    report = json.loads((ROOT / ".perfbench-out" / "results"
                         / f"{workload}-seed11-trace1.json").read_text())
    depth = check_spans(report["first_traced_op"], workload)
    print(f"selftest: {workload} ok ({len(report['first_traced_op']['spans'])} spans "
          f"in one op, depth {depth})")


def check_spans(op: dict, where: str) -> int:
    """Spans are closed and lie inside their parents; self times add up."""
    spans = op["spans"]
    roots = [s for s in spans if s["parent"] < 0]
    assert len(roots) == 1 and roots[0]["name"] == "op", f"{where}: roots {roots}"
    depth = {}
    for i, span in enumerate(spans):
        assert span["end"] > span["start"], f"{where}: span not closed: {span}"
        if span["parent"] >= 0:
            assert span["parent"] < i, f"{where}: parent after child: {span}"
            parent = spans[span["parent"]]
            assert parent["start"] <= span["start"] and span["end"] <= parent["end"], \
                f"{where}: {span['name']} outside {parent['name']}"
        depth[i] = depth.get(span["parent"], -1) + 1
    assert max(depth.values()) >= 2, f"{where}: spans do not nest"
    total = sum(span["self_s"] for span in spans)
    latency = op["latency_s"]
    assert abs(total - latency) <= 0.02 * latency + 1e-3, \
        f"{where}: self times sum to {total:.6f} s, the op took {latency:.6f} s"
    return max(depth.values())


def check_bare_directory() -> None:
    """Without the package sources the benchmark must fail and print no result."""
    scratch = ROOT / ".perfbench-out"
    scratch.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=scratch))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                     "--seconds", "1", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc
    print("selftest: bare directory refused ok")


def main() -> int:
    check_bare_directory()
    for workload in SPEC["workloads"]:
        check_workload(workload["name"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
