"""One run of one workload, in a fresh interpreter.

Started by run.py with the package's `src` directory on PYTHONPATH, so the
package's `lru_cache`s never carry over between runs.  Writes one JSON
document to the path given by --out.  An untraced run also times the set-up
of SETUPS - 1 child interpreters started with --setup-only between its
cycles.
"""

import time

STARTED = time.perf_counter()   # set-up time includes the imports below

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import schwarzlab  # noqa: E402

from layers import per_layer  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUPS = 7          # set-ups per measured run; the median is reported


def _blas_threads():
    """OpenBLAS thread count as the loaded library reports it (read only)."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "openblas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


class Run:
    """Closed loop, one client: each op starts when the previous one returned."""

    def __init__(self, workload, invert=None, tracer=None):
        self.workload = workload
        self.invert = invert        # index of the op whose verdict is inverted once
        self.tracer = tracer        # records spans only while installed
        self.latencies: list[float] = []
        self.labels: list[str] = []
        self.cycles: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.err_ratio = 0.0
        self.failures: list[str] = []
        self.first_traced = None    # (op number, latency) of the first traced op

    def do(self, op, index=None) -> float:
        """Run one op, check its verdict, return its latency."""
        self.attempted += 1
        span = contextlib.nullcontext()
        traced = self.tracer is not None and self.tracer.installed and index is not None
        if self.tracer is not None and self.tracer.installed:
            self.tracer.op = -1 if index is None else self.attempted
            span = self.tracer.span("op")
        started = time.perf_counter()
        error = None
        try:
            with span:
                result = op.call()
        except Exception as exc:  # an unexpected error fails the op; the run goes on
            error = exc
        latency = time.perf_counter() - started
        if traced and self.first_traced is None:
            self.first_traced = (self.attempted, latency)
        if error is not None:
            self._fail(op, f"{type(error).__name__}: {error}")
            return latency
        try:
            ok, ratio = op.check(result)
        except Exception as exc:
            self._fail(op, f"verdict check raised {type(exc).__name__}: {exc}")
            return latency
        self.err_ratio = max(self.err_ratio, ratio)
        if self.invert is not None and index == self.invert:
            ok, self.invert = not ok, None
        if not ok:
            self._fail(op, f"verdict check failed (discrepancy/tolerance {ratio:.3g})")
        return latency

    def _fail(self, op, reason: str) -> None:
        self.failed += 1
        self.failures.append(f"{op.label}: {reason}")

    def one_cycle(self, k: int) -> float:
        ops = self.workload.cycle(k)
        started = time.perf_counter()
        for index, op in enumerate(ops):
            self.latencies.append(self.do(op, index))
            self.labels.append(op.label)
        elapsed = time.perf_counter() - started
        self.cycles.append(elapsed)
        return elapsed

    def measure(self, seconds: float, between=None) -> None:
        """The fixed list, then further cycles while the budget lasts.

        The budget counts time spent in cycles only; a cycle starts only if
        it should end within it.  `between(measured)` runs after each cycle,
        outside the budget.
        """
        measured, k = 0.0, 1
        while True:
            last = self.one_cycle(k)
            measured += last
            if between is not None:
                between(measured)
            if k >= self.workload.list_cycles and measured + last > seconds:
                return
            k += 1


def end_to_end(run: Run) -> dict:
    latencies, q = run.latencies, run.workload.tail_percentile
    tail = float(np.percentile(latencies, 100.0 * q))
    return {
        "wall_s": float(np.median(run.cycles)),
        "op_p50_s": float(np.percentile(latencies, 50.0)),
        "op_p90_s": tail,
        "check_err_ratio": run.err_ratio,
        "ops": len(latencies),
        "cycles": len(run.cycles),
        "tail_percentile": q,
        "ops_beyond_tail": int(np.sum(np.asarray(latencies) > tail)),
    }


class SetupSamples:
    """Set-ups in fresh child interpreters, spread over the measured time.

    The machine's speed drifts over a run; set-ups taken in one burst see one
    moment of it, set-ups spread over the run see the whole run, as the
    medians of the measured cycles do.
    """

    def __init__(self, args, seconds: float):
        self.args = args
        self.marks = [seconds * j / SETUPS for j in range(1, SETUPS)]
        self.values: list[float] = []

    def __call__(self, measured: float) -> None:
        while self.marks and measured >= self.marks[0]:
            self.marks.pop(0)
            self.values.append(self._one())

    def finish(self) -> list[float]:
        self(float("inf"))
        return self.values

    def _one(self) -> float:
        workdir = Path(self.args.workdir) / f"setup-{len(self.values)}"
        workdir.mkdir()
        out = workdir / "setup.json"
        subprocess.run([sys.executable, __file__, "--workload", self.args.workload,
                        "--seed", str(self.args.seed), "--seconds", "0",
                        "--setup-only", "--workdir", str(workdir), "--out", str(out)],
                       check=True, timeout=60)
        return json.loads(out.read_text())["setup_s"]


def traced_run(run: Run, tracer: Tracer, seconds: float) -> dict:
    """Run each cycle twice, untraced and traced; spans cover the traced runs.

    Cycle 1 runs untraced first and is not counted: it warms the caches that
    later cycles find warm.  Every op builds its boundary or reads its specs
    afresh, so both runs of a cycle do the same work; which of them goes
    first alternates.  The tracing overhead is the median over cycles of the
    traced time minus the untraced time.
    """
    workload = run.workload
    tracer.uninstall()
    run.one_cycle(1)
    untraced, traced = [], []
    cli_bytes = 0
    measured, k = 0.0, 2
    while True:
        for trace in ((False, True) if k % 2 == 0 else (True, False)):
            if not trace:
                untraced.append(run.one_cycle(k))
                continue
            tracer.install()
            before = workload.bytes_written[0]
            traced.append(run.one_cycle(k))
            tracer.uninstall()
            cli_bytes += workload.bytes_written[0] - before
        pair = untraced[-1] + traced[-1]
        measured += pair
        k += 1
        if measured + pair > seconds:
            break
    ops = sum(1 for span in tracer.spans if span.name == "op" and span.op >= 0)
    first, latency = run.first_traced
    q1, overhead, q3 = np.percentile(np.subtract(traced, untraced), [25, 50, 75])
    return {
        "layers": per_layer(tracer, ops, overhead_s=float(overhead), cli_bytes=cli_bytes),
        "first_traced_op": _op_spans(tracer, first, latency),
        "ops": ops,
        "trace_cycles": {"pairs": len(traced),
                         "difference_quartiles_s": [float(q1), float(q3)],
                         "traced_median_s": float(np.median(traced)),
                         "untraced_median_s": float(np.median(untraced))},
    }


def _op_spans(tracer: Tracer, op: int, latency: float) -> dict:
    """The spans of one traced op, with the self times the tracer gives them."""
    selfs = tracer.self_times()
    index = {i: n for n, i in enumerate(
        i for i, s in enumerate(tracer.spans) if s.op == op)}
    spans = [{"name": s.name, "parent": index.get(s.parent, -1), "start": s.start,
              "end": s.end, "self_s": selfs[i]}
             for i, s in enumerate(tracer.spans) if s.op == op]
    return {"latency_s": latency, "spans": spans}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--invert", type=int, default=None,
                        help="invert the verdict of this op of each cycle once (self-test)")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    src = Path(__file__).resolve().parents[1] / "src"
    if Path(schwarzlab.__file__).resolve().parent != src / "schwarzlab":
        parser.error(f"schwarzlab was imported from {schwarzlab.__file__}, not {src}")

    tracer = Tracer() if args.trace else None
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            tracer.install()
            stack.enter_context(tracer.span("setup"))
        workload = WORKLOADS[args.workload](args.seed, Path(args.workdir))
        run = Run(workload, args.invert, tracer)
        run.do(workload.warmup)
    setup_s = time.perf_counter() - STARTED
    result = {"setup_s": setup_s, "environment": environment()}

    if not args.setup_only and tracer is None:
        setups = SetupSamples(args, args.seconds)
        run.measure(args.seconds, between=setups)
        runs = [setup_s, *setups.finish()]
        result.update(end_to_end(run), setup_s=statistics.median(runs), setup_runs_s=runs)
    elif not args.setup_only:
        result.update(traced_run(run, tracer, args.seconds))

    result.update({
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures[:20],
        "op_latencies_s": [[label, round(t, 6)]
                           for label, t in zip(run.labels, run.latencies)],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
