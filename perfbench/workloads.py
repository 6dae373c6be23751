"""The benchmark's workloads: inputs from a seed, ops and verdicts.

A workload is a seeded stream of cycles; cycle k holds one op per kind of
request (one per pool metric, say) and depends only on (seed, k).  Its first
`list_cycles` cycles are the run's fixed list of ops; a run that has time
left goes on with the next cycles of the same stream.  An op is one
user-level request.  `Op.call` is the timed request into the package's
public API; `Op.check` reads its result afterwards (untimed) and returns
the verdict together with the op's checked discrepancy as a share of its
stated tolerance (0.0 when the op checks no tolerance).

The package objects an op works on are built inside the timed call (a
`bounds-ring` boundary; the metric and boundary a `schwarzlab solve` call
reads from its JSON specs), so caches keyed on them start cold for each op.
Only the metric pool of `bounds-ring`, built at set-up, is shared between
ops, as it is between the checks of a test suite.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from schwarzlab import bounds, cli, harmonic, lemmas, metrics

# two of the (a, s) pairs of the smoothed tent family for which the
# acceptance suite checks the 4/pi bound; other (a, s) may legitimately fail it
MOLLIFIED_PAIRS = [(0.25, 0.6), (0.5, 0.5)]
ORACLE_TOL = 5e-3
# C5 compares at n = 201; at n = 101 an op keeps the same split (about 70%
# FD relaxation, a quarter Poisson on scattered points) at a sixth of the
# cost, so a run holds enough ops for steady medians
ORACLE_N = 101


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], tuple[bool, float]]


@dataclass
class Workload:
    cycle: Callable[[int], list[Op]]  # ops of cycle k = 1, 2, ...
    list_cycles: int        # cycles 1..list_cycles are the fixed list
    warmup: Op              # untimed, part of set-up
    tail_percentile: float  # reported as op_p90_s, see README.md
    bytes_written: list = field(default_factory=lambda: [0])  # by CLI ops


def _rng(seed: int, stream: int, k: int) -> np.random.Generator:
    """Generator of cycle k (k = 0 is the warm-up) of one workload's stream."""
    return np.random.default_rng([seed, stream, k])


def _seeds(rng: np.random.Generator, count: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2 ** 31 - 1, size=count)]


# ---------------------------------------------------------------------------
# bounds-ring
# ---------------------------------------------------------------------------

def _bounds_op(label, metric, certified, boundary_seed, grid) -> Op:
    def call():
        boundary = harmonic.random_smooth_boundary(boundary_seed)
        pairs = bounds.random_disk_pairs(boundary_seed, 1000, 0.95)
        gradient = bounds.check_gradient_bound(metric, boundary, grid)
        uni1, uni2 = bounds.check_unimodal_bounds(metric, boundary, grid)
        distance = bounds.check_distance_contraction(metric, boundary, pairs)
        return gradient, uni1, uni2, distance

    def check(reports):
        # a report whose precondition fails is marked not applicable rather
        # than failed, exactly as `schwarzlab check-bounds` counts it
        ok = all(rep.passed or not rep.applicable for rep in reports)
        if certified:
            ok = ok and bool(reports[0].extras["chain_checked"])
        return ok, 0.0

    return Op(label, call, check)


def bounds_ring(seed: int, workdir: Path) -> Workload:
    pool = [(metrics.constant_metric(), True), (metrics.cosine_metric(), True),
            (metrics.exponential_metric(1.0), True),
            (metrics.exponential_metric(-1.0), True),
            (metrics.exponential_metric(-2.0), True)]
    pool += [(metrics.mollify(lemmas.psi_family(a, s), 0.05), False)
             for a, s in MOLLIFIED_PAIRS]
    grid = bounds.ring_grid(24, 96, 0.95)

    def cycle(k):
        seeds = _seeds(_rng(seed, 1, k), len(pool))
        return [_bounds_op(f"{metric.name}/seed={b}", metric, certified, b, grid)
                for (metric, certified), b in zip(pool, seeds)]

    return Workload(cycle, 6, cycle(0)[0], tail_percentile=0.9)


# ---------------------------------------------------------------------------
# oracle-fd
# ---------------------------------------------------------------------------

def _cli_op(workdir: Path, label: str, argv: list[str], expect,
            bytes_written: list) -> Op:
    """One `schwarzlab` invocation in this process, into a fresh output dir."""

    def call():
        out = workdir / label
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv + ["--out", str(out)])
        return code, out

    def check(result):
        code, out = result
        try:
            bytes_written[0] += sum(p.stat().st_size for p in out.iterdir())
            return expect(code, out)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    return Op(label, call, check)


def _expect_oracle_agreement(code, out):
    if code != 0:
        return False, 0.0
    with open(out / "summary.json") as fh:
        sup = json.load(fh)["transform_vs_oracle_sup"]
    return bool(sup <= ORACLE_TOL), sup / ORACLE_TOL


def _write_spec(path: Path, spec: dict) -> str:
    path.write_text(json.dumps(spec))
    return str(path)


def oracle_fd(seed: int, workdir: Path) -> Workload:
    metric_specs = [("cosine", {"kind": "cosine"}),
                    ("exponential(1)", {"kind": "exponential", "params": {"c": 1.0}})]
    bytes_written = [0]

    def cycle(k):
        ops = []
        for (name, spec), b in zip(metric_specs, _seeds(_rng(seed, 2, k), 2)):
            boundary = harmonic.random_smooth_boundary(b, sample_count=2048)
            label = f"c{k}-{name}-seed={b}"
            metric_path = _write_spec(workdir / f"{label}-metric.json", spec)
            boundary_path = _write_spec(workdir / f"{label}-boundary.json", {
                "kind": "samples", "theta": boundary.thetas.tolist(),
                "values": boundary.samples.tolist()})
            ops.append(_cli_op(workdir, label, [
                "solve", "--metric", metric_path, "--boundary", boundary_path,
                "--grid-n", str(ORACLE_N)], _expect_oracle_agreement, bytes_written))
        return ops

    return Workload(cycle, 6, cycle(0)[0], tail_percentile=0.75,
                    bytes_written=bytes_written)


WORKLOADS = {"bounds-ring": bounds_ring, "oracle-fd": oracle_fd}
