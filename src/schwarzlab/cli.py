"""Command-line front end.

Every subcommand reads JSON specs, runs one pipeline, and writes a
deterministic `summary.json` plus CSV artifacts into the output directory
(timestamps go to a separate `metadata.json` so summaries are byte-stable).

Exit codes: 0 all checks passed, 1 a bound check failed, 2 usage or input
error, 3 numeric failure (divergent integral, stalled or non-finite defect
correction, failed inversion).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from . import gallery as gallery_mod
from . import harmonic as harmonic_mod
from . import lemmas as lemmas_mod
from . import metrics as metrics_mod
from .config import DEFAULT, Tolerances
from .errors import (InvalidInput, NoConvergence, NonIntegrable,
                     NumericInversionFailure, OutOfRange)

OUTPUT_ENV = "SCHWARZLAB_OUT"
_CSV_BLOCK = 4096
# a column of a block is formatted once per distinct value when it has at
# most this share of distinct values; otherwise the sort and gather cost
# more than the `%.17g` calls they save (with every column deduplicated, an
# all-distinct 5 x 8000 table wrote 30% slower)
_CSV_DEDUP_SHARE = 0.5


def _jsonable(x) -> object:
    """The payload tree with numpy scalars as Python ones and non-finite
    floats as the strings "Infinity", "-Infinity" and "NaN", which float()
    reads back; strict JSON has no token for them."""
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (float, np.floating)):
        x = float(x)
        if math.isfinite(x):
            return x
        return "NaN" if math.isnan(x) else ("Infinity" if x > 0 else "-Infinity")
    if isinstance(x, (int, np.integer)):
        return int(x)
    return x


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _write_csv(path: Path, header, columns) -> None:
    """The header line, then row i of the equal-length float columns: each
    value `%.17g` (round-trip exact), joined by commas, LF line ends.

    Rows are formatted `_CSV_BLOCK` at a time, so the text held in memory
    does not grow with the row count."""
    table = np.column_stack([np.ravel(np.asarray(c, float)) for c in columns])
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(table), _CSV_BLOCK):
            fh.write(_csv_rows(table[start:start + _CSV_BLOCK]))


def _csv_rows(block: np.ndarray) -> str:
    """The CSV text of the rows of a 2-d float block.

    A column with few distinct values (grid coordinates, say) has each one
    formatted once, keyed on its bits so that -0.0 stays apart from 0.0,
    and its row slots filled with the text."""
    cells = block.ravel().tolist()
    fields = []
    for j, column in enumerate(block.T):
        keys, inverse = np.unique(column.view(np.uint64), return_inverse=True)
        if len(keys) <= _CSV_DEDUP_SHARE * len(column):
            text = np.array(["%.17g" % v for v in keys.view(float).tolist()], object)
            cells[j::block.shape[1]] = text[inverse].tolist()
            fields.append("%s")
        else:
            fields.append("%.17g")
    return ((",".join(fields) + "\n") * len(block)) % tuple(cells)


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise InvalidInput(f"file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"malformed JSON in {path}: {exc}") from exc


def _metric(args: argparse.Namespace, unit_domain: bool = False):
    """The --metric spec; with `unit_domain`, only a metric on (-1, 1)."""
    metric = metrics_mod.metric_from_json(_load_json(args.metric))
    if unit_domain:
        metrics_mod.require_unit_domain(metric)
    return metric


def _boundary(args: argparse.Namespace, tols: Tolerances):
    return harmonic_mod.boundary_from_json(_load_json(args.boundary),
                                           sample_count=tols.boundary_samples)


# ---------------------------------------------------------------------------
# subcommand pipelines: each takes (args, tols, out), returns (exit_code,
# summary); build_parser binds each to its subcommand as `args.run`
# ---------------------------------------------------------------------------

def _run_curvature(args, tols: Tolerances, out: Path):
    metric = _metric(args)
    n = args.grid_n
    pad = 1e-3 * (min(metric.domain_hi, 10.0) - metric.domain_lo)
    hi = min(metric.domain_hi - pad, metric.domain_lo + 20.0)
    grid = np.linspace(metric.domain_lo + pad, hi, n)
    report = metrics_mod.log_concavity_report(metric, grid, tols=tols)
    _write_csv(out / "curvature.csv", ["u", "curvature"], [grid, report.curvature])
    summary = {
        "metric": metric.name,
        "min_curvature": report.min_curvature,
        "worst_u": report.worst_u,
        "is_nonnegative": report.is_nonnegative,
        "negative_atoms": report.negative_atoms,
        "exp_majorant_ok": report.exp_majorant_ok,
        "grid_n": n,
    }
    return 0, summary


def _run_transform(args, tols: Tolerances, out: Path):
    metric = _metric(args, unit_domain=True)
    n = args.grid_n
    table = metrics_mod.transform_table(metric, tols)
    grid = np.linspace(-1.0 + 1e-6, 1.0 - 1e-6, n)
    _write_csv(out / "transform.csv", ["u", "H"], [grid, table.h(grid)])
    rng = np.random.default_rng(args.seed)
    probes = rng.uniform(-0.99, 0.99, 32)
    round_trip = np.max(np.abs(table.h_inv(table.h(probes)) - probes))
    summary = {"metric": metric.name, "mass": table.r, "grid_n": n,
               "round_trip_max_error": float(round_trip)}
    return 0, summary


def _run_solve(args, tols: Tolerances, out: Path):
    metric = _metric(args, unit_domain=True)
    boundary = _boundary(args, tols)
    # the lift first: data it refuses fail before the oracle's solves
    harmonic_mod.solved_field(metric, boundary, tols)
    grid = harmonic_mod.fd_solve_oracle(metric, boundary, args.grid_n, tols=tols)
    pts, vals = grid.interior_points()
    _write_csv(out / "solution.csv", ["x", "y", "f"], [pts.real, pts.imag, vals])
    summary = {
        "metric": metric.name,
        "boundary": boundary.name,
        "grid_n": args.grid_n,
        "relaxation_sweeps": grid.sweeps,
        "final_update": grid.final_update,
        "transform_vs_oracle_sup": harmonic_mod.lift_sup_difference(
            grid, metric, boundary, tols),
        "value_min": float(np.nanmin(grid.values)),
        "value_max": float(np.nanmax(grid.values)),
    }
    return 0, summary


def _run_check_bounds(args, tols: Tolerances, out: Path):
    metric = _metric(args, unit_domain=True)
    boundary = _boundary(args, tols)
    grid = bounds_mod.ring_grid(tols.grid_radii, tols.grid_angles, tols.grid_radius)
    gradient = bounds_mod.check_gradient_bound(metric, boundary, grid, tols=tols)
    uni1, uni2 = bounds_mod.check_unimodal_bounds(metric, boundary, grid, tols=tols)
    pairs = bounds_mod.random_disk_pairs(args.seed, 1000, tols.grid_radius)
    dist = bounds_mod.check_distance_contraction(metric, boundary, pairs, tols=tols)
    reports = {
        "gradient_bound": gradient,
        "unimodal_gradient_bound": uni1,
        "arctan_radial_bound": uni2,
        "distance_contraction": dist,
    }
    summary = {"metric": metric.name, "boundary": boundary.name,
               "radius": tols.grid_radius}
    failed = False
    for key, rep in reports.items():
        _write_csv(out / f"{key}.csv", ["z_re", "z_im", "lhs", "rhs", "slack"],
                   [rep.z.real, rep.z.imag, rep.lhs, rep.rhs, rep.slack])
        summary[key] = rep.to_json_dict()
        if rep.applicable and not rep.passed:
            failed = True
    return (1 if failed else 0), summary


def _run_lemma(args, tols: Tolerances, out: Path):
    worst = math.inf
    if args.which == "diffeo":
        grid = np.linspace(-1.0 + 1e-4, 1.0 - 1e-4, 2001)
        failed = []
        for i in range(args.trials):
            diffeo = lemmas_mod.generate_logconcave(args.seed + i, 2 + i % 7)
            slack = lemmas_mod.logconcave_diffeo_slack(diffeo, grid)
            worst = min(worst, slack)
            if slack < -tols.slack_tol:
                failed.append({"seed": args.seed + i,
                               "slack": slack, **diffeo.to_json_dict()})
        if failed:
            _write_json(out / "diffeo_failures.json", {"failures": failed})
        failures = len(failed)
    else:
        rng = np.random.default_rng(args.seed)
        failures = 0
        vs = np.linspace(-0.999, 0.999, 201)
        for _ in range(args.trials):
            s = rng.uniform(0.05, 0.95)
            a = rng.uniform(0.05, 0.95) / (s * s)
            slack = lemmas_mod.unimodal_slack(metrics_mod.tent_metric(a, s), vs, tols=tols)
            worst = min(worst, float(np.min(slack)))
            failures += int(np.sum(slack < -tols.slack_tol))
    summary = {"which": args.which, "trials": args.trials, "min_slack": worst,
               "failures": failures}
    return (1 if failures else 0), summary


def _run_sweep(args, tols: Tolerances, out: Path):
    if args.family == "psi":
        columns = lemmas_mod.psi_sweep(args.n_max)
        ratio = columns[-1]
        _write_csv(out / "psi_sweep.csv", ["n", "s", "u", "ratio"], columns)
        summary = {"family": args.family, "n_max": args.n_max,
                   "max_ratio": float(np.max(ratio)),
                   "monotone": bool(np.all(np.diff(ratio) > 0))}
        return 0, summary
    ks = np.linspace(args.k_max / args.grid_n, args.k_max, args.grid_n)
    xs = np.linspace(0.0, 0.999, args.grid_n)
    vals = lemmas_mod.r_ratio(ks[:, None], xs[None, :])
    _write_csv(out / "r_ratio_sweep.csv", ["k", "x", "r_ratio"],
               [*np.meshgrid(ks, xs, indexing="ij"), vals])
    summary = {"family": args.family, "k_max": args.k_max, "grid_n": args.grid_n,
               "max_ratio": float(np.max(vals))}
    return 0, summary


_GALLERY = {
    "negative-curvature": lambda args: gallery_mod.run_negative_curvature_example(args.n),
    "zero-curvature": lambda args: gallery_mod.run_zero_curvature_example(
        args.c, seed=args.seed),
    "strip": lambda args: gallery_mod.run_strip_example(args.k),
    "half-plane": lambda args: gallery_mod.run_halfplane_example(),
}


def _run_gallery(args, tols: Tolerances, out: Path):
    report = _GALLERY[args.name](args)
    payload = report.to_json_dict()
    _write_json(out / f"gallery_{report.name}.json", payload)
    failed = not report.passed or report.bound_violated
    return (1 if failed else 0), payload


def dispatch(args: argparse.Namespace) -> int:
    """Run the parsed subcommand; write summary + metadata; return exit code."""
    # None: the subcommand reads no tolerances and takes no --tolerance
    overrides = args.tolerance
    try:
        tols = DEFAULT.replaced(**dict(overrides or ()))
    except InvalidInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = Path(args.out if args.out is not None
               else os.environ.get(OUTPUT_ENV, "schwarzlab-out"))
    created = not out.exists()
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output dir {out}: {exc}", file=sys.stderr)
        return 2
    started = time.time()
    try:
        code, summary = args.run(args, tols, out)
    except InvalidInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        if created:   # bad input leaves no output directory behind
            with contextlib.suppress(OSError):
                out.rmdir()
        return 2
    except (NonIntegrable, NoConvergence, NumericInversionFailure, OutOfRange) as exc:
        _write_json(out / "error.json", {
            "subcommand": args.subcommand,
            "error_type": type(exc).__name__,
            "message": str(exc),
        })
        print(f"numeric failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    summary["subcommand"] = args.subcommand
    if hasattr(args, "seed"):
        summary["seed"] = args.seed
    if overrides is not None:
        summary["effective_tolerances"] = dataclasses.asdict(tols)
    _write_json(out / "summary.json", summary)
    _write_json(out / "metadata.json", {
        "elapsed_seconds": time.time() - started,
        "finished_unix": time.time(),
    })
    return code


def _parse_tolerance(value: str) -> tuple[str, float]:
    if "=" not in value:
        raise argparse.ArgumentTypeError("expected NAME=VALUE")
    name, _, raw = value.partition("=")
    try:
        return name.strip(), float(raw)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad tolerance value {raw!r}") from exc


def _int_at_least(minimum: int):
    """argparse type: an integer >= minimum (argparse exits 2 otherwise)."""

    def parse(value: str) -> int:
        number = int(value)
        if number < minimum:
            raise argparse.ArgumentTypeError(
                f"needs an integer >= {minimum}, got {number}")
        return number

    parse.__name__ = "int"      # argparse names the type in its messages
    return parse


def _finite_float(value: str) -> float:
    """argparse type: a finite float (argparse exits 2 otherwise)."""
    number = float(value)
    if not math.isfinite(number):
        raise argparse.ArgumentTypeError(f"needs a finite number, got {value}")
    return number


_finite_float.__name__ = "float"    # argparse names the type in its messages


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later runs in
    the process: it holds no per-run state (`dispatch` reads $SCHWARZLAB_OUT)."""
    parser = argparse.ArgumentParser(
        prog="schwarzlab",
        description="Numerical checks for gradient bounds of metric-harmonic "
                    "functions on the unit disk.")

    # only the pipelines that draw random numbers take --seed
    def common(sp, run, metric=False, boundary=False, tolerances=True, seed=False):
        sp.set_defaults(run=run)
        if metric:
            sp.add_argument("--metric", required=True, help="metric spec JSON")
        if boundary:
            sp.add_argument("--boundary", required=True, help="boundary spec JSON")
        sp.add_argument("--out", default=None,
                        help=f"output directory (default ${OUTPUT_ENV} or ./schwarzlab-out)")
        if seed:
            sp.add_argument("--seed", type=_int_at_least(0), default=0)
        if tolerances:
            sp.add_argument("--tolerance", action="append", default=[],
                            type=_parse_tolerance, metavar="NAME=VALUE",
                            help="override a named tolerance (repeatable)")
        else:
            sp.set_defaults(tolerance=None)

    sub = parser.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("curvature", help="curvature profile of a metric")
    common(sp, _run_curvature, metric=True)
    sp.add_argument("--grid-n", type=_int_at_least(1), default=999)

    sp = sub.add_parser("transform", help="centered primitive H and round trips")
    common(sp, _run_transform, metric=True, seed=True)
    sp.add_argument("--grid-n", type=_int_at_least(1), default=201)

    sp = sub.add_parser("solve", help="defect-correction solve + transform comparison")
    common(sp, _run_solve, metric=True, boundary=True)
    sp.add_argument("--grid-n", type=_int_at_least(1), default=201)

    sp = sub.add_parser("check-bounds", help="gradient/distance bound reports")
    common(sp, _run_check_bounds, metric=True, boundary=True, seed=True)

    sp = sub.add_parser("lemma", help="randomized scalar-lemma oracles")
    common(sp, _run_lemma, seed=True)
    sp.add_argument("--which", required=True, choices=["diffeo", "unimodal"])
    sp.add_argument("--trials", type=_int_at_least(1), default=10000)

    sp = sub.add_parser("sweep", help="sharpness sweeps as CSV")
    common(sp, _run_sweep, tolerances=False)
    sp.add_argument("--family", required=True, choices=["psi", "r-ratio"])
    sp.add_argument("--n-max", type=_int_at_least(2), default=1000)
    sp.add_argument("--k-max", type=_finite_float, default=20.0)
    sp.add_argument("--grid-n", type=_int_at_least(1), default=200)

    sp = sub.add_parser("gallery", help="reproduce a worked example")
    common(sp, _run_gallery, tolerances=False, seed=True)
    sp.add_argument("--name", required=True, choices=list(_GALLERY))
    sp.add_argument("--n", type=int, default=3, help="tanh frequency")
    sp.add_argument("--c", type=_finite_float, default=1.0, help="exponential rate")
    sp.add_argument("--k", type=_finite_float, default=1.0, help="strip slope")

    return parser


def main(argv=None) -> int:
    return dispatch(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
