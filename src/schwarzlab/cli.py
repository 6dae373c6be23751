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
from typing import Callable

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
# pipelines: each takes (args, tols, out) and returns (exit_code, summary);
# RUNS binds each to its run
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


def _run_diffeo(args, tols: Tolerances, out: Path):
    grid = np.linspace(-1.0 + 1e-4, 1.0 - 1e-4, 2001)
    worst = math.inf
    failed = []
    for i in range(args.trials):
        diffeo = lemmas_mod.generate_logconcave(args.seed + i, 2 + i % 7)
        slack = lemmas_mod.logconcave_diffeo_slack(diffeo, grid)
        worst = min(worst, slack)
        if slack < -tols.slack_tol:
            failed.append({"seed": args.seed + i, "slack": slack, **diffeo.to_json_dict()})
    if failed:
        _write_json(out / "diffeo_failures.json", {"failures": failed})
    return _lemma_summary(args, worst, len(failed))


def _run_unimodal(args, tols: Tolerances, out: Path):
    rng = np.random.default_rng(args.seed)
    worst = math.inf
    failures = 0
    vs = np.linspace(-0.999, 0.999, 201)
    for _ in range(args.trials):
        s = rng.uniform(0.05, 0.95)
        a = rng.uniform(0.05, 0.95) / (s * s)
        slack = lemmas_mod.unimodal_slack(metrics_mod.tent_metric(a, s), vs, tols=tols)
        worst = min(worst, float(np.min(slack)))
        failures += int(np.sum(slack < -tols.slack_tol))
    return _lemma_summary(args, worst, failures)


def _lemma_summary(args, worst: float, failures: int):
    summary = {"which": args.which, "trials": args.trials, "min_slack": worst,
               "failures": failures}
    return (1 if failures else 0), summary


def _run_psi_sweep(args, tols: Tolerances, out: Path):
    columns = lemmas_mod.psi_sweep(args.n_max)
    ratio = columns[-1]
    _write_csv(out / "psi_sweep.csv", ["n", "s", "u", "ratio"], columns)
    summary = {"family": args.family, "n_max": args.n_max,
               "max_ratio": float(np.max(ratio)),
               "monotone": bool(np.all(np.diff(ratio) > 0))}
    return 0, summary


def _run_r_ratio_sweep(args, tols: Tolerances, out: Path):
    ks = np.linspace(args.k_max / args.grid_n, args.k_max, args.grid_n)
    xs = np.linspace(0.0, 0.999, args.grid_n)
    vals = lemmas_mod.r_ratio(ks[:, None], xs[None, :])
    _write_csv(out / "r_ratio_sweep.csv", ["k", "x", "r_ratio"],
               [*np.meshgrid(ks, xs, indexing="ij"), vals])
    summary = {"family": args.family, "k_max": args.k_max, "grid_n": args.grid_n,
               "max_ratio": float(np.max(vals))}
    return 0, summary


def _gallery(example):
    """The pipeline of one gallery example; `example(args)` gives its report."""

    def run(args, tols: Tolerances, out: Path):
        report = example(args)
        payload = report.to_json_dict()
        _write_json(out / f"gallery_{report.name}.json", payload)
        failed = not report.passed or report.bound_violated
        return (1 if failed else 0), payload

    return run


def dispatch(args: argparse.Namespace) -> int:
    """Run the parsed subcommand; write summary + metadata; return exit code."""
    try:
        run, tols = _read_settings(args)
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
        code, summary = run.pipeline(args, tols, out)
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
    if "seed" in run.options:
        summary["seed"] = args.seed
    if run.tolerances:
        summary["effective_tolerances"] = {key: getattr(tols, key)
                                           for key in run.tolerances}
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


# ---------------------------------------------------------------------------
# the runs: a run is a subcommand, or one variant of lemma, sweep or gallery,
# and reads exactly the tolerances and options declared here; the parser
# offers a subcommand the union over its variants, and dispatch refuses a
# setting the run does not read (exit 2) and records the ones it does
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Run:
    """A pipeline, taking (args, tols, out) and returning (exit_code,
    summary); the `Tolerances` fields it reads; and the options it reads,
    each with its default."""
    pipeline: Callable
    tolerances: tuple[str, ...] = ()
    options: dict[str, object] = dataclasses.field(default_factory=dict)


# subcommand -> (help, the specs it reads, the option that picks its variant)
_SUBCOMMANDS = {
    "curvature": ("curvature profile of a metric", ("metric",), None),
    "transform": ("centered primitive H and round trips", ("metric",), None),
    "solve": ("defect-correction solve + transform comparison",
              ("metric", "boundary"), None),
    "check-bounds": ("gradient/distance bound reports", ("metric", "boundary"), None),
    "lemma": ("randomized scalar-lemma oracles", (), "which"),
    "sweep": ("sharpness sweeps as CSV", (), "family"),
    "gallery": ("reproduce a worked example", (), "name"),
}

# option -> (argparse type, help)
_OPTIONS = {
    "trials": (_int_at_least(1), None),
    "n_max": (_int_at_least(2), None),
    "k_max": (_finite_float, None),
    "grid_n": (_int_at_least(1), None),
    "n": (int, "tanh frequency"),
    "c": (_finite_float, "exponential rate"),
    "k": (_finite_float, "strip slope"),
    "seed": (_int_at_least(0), None),
}

# (subcommand, variant) -> the run
RUNS = {
    ("curvature", None): Run(_run_curvature, ("slack_tol",), {"grid_n": 999}),
    ("transform", None): Run(_run_transform, ("quad_abs_tol", "inverse_rel_tol"),
                             {"grid_n": 201, "seed": 0}),
    ("solve", None): Run(_run_solve, ("quad_abs_tol", "inverse_rel_tol", "fd_update_tol",
                                      "fd_max_sweeps", "boundary_samples"),
                         {"grid_n": 201}),
    ("check-bounds", None): Run(_run_check_bounds,
                                ("quad_abs_tol", "inverse_rel_tol", "slack_tol",
                                 "boundary_samples", "grid_radii", "grid_angles",
                                 "grid_radius"),
                                {"seed": 0}),
    ("lemma", "diffeo"): Run(_run_diffeo, ("slack_tol",), {"trials": 10000, "seed": 0}),
    ("lemma", "unimodal"): Run(_run_unimodal, ("slack_tol", "quad_abs_tol"),
                               {"trials": 10000, "seed": 0}),
    ("sweep", "psi"): Run(_run_psi_sweep, (), {"n_max": 1000}),
    ("sweep", "r-ratio"): Run(_run_r_ratio_sweep, (), {"k_max": 20.0, "grid_n": 200}),
    ("gallery", "negative-curvature"): Run(_gallery(
        lambda args: gallery_mod.run_negative_curvature_example(args.n)), (), {"n": 3}),
    ("gallery", "zero-curvature"): Run(_gallery(
        lambda args: gallery_mod.run_zero_curvature_example(args.c, seed=args.seed)),
        (), {"c": 1.0, "seed": 0}),
    ("gallery", "strip"): Run(_gallery(
        lambda args: gallery_mod.run_strip_example(args.k)), (), {"k": 1.0}),
    ("gallery", "half-plane"): Run(_gallery(
        lambda args: gallery_mod.run_halfplane_example())),
}


def _read_settings(args: argparse.Namespace) -> tuple[Run, Tolerances]:
    """The run the arguments pick and its tolerances, with the run's unset
    options put to their defaults; InvalidInput for a bad tolerance or a
    setting the run does not read."""
    variant_option = _SUBCOMMANDS[args.subcommand][2]
    variant = getattr(args, variant_option) if variant_option else None
    name = args.subcommand + (f" --{variant_option} {variant}" if variant_option else "")
    run = RUNS[args.subcommand, variant]
    for option in _OPTIONS:
        value = getattr(args, option, None)
        if option in run.options:
            if value is None:
                setattr(args, option, run.options[option])
        elif value is not None:
            raise InvalidInput(f"{name} does not read --{option.replace('_', '-')}")
    overrides = dict(getattr(args, "tolerance", ()))
    tols = DEFAULT.replaced(**overrides)
    for key in overrides:
        if key not in run.tolerances:
            raise InvalidInput(f"{name} does not read tolerance {key!r}")
    return run, tols


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later runs in
    the process: it holds no per-run state (`dispatch` reads $SCHWARZLAB_OUT)."""
    parser = argparse.ArgumentParser(
        prog="schwarzlab",
        description="Numerical checks for gradient bounds of metric-harmonic "
                    "functions on the unit disk.")

    sub = parser.add_subparsers(dest="subcommand", required=True)
    for subcommand, (help_text, specs, variant_option) in _SUBCOMMANDS.items():
        runs = {variant: run for (command, variant), run in RUNS.items()
                if command == subcommand}
        # no abbreviations: `sweep --n` must not be read as --n-max
        sp = sub.add_parser(subcommand, help=help_text, allow_abbrev=False)
        for spec in specs:
            sp.add_argument(f"--{spec}", required=True, help=f"{spec} spec JSON")
        sp.add_argument("--out", default=None,
                        help=f"output directory (default ${OUTPUT_ENV} or ./schwarzlab-out)")
        if variant_option is not None:
            sp.add_argument(f"--{variant_option}", required=True, choices=list(runs))
        if any(run.tolerances for run in runs.values()):
            sp.add_argument("--tolerance", action="append", default=[],
                            type=_parse_tolerance, metavar="NAME=VALUE",
                            help="override a named tolerance (repeatable)")
        # each option unset (None) here, so that dispatch can tell a given one
        for option, (kind, option_help) in _OPTIONS.items():
            if any(option in run.options for run in runs.values()):
                sp.add_argument(f"--{option.replace('_', '-')}", type=kind,
                                help=option_help)

    return parser


def main(argv=None) -> int:
    return dispatch(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
