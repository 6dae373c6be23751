"""Command-line front end.

Every subcommand reads JSON specs, runs one pipeline, and writes a
deterministic `summary.json` plus CSV artifacts into the output directory
(timestamps go to a separate `metadata.json` so summaries are byte-stable).

Exit codes: 0 all checks passed, 1 a bound check failed, 2 usage or input
error, 3 numeric failure (divergent integral, stalled Picard iteration, failed
inversion).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional

import numpy as np

from . import bounds as bounds_mod
from . import gallery as gallery_mod
from . import harmonic as harmonic_mod
from . import lemmas as lemmas_mod
from . import metrics as metrics_mod
from .config import DEFAULT, Tolerances
from .errors import (InvalidInput, NoConvergence, NonIntegrable,
                     NumericInversionFailure, OutOfRange, SchwarzlabError)

OUTPUT_ENV = "SCHWARZLAB_OUT"


@dataclass
class RunConfig:
    subcommand: str
    metric_spec_path: Optional[str] = None
    boundary_spec_path: Optional[str] = None
    output_dir: str = "schwarzlab-out"
    tolerance_overrides: Dict[str, float] = field(default_factory=dict)
    seed: int = 0
    options: Dict[str, object] = field(default_factory=dict)


def _fmt(x) -> object:
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (float, np.floating)):
        return float(x)
    if isinstance(x, (int, np.integer)):
        return int(x)
    return x


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_fmt)
        fh.write("\n")


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{v:.17g}" if isinstance(v, (float, np.floating))
                             else v for v in row])


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise InvalidInput(f"file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"malformed JSON in {path}: {exc}") from exc


def _metric(config: RunConfig):
    if not config.metric_spec_path:
        raise InvalidInput("this subcommand needs --metric")
    return metrics_mod.metric_from_json(_load_json(config.metric_spec_path))


def _boundary(config: RunConfig, tols: Tolerances):
    if not config.boundary_spec_path:
        raise InvalidInput("this subcommand needs --boundary")
    return harmonic_mod.boundary_from_json(_load_json(config.boundary_spec_path),
                                           sample_count=tols.boundary_samples)


def _tols(config: RunConfig) -> Tolerances:
    return DEFAULT.replaced(**config.tolerance_overrides)


# ---------------------------------------------------------------------------
# subcommand pipelines (each returns (exit_code, summary_dict))
# ---------------------------------------------------------------------------

def _run_curvature(config: RunConfig, out: Path):
    metric = _metric(config)
    tols = _tols(config)
    n = int(config.options.get("grid_n", 999))
    pad = 1e-3 * (min(metric.domain_hi, 10.0) - metric.domain_lo)
    hi = min(metric.domain_hi - pad, metric.domain_lo + 20.0)
    grid = np.linspace(metric.domain_lo + pad, hi, n)
    report = metrics_mod.log_concavity_report(metric, grid, tols=tols)
    _write_csv(out / "curvature.csv", ["u", "curvature"], zip(grid, report.curvature))
    summary = {
        "metric": metric.name,
        "min_curvature": report.min_curvature,
        "worst_u": report.worst_u,
        "is_nonnegative": report.is_nonnegative,
        "exp_majorant_ok": report.exp_majorant_ok,
        "grid_n": n,
    }
    return 0, summary


def _run_transform(config: RunConfig, out: Path):
    metric = _metric(config)
    tols = _tols(config)
    n = int(config.options.get("grid_n", 201))
    r = metrics_mod.mass(metric, tols=tols)
    grid = np.linspace(-1.0 + 1e-6, 1.0 - 1e-6, n)
    hv = [metrics_mod.transform_H(metric, float(u), tols=tols) for u in grid]
    _write_csv(out / "transform.csv", ["u", "H"], zip(grid, hv))
    rng = np.random.default_rng(config.seed)
    probes = rng.uniform(-0.99, 0.99, 32)
    round_trip = max(abs(metrics_mod.inverse_H(
        metric, metrics_mod.transform_H(metric, float(u), tols=tols), tols=tols) - u)
        for u in probes)
    summary = {"metric": metric.name, "mass": r, "grid_n": n,
               "round_trip_max_error": float(round_trip)}
    return 0, summary


def _run_solve(config: RunConfig, out: Path):
    metric = _metric(config)
    tols = _tols(config)
    boundary = _boundary(config, tols)
    n = int(config.options.get("grid_n", 201))
    grid = harmonic_mod.fd_solve_oracle(metric, boundary, n, tols=tols)
    grid.to_csv(out / "solution.csv")
    pts, vals = grid.interior_points()
    keep = np.abs(pts) <= 0.99
    field = harmonic_mod.solved_field(metric, boundary)
    ref = field.value_many(pts[keep])
    sup = float(np.max(np.abs(vals[keep] - ref)))
    summary = {
        "metric": metric.name,
        "boundary": boundary.name,
        "grid_n": n,
        "relaxation_sweeps": grid.sweeps,
        "final_update": grid.final_update,
        "transform_vs_oracle_sup": sup,
        "value_min": float(np.nanmin(vals)),
        "value_max": float(np.nanmax(vals)),
    }
    return 0, summary


def _run_check_bounds(config: RunConfig, out: Path):
    metric = _metric(config)
    tols = _tols(config)
    boundary = _boundary(config, tols)
    grid = bounds_mod.ring_grid(tols.grid_radii, tols.grid_angles, tols.grid_radius)
    gradient = bounds_mod.check_gradient_bound(metric, boundary, grid, tols=tols)
    uni1, uni2 = bounds_mod.check_unimodal_bounds(metric, boundary, grid, tols=tols)
    pairs = bounds_mod.random_disk_pairs(config.seed, 1000, tols.grid_radius)
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
        rep.to_csv(out / f"{key}.csv")
        summary[key] = rep.to_json_dict()
        if rep.applicable and not rep.passed:
            failed = True
    return (1 if failed else 0), summary


def _run_lemma(config: RunConfig, out: Path):
    which = config.options.get("which")
    trials = int(config.options.get("trials", 10000))
    tols = _tols(config)
    rng = np.random.default_rng(config.seed)
    if which == "diffeo":
        grid = np.linspace(-1.0 + 1e-4, 1.0 - 1e-4, 2001)
        worst = math.inf
        failures = []
        for i in range(trials):
            diffeo = lemmas_mod.generate_logconcave(config.seed + i, 2 + i % 7)
            slack = lemmas_mod.logconcave_diffeo_slack(diffeo, grid)
            if slack < worst:
                worst = slack
            if slack < -tols.slack_tol:
                failures.append({"seed": config.seed + i,
                                 "slack": slack, **diffeo.to_json_dict()})
        if failures:
            _write_json(out / "diffeo_failures.json", {"failures": failures})
        summary = {"which": which, "trials": trials, "min_slack": worst,
                   "failures": len(failures)}
        return (1 if failures else 0), summary
    if which == "unimodal":
        worst = math.inf
        failures = 0
        vs = np.linspace(-0.999, 0.999, 201)
        for i in range(trials):
            s = rng.uniform(0.05, 0.95)
            a = rng.uniform(0.05, 0.95) / (s * s)
            metric = metrics_mod.tent_metric(a, s)
            for v in vs:
                slack = lemmas_mod.unimodal_slack(metric, float(v), tols=tols)
                if slack < worst:
                    worst = slack
                if slack < -tols.slack_tol:
                    failures += 1
        summary = {"which": which, "trials": trials, "min_slack": worst,
                   "failures": failures}
        return (1 if failures else 0), summary
    raise InvalidInput("--which must be 'diffeo' or 'unimodal'")


def _run_sweep(config: RunConfig, out: Path):
    family = config.options.get("family")
    if family == "psi":
        n_max = int(config.options.get("n_max", 1000))
        records = lemmas_mod.psi_sweep(n_max)
        _write_csv(out / "psi_sweep.csv", ["n", "s", "u", "ratio"],
                   [(rec.parameters["n"], rec.parameters["s"],
                     rec.parameters["u"], rec.ratio) for rec in records])
        ratios = [rec.ratio for rec in records]
        summary = {"family": family, "n_max": n_max,
                   "max_ratio": max(ratios),
                   "monotone": bool(np.all(np.diff(ratios) > 0))}
        return 0, summary
    if family == "r-ratio":
        k_max = float(config.options.get("k_max", 20.0))
        grid_n = int(config.options.get("grid_n", 200))
        ks = np.linspace(k_max / grid_n, k_max, grid_n)
        xs = np.linspace(0.0, 0.999, grid_n)
        vals = lemmas_mod.r_ratio(ks[:, None], xs[None, :])
        rows = [(k, x, vals[i, j]) for i, k in enumerate(ks)
                for j, x in enumerate(xs)]
        _write_csv(out / "r_ratio_sweep.csv", ["k", "x", "r_ratio"], rows)
        summary = {"family": family, "k_max": k_max, "grid_n": grid_n,
                   "max_ratio": float(np.max(vals))}
        return 0, summary
    raise InvalidInput("--family must be 'psi' or 'r-ratio'")


def _run_gallery(config: RunConfig, out: Path):
    name = config.options.get("name")
    if name == "negative-curvature":
        report = gallery_mod.run_negative_curvature_example(
            int(config.options.get("n", 3)))
    elif name == "zero-curvature":
        report = gallery_mod.run_zero_curvature_example(
            float(config.options.get("c", 1.0)), seed=config.seed)
    elif name == "strip":
        report = gallery_mod.run_strip_example(float(config.options.get("k", 1.0)))
    elif name == "half-plane":
        report = gallery_mod.run_halfplane_example()
    else:
        raise InvalidInput(
            "--name must be negative-curvature|zero-curvature|strip|half-plane")
    payload = report.to_json_dict()
    _write_json(out / f"gallery_{report.name}.json", payload)
    exit_code = 0
    if not report.passed or report.bound_violated:
        exit_code = 1
    return exit_code, payload


_PIPELINES = {
    "curvature": _run_curvature,
    "transform": _run_transform,
    "solve": _run_solve,
    "check-bounds": _run_check_bounds,
    "lemma": _run_lemma,
    "sweep": _run_sweep,
    "gallery": _run_gallery,
}


def dispatch(config: RunConfig) -> int:
    """Run the configured pipeline; write summary + metadata; return exit code."""
    out = Path(config.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output dir {out}: {exc}", file=sys.stderr)
        return 2
    started = time.time()
    try:
        code, summary = _PIPELINES[config.subcommand](config, out)
    except (InvalidInput, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NonIntegrable, NoConvergence, NumericInversionFailure, OutOfRange) as exc:
        _write_json(out / "error.json", {
            "subcommand": config.subcommand,
            "error_type": type(exc).__name__,
            "message": str(exc),
        })
        print(f"numeric failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    summary["subcommand"] = config.subcommand
    summary["seed"] = config.seed
    summary["effective_tolerances"] = dataclasses.asdict(_tols(config))
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schwarzlab",
        description="Numerical checks for gradient bounds of metric-harmonic "
                    "functions on the unit disk.")
    default_out = os.environ.get(OUTPUT_ENV, "schwarzlab-out")

    def common(sp, metric=False, boundary=False):
        if metric:
            sp.add_argument("--metric", required=True, help="metric spec JSON")
        if boundary:
            sp.add_argument("--boundary", required=True, help="boundary spec JSON")
        sp.add_argument("--out", default=default_out,
                        help=f"output directory (default ${OUTPUT_ENV} or ./schwarzlab-out)")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--tolerance", action="append", default=[],
                        type=_parse_tolerance, metavar="NAME=VALUE",
                        help="override a named tolerance (repeatable)")

    sub = parser.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("curvature", help="curvature profile of a metric")
    common(sp, metric=True)
    sp.add_argument("--grid-n", type=int, default=999)

    sp = sub.add_parser("transform", help="centered primitive H and round trips")
    common(sp, metric=True)
    sp.add_argument("--grid-n", type=int, default=201)

    sp = sub.add_parser("solve", help="relaxation solve + transform comparison")
    common(sp, metric=True, boundary=True)
    sp.add_argument("--grid-n", type=int, default=201)

    sp = sub.add_parser("check-bounds", help="gradient/distance bound reports")
    common(sp, metric=True, boundary=True)

    sp = sub.add_parser("lemma", help="randomized scalar-lemma oracles")
    common(sp)
    sp.add_argument("--which", required=True, choices=["diffeo", "unimodal"])
    sp.add_argument("--trials", type=int, default=10000)

    sp = sub.add_parser("sweep", help="sharpness sweeps as CSV")
    common(sp)
    sp.add_argument("--family", required=True, choices=["psi", "r-ratio"])
    sp.add_argument("--n-max", type=int, default=1000)
    sp.add_argument("--k-max", type=float, default=20.0)
    sp.add_argument("--grid-n", type=int, default=200)

    sp = sub.add_parser("gallery", help="reproduce a worked example")
    common(sp)
    sp.add_argument("--name", required=True,
                    choices=["negative-curvature", "zero-curvature",
                             "strip", "half-plane"])
    sp.add_argument("--n", type=int, default=3, help="tanh frequency")
    sp.add_argument("--c", type=float, default=1.0, help="exponential rate")
    sp.add_argument("--k", type=float, default=1.0, help="strip slope")

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    options = {}
    for key in ("grid_n", "which", "trials", "family",
                "n_max", "k_max", "name", "n", "c", "k"):
        if hasattr(args, key):
            options[key] = getattr(args, key)
    return RunConfig(
        subcommand=args.subcommand,
        metric_spec_path=getattr(args, "metric", None),
        boundary_spec_path=getattr(args, "boundary", None),
        output_dir=args.out,
        tolerance_overrides=dict(args.tolerance),
        seed=args.seed,
        options=options,
    )


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return dispatch(config_from_args(args))


if __name__ == "__main__":
    sys.exit(main())
