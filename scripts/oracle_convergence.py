#!/usr/bin/env python3
"""Convergence study: finite-difference oracle vs transform solution.

Solves the quasilinear equation twice per resolution (independent paths)
and prints the sup difference together with the observed order; a healthy
run shows ~4x shrink per doubling.
"""

import argparse
import time

from schwarzlab.harmonic import oracle_sup_difference, random_smooth_boundary
from schwarzlab.metrics import cosine_metric, exponential_metric, metric_from_json


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--metric", choices=["cosine", "exponential"],
                        default="cosine")
    parser.add_argument("--c", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--resolutions", type=int, nargs="+",
                        default=[51, 101, 201])
    args = parser.parse_args()

    metric = cosine_metric() if args.metric == "cosine" \
        else exponential_metric(args.c)
    boundary = random_smooth_boundary(args.seed, sample_count=2048)

    prev = None
    print(f"metric={metric.name} boundary=seed{args.seed}")
    for n in args.resolutions:
        started = time.perf_counter()
        diff = oracle_sup_difference(metric, boundary, n)
        rate = f"  shrink x{prev / diff:.2f}" if prev else ""
        print(f"  n={n:4d}: sup|oracle - transform| = {diff:.3e} "
              f"({time.perf_counter() - started:.1f}s){rate}")
        prev = diff


if __name__ == "__main__":
    main()
