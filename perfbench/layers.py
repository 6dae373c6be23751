"""Per-module metrics from the spans of a traced run.

Every metric is a mean per measured op over the traced cycles, except
`metrics.mollify.s` (set-up only, where the workloads smooth their metrics)
and the tracing overhead.  `metrics.scalar_H.s` and
`quadrature.nonintegrable.count` take only outermost spans, since `inverse_H`
calls `transform_H` and `integrate_to_endpoint` calls `adaptive_simpson`.
The table of names, units and the end-to-end metric each should move is in
README.md.
"""

from __future__ import annotations

from collections import defaultdict

PER_OP = "/op"


class _Totals:
    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.hits = 0
        self.counts: dict[str, float] = defaultdict(float)


def _aggregate(tracer):
    """Totals per span name, over the traced ops and over set-up."""
    selfs = tracer.self_times()
    ops: dict[str, _Totals] = defaultdict(_Totals)
    setup: dict[str, _Totals] = defaultdict(_Totals)
    for span, self_s in zip(tracer.spans, selfs):
        totals = (ops if span.op >= 0 else setup)[span.name]
        totals.calls += 1
        totals.s += span.duration
        totals.self_s += self_s
        totals.hits += bool(span.hit)
        for key, value in span.counts.items():
            totals.counts[key] += value
    return ops, setup


def _outermost(tracer, names: tuple[str, ...]) -> list:
    """Traced-op spans of `names` not nested in another span of `names`."""
    spans = tracer.spans
    return [s for s in spans if s.op >= 0 and s.name in names
            and (s.parent < 0 or spans[s.parent].name not in names)]


def per_layer(tracer, op_count: int, overhead_s: float,
              cli_bytes: int) -> dict[str, dict]:
    """Per-module metrics as {name: {"value": v, "unit": u}}."""
    ops, setup = _aggregate(tracer)
    n = float(op_count)

    def calls(*names):
        return sum(ops[k].calls for k in names) / n

    def secs(*names):
        return sum(ops[k].s for k in names) / n

    def self_s(*names):
        return sum(ops[k].self_s for k in names) / n

    def count(name, key):
        return ops[name].counts[key] / n

    def hit_ratio(name):
        return ops[name].hits / ops[name].calls if ops[name].calls else 0.0

    quadrature = _outermost(tracer, ("quadrature.endpoint", "quadrature.simpson"))
    scalar_h = _outermost(tracer, ("metrics.transform_H", "metrics.inverse_H"))
    c, s, one = "count" + PER_OP, "s" + PER_OP, "1"
    metrics = {
        "quadrature.endpoint.calls": (calls("quadrature.endpoint"), c),
        "quadrature.endpoint.s": (secs("quadrature.endpoint"), s),
        "quadrature.nonintegrable.count": (
            sum(q.error == "NonIntegrable" for q in quadrature) / n, c),
        "quadrature.simpson.calls": (calls("quadrature.simpson"), c),
        "quadrature.simpson.s": (secs("quadrature.simpson"), s),
        "quadrature.gauss.points": (count("quadrature.gauss", "points"), c),
        "quadrature.gauss.s": (secs("quadrature.gauss"), s),
        "metrics.mass.calls": (calls("metrics.mass"), c),
        "metrics.mass.s": (secs("metrics.mass"), s),
        "metrics.table.builds": (calls("metrics.table.build"), c),
        "metrics.table.build_s": (secs("metrics.table.build"), s),
        "metrics.table.hit_ratio": (hit_ratio("metrics.transform_table"), one),
        "metrics.h.points": (count("metrics.h", "points"), c),
        "metrics.h.self_s": (self_s("metrics.h"), s),
        "metrics.h_inv.points": (count("metrics.h_inv", "points"), c),
        "metrics.h_inv.self_s": (self_s("metrics.h_inv"), s),
        "metrics.transform_H.calls": (calls("metrics.transform_H"), c),
        "metrics.inverse_H.calls": (calls("metrics.inverse_H"), c),
        "metrics.scalar_H.s": (sum(h.duration for h in scalar_h) / n, s),
        "metrics.curvature.calls": (calls("metrics.curvature"), c),
        "metrics.log_concavity.s": (secs("metrics.log_concavity"), s),
        "metrics.mollify.s": (setup["metrics.mollify"].s, "s"),
        "harmonic.poisson_values.point_samples": (
            count("harmonic.poisson_values", "point_samples"), c),
        "harmonic.poisson_values.self_s": (self_s("harmonic.poisson_values"), s),
        "harmonic.poisson_gradient.point_samples": (
            count("harmonic.poisson_gradient", "point_samples"), c),
        "harmonic.poisson_gradient.self_s": (self_s("harmonic.poisson_gradient"), s),
        "harmonic.field.passes_per_op": (
            calls("harmonic.poisson_values", "harmonic.poisson_gradient"), c),
        "harmonic.solved_field.hit_ratio": (hit_ratio("harmonic.solved_field"), one),
        "harmonic.lift.self_s": (self_s("harmonic.solved_field", "harmonic.field.value",
                                        "harmonic.field.gradient"), s),
        "harmonic.fd.solves": (calls("harmonic.fd"), c),
        "harmonic.fd.sweeps": (count("harmonic.fd", "sweeps"), c),
        "harmonic.fd.nodes": (count("harmonic.fd", "nodes"), c),
        "harmonic.fd.s": (secs("harmonic.fd"), s),
        "bounds.points": (count("bounds.gradient", "points")
                          + count("bounds.unimodal", "points")
                          + count("bounds.distance", "points"), c),
        "bounds.gradient.s": (secs("bounds.gradient"), s),
        "bounds.unimodal.s": (secs("bounds.unimodal"), s),
        "bounds.distance.s": (secs("bounds.distance"), s),
        "bounds.self_s": (self_s("bounds.gradient", "bounds.unimodal",
                                 "bounds.distance"), s),
        "lemmas.check_unimodal.calls": (calls("lemmas.check_unimodal"), c),
        "lemmas.check_unimodal.s": (secs("lemmas.check_unimodal"), s),
        "lemmas.unimodal_slack.calls": (calls("lemmas.unimodal_slack"), c),
        "lemmas.unimodal_slack.s": (secs("lemmas.unimodal_slack"), s),
        "cli.dispatch.s": (secs("cli.dispatch"), s),
        "cli.self_s": (self_s("cli.main", "cli.dispatch"), s),
        "cli.bytes_written": (cli_bytes / n, "B" + PER_OP),
        "trace.overhead_s": (overhead_s, "s"),
    }
    return {name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()}
