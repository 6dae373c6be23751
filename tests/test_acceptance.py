"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS line (with its runtime) once its assertions
hold; run with `pytest tests/test_acceptance.py -v -s` to see them.
"""

import math
import time

import numpy as np
import pytest

from schwarzlab.bounds import (check_distance_contraction, check_gradient_bound,
                               check_unimodal_bounds, random_disk_pairs,
                               ring_grid, schwarz_quotient)
from schwarzlab.gallery import (run_halfplane_example,
                                run_negative_curvature_example,
                                run_strip_example)
from schwarzlab.harmonic import (analytic_field, oracle_sup_difference,
                                 random_smooth_boundary,
                                 random_symmetric_boundary, solved_field,
                                 step_boundary)
from schwarzlab.lemmas import (dif_diagnostics, generate_logconcave,
                               logconcave_diffeo_slack, psi_family, psi_sweep,
                               r_ratio)
from schwarzlab.metrics import (constant_metric, cosine_metric,
                                curvature_at, exponential_metric,
                                hyperbolic_metric, mollify, secant_metric,
                                Metric1D)

SLACK = 1e-9


def _stamp(label, started, budget):
    elapsed = time.perf_counter() - started
    print(f"\nACCEPTANCE {label}: PASS ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert elapsed < budget


# -- 1 ----------------------------------------------------------------------

def test_c01_curvature_formulas(difference_quotient_curvature):
    started = time.perf_counter()
    grid = np.linspace(-0.99, 0.99, 99)
    cases = [
        (hyperbolic_metric(), lambda u: -2.0 * (1 + u * u)),
        (secant_metric(), lambda u: -math.pi ** 2 / 4),
        (exponential_metric(1.0), lambda u: 0.0),
        (exponential_metric(-2.0), lambda u: 0.0),
    ]
    for metric, expected in cases:
        for u in grid:
            assert curvature_at(metric, u) == pytest.approx(expected(u), abs=1e-6)
            assert difference_quotient_curvature(metric, u) == pytest.approx(
                expected(u), abs=1e-4)
    _stamp("C1 curvature formulas", started, 1.0)


# -- 2 ----------------------------------------------------------------------

def test_c02_negative_curvature_counterexample():
    started = time.perf_counter()
    metric = hyperbolic_metric()
    for n in range(1, 11):
        fld = analytic_field(
            lambda x, y, n=n: np.tanh(n * np.asarray(x, float)),
            lambda x, y, n=n: (n / np.cosh(n * np.asarray(x, float)) ** 2,
                               np.zeros_like(np.asarray(y, float))))
        s0 = schwarz_quotient(fld, 0.0)
        assert s0 == pytest.approx(float(n), abs=1e-9)
        if n >= 2:
            assert s0 > 4 / math.pi
    _stamp("C2 negative-curvature counterexample", started, 1.0)


# -- 3 ----------------------------------------------------------------------

MOLLIFIED_PAIRS = [(0.25, 0.6), (0.5, 0.5), (0.5, 0.3), (0.8, 0.4), (0.6, 0.45)]


def test_c03_gradient_bound_property_suite():
    started = time.perf_counter()
    certified = [constant_metric(), cosine_metric(),
                 exponential_metric(-2.0), exponential_metric(-1.0),
                 exponential_metric(1.0), exponential_metric(2.0)]
    # tent-derivative metrics, smoothed; these pairs satisfy a direct scalar
    # certificate for the 4/pi bound even though they are not log-concave
    mollified = [mollify(psi_family(a, s), 0.05) for a, s in MOLLIFIED_PAIRS]
    boundaries = [random_smooth_boundary(seed) for seed in range(20)]
    grid = ring_grid(24, 96, 0.95)

    for metric in certified:
        for boundary in boundaries:
            rep = check_gradient_bound(metric, boundary, grid)
            assert rep.passed and rep.min_slack >= -SLACK
            assert rep.extras["chain_checked"]
            assert rep.extras["chain_harmonic_min_slack"] >= -SLACK
            assert rep.extras["chain_cosine_min_slack"] >= -SLACK
            assert rep.extras["chain_diffeo_min_slack"] >= -SLACK
    for metric in mollified:
        for boundary in boundaries:
            rep = check_gradient_bound(metric, boundary, grid)
            assert rep.passed and rep.min_slack >= -SLACK
            # smoothed tents are never log-concave: the chain is recorded
            # but not certified, and the first two links still hold
            assert not rep.extras["chain_checked"]
            assert rep.extras["chain_harmonic_min_slack"] >= -SLACK
            assert rep.extras["chain_cosine_min_slack"] >= -SLACK
    _stamp("C3 gradient-bound property suite", started, 120.0)


# -- 4 ----------------------------------------------------------------------

def test_c04_sharpness_of_4_over_pi():
    started = time.perf_counter()
    fld = solved_field(constant_metric(), step_boundary())
    s0 = schwarz_quotient(fld, 0.0)
    assert s0 == pytest.approx(4 / math.pi, abs=1e-3)
    _stamp("C4 sharpness of 4/pi", started, 5.0)


# -- 5 ----------------------------------------------------------------------

def test_c05_oracle_equivalence():
    started = time.perf_counter()
    metrics = [cosine_metric(), exponential_metric(1.0)]
    for metric in metrics:
        boundaries = [random_smooth_boundary(seed, sample_count=2048)
                      for seed in range(5)]
        diffs = [oracle_sup_difference(metric, b, 201) for b in boundaries]
        assert max(diffs) <= 5e-3
        fine = oracle_sup_difference(metric, boundaries[0], 401)
        assert diffs[0] / fine >= 3.0
    _stamp("C5 oracle equivalence", started, 180.0)


# -- 6 ----------------------------------------------------------------------

def test_c06_diffeo_oracle():
    started = time.perf_counter()
    grid = np.linspace(-1 + 1e-4, 1 - 1e-4, 2001)
    worst = math.inf
    for seed in range(10_000):
        diffeo = generate_logconcave(seed, 2 + seed % 7)
        worst = min(worst, logconcave_diffeo_slack(diffeo, grid))
    assert worst >= -SLACK
    from schwarzlab.lemmas import LogConcaveDiffeo
    ident = LogConcaveDiffeo(np.array([-1.0, 1.0]), np.array([0.0, 0.0]))
    x = grid
    slack = ident.f_prime(x) * (1 - x * x) - (1 - ident.f(x) ** 2)
    assert np.max(np.abs(slack)) <= SLACK   # equality everywhere
    _stamp("C6 log-concave diffeomorphism oracle", started, 60.0)


# -- 7 ----------------------------------------------------------------------

def test_c07_proof_quantities():
    started = time.perf_counter()
    ks = np.linspace(20.0 / 200, 20.0, 200)[:, None]
    xs = np.linspace(0.0, 0.999, 200)[None, :]
    rr = r_ratio(ks, xs)
    assert np.max(rr) <= 1 + SLACK
    for x in (0.0, 0.5, 0.9):
        assert r_ratio(1e-4, x) == pytest.approx(1.0, abs=1e-6)
    dif = (1.0 - xs ** 2) * (rr - 1.0)
    assert np.max(dif) <= SLACK
    third = -2.0 * ks ** 2 / np.sinh(ks) * np.sinh(ks * xs)
    assert np.max(third) <= 0.0
    d = dif_diagnostics(3.0, np.linspace(0, 1, 500))
    assert d.anchor_dif_at_1 == pytest.approx(0.0, abs=1e-12)
    _stamp("C7 proof quantities", started, 10.0)


# -- 8 ----------------------------------------------------------------------

def test_c08_sharpness_sweep():
    started = time.perf_counter()
    _, _, _, ratios = psi_sweep(1000)
    assert np.all(np.diff(ratios) > 0)
    assert ratios[-1] > 0.99
    assert np.max(ratios) <= 1 + 1e-12
    _stamp("C8 sharpness sweep", started, 1.0)


# -- 9 ----------------------------------------------------------------------

def test_c09_half_plane_example():
    started = time.perf_counter()
    rep = run_halfplane_example()
    assert rep.computed["argmax_t"] == pytest.approx(-1.4771, abs=1e-3)
    assert rep.computed["max_quotient"] == pytest.approx(1.0482, abs=1e-3)
    assert rep.computed["pde_residual_exp_density"] <= 1e-4
    _stamp("C9 half-plane example", started, 5.0)


# -- 10 ---------------------------------------------------------------------

def test_c10_strip_example():
    started = time.perf_counter()
    rep = run_strip_example(1.0)
    assert rep.computed["flat_density_curvature"] <= 1e-4
    assert rep.computed["curvature_secant"] == pytest.approx(
        -math.pi ** 2 / 4, abs=1e-6)
    assert rep.computed["axis_max_imag"] <= 1e-12
    assert rep.computed["axis_in_interval"] == 1.0
    # normalization comparison recorded without a gate
    assert "origin_quotient" in rep.computed and "origin_quotient" not in rep.gated
    assert "strip_hyperbolic_density_on_axis" not in rep.gated
    assert rep.ungated_note
    _stamp("C10 strip example", started, 10.0)


# -- 11 ---------------------------------------------------------------------

def _even_quadratic(c):
    return Metric1D(-1.0, 1.0,
                    lambda u: c - np.asarray(u, float) ** 2,
                    lambda u: -2.0 * np.asarray(u, float),
                    lambda u: np.full_like(np.asarray(u, float), -2.0),
                    name=f"quadratic({c:g})")


def test_c11_unimodal_suite():
    started = time.perf_counter()
    metrics = [cosine_metric(), _even_quadratic(1.1), _even_quadratic(1.5),
               mollify(psi_family(1.0, 0.5), 0.05),
               mollify(psi_family(4.0, 1.0 / 3.0), 0.05)]
    for i, metric in enumerate(metrics):
        boundary = random_symmetric_boundary(100 + i)
        rep1, rep2 = check_unimodal_bounds(metric, boundary)
        assert rep1.applicable and rep1.passed and rep1.min_slack >= -SLACK
        assert rep2.applicable and rep2.passed and rep2.min_slack >= -SLACK
    # Euclidean case: the radial bound is attained along the imaginary axis
    fld = solved_field(constant_metric(), step_boundary())
    t = np.linspace(0.005, 0.95, 100)
    vals = fld.value_many(1j * t)
    assert np.max(np.abs(np.abs(vals) - 4 / math.pi * np.arctan(t))) <= 1e-3
    _stamp("C11 unimodal-metric suite", started, 60.0)


# -- 12 ---------------------------------------------------------------------

def test_c12_distance_contraction():
    started = time.perf_counter()
    families = [constant_metric(), cosine_metric(), exponential_metric(1.0),
                exponential_metric(-2.0), mollify(psi_family(0.5, 0.5), 0.05)]
    for i, metric in enumerate(families):
        boundary = random_smooth_boundary(200 + i)
        pairs = random_disk_pairs(300 + i, 1000)
        rep = check_distance_contraction(metric, boundary, pairs)
        assert rep.passed and rep.min_slack >= -SLACK
    _stamp("C12 distance contraction", started, 30.0)
