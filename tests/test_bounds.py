import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schwarzlab.bounds import (BoundReport, check_distance_contraction,
                               check_gradient_bound, check_unimodal_bounds,
                               chen_rhs, cos_quadratic_majorant_check,
                               hyperbolic_distance, mobius_automorphism,
                               random_disk_pairs, ring_grid, schwarz_quotient)
from schwarzlab.cli import _write_csv
from schwarzlab.config import DEFAULT
from schwarzlab.errors import OutsideDisk
from schwarzlab.harmonic import (BoundaryData, analytic_field,
                                 constant_boundary, euclidean_field,
                                 poisson_gradient, poisson_values,
                                 random_smooth_boundary,
                                 random_symmetric_boundary, solved_field,
                                 step_boundary)
from schwarzlab.metrics import (constant_metric, cosine_metric,
                                exponential_metric, hyperbolic_metric, mollify,
                                tabulated_metric)
from schwarzlab.lemmas import psi_family


def _tanh_field(n):
    return analytic_field(
        lambda x, y: np.tanh(n * np.asarray(x, float)),
        lambda x, y: (n / np.cosh(n * np.asarray(x, float)) ** 2,
                      np.zeros_like(np.asarray(y, float))))


# ---------------------------------------------------------------------------
# pointwise quantities
# ---------------------------------------------------------------------------

def test_schwarz_quotient_tanh():
    m = hyperbolic_metric()
    for n in range(1, 11):
        assert schwarz_quotient(m, _tanh_field(n), 0.0) == pytest.approx(n, abs=1e-12)


def test_schwarz_quotient_constant_field_zero():
    fld = analytic_field(lambda x, y: np.full_like(np.asarray(x, float), 0.1),
                         lambda x, y: (np.zeros_like(np.asarray(x, float)),) * 2)
    assert schwarz_quotient(None, fld, 0.3 + 0.2j) == 0.0


def test_schwarz_quotient_euclidean_extremal():
    fld = euclidean_field(step_boundary())
    assert schwarz_quotient(None, fld, 0.0) == pytest.approx(4 / math.pi, abs=1e-4)


def test_chen_rhs_values():
    assert chen_rhs(0.0, 0.0) == pytest.approx(4 / math.pi)
    assert chen_rhs(1.0 - 1e-12, 0.3) == pytest.approx(0.0, abs=1e-9)
    with pytest.raises(OutsideDisk):
        chen_rhs(0.0, 1.1)


def test_chen_dominates_step_extension():
    b = step_boundary()
    rng = np.random.default_rng(0)
    worst = math.inf
    for _ in range(300):
        z = 0.95 * math.sqrt(rng.uniform()) * np.exp(2j * math.pi * rng.uniform())
        g = poisson_values(b, np.array([z]))[0]
        grad = np.hypot(*poisson_gradient(b, z))
        worst = min(worst, chen_rhs(g, z) - grad)
    assert worst >= -1e-9


def test_cos_quadratic_majorant():
    assert cos_quadratic_majorant_check([0.0]) == pytest.approx(0.0, abs=1e-15)
    assert cos_quadratic_majorant_check([1.0]) == pytest.approx(0.0, abs=1e-15)
    assert cos_quadratic_majorant_check([0.5]) == pytest.approx(
        0.75 - math.cos(math.pi / 4), abs=1e-12)
    # float cos(pi/2) is ~6e-17, so the dense scan bottoms out there
    assert cos_quadratic_majorant_check(np.linspace(0, 1, 10001)) >= -1e-12


def test_hyperbolic_distance_basics():
    assert hyperbolic_distance(0, 0.5) == pytest.approx(math.atanh(0.5), abs=1e-15)
    assert hyperbolic_distance(0.3 + 0.1j, 0.3 + 0.1j) == 0.0
    with pytest.raises(OutsideDisk):
        hyperbolic_distance(0, 1.0)


def test_hyperbolic_distance_arrays():
    pairs = random_disk_pairs(3, 50, 0.95)
    d = hyperbolic_distance(pairs[:, 0], pairs[:, 1])
    assert d.shape == (50,)
    assert np.array_equal(d, [hyperbolic_distance(z, w) for z, w in pairs])
    with pytest.raises(OutsideDisk):
        hyperbolic_distance(pairs[:, 0], np.append(pairs[1:, 1], 1.0))


@settings(max_examples=50, deadline=None)
@given(st.floats(0, 0.85), st.floats(0, 2 * math.pi), st.floats(0, 0.85),
       st.floats(0, 2 * math.pi), st.floats(0, 0.85), st.floats(0, 2 * math.pi),
       st.floats(0, 2 * math.pi))
def test_hyperbolic_distance_mobius_invariance(r1, t1, r2, t2, ra, ta, phi):
    z = r1 * np.exp(1j * t1)
    w = r2 * np.exp(1j * t2)
    T = mobius_automorphism(ra * np.exp(1j * ta), phi)
    assert hyperbolic_distance(T(z), T(w)) == pytest.approx(
        hyperbolic_distance(z, w), abs=1e-12)


# ---------------------------------------------------------------------------
# gradient bound
# ---------------------------------------------------------------------------

def test_gradient_bound_cosine_random_boundaries():
    m = cosine_metric()
    for seed in range(5):
        rep = check_gradient_bound(m, random_smooth_boundary(seed))
        assert rep.passed
        assert rep.extras["chain_checked"]
        assert rep.extras["chain_harmonic_min_slack"] >= -1e-9
        assert rep.extras["chain_cosine_min_slack"] >= -1e-9
        assert rep.extras["chain_diffeo_min_slack"] >= -1e-9


def test_gradient_bound_step_equality_at_origin():
    # classical sharp case: slack tends to zero at the origin
    m = constant_metric()
    grid = np.array([1e-9 + 0j, 0.3 + 0.1j])
    rep = check_gradient_bound(m, step_boundary(), grid)
    assert rep.passed
    assert rep.slack[0] <= 1e-3


def test_gradient_bound_hyperbolic_fails_by_design():
    m = hyperbolic_metric()
    b = BoundaryData(lambda th: np.tanh(3 * np.cos(th)))
    grid = np.concatenate([[1e-9 + 0j], ring_grid()])
    rep = check_gradient_bound(m, b, grid)
    assert not rep.passed
    assert rep.min_slack == pytest.approx(4 / math.pi - 3.0, abs=1e-6)
    assert abs(rep.worst_point) < 1e-6
    assert rep.warnings


def test_gradient_bound_mollified_tent_certified_pair():
    m = mollify(psi_family(0.5, 0.5), 0.05)
    rep = check_gradient_bound(m, random_smooth_boundary(12))
    assert rep.passed
    # not log-concave: the chain is recorded but explicitly not certified
    assert not rep.extras["chain_checked"]
    assert rep.warnings


def test_bound_checks_scan_a_metric_once(monkeypatch):
    import schwarzlab.bounds as bounds
    scanned = []
    scan = bounds.log_concavity_report

    def counting_scan(metric, *args, **kwargs):
        scanned.append(metric)
        return scan(metric, *args, **kwargs)

    monkeypatch.setattr(bounds, "log_concavity_report", counting_scan)
    m = mollify(psi_family(0.25, 0.6), 0.05)
    b = random_smooth_boundary(12)
    gradient = check_gradient_bound(m, b)
    distance = check_distance_contraction(m, b, random_disk_pairs(0, 50))
    assert scanned == [m]
    assert gradient.extras["min_curvature"] == distance.extras["min_curvature"] < 0
    assert not bounds._curvature_scan(m, DEFAULT).curvature.flags.writeable


def test_gradient_bound_mollified_sharp_pair_chain_breaks():
    # the diffeo link genuinely fails for sharp tents once values cross the
    # affine tail; the 4/pi bound itself may or may not survive
    m = mollify(psi_family(81.0, 0.1), 0.05)
    rep = check_gradient_bound(m, random_smooth_boundary(12))
    assert not rep.extras["chain_checked"]
    assert rep.extras["chain_diffeo_min_slack"] < 0


# ---------------------------------------------------------------------------
# unimodal bounds
# ---------------------------------------------------------------------------

def test_unimodal_bounds_even_quadratic():
    u = np.linspace(-1, 1, 41)
    m = tabulated_metric(u, 1.1 - u * u)
    b = random_symmetric_boundary(7)
    r1, r2 = check_unimodal_bounds(m, b)
    assert r1.applicable and r1.passed
    assert r2.applicable and r2.passed


def test_unimodal_bounds_not_applicable_for_offcenter_boundary():
    m = cosine_metric()
    b = constant_boundary(0.4)
    r1, r2 = check_unimodal_bounds(m, b)
    assert r1.applicable
    assert not r2.applicable  # f(0) != 0
    assert r2.warnings


def test_unimodal_bounds_not_applicable_for_nonunimodal_metric():
    u = np.linspace(-1, 1, 41)
    m = tabulated_metric(u, 1.1 + u * u)   # increasing away from 0
    r1, r2 = check_unimodal_bounds(m, random_symmetric_boundary(1))
    assert not r1.applicable
    assert not r2.applicable


def test_unimodal_trivial_constant_zero_boundary():
    m = cosine_metric()
    b = constant_boundary(0.0)
    r1, r2 = check_unimodal_bounds(m, b)
    assert r1.passed and np.max(r1.lhs) < 1e-12
    assert r2.passed


# ---------------------------------------------------------------------------
# distance contraction
# ---------------------------------------------------------------------------

def test_distance_contraction_cosine():
    rep = check_distance_contraction(cosine_metric(), random_smooth_boundary(2),
                                     random_disk_pairs(0, 1000))
    assert rep.passed


def test_distance_contraction_makes_one_value_pass(monkeypatch):
    import schwarzlab.harmonic as harmonic
    metric, boundary = cosine_metric(), random_smooth_boundary(2)
    pairs = random_disk_pairs(5, 300)
    field = solved_field(metric, boundary)
    fz, fw = field.value_many(pairs[:, 0]), field.value_many(pairs[:, 1])
    sizes = []
    original = harmonic.poisson_values

    def counted(b, z):
        sizes.append(np.size(z))
        return original(b, z)

    monkeypatch.setattr(harmonic, "poisson_values", counted)
    rep = check_distance_contraction(metric, boundary, pairs)
    assert sizes == [600]
    expected = np.arctanh(np.abs(fz - fw) / np.abs(1.0 - fz * fw))
    assert np.max(np.abs(rep.lhs - expected)) <= 1e-14


def test_distance_contraction_identical_points():
    pairs = np.array([[0.3 + 0.2j, 0.3 + 0.2j]])
    rep = check_distance_contraction(constant_metric(), step_boundary(), pairs)
    assert rep.lhs[0] == 0.0
    assert rep.rhs[0] == 0.0


def test_distance_contraction_step_infinitesimal_equality():
    # pairs shrinking toward the origin along the imaginary axis (where the
    # step extremal grows) approach the extremal gradient case
    eps_pairs = np.array([[1j * t, -1j * t] for t in (0.05, 0.01, 0.002)], complex)
    rep = check_distance_contraction(constant_metric(), step_boundary(), eps_pairs)
    ratios = rep.lhs / rep.rhs
    assert rep.passed
    assert np.all(np.diff(ratios) > 0)        # tightens toward equality
    assert ratios[-1] > 0.999


# ---------------------------------------------------------------------------
# invariance of the quotient
# ---------------------------------------------------------------------------

def test_schwarz_quotient_mobius_invariance():
    m = cosine_metric()
    fld = solved_field(m, random_smooth_boundary(4))
    T = mobius_automorphism(0.25 - 0.15j, 0.7)

    def composed_value(x, y):
        return fld.value_many(T(np.asarray(x, float) + 1j * np.asarray(y, float)))

    h = 1e-6

    def composed_grad(x, y):
        z = np.asarray(x, float) + 1j * np.asarray(y, float)
        fx = (fld.value_many(T(z + h)) - fld.value_many(T(z - h))) / (2 * h)
        fy = (fld.value_many(T(z + 1j * h)) - fld.value_many(T(z - 1j * h))) / (2 * h)
        return fx, fy

    comp = analytic_field(composed_value, composed_grad)
    rng = np.random.default_rng(8)
    for _ in range(10):
        z = 0.7 * math.sqrt(rng.uniform()) * np.exp(2j * math.pi * rng.uniform())
        lhs = schwarz_quotient(m, comp, z)
        rhs = schwarz_quotient(m, fld, complex(T(z)))
        assert lhs == pytest.approx(rhs, abs=1e-6, rel=1e-6)


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

def test_report_json_and_csv(tmp_path):
    rep = check_gradient_bound(cosine_metric(), random_smooth_boundary(0),
                               ring_grid(4, 8, 0.9))
    _write_csv(tmp_path / "rep.csv", ["z_re", "z_im", "lhs", "rhs", "slack"],
               [rep.z.real, rep.z.imag, rep.lhs, rep.rhs, rep.slack])
    payload = rep.to_json_dict()
    assert payload["passed"]
    rows = np.loadtxt(tmp_path / "rep.csv", delimiter=",", skiprows=1)
    assert rows.shape == (32, 5)
    assert np.allclose(rows[:, 4], rows[:, 3] - rows[:, 2], atol=1e-15)


def test_report_requires_points():
    with pytest.raises(ValueError):
        BoundReport("empty", np.array([]), np.array([]), np.array([]))


def test_coarse_boundary_sampling_warns_without_changing_verdicts():
    m = cosine_metric()
    pairs = random_disk_pairs(0, 200, 0.95)

    def reports(samples):
        b = step_boundary(sample_count=samples)
        return [check_gradient_bound(m, b), *check_unimodal_bounds(m, b),
                check_distance_contraction(m, b, pairs)]

    def sampling(rep):
        return [w for w in rep.warnings if "boundary samples are too few" in w]

    coarse = reports(64)
    for rep in coarse:
        assert len(sampling(rep)) == 1
    assert "gradient alias bound 8.72" in sampling(coarse[0])[0]
    # the warning does not gate: the coarse gradient report still fails
    assert not coarse[0].passed
    assert not any(sampling(rep) for rep in reports(1024))
