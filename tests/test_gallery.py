import math

import numpy as np
import pytest

from schwarzlab.gallery import (_strip_dphi, _strip_phi, _strip_phi_inverse,
                                _zero_curvature_majorant, run_halfplane_example,
                                run_negative_curvature_example,
                                run_strip_example, run_zero_curvature_example)


def test_negative_curvature_example():
    rep = run_negative_curvature_example(3)
    assert rep.passed
    assert rep.bound_violated
    assert rep.computed["schwarz_quotient_origin"] == pytest.approx(3.0, abs=1e-9)
    assert rep.computed["curvature_at_0"] == pytest.approx(-2.0, abs=1e-10)
    assert abs(rep.computed["pde_residual"]) <= 1e-4


def test_negative_curvature_n1_respects_bound():
    rep = run_negative_curvature_example(1)
    assert rep.passed
    assert not rep.bound_violated   # 1 < 4/pi


def test_negative_curvature_gradient_value():
    rep = run_negative_curvature_example(5)
    assert rep.computed["gradient_at_0.2"] == pytest.approx(
        5.0 / math.cosh(1.0) ** 2, abs=1e-9)


def test_zero_curvature_example():
    rep = run_zero_curvature_example(1.0)
    assert rep.passed
    assert not rep.bound_violated
    assert rep.computed["max_abs_curvature"] <= 1e-10
    assert rep.computed["majorant_chain_min_slack"] >= -1e-9
    assert rep.computed["solved_min_slack"] >= -1e-9
    assert rep.computed["c_to_0_limit_dev"] <= 1e-6
    assert rep.computed["c_to_0_limit_dev_at_1e-4"] <= 1e-5


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("c", [1e-12, -1e-12])
def test_zero_curvature_majorant_at_a_small_rate_meets_its_limit(c):
    # the c -> 0 limit of the majorant is the Euclidean bound (4/pi) cos(pi f / 2)
    f = np.linspace(-0.99, 0.99, 1981)
    limit = 4.0 / math.pi * np.cos(0.5 * math.pi * f)
    assert np.max(np.abs(_zero_curvature_majorant(c, f, 1.0) - limit)) <= 1e-12


def test_strip_example():
    rep = run_strip_example(1.0)
    assert rep.passed
    assert rep.computed["curvature_secant"] == pytest.approx(-math.pi ** 2 / 4, abs=1e-6)
    assert rep.computed["flat_density_curvature"] <= 1e-4
    assert rep.computed["density_identity_error"] <= 1e-10
    assert rep.computed["axis_max_imag"] <= 1e-12
    assert rep.computed["axis_in_interval"] == 1.0
    # convention comparison is recorded, not gated
    assert "origin_quotient" not in rep.gated
    assert rep.computed["origin_quotient"] == pytest.approx(4 / math.pi, abs=1e-9)
    assert rep.computed["strip_hyperbolic_density_on_axis"] == pytest.approx(
        math.pi / 4, abs=1e-12)
    assert rep.ungated_note


def test_strip_inverse_round_trip_in_the_strip():
    # phi' reaches 56 near v = +-3, where it amplifies the rounding of z
    # itself: the residual is measured against max(1, |phi'(z)|)
    u, v = np.meshgrid(np.linspace(-0.9, 0.9, 91), np.linspace(-3.0, 3.0, 121))
    w = u + 1j * v
    z = _strip_phi_inverse(w)
    assert np.all(np.abs(z.real) < 1.0)
    scale = np.maximum(1.0, np.abs(_strip_dphi(z)))
    assert np.max(np.abs(_strip_phi(z) - w) / scale) <= 2e-15


def test_strip_inverse_returns_the_axis():
    # the run's 50 axis points; phi' falls to 0.018 at y = +-3, which
    # amplifies the rounding of phi(iy) in the inverse
    y = np.linspace(-3.0, 3.0, 50)
    back = _strip_phi_inverse(_strip_phi(1j * y))
    assert np.max(np.abs(back - 1j * y) * np.abs(_strip_dphi(1j * y))) <= 1e-15


def test_strip_example_scales_with_k():
    rep = run_strip_example(2.5)
    assert rep.computed["origin_quotient"] == pytest.approx(10 / math.pi, abs=1e-9)


def test_halfplane_example():
    rep = run_halfplane_example()
    assert rep.passed
    assert rep.bound_violated  # the quotient exceeds 1: not a contraction
    assert rep.computed["argmax_t"] == pytest.approx(-1.4771, abs=1e-3)
    assert rep.computed["max_quotient"] == pytest.approx(1.0482, abs=1e-3)
    # value comparisons tie below sqrt(eps) at the flat peak, so any search
    # localizes the abscissa only to ~1e-7 (the second scan's spacing is 5e-7)
    assert rep.computed["argmax_t"] == pytest.approx(-1.477148645932031, abs=1e-6)
    assert rep.computed["max_quotient"] == pytest.approx(1.0482337856229886, abs=1e-12)
    assert rep.computed["curvature_identity_error"] <= 1e-10
    assert rep.computed["pde_residual_exp_density"] <= 1e-4
    # with the density taken as R itself the closed form does NOT solve
    assert rep.computed["pde_residual_R_density"] > 0.1
    assert rep.computed["bracket_edge_max"] < rep.computed["max_quotient"]


def test_example_report_serialization():
    rep = run_negative_curvature_example(2)
    payload = rep.to_json_dict()
    assert payload["name"] == "negative-curvature"
    assert payload["bound_violated"]
    assert set(payload["discrepancies"]) >= set(payload["gated"])
