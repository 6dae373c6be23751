import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
from numpy.polynomial.legendre import leggauss
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schwarzlab import metrics
from schwarzlab.config import DEFAULT
from schwarzlab.bounds import _curvature_scan_grid
from schwarzlab.errors import (DomainError, InvalidInput, NonIntegrable,
                               NumericInversionFailure, OutOfRange,
                               ParameterOutOfRange)
from schwarzlab.lemmas import ConcaveTentMap, psi_family
from schwarzlab.metrics import (HTransform, Metric1D, constant_metric,
                                cosine_metric, curvature_at, exponential_metric,
                                half_plane_metric, hyperbolic_metric, inverse_H,
                                log_concavity_report, mass, metric_from_json,
                                mollified_density_exact, mollify, secant_metric,
                                tabulated_metric, tent_metric, transform_H,
                                transform_table)
from schwarzlab.quadrature import segments_gauss

INTERIOR = np.linspace(-0.97, 0.97, 99)


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------

def test_curvature_hyperbolic_closed_form():
    # -(1/R^2)(R'/R)' for R = 1/(1-u^2) is -2(1+u^2)
    m = hyperbolic_metric()
    for u in INTERIOR:
        assert curvature_at(m, u) == pytest.approx(-2.0 * (1 + u * u), abs=1e-10)


def test_curvature_constant_zero():
    assert curvature_at(constant_metric(), 0.37) == pytest.approx(0.0, abs=1e-15)


def test_curvature_secant():
    assert curvature_at(secant_metric(), 0.3) == pytest.approx(-math.pi ** 2 / 4, abs=1e-10)


def test_curvature_cosine_at_origin():
    # hand differentiation gives (pi^2/4) sec^4(pi u / 2)
    assert curvature_at(cosine_metric(), 0.0) == pytest.approx(math.pi ** 2 / 4, abs=1e-10)
    u = 0.4
    expected = math.pi ** 2 / 4 / math.cos(math.pi * u / 2) ** 4
    assert curvature_at(cosine_metric(), u) == pytest.approx(expected, rel=1e-10)


def test_curvature_numeric_path_agrees_with_analytic(difference_quotient_curvature):
    for m in (hyperbolic_metric(), cosine_metric(), exponential_metric(1.5),
              secant_metric()):
        for u in np.linspace(-0.9, 0.9, 33):
            a = curvature_at(m, u)
            n = difference_quotient_curvature(m, u)
            assert n == pytest.approx(a, abs=1e-6, rel=1e-6)


def test_curvature_outside_domain_raises():
    with pytest.raises(DomainError):
        curvature_at(cosine_metric(), 1.0)
    with pytest.raises(DomainError):
        curvature_at(half_plane_metric(), -0.5)


def _pointwise_curvature(metric, grid):
    """-(1/R^2)(R'/R)' one point at a time, in Python floats, with (R'/R)'
    in the family's closed form where it supplies one."""
    out = []
    for u in map(float, grid):
        R = float(metric.density(u))
        if metric.d2_log_density is not None:
            out.append((0.0 - float(metric.d2_log_density(u))) / (R * R))
            continue
        Rp, Rpp = float(metric.d_density(u)), float(metric.d2_density(u))
        out.append(-(Rpp / R - (Rp / R) ** 2) / (R * R))
    return np.array(out)


def _every_family():
    unit = np.linspace(-0.999, 0.999, 601)
    return [(constant_metric(), unit), (exponential_metric(1.5), unit),
            (exponential_metric(-2.0), unit), (cosine_metric(), unit),
            (hyperbolic_metric(), unit), (secant_metric(), unit),
            (half_plane_metric(), np.linspace(0.02, 20.0, 601)),
            (tent_metric(2.0, 0.3), unit),
            (tabulated_metric(np.linspace(-1, 1, 21),
                              1.0 + 0.5 * np.cos(np.linspace(-1, 1, 21))),
             np.linspace(-0.99, 0.99, 601)),
            (mollify(psi_family(0.5, 0.5), 0.05), unit)]


def test_curvature_array_matches_pointwise_loop():
    for metric, grid in _every_family():
        curv = curvature_at(metric, grid)
        assert curv.shape == grid.shape
        np.testing.assert_allclose(curv, _pointwise_curvature(metric, grid),
                                   rtol=1e-15, atol=0.0, err_msg=metric.name)
    assert isinstance(curvature_at(cosine_metric(), 0.3), float)


@pytest.mark.parametrize("make", [hyperbolic_metric, secant_metric, cosine_metric,
                                  lambda: exponential_metric(1.0)])
def test_a_point_rounds_as_it_does_inside_an_array(make):
    # a 0-d input makes numpy scalars, whose ** is libm pow, where an array's
    # ** 2 multiplies: every formula must take the array path at one point too
    metric = make()
    u = np.random.default_rng(3).uniform(-0.999, 0.999, 20000)
    for name in ("density", "d_density", "d2_density"):
        fn = getattr(metric, name)
        at_points = [float(fn(x)) for x in u.tolist()]
        assert np.array_equal(at_points, fn(u)), (metric.name, name)
    at_points = [curvature_at(metric, x) for x in u.tolist()]
    assert np.array_equal(at_points, curvature_at(metric, u)), metric.name


def test_curvature_array_checks_every_element():
    with pytest.raises(DomainError):
        curvature_at(cosine_metric(), np.array([0.0, 0.5, 1.0]))


def test_half_plane_curvature_identity():
    # -(log R)'' = (1/4) csch(x/2)^2, so K = that / R^2
    m = half_plane_metric()
    x = 2.0
    expected = 0.25 / math.sinh(1.0) ** 2 / float(m.density(x)) ** 2
    assert curvature_at(m, x) == pytest.approx(expected, rel=1e-9)


# ---------------------------------------------------------------------------
# mass and H
# ---------------------------------------------------------------------------

def test_mass_values():
    assert mass(constant_metric()) == pytest.approx(1.0, abs=1e-12)
    assert mass(cosine_metric()) == pytest.approx(2.0 / math.pi, abs=1e-12)
    assert mass(exponential_metric(1.0)) == pytest.approx(math.sinh(1.0), abs=1e-12)


def test_mass_divergent():
    with pytest.raises(NonIntegrable):
        mass(hyperbolic_metric())
    with pytest.raises(NonIntegrable):
        mass(secant_metric())


def _counted_density(base):
    """`base` with a density that records the size of each call."""
    calls = []

    def density(u):
        calls.append(np.size(u))
        return base.density(u)

    return dataclasses.replace(base, density=density), calls


def test_divergence_verdict_is_cached():
    m, calls = _counted_density(hyperbolic_metric())
    with pytest.raises(NonIntegrable) as first:
        mass(m)
    assert calls
    calls.clear()
    raised = []
    for call in (mass, transform_table, HTransform, mass):
        with pytest.raises(NonIntegrable) as info:
            call(m)
        raised.append(info.value)
    # a repeat verdict samples no density
    assert calls == []
    # each raise is a fresh exception carrying the cached message
    assert len({id(exc) for exc in raised + [first.value]}) == 5
    assert {str(exc) for exc in raised} == {str(first.value)}
    # the verdict is cached per quadrature tolerance, not per metric alone
    with pytest.raises(NonIntegrable):
        mass(m, tols=DEFAULT.replaced(quad_abs_tol=1e-10))
    assert calls


def _power_blowup(alpha):
    """R(u) = (1 - u)^(-alpha): mass 2^(1 - alpha) / (2 (1 - alpha)) for
    alpha < 1, and a dyadic slice ratio of exactly 2^(alpha - 1) toward 1."""
    return Metric1D(-1.0, 1.0, lambda u: (1.0 - np.asarray(u, float)) ** -alpha,
                    lambda u: alpha * (1.0 - np.asarray(u, float)) ** (-alpha - 1.0),
                    lambda u: alpha * (alpha + 1.0) *
                    (1.0 - np.asarray(u, float)) ** (-alpha - 2.0),
                    name=f"(1-u)^-{alpha:g}")


@pytest.mark.parametrize("alpha", [-1.0, -0.5, 0.5, 0.75, 0.9])
def test_power_blowup_mass_matches_the_closed_form(alpha):
    closed = 2.0 ** (1.0 - alpha) / (2.0 * (1.0 - alpha))
    assert abs(mass(_power_blowup(alpha)) - closed) <= 1e-14 * closed


@pytest.mark.parametrize("alpha", [1.0, 1.5, 3.0])
def test_power_blowup_diverges_from_alpha_one(alpha):
    with pytest.raises(NonIntegrable, match="failed to decay"):
        mass(_power_blowup(alpha))


def test_power_blowup_just_below_one_is_declared_divergent():
    # the mass is finite (100), but the slice ratio 2^-0.01 = 0.993 never
    # drops below the rule's 0.98, so the verdict goes the divergent way
    with pytest.raises(NonIntegrable, match="failed to decay"):
        mass(_power_blowup(0.99))


def test_transform_table_is_keyed_on_tolerances():
    m = cosine_metric()
    loose = DEFAULT.replaced(inverse_rel_tol=1e-2)
    assert transform_table(m, loose) is transform_table(m, DEFAULT.replaced(inverse_rel_tol=1e-2))
    assert transform_table(m, loose) is not transform_table(m, DEFAULT)
    assert transform_table(m, loose).tols == loose
    assert transform_table(m, DEFAULT).tols == DEFAULT


def test_transform_H_identity_for_euclidean():
    m = constant_metric()
    assert transform_H(m, 0.25) == pytest.approx(0.25, abs=1e-12)


def test_transform_H_closed_forms():
    assert transform_H(cosine_metric(), 0.5) == pytest.approx(math.sqrt(2) / math.pi, abs=1e-12)
    assert transform_H(exponential_metric(1.0), 0.0) == pytest.approx(1 - math.cosh(1.0), abs=1e-12)


def test_transform_H_endpoints_approach_mass():
    m = cosine_metric()
    r = mass(m)
    assert transform_H(m, 1.0 - 1e-12) == pytest.approx(r, abs=1e-9)
    assert transform_H(m, -1.0 + 1e-12) == pytest.approx(-r, abs=1e-9)


@settings(max_examples=20, deadline=None)
@given(st.floats(-0.98, 0.98), st.floats(-0.98, 0.98))
def test_transform_H_strictly_increasing(u1, u2):
    if abs(u1 - u2) < 1e-6:   # below quadrature resolution
        return
    m = exponential_metric(-1.2)
    lo, hi = sorted((u1, u2))
    assert transform_H(m, lo) < transform_H(m, hi)


def test_inverse_H_round_trip():
    m = cosine_metric()
    rng = np.random.default_rng(42)
    for u in rng.uniform(-0.99, 0.99, 100):
        t = transform_H(m, u)
        assert inverse_H(m, t) == pytest.approx(u, abs=1e-10)


def test_inverse_H_examples():
    assert inverse_H(constant_metric(), 0.3) == pytest.approx(0.3, abs=1e-12)
    assert inverse_H(cosine_metric(), math.sqrt(2) / math.pi) == pytest.approx(0.5, abs=1e-10)


def test_inverse_H_out_of_range():
    m = cosine_metric()
    r = mass(m)
    with pytest.raises(OutOfRange):
        inverse_H(m, r * 1.0001)


def test_inverse_contract_tolerance():
    m = exponential_metric(2.0)
    r = mass(m)
    for t in np.linspace(-0.95 * r, 0.95 * r, 17):
        u = inverse_H(m, t)
        assert abs(transform_H(m, u) - t) <= 1e-12 * r


# ---------------------------------------------------------------------------
# fast transform table
# ---------------------------------------------------------------------------

def test_table_matches_op():
    # the scalar oracle runs at a tighter quadrature tolerance: at the default
    # its own adaptive Simpson error reaches 4e-12 on the smoothed tents
    oracle = DEFAULT.replaced(quad_abs_tol=1e-14)
    u21 = np.linspace(-1.0, 1.0, 21)
    families = [cosine_metric(), exponential_metric(-2.0), exponential_metric(1.5),
                constant_metric(), tent_metric(2.0, 0.3), tent_metric(356.4, 0.05),
                tabulated_metric(u21, 1.0 + 0.5 * np.cos(u21)),
                tabulated_metric(u21, 1.1 - u21 * u21),
                _power_blowup(-0.5), _power_blowup(0.5)]
    families += [mollify(psi_family(a, s), 0.05) for a, s in TABLE_TENTS]
    us = np.linspace(-0.999, 0.999, 65)
    for m in families:
        tab = transform_table(m)
        exact = np.array([transform_H(m, float(u), tols=oracle) for u in us])
        assert np.max(np.abs(tab.h(us) - exact)) <= 1e-12, m.name


def test_table_masses_of_the_closed_forms():
    assert abs(mass(cosine_metric()) - 2.0 / math.pi) <= 1e-15
    assert abs(mass(exponential_metric(1.0)) - math.sinh(1.0)) <= 1e-15
    assert mass(constant_metric()) == 1.0
    # psi maps 1 to 1, and the knots put the tent corners on cell edges
    assert abs(mass(tent_metric(2.0, 0.3)) - 1.0) <= 1e-15


def test_end_cells_grade_as_deep_as_the_tolerance_asks():
    # cosine vanishes linearly at +-1, so the slices shrink fourfold; the
    # cells stop once the modelled tail is below quad_abs_tol / 4, and one
    # last cell carries that tail
    deep = transform_table(cosine_metric())
    assert 0.0 < 1.0 - deep._nodes[-2] < 1e-6
    assert np.array_equal(deep._nodes, -deep._nodes[::-1])
    loose = transform_table(cosine_metric(), DEFAULT.replaced(quad_abs_tol=1e-3))
    assert 1.0 - loose._nodes[-2] == 1.0 / 64
    assert 0.0 < abs(loose.r - 2.0 / math.pi) < 1e-3 / 4
    assert np.all(np.diff(loose.h(np.linspace(0.9, 1.0, 10001))) > 0)


@pytest.mark.parametrize("value", [2e12, 1e13, 1e14])
def test_mass_of_a_large_constant_is_the_constant(value):
    # the divergence verdict reads slice decay alone: the bound is invariant
    # under R -> cR, and no size of the mass is divergent by itself
    assert abs(mass(constant_metric(value)) - value) <= 2e-16 * value


def test_table_inverse_residual():
    m = cosine_metric()
    tab = transform_table(m)
    ts = np.linspace(-0.99, 0.99, 301) * tab.r
    us = tab.h_inv(ts)
    assert np.max(np.abs(tab.h(us) - ts)) <= 1e-12 * tab.r


def test_table_inverse_raises_when_newton_stalls():
    # a tolerance far below one rounding cannot be met everywhere: at a few
    # percent of the targets the residual stalls at one rounding, near 1e-16
    tab = HTransform(cosine_metric(), tols=DEFAULT.replaced(inverse_rel_tol=1e-300))
    with pytest.raises(NumericInversionFailure):
        tab.h_inv(np.linspace(-0.9, 0.9, 301) * tab.r)


def _linear_start(tab, t):
    """h_inv's first iterate: linear interpolation of H in the target's cell."""
    j = np.clip(np.searchsorted(tab._h_nodes, t), 1, len(tab._nodes) - 1)
    lo, hi = tab._nodes[j - 1], tab._nodes[j]
    h_lo, h_hi = tab._h_nodes[j - 1], tab._h_nodes[j]
    return lo, hi, lo + (hi - lo) * np.clip(
        (t - h_lo) / np.maximum(h_hi - h_lo, 1e-300), 0.0, 1.0)


def test_table_inverse_leaves_converged_points_alone(monkeypatch):
    # a point within target must not be moved again (it used to be bisected
    # half a cell away, so the loop ran ~30 rounds); one Newton round is one
    # evaluation of the cell polynomials
    tab = HTransform(mollify(psi_family(0.25, 0.6), 0.05))
    us = np.random.default_rng(0).uniform(-0.99, 0.99, 5000)
    ts = tab.h(us)
    rounds = []
    local = HTransform._local

    def counted(self, cell, u, slope=False):
        rounds.append(np.size(u))
        return local(self, cell, u, slope)

    monkeypatch.setattr(HTransform, "_local", counted)
    back = tab.h_inv(ts)
    monkeypatch.undo()
    assert 2 <= len(rounds) <= 4
    target = tab.tols.inverse_rel_tol * tab.r
    assert np.max(np.abs(tab.h(back) - ts)) <= target
    # on the flat wings H is linear, so the linear start already meets the
    # target there; those points come back exactly as they started
    _, _, start = _linear_start(tab, ts)
    met = np.abs(tab.h(start) - ts) <= 0.5 * target
    assert np.count_nonzero(met) >= 1000
    assert np.array_equal(back[met], start[met])


def _gauss_h(metric, tab, u):
    """H by a fresh 12-point Gauss sum from the cell edge to each point.

    The table's evaluation before it stored per-cell polynomials.
    """
    u = np.asarray(u, float)
    cell = np.clip(np.searchsorted(tab._nodes, u, side="right") - 1,
                   0, len(tab._nodes) - 2)
    local = segments_gauss(metric.density, tab._nodes[cell][:, None], u[:, None],
                           *leggauss(12))
    return tab._h_nodes[cell] + local


def _gauss_h_inv(metric, tab, t):
    """Bracketed Newton on `_gauss_h` with the density as the slope.

    The table's inversion before it stored per-cell polynomials.
    """
    lo, hi, u = _linear_start(tab, t)
    scale = max(-tab._h_nodes[0], tab._h_nodes[-1])
    live = np.arange(t.size)
    for _ in range(80):
        ul = u[live]
        res = _gauss_h(metric, tab, ul) - t[live]
        moving = ~(np.abs(res) <= tab.tols.inverse_rel_tol * scale)
        if not np.any(moving):
            return u
        live, ul, res = live[moving], ul[moving], res[moving]
        above = res > 0
        hl = np.where(above, ul, hi[live])
        ll = np.where(above, lo[live], ul)
        newton = ul - res / metric.density(ul)
        bad = ~np.isfinite(newton) | (newton <= ll) | (newton >= hl)
        u[live] = np.where(bad, 0.5 * (ll + hl), newton)
        lo[live], hi[live] = ll, hl
    raise AssertionError("reference inversion did not converge")


# the first two smoothed tents of the acceptance suite's certified list
TABLE_TENTS = [(0.25, 0.6), (0.5, 0.5)]


@pytest.fixture(scope="module")
def smooth_tables():
    """(metric, table) by name; a table keeps no reference to its metric."""
    tables = {name: (m, HTransform(m)) for name, m in [
        ("cosine", cosine_metric()), ("exponential(1)", exponential_metric(1.0)),
        ("exponential(-2)", exponential_metric(-2.0)), ("constant", constant_metric())]}
    for a, s in TABLE_TENTS:
        m = mollify(psi_family(a, s), 0.05)
        tables[f"tent({a}, {s})"] = m, HTransform(m)
    m = hyperbolic_metric()
    tables["hyperbolic range"] = m, HTransform(m, lo=-0.9, hi=0.9)
    return tables


def test_table_polynomials_match_the_gauss_sums(smooth_tables):
    rng = np.random.default_rng(3)
    for name, (metric, tab) in smooth_tables.items():
        lo, hi = tab._nodes[0], tab._nodes[-1]
        us = rng.uniform(lo, hi, 4000)
        assert np.max(np.abs(tab.h(us) - _gauss_h(metric, tab, us))) <= 1e-15, name
        ts = _gauss_h(metric, tab, rng.uniform(0.999 * lo, 0.999 * hi, 4000))
        assert np.max(np.abs(tab.h_inv(ts) - _gauss_h_inv(metric, tab, ts))) <= 1e-15, name
        # one (cells, 13) coefficient array beside the node arrays
        assert tab._coef.shape == (len(tab._nodes) - 1, 13)


def test_table_makes_no_density_call_after_the_build(smooth_tables):
    for name in ("cosine", "tent(0.5, 0.5)"):
        base, _ = smooth_tables[name]
        calls = []

        def density(u, _base=base):
            calls.append(np.size(u))
            return _base.density(u)

        tab = HTransform(dataclasses.replace(base, density=density))
        assert calls
        calls.clear()
        us = np.linspace(-0.99, 0.99, 301)
        tab.h_inv(tab.h(us))
        tab.h(us.reshape(7, 43))
        assert calls == [], name


def test_range_table_for_infinite_mass():
    m = hyperbolic_metric()
    tab = HTransform(m, lo=-0.9, hi=0.9)
    # its scale r is the half-span of H: atanh(0.9), where the mass is infinite
    assert tab.r == max(-tab._h_nodes[0], tab._h_nodes[-1])
    assert tab.r == pytest.approx(math.atanh(0.9), abs=1e-10)
    # H restricted to (-0.9, 0.9) is atanh up to the centering at 0
    us = np.linspace(-0.85, 0.85, 101)
    assert np.max(np.abs(tab.h(us) - np.arctanh(us))) < 1e-10
    ts = np.arctanh(np.linspace(-0.8, 0.8, 51))
    assert np.max(np.abs(tab.h_inv(ts) - np.tanh(ts))) < 1e-10


@settings(max_examples=25, deadline=None)
@given(lo=st.floats(-0.99, -0.01), hi=st.floats(0.01, 0.99))
def test_range_table_scale_is_its_half_span(lo, hi):
    tab = HTransform(hyperbolic_metric(), lo=lo, hi=hi)
    H_lo, H_hi = tab.h(np.array([lo, hi]))
    assert tab.r == pytest.approx(max(-H_lo, H_hi), rel=1e-13)
    assert tab.r == pytest.approx(max(math.atanh(-lo), math.atanh(hi)), rel=1e-10)
    us = np.linspace(lo, hi, 203)[1:-1]
    back = tab.h_inv(tab.h(us))
    assert np.max(np.abs(back - us)) <= 1e-10


@settings(max_examples=60, deadline=None)
@given(edges=st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=12, unique=True),
       points=st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=20))
def test_cell_of_is_the_clipped_search(edges, points):
    # the one cell lookup: the inner-edge search equals the clipped search of
    # all edges for every point, the edges themselves, +-inf and NaN, in one
    # cell as in many
    edges = np.sort(np.array(edges))
    u = np.concatenate([points, edges, [-math.inf, math.inf, math.nan]])
    clipped = np.clip(np.searchsorted(edges, u, side="right") - 1, 0, len(edges) - 2)
    assert np.array_equal(metrics._cell_of(edges, u), clipped)


def test_oracle_agrees_with_the_table_on_a_large_mass():
    # no size of the mass is divergent by itself, in the oracle as in the table
    m = constant_metric(2e12)
    tab = transform_table(m)
    assert tab.r == 2e12
    for u in (-0.7, 0.0, 0.3, 0.95):
        assert transform_H(m, u) == pytest.approx(tab.h(np.array([u]))[0],
                                                  rel=1e-12, abs=1e-3)
    for t in (-1.5e12, 0.0, 4e11, 1.9e12):
        assert inverse_H(m, t) == pytest.approx(tab.h_inv(np.array([t]))[0], abs=1e-11)


def test_both_tables_invert_strictly_inside_their_end_values():
    unit = HTransform(cosine_metric())
    assert unit.r == mass(cosine_metric())
    assert (unit._h_nodes[0], unit._h_nodes[-1]) == (-unit.r, unit.r)
    for tab in (unit, HTransform(hyperbolic_metric(), lo=-0.9, hi=0.9)):
        h_lo, h_hi = tab._h_nodes[0], tab._h_nodes[-1]
        assert tab.r == max(-h_lo, h_hi)
        inside = np.array([np.nextafter(h_lo, 0.0), 0.0, np.nextafter(h_hi, 0.0)])
        assert np.all(np.isfinite(tab.h_inv(inside)))
        for t in (h_lo, h_hi, np.inf):
            with pytest.raises(OutOfRange):
                tab.h_inv(np.array([t]))
    # a range table needs both ends
    with pytest.raises(DomainError):
        HTransform(hyperbolic_metric(), lo=-0.9)


# ---------------------------------------------------------------------------
# log-concavity reports
# ---------------------------------------------------------------------------

def test_log_concavity_cosine():
    rep = log_concavity_report(cosine_metric(), np.linspace(-0.999, 0.999, 999))
    assert rep.is_nonnegative
    assert rep.exp_majorant_ok


def test_log_concavity_hyperbolic():
    rep = log_concavity_report(hyperbolic_metric(), np.linspace(-0.999, 0.999, 999))
    assert not rep.is_nonnegative
    assert rep.min_curvature <= -2.0
    assert not rep.exp_majorant_ok


def test_log_concavity_constant_equality():
    rep = log_concavity_report(constant_metric(), np.linspace(-0.9, 0.9, 99))
    assert rep.min_curvature == pytest.approx(0.0, abs=1e-12)
    assert rep.exp_majorant_ok
    assert rep.majorant_min_slack == pytest.approx(0.0, abs=1e-12)


# the unsmoothed tents: K >= 0 between the corners, a negative atom at +-s
BARE_TENTS = [(2.0, 0.3), (81.0, 0.1), (0.5, 0.5)]


@pytest.mark.parametrize("a, s", BARE_TENTS)
@pytest.mark.parametrize("grid", [_curvature_scan_grid(),
                                  np.linspace(-1.0 + 2e-3, 1.0 - 2e-3, 999)],
                         ids=["scan-601", "curvature-999"])
def test_bare_tent_is_not_certified_on_any_grid(a, s, grid):
    # the verdict reads the atoms, not whether the grid meets a corner
    rep = log_concavity_report(tent_metric(a, s), grid)
    wing = -2.0 * a / (1.0 - a * s * s) ** 3
    assert not rep.is_nonnegative
    assert rep.min_curvature == -math.inf
    assert rep.worst_u == -s
    assert rep.negative_atoms == ((-s, wing), (s, wing))
    assert np.all(rep.curvature >= 0.0)


# smoothed tents whose mirror minima of K differ only by rounding: by
# 2.9e-13, 6.6e-13, 9.9e-12 and 2.4e-9 on the 601-point scan
SMOOTH_TENTS = [(0.25, 0.6), (0.5, 0.5), (4.0, 1.0 / 3.0), (81.0, 0.1)]


@pytest.mark.parametrize("a, s", SMOOTH_TENTS)
def test_worst_u_does_not_depend_on_the_grid_order(a, s):
    m = mollify(psi_family(a, s), 0.05)
    grid = _curvature_scan_grid()
    forward = log_concavity_report(m, grid)
    backward = log_concavity_report(m, grid[::-1])
    assert forward.min_curvature == backward.min_curvature
    # the smaller u of the two mirror minima
    assert forward.worst_u == backward.worst_u < 0.0


# ---------------------------------------------------------------------------
# mollification
# ---------------------------------------------------------------------------

class _IdentityMap:
    knots = (0.0, 1.0)

    def __call__(self, x):
        return np.asarray(x, float)

    def deriv(self, x):
        return np.ones_like(np.asarray(x, float))

    def second_deriv(self, x):
        return np.zeros_like(np.asarray(x, float))


def test_mollify_identity_gives_unit_density():
    m = mollify(_IdentityMap(), 0.1)
    grid = np.linspace(-0.99, 0.99, 101)
    assert np.max(np.abs(np.asarray(m.density(grid)) - 1.0)) < 1e-12


def test_smoothed_tent_spec_epsilon_reaches_down_to_the_spline_spacing():
    # epsilon >= 2/(table_points - 1) = 2/8192: the spacing itself is valid
    def spec(epsilon):
        return {"kind": "lemma_psi_family", "params": {"a": 2, "s": 0.3, "epsilon": epsilon}}

    assert metric_from_json(spec(2.0 / 8192)).name.endswith("eps=0.000244141)")
    for epsilon in (math.nextafter(2.0 / 8192, 0.0), 1e-300):
        with pytest.raises(ParameterOutOfRange, match="spline spacing"):
            metric_from_json(spec(epsilon))


def test_mollify_needs_the_derivative_and_knots():
    class NoDerivative:
        knots = (0.0, 1.0)

        def __call__(self, x):
            return np.asarray(x, float)

    class NoSecondDerivative(NoDerivative):
        def deriv(self, x):
            return np.ones_like(np.asarray(x, float))

    with pytest.raises(InvalidInput, match="deriv"):
        mollify(NoDerivative(), 0.1)
    with pytest.raises(InvalidInput, match="second_deriv"):
        mollify(NoSecondDerivative(), 0.1)
    with pytest.raises(InvalidInput, match="deriv"):
        mollify(lambda x: np.asarray(x, float), 0.1)


def test_mollify_even_and_positive():
    m = mollify(psi_family(4.0, 1.0 / 3.0), 0.05)
    grid = np.linspace(-0.98, 0.98, 301)
    d = np.asarray(m.density(grid), float)
    assert np.min(d) > 0
    assert np.max(np.abs(d - d[::-1])) < 1e-12


def test_mollify_normalization_is_exact():
    # reflection extension pins the smoothed map at +-1, so half-masses match
    m = mollify(psi_family(81.0, 0.1), 0.05)
    assert mass(m) == pytest.approx(1.0, abs=1e-9)
    tab = transform_table(m)
    assert abs(tab.h(np.array([0.0]))[0]) < 1e-12


def test_mollify_spline_matches_direct_convolution():
    psi = psi_family(1.0, 0.5)
    m = mollify(psi, 0.05)
    exact = mollified_density_exact(psi, 0.05)
    pts = np.random.default_rng(3).uniform(-0.99, 0.99, 200)
    assert np.max(np.abs(np.asarray(m.density(pts)) - exact(pts))) < 1e-10


def _reflected(psi_fn, x):
    """Extend an odd map on [-1, 1] to [-2, 2] by point reflection at (+-1, +-1)."""
    x = np.asarray(x, float)
    val = np.asarray(psi_fn(np.clip(x, -1.0, 1.0)), float)
    val = np.where(x > 1.0, 2.0 - np.asarray(psi_fn(np.clip(2.0 - x, -1.0, 1.0)), float), val)
    return np.where(x < -1.0, -2.0 - np.asarray(psi_fn(np.clip(-2.0 - x, -1.0, 1.0)), float),
                    val)


def _reflected_deriv(dpsi_fn, x):
    x = np.asarray(x, float)
    folded = np.where(x > 1.0, 2.0 - x, np.where(x < -1.0, -2.0 - x, x))
    return np.asarray(dpsi_fn(np.clip(folded, -1.0, 1.0)), float)


def _dense_convolution(fn, x, epsilon, cuts):
    """The convolution as one batch of every segment of every point: the reference."""
    x = np.asarray(x, float)
    flat = np.ravel(x)
    z_cuts = (flat[:, None] - cuts[None, :]) / epsilon
    z_cuts = np.concatenate(
        [z_cuts, np.broadcast_to(metrics._BUMP_SPLITS,
                                 (len(flat), len(metrics._BUMP_SPLITS)))], axis=1)
    z_cuts = np.clip(z_cuts, -1.0, 1.0)
    pts = np.concatenate([np.full((len(flat), 1), -1.0), np.sort(z_cuts, axis=1),
                          np.full((len(flat), 1), 1.0)], axis=1)
    nodes, weights = metrics._MOLLIFY_GL

    def integrand(z):
        return fn(flat[:, None, None] - epsilon * z) * metrics.bump(z)

    out = segments_gauss(integrand, pts[:, :-1], pts[:, 1:], nodes, weights)
    return out.reshape(x.shape)


def _convolution_cuts(psi):
    """Where the reflected derivative of psi breaks on [-2, 2]."""
    knots = np.asarray(psi.knots, float)
    return np.unique(np.concatenate([knots, -knots, 2.0 - knots, knots - 2.0]))


def _dense_density(psi, x, epsilon):
    """The dense Gauss convolution of the reflected derivative of psi: the oracle."""
    return _dense_convolution(lambda y: _reflected_deriv(psi.deriv, y), x, epsilon,
                              _convolution_cuts(psi))


def _ulp_of_max_R(psi, x):
    """One ulp of the largest value of R = psi' on the points x."""
    return np.spacing(np.max(np.abs(psi.deriv(np.asarray(x, float)))))


CONVOLVED_MAPS = [(psi_family(0.25, 0.6), 0.05), (psi_family(0.5, 0.5), 0.05),
                  (psi_family(81.0, 0.1), 0.05), (psi_family(4.0, 1.0 / 3.0), 0.05),
                  (psi_family(361.0, 0.05), 2e-4), (_IdentityMap(), 0.05)]
CONVOLVED_IDS = [f"{getattr(p, 'label', 'identity')}-{e:g}" for p, e in CONVOLVED_MAPS]


@pytest.mark.parametrize("psi, eps", CONVOLVED_MAPS, ids=CONVOLVED_IDS)
def test_live_segment_convolution_is_the_dense_sum(psi, eps):
    """The moment sum is the dense Gauss convolution within 8 ulp of max|R|
    (R = psi'), and needs no normalization: the dense convolution of the
    reflected map itself sends 1 to 1 within two roundings."""
    xs = np.linspace(-1.0, 1.0, 8193)
    got = mollified_density_exact(psi, eps)(xs)
    assert np.max(np.abs(got - _dense_density(psi, xs, eps))) <= 8 * _ulp_of_max_R(psi, xs)
    one = _dense_convolution(lambda y: _reflected(psi, y), np.array([1.0]), eps,
                             _convolution_cuts(psi))
    assert abs(one[0] - 1.0) <= 2 * np.finfo(float).eps


@pytest.mark.parametrize("psi", [p for p, _ in CONVOLVED_MAPS],
                         ids=[getattr(p, "label", "identity") for p, _ in CONVOLVED_MAPS])
def test_moment_sum_is_the_dense_sum_at_a_wide_kernel(psi):
    """At eps = 0.9 a point's kernel spans several knots.  The moments are
    differences of bump integrals of order 1, and the sum scales their
    roundings by eps * |R'|, so the bound adds eps * max|R'| * 2^-52 to the
    8 ulp of max|R|.  Only the sharp tents feel it: tent(361, 0.05) reads
    10.7 ulp of max|R|, where that term allows 20 more."""
    eps = 0.9
    xs = np.linspace(-1.0, 1.0, 8193)
    got = mollified_density_exact(psi, eps)(xs)
    slope = np.max(np.abs(psi.second_deriv(xs)))
    bound = 8 * _ulp_of_max_R(psi, xs) + eps * slope * np.finfo(float).eps
    assert np.max(np.abs(got - _dense_density(psi, xs, eps))) <= bound


@pytest.mark.parametrize("shape", [(1,), (1023,), (1024,), (1025,), (8193,), (37, 61), ()])
def test_live_segment_convolution_blocks_any_shape(shape):
    psi = psi_family(0.5, 0.5)
    xs = np.random.default_rng(11).uniform(-1.0, 1.0, shape)
    got = mollified_density_exact(psi, 0.05)(xs)
    assert got.shape == np.shape(xs)
    assert np.max(np.abs(got - _dense_density(psi, xs, 0.05)), initial=0.0) \
        <= 8 * _ulp_of_max_R(psi, np.linspace(-1.0, 1.0, 101))


def test_live_segment_convolution_keeps_nan_points_nan():
    psi = psi_family(0.5, 0.5)
    xs = np.array([-0.3, np.nan, 0.7])
    got = mollified_density_exact(psi, 0.05)(xs)
    assert np.isnan(got[1]) and np.all(np.isfinite(got[[0, 2]]))
    assert np.max(np.abs(got[[0, 2]] - _dense_density(psi, xs[[0, 2]], 0.05))) \
        <= 8 * _ulp_of_max_R(psi, xs[[0, 2]])


def test_mollified_identity_is_exactly_one():
    # a piece's moments telescope to the bump's unit mass, exactly where a
    # point's kernel meets one knot at a time
    xs = np.linspace(-1.0, 1.0, 8193)
    for eps in (0.05, 0.1):
        assert np.all(mollified_density_exact(_IdentityMap(), eps)(xs) == 1.0)
    m = mollify(_IdentityMap(), 0.1)
    assert np.all(m.density(np.linspace(-1.0, 1.0, 1001)) == 1.0)


class _SineMap:
    knots = (0.0, 1.0)

    def __call__(self, x):
        return np.sin(0.5 * np.pi * np.asarray(x, float))

    def deriv(self, x):
        return 0.5 * np.pi * np.cos(0.5 * np.pi * np.asarray(x, float))

    def second_deriv(self, x):
        return -0.25 * np.pi ** 2 * np.sin(0.5 * np.pi * np.asarray(x, float))


def test_mollify_rejects_a_derivative_that_is_not_affine_between_knots():
    with pytest.raises(InvalidInput, match="affine"):
        mollify(_SineMap(), 0.05)
    with pytest.raises(InvalidInput, match="affine"):
        mollified_density_exact(_SineMap(), 0.05)


def test_convolution_memory_stays_bounded_by_the_block():
    xs = np.linspace(-1.0, 1.0, 65537)
    tracemalloc.start()
    try:
        mollified_density_exact(psi_family(361.0, 0.05), 2e-4)(xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the dense all-segment sum peaked at 1624 MiB here
    assert peak <= 32 * 2 ** 20


def test_subnormal_epsilon_convolves_without_overflow():
    psi = psi_family(0.5, 0.5)
    xs = np.linspace(-1.0, 1.0, 2001)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        density = mollified_density_exact(psi, 1e-320)(xs)
    # a kernel this narrow leaves the derivative itself
    assert np.max(np.abs(density - psi.deriv(xs))) <= 1e-15


@pytest.mark.parametrize("a, s", [(0.25, 0.6), (0.5, 0.5), (81.0, 0.1), (4.0, 1.0 / 3.0)])
def test_mollified_curvature_is_the_splines_own(a, s, difference_quotient_curvature):
    from scipy.interpolate import CubicSpline
    psi = psi_family(a, s)
    m = mollify(psi, 0.05)
    nodes = np.linspace(-1.0, 1.0, 8193)
    spline = CubicSpline(nodes, mollified_density_exact(psi, 0.05)(nodes))
    u = np.linspace(-0.999, 0.999, 601)
    R, R1, R2 = spline(u), spline(u, 1), spline(u, 2)
    closed = -(R2 / R - (R1 / R) ** 2) / R ** 2
    scale = np.max(np.abs(closed))
    curv = curvature_at(m, u)
    np.testing.assert_allclose(curv, closed, rtol=1e-14, atol=1e-14 * scale)
    numeric = [difference_quotient_curvature(m, point) for point in u]
    np.testing.assert_allclose(numeric, curv, rtol=1e-7, atol=1e-7 * scale)


def _bit_equal(ours, ref):
    """Equal values, NaN where NaN, and the same sign of each zero."""
    return np.array_equal(ours, ref, equal_nan=True) and \
        np.array_equal(np.signbit(ours), np.signbit(ref))


def _oracle_points(nodes, seed):
    rng = np.random.default_rng(seed)
    return np.concatenate([rng.uniform(-1.2, 1.2, 20000), nodes, [-1.0, 1.0, np.nan]])


@pytest.mark.parametrize("a, s, eps, nodes", [
    (0.25, 0.6, 0.05, 8193), (0.5, 0.5, 0.05, 8193), (4.0, 1.0 / 3.0, 0.05, 8193),
    (81.0, 0.1, 0.05, 8193), (361.0, 0.05, 2e-4, 65537)])
def test_mollified_spline_is_scipys_not_a_knot_spline_bit_for_bit(a, s, eps, nodes):
    """Bit identity is pinned against scipy and LAPACK builds that compile
    without fused multiply-add contraction (such as the x86_64 wheels); a
    build that contracts a*b + c into one rounding differs in the last bits."""
    from scipy.interpolate import CubicSpline
    psi = psi_family(a, s)
    m = mollify(psi, eps, table_points=nodes)
    xs = np.linspace(-1.0, 1.0, nodes)
    ref = CubicSpline(xs, mollified_density_exact(psi, eps)(xs))
    u = _oracle_points(xs, nodes)
    assert _bit_equal(m.density(u), ref(u))
    assert _bit_equal(m.d_density(u), ref.derivative(1)(u))
    assert _bit_equal(m.d2_density(u), ref.derivative(2)(u))
    for point in (0.3, -1.0, xs[5], math.nan):   # a float gives a 0-d array
        assert _bit_equal(m.density(point), ref(point))
        assert _bit_equal(m.d_density(point), ref.derivative(1)(point))
        assert _bit_equal(m.d2_density(point), ref.derivative(2)(point))


def _pchip_cases():
    # the left end's three-point estimate turns negative, so its slope is 0
    yield [-1.0, 0.1, 1.0], [0.5, 0.6, 2.0]
    # a sign change, a zero secant (flat at two nodes), and Moler's 3 * m0 end
    yield [-1.0, -0.5, -0.4, 0.3, 1.0], [1.0, 1.2, 0.6, 0.6, 1.5]
    u = np.sin(np.linspace(-0.5 * np.pi, 0.5 * np.pi, 21))
    yield u, np.where(np.abs(u) < 0.3, 1.0, 1.0 + 0.5 * np.sin(6.0 * u))
    rng = np.random.default_rng(400)
    u = np.sort(np.concatenate([[-1.0, 1.0], rng.uniform(-1.0, 1.0, 398)]))
    # values rounded to 0.1 repeat, so some secants are exactly 0
    yield u, np.round(1.5 + np.cos(7.0 * u) + 0.05 * rng.standard_normal(400), 1)


@pytest.mark.parametrize("u, R", list(_pchip_cases()), ids=["3", "5", "21", "400"])
def test_tabulated_metric_is_scipys_pchip_bit_for_bit(u, R):
    """Pinned against scipy builds without fused multiply-add contraction,
    as the spline test above is."""
    from scipy.interpolate import PchipInterpolator
    m = tabulated_metric(u, R)
    ref = PchipInterpolator(u, R)
    x = _oracle_points(np.asarray(u), len(u))
    assert _bit_equal(m.density(x), ref(x))
    assert _bit_equal(m.d_density(x), ref.derivative(1)(x))
    assert _bit_equal(m.d2_density(x), ref.derivative(2)(x))


def test_tabulated_metric_copies_its_samples():
    u, R = np.linspace(-1.0, 1.0, 5), np.full(5, 2.0)
    m = tabulated_metric(u, R)
    R[:] = 1.0
    assert float(m.density(0.1)) == 2.0
    assert u.flags.writeable


@pytest.mark.parametrize("R", [[1.0, np.nan, 1.0], [1.0, np.inf, 1.0]])
def test_tabulated_metric_rejects_non_finite_samples(R):
    with pytest.raises(InvalidInput):
        tabulated_metric([-1.0, 0.0, 1.0], R)


def test_mollify_converges_to_tent_derivative():
    psi = psi_family(81.0, 0.1)
    grid = np.linspace(-0.9999, 0.9999, 4001)
    sups = []
    for eps in (0.1, 0.05, 0.025):
        m = mollify(psi, eps)
        sups.append(np.max(np.abs(np.asarray(m.density(grid)) - psi.deriv(grid))))
    assert sups[0] / sups[1] >= 1.5
    assert sups[1] / sups[2] >= 1.5


def test_mollify_smoothness_no_grid_scale_oscillation():
    # second differences at sub-kernel spacing stay tame (no oscillation)
    m = mollify(psi_family(1.0, 0.5), 0.05)
    x = np.linspace(-0.8, 0.8, 2001)
    d = np.asarray(m.density(x), float)
    second = np.diff(d, 2)
    assert np.max(np.abs(second)) < 1e-3  # h^2 * max|R''| with h = 8e-4


def test_mollify_rejects_bad_input():
    with pytest.raises(InvalidInput):
        mollify(lambda x: 0.5 * np.asarray(x, float), 0.1)  # psi(1) != 1
    with pytest.raises(InvalidInput):
        # not odd
        mollify(lambda x: 0.5 * (np.asarray(x, float) + 1.0) ** 2 - 1.0, 0.1)
    with pytest.raises(InvalidInput):
        mollify(_IdentityMap(), 1.5)  # epsilon outside (0, 1)


@pytest.mark.parametrize("points", [1, 2, 3, 4.0, True, "8193"])
def test_mollify_takes_an_integer_table_of_at_least_4_points(points):
    # 2 and 3 points would be a line or a parabola rather than a spline
    with pytest.raises(InvalidInput):
        mollify(psi_family(0.5, 0.5), 0.05, table_points=points)
    m = mollify(psi_family(0.5, 0.5), 0.05, table_points=np.int64(4))
    assert len(m.knots) == 2


def test_tent_metric_is_the_tent_map_derivative():
    a, s = 2.0, 0.3
    u0 = a * s * s
    x = np.linspace(-1.0, 1.0, 100001)
    m = tent_metric(a, s)
    closed = np.where(np.abs(x) < s, (1.0 + 2.0 * a * s - u0) - 2.0 * a * np.abs(x),
                      1.0 - u0)
    assert np.array_equal(m.density(x), closed)
    assert np.array_equal(m.density(x), ConcaveTentMap(a, s).deriv(x))
    assert np.array_equal(m.d_density(x),
                          np.where(np.abs(x) < s, -2.0 * a * np.sign(x), 0.0))
    assert np.array_equal(m.d2_density(x), np.zeros_like(x))
    wing = -2.0 * a / (1.0 - u0) ** 3
    assert m.atoms == ((-s, wing), (0.0, 4.0 * a / (1.0 + 2.0 * a * s - u0) ** 3), (s, wing))
    assert m.name == "tent(a=2, s=0.3)"


@pytest.mark.parametrize("a, s", BARE_TENTS)
def test_tent_atoms_are_the_jumps_of_one_sided_difference_quotients(a, s):
    # K = -(1/R^2)(R'/R)' puts -(jump of R')/R^3 on a corner
    m = tent_metric(a, s)
    h = 1e-6
    assert [u for u, _ in m.atoms] == list(m.knots)
    for u, atom in m.atoms:
        R = float(m.density(u))
        right = (float(m.density(u + h)) - R) / h
        left = (R - float(m.density(u - h))) / h
        assert atom == pytest.approx(-(right - left) / R ** 3, rel=1e-6)


def test_tent_metric_parameter_validation():
    with pytest.raises(ParameterOutOfRange):
        tent_metric(5.0, 0.5)  # a s^2 = 1.25 >= 1
    with pytest.raises(ParameterOutOfRange):
        tent_metric(1.0, 1.2)


@pytest.mark.parametrize("make", [
    lambda: tent_metric(1e300, 1e-151),         # the peak atom 4a/R(0)^3 overflows
    lambda: tent_metric(1.7e308, 7.6e-155),     # R(0)^2 overflows
    lambda: mollify(psi_family(1e300, 1e-151), 0.05),
    lambda: constant_metric(1e-320),
    lambda: constant_metric(1e-160),            # R^2 is subnormal
    lambda: constant_metric(1e200),
    lambda: tabulated_metric([-1.0, 0.0, 1.0], [1e-320] * 3),
    lambda: tabulated_metric([-1.0, 0.0, 1.0], [1.0, 1e160, 1.0]),
], ids=["tent-atom", "tent-peak", "smoothed-tent", "constant-1e-320",
        "constant-1e-160", "constant-1e200", "tabulated-1e-320", "tabulated-1e160"])
def test_density_whose_square_leaves_the_normal_floats_is_refused(make):
    with pytest.raises(ParameterOutOfRange):
        make()


def test_densities_at_the_edge_of_the_normal_squares_build():
    tiny, huge = math.sqrt(np.finfo(float).tiny), math.sqrt(np.finfo(float).max)
    for value in (tiny, huge):
        m = constant_metric(value)
        assert curvature_at(m, 0.5) == 0.0
    tabulated_metric([-1.0, 0.0, 1.0], [tiny, 1.0, huge])


@pytest.mark.parametrize("c", [1.0, -1.0, 10.0, -10.0, 30.0, 350.0, -350.0])
def test_exponential_metrics_are_exactly_flat(c):
    # K = -(log R)''/R^2 with (log R)'' = 0 in closed form: no cancellation
    # of R''/R against (R'/R)^2, and no -0
    m = exponential_metric(c)
    grid = _curvature_scan_grid()
    curv = curvature_at(m, grid)
    assert np.all(curv == 0.0) and not np.any(np.signbit(curv))
    point = curvature_at(m, 0.3)
    assert point == 0.0 and not math.copysign(1.0, point) < 0
    report = log_concavity_report(m, grid)
    assert report.min_curvature == 0.0 and report.is_nonnegative


# ---------------------------------------------------------------------------
# families from JSON
# ---------------------------------------------------------------------------

def test_metric_from_json_kinds():
    assert metric_from_json({"kind": "constant"}).name == "constant(1)"
    assert metric_from_json({"kind": "exponential", "params": {"c": 2.0}}).name == "exponential(2)"
    m = metric_from_json({"kind": "tabulated", "u": [-1, -0.5, 0, 0.5, 1],
                          "R": [1.0, 1.2, 1.3, 1.2, 1.0]})
    assert float(m.density(0.0)) == pytest.approx(1.3)
    mm = metric_from_json({"kind": "lemma_psi_family",
                           "params": {"a": 1.0, "s": 0.5, "epsilon": 0.1}})
    assert mm.name.startswith("mollified")


def test_metric_from_json_rejects_unknown():
    with pytest.raises(InvalidInput):
        metric_from_json({"kind": "nope"})
    with pytest.raises(InvalidInput):
        metric_from_json({"params": {}})


@pytest.mark.parametrize("spec", [
    {"kind": "tabulated", "params": {"u": [-1, 0, 1], "R": [1, 2, 1]}},
    {"kind": "tabulated", "u": [-1, 0, 1], "params": {"R": [1, 2, 1]}},
], ids=["params", "mixed"])
def test_tabulated_spec_reads_u_and_R_at_the_top_level_only(spec):
    with pytest.raises(InvalidInput, match="top-level 'u' and 'R'"):
        metric_from_json(spec)


def test_tabulated_monotone_positive():
    u = np.linspace(-1, 1, 21)
    R = 1.0 + 0.5 * np.cos(u)
    m = tabulated_metric(u, R)
    grid = np.linspace(-0.95, 0.95, 50)
    assert np.all(np.asarray(m.density(grid)) > 0)
    with pytest.raises(InvalidInput):
        tabulated_metric([0, 1], [1, 1])


def test_nonneg_curvature_families_have_finite_mass():
    families = [constant_metric(), cosine_metric(), exponential_metric(2.0),
                exponential_metric(-1.0), mollify(psi_family(1.0, 0.5), 0.05)]
    for m in families:
        assert math.isfinite(mass(m))
