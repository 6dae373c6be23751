import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schwarzlab.errors import (InvalidInput, ParameterOutOfRange,
                               PreconditionViolated)
from schwarzlab.lemmas import (ConcaveTentMap, LogConcaveDiffeo, check_unimodal,
                               dif_diagnostics, generate_logconcave,
                               logconcave_diffeo_slack, psi_family, psi_sweep,
                               r_ratio, sharpness_ratio, unimodal_slack)
from schwarzlab.metrics import (constant_metric, cosine_metric, mollify,
                                tent_metric)

GRID = np.linspace(-1 + 1e-4, 1 - 1e-4, 2001)


# ---------------------------------------------------------------------------
# log-concave diffeomorphisms
# ---------------------------------------------------------------------------

def test_identity_diffeo_equality_everywhere():
    d = LogConcaveDiffeo(np.array([-1.0, 1.0]), np.array([0.0, 0.0]))
    x = GRID
    slack = d.f_prime(x) * (1 - x * x) - (1 - d.f(x) ** 2)
    assert np.max(np.abs(slack)) < 1e-12


def test_sine_diffeo_slack_at_origin():
    # f = sin(pi x / 2): f' = (pi/2) cos(pi x/2) is log-concave;
    # slack at 0 is pi/2 - 1
    x0 = 0.0
    fp = math.pi / 2
    assert fp * 1.0 - (1 - math.sin(0.0) ** 2) == pytest.approx(math.pi / 2 - 1)
    # dense scan of the inequality for this closed-form diffeo
    x = GRID
    slack = (math.pi / 2) * np.cos(math.pi * x / 2) * (1 - x * x) \
        - (1 - np.sin(math.pi * x / 2) ** 2)
    assert slack.min() >= -1e-12


def test_two_knot_diffeo_is_exponential():
    d = generate_logconcave(1, 2)
    assert len(d.slopes) == 1
    k = d.slopes[0]
    # f' proportional to e^{kx}
    xs = np.linspace(-0.9, 0.9, 9)
    fp = d.f_prime(xs)
    assert np.max(np.abs(np.diff(np.log(fp)) / np.diff(xs) - k)) < 1e-9


def test_generated_diffeo_invariants():
    for seed in range(40):
        d = generate_logconcave(seed, 2 + seed % 7)
        assert d.f(-1.0) == pytest.approx(-1.0, abs=1e-10)
        assert d.f(1.0) == pytest.approx(1.0, abs=1e-10)
        assert np.all(np.diff(d.f(GRID)) > 0)
        if len(d.slopes) > 1:
            assert np.all(np.diff(d.slopes) < 0)


def test_generated_diffeo_deterministic():
    a = generate_logconcave(123, 5)
    b = generate_logconcave(123, 5)
    assert np.array_equal(a.knots_x, b.knots_x)
    assert np.array_equal(a.knots_h, b.knots_h)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 8))
def test_diffeo_slack_property(seed, knots):
    d = generate_logconcave(seed, knots)
    assert logconcave_diffeo_slack(d, GRID) >= -1e-9


def test_diffeo_rejects_nonconcave_slopes():
    with pytest.raises(InvalidInput):
        LogConcaveDiffeo(np.array([-1.0, 0.0, 1.0]), np.array([0.0, -1.0, 1.0]))


# ---------------------------------------------------------------------------
# proof quantities
# ---------------------------------------------------------------------------

def test_r_ratio_closed_form_at_origin():
    # r(k, 0) = 2 tanh(k/2) / k
    assert r_ratio(2.0, 0.0) == pytest.approx(math.tanh(1.0), abs=1e-12)
    assert r_ratio(5.0, 0.0) == pytest.approx(2 * math.tanh(2.5) / 5, abs=1e-12)


def test_r_ratio_small_k_limit():
    for x in (0.0, 0.5, 0.9):
        assert r_ratio(1e-4, x) == pytest.approx(1.0, abs=1e-6)


def test_r_ratio_symmetry():
    rng = np.random.default_rng(0)
    k = rng.uniform(0.1, 15.0, 50)
    x = rng.uniform(-0.99, 0.99, 50)
    assert np.max(np.abs(r_ratio(k, x) - r_ratio(-k, x))) < 1e-12
    assert np.max(np.abs(r_ratio(k, x) - r_ratio(k, -x))) < 1e-12


def test_r_ratio_bounded_by_one():
    k = np.linspace(0.1, 20.0, 200)[:, None]
    x = np.linspace(0.0, 0.999, 200)[None, :]
    assert np.max(r_ratio(k, x)) <= 1 + 1e-9


def test_r_ratio_rejects_zero_k():
    with pytest.raises(ParameterOutOfRange):
        r_ratio(0.0, 0.5)


def test_dif_diagnostics_anchors():
    d = dif_diagnostics(1.0, np.linspace(0, 1, 500))
    assert d.anchor_dif_at_1 == pytest.approx(0.0, abs=1e-12)
    assert d.anchor_dprime_at_0 == pytest.approx(0.0, abs=1e-8)
    assert d.anchor_dprime_at_1 == pytest.approx(0.0, abs=1e-8)


def test_dif_value_at_k3():
    # frozen from direct evaluation of 2(cosh 3 - 1) csch(3)/3 - 1
    d = dif_diagnostics(3.0, np.array([0.0]))
    assert d.max_dif == pytest.approx(-0.3965678309034224, abs=1e-12)


def test_dif_nonpositive_and_third_derivative():
    for k in (0.5, 1.0, 3.0, 10.0):
        d = dif_diagnostics(k, np.linspace(0.0, 1.0, 1000))
        assert d.max_dif <= 1e-9
        assert d.max_dif_third <= 0.0


# ---------------------------------------------------------------------------
# unimodal densities
# ---------------------------------------------------------------------------

def test_unimodal_slack_euclidean():
    assert unimodal_slack(constant_metric(), 0.0) == pytest.approx(
        math.pi / 2 - 1.0, abs=1e-9)


def test_unimodal_slack_vanishes_at_endpoint():
    m = cosine_metric()
    vals = [unimodal_slack(m, v) for v in (0.9, 0.99, 0.999)]
    assert vals[0] > vals[1] > vals[2] >= 0
    assert vals[2] < 5e-3


def test_unimodal_slack_nonnegative_for_tents():
    rng = np.random.default_rng(7)
    for _ in range(20):
        s = rng.uniform(0.1, 0.9)
        a = rng.uniform(0.1, 0.9) / (s * s)
        m = tent_metric(a, s)
        for v in np.linspace(-0.99, 0.99, 41):
            assert unimodal_slack(m, float(v)) >= -1e-9


def test_unimodal_slack_near_extremal_family():
    # sharp-regime tent: the bound is nearly attained at the corner
    n = 20
    s = 1.0 / n
    a = (n - 1.0) ** 2
    raw = unimodal_slack(tent_metric(a, s), s)
    assert -1e-9 <= raw <= 0.05
    # smoothing survives near-extremality only while eps * a stays below the
    # corner density (eps = 0.01 would inflate the corner 14-fold here)
    m = mollify(psi_family(a, s), 2e-4, table_points=65537)
    smoothed = unimodal_slack(m, s)
    assert -1e-9 <= smoothed <= 0.05


def test_unimodal_slack_nonnegative_for_mollified_tent():
    m = mollify(psi_family(4.0, 1.0 / 3.0), 0.05)
    for v in np.linspace(-0.99, 0.99, 41):
        assert unimodal_slack(m, float(v)) >= -1e-9


def test_unimodal_slack_over_arrays(monkeypatch):
    import schwarzlab.lemmas as lemmas
    m = tent_metric(356.4, 0.05)   # its corner falls between table nodes
    vs = np.linspace(-0.99, 0.99, 41).reshape(41, 1)
    scalar = [unimodal_slack(m, float(v)) for v in vs.ravel()]
    calls = {"check_unimodal": 0, "transform_table": 0}
    for name in calls:
        real = getattr(lemmas, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(lemmas, name, counted)
    out = unimodal_slack(m, vs)
    assert out.shape == vs.shape
    assert calls == {"check_unimodal": 1, "transform_table": 1}
    # numpy and math may round the sine apart by an ulp
    assert np.max(np.abs(out.ravel() - scalar)) <= 1e-15
    assert isinstance(unimodal_slack(m, 0.25), float)


def test_unimodality_verdict_reads_the_density_once_per_metric():
    calls = []

    def counted(base, density=None):
        def read(u):
            calls.append(np.size(u))
            return (density or base.density)(u)
        return dataclasses.replace(base, density=read)

    m = counted(mollify(psi_family(0.5, 0.5), 0.05))
    assert check_unimodal(m) is True
    assert calls == [401, 401]
    assert check_unimodal(m) is True
    assert calls == [401, 401]
    # another metric object takes its own verdict
    bumpy = counted(cosine_metric(), lambda u: 1.0 + np.asarray(u, float) ** 2)
    assert check_unimodal(bumpy) is False and check_unimodal(bumpy) is False
    assert calls == [401] * 4


def test_unimodal_precondition_violation():
    from schwarzlab.metrics import hyperbolic_metric
    with pytest.raises(PreconditionViolated):
        unimodal_slack(hyperbolic_metric(), 0.0)


# ---------------------------------------------------------------------------
# sharpness family
# ---------------------------------------------------------------------------

def test_sharpness_ratio_frozen_values():
    # direct evaluation of the closed form
    assert sharpness_ratio(81.0, 0.1) == pytest.approx(0.8981985687364615, abs=1e-12)
    u = 0.0
    # a -> 0 with s = 0.5: 2 sin(pi/4) / (pi * 0.75)
    tiny = sharpness_ratio(1e-12, 0.5)
    assert tiny == pytest.approx(2 * math.sin(math.pi / 4) / (math.pi * 0.75), abs=1e-9)


def test_sharpness_ratio_supremum_approach():
    _, _, _, ratios = psi_sweep(1000)
    assert np.all(np.diff(ratios) > 0)
    assert ratios[-1] > 0.99
    assert np.max(ratios) <= 1 + 1e-12


def _scalar_sharpness_ratio(a, s):
    # the scalar sharpness_ratio of the previous release
    u = a * s * s
    return (2.0 * math.sin(0.5 * math.pi * (1.0 - s) * (1.0 - u))
            / (math.pi * (1.0 - s * s) * (1.0 - u)))


def test_sharpness_ratio_on_arrays_is_the_scalar_formula_bit_for_bit():
    rng = np.random.default_rng(4)
    s = rng.uniform(0.01, 0.99, 500)
    a = rng.uniform(0.01, 0.99, 500) / (s * s)
    out = sharpness_ratio(a, s)
    assert out.shape == (500,)
    assert np.array_equal(out, [_scalar_sharpness_ratio(x, y)
                                for x, y in zip(a.tolist(), s.tolist())])
    assert sharpness_ratio(1.0, s[:, None] * np.ones(3)).shape == (500, 3)
    value = sharpness_ratio(81.0, 0.1)
    assert type(value) is float and value == _scalar_sharpness_ratio(81.0, 0.1)
    with pytest.raises(ParameterOutOfRange):
        sharpness_ratio([1.0, 5.0], 0.5)   # the second u is 1.25


def test_psi_sweep_columns_are_the_scalar_loop_bit_for_bit():
    # the record loop of the previous release, one n at a time
    rows = []
    for n in range(2, 1001):
        s = 1.0 / n
        u = (n - 1.0) ** 2 / n ** 2
        rows.append((float(n), s, u, _scalar_sharpness_ratio(u / (s * s), s)))
    columns = psi_sweep(1000)
    assert len(columns) == 4
    for got, want in zip(columns, zip(*rows)):
        assert np.array_equal(got, want)


def test_tent_map_is_the_metrics_class():
    import schwarzlab
    from schwarzlab import metrics
    assert ConcaveTentMap is metrics.ConcaveTentMap is schwarzlab.ConcaveTentMap
    assert isinstance(psi_family(0.5, 0.5), metrics.ConcaveTentMap)


def test_sharpness_ratio_rejects_bad_parameters():
    with pytest.raises(ParameterOutOfRange):
        sharpness_ratio(5.0, 0.5)  # u = 1.25
    with pytest.raises(ParameterOutOfRange):
        sharpness_ratio(1.0, 1.5)


# ---------------------------------------------------------------------------
# tent map family
# ---------------------------------------------------------------------------

def test_tent_map_fixes_endpoints_and_is_continuous():
    for a, s in ((1.0, 0.5), (81.0, 0.1), (0.3, 0.7)):
        psi = psi_family(a, s)
        assert float(psi(1.0)) == pytest.approx(1.0, abs=1e-15)
        assert float(psi(-1.0)) == pytest.approx(-1.0, abs=1e-15)
        assert float(psi(0.0)) == 0.0
        # branch agreement at the corner
        eps = 1e-9
        assert float(psi(s - eps)) == pytest.approx(float(psi(s + eps)), abs=1e-7)
        assert float(psi.deriv(s - eps)) == pytest.approx(float(psi.deriv(s + eps)),
                                                          abs=1e-6)


def test_tent_map_degenerates_to_identity():
    psi = psi_family(1e-12, 0.5)
    x = np.linspace(-1, 1, 101)
    assert np.max(np.abs(psi(x) - x)) < 1e-11


@settings(max_examples=40, deadline=None)
@given(st.floats(0.05, 0.95), st.floats(0.05, 0.95))
def test_tent_map_odd_increasing_concave(s, u_target):
    a = u_target / (s * s)
    psi = psi_family(a, s)
    x = np.linspace(-1, 1, 201)
    vals = psi(x)
    assert np.max(np.abs(vals + vals[::-1])) < 1e-12       # odd
    assert np.all(np.diff(vals) > 0)                        # increasing
    pos = x >= 0
    d2 = np.diff(vals[pos], 2)
    assert np.max(d2) < 1e-9                                # concave on [0, 1]


def test_normalized_primitive_dominates_identity():
    # for R decreasing on (0,1): psi(u) = int_0^u R / int_0^1 R is concave
    # with psi(0)=0, psi(1)=1, hence psi(u) >= u on [0,1]
    from schwarzlab.metrics import transform_table
    for metric in (cosine_metric(), tent_metric(2.0, 0.3),
                   mollify(psi_family(4.0, 1.0 / 3.0), 0.05)):
        tab = transform_table(metric)
        u = np.linspace(0.0, 0.999, 300)
        psi = tab.h(u) / tab.r       # even density: H(0) = 0, H(1) = r
        assert np.min(psi - u) >= -1e-9
