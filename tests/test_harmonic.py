import gc
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import schwarzlab.harmonic as harmonic
from schwarzlab.bounds import (check_gradient_bound, check_unimodal_bounds,
                               random_disk_pairs, ring_grid)
from schwarzlab.cli import _write_csv
from schwarzlab.errors import (InvalidInput, NoConvergence, OutsideDisk,
                               StencilOutsideDisk)
from schwarzlab.harmonic import (BoundaryData, analytic_field,
                                 boundary_from_json, boundary_from_samples,
                                 constant_boundary, cosine_boundary,
                                 euclidean_field, fd_solve_oracle,
                                 hopf_holomorphy_residual, oracle_sup_difference,
                                 pde_residual, poisson_gradient,
                                 poisson_value_and_gradient, poisson_values,
                                 random_smooth_boundary,
                                 random_symmetric_boundary, solved_field,
                                 step_boundary)
from schwarzlab.metrics import (HTransform, Metric1D, constant_metric,
                                cosine_metric, exponential_metric,
                                hyperbolic_metric, transform_table)


# ---------------------------------------------------------------------------
# Poisson extension
# ---------------------------------------------------------------------------

def test_constant_boundary_extends_to_constant():
    b = constant_boundary(0.4)
    for z in (0.0, 0.3 + 0.2j, -0.7j):
        assert poisson_values(b, z) == pytest.approx(0.4, abs=1e-12)


def test_cosine_boundary_gives_real_part():
    b = cosine_boundary(1.0, 1, 0.0)
    assert poisson_values(b, 0.3 + 0.2j) == pytest.approx(0.3, abs=1e-10)
    assert poisson_values(b, -0.55 - 0.1j) == pytest.approx(-0.55, abs=1e-10)


def test_step_boundary_odd_symmetry_at_origin():
    assert poisson_values(step_boundary(), 0.0) == pytest.approx(0.0, abs=1e-12)


def test_step_closed_form():
    b = step_boundary()
    for z in (0.3 + 0.2j, -0.5 + 0.1j, 0.1 - 0.7j):
        expected = 2 / math.pi * np.angle((1 + z) / (1 - z))
        assert poisson_values(b, z) == pytest.approx(expected, abs=1e-5)


def test_outside_disk_raises():
    b = constant_boundary(0.0)
    with pytest.raises(OutsideDisk):
        poisson_values(b, 1.0)
    with pytest.raises(OutsideDisk):
        poisson_gradient(b, 1.2j)


def test_gradient_of_cosine_boundary():
    g = np.array(poisson_gradient(cosine_boundary(1.0, 1, 0.0), 0.1 + 0.5j))
    assert g[0] == pytest.approx(1.0, abs=1e-10)
    assert g[1] == pytest.approx(0.0, abs=1e-10)


def test_gradient_step_at_origin():
    g = poisson_gradient(step_boundary(), 0.0)
    assert np.hypot(*g) == pytest.approx(4 / math.pi, abs=1e-4)


def test_gradient_linearity():
    b1 = cosine_boundary(0.5, 2, 0.3)
    b2 = random_smooth_boundary(11)
    combo = BoundaryData(lambda th: 0.7 * b1.values(th) - 0.2 * b2.values(th))
    z = 0.23 - 0.41j
    g = np.array(poisson_gradient(combo, z))
    expected = (0.7 * np.array(poisson_gradient(b1, z))
                - 0.2 * np.array(poisson_gradient(b2, z)))
    assert np.max(np.abs(g - expected)) < 1e-10


def test_gradient_matches_finite_differences():
    b = random_smooth_boundary(5)
    rng = np.random.default_rng(0)
    h = 1e-6
    for _ in range(100):
        z = 0.9 * math.sqrt(rng.uniform()) * np.exp(2j * math.pi * rng.uniform())
        g = np.array(poisson_gradient(b, z))
        fx = (poisson_values(b, z + h) - poisson_values(b, z - h)) / (2 * h)
        fy = (poisson_values(b, z + 1j * h) - poisson_values(b, z - 1j * h)) / (2 * h)
        assert g[0] == pytest.approx(fx, abs=1e-6)
        assert g[1] == pytest.approx(fy, abs=1e-6)


def test_maximum_principle_and_mean_value():
    b = random_smooth_boundary(9)
    rng = np.random.default_rng(1)
    z = 0.95 * np.sqrt(rng.uniform(0, 1, 200)) * np.exp(2j * math.pi * rng.uniform(0, 1, 200))
    vals = poisson_values(b, z)
    assert vals.min() >= b.samples.min() - 1e-12
    assert vals.max() <= b.samples.max() + 1e-12
    assert poisson_values(b, 0.0) == pytest.approx(b.mean(), abs=1e-10)


def test_conjugation_symmetry():
    # even boundary data in theta gives g(conj z) = g(z)
    b = BoundaryData(lambda th: 0.6 * np.cos(th) + 0.2 * np.cos(3 * th))
    rng = np.random.default_rng(2)
    for _ in range(20):
        z = 0.9 * math.sqrt(rng.uniform()) * np.exp(2j * math.pi * rng.uniform())
        assert poisson_values(b, np.conj(z)) == pytest.approx(
            poisson_values(b, z), abs=1e-12)


# ---------------------------------------------------------------------------
# references: the direct kernel sum in long double and in float64
# ---------------------------------------------------------------------------

_EXTENDED = pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                               reason="the reference needs an extended-precision long double")


def _kernel_sums(boundaries, x, y):
    """Trapezoid Poisson sums and gradients by the direct kernel sum at (x, y).

    Computed in the precision of x and y; returns (quantity, boundary,
    point), the quantities being (value, gx, gy).
    """
    real = x.dtype.type
    pi = 4 * np.arctan(real(1))
    n = boundaries[0].sample_count
    th = 2 * pi * np.arange(n, dtype=real) / n
    ex, ey = np.cos(th)[None, :], np.sin(th)[None, :]
    s = np.stack([b.samples.astype(real) for b in boundaries], axis=1)
    rows = []
    for k in range(0, len(x), 256):       # blocks of points keep memory small
        xb, yb = x[k:k + 256, None], y[k:k + 256, None]
        dx, dy = ex - xb, ey - yb
        d2 = dx * dx + dy * dy
        one_m = 1 - xb * xb - yb * yb
        px = -2 * xb / d2 + 2 * one_m * dx / d2 ** 2
        py = -2 * yb / d2 + 2 * one_m * dy / d2 ** 2
        rows.append([(kern @ s / n).T for kern in (one_m / d2, px, py)])
    return np.concatenate(rows, axis=2)


def _long_double_at(boundaries, z):
    """The direct sums in long double at the float64 points z, taken exactly."""
    ld = np.longdouble
    return _kernel_sums(boundaries, z.real.astype(ld), z.imag.astype(ld))


def _point_sums(boundary, z):
    """(value, gx, gy) at the points z through the public functions."""
    return np.stack([poisson_values(boundary, z), *poisson_gradient(boundary, z)])


def _max_errors(got, ref):
    """Max error per quantity of two (quantity, point) arrays."""
    return np.max(np.abs(got - ref), axis=1)


# ---------------------------------------------------------------------------
# the aliased Laurent polynomial at every point set
# ---------------------------------------------------------------------------

@_EXTENDED
@pytest.mark.parametrize("samples", [2048, 1000])
def test_poisson_blocks_match_unblocked_sums(samples):
    b = random_smooth_boundary(5, sample_count=samples)
    rng = np.random.default_rng(11)
    z = np.sqrt(rng.uniform(0.0, 0.98, 3000)) * np.exp(
        2j * math.pi * rng.uniform(size=3000))
    ref = _long_double_at([b], z)[:, 0]
    assert np.all(_max_errors(_point_sums(b, z), ref) <= 1e-13)


@_EXTENDED
@pytest.mark.parametrize("samples", [1000, 1024, 2048])
def test_laurent_path_matches_long_double_sums(samples):
    boundaries = [step_boundary(sample_count=samples),
                  random_smooth_boundary(4, sample_count=samples)]
    rng = np.random.default_rng(samples)
    z = 0.99 * np.sqrt(rng.uniform(size=300)) * np.exp(2j * math.pi * rng.uniform(size=300))
    z = np.concatenate([[0.0], z])
    ref = _long_double_at(boundaries, z)
    for i, b in enumerate(boundaries):
        got = _point_sums(b, z)
        err = _max_errors(got, ref[:, i])
        assert err[0] <= 1e-14
        assert err[1] <= 1e-13 and err[2] <= 1e-13
        assert got[0, 0] == pytest.approx(b.mean(), abs=1e-15)


@_EXTENDED
@pytest.mark.parametrize("rho", [0.95, 0.99])
@pytest.mark.parametrize("samples", [1000, 1024, 2048])
def test_ring_fft_matches_direct_sums(rho, samples):
    # ring grids are ordinary inputs of the Laurent path: the sum at the
    # float64 points given, in long double and in the float64 direct sum
    z = ring_grid(24, 96, rho)
    boundaries = [step_boundary(sample_count=samples),
                  random_smooth_boundary(4, sample_count=samples)]
    ref = _long_double_at(boundaries, z)
    for i, b in enumerate(boundaries):
        got = _point_sums(b, z)
        err = _max_errors(got, ref[:, i])
        assert err[0] <= 1e-14
        assert err[1] <= 1e-13 and err[2] <= 1e-13
        direct = _kernel_sums([b], z.real, z.imag)[:, 0]
        assert np.all(_max_errors(got, direct) <= 1e-11)


@_EXTENDED
@pytest.mark.parametrize("samples", [1000, 1024, 2048])
def test_laurent_path_at_the_rim_beats_the_direct_sum(samples):
    # |z| = 0.99 at every sample angle (in shuffled order), where the kernel peaks
    boundaries = [step_boundary(sample_count=samples),
                  random_smooth_boundary(4, sample_count=samples)]
    z = np.random.default_rng(0).permutation(0.99 * np.exp(1j * boundaries[0].thetas))
    ref = _long_double_at(boundaries, z)
    for i, b in enumerate(boundaries):
        laurent = _max_errors(_point_sums(b, z), ref[:, i])
        direct = _max_errors(_kernel_sums([b], z.real, z.imag)[:, 0], ref[:, i])
        assert np.all(laurent <= direct)


@pytest.mark.parametrize("n", [1000, 1024, 2048, 4096])
def test_int_power_matches_the_long_double_power(n):
    # near the rim, where z^(N-1) is used; numpy's own power of a complex
    # float64 misses this bound at every n here
    rng = np.random.default_rng(n)
    z = rng.uniform(0.9, 0.9999, 4000) * np.exp(2j * math.pi * rng.uniform(size=4000))
    ref = np.asarray(z, np.clongdouble) ** (n - 1)
    got = harmonic._int_power(z, n - 1)
    assert np.max(np.abs(got - ref) / np.abs(ref)) <= (n - 1) * np.finfo(float).eps
    assert np.array_equal(harmonic._int_power(z[:5], 0), np.ones(5, complex))
    assert harmonic._int_power(np.zeros(1, complex), n - 1)[0] == 0.0


@pytest.mark.parametrize("samples", [1000, 2048])
def test_laurent_blocks_match_one_block(monkeypatch, samples):
    b = random_smooth_boundary(7, sample_count=samples)
    z = random_disk_pairs(4, 1500, 0.99).ravel()
    one_block = _point_sums(b, z)
    # a block of 6144 elements holds 48 points at 2048 samples and 64 at
    # 1000: the 3000 points end in a short block
    monkeypatch.setattr(harmonic, "_BLOCK_ELEMENTS", 6144)
    # the same arithmetic per point; vector loops may round the last bit of
    # a product differently at another offset in the block
    scale = np.max(np.abs(one_block), axis=1)
    assert np.all(_max_errors(_point_sums(b, z), one_block)
                  <= 8 * np.finfo(float).eps * scale)


# ---------------------------------------------------------------------------
# fused value and gradient
# ---------------------------------------------------------------------------

def test_ring_fft_keeps_the_point_shape():
    b = random_smooth_boundary(6)
    z = ring_grid(6, 16, 0.9)
    grid = z.reshape(6, 16)
    assert poisson_values(b, grid).shape == (6, 16)
    assert np.array_equal(poisson_values(b, grid).ravel(), poisson_values(b, z))
    gx, gy = poisson_gradient(b, grid)
    assert gx.shape == gy.shape == (6, 16)
    fused = poisson_value_and_gradient(b, grid)
    assert [q.shape for q in fused] == [(6, 16)] * 3
    flat = poisson_value_and_gradient(b, z)
    assert all(np.array_equal(q.ravel(), r) for q, r in zip(fused, flat))


def test_value_and_gradient_is_bit_equal_to_the_parts(monkeypatch):
    # pairs out to 0.999, where z^N no longer vanishes against 1 in 1 - z^N
    z = np.concatenate([ring_grid(24, 96, 0.95), random_disk_pairs(1, 200, 0.999).ravel()])
    boundary = random_smooth_boundary(2)
    fields = [solved_field(cosine_metric(), boundary), euclidean_field(boundary),
              analytic_field(lambda x, y: np.tanh(2 * x) * np.cos(y),
                             lambda x, y: (2 * np.cos(y) / np.cosh(2 * x) ** 2,
                                           -np.tanh(2 * x) * np.sin(y)))]
    # one block, then blocks of 64 points at 1024 samples: 43 for the 2704
    # points, 36 for the ring grid alone
    for block, points in itertools.product(
            (harmonic._BLOCK_ELEMENTS, 6144), (z, z[:2304], 0.3 - 0.2j)):
        monkeypatch.setattr(harmonic, "_BLOCK_ELEMENTS", block)
        for fld in fields:
            f, gx, gy = fld.value_and_gradient_many(points)
            assert np.array_equal(f, fld.value_many(points))
            gx2, gy2 = fld.gradient_many(points)
            assert np.array_equal(gx, gx2) and np.array_equal(gy, gy2)
        u, gx, gy = poisson_value_and_gradient(boundary, points)
        assert np.array_equal(u, poisson_values(boundary, points))
        gx2, gy2 = poisson_gradient(boundary, points)
        assert np.array_equal(gx, gx2) and np.array_equal(gy, gy2)


def test_gradient_bound_makes_one_pass_of_each_kind(monkeypatch):
    metric, boundary = cosine_metric(), random_smooth_boundary(13)
    calls = []
    for name in ("poisson_values", "poisson_gradient", "poisson_value_and_gradient"):
        original = getattr(harmonic, name)

        def counted(b, z, _original=original, _name=name):
            calls.append(_name)
            return _original(b, z)

        monkeypatch.setattr(harmonic, name, counted)
    check_gradient_bound(metric, boundary)
    assert calls == ["poisson_value_and_gradient"]
    calls.clear()
    euclidean_field(boundary).value_and_gradient_many(ring_grid())
    assert calls == ["poisson_value_and_gradient"]
    # the unimodal bound on the same grid reuses the gradient bound's lift;
    # its own passes are the origin and the radial spokes
    calls.clear()
    other = random_smooth_boundary(14)
    check_gradient_bound(metric, other)
    check_unimodal_bounds(metric, other)
    assert calls == ["poisson_value_and_gradient", "poisson_values", "poisson_values"]


def test_value_and_gradient_remembers_its_last_points(monkeypatch):
    field = solved_field(cosine_metric(), random_smooth_boundary(21))
    calls = []
    original = harmonic.poisson_value_and_gradient

    def counted(b, z):
        calls.append(np.size(z))
        return original(b, z)

    monkeypatch.setattr(harmonic, "poisson_value_and_gradient", counted)
    z = ring_grid(6, 16, 0.9)
    first = field.value_and_gradient_many(z)
    again = field.value_and_gradient_many(z.copy())
    assert calls == [96]
    assert all(np.array_equal(a, b) for a, b in zip(first, again))
    assert not any(q.flags.writeable for q in again)
    with pytest.raises(ValueError):
        again[0][0] = 0.0
    # other points, or the same points in another shape, are evaluated anew
    moved = field.value_and_gradient_many(0.5 * z)
    assert calls == [96, 96]
    assert not np.array_equal(moved[0], first[0])
    assert field.value_and_gradient_many(z.reshape(6, 16))[0].shape == (6, 16)
    assert calls == [96, 96, 96]


def test_lift_caches_hold_a_bounded_number_of_tables():
    # each fresh metric object keys a new table; the caches keep only their
    # working set alive
    for seed in range(40):
        solved_field(cosine_metric(), random_smooth_boundary(seed))
    gc.collect()
    assert sum(isinstance(obj, HTransform) for obj in gc.get_objects()) <= 24


# ---------------------------------------------------------------------------
# boundary data plumbing
# ---------------------------------------------------------------------------

def test_boundary_values_must_stay_in_target():
    with pytest.raises(InvalidInput):
        BoundaryData(lambda th: 1.5 * np.cos(th))


def test_boundary_from_samples_interpolates():
    theta = np.linspace(0, 2 * math.pi, 64, endpoint=False)
    vals = 0.5 * np.sin(theta)
    b = boundary_from_samples(theta, vals)
    probe = np.array([0.1, 1.3, 4.0])
    assert np.max(np.abs(b.values(probe) - 0.5 * np.sin(probe))) < 2e-3


def test_boundary_from_json():
    b = boundary_from_json({"kind": "expression-preset", "name": "step",
                            "params": {"amplitude": 0.5}})
    assert b.samples.max() == pytest.approx(0.5)
    b2 = boundary_from_json({"kind": "samples",
                             "theta": [0.0, 2.0, 4.0],
                             "values": [0.1, 0.2, -0.1]})
    assert b2.samples.shape == (1024,)
    with pytest.raises(InvalidInput):
        boundary_from_json({"kind": "expression-preset", "name": "nope"})


# SHA-256 of the samples as the two generators produced them before they
# shared one body (numpy 2.4, x86-64); the merge must keep every RNG draw and
# every floating-point operation
RANDOM_BOUNDARY_DIGESTS = [
    (random_smooth_boundary, 0, "c84e9b0a8a838d38665a42e05e46dce18277e4a59ce4cbdfc3a6a6bc3aa8938a"),
    (random_smooth_boundary, 3, "6f30e37e62e4561c264c47ed267c527ec2166826376959418d81ba9f9fe0a892"),
    (random_smooth_boundary, 12, "53c168b50e619d2ea03d87752e5d2991889dbb53acfefc563419a480555b5ff3"),
    (random_symmetric_boundary, 0, "07bf1f3cfdc91a3cf9ff89c0bc377d75b02de42e5889e09c8916172a3c91995d"),
    (random_symmetric_boundary, 3, "952544fef27139d8154d17b19d0854aa69e096f6d0b4c607789f25f0ae7b9079"),
    (random_symmetric_boundary, 12, "deb809361fae10b169e007a17e45250c3c3ec668647f99cbaeaf649eff76e2b6"),
]


@pytest.mark.parametrize("make, seed, digest", RANDOM_BOUNDARY_DIGESTS)
def test_random_boundary_samples_are_unchanged(make, seed, digest):
    import hashlib
    assert hashlib.sha256(make(seed).samples.tobytes()).hexdigest() == digest


def test_random_symmetric_boundary_antipodal():
    b = random_symmetric_boundary(3)
    th = np.linspace(0, math.pi, 100)
    assert np.max(np.abs(b.values(th) + b.values(th + math.pi))) < 1e-12


# ---------------------------------------------------------------------------
# transform solve path
# ---------------------------------------------------------------------------

def test_solve_reduces_to_harmonic_for_unit_density():
    m = constant_metric()
    b = random_smooth_boundary(21)
    z = 0.4 - 0.33j
    assert solved_field(m, b).value_many(z) == pytest.approx(
        poisson_values(b, z), abs=1e-11)


def test_solve_constant_boundary_any_metric():
    for m in (cosine_metric(), exponential_metric(-2.0)):
        b = constant_boundary(0.5)
        assert solved_field(m, b).value_many(0.2 + 0.1j) == pytest.approx(
            0.5, abs=1e-10)


def test_solve_cosine_metric_closed_form():
    m = cosine_metric()
    b = random_smooth_boundary(3)
    gb = BoundaryData(lambda th: np.sin(math.pi * b.values(th) / 2))
    rng = np.random.default_rng(4)
    for _ in range(20):
        z = 0.92 * math.sqrt(rng.uniform()) * np.exp(2j * math.pi * rng.uniform())
        closed = 2 / math.pi * math.asin(poisson_values(gb, z))
        assert solved_field(m, b).value_many(z) == pytest.approx(closed, abs=1e-12)


def test_solve_hyperbolic_metric_closed_form():
    # infinite mass: the lift still exists for compactly-supported data
    m = hyperbolic_metric()
    b = BoundaryData(lambda th: np.tanh(3 * np.cos(th)))
    for z in (0.1 + 0.2j, -0.6 + 0.1j, 0.4j):
        assert solved_field(m, b).value_many(z) == pytest.approx(
            math.tanh(3 * z.real), abs=1e-10)


@pytest.mark.parametrize("metric", [cosine_metric(), exponential_metric(1.0),
                                    hyperbolic_metric()],
                         ids=["cosine", "exponential(1)", "hyperbolic-range"])
@pytest.mark.parametrize("make_boundary", [lambda: cosine_boundary(0.8),
                                           lambda: step_boundary(0.9),
                                           lambda: random_smooth_boundary(4)],
                         ids=["wave", "step", "random"])
def test_lifted_boundary_interpolates_the_lifted_samples(monkeypatch, metric,
                                                         make_boundary):
    built = []

    def spy(theta, values, **kw):
        built.append((np.array(values), boundary_from_samples(theta, values, **kw)))
        return built[-1][1]

    monkeypatch.setattr(harmonic, "boundary_from_samples", spy)
    boundary = make_boundary()
    solved_field(metric, boundary)
    (g, lifted), = built
    samples = np.clip(boundary.samples, -1.0, 1.0)
    if metric.name == "hyperbolic":
        # the range table's H is atanh, centered at 0
        assert np.max(np.abs(g - np.arctanh(samples))) < 1e-10
    else:
        table = transform_table(metric)
        assert np.array_equal(g, table.h(samples) / table.r)
    th = boundary.thetas
    assert np.array_equal(lifted.thetas, th)
    assert np.array_equal(lifted.samples, g)
    assert lifted.name == f"H[{boundary.name}]"
    assert (lifted.target_lo, lifted.target_hi) == (g.min() - 1.0, g.max() + 1.0)
    off = np.concatenate([th + 0.5 * (th[1] - th[0]),
                          np.random.default_rng(5).uniform(-10.0, 10.0, 500)])
    periodic = np.interp(np.mod(off, 2 * math.pi), np.append(th, 2 * math.pi),
                         np.append(g, g[0]))
    assert np.array_equal(lifted.values(off), periodic)


# ---------------------------------------------------------------------------
# residual diagnostics
# ---------------------------------------------------------------------------

def test_pde_residual_tanh_hyperbolic():
    m = hyperbolic_metric()
    fld = analytic_field(
        lambda x, y: np.tanh(3 * np.asarray(x, float)),
        lambda x, y: (3 / np.cosh(3 * np.asarray(x, float)) ** 2,
                      np.zeros_like(np.asarray(y, float))))
    assert abs(pde_residual(m, fld, 0.1 + 0.2j, 1e-3)) <= 1e-4


def test_pde_residual_constant_field():
    fld = analytic_field(lambda x, y: np.full_like(np.asarray(x, float), 0.3),
                         lambda x, y: (np.zeros_like(np.asarray(x, float)),) * 2)
    assert pde_residual(cosine_metric(), fld, 0.1 + 0.2j, 1e-3) == 0.0


def test_pde_residual_solved_field():
    m = cosine_metric()
    fld = solved_field(m, random_smooth_boundary(8))
    rng = np.random.default_rng(5)
    for _ in range(12):
        z = 0.9 * math.sqrt(rng.uniform()) * np.exp(2j * math.pi * rng.uniform())
        assert abs(pde_residual(m, fld, z, 1e-3)) <= 1e-3


def test_pde_residual_stencil_guard():
    fld = solved_field(constant_metric(), random_smooth_boundary(1))
    with pytest.raises(StencilOutsideDisk):
        pde_residual(constant_metric(), fld, 0.9995 + 0.0j, 1e-3)


def test_hopf_constant_field_zero():
    fld = analytic_field(lambda x, y: np.full_like(np.asarray(x, float), 0.2),
                         lambda x, y: (np.zeros_like(np.asarray(x, float)),) * 2)
    grid = 0.3 * np.exp(1j * np.linspace(0, 2 * math.pi, 8, endpoint=False))
    assert hopf_holomorphy_residual(cosine_metric(), fld, grid, 1e-3) == 0.0


def test_hopf_tanh_field():
    # R(f)^2 f_z^2 = n^2/4 identically for f = tanh(n x) under 1/(1-u^2)
    m = hyperbolic_metric()
    n = 2
    fld = analytic_field(
        lambda x, y: np.tanh(n * np.asarray(x, float)),
        lambda x, y: (n / np.cosh(n * np.asarray(x, float)) ** 2,
                      np.zeros_like(np.asarray(y, float))))
    grid = 0.4 * np.exp(1j * np.linspace(0, 2 * math.pi, 16, endpoint=False))
    assert hopf_holomorphy_residual(m, fld, grid, 1e-3) <= 1e-6


def test_hopf_solved_field():
    m = cosine_metric()
    fld = solved_field(m, random_smooth_boundary(8))
    grid = 0.8 * np.exp(1j * np.linspace(0, 2 * math.pi, 24, endpoint=False))
    assert hopf_holomorphy_residual(m, fld, grid, 1e-3) <= 1e-3


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------

def test_oracle_rejects_small_grid():
    with pytest.raises(InvalidInput):
        fd_solve_oracle(constant_metric(), step_boundary(), 17)


def test_oracle_constant_boundary_is_exact():
    grid = fd_solve_oracle(cosine_metric(), constant_boundary(0.3), 65)
    _, vals = grid.interior_points()
    assert np.max(np.abs(vals - 0.3)) < 1e-12
    assert grid.sweeps == 1


def test_oracle_harmonic_case():
    grid = fd_solve_oracle(constant_metric(), cosine_boundary(1.0, 1, 0.0), 129)
    pts, vals = grid.interior_points()
    assert np.max(np.abs(vals - pts.real)) < 1e-3


def test_oracle_matches_transform_solution():
    b = random_smooth_boundary(3)
    assert oracle_sup_difference(cosine_metric(), b, 101) < 5e-3


def test_oracle_csv_roundtrip(tmp_path):
    grid = fd_solve_oracle(constant_metric(), cosine_boundary(0.8), 41)
    path = tmp_path / "grid.csv"
    pts, vals = grid.interior_points()
    _write_csv(path, ["x", "y", "f"], [pts.real, pts.imag, vals])
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    assert rows.shape[1] == 3
    assert rows.shape[0] == int(np.sum(grid.inside))
    per_row = "x,y,f\n" + "".join(f"{p.real:.17g},{p.imag:.17g},{v:.17g}\n"
                                   for p, v in zip(pts, vals))
    assert path.read_bytes() == per_row.encode()


def test_oracle_no_convergence_with_tiny_cap():
    import dataclasses
    from schwarzlab.config import DEFAULT
    from schwarzlab.errors import NoConvergence
    tols = DEFAULT.replaced(fd_max_sweeps=3)
    with pytest.raises(NoConvergence):
        fd_solve_oracle(cosine_metric(), cosine_boundary(0.8), 65, tols=tols)


def test_oracle_stall_raises_under_default_tolerances():
    with pytest.raises(NoConvergence):
        fd_solve_oracle(exponential_metric(3.0), step_boundary(0.9), 65)


def test_oracle_nan_source_raises():
    broken = Metric1D(-1.0, 1.0, lambda u: np.ones_like(u),
                      lambda u: np.full_like(u, np.nan),
                      lambda u: np.full_like(u, np.nan), name="nan-slope")
    with pytest.raises(NoConvergence):
        fd_solve_oracle(broken, cosine_boundary(0.8), 65)


def test_oracle_never_touches_transform_path(monkeypatch):
    import schwarzlab.harmonic as harmonic

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle must not use the H-transform path")

    for name in ("transform_table", "HTransform", "solved_field"):
        monkeypatch.setattr(harmonic, name, refuse)
    grid = fd_solve_oracle(exponential_metric(1.0), random_smooth_boundary(2), 65)
    assert np.all(np.isfinite(grid.interior_points()[1]))


def test_package_import_leaves_scipy_sparse_unloaded(tmp_path):
    # nor does the FD oracle import scipy at all, nor numpy.ma, which
    # np.unique imports
    import os
    import subprocess
    import sys

    import schwarzlab
    src = os.path.dirname(os.path.dirname(schwarzlab.__file__))
    metric = tmp_path / "cosine.json"
    metric.write_text('{"kind": "cosine"}')
    wave = tmp_path / "wave.json"
    wave.write_text('{"kind": "expression-preset", "name": "cosine"}')
    code = f"""
import sys
import schwarzlab
assert 'scipy.sparse' not in sys.modules
from schwarzlab import cli
assert cli.main(["solve", "--metric", {str(metric)!r}, "--boundary", {str(wave)!r},
                 "--grid-n", "65", "--out", {str(tmp_path / "solve")!r}]) == 0
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
assert not loaded, loaded
assert 'numpy.ma' not in sys.modules
"""
    subprocess.run([sys.executable, "-c", code], check=True,
                   env=dict(os.environ, PYTHONPATH=src))


def _fresh_metrics_and_check_bounds(tmp_path, modules, metric_specs):
    """In a fresh interpreter, build a mollified and a tabulated metric,
    evaluate them, run check-bounds on each spec, and assert that none of
    `modules` was imported."""
    import os
    import subprocess
    import sys

    import schwarzlab
    src = os.path.dirname(os.path.dirname(schwarzlab.__file__))
    wave = tmp_path / "wave.json"
    wave.write_text('{"kind": "expression-preset", "name": "cosine"}')
    specs = []
    for i, text in enumerate(metric_specs):
        spec = tmp_path / f"metric{i}.json"
        spec.write_text(text)
        specs.append(str(spec))
    code = f"""
import sys
import numpy as np
from schwarzlab import cli, lemmas, metrics
u = np.linspace(-0.9, 0.9, 7)
smooth = metrics.mollify(lemmas.psi_family(0.5, 0.5), 0.05)
table = metrics.tabulated_metric([-1.0, -0.2, 0.4, 1.0], [1.0, 1.5, 1.2, 0.8])
for m in (smooth, table):
    m.density(u), m.d_density(u), m.d2_density(u)
for i, spec in enumerate({specs!r}):
    assert cli.main(["check-bounds", "--metric", spec, "--boundary", {str(wave)!r},
                     "--out", {str(tmp_path)!r} + f"/out{{i}}"]) == 0
loaded = sorted(name for name in {tuple(modules)!r} if name in sys.modules)
assert not loaded, loaded
"""
    subprocess.run([sys.executable, "-c", code], check=True,
                   env=dict(os.environ, PYTHONPATH=src))


_SMOOTH_TENT_SPEC = ('{"kind": "lemma_psi_family", '
                     '"params": {"a": 0.5, "s": 0.5, "epsilon": 0.05}}')
_TABULATED_SPEC = '{"kind": "tabulated", "u": [-1, -0.4, 0.3, 1], "R": [0.8, 1.3, 1.1, 0.6]}'


def test_metrics_and_check_bounds_leave_scipy_interpolate_unloaded(tmp_path):
    _fresh_metrics_and_check_bounds(tmp_path, ("scipy.interpolate", "scipy.linalg"),
                                    [_SMOOTH_TENT_SPEC])


def test_metrics_and_check_bounds_leave_numpy_ma_unloaded(tmp_path):
    # np.unique imports numpy.ma for its masked-array check
    _fresh_metrics_and_check_bounds(tmp_path, ("numpy.ma",),
                                    [_SMOOTH_TENT_SPEC, _TABULATED_SPEC])


def _dense_shortley_weller(op):
    """The operator's matrix, assembled entry by entry from its arms."""
    m = len(op.cells[0])
    rows = np.arange(m)
    aE, aW, aN, aS = (op.arms[d] for d in "EWNS")
    weights = {"E": 1.0 / (aE * (aE + aW)), "W": 1.0 / (aW * (aE + aW)),
               "N": 1.0 / (aN * (aN + aS)), "S": 1.0 / (aS * (aN + aS))}
    A = np.zeros((m, m))
    A[rows, rows] = 1.0 / (aE * aW) + 1.0 / (aN * aS)
    for d in "EWNS":
        inner = op.nbr[d] < m
        A[rows[inner], op.nbr[d][inner]] -= weights[d][inner]
    return A


@pytest.mark.parametrize("clipped", [False, True], ids=["grid-arms", "clip-arms"])
@pytest.mark.parametrize("n", [33, 65])
def test_disk_operator_solve_matches_dense_solve(n, clipped):
    op = harmonic._disk_operator(n)
    m = len(op.cells[0])
    if clipped:
        # no grid node lies within 1e-6 h of the circle; shorten a third of
        # the cut arms to the clip and another third to just above it
        rng = np.random.default_rng(n)
        arms = {d: a.copy() for d, a in op.arms.items()}
        for d in "EWNS":
            cut = np.nonzero(op.nbr[d] >= m)[0]
            arms[d][cut[::3]] = 1e-6
            arms[d][cut[1::3]] = 1e-6 * (1.0 + rng.uniform(size=len(cut[1::3])))
        op = harmonic._DiskOperator(xs=op.xs, h=op.h, inside=op.inside, arms=arms,
                                    nbr=op.nbr, angles=op.angles)
        assert max(op.stencil[2][:, 0]) > 1e5   # diagonals near 1e6
    rhs = np.random.default_rng(1).standard_normal(m)
    expected = np.linalg.solve(_dense_shortley_weller(op), rhs)
    assert np.max(np.abs(op.solve(rhs) - expected)) <= 1e-12 * np.max(np.abs(expected))


# Picard solves per case (seeds 0, 1, 2 at each n) as a sparse LU factor of
# the same operator gave them: an exact linear solve must reproduce them
_ORACLE_SWEEPS = {"cosine": {65: (20, 15, 15), 101: (20, 15, 15), 201: (20, 15, 15)},
                  "exponential": {65: (20, 15, 16), 101: (20, 15, 16), 201: (20, 15, 16)}}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n", [65, 101, 201])
@pytest.mark.parametrize("name", ["cosine", "exponential"])
def test_oracle_sweeps_are_pinned(name, n, seed):
    metric = cosine_metric() if name == "cosine" else exponential_metric(1.0)
    grid = fd_solve_oracle(metric, random_smooth_boundary(seed, sample_count=2048), n)
    assert grid.sweeps == _ORACLE_SWEEPS[name][n][seed]
