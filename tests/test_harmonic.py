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
from schwarzlab.config import DEFAULT
from schwarzlab.errors import (InvalidInput, NoConvergence, NonIntegrable, OutsideDisk,
                               ParameterOutOfRange, StencilOutsideDisk)
from schwarzlab.harmonic import (BoundaryData, analytic_field,
                                 boundary_from_json, boundary_from_samples,
                                 constant_boundary, cosine_boundary,
                                 euclidean_field, fd_solve_oracle,
                                 hopf_holomorphy_residual, lift_sup_difference,
                                 oracle_sup_difference,
                                 pde_residual, poisson_gradient,
                                 poisson_value_and_gradient, poisson_values,
                                 random_smooth_boundary,
                                 random_symmetric_boundary, solved_field,
                                 step_boundary)
from schwarzlab.metrics import (HTransform, Metric1D, constant_metric,
                                cosine_metric, exponential_metric,
                                hyperbolic_metric, metric_from_json,
                                transform_table)


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


def test_cosine_boundary_ranges():
    # |m| < N/2 for N samples and |phase| <= 2 pi, the edges included
    two_pi = 2 * math.pi
    assert cosine_boundary(0.5, -31, two_pi, sample_count=64).samples.shape == (64,)
    assert cosine_boundary(0.5, 31, -two_pi, sample_count=64).samples.shape == (64,)
    for bad in ({"frequency": 32}, {"frequency": 1.5}, {"phase": math.nan},
                {"phase": math.nextafter(two_pi, 7.0)}):
        with pytest.raises(ParameterOutOfRange):
            cosine_boundary(0.5, **bad, sample_count=64)


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
# the coefficient rows a block of points keeps
# ---------------------------------------------------------------------------

def _recorded_cuts(monkeypatch) -> list:
    """(shift, kept) of every `_kept_blocks` call, in call order."""
    cuts = []
    original = harmonic._kept_blocks

    def recorded(row_max, rho, shift):
        cuts.append((shift, original(row_max, rho, shift)))
        return cuts[-1][1]

    monkeypatch.setattr(harmonic, "_kept_blocks", recorded)
    return cuts


def _keep_every_block(monkeypatch):
    monkeypatch.setattr(harmonic, "_kept_blocks", lambda row_max, rho, shift: len(row_max))


def _cosine_lifted(boundary):
    """The data H(f)/r whose Poisson sums the cosine metric's solved field takes."""
    table = transform_table(cosine_metric())
    return boundary_from_samples(boundary.thetas, table.h(boundary.samples) / table.r,
                                 sample_count=boundary.sample_count)


@pytest.mark.parametrize("metric", [None, cosine_metric(), exponential_metric(-2.0)])
def test_smooth_data_inside_keeps_one_value_block(monkeypatch, metric):
    boundary = random_smooth_boundary(9)
    field = (euclidean_field(boundary) if metric is None
             else solved_field(metric, boundary))
    cuts = _recorded_cuts(monkeypatch)
    field.value_and_gradient_many(ring_grid(24, 96, 0.95))
    field.value_many(random_disk_pairs(3, 1000, 0.95))
    # one block of points per pass; p' keeps at most one row more than p
    assert [kept for shift, kept in cuts if shift == 1] == [1, 1]
    assert [kept for shift, kept in cuts if shift == 0] in ([1], [2])


def test_kept_blocks_at_the_edges():
    rows = np.array([0.5, 1e-17, 1e-17, 0.3])
    assert harmonic._kept_blocks(rows, 0.5, 1) == 1
    assert harmonic._kept_blocks(rows, 0.999, 1) == 4
    # all rows vanish (or rho = 0): one row stays; a NaN keeps them all
    assert harmonic._kept_blocks(np.zeros(4), 0.9, 1) == 1
    assert harmonic._kept_blocks(rows, 0.0, 1) == 1
    assert harmonic._kept_blocks(np.array([0.5, np.nan, 0.0, 0.0]), 0.5, 1) == 4
    assert type(harmonic._kept_blocks(rows, 0.5, 0)) is int


def test_the_cut_stays_within_rounding_of_every_block(monkeypatch):
    z = np.concatenate([ring_grid(24, 96, 0.95), random_disk_pairs(3, 1000, 0.95).ravel()])
    boundaries = [cosine_boundary(0.5, 3)]
    for seed, samples in zip(range(6), (1024, 2048, 1000) * 2):
        smooth = random_smooth_boundary(seed, sample_count=samples)
        boundaries += [smooth, _cosine_lifted(smooth)]
    cut = [_point_sums(b, z) for b in boundaries]
    _keep_every_block(monkeypatch)
    eps = np.finfo(float).eps
    for b, got in zip(boundaries, cut):
        ref = _point_sums(b, z)
        err = _max_errors(got, ref)
        assert err[0] <= 8 * eps * np.max(np.abs(b.samples)), b.name
        assert max(err[1:]) <= 8 * eps * np.max(np.hypot(ref[1], ref[2])), b.name


@pytest.mark.parametrize("samples", [1000, 1024, 2048])
def test_step_data_at_the_rim_keeps_every_block(monkeypatch, samples):
    b = step_boundary(sample_count=samples)
    rows = -(-samples // harmonic._HORNER_BLOCK)
    # the oracle's reach, on a ring grid and at every sample angle
    z = np.concatenate([ring_grid(24, 96, harmonic._LIFT_RADIUS),
                        harmonic._LIFT_RADIUS * np.exp(1j * b.thetas)])
    cuts = _recorded_cuts(monkeypatch)
    got = poisson_value_and_gradient(b, z)
    assert cuts and all(kept == rows for _, kept in cuts)
    _keep_every_block(monkeypatch)
    assert all(np.array_equal(q, r) for q, r in zip(got, poisson_value_and_gradient(b, z)))


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
    # its own pass holds the origin and the radial spokes
    calls.clear()
    other = random_smooth_boundary(14)
    check_gradient_bound(metric, other)
    check_unimodal_bounds(metric, other)
    assert calls == ["poisson_value_and_gradient", "poisson_values"]


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
    with pytest.raises(InvalidInput, match="leave the target interval"):
        BoundaryData(lambda th: np.where(th > 1.0, np.nan, 0.5 * np.cos(th)))


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


# SHA-256 of the samples (numpy 2.4, x86-64) since the generators sum their
# polynomial by Horner in e^(i theta); the draws are those of the earlier
# mode loop, whose samples these differ from by at most 6.7e-16
RANDOM_BOUNDARY_DIGESTS = [
    (random_smooth_boundary, 0, "a1fa7bd792c5351e51ea8b62d6b2a32b3fa62d142d9126ec2c59b0f767ee8d0c"),
    (random_smooth_boundary, 3, "d839978b665da20e4c2e6d448e1c666abae7eadd5f0cb65669ab9dce03f9b151"),
    (random_smooth_boundary, 12, "54fb4b2d28aec20c5112cab533881170c66dd0457842adfa1cf4fbce0bdf997d"),
    (random_symmetric_boundary, 0, "7b1f5aa8dc5dfc613c1e4cb8a38e9f44ad0e2ee3487df3db4c8191d890d8da9c"),
    (random_symmetric_boundary, 3, "539679e34877d4ab53b09154e5e413c75bda4f0f8a9150b1ad086ec0016e4484"),
    (random_symmetric_boundary, 12, "2c7be24955bb3be22a760c1d37dce6107a4bc71ea23f1adeb8dd230f71278c04"),
]


@pytest.mark.parametrize("make, seed, digest", RANDOM_BOUNDARY_DIGESTS,
                         ids=[f"{make.__name__}-{seed}"
                              for make, seed, _ in RANDOM_BOUNDARY_DIGESTS])
def test_random_boundary_samples_are_unchanged(make, seed, digest):
    import hashlib
    assert hashlib.sha256(make(seed).samples.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("make, freqs, weights", [
    (random_smooth_boundary, np.arange(6), (1.0 + np.arange(6)) ** 2),
    (random_symmetric_boundary, np.arange(1, 10, 2), np.arange(1.0, 10.0, 2.0) ** 2),
], ids=["smooth", "symmetric"])
def test_random_boundary_is_its_trigonometric_sum(make, freqs, weights):
    # the Horner sum in e^(i theta) against the mode-by-mode sum of the same
    # draws, scaled by the same peak of a 4096-point probe
    for seed in range(12):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(len(freqs)) / weights
        b = rng.standard_normal(len(freqs)) / weights
        amp = 0.85 * rng.uniform(0.5, 1.0)

        def trig(th):
            return sum(am * np.cos(m * th) + bm * np.sin(m * th)
                       for m, am, bm in zip(freqs, a, b))

        probe = trig(2 * math.pi * np.arange(4096) / 4096)
        boundary = make(seed)
        expected = amp / np.max(np.abs(probe)) * trig(boundary.thetas)
        assert np.max(np.abs(boundary.samples - expected)) <= 8 * np.finfo(float).eps


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
    boundary = make_boundary()
    built = []
    ranges = []

    def spy(*args, **kw):
        built.append((np.array(kw["samples"]), BoundaryData(*args, **kw)))
        return built[-1][1]

    def range_spy(*args, **kw):
        ranges.append(HTransform(*args, **kw))
        return ranges[-1]

    # the lift hands its samples over: neither sorted, nor interpolated anew
    monkeypatch.setattr(harmonic, "BoundaryData", spy)
    monkeypatch.setattr(harmonic, "HTransform", range_spy)
    monkeypatch.setattr(harmonic, "boundary_from_samples", None)
    solved_field(metric, boundary)
    (g, lifted), = built
    samples = np.clip(boundary.samples, -1.0, 1.0)
    if metric.name == "hyperbolic":
        # the range table's H is atanh, centered at 0, and its r the
        # half-span atanh of the range's wider end
        (table,) = ranges
        lo, hi = table._nodes[[0, -1]]
        assert np.max(np.abs(table.h(samples) - np.arctanh(samples))) < 1e-10
        assert table.r == pytest.approx(max(-np.arctanh(lo), np.arctanh(hi)), abs=1e-10)
    else:
        assert ranges == []
        table = transform_table(metric)
    assert np.array_equal(g, table.h(samples) / table.r)
    th = boundary.thetas
    assert np.array_equal(lifted.thetas, th)
    assert np.array_equal(lifted.samples, g)
    assert lifted.name == f"H[{boundary.name}]"
    off = np.concatenate([th + 0.5 * (th[1] - th[0]),
                          np.random.default_rng(5).uniform(-10.0, 10.0, 500)])
    periodic = np.interp(np.mod(off, 2 * math.pi), np.append(th, 2 * math.pi),
                         np.append(g, g[0]))
    assert np.array_equal(lifted.values(off), periodic)


@pytest.mark.parametrize("metric, make_boundary", [
    (hyperbolic_metric(), lambda: cosine_boundary(0.8)),
    (exponential_metric(3.0), lambda: step_boundary(1.0)),
], ids=["range-table", "unit-table"])
def test_lifted_samples_lie_in_the_closed_unit_interval(monkeypatch, metric,
                                                        make_boundary):
    # g = H(samples)/r with r the table's half-span: a range table's g stays
    # inside [-1, 1] (not atanh(0.8) = 1.10), and a unit table's H(1)/r,
    # which may round to 1 + 2.2e-16, is clipped onto the end
    boundary = make_boundary()
    built = []

    def spy(*args, **kw):
        built.append(BoundaryData(*args, **kw))
        return built[-1]

    monkeypatch.setattr(harmonic, "BoundaryData", spy)
    solved_field(metric, boundary)
    (lifted,) = built
    assert np.max(np.abs(lifted.samples)) <= 1.0


def test_non_finite_lifted_sample_is_invalid_input(monkeypatch):
    metric, boundary = cosine_metric(), cosine_boundary(0.8)
    table = transform_table(metric)

    class Holed:
        r = table.r
        h_inv = table.h_inv

        def h(self, u):
            out = table.h(u)
            out[7] = np.nan
            return out

    monkeypatch.setattr(harmonic, "transform_table", lambda m, tols: Holed())
    with pytest.raises(InvalidInput, match="lifted boundary samples must be finite"):
        solved_field(metric, boundary)


@pytest.mark.parametrize("value", [-1.0, 1.0])
def test_boundary_constant_at_an_end_has_no_lift(value):
    boundary = constant_boundary(value)
    # a finite mass: the clip interval of g is empty
    with pytest.raises(InvalidInput, match="constant at -1 or 1"):
        solved_field(cosine_metric(), boundary)
    # as it is for data whose H/r lies within 1e-15 of the end: the cosine
    # density vanishes there, so H/r at +-(1 - 1e-8) is +-1 to 1.3e-16
    with pytest.raises(InvalidInput, match="within 1e-15"):
        solved_field(cosine_metric(), constant_boundary(value * (1.0 - 1e-8)))
    # an infinite mass: no table reaches the data
    with pytest.raises(NonIntegrable):
        solved_field(hyperbolic_metric(), boundary)
    # the oracle keeps the constant grid
    _, vals = fd_solve_oracle(cosine_metric(), boundary, 33).interior_points()
    assert np.all(vals == value)


def test_single_precision_points_give_the_double_precision_results():
    # points are taken to complex128 before any arithmetic, so z^(N-1) is
    # never formed in single precision
    rho = np.linspace(0.0, 0.99, 12)[:, None]
    z64 = (rho * np.exp(2j * np.pi * np.linspace(0.0, 1.0, 13))).astype(np.complex64)
    z128 = z64.astype(complex)
    boundary = random_smooth_boundary(8)
    assert np.array_equal(poisson_values(boundary, z64), poisson_values(boundary, z128))
    field = solved_field(cosine_metric(), boundary)
    assert np.array_equal(field.value_many(z64), field.value_many(z128))


# ---------------------------------------------------------------------------
# residual diagnostics
# ---------------------------------------------------------------------------

def test_pde_residual_tanh_hyperbolic():
    m = hyperbolic_metric()
    fld = analytic_field(
        lambda x, y: np.tanh(3 * np.asarray(x, float)),
        lambda x, y: (3 / np.cosh(3 * np.asarray(x, float)) ** 2,
                      np.zeros_like(np.asarray(y, float))))
    assert abs(pde_residual(m, fld, 0.1 + 0.2j)) <= 1e-4


def test_pde_residual_constant_field():
    fld = analytic_field(lambda x, y: np.full_like(np.asarray(x, float), 0.3),
                         lambda x, y: (np.zeros_like(np.asarray(x, float)),) * 2)
    assert pde_residual(cosine_metric(), fld, 0.1 + 0.2j) == 0.0


def test_pde_residual_solved_field():
    m = cosine_metric()
    fld = solved_field(m, random_smooth_boundary(8))
    rng = np.random.default_rng(5)
    for _ in range(12):
        z = 0.9 * math.sqrt(rng.uniform()) * np.exp(2j * math.pi * rng.uniform())
        assert abs(pde_residual(m, fld, z)) <= 1e-3


def test_pde_residual_on_arrays_is_the_scalar_stencil_bit_for_bit():
    # the scalar pde_residual of the previous release, one point at a time
    def scalar(metric, field, z, h=1e-3):
        z = complex(z)
        f0, fe, fw, fn, fs = field.value_many(
            np.array([z, z + h, z - h, z + 1j * h, z - 1j * h]))
        lap = (fe + fw + fn + fs - 4.0 * f0) / h ** 2
        fx = (fe - fw) / (2.0 * h)
        fy = (fn - fs) / (2.0 * h)
        q = float(metric.d_density(f0)) / float(metric.density(f0))
        return float(lap + q * (fx * fx + fy * fy))

    rng = np.random.default_rng(6)
    z = 0.9 * np.sqrt(rng.uniform(0, 1, 200)) * np.exp(2j * math.pi * rng.uniform(0, 1, 200))
    tanh3 = analytic_field(
        lambda x, y: np.tanh(3 * np.asarray(x, float)),
        lambda x, y: (3 / np.cosh(3 * np.asarray(x, float)) ** 2,
                      np.zeros_like(np.asarray(y, float))))
    wave = analytic_field(
        lambda x, y: 0.6 * np.sin(np.asarray(x, float)) * np.cosh(np.asarray(y, float)),
        lambda x, y: (0.6 * np.cos(np.asarray(x, float)) * np.cosh(np.asarray(y, float)),
                      0.6 * np.sin(np.asarray(x, float)) * np.sinh(np.asarray(y, float))))
    for metric, field in ((hyperbolic_metric(), tanh3), (cosine_metric(), wave),
                          (exponential_metric(1.0), wave)):
        out = pde_residual(metric, field, z)
        assert out.shape == z.shape
        assert np.array_equal(out, [scalar(metric, field, p) for p in z.tolist()])
        assert pde_residual(metric, field, z.reshape(8, 25)).shape == (8, 25)
        value = pde_residual(metric, field, 0.1 + 0.2j)
        assert type(value) is float and value == scalar(metric, field, 0.1 + 0.2j)


def test_pde_residual_stencil_guard():
    fld = solved_field(constant_metric(), random_smooth_boundary(1))
    with pytest.raises(StencilOutsideDisk):
        pde_residual(constant_metric(), fld, 0.9995 + 0.0j)


def test_hopf_constant_field_zero():
    fld = analytic_field(lambda x, y: np.full_like(np.asarray(x, float), 0.2),
                         lambda x, y: (np.zeros_like(np.asarray(x, float)),) * 2)
    grid = 0.3 * np.exp(1j * np.linspace(0, 2 * math.pi, 8, endpoint=False))
    assert hopf_holomorphy_residual(cosine_metric(), fld, grid) == 0.0


def test_hopf_tanh_field():
    # R(f)^2 f_z^2 = n^2/4 identically for f = tanh(n x) under 1/(1-u^2)
    m = hyperbolic_metric()
    n = 2
    fld = analytic_field(
        lambda x, y: np.tanh(n * np.asarray(x, float)),
        lambda x, y: (n / np.cosh(n * np.asarray(x, float)) ** 2,
                      np.zeros_like(np.asarray(y, float))))
    grid = 0.4 * np.exp(1j * np.linspace(0, 2 * math.pi, 16, endpoint=False))
    assert hopf_holomorphy_residual(m, fld, grid) <= 1e-6


def test_hopf_solved_field():
    m = cosine_metric()
    fld = solved_field(m, random_smooth_boundary(8))
    grid = 0.8 * np.exp(1j * np.linspace(0, 2 * math.pi, 24, endpoint=False))
    assert hopf_holomorphy_residual(m, fld, grid) <= 1e-3


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


@pytest.mark.parametrize("cap", [5, 6])
def test_oracle_raises_when_its_cap_comes_before_the_update_tolerance(cap):
    # 7 solves bring the update below fd_update_tol; a cap that stops the
    # oracle short of it raises, however small the last update (1.6e-9 at 6)
    tols = DEFAULT.replaced(fd_max_sweeps=cap)
    with pytest.raises(NoConvergence, match=f"after {cap} solves$"):
        fd_solve_oracle(cosine_metric(), random_smooth_boundary(0), 65, tols=tols)
    grid = fd_solve_oracle(cosine_metric(), random_smooth_boundary(0), 65,
                           tols=DEFAULT.replaced(fd_max_sweeps=7))
    assert grid.sweeps == 7 and grid.final_update < DEFAULT.fd_update_tol


def test_oracle_stall_raises_under_default_tolerances():
    # the iterate jumps between the clip bounds (final update 1.6 = hi - lo)
    with pytest.raises(NoConvergence, match="after 1000 solves$"):
        fd_solve_oracle(exponential_metric(10.0), cosine_boundary(0.8), 65)


def test_oracle_nan_source_raises():
    # the first non-finite update raises, not the cap of 1000 solves
    broken = Metric1D(-1.0, 1.0, lambda u: np.full_like(u, np.nan),
                      lambda u: np.zeros_like(u),
                      lambda u: np.zeros_like(u), name="nan-density")
    with pytest.raises(NoConvergence, match="non-finite update at solve 1$"):
        fd_solve_oracle(broken, cosine_boundary(0.8), 65)


def test_oracle_reads_the_density_alone():
    def refuse(u):
        raise AssertionError("the oracle must not read a derivative of R")

    cosine = cosine_metric()
    metric = Metric1D(-1.0, 1.0, cosine.density, refuse, refuse, name="cosine-R-only")
    b = random_smooth_boundary(2, sample_count=2048)
    grid = fd_solve_oracle(metric, b, 65)
    assert np.array_equal(grid.values, fd_solve_oracle(cosine, b, 65).values,
                          equal_nan=True)


@pytest.mark.parametrize("boundary, tol", [(cosine_boundary(0.8), 5e-3),
                                           (step_boundary(0.9), 2e-2)],
                         ids=["cosine", "step"])
@pytest.mark.parametrize("n", [65, 101])
def test_oracle_solves_the_bare_tent(n, boundary, tol):
    # R of the bare tent (0.5, 0.5) is continuous, while R' jumps at +-0.5;
    # the divergence form needs R alone
    tent = metric_from_json({"kind": "lemma_psi_family", "params": {"a": 0.5, "s": 0.5}})
    grid = fd_solve_oracle(tent, boundary, n)
    assert grid.final_update < DEFAULT.fd_update_tol
    assert lift_sup_difference(grid, tent, boundary) <= tol


@pytest.mark.parametrize("n", [65, 101, 201])
def test_oracle_solves_the_steep_bare_tent(n):
    # R' of the tent (4, 1/3) jumps at +-1/3, and R varies 5.8-fold; each
    # step solves for the change of the primitive of R, not of f
    tent = metric_from_json({"kind": "lemma_psi_family", "params": {"a": 4, "s": 1 / 3}})
    boundary = cosine_boundary(0.8)
    grid = fd_solve_oracle(tent, boundary, n)
    assert grid.final_update < DEFAULT.fd_update_tol
    assert lift_sup_difference(grid, tent, boundary) <= 5e-3


@pytest.mark.parametrize("n", [65, 101])
def test_oracle_converges_fast_on_a_steep_exponential(n):
    grid = fd_solve_oracle(exponential_metric(3.0), cosine_boundary(0.8), n)
    assert grid.final_update < DEFAULT.fd_update_tol
    assert grid.sweeps <= 12


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", ["cosine", "exponential"])
def test_oracle_stops_within_its_update_of_the_fixed_point(name, seed):
    # faster than linear convergence: the last update bounds the distance to
    # the fixed point, so a tighter stop rule moves no node by more than 1e-12
    metric = cosine_metric() if name == "cosine" else exponential_metric(1.0)
    b = random_smooth_boundary(seed)
    grid = fd_solve_oracle(metric, b, 65)
    tight = fd_solve_oracle(metric, b, 65, tols=DEFAULT.replaced(fd_update_tol=1e-13))
    assert np.nanmax(np.abs(grid.values - tight.values)) <= 1e-12


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
    m = len(op.flat_cells)
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
    m = len(op.flat_cells)
    if clipped:
        # no grid node lies within 1e-6 h of the circle; shorten a third of
        # the cut arms to the clip and another third to just above it
        rng = np.random.default_rng(n)
        arms = {d: a.copy() for d, a in op.arms.items()}
        for d in "EWNS":
            cut = np.nonzero(op.nbr[d] >= m)[0]
            arms[d][cut[::3]] = 1e-6
            arms[d][cut[1::3]] = 1e-6 * (1.0 + rng.uniform(size=len(cut[1::3])))
        op = harmonic._DiskOperator(xs=op.xs, inside=op.inside, arms=arms,
                                    nbr=op.nbr, angles=op.angles)
        assert max(op.stencil[2][:, 0]) > 1e5   # diagonals near 1e6
    rhs = np.random.default_rng(1).standard_normal(m)
    expected = np.linalg.solve(_dense_shortley_weller(op), rhs)
    assert np.max(np.abs(op.solve(rhs) - expected)) <= 1e-12 * np.max(np.abs(expected))


# defect-correction solves per case (seeds 0, 1, 2 at each n), as a dense
# inverse of the same operator gives them at n = 65: an exact, deterministic
# linear solve must reproduce them
_ORACLE_SWEEPS = {"cosine": {65: (7, 5, 6), 101: (7, 5, 6), 201: (7, 5, 6)},
                  "exponential": {65: (7, 5, 6), 101: (6, 5, 6), 201: (6, 5, 5)}}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n", [65, 101, 201])
@pytest.mark.parametrize("name", ["cosine", "exponential"])
def test_oracle_sweeps_are_pinned(name, n, seed):
    metric = cosine_metric() if name == "cosine" else exponential_metric(1.0)
    grid = fd_solve_oracle(metric, random_smooth_boundary(seed, sample_count=2048), n)
    assert grid.sweeps == _ORACLE_SWEEPS[name][n][seed]
