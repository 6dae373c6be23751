"""Harmonic machinery on the unit disk.

Euclidean harmonic extension by the Poisson kernel (trapezoid rule over
uniform boundary samples, spectrally accurate for smooth data), the lift of
boundary data to metric-harmonic solutions through the centered primitive H,
a defect-correction oracle that discretizes the quasilinear equation directly
by finite differences, in divergence form (each linear step solved by sine
transforms with a capacitance correction at the cut cells, in numpy alone),
and residual diagnostics
(pointwise equation residual and holomorphy of the quadratic differential).

A trapezoid Poisson sum means the sum at the points the caller passes, and
one path serves every point set (ring grids, scattered pairs, the oracle's
nodes, user points).  With c = fft(samples) / N, the N-sample sum is exactly

    u_N(z) = c_0 + 2 Re[p(z) / (1 - z^N)],  p(z) = sum_{j=1}^{N-1} c_j z^j + c_0 z^N,

the alias sum of the kernel's series r^|k| e^(ik(phi - theta)).  p and p'
come from blocked Horner: per block of points, one complex matrix product
of the point powers with the coefficient matrix of each polynomial.  The
sums are exact up to blocks bounded below one rounding: the top rows of 64
coefficients whose bounds over the block's max |z| add up to at most eps
times the largest row's are left out.  A gradient pass returns the values
with the gradient, from the same powers.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .config import DEFAULT, Tolerances, spec_param, spec_params
from .errors import (InvalidInput, NoConvergence, NonIntegrable, OutsideDisk,
                     ParameterOutOfRange, StencilOutsideDisk)
from .lifetime import lifetime_cache
from .metrics import HTransform, Metric1D, transform_table

TWO_PI = 2.0 * math.pi
_RANDOM_MODES = 5          # harmonics of the random boundaries
_RANDOM_MAX_ABS = 0.85     # bound on their values
_RESIDUAL_STEP = 1e-3      # step of the residual differences
_LIFT_RADIUS = 0.99        # the lift meets the oracle on nodes with |z| <= this


# ---------------------------------------------------------------------------
# boundary data
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class BoundaryData:
    """Samples of a 2*pi-periodic function on the circle.

    `values` maps angle arrays to value arrays; uniform samples are cached
    for quadrature.  A caller that already holds the values at the uniform
    angles `thetas` may pass them as `samples`; otherwise they are
    `values(thetas)`.  Values lie in the closed interval [-1, 1], the target
    of the paper's f and of the lift's Euclidean-harmonic g: the classical
    extremal step data sits exactly at the endpoints, while interior values
    of any extension stay strictly inside by the maximum principle.  Samples
    within 1e-12 past an end are clipped onto it.
    """
    values: Callable
    sample_count: int = DEFAULT.boundary_samples
    name: str = "boundary"
    thetas: np.ndarray = field(init=False, repr=False)
    samples: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self):
        if self.sample_count < 8:
            raise InvalidInput("sample_count must be at least 8")
        thetas = TWO_PI * np.arange(self.sample_count) / self.sample_count
        samples = np.asarray(self.values(thetas) if self.samples is None
                             else self.samples, float)
        if samples.shape != thetas.shape:
            raise InvalidInput("boundary values must be vectorized over angles")
        # written so that a NaN sample fails it
        if not (-1.0 - 1e-12 <= samples.min() and samples.max() <= 1.0 + 1e-12):
            raise InvalidInput("boundary values leave the target interval")
        object.__setattr__(self, "thetas", thetas)
        object.__setattr__(self, "samples", np.clip(samples, -1.0, 1.0))

    def mean(self) -> float:
        return float(np.mean(self.samples))


def constant_boundary(value: float, **kw) -> BoundaryData:
    return BoundaryData(
        lambda th: np.full_like(np.asarray(th, float), value),
        name=f"constant({value:g})", **kw)


def cosine_boundary(amplitude: float = 0.8, frequency: int = 1,
                    phase: float = 0.0, **kw) -> BoundaryData:
    """amplitude * cos(frequency * theta + phase).

    The frequency is an integer m with |m| < N/2, N the sample count (a
    higher one aliases on the samples), and the phase is finite with
    |phase| <= 2 pi.
    """
    half = kw.get("sample_count", DEFAULT.boundary_samples) / 2
    if not (float(frequency).is_integer() and abs(frequency) < half):
        raise ParameterOutOfRange(
            f"cosine frequency must be an integer m with |m| < {half:g}, got {frequency!r}")
    if not abs(phase) <= TWO_PI:   # written so that a NaN phase fails it
        raise ParameterOutOfRange(f"cosine phase must lie in [-2 pi, 2 pi], got {phase!r}")
    return BoundaryData(
        lambda th: amplitude * np.cos(frequency * np.asarray(th, float) + phase),
        name=f"cosine(a={amplitude:g}, m={frequency})", **kw)


def step_boundary(amplitude: float = 1.0, **kw) -> BoundaryData:
    """+amplitude on the upper semicircle, -amplitude on the lower, 0 at the jumps."""

    def fn(th):
        s = np.sin(np.asarray(th, float))
        return amplitude * np.where(np.abs(s) < 1e-9, 0.0, np.sign(s))

    return BoundaryData(fn, name=f"step({amplitude:g})", **kw)


def boundary_from_samples(theta: Sequence[float], values: Sequence[float],
                          name: str = "samples", **kw) -> BoundaryData:
    """Periodic linear interpolation through scattered angle samples."""
    try:
        theta, values = np.asarray(theta, float), np.asarray(values, float)
    except (TypeError, ValueError) as exc:
        raise InvalidInput("boundary samples need numeric theta/values arrays") from exc
    if theta.ndim != 1 or theta.shape != values.shape or len(theta) < 3:
        raise InvalidInput("need matching 1-d theta/values arrays with >= 3 samples")
    if not (np.all(np.isfinite(theta)) and np.all(np.isfinite(values))):
        raise InvalidInput("boundary sample angles and values must be finite")
    theta = np.mod(theta, TWO_PI)
    order = np.argsort(theta)
    theta, values = theta[order], values[order]
    if np.any(np.diff(theta) == 0):
        raise InvalidInput("duplicate angles in boundary samples")
    return BoundaryData(_periodic_interpolant(theta, values), name=name, **kw)


def _periodic_interpolant(theta: np.ndarray, values: np.ndarray) -> Callable:
    """Periodic linear interpolation through distinct increasing angles theta
    in [0, 2 pi) and their values."""
    tx = np.concatenate([theta, [theta[0] + TWO_PI]])
    vx = np.concatenate([values, [values[0]]])

    def interp(th):
        th = np.mod(np.asarray(th, float) - theta[0], TWO_PI) + theta[0]
        return np.interp(th, tx, vx)

    return interp


def boundary_from_json(spec: dict, **kw) -> BoundaryData:
    """Boundary data from {"kind": "samples", "theta": [...], "values": [...]}
    or {"kind": "expression-preset", "name": ..., "params": {...}} documents;
    each kind and preset takes only the keys it names."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise InvalidInput("boundary spec must be an object with a 'kind' field")
    kind = spec["kind"]
    if kind == "samples":
        if "theta" not in spec or "values" not in spec:
            raise InvalidInput("samples boundary needs 'theta' and 'values' arrays")
        spec_params(spec, top=("theta", "values"))
        return boundary_from_samples(spec["theta"], spec["values"], **kw)
    if kind == "expression-preset":
        name = spec.get("name")
        if name == "step":
            params = spec_params(spec, "amplitude", top=("name",))
            return step_boundary(spec_param(params, "amplitude", 1.0), **kw)
        if name == "cosine":
            params = spec_params(spec, "amplitude", "frequency", "phase", top=("name",))
            return cosine_boundary(spec_param(params, "amplitude", 0.8),
                                   spec_param(params, "frequency", 1, int),
                                   spec_param(params, "phase", 0.0), **kw)
        if name == "constant":
            params = spec_params(spec, "value", top=("name",))
            if "value" not in params:
                raise InvalidInput("constant boundary needs params.value")
            return constant_boundary(spec_param(params, "value"), **kw)
        raise InvalidInput(f"unknown boundary preset {name!r}")
    raise InvalidInput(f"unknown boundary kind {kind!r}")


def _random_trig_boundary(seed: int, freqs: np.ndarray, weights: np.ndarray,
                          name: str, **kw) -> BoundaryData:
    """Random trigonometric polynomial over `freqs`, scaled inside +-_RANDOM_MAX_ABS.

    Coefficients are standard normal draws divided by `weights`; the peak
    modulus is a random share in [1/2, 1) of _RANDOM_MAX_ABS.  The polynomial
    sum_m a_m cos(m theta) + b_m sin(m theta) is evaluated as
    Re sum_m (a_m - i b_m) z^m at z = e^(i theta), by one Horner sum
    (`_horner`; b_0 drops out with the imaginary part).
    """
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(len(freqs)) / weights
    b = rng.standard_normal(len(freqs)) / weights
    amp = _RANDOM_MAX_ABS * rng.uniform(0.5, 1.0)
    coef = np.zeros(int(freqs.max()) + 1, complex)
    coef[freqs] = a - 1j * b

    def fn(th):
        return _horner(coef, np.exp(1j * np.asarray(th, float))).real

    probe = fn(TWO_PI * np.arange(4096) / 4096)
    scale = amp / max(np.max(np.abs(probe)), 1e-12)
    return BoundaryData(lambda th: scale * fn(th), name=name, **kw)


def random_smooth_boundary(seed: int, **kw) -> BoundaryData:
    """Random trigonometric polynomial of order 5, scaled into (-0.85, 0.85)."""
    freqs = np.arange(_RANDOM_MODES + 1)
    return _random_trig_boundary(seed, freqs, (1.0 + freqs) ** 2,
                                 f"random(seed={seed})", **kw)


def random_symmetric_boundary(seed: int, **kw) -> BoundaryData:
    """Random smooth data with f(theta + pi) = -f(theta): the odd harmonics
    1 .. 9, scaled into (-0.85, 0.85).

    For an even metric this forces the lifted solution to vanish at the
    origin, which the origin-pinned bound checks require.
    """
    freqs = np.arange(1, 2 * _RANDOM_MODES, 2)
    return _random_trig_boundary(seed, freqs, freqs.astype(float) ** 2,
                                 f"random-odd(seed={seed})", **kw)


# ---------------------------------------------------------------------------
# Poisson extension
# ---------------------------------------------------------------------------

# complex elements per block of kernel temporaries: points x (powers + the
# coefficient rows of p and of p'), one row count for values and gradients
_BLOCK_ELEMENTS = 2 ** 19
# powers of z per Horner block in the Laurent path
_HORNER_BLOCK = 64
_EPS = np.finfo(float).eps


def _flat_disk_points(z) -> tuple[np.ndarray, np.ndarray]:
    """(z as a complex array, its flat view), once every point is in the disk."""
    z = np.asarray(z, complex)
    flat = np.ravel(z)
    if np.any(np.abs(flat) >= 1.0):
        raise OutsideDisk("evaluation point outside the open unit disk")
    return z, flat


class _LaurentRows(NamedTuple):
    """The coefficient rows of one boundary's Laurent sums (see `_laurent_sums`)."""
    mean: float              # c_0
    coef: np.ndarray         # q, (cols, _HORNER_BLOCK)
    d_coef: np.ndarray       # (m + 1) q_m, the rows of p'
    coef_max: np.ndarray     # max |q_m| per row
    d_coef_max: np.ndarray   # max |(m + 1) q_m| per row


@lifetime_cache()
def _laurent_rows(boundary: BoundaryData) -> _LaurentRows:
    """The Laurent rows of the boundary's samples, once for as long as the
    boundary lives; the arrays are read-only, since every pass shares them."""
    n = boundary.sample_count
    c = np.fft.fft(boundary.samples) / n
    cols = -(-n // _HORNER_BLOCK)
    q = np.zeros(cols * _HORNER_BLOCK, complex)
    q[:n] = np.roll(c, -1)
    coef = q.reshape(cols, _HORNER_BLOCK)
    d_coef = coef * np.arange(1.0, q.size + 1).reshape(coef.shape)
    rows = _LaurentRows(c[0].real, coef, d_coef,
                        np.abs(coef).max(axis=1), np.abs(d_coef).max(axis=1))
    for a in rows[1:]:
        a.flags.writeable = False
    return rows


def _kept_blocks(row_max: np.ndarray, rho: float, shift: int) -> int:
    """How many leading coefficient blocks (rows of B = `_HORNER_BLOCK`
    coefficients) a sum over |z| <= rho keeps.

    Row b adds at most B row_max[b] rho^(B b + shift) to its polynomial
    (shift 1 for p = z q, 0 for p').  The top rows go when their bounds add
    up to at most eps times the largest one: blocks bounded below one
    rounding.  At least one row stays, and a NaN bound keeps them all.
    """
    bound = row_max * rho ** (_HORNER_BLOCK * np.arange(len(row_max)) + shift)
    tail = np.cumsum(bound[::-1])[::-1]
    return max(1, len(bound) - int(np.count_nonzero(tail <= _EPS * bound.max())))


def _laurent_sums(boundary: BoundaryData, flat: np.ndarray, gradient: bool = False):
    """The trapezoid Poisson sum at the points `flat`, by its Laurent form,
    exact up to blocks bounded below one rounding.

    Returns u_N(z) = c_0 + 2 Re F(z), F = p / (1 - z^N), and with `gradient`
    also the complex 2 F'(z) = gx - i gy, where

        F' = (p' (1 - z^N) + N z^(N-1) p) / (1 - z^N)^2.

    p(z) = z q(z), with q's N coefficients roll(c, -1) zero-padded to
    `_HORNER_BLOCK` x cols.  Both q and p' = sum_m (m+1) q_m z^m share the
    powers Z = [z^0 .. z^(B-1)]: the matrix product of Z with the (cols, B)
    coefficient rows (with their differentiated rows, for p') gives the
    block polynomials, and Horner in w = z^B adds them up.  Per block of
    points, at rho = max |z|, only the rows that `_kept_blocks` keeps enter
    the product and Horner: on smooth data well inside the disk the top rows
    are FFT noise or damped by rho^(B b), while near the rim every row
    stays.  z^(N-1) comes from z by repeated squaring (`_int_power`), never
    by dividing by z (NaN at z = 0) nor from the Horner blocks (which lose
    digits near the rim).  Both modes run the same blocks of points through
    the same arithmetic for u, with p's rows chosen by its own bound, so the
    values of a gradient pass equal those of a values-only pass bit for bit.
    """
    n = boundary.sample_count
    laurent = _laurent_rows(boundary)
    u = np.empty(len(flat))
    g = np.empty(len(flat), complex) if gradient else None
    rows = max(1, _BLOCK_ELEMENTS // (_HORNER_BLOCK + 2 * len(laurent.coef)))
    for k in range(0, len(flat), rows):
        z = flat[k:k + rows]
        rho = float(np.abs(z).max())
        # the running product row by row: np.cumprod over the same rows
        # takes five times as long for complex input
        powers = np.empty((_HORNER_BLOCK, len(z)), complex)
        powers[0] = 1.0
        for j in range(1, _HORNER_BLOCK):
            np.multiply(powers[j - 1], z, out=powers[j])
        w = powers[-1] * z
        kept = _kept_blocks(laurent.coef_max, rho, 1)
        p = z * _horner(laurent.coef[:kept] @ powers, w)
        z_n1 = _int_power(z, n - 1)
        d = 1.0 - z_n1 * z
        u[k:k + rows] = laurent.mean + 2.0 * (p / d).real
        if gradient:
            kept = _kept_blocks(laurent.d_coef_max, rho, 0)
            dp = _horner(laurent.d_coef[:kept] @ powers, w)
            g[k:k + rows] = 2.0 * (dp * d + n * z_n1 * p) / d ** 2
    return (u, g) if gradient else u


def _int_power(z: np.ndarray, n: int) -> np.ndarray:
    """z**n for an integer n >= 0 by repeated squaring.

    numpy's complex power goes through exp and log from n = 100 on: ten
    times slower at n = 1023, and its relative error near the rim, 4.5e-13
    there, is about five times that of the squarings.
    """
    out = None
    while True:
        if n & 1:
            out = z if out is None else out * z
        n >>= 1
        if not n:
            return np.ones_like(z) if out is None else out
        z = z * z


def _horner(blocks: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_j blocks[j] * w^j, one row per power of w."""
    acc = blocks[-1].copy()
    for row in blocks[-2::-1]:
        acc *= w
        acc += row
    return acc


def poisson_values(boundary: BoundaryData, z) -> np.ndarray:
    """Trapezoid Poisson integral of the boundary samples at points z."""
    z, flat = _flat_disk_points(z)
    return _laurent_sums(boundary, flat).reshape(z.shape)


def poisson_value_and_gradient(boundary: BoundaryData, z
                               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Poisson values and their gradient (u, gx, gy) at points z, in one pass.

    u equals `poisson_values(boundary, z)` bit for bit.
    """
    z, flat = _flat_disk_points(z)
    u, g = _laurent_sums(boundary, flat, gradient=True)
    return u.reshape(z.shape), g.real.reshape(z.shape), -g.imag.reshape(z.shape)


def poisson_gradient(boundary: BoundaryData, z) -> tuple[np.ndarray, np.ndarray]:
    """Gradient of the Poisson extension via the differentiated kernel."""
    _, gx, gy = poisson_value_and_gradient(boundary, z)
    return gx, gy


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

class HarmonicField:
    """Evaluable scalar field on the disk with a gradient.

    Wraps a Euclidean Poisson extension, a lifted metric-harmonic solution,
    or any closed-form field supplied directly: its two callables alone.
    `value_and_gradient_many` is the one gradient path (one Poisson pass for
    the Poisson-backed fields); `gradient_many` is that call without the
    values.

    `value_and_gradient_many` remembers its last call, keyed on the points'
    shape and bytes, so checks that evaluate one grid in turn (the gradient
    bound, then the unimodal bound, on a cached `solved_field`) pay for one
    pass.  Its arrays are read-only, since a repeat call returns the same
    ones.
    """

    def __init__(self, value_many: Callable, value_and_gradient_many: Callable):
        self._value_many = value_many
        self._value_and_gradient_many = value_and_gradient_many
        self._last = None   # ((shape, bytes) of the points, read-only results)

    def value_many(self, z) -> np.ndarray:
        return self._value_many(np.asarray(z, complex))

    def value_and_gradient_many(self, z) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        z = np.asarray(z, complex)
        key = (z.shape, z.tobytes())
        if self._last is None or self._last[0] != key:
            out = tuple(np.asarray(q).view() for q in self._value_and_gradient_many(z))
            for q in out:
                q.flags.writeable = False
            self._last = key, out
        return self._last[1]

    def gradient_many(self, z) -> tuple[np.ndarray, np.ndarray]:
        _, gx, gy = self.value_and_gradient_many(z)
        return gx, gy


def euclidean_field(boundary: BoundaryData) -> HarmonicField:
    return HarmonicField(lambda z: poisson_values(boundary, z),
                         lambda z: poisson_value_and_gradient(boundary, z))


def analytic_field(value: Callable, grad: Callable) -> HarmonicField:
    """Field from closed-form callables value(x, y) and grad(x, y) -> (gx, gy)."""

    def value_many(z):
        return np.asarray(value(z.real, z.imag), float)

    def value_and_gradient_many(z):
        gx, gy = grad(z.real, z.imag)
        return value_many(z), np.asarray(gx, float), np.asarray(gy, float)

    return HarmonicField(value_many, value_and_gradient_many)


@lifetime_cache(position=1)
def solved_field(metric: Metric1D, boundary: BoundaryData,
                 tols: Tolerances = DEFAULT) -> HarmonicField:
    """Lift boundary data to the metric-harmonic solution via H.

    Cached for as long as the boundary lives, per metric and tolerances.
    The field holds the metric's density and table but not the boundary,
    so it works on its own and goes with the boundary.

    The Euclidean extension g of H(boundary)/r is computed by the Poisson
    integral and the solution is f = H^{-1}(r g); its gradient follows from
    the chain rule, grad f = r grad g / R(f).  r is the table's half-span,
    so the transformed samples, and with them g, lie in [-1, 1].

    Densities of infinite mass still admit the lift whenever the boundary
    values stay compactly inside (-1, 1): the scale r is only cosmetic
    (harmonicity is scale-invariant), so a transform table over a compact
    value range replaces the centered H.  Both tables integrate and invert
    with the quadrature and inversion tolerances of `tols`.

    g is clipped into the transformed samples' range, kept 1e-15 inside
    (-1, 1), where H^{-1} is defined.  Data constant at -1 or at 1, or with
    H/r within 1e-15 of one end at every sample (the constant 0.99999999 on
    the cosine density, which vanishes at 1), leave that interval empty and
    have no lift: InvalidInput.
    """
    try:
        table = transform_table(metric, tols)
    except NonIntegrable:
        m0 = float(boundary.samples.min())
        m1 = float(boundary.samples.max())
        maxabs = max(abs(m0), abs(m1))
        if maxabs >= 1.0 - 1e-9:
            raise
        pad = min(0.02, 0.5 * (1.0 - maxabs))
        table = HTransform(metric, tols, lo=min(m0, 0.0) - pad, hi=max(m1, 0.0) + pad)
    r = table.r
    g_samples = table.h(boundary.samples) / r
    if not np.all(np.isfinite(g_samples)):
        raise InvalidInput("lifted boundary samples must be finite")
    # the periodic linear interpolant of the transformed samples, which are
    # its values at the boundary's own angles
    g_boundary = BoundaryData(
        _periodic_interpolant(boundary.thetas, g_samples),
        sample_count=boundary.sample_count, name=f"H[{boundary.name}]",
        samples=g_samples)

    # the maximum principle confines g to the sample range; clipping removes
    # the rim aliasing of the trapezoid Poisson integral before inversion
    g_lo = max(float(g_samples.min()), -1.0 + 1e-15)
    g_hi = min(float(g_samples.max()), 1.0 - 1e-15)
    if g_lo > g_hi:
        raise InvalidInput("boundary data constant at -1 or 1 (H/r within 1e-15 of it) "
                           "have no lift inside (-1, 1)")

    def lift(g):
        return table.h_inv(r * np.clip(g, g_lo, g_hi))

    def value_many(z):
        return lift(poisson_values(g_boundary, z))

    def value_and_gradient_many(z):
        g, gx, gy = poisson_value_and_gradient(g_boundary, z)
        f = lift(g)
        scale = r / np.asarray(metric.density(f), float)
        return f, gx * scale, gy * scale

    return HarmonicField(value_many, value_and_gradient_many)


# ---------------------------------------------------------------------------
# residual diagnostics
# ---------------------------------------------------------------------------

def _five_point(values: Callable, z, h: float, in_disk: bool = False):
    """f0, the five-point Laplacian, fx and fy at the points z, from one call
    of `values` (complex points to values) on z and its E, W, N and S
    neighbours z + h, z - h, z + ih, z - ih, stacked and summed in that order.
    With `in_disk`, a neighbour off the open disk raises StencilOutsideDisk."""
    z = np.asarray(z, complex)
    pts = np.stack([z, z + h, z - h, z + 1j * h, z - 1j * h])
    if in_disk and np.any(np.abs(pts) >= 1.0):
        raise StencilOutsideDisk("difference stencil leaves the disk")
    f0, fe, fw, fn, fs = values(pts)
    lap = (fe + fw + fn + fs - 4.0 * f0) / h ** 2
    fx = (fe - fw) / (2.0 * h)
    fy = (fn - fs) / (2.0 * h)
    return f0, lap, fx, fy


def _equation_residual(metric: Metric1D, f0, lap, fx, fy):
    """Delta f + (R'(f)/R(f)) |grad f|^2 from the values of `_five_point`."""
    q = np.asarray(metric.d_density(f0), float) / np.asarray(metric.density(f0), float)
    return lap + q * (fx * fx + fy * fy)


def pde_residual(metric: Metric1D, field: HarmonicField, z):
    """Five-point residual of Delta f + (R'(f)/R(f)) |grad f|^2 at a point or
    an array of points (step 1e-3, one value pass); a float for a scalar z."""
    res = np.asarray(_equation_residual(
        metric, *_five_point(field.value_many, z, _RESIDUAL_STEP, in_disk=True)))
    return float(res) if res.ndim == 0 else res


def hopf_holomorphy_residual(metric: Metric1D, field: HarmonicField,
                             grid: Sequence[complex]) -> float:
    """Max Cauchy-Riemann residual of R(f)^2 f_z^2 over the grid.

    The quadratic differential of a genuinely metric-harmonic field is
    holomorphic; it is assembled from the field's own gradient and its
    Cauchy-Riemann derivatives are taken by central differences of step 1e-3.
    """

    def quadratic_differential(pts):
        f, gx, gy = field.value_and_gradient_many(pts)
        return np.asarray(metric.density(f), float) ** 2 * (0.5 * (gx - 1j * gy)) ** 2

    _, _, wx, wy = _five_point(quadratic_differential, np.ravel(np.asarray(grid, complex)),
                               _RESIDUAL_STEP, in_disk=True)
    # w = u + iv is holomorphic where u_x = v_y and u_y = -v_x
    return float(np.max(np.abs(wx.real - wy.imag) + np.abs(wy.real + wx.imag)))


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------

@dataclass
class GridField:
    """Solution samples on a Cartesian grid masked to the disk."""
    xs: np.ndarray              # (n,) node coordinates on both axes
    values: np.ndarray          # (n, n), x-major; NaN outside the disk
    inside: np.ndarray          # unknown interior nodes
    sweeps: int                 # linear solves taken (1 for constant data)
    final_update: float

    def interior_points(self) -> tuple[np.ndarray, np.ndarray]:
        ii, jj = np.nonzero(self.inside)
        pts = self.xs[ii] + 1j * self.xs[jj]
        return pts, self.values[ii, jj]


def _disk_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Grid coordinates and the mask of unknown nodes strictly inside the disk."""
    xs = np.linspace(-1.0, 1.0, n)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    return xs, X * X + Y * Y < 1.0 - 1e-14


# irregular rows per block of the capacitance build
_CAPACITANCE_BLOCK = 32


@dataclass(frozen=True, eq=False)
class _DiskOperator:
    """Shortley-Weller discretization A of -Laplacian * h^2/2 on the n x n
    disk grid, and its exact solve.

    Unknowns are the interior nodes in `np.nonzero(inside)` order.  Each arm
    points either at another unknown or, at a cut cell, at the circle
    crossing; `nbr[d]` indexes the concatenation [unknowns, crossing values],
    with the crossing values taken at `angles`.  Row i of A is
    sum_d weights[d][i] (u_i - v_d), v_d the value at the end of arm d.

    `solve` needs no factor of A.  A row with four whole arms is the row of
    A0 = 2I - (E + W + N + S)/2 on the N^2 = (n - 2)^2 interior nodes of the
    square (zero on its edge), which the orthogonal sine matrix
    S[i, a] = sqrt(2/(N+1)) sin(pi (i+1)(a+1)/(N+1)) diagonalizes:
    A0^-1 F = S ((S F S) / eig) S, eig[a, b] = mu_a + mu_b with
    mu_a = 1 - cos(pi (a+1)/(N+1)).  The k irregular unknowns, those with a
    cut arm, keep their own rows R of A.  The solution of A u = b is then
    u = A0^-1 (b + q) on the disk, where q lives on the irregular cells and
    solves the k x k capacitance system C q = b_irr - R A0^-1 b with
    C = R A0^-1 restricted to the irregular cells (Buzbee, Dorr, George &
    Golub 1971; Proskurowski & Widlund 1976).  C is non-singular whenever A
    is.  Rows of C are divided by their diagonal entry of A, which reaches
    1e6 where an arm is clipped to 1e-6.
    """
    xs: np.ndarray
    inside: np.ndarray
    arms: dict                  # arm -> (m,) arm length in units of h
    nbr: dict                   # arm -> (m,) index into [unknowns, crossings]
    angles: np.ndarray          # (c,) polar angles of the circle crossings
    weights: dict = field(init=False, repr=False)    # arm -> (m,) weight in A
    sines: np.ndarray = field(init=False, repr=False)        # (N, N) S
    eig: np.ndarray = field(init=False, repr=False)          # (N, N)
    flat_cells: np.ndarray = field(init=False, repr=False)   # (m,) raveled square cells
    irregular: np.ndarray = field(init=False, repr=False)    # (k,) unknowns
    # (k, 5) square i, square j and weight of each entry of R: the diagonal,
    # then one per arm (a cut arm names the node's own cell, weight 0)
    stencil: tuple = field(init=False, repr=False)
    capacitance_inv: np.ndarray = field(init=False, repr=False)   # (k, k)

    def __post_init__(self):
        m = int(self.inside.sum())
        ii, jj = np.nonzero(self.inside)
        ci, cj = ii - 1, jj - 1
        aE, aW, aN, aS = (self.arms[d] for d in "EWNS")
        weights = {"E": 1.0 / (aE * (aE + aW)), "W": 1.0 / (aW * (aE + aW)),
                   "N": 1.0 / (aN * (aN + aS)), "S": 1.0 / (aS * (aN + aS))}
        diag = 1.0 / (aE * aW) + 1.0 / (aN * aS)
        cut = {d: self.nbr[d] >= m for d in "EWNS"}
        irr = np.flatnonzero(cut["E"] | cut["W"] | cut["N"] | cut["S"])
        to = np.stack([irr] + [np.where(cut[d][irr], irr, self.nbr[d][irr])
                               for d in "EWNS"], axis=1)
        sw = np.stack([diag[irr]] + [np.where(cut[d][irr], 0.0, -weights[d][irr])
                                     for d in "EWNS"], axis=1)
        si, sj = ci[to], cj[to]

        big = len(self.xs) - 1                  # N + 1
        t = np.arange(1.0, big)
        mu = 1.0 - np.cos(math.pi * t / big)
        eig = mu[:, None] + mu[None, :]
        # A0^-1 between square nodes by images of its sine sums:
        #   G((i, j), (i', j')) = K(i-i', j-j') - K(i-i', j+j'+2)
        #                         - K(i+i'+2, j-j') + K(i+i'+2, j+j'+2),
        #   K(d, e) = sum_ab cos(pi (a+1) d/(N+1)) cos(pi (b+1) e/(N+1)) / eig_ab,
        # over (N+1)^2; K is even in d and e, and |d|, |e| < 2(N+1) here
        cos_table = np.cos(math.pi * np.outer(np.arange(2 * big), t) / big)
        K = cos_table @ (1.0 / eig) @ cos_table.T / (big * big)
        ri, rj = ci[irr], cj[irr]
        cap = np.zeros((len(irr), len(irr)))
        # in blocks of rows, so the index and gather temporaries stay
        # (block, k) rather than (k, k)
        for start in range(0, len(irr), _CAPACITANCE_BLOCK):
            rows = slice(start, start + _CAPACITANCE_BLOCK)
            for o in range(5):
                bi, bj = si[rows, o, None], sj[rows, o, None]
                dm, dp = np.abs(bi - ri), bi + ri + 2
                em, ep = np.abs(bj - rj), bj + rj + 2
                green = K[dm, em] - K[dm, ep] - K[dp, em] + K[dp, ep]
                cap[rows] += (sw[rows, o] / sw[rows, 0])[:, None] * green

        def put(name, value):
            object.__setattr__(self, name, value)
        put("weights", weights)
        put("sines", math.sqrt(2.0 / big) * np.sin(math.pi * np.outer(t, t) / big))
        put("eig", eig)
        put("flat_cells", np.ravel_multi_index((ci, cj), eig.shape))
        put("irregular", irr)
        put("stencil", (si, sj, sw))
        put("capacitance_inv", np.linalg.inv(cap))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """The solution of A u = rhs on the unknowns."""
        S, eig = self.sines, self.eig
        F = np.zeros(eig.shape)
        F.reshape(-1)[self.flat_cells] = rhs
        Fh = S @ F @ S
        w = S @ (Fh / eig) @ S                  # A0^-1 F
        si, sj, sw = self.stencil
        resid = (rhs[self.irregular] - np.sum(sw * w[si, sj], axis=1)) / sw[:, 0]
        Q = np.zeros(eig.shape)
        Q[si[:, 0], sj[:, 0]] = self.capacitance_inv @ resid
        return (S @ ((Fh + S @ Q @ S) / eig) @ S).take(self.flat_cells)


@functools.lru_cache(maxsize=2)
def _disk_operator(n: int) -> _DiskOperator:
    xs, inside = _disk_nodes(n)
    h = xs[1] - xs[0]
    m = int(inside.sum())
    number = np.full((n, n), -1)
    number[inside] = np.arange(m)
    ii, jj = np.nonzero(inside)
    x, y = xs[ii], xs[jj]
    xc = np.sqrt(np.maximum(1.0 - y * y, 0.0))   # row y meets the circle at +-xc
    yc = np.sqrt(np.maximum(1.0 - x * x, 0.0))   # column x meets it at +-yc

    arms, nbr, angles = {}, {}, []
    k = m
    # arm, grid step in i (along x), grid step in j (along y)
    for d, di, dj in (("E", 1, 0), ("W", -1, 0), ("N", 0, 1), ("S", 0, -1)):
        nb = number[ii + di, jj + dj]   # interior nodes never touch the grid edge
        cut = nb < 0
        if dj == 0:
            gap, ang = xc - di * x, np.arctan2(y[cut], di * xc[cut])
        else:
            gap, ang = yc - dj * y, np.arctan2(dj * yc[cut], x[cut])
        a = np.ones(m)
        a[cut] = np.clip(gap[cut] / h, 1e-6, 1.0)
        nb[cut] = k + np.arange(len(ang))
        k += len(ang)
        arms[d], nbr[d] = a, nb
        angles.append(ang)

    # every GridField at this n shares these two arrays
    xs.flags.writeable = inside.flags.writeable = False
    return _DiskOperator(xs=xs, inside=inside, arms=arms, nbr=nbr,
                         angles=np.concatenate(angles))


def fd_solve_oracle(metric: Metric1D, boundary: BoundaryData, n: int,
                    tols: Tolerances = DEFAULT) -> GridField:
    """Finite-difference solve of the quasilinear equation on an n x n disk grid.

    The equation is taken in divergence form, div(R(f) grad f) = 0, which
    needs the density R alone.  Its flux on each Shortley-Weller arm is
    w (v - u_i) (R(u_i) + R(v)) / 2, the trapezoid mean of R over the arm;
    arms at cut cells end at exact circle crossings (boundary value looked
    up at the crossing angle).  Each step of the defect correction solves
    A dH = D(u) for the flux sum D(u) exactly, with A the linear 5-point
    operator (`_DiskOperator`, cached per n: two sine-transform solves on
    the square with a capacitance correction at the cut cells between
    them), and moves u by du = dH / R(u).  The flux sum is the 5-point
    Laplacian of the Kirchhoff primitive H(u) = int R, up to the trapezoid
    rule on each arm, and dH / R(u) moves H(u) by dH to first order, so
    each step is a Newton step for "H(u) harmonic" and converges faster
    than linearly; dividing D by R before the solve is right only where R
    is constant.  One "sweep" in `tols.fd_max_sweeps` and
    `GridField.sweeps` is one such solve.  It stops once the update is
    below `tols.fd_update_tol`, and raises NoConvergence at a non-finite
    update or after `tols.fd_max_sweeps` solves short of that.  Entirely
    independent of the H-transform solution path: it reads R, never H.
    """
    if n < 33:
        raise InvalidInput("oracle grid needs n >= 33")
    # iterates may not leave the boundary-value range (the transform maximum
    # principle guarantees the solution stays inside it); the clamp also
    # keeps R off the ends of (-1, 1), where it may vanish or blow up
    lo = max(-1.0 + 1e-12, float(boundary.samples.min()))
    hi = min(1.0 - 1e-12, float(boundary.samples.max()))
    if lo >= hi:   # constant data: the constant solves the equation exactly
        xs, inside = _disk_nodes(n)
        values = np.where(inside, boundary.mean(), np.nan)
        return GridField(xs=xs, values=values, inside=inside,
                         sweeps=1, final_update=0.0)

    op = _disk_operator(n)
    crossing = np.asarray(boundary.values(op.angles), float)
    m = len(op.flat_cells)
    u = np.full(m, boundary.mean())
    # R on [unknowns, crossing values]; the crossing part stays fixed
    ext = np.concatenate([u, crossing])
    dens = np.concatenate([u, metric.density(np.clip(crossing, lo, hi))])

    # defect correction: solve the linear system exactly for the change of
    # H(u) that the flux defect asks for, turn it into a change of u by
    # dividing by R(u), and repeat until the iterate stops moving
    sweeps = 0
    update = math.inf
    while sweeps < tols.fd_max_sweeps and not update < tols.fd_update_tol:
        ext[:m] = u
        dens[:m] = metric.density(u)
        flux = sum(w * (dens[op.nbr[d]] + dens[:m]) * (ext[op.nbr[d]] - u)
                   for d, w in op.weights.items())
        new = np.clip(u + op.solve(0.5 * flux) / dens[:m], lo, hi)
        update = float(np.max(np.abs(new - u)))
        u = new
        sweeps += 1
        if not math.isfinite(update):
            raise NoConvergence(
                f"defect correction gave a non-finite update at solve {sweeps}")
    if not update < tols.fd_update_tol:
        raise NoConvergence(
            f"defect correction stalled at update {update:.3e} after {sweeps} solves")

    values = np.full((n, n), np.nan)
    values[op.inside] = u
    return GridField(xs=op.xs, values=values, inside=op.inside,
                     sweeps=sweeps, final_update=update)


def lift_sup_difference(grid: GridField, metric: Metric1D, boundary: BoundaryData,
                        tols: Tolerances = DEFAULT) -> float:
    """Sup difference between an oracle grid and the transform solution.

    Compared on interior nodes with |z| <= 0.99: the trapezoid Poisson
    integral behind the reference degrades at the very rim while the oracle
    is pinned there by construction, so rim nodes compare two different
    error sources rather than the two solution paths.
    """
    pts, vals = grid.interior_points()
    keep = np.abs(pts) <= _LIFT_RADIUS
    ref = solved_field(metric, boundary, tols).value_many(pts[keep])
    return float(np.max(np.abs(vals[keep] - ref)))


def oracle_sup_difference(metric: Metric1D, boundary: BoundaryData, n: int,
                          tols: Tolerances = DEFAULT) -> float:
    """Solve the FD oracle at n and compare it with the transform solution."""
    grid = fd_solve_oracle(metric, boundary, n, tols=tols)
    return lift_sup_difference(grid, metric, boundary, tols)
