"""Harmonic machinery on the unit disk.

Euclidean harmonic extension by the Poisson kernel (trapezoid rule over
uniform boundary samples, spectrally accurate for smooth data), the lift of
boundary data to metric-harmonic solutions through the centered primitive H,
a sparse-direct (SuperLU) Picard oracle that discretizes the quasilinear
equation directly by finite differences, and residual diagnostics
(pointwise equation residual and holomorphy of the quadratic differential).

The trapezoid Poisson sums take one of two paths with the same result up to
rounding (on a ring grid the FFT sums at the ideal positions, a few ulps from
the given points).  With c = fft(samples) / N, the N-sample sum is exactly

    u_N(z) = c_0 + 2 Re[p(z) / (1 - z^N)],  p(z) = sum_{j=1}^{N-1} c_j z^j + c_0 z^N,

the alias sum of the kernel's series r^|k| e^(ik(phi - theta)).  Points on a
row-major ring grid (`radii[:, None] * exp(2 pi i a / A)`, as
`bounds.ring_grid` makes them, with A >= 8 spokes, every radius > 0 and every
point within a few ulps of that position) are served by FFT: on such a grid
the sum is a circular convolution in angle, evaluated with closed-form
alias-summed kernel spectra on lcm(samples, A) angles.  The FFT path is taken
only while its transforms are at most a quarter of the points x samples
(gcd(A, samples) >= 4) and its spectra fit one kernel block.  All other
points (scattered pairs, the oracle's nodes, user points) evaluate the
Laurent form itself: p and p' by blocked Horner, one complex matrix product
of the point powers with the coefficient matrix per block of points.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import (InvalidInput, NoConvergence, NonIntegrable, OutsideDisk,
                     StencilOutsideDisk)
from .metrics import HTransform, Metric1D, transform_table

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# boundary data
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class BoundaryData:
    """Samples of a 2*pi-periodic function on the circle.

    `values` maps angle arrays to value arrays; uniform samples are cached
    for quadrature.  Values may touch the closed interval
    [target_lo, target_hi]: the classical extremal step data sits exactly at
    the endpoints, while interior values of any extension stay strictly
    inside by the maximum principle.
    """
    values: Callable
    target_lo: float = -1.0
    target_hi: float = 1.0
    sample_count: int = DEFAULT.boundary_samples
    name: str = "boundary"
    thetas: np.ndarray = field(init=False, repr=False)
    samples: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.sample_count < 8:
            raise InvalidInput("sample_count must be at least 8")
        thetas = TWO_PI * np.arange(self.sample_count) / self.sample_count
        samples = np.asarray(self.values(thetas), float)
        if samples.shape != thetas.shape:
            raise InvalidInput("boundary values must be vectorized over angles")
        pad = 1e-12 * max(1.0, abs(self.target_lo), abs(self.target_hi))
        if samples.min() < self.target_lo - pad or samples.max() > self.target_hi + pad:
            raise InvalidInput("boundary values leave the target interval")
        object.__setattr__(self, "thetas", thetas)
        object.__setattr__(self, "samples",
                           np.clip(samples, self.target_lo, self.target_hi))

    def mean(self) -> float:
        return float(np.mean(self.samples))


def constant_boundary(value: float, **kw) -> BoundaryData:
    return BoundaryData(
        lambda th: np.full_like(np.asarray(th, float), value),
        name=f"constant({value:g})", **kw)


def cosine_boundary(amplitude: float = 0.8, frequency: int = 1,
                    phase: float = 0.0, **kw) -> BoundaryData:
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
                          **kw) -> BoundaryData:
    """Periodic linear interpolation through scattered angle samples."""
    theta = np.mod(np.asarray(theta, float), TWO_PI)
    values = np.asarray(values, float)
    if theta.ndim != 1 or theta.shape != values.shape or len(theta) < 3:
        raise InvalidInput("need matching 1-d theta/values arrays with >= 3 samples")
    order = np.argsort(theta)
    theta, values = theta[order], values[order]
    if np.any(np.diff(theta) == 0):
        raise InvalidInput("duplicate angles in boundary samples")
    tx = np.concatenate([theta, [theta[0] + TWO_PI]])
    vx = np.concatenate([values, [values[0]]])

    def interp(th):
        th = np.mod(np.asarray(th, float) - theta[0], TWO_PI) + theta[0]
        return np.interp(th, tx, vx)

    return BoundaryData(interp, name="samples", **kw)


def boundary_from_json(spec: dict, **kw) -> BoundaryData:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise InvalidInput("boundary spec must be an object with a 'kind' field")
    kind = spec["kind"]
    if kind == "samples":
        if "theta" not in spec or "values" not in spec:
            raise InvalidInput("samples boundary needs 'theta' and 'values' arrays")
        return boundary_from_samples(spec["theta"], spec["values"], **kw)
    if kind == "expression-preset":
        name = spec.get("name")
        params = spec.get("params", {}) or {}
        if name == "step":
            return step_boundary(float(params.get("amplitude", 1.0)), **kw)
        if name == "cosine":
            return cosine_boundary(float(params.get("amplitude", 0.8)),
                                   int(params.get("frequency", 1)),
                                   float(params.get("phase", 0.0)), **kw)
        if name == "constant":
            if "value" not in params:
                raise InvalidInput("constant boundary needs params.value")
            return constant_boundary(float(params["value"]), **kw)
        raise InvalidInput(f"unknown boundary preset {name!r}")
    raise InvalidInput(f"unknown boundary kind {kind!r}")


def _random_trig_boundary(seed: int, freqs: np.ndarray, weights: np.ndarray,
                          max_abs: float, name: str, **kw) -> BoundaryData:
    """Random trigonometric polynomial over `freqs`, scaled into (-max_abs, max_abs).

    Coefficients are standard normal draws divided by `weights`; the peak
    modulus is a random share in [1/2, 1) of max_abs.
    """
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(len(freqs)) / weights
    b = rng.standard_normal(len(freqs)) / weights
    b[freqs == 0] = 0.0
    amp = max_abs * rng.uniform(0.5, 1.0)

    def fn(th):
        th = np.asarray(th, float)
        acc = np.zeros_like(th)
        for m, am, bm in zip(freqs, a, b):
            acc = acc + am * np.cos(m * th) + bm * np.sin(m * th)
        return acc

    probe = fn(TWO_PI * np.arange(4096) / 4096)
    scale = amp / max(np.max(np.abs(probe)), 1e-12)
    return BoundaryData(lambda th: scale * fn(th), name=name, **kw)


def random_smooth_boundary(seed: int, modes: int = 5, max_abs: float = 0.85,
                           **kw) -> BoundaryData:
    """Random low-order trigonometric polynomial scaled into (-max_abs, max_abs)."""
    freqs = np.arange(modes + 1)
    return _random_trig_boundary(seed, freqs, (1.0 + freqs) ** 2, max_abs,
                                 f"random(seed={seed})", **kw)


def random_symmetric_boundary(seed: int, modes: int = 5, max_abs: float = 0.85,
                              **kw) -> BoundaryData:
    """Random smooth data with f(theta + pi) = -f(theta) (odd harmonics only).

    For an even metric this forces the lifted solution to vanish at the
    origin, which the origin-pinned bound checks require.
    """
    freqs = np.arange(1, 2 * modes, 2)
    return _random_trig_boundary(seed, freqs, freqs.astype(float) ** 2, max_abs,
                                 f"random-odd(seed={seed})", **kw)


# ---------------------------------------------------------------------------
# Poisson extension
# ---------------------------------------------------------------------------

# complex elements per block of kernel temporaries (points x (powers +
# Horner columns) on scattered points); also the cap on (radii x spectrum
# length) of the ring-grid multipliers
_BLOCK_ELEMENTS = 2 ** 19
# powers of z per Horner block in the Laurent path
_HORNER_BLOCK = 64
# a ring grid needs at least this many spokes for the FFT path
_RING_MIN_SPOKES = 8
# and each point within this many ulps (of its radius) of its ideal position
_RING_ULPS = 4.0
# the FFT path runs only while len(radii) * L is at most this share of
# points * samples, i.e. gcd(spokes, samples) >= 4.  Set against the direct
# kernel sum (points x samples kernel evaluations) for a 24-ring grid on a
# 2-core x86-64 machine: at gcd 1 (97 spokes, 1024 samples, L = 99328) the
# transforms cost 2.5x that sum, at gcd 8 (1000 samples, 96 spokes) a tenth
_RING_WORK_SHARE = 4


def _complex_points(z) -> np.ndarray:
    z = np.asarray(z)
    if z.dtype.kind != "c":
        z = z.astype(complex)
    return z


def _require_in_disk(z: np.ndarray) -> None:
    if np.any(np.abs(z) >= 1.0):
        raise OutsideDisk("evaluation point outside the open unit disk")


@dataclass(frozen=True, eq=False)
class _Ring:
    """A row-major ring grid: z[i * spokes + a] = radii[i] * phase[a]."""
    radii: np.ndarray           # (R,) all > 0
    phase: np.ndarray           # (spokes,) exp(2 pi i a / spokes)
    size: int                   # L = lcm(samples, spokes)


def _ring_layout(flat: np.ndarray, sample_count: int) -> Optional[_Ring]:
    """The ring grid `flat` lies on, if the FFT path should serve it."""
    if flat.size < _RING_MIN_SPOKES:
        return None
    # the second point sits one spoke on; a NaN or zero angle compares False
    step = float(np.angle(flat[1]))
    turns = TWO_PI / step if step > 0.0 else math.inf
    if not _RING_MIN_SPOKES - 0.5 <= turns <= flat.size + 0.5:
        return None
    spokes = round(turns)
    if flat.size % spokes:
        return None
    radii = np.abs(flat[::spokes])
    size = math.lcm(sample_count, spokes)
    if (not np.all(radii > 0.0)
            or _RING_WORK_SHARE * len(radii) * size > flat.size * sample_count
            or len(radii) * (size // 2 + 1) > _BLOCK_ELEMENTS):
        return None
    # the same arithmetic as bounds.ring_grid, so its grids match exactly
    phase = np.exp(1j * (TWO_PI * np.arange(spokes) / spokes))
    ideal = (radii[:, None] * phase[None, :]).ravel()
    slack = _RING_ULPS * np.finfo(float).eps * np.repeat(radii, spokes)
    if not np.all(np.abs(flat - ideal) <= slack):
        return None
    return _Ring(radii, phase, size)


@functools.lru_cache(maxsize=4)
def _ring_multipliers(radii: tuple, size: int) -> tuple[np.ndarray, ...]:
    """Alias-summed Poisson kernel spectra on `size` angles, one row per radius.

    The kernel is sum_k rho^|k| e^(ik t); sampled on `size` angles its DFT
    at 0 <= q <= size/2 is size times the sum over k = q (mod size).  With
    a = rho^q, b = rho^(size-q) and d = 1 - rho^size the geometric series
    give, for the value, d/dphi and d/drho kernels,

        sum rho^|k|              = (a + b) / d
        sum k rho^|k|            = q (a + b) / d + size (a rho^size - b) / d^2
        sum |k| rho^(|k|-1)      = [q (a - b) / d + size (a rho^size + b) / d^2] / rho

    Closed forms, not a numeric FFT of the sampled kernel: the kernel peaks
    near the rim, and transforming it loses digits there.  Returned as
    (values, i * d/dphi, d/drho), read-only.
    """
    rho = np.array(radii)[:, None]
    q = np.arange(size // 2 + 1, dtype=float)
    a = rho ** q
    b = rho ** (size - q)
    x = rho ** size
    d = 1.0 - x
    xa = x * a
    values = (a + b) / d
    d_phi = 1j * (q * (a + b) / d + size * (xa - b) / d ** 2)
    d_rho = (q * (a - b) / d + size * (xa + b) / d ** 2) / rho
    for arr in (values, d_phi, d_rho):
        arr.flags.writeable = False
    return values, d_phi, d_rho


def _ring_sums(boundary: BoundaryData, ring: _Ring, multipliers) -> list:
    """Trapezoid Poisson sums on a ring grid, one (R, spokes) array per multiplier.

    The sum over the boundary samples is a circular convolution in angle:
    zero-stuff the N samples onto L = lcm(N, spokes) angles, multiply their
    rFFT by the kernel spectrum and keep every (L / spokes)-th sample of
    the inverse.
    """
    n = boundary.sample_count
    stuffed = np.zeros(ring.size)
    stuffed[::ring.size // n] = boundary.samples
    spectrum = np.fft.rfft(stuffed) * (ring.size / n)
    keep = ring.size // len(ring.phase)
    return [np.fft.irfft(spectrum * mult, n=ring.size)[:, ::keep]
            for mult in multipliers]


def _laurent_sums(boundary: BoundaryData, flat: np.ndarray,
                  gradient: bool = False) -> np.ndarray:
    """The trapezoid Poisson sum at scattered points, by its Laurent form.

    Returns u_N(z) = c_0 + 2 Re F(z), F = p / (1 - z^N), or with `gradient`
    the complex 2 F'(z) = gx - i gy, where

        F' = (p' (1 - z^N) + N z^(N-1) p) / (1 - z^N)^2.

    p(z) = z q(z), with q's N coefficients roll(c, -1) zero-padded to
    `_HORNER_BLOCK` x cols.  Both q and p' = sum_m (m+1) q_m z^m share the
    powers Z = [z^0 .. z^(B-1)]: one matrix product of Z with the (cols, B)
    coefficient rows (and their differentiated rows) gives the block
    polynomials, and Horner in w = z^B adds them up.  z^N and z^(N-1) come
    from z by powers, never by dividing by z (NaN at z = 0) nor from the
    Horner blocks (which lose digits near the rim).
    """
    n = boundary.sample_count
    c = np.fft.fft(boundary.samples) / n
    cols = -(-n // _HORNER_BLOCK)
    q = np.zeros(cols * _HORNER_BLOCK, complex)
    q[:n] = np.roll(c, -1)
    coef = q.reshape(cols, _HORNER_BLOCK)
    if gradient:
        degree = np.arange(1.0, q.size + 1).reshape(coef.shape)
        coef = np.concatenate([coef, coef * degree])
    out = np.empty(len(flat), complex if gradient else float)
    # per point: the powers and one block polynomial per coefficient row
    rows = max(1, _BLOCK_ELEMENTS // (_HORNER_BLOCK + len(coef)))
    for k in range(0, len(flat), rows):
        z = flat[k:k + rows]
        # the running product row by row: np.cumprod over the same rows
        # takes five times as long for complex input
        powers = np.empty((_HORNER_BLOCK, len(z)), complex)
        powers[0] = 1.0
        for j in range(1, _HORNER_BLOCK):
            np.multiply(powers[j - 1], z, out=powers[j])
        w = powers[-1] * z
        blocks = coef @ powers
        p = z * _horner(blocks[:cols], w)
        if gradient:
            z_n1 = z ** (n - 1)
            d = 1.0 - z_n1 * z
            dp = _horner(blocks[cols:], w)
            out[k:k + rows] = 2.0 * (dp * d + n * z_n1 * p) / d ** 2
        else:
            out[k:k + rows] = c[0].real + 2.0 * (p / (1.0 - z ** n)).real
    return out


def _horner(blocks: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_j blocks[j] * w^j, one row per power of w."""
    acc = blocks[-1].copy()
    for row in blocks[-2::-1]:
        acc *= w
        acc += row
    return acc


def poisson_values(boundary: BoundaryData, z) -> np.ndarray:
    """Trapezoid Poisson integral of the boundary samples at points z."""
    z = _complex_points(z)
    flat = np.ravel(z)
    _require_in_disk(flat)
    ring = _ring_layout(flat, boundary.sample_count)
    if ring is None:
        return _laurent_sums(boundary, flat).reshape(z.shape)
    values, _, _ = _ring_multipliers(tuple(ring.radii), ring.size)
    (out,) = _ring_sums(boundary, ring, [values])
    return out.reshape(z.shape)


def poisson_gradient(boundary: BoundaryData, z) -> tuple[np.ndarray, np.ndarray]:
    """Gradient of the Poisson extension via the differentiated kernel."""
    z = _complex_points(z)
    flat = np.ravel(z)
    _require_in_disk(flat)
    ring = _ring_layout(flat, boundary.sample_count)
    if ring is None:
        g = _laurent_sums(boundary, flat, gradient=True).reshape(z.shape)
        return g.real, -g.imag
    _, d_phi, d_rho = _ring_multipliers(tuple(ring.radii), ring.size)
    u_phi, u_rho = _ring_sums(boundary, ring, [d_phi, d_rho])
    # polar to Cartesian: grad = u_rho e_rho + (u_phi / rho) e_phi
    u_t = u_phi / ring.radii[:, None]
    c, s = ring.phase.real, ring.phase.imag
    gx = u_rho * c - u_t * s
    gy = u_rho * s + u_t * c
    return gx.reshape(z.shape), gy.reshape(z.shape)


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

class HarmonicField:
    """Evaluable scalar field on the disk with a gradient.

    Wraps either a Euclidean Poisson extension (metric is None) or a lifted
    metric-harmonic solution, or any closed-form field supplied directly.
    `value_and_gradient_many` is the one gradient path; `gradient_many` is
    that call without the values.
    """

    def __init__(self, value_many: Callable, value_and_gradient_many: Callable,
                 metric: Optional[Metric1D] = None, name: str = "field"):
        self._value_many = value_many
        self._value_and_gradient_many = value_and_gradient_many
        self.metric = metric
        self.name = name

    def value_many(self, z) -> np.ndarray:
        return self._value_many(_complex_points(z))

    def value_and_gradient_many(self, z) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self._value_and_gradient_many(_complex_points(z))

    def gradient_many(self, z) -> tuple[np.ndarray, np.ndarray]:
        _, gx, gy = self.value_and_gradient_many(z)
        return gx, gy


def euclidean_field(boundary: BoundaryData) -> HarmonicField:
    return HarmonicField(lambda z: poisson_values(boundary, z),
                         lambda z: (poisson_values(boundary, z),
                                    *poisson_gradient(boundary, z)),
                         metric=None, name=f"poisson[{boundary.name}]")


def analytic_field(value: Callable, grad: Callable,
                   metric: Optional[Metric1D] = None,
                   name: str = "analytic") -> HarmonicField:
    """Field from closed-form callables value(x, y) and grad(x, y) -> (gx, gy)."""

    def value_many(z):
        return np.asarray(value(z.real, z.imag), float)

    def value_and_gradient_many(z):
        gx, gy = grad(z.real, z.imag)
        return value_many(z), np.asarray(gx, float), np.asarray(gy, float)

    return HarmonicField(value_many, value_and_gradient_many, metric=metric, name=name)


@functools.lru_cache(maxsize=256)
def solved_field(metric: Metric1D, boundary: BoundaryData,
                 tols: Tolerances = DEFAULT) -> HarmonicField:
    """Lift boundary data to the metric-harmonic solution via H.

    The Euclidean extension g of H(boundary)/r is computed by the Poisson
    integral and the solution is f = H^{-1}(r g); its gradient follows from
    the chain rule, grad f = r grad g / R(f).

    Densities of infinite mass still admit the lift whenever the boundary
    values stay compactly inside the target interval: scaling by r is only
    cosmetic (harmonicity is scale-invariant), so a transform table over a
    compact value range replaces the centered H.  Both tables integrate and
    invert with the quadrature and inversion tolerances of `tols`.
    """
    try:
        table = transform_table(metric, tols)
        r = table.r
    except NonIntegrable:
        m0 = float(boundary.samples.min())
        m1 = float(boundary.samples.max())
        maxabs = max(abs(m0), abs(m1))
        if maxabs >= 1.0 - 1e-9:
            raise
        pad = min(0.02, 0.5 * (1.0 - maxabs))
        table = HTransform(metric, tols, lo=min(m0, 0.0) - pad, hi=max(m1, 0.0) + pad,
                           normalized=False)
        r = 1.0
    g_samples = table.h(np.clip(boundary.samples, -1.0, 1.0)) / r
    g_boundary = BoundaryData(lambda th: np.interp(
        np.mod(th, TWO_PI),
        np.concatenate([boundary.thetas, [TWO_PI]]),
        np.concatenate([g_samples, [g_samples[0]]])),
        target_lo=float(g_samples.min()) - 1.0,
        target_hi=float(g_samples.max()) + 1.0,
        sample_count=boundary.sample_count,
        name=f"H[{boundary.name}]")
    # keep the exact transformed samples (interp above only serves re-sampling)
    object.__setattr__(g_boundary, "samples", g_samples)

    # the maximum principle confines g to the sample range; clipping removes
    # the rim aliasing of the trapezoid Poisson integral before inversion
    g_lo = float(g_samples.min())
    g_hi = float(g_samples.max())
    if table.normalized:
        g_lo = max(g_lo, -1.0 + 1e-15)
        g_hi = min(g_hi, 1.0 - 1e-15)

    def value_many(z):
        g = np.clip(poisson_values(g_boundary, z), g_lo, g_hi)
        return table.h_inv(r * g)

    def value_and_gradient_many(z):
        f = value_many(z)
        gx, gy = poisson_gradient(g_boundary, z)
        scale = r / np.asarray(metric.density(f), float)
        return f, gx * scale, gy * scale

    return HarmonicField(value_many, value_and_gradient_many, metric=metric,
                         name=f"solved[{metric.name}; {boundary.name}]")


# ---------------------------------------------------------------------------
# residual diagnostics
# ---------------------------------------------------------------------------

def pde_residual(metric: Metric1D, field: HarmonicField, z, h: float = 1e-3) -> float:
    """Five-point residual of Delta f + (R'(f)/R(f)) |grad f|^2 at z."""
    z = complex(z)
    pts = np.array([z, z + h, z - h, z + 1j * h, z - 1j * h])
    if np.any(np.abs(pts) >= 1.0):
        raise StencilOutsideDisk("residual stencil leaves the disk")
    f0, fe, fw, fn, fs = field.value_many(pts)
    lap = (fe + fw + fn + fs - 4.0 * f0) / h ** 2
    fx = (fe - fw) / (2.0 * h)
    fy = (fn - fs) / (2.0 * h)
    q = float(metric.d_density(f0)) / float(metric.density(f0))
    return float(lap + q * (fx * fx + fy * fy))


def hopf_holomorphy_residual(metric: Metric1D, field: HarmonicField,
                             grid: Sequence[complex], h: float = 1e-3) -> float:
    """Max Cauchy-Riemann residual of R(f)^2 f_z^2 over the grid.

    The quadratic differential of a genuinely metric-harmonic field is
    holomorphic; it is assembled from the field's own gradient and its
    Cauchy-Riemann derivatives are taken by central differences of step h.
    """
    grid = np.ravel(_complex_points(grid))
    stencil = np.array([h, -h, 1j * h, -1j * h])
    centers = grid[:, None] + stencil[None, :]
    if np.any(np.abs(centers) >= 1.0):
        raise StencilOutsideDisk("holomorphy stencil leaves the disk")
    flat = centers.reshape(-1)
    fmid, gx, gy = field.value_and_gradient_many(flat)
    fmid = fmid.reshape(centers.shape)
    fz = 0.5 * (gx - 1j * gy).reshape(centers.shape)
    w = np.asarray(metric.density(fmid), float) ** 2 * fz ** 2
    # stencil order: +h, -h, +ih, -ih
    du_dx = (w[:, 0].real - w[:, 1].real) / (2.0 * h)
    dv_dy = (w[:, 2].imag - w[:, 3].imag) / (2.0 * h)
    du_dy = (w[:, 2].real - w[:, 3].real) / (2.0 * h)
    dv_dx = (w[:, 0].imag - w[:, 1].imag) / (2.0 * h)
    return float(np.max(np.abs(du_dx - dv_dy) + np.abs(du_dy + dv_dx)))


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------

@dataclass
class GridField:
    """Solution samples on a Cartesian grid masked to the disk."""
    n: int
    xs: np.ndarray
    values: np.ndarray          # (n, n), x-major; NaN outside the disk
    inside: np.ndarray          # unknown interior nodes
    sweeps: int                 # Picard solves taken (1 for constant data)
    final_update: float

    def interior_points(self) -> tuple[np.ndarray, np.ndarray]:
        ii, jj = np.nonzero(self.inside)
        pts = self.xs[ii] + 1j * self.xs[jj]
        return pts, self.values[ii, jj]

    def to_csv(self, path) -> None:
        pts, vals = self.interior_points()
        rows = np.column_stack([pts.real, pts.imag, vals])
        with open(path, "w") as fh:
            fh.write("x,y,f\n")
            fh.write(("%.17g,%.17g,%.17g\n" * len(rows)) % tuple(rows.ravel().tolist()))


def _disk_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Grid coordinates and the mask of unknown nodes strictly inside the disk."""
    xs = np.linspace(-1.0, 1.0, n)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    return xs, X * X + Y * Y < 1.0 - 1e-14


@dataclass(frozen=True, eq=False)
class _DiskOperator:
    """Shortley-Weller discretization of -Laplacian * h^2/2 on the n x n disk grid.

    Unknowns are the interior nodes in `np.nonzero(inside)` order.  Each arm
    points either at another unknown or, at a cut cell, at the circle
    crossing; `nbr[d]` indexes the concatenation [unknowns, crossing values],
    with the crossing values taken at `angles`.
    """
    xs: np.ndarray
    h: float
    inside: np.ndarray
    arms: dict                  # arm -> (m,) arm length in units of h
    nbr: dict                   # arm -> (m,) index into [unknowns, crossings]
    angles: np.ndarray          # (k,) polar angles of the circle crossings
    coupling: object            # (m, k) sparse weights of the crossing values
    lu: object                  # SuperLU factor of the (m, m) operator


@functools.lru_cache(maxsize=2)
def _disk_operator(n: int) -> _DiskOperator:
    # scipy.sparse is imported here, not at module top: most runs never reach
    # the oracle, and the import costs start-up time and memory
    from scipy import sparse
    from scipy.sparse.linalg import splu

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

    aE, aW, aN, aS = (arms[d] for d in "EWNS")
    weights = {"E": 1.0 / (aE * (aE + aW)), "W": 1.0 / (aW * (aE + aW)),
               "N": 1.0 / (aN * (aN + aS)), "S": 1.0 / (aS * (aN + aS))}
    diag = 1.0 / (aE * aW) + 1.0 / (aN * aS)
    coupling = sparse.csr_matrix(
        (np.concatenate([weights[d] for d in "EWNS"]),
         (np.tile(np.arange(m), 4), np.concatenate([nbr[d] for d in "EWNS"]))),
        shape=(m, k))
    operator = sparse.diags(diag) - coupling[:, :m]
    # every GridField at this n shares these two arrays
    xs.flags.writeable = inside.flags.writeable = False
    return _DiskOperator(xs=xs, h=h, inside=inside, arms=arms, nbr=nbr,
                         angles=np.concatenate(angles),
                         coupling=coupling[:, m:].tocsr(),
                         lu=splu(operator.tocsc()))


def fd_solve_oracle(metric: Metric1D, boundary: BoundaryData, n: int,
                    tols: Tolerances = DEFAULT) -> GridField:
    """Finite-difference solve of the quasilinear equation on an n x n disk grid.

    Shortley-Weller arms tie cut cells to exact circle crossings (boundary
    value looked up at the crossing angle).  The linear 5-point operator is
    assembled and LU-factored once per n (SuperLU, cached); each Picard step
    freezes the nonlinear term, evaluated explicitly from the previous
    iterate with under-relaxed blending, and solves the linear system by one
    back-substitution.  One "sweep" in `tols.fd_max_sweeps` and
    `GridField.sweeps` is one such solve.  Entirely independent of the
    H-transform solution path.
    """
    if n < 33:
        raise InvalidInput("oracle grid needs n >= 33")
    # iterates may not leave the boundary-value range (the transform maximum
    # principle guarantees the solution stays inside it); the clamp also
    # keeps the log-derivative of the density bounded
    lo = max(boundary.target_lo + 1e-12, float(boundary.samples.min()))
    hi = min(boundary.target_hi - 1e-12, float(boundary.samples.max()))
    if lo >= hi:   # constant data: the constant solves the equation exactly
        xs, inside = _disk_nodes(n)
        values = np.where(inside, boundary.mean(), np.nan)
        return GridField(n=n, xs=xs, values=values, inside=inside,
                         sweeps=1, final_update=0.0)

    op = _disk_operator(n)
    crossing = np.asarray(boundary.values(op.angles), float)
    b_cut = op.coupling @ crossing
    u = np.full(len(b_cut), boundary.mean())
    ext = np.concatenate([u, crossing])     # [unknowns, crossing values]
    aE, aW, aN, aS = (op.arms[d] for d in "EWNS")
    nE, nW, nN, nS = (op.nbr[d] for d in "EWNS")
    h2half = 0.5 * op.h * op.h

    def source(u):
        # wide differences (crossing-to-crossing) keep the quadratic term
        # bounded at cut cells; the arm-weighted one-sided form would let
        # the nonlinearity balance the stiff Dirichlet pin and admit a
        # spurious boundary-layer root
        ext[:len(u)] = u
        fx = (ext[nE] - ext[nW]) / ((aE + aW) * op.h)
        fy = (ext[nN] - ext[nS]) / ((aN + aS) * op.h)
        clipped = np.clip(u, lo, hi)
        dens = np.asarray(metric.density(clipped), float)
        ddens = np.asarray(metric.d_density(clipped), float)
        return ddens / dens * (fx * fx + fy * fy)

    # Picard iteration: freeze the (under-relaxed) nonlinear source, solve
    # the linear system exactly, repeat until the iterate stops moving
    relax = tols.fd_nonlinear_relax
    S = None
    sweeps = 0
    update = math.inf
    # comparisons are written so that a NaN update counts as not converged
    while sweeps < tols.fd_max_sweeps and not update < tols.fd_update_tol:
        s_new = source(u)
        S = s_new if S is None else relax * s_new + (1.0 - relax) * S
        new = np.clip(op.lu.solve(b_cut + h2half * S), lo, hi)
        update = float(np.max(np.abs(new - u)))
        u = new
        sweeps += 1
    if not (update < tols.fd_update_tol or update <= tols.fd_fail_tol):
        raise NoConvergence(
            f"Picard iteration stalled at update {update:.3e} after {sweeps} solves")

    values = np.full((n, n), np.nan)
    values[op.inside] = u
    return GridField(n=n, xs=op.xs, values=values, inside=op.inside,
                     sweeps=sweeps, final_update=update)


def lift_sup_difference(grid: GridField, metric: Metric1D, boundary: BoundaryData,
                        tols: Tolerances = DEFAULT, radius: float = 0.99) -> float:
    """Sup difference between an oracle grid and the transform solution.

    Compared on interior nodes with |z| <= radius: the trapezoid Poisson
    integral behind the reference degrades at the very rim while the oracle
    is pinned there by construction, so rim nodes compare two different
    error sources rather than the two solution paths.
    """
    pts, vals = grid.interior_points()
    keep = np.abs(pts) <= radius
    ref = solved_field(metric, boundary, tols).value_many(pts[keep])
    return float(np.max(np.abs(vals[keep] - ref)))


def oracle_sup_difference(metric: Metric1D, boundary: BoundaryData, n: int,
                          tols: Tolerances = DEFAULT, radius: float = 0.99) -> float:
    """Solve the FD oracle at n and compare it with the transform solution."""
    grid = fd_solve_oracle(metric, boundary, n, tols=tols)
    return lift_sup_difference(grid, metric, boundary, tols, radius)
