"""Metric densities R(u) on an open interval and their transforms.

A metric here is a positive density on an open interval, carrying its first
and second derivatives.  The module computes the closed-form Gaussian
curvature of the associated strip metric, the mass r = (1/2) * integral of R
over (-1, 1), the centered primitive H and its inverse, log-concavity
diagnostics, and mollification of piecewise densities.  The mass, H, its
inverse and the divergence verdict all come from one table of Gauss cells
(`HTransform`); the scalar adaptive `transform_H` and `inverse_H` are kept
as the test oracle.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .config import DEFAULT, Tolerances, spec_param, spec_params
from .errors import (DomainError, InvalidInput, NonIntegrable,
                     NumericInversionFailure, OutOfRange, ParameterOutOfRange)
from .lifetime import lifetime_cache
from .quadrature import adaptive_simpson, integrate_to_endpoint, segments_gauss


@dataclass(frozen=True, eq=False)
class Metric1D:
    """Positive density on the open interval (domain_lo, domain_hi).

    density/d_density/d2_density accept floats or numpy arrays.  `knots`
    lists the points where the density is not smooth (a tent's corners, a
    spline's nodes); the transform table splits its cells there.  `atoms`
    holds the (u, mass) point masses of the curvature at knots where R'
    jumps (none for a C1 density).  A family may supply the closed form of
    (log R)'' as `d2_log_density`, which the curvature then reads in place
    of R''/R - (R'/R)^2.  Instances are immutable; expensive
    derived quantities (transform tables, divergence verdicts, curvature
    scans) are memoized per instance, for as long as it lives
    (`lifetime_cache`).
    """
    domain_lo: float
    domain_hi: float
    density: Callable
    d_density: Callable
    d2_density: Callable
    name: str = "metric"
    knots: tuple = ()
    atoms: tuple = ()
    d2_log_density: Optional[Callable] = None

    def require_inside(self, u) -> None:
        """Raise DomainError unless every element of u lies in the open domain."""
        u = np.asarray(u, float)
        outside = ~((self.domain_lo < u) & (u < self.domain_hi))
        if np.any(outside):
            raise DomainError(f"{float(u[outside][0])!r} outside the open interval "
                              f"({self.domain_lo}, {self.domain_hi})")


# ---------------------------------------------------------------------------
# piecewise cubics: the smoothed tents' spline and the tabulated PCHIP
# ---------------------------------------------------------------------------

class _Cubic:
    """Piecewise cubic through breakpoints x, evaluated bit for bit as scipy's
    PPoly evaluates the same coefficients.

    `c` is (k, n - 1): cell i's power coefficients in (u - x[i]), highest
    power first (k = 4 for the cubic, fewer for its derivatives).  A point
    lies in the cell [x[i], x[i + 1]) that holds it, the end cells extend
    past x[0] and x[-1], and the sum runs c[k-1-j] * z^j in ascending j with
    z = s, s*s, (s*s)*s: not Horner, since that order is what rounds like
    PPoly (compiled without fused multiply-add contraction, as in the
    x86_64 wheels).
    """

    def __init__(self, x: np.ndarray, c: np.ndarray):
        self.x, self.c = _frozen(x, c)

    @classmethod
    def hermite(cls, x: np.ndarray, y: np.ndarray, slopes: np.ndarray) -> "_Cubic":
        """The cubic Hermite interpolant of values y and slopes at x
        (scipy's CubicHermiteSpline coefficients)."""
        dx = np.diff(x)
        secant = np.diff(y) / dx
        t = (slopes[:-1] + slopes[1:] - 2 * secant) / dx
        return cls(x, np.stack((t / dx, (secant - slopes[:-1]) / dx - t, slopes[:-1], y[:-1])))

    def derivative(self, nu: int = 1) -> "_Cubic":
        """The nu-th derivative: row i of the k - nu kept rows times the
        rising factorial (k - nu - i)(k - nu - i + 1)...(k - i - 1)."""
        kept = len(self.c) - nu
        factor = [math.prod(range(k, k + nu)) for k in range(kept, 0, -1)]
        return _Cubic(self.x, self.c[:kept] * np.array(factor, float)[:, None])

    def __call__(self, u) -> np.ndarray:
        u = np.asarray(u, float)
        flat = np.ravel(u)
        # searching the inner breakpoints extends the end cells outward
        cell = np.searchsorted(self.x[1:-1], flat, side="right")
        return _power_sum(self.c[:, cell], flat - self.x[cell]).reshape(u.shape)


def _power_sum(rows, s):
    """rows[-1] + rows[-2] * s + rows[-3] * (s * s) + ..., summed from the
    left, after PPoly's 0.0 + rows[-1] (which makes a -0.0 constant +0.0)."""
    out = 0.0 + rows[-1]
    z = s
    for j in range(len(rows) - 2, -1, -1):
        out = out + rows[j] * z
        if j:
            z = z * s
    return out


def _not_a_knot_slopes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Node slopes of the C2 cubic spline through (x, y) with not-a-knot ends.

    The tridiagonal rows are those scipy's CubicSpline builds, and they are
    eliminated in the order of LAPACK's dgtsv, with the same roundings, so
    the slopes are that spline's bit for bit.  dgtsv swaps rows where a
    pivot is smaller than the entry below it; nodes as near uniform as
    linspace's never need that, and other nodes raise ValueError.
    """
    n = len(x)
    dx = np.diff(x)
    secant = np.diff(y) / dx
    diag, upper, lower, rhs = np.empty(n), np.empty(n - 1), np.empty(n - 1), np.empty(n)
    diag[1:-1] = 2 * (dx[:-1] + dx[1:])
    upper[1:] = dx[:-1]
    lower[:-1] = dx[1:]
    rhs[1:-1] = 3 * (dx[1:] * secant[:-1] + dx[:-1] * secant[1:])
    d = x[2] - x[0]
    diag[0], upper[0] = dx[1], d
    rhs[0] = ((dx[0] + 2 * d) * dx[1] * secant[0] + dx[0] ** 2 * secant[1]) / d
    d = x[-1] - x[-3]
    diag[-1], lower[-1] = dx[-2], d
    rhs[-1] = (dx[-1] ** 2 * secant[-2] + (2 * d + dx[-1]) * dx[-2] * secant[-1]) / d
    # Python floats round as the Fortran does, and loop faster than numpy scalars
    diag, upper, lower, b = diag.tolist(), upper.tolist(), lower.tolist(), rhs.tolist()
    for i in range(n - 1):
        if not abs(diag[i]) >= abs(lower[i]):
            raise ValueError("spline nodes too far from uniform for elimination without pivoting")
        fact = lower[i] / diag[i]
        diag[i + 1] -= fact * upper[i]
        b[i + 1] -= fact * b[i]
    b[-1] /= diag[-1]
    b[-2] = (b[-2] - upper[-1] * b[-1]) / diag[-2]
    for i in range(n - 3, -1, -1):
        # dgtsv subtracts the eliminated entry, now 0, times b[i + 2]; it can
        # turn a -0.0 into +0.0
        b[i] = (b[i] - upper[i] * b[i + 1] - 0.0 * b[i + 2]) / diag[i]
    return np.array(b)


def _pchip_slopes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Node slopes of the monotone PCHIP interpolant (scipy's
    PchipInterpolator): the Fritsch-Butland weighted harmonic mean of the
    neighbouring secants inside, 0 where they differ in sign or one is 0,
    and Moler's shape-preserving three-point rule at the two ends."""
    h = np.diff(x)
    m = np.diff(y) / h
    flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
    slopes = np.zeros_like(y)
    slopes[1:-1][~flat] = 1.0 / whmean[~flat]
    slopes[0] = _pchip_end(h[0], h[1], m[0], m[1])
    slopes[-1] = _pchip_end(h[-1], h[-2], m[-1], m[-2])
    return slopes


def _pchip_end(h0, h1, m0, m1):
    """PCHIP's end slope from the end cell (width h0, secant m0) and its
    neighbour: the one-sided three-point estimate, 0 where its sign is not
    m0's, 3 * m0 where it overshoots that at a turn of the data."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


# ---------------------------------------------------------------------------
# metric families
# ---------------------------------------------------------------------------

def _zeros(u) -> np.ndarray:
    return np.zeros_like(np.asarray(u, float))


# a density whose square is a normal float: R^2 neither overflows nor
# underflows in the curvature's 1/R^2
_NORMAL_SQRT_LO = math.sqrt(np.finfo(float).tiny)
_NORMAL_SQRT_HI = math.sqrt(np.finfo(float).max)


def _require_normal_square(lo: float, hi: float, what: str) -> None:
    """ParameterOutOfRange unless the density's range [lo, hi] on its domain
    squares to normal floats (a NaN fails)."""
    if not (_NORMAL_SQRT_LO <= lo and hi <= _NORMAL_SQRT_HI):
        raise ParameterOutOfRange(
            f"{what} must square to a normal float, within "
            f"[{_NORMAL_SQRT_LO:.6g}, {_NORMAL_SQRT_HI:.6g}]; got [{lo!r}, {hi!r}]")


def constant_metric(value: float = 1.0) -> Metric1D:
    if value <= 0:
        raise ParameterOutOfRange("constant density must be positive")
    _require_normal_square(value, value, "constant density")
    return Metric1D(-1.0, 1.0,
                    lambda u: np.full_like(np.asarray(u, float), value),
                    _zeros, _zeros, name=f"constant({value:g})")


def exponential_metric(c: float) -> Metric1D:
    # R^2 = e^(2cu) must stay a normal float on (-1, 1)
    limit = -0.5 * math.log(np.finfo(float).tiny)
    if not abs(c) <= limit:
        raise ParameterOutOfRange(
            f"exponential rate needs a finite |c| <= {limit:.6g}, got {c!r}")
    return Metric1D(-1.0, 1.0,
                    lambda u: np.exp(c * np.asarray(u, float)),
                    lambda u: c * np.exp(c * np.asarray(u, float)),
                    lambda u: c * c * np.exp(c * np.asarray(u, float)),
                    name=f"exponential({c:g})", d2_log_density=_zeros)


def cosine_metric() -> Metric1D:
    h = 0.5 * math.pi
    return Metric1D(-1.0, 1.0,
                    lambda u: np.cos(h * np.asarray(u, float)),
                    lambda u: -h * np.sin(h * np.asarray(u, float)),
                    lambda u: -h * h * np.cos(h * np.asarray(u, float)),
                    name="cosine")


def hyperbolic_metric() -> Metric1D:
    def rho(u):
        u = np.asarray(u, float)
        with np.errstate(divide="ignore"):
            return 1.0 / (1.0 - u * u)

    # np.square and np.power, not ** (here, in secant_metric and in
    # curvature_at): on a 0-d input the ufuncs return numpy scalars, whose **
    # is libm pow, so one point would round unlike the same point in an array
    def drho(u):
        u = np.asarray(u, float)
        with np.errstate(divide="ignore"):
            return 2.0 * u / np.square(1.0 - u * u)

    def d2rho(u):
        u = np.asarray(u, float)
        with np.errstate(divide="ignore"):
            return (2.0 + 6.0 * u * u) / np.power(1.0 - u * u, 3)

    return Metric1D(-1.0, 1.0, rho, drho, d2rho, name="hyperbolic")


def secant_metric() -> Metric1D:
    h = 0.5 * math.pi

    def rho(u):
        return 1.0 / np.cos(h * np.asarray(u, float))

    def drho(u):
        x = h * np.asarray(u, float)
        return h * np.sin(x) / np.square(np.cos(x))

    def d2rho(u):
        x = h * np.asarray(u, float)
        sec = 1.0 / np.cos(x)
        tan = np.tan(x)
        return h * h * sec * (tan * tan + sec * sec)

    return Metric1D(-1.0, 1.0, rho, drho, d2rho, name="secant")


def half_plane_metric() -> Metric1D:
    """R(x) = 1 - exp(-x) on (0, inf)."""
    return Metric1D(0.0, math.inf,
                    lambda u: -np.expm1(-np.asarray(u, float)),
                    lambda u: np.exp(-np.asarray(u, float)),
                    lambda u: -np.exp(-np.asarray(u, float)),
                    name="half_plane_one_minus_exp")


class ConcaveTentMap:
    """Odd piecewise map: concave quadratic cap on (0, s), affine tail on (s, 1).

    Continuously differentiable, fixes 0 and +-1, and is the input the
    mollifier expects (callable with deriv/second_deriv/knots attributes).
    """

    def __init__(self, a: float, s: float):
        u = a * s * s
        if not (0.0 < s < 1.0) or not (0.0 < u < 1.0) or a <= 0:
            raise ParameterOutOfRange("need s in (0,1) and a*s^2 in (0,1)")
        self.a = float(a)
        self.s = float(s)
        self.u = float(u)
        self.knots = (0.0, self.s, 1.0)
        self.label = f"tent(a={a:g}, s={s:g})"

    def __call__(self, x):
        x = np.asarray(x, float)
        ax = np.abs(x)
        cap = (1.0 + 2.0 * self.a * self.s - self.u) * ax - self.a * ax * ax
        tail = 1.0 + (1.0 - self.u) * (ax - 1.0)
        return np.sign(x) * np.where(ax < self.s, cap, tail)

    def deriv(self, x):
        ax = np.abs(np.asarray(x, float))
        return np.where(ax < self.s,
                        (1.0 + 2.0 * self.a * self.s - self.u) - 2.0 * self.a * ax,
                        1.0 - self.u)

    def second_deriv(self, x):
        x = np.asarray(x, float)
        return np.where(np.abs(x) < self.s, -2.0 * self.a * np.sign(x), 0.0)


def tent_metric(a: float, s: float) -> Metric1D:
    """Density psi'(a, s) of the concave tent map: an even tent with flat wings.

    R'' = 0 between its corners at |u| in {0, s}, its knots.  There K has
    the atoms -(jump of R')/R^3: -2a/(1 - as^2)^3 at +-s and
    4a/(1 + 2as - as^2)^3 at 0.
    """
    psi = ConcaveTentMap(a, s)
    top = 1.0 + 2.0 * psi.a * psi.s - psi.u   # R at the peak; 1 - u on the wings
    _require_normal_square(1.0 - psi.u, top, "tent density")
    try:   # a float's ** raises OverflowError, its * and / give inf
        wing = -2.0 * psi.a / (1.0 - psi.u) ** 3
        peak = 4.0 * psi.a / top ** 3
    except OverflowError:
        wing = peak = math.inf
    if not (math.isfinite(wing) and math.isfinite(peak)):
        raise ParameterOutOfRange(
            f"tent curvature atoms must be finite, got a={a!r}, s={s!r}")
    return Metric1D(-1.0, 1.0, psi.deriv, psi.second_deriv, _zeros, name=psi.label,
                    knots=(-psi.s, 0.0, psi.s),
                    atoms=((-psi.s, wing), (0.0, peak), (psi.s, wing)))


def tabulated_metric(u: Sequence[float], R: Sequence[float]) -> Metric1D:
    """Monotone-cubic (PCHIP) interpolant through sampled (u, R) pairs, knotted at u."""
    try:
        u, R = np.array(u, float), np.array(R, float)
    except (TypeError, ValueError) as exc:
        raise InvalidInput("tabulated metric needs numeric u/R arrays") from exc
    if u.ndim != 1 or u.shape != R.shape or len(u) < 3:
        raise InvalidInput("tabulated metric needs matching 1-d u/R arrays, >= 3 samples")
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(R))):
        raise InvalidInput("tabulated u/R values must be finite")
    if np.any(np.diff(u) <= 0):
        raise InvalidInput("tabulated abscissae must be strictly increasing")
    if np.any(R <= 0):
        raise InvalidInput("tabulated density must be positive")
    # PCHIP stays within the sample range
    _require_normal_square(float(R.min()), float(R.max()), "tabulated density")
    interp = _Cubic.hermite(u, R, _pchip_slopes(u, R))
    return Metric1D(float(u[0]), float(u[-1]), interp, interp.derivative(),
                    interp.derivative(2), name="tabulated", knots=tuple(u[1:-1]))


def metric_from_json(spec: dict) -> Metric1D:
    """Build a metric from {"kind": ..., "params": {...}} documents; a
    tabulated metric is {"kind": "tabulated", "u": [...], "R": [...]}."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise InvalidInput("metric spec must be an object with a 'kind' field")
    kind = spec["kind"]
    params = spec_params(spec)
    if kind == "constant":
        return constant_metric(spec_param(params, "value", 1.0))
    if kind == "exponential":
        if "c" not in params:
            raise InvalidInput("exponential metric needs params.c")
        return exponential_metric(spec_param(params, "c"))
    if kind == "cosine":
        return cosine_metric()
    if kind == "hyperbolic":
        return hyperbolic_metric()
    if kind == "secant":
        return secant_metric()
    if kind == "half_plane_one_minus_exp":
        return half_plane_metric()
    if kind == "lemma_psi_family":
        if "a" not in params or "s" not in params:
            raise InvalidInput("lemma_psi_family needs params.a and params.s")
        a, s = spec_param(params, "a"), spec_param(params, "s")
        if "epsilon" in params:
            epsilon = spec_param(params, "epsilon")
            # a spline of the default table cannot resolve a narrower smoothing
            spacing = 2.0 / (_MOLLIFY_TABLE_POINTS - 1)
            if 0.0 < epsilon < spacing:
                raise ParameterOutOfRange(
                    f"epsilon {epsilon:g} is below the spline spacing "
                    f"2/(table_points - 1) = {spacing:g}")
            return mollify(ConcaveTentMap(a, s), epsilon)
        return tent_metric(a, s)
    if kind == "tabulated":
        if spec.get("u") is None or spec.get("R") is None:
            raise InvalidInput("tabulated metric needs top-level 'u' and 'R' arrays")
        return tabulated_metric(spec["u"], spec["R"])
    raise InvalidInput(f"unknown metric kind {kind!r}")


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------

def curvature_at(metric: Metric1D, u):
    """Gaussian curvature -(1/R^2) (R'/R)' of the strip metric at u, from
    R, R' and R'', or from R and the family's closed-form (log R)'' where it
    supplies one (its point masses are `metric.atoms`).

    Takes a float or an array and returns the same shape (a float for a
    float).  Every element must lie inside the domain.
    """
    u = np.asarray(u, float)
    metric.require_inside(u)
    R = np.asarray(metric.density(u), float)
    if np.any(R <= 0):
        raise DomainError(f"density must be positive, got {float(R.min())}")
    if metric.d2_log_density is not None:
        # 0.0 - w: a flat metric reads +0.0, not -0.0
        curv = (0.0 - np.asarray(metric.d2_log_density(u), float)) / (R * R)
    else:
        Rp, Rpp = metric.d_density(u), metric.d2_density(u)
        w_prime = Rpp / R - np.square(Rp / R)
        curv = -w_prime / (R * R)
    return float(curv) if curv.ndim == 0 else curv


@dataclass(frozen=True)
class LogConcavityReport:
    """Curvature scan of a metric over a grid; `curvature` holds the scanned
    values and `negative_atoms` the (u, mass) point masses of K below 0."""
    min_curvature: float
    worst_u: float
    is_nonnegative: bool
    exp_majorant_ok: bool
    majorant_min_slack: float
    negative_atoms: tuple
    curvature: np.ndarray = dataclasses.field(repr=False, compare=False)


def log_concavity_report(metric: Metric1D, grid: Sequence[float],
                         tols: Tolerances = DEFAULT) -> LogConcavityReport:
    """Scans curvature and the exponential majorant R(t) <= R(a) e^{(R'(a)/R(a))(t-a)}.

    The majorant is anchored at 0 when 0 is interior (the usual unit-interval
    case), otherwise at the grid midpoint.
    """
    grid = np.asarray(grid, float)
    curv = curvature_at(metric, grid)
    i = int(np.argmin(curv))
    grid_min = float(curv[i])
    grid_worst = float(grid[i])
    if math.isfinite(grid_min):
        # mirror minima can differ only by rounding: the smallest u within
        # slack_tol (relative beyond |K| = 1) of the minimum, in any order
        near = curv <= grid_min + tols.slack_tol * max(1.0, abs(grid_min))
        grid_worst = float(np.min(grid[near]))
    # a negative atom is a minimum of -inf, whatever the grid: at the most
    # negative atom, the smaller u on a tie
    negative = tuple((u, m) for u, m in metric.atoms if m < 0.0)
    min_curvature = -math.inf if negative else grid_min
    worst_u = min((m, u) for u, m in negative)[1] if negative else grid_worst
    anchor = 0.0 if metric.domain_lo < 0.0 < metric.domain_hi \
        else float(np.median(grid))
    slope = float(metric.d_density(anchor)) / float(metric.density(anchor))
    majorant = float(metric.density(anchor)) * np.exp(slope * (grid - anchor))
    slack = majorant - np.asarray(metric.density(grid), float)
    return LogConcavityReport(
        min_curvature=min_curvature,
        worst_u=worst_u,
        is_nonnegative=bool(min_curvature >= -tols.slack_tol),
        exp_majorant_ok=bool(slack.min() >= -tols.slack_tol),
        majorant_min_slack=float(slack.min()),
        negative_atoms=negative,
        curvature=curv,
    )


# ---------------------------------------------------------------------------
# mass and the centered primitive H: one table of Gauss cells
# ---------------------------------------------------------------------------

# uniform cells of an HTransform table
_TABLE_CELLS = 4096
# the end cells of a unit table are graded into dyadic slices [1 - 2d, 1 - d]
# down to d = 2^-_FINEST: the Gauss nodes of the last cell [1 - d, 1] then
# still lie below 1, and a slice still holds 2^7 doubles
_FINEST = 46
# the divergence verdict reads the dyadic slices from d = 2^-_COARSEST on;
# coarse slices keep a power-law tail's ratio clear of the rounding of u
# near the endpoint, which drifts the ratios of fine slices
_COARSEST = 3


def _primitive_matrix(nodes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """(n, n + 1) map from values at the n Gauss nodes of [-1, 1] to the power
    coefficients in s of the primitive, from s = -1, of their interpolant.

    Values -> Legendre coefficients (the discrete transform is exact for the
    degree n - 1 interpolant) -> primitive from -1 -> powers of s.
    """
    leg = np.polynomial.legendre
    n = len(nodes)
    to_legendre = leg.legvander(nodes, n - 1) * (weights[:, None] * (np.arange(n) + 0.5))
    return np.array([leg.leg2poly(leg.legint(row, lbnd=-1.0)) for row in to_legendre])


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)
_PRIMITIVE = _primitive_matrix(_GL_NODES, _GL_WEIGHTS)


def _gauss_cells(density: Callable, lo: np.ndarray,
                 hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 12-point Gauss sum of R over each cell [lo, hi] and the (cells, 13)
    power coefficients in s = (u - mid) / half of its primitive from lo.

    The primitive integrates the interpolant of the 12 samples, so at s = 1
    it is the cell's Gauss sum.
    """
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    values = np.asarray(density(mid[:, None] + half[:, None] * _GL_NODES), float)
    piece = np.sum(values * _GL_WEIGHTS, axis=-1) * half
    return piece, half[:, None] * (values @ _PRIMITIVE)


def _cumulative(piece: np.ndarray) -> np.ndarray:
    """[0, running sums of piece], each step's rounding error added back.

    Thousands of near-equal cells would otherwise drift by one rounding per
    step (5.6e-14 in the mass of a tent with flat wings).  The error of
    each step of the sequential sum is exact by TwoSum (Knuth).
    """
    cum = np.cumsum(piece)
    prev = np.concatenate([[0.0], cum[:-1]])
    back = cum - prev
    err = (prev - (cum - back)) + (piece - back)
    return np.concatenate([[0.0], cum + np.cumsum(err)])


def _cell_edges(lo: float, hi: float, knots) -> np.ndarray:
    """`_TABLE_CELLS` uniform cells of [lo, hi], split at 0 and at the knots."""
    inner = [float(k) for k in knots if lo < k < hi]
    return _sorted_unique(np.concatenate([np.linspace(lo, hi, _TABLE_CELLS + 1), [0.0], inner]))


def _end_verdict(slices, tol: float):
    """Where one end of a unit table stops, from its dyadic slice sums alone.

    `slices[j]` integrates R over the slice toward the endpoint with outer
    distance 2^-(_COARSEST + j), coarse to fine.  The rule is that of
    `integrate_to_endpoint`: a slice ratio q < 0.98 models the rest as a
    geometric tail piece * q / (1 - q).  Returns (j, tail, steady): the
    first slice past which the modelled tail is below tol / 4 (steady False;
    tail None when the slice itself is below tol / 64, so the last cell's
    Gauss sum stands), else the first slice whose ratio is steady enough to
    extrapolate the tail within tol / 4 (an integrable power-law blow-up;
    steady True), else the divergence message.
    """
    steady = None
    for j, piece in enumerate(slices):
        if abs(piece) < tol / 64.0:
            return j, None, False
        if j == 0 or slices[j - 1] == 0:
            continue
        q = abs(piece / slices[j - 1])
        if q >= 0.98:
            continue
        tail = math.copysign(abs(piece) * q / (1.0 - q), piece)
        if abs(tail) < tol / 4.0:
            return j, tail, False
        if steady is None and j >= 2 and slices[j - 2] != 0:
            drift = abs(q - abs(slices[j - 1] / slices[j - 2]))
            if drift < 1e-3 and abs(tail) * drift / max(1.0 - q, 0.02) < tol / 4.0:
                steady = j, tail, True
    return steady or "endpoint slices failed to decay; integral diverges"


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """The sorted distinct values, as np.unique gives them (its sort-based
    path), without the masked-array check by which np.unique imports numpy.ma."""
    out = np.sort(np.ravel(values))
    keep = np.empty(out.shape, bool)
    keep[:1] = True
    np.not_equal(out[1:], out[:-1], out=keep[1:])
    return out[keep]


def _frozen(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


@lifetime_cache()
def _unit_table(metric: Metric1D,
                quad_tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, float] | str:
    """Cell edges, cell polynomials, node values of H and the mass r of the
    unit table, or the divergence message.

    The uniform cells, split at the knots, have their two end cells graded
    into dyadic slices, and `_end_verdict` reads each end's slices.  Past
    the slice where it stops, one last cell, sampled anew, carries the
    modelled tail: it replaces the slices beyond, or, for a steady power-law
    tail, only the graded slices, and takes what the tail adds to the
    uniform cells kept beyond the stop.  The cumulative sum of the cells is
    H + r, so H(-1) = -r and H(1) = r.  Only non-finite cells or undecaying
    slices are divergent, not a large mass.  Cached for the metric's lifetime;
    the cache keeps no exception, so a NonIntegrable verdict is kept as its
    message for the callers to raise anew.
    """
    d = 0.5 ** np.arange(_COARSEST, _FINEST + 1)
    graded = 1.0 - d[d < 2.0 / _TABLE_CELLS]
    edges = _sorted_unique(np.concatenate([_cell_edges(-1.0, 1.0, metric.knots),
                                           graded, -graded]))
    piece, coef = _gauss_cells(metric.density, edges[:-1], edges[1:])
    if not np.all(np.isfinite(piece)):
        return "non-finite quadrature values"
    ends = []
    # each end as the right end of the table seen from 0
    for side, side_piece in ((edges, piece), (-edges[::-1], piece[::-1])):
        marks = np.searchsorted(side, 1.0 - d)
        verdict = _end_verdict(np.add.reduceat(side_piece, marks)[:-1], quad_tol)
        if isinstance(verdict, str):
            return verdict
        j, tail, steady = verdict
        stop = d[j + 1]
        ends.append((stop, min(stop, 2.0 / _TABLE_CELLS) if steady else stop, tail))
    (stop_hi, cut_hi, tail_hi), (stop_lo, cut_lo, tail_lo) = ends
    i_lo = int(np.searchsorted(edges, -1.0 + cut_lo))
    i_hi = int(np.searchsorted(edges, 1.0 - cut_hi))
    edges = np.concatenate([[-1.0], edges[i_lo:i_hi + 1], [1.0]])
    last_piece, last_coef = _gauss_cells(metric.density, edges[[0, -2]], edges[[1, -1]])
    piece = np.concatenate([last_piece[:1], piece[i_lo:i_hi], last_piece[1:]])
    coef = np.concatenate([last_coef[:1], coef[i_lo:i_hi], last_coef[1:]])
    for tail, beyond, last in (
            (tail_lo, slice(0, int(np.searchsorted(edges, -1.0 + stop_lo))), 0),
            (tail_hi, slice(int(np.searchsorted(edges, 1.0 - stop_hi)), None), -1)):
        if tail is not None:
            # the last cell's polynomial keeps its shape
            fixed = tail - (piece[beyond].sum() - piece[last])
            coef[last] *= fixed / piece[last]
            piece[last] = fixed
    cum = _cumulative(piece)
    r = 0.5 * cum[-1]
    return _frozen(edges, coef, cum - r) + (r,)


def require_unit_domain(metric: Metric1D) -> None:
    """Raise InvalidInput unless the metric lives on (-1, 1), as r and H need."""
    if metric.domain_lo != -1.0 or metric.domain_hi != 1.0:
        raise InvalidInput(f"metric {metric.name} has the domain ({metric.domain_lo:g}, "
                           f"{metric.domain_hi:g}); the mass and H need (-1, 1)")


def _unit_cells(metric: Metric1D, tols: Tolerances):
    require_unit_domain(metric)
    built = _unit_table(metric, tols.quad_abs_tol)
    if isinstance(built, str):
        # a fresh instance each time: re-raising one would grow its traceback
        raise NonIntegrable(built)
    return built


def mass(metric: Metric1D, tols: Tolerances = DEFAULT) -> float:
    """r = (1/2) * integral of R over (-1, 1): half the sum of the unit
    table's cells, with any modelled endpoint tail."""
    return _unit_cells(metric, tols)[-1]


class HTransform:
    """Per-cell polynomial table of H with vectorized evaluation and inversion.

    Built once per (metric, tolerances) from R at the 12 Gauss nodes of each
    cell.  The unit table's cells are `_unit_table`'s: the uniform cells
    split at the metric's knots, graded toward +-1 as far as the divergence
    verdict needs; their cumulative sum is the mass r and the node values
    H(node).  In each cell, H(u) - H(node) is the primitive of the degree-11
    interpolant of the 12 samples, stored as its 13 power coefficients in
    s = (u - mid) / half.  h() is a cell lookup and a Horner sum; h_inv() is
    bracketed Newton in the point's cell, with the residual and the slope
    from the same polynomial, so neither calls the density after the build,
    and the table keeps no reference to its metric (`transform_table` caches
    it for as long as the metric lives).  Agrees with the scalar oracle
    transform_H (tested).  h() and h_inv() accept numpy arrays.

    For densities of infinite mass the centered H of the unit interval does
    not exist, but the primitive is still strictly increasing, so a table
    restricted to a compact value range (the range table, built when `lo`
    and `hi` are given: uniform cells of [lo, hi] split at 0 and at the
    knots, H(0) = 0) still lifts boundary data whose values stay inside
    that range.  Every table's scale r is the half-span of its H,
    max(-H(lo end), H(hi end)): the mass for the unit table, whose end
    values are -r and r.  Either table inverts targets strictly between its
    end values, to a residual of `inverse_rel_tol` * r.
    """

    def __init__(self, metric: Metric1D, tols: Tolerances = DEFAULT,
                 lo: Optional[float] = None, hi: Optional[float] = None):
        require_unit_domain(metric)
        self.tols = tols
        if lo is None and hi is None:
            self._nodes, self._coef, self._h_nodes, _ = _unit_cells(metric, tols)
        elif lo is None or hi is None or not (-1.0 <= lo < 0.0 < hi <= 1.0):
            raise DomainError("range table needs lo < 0 < hi inside [-1, 1]")
        else:
            self._nodes = _cell_edges(lo, hi, metric.knots)
            piece, self._coef = _gauss_cells(metric.density, self._nodes[:-1], self._nodes[1:])
            cum = _cumulative(piece)
            self._h_nodes = cum - cum[np.searchsorted(self._nodes, 0.0)]
        self.r = max(-self._h_nodes[0], self._h_nodes[-1])

    def _cell_frames(self, cell: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Midpoint and half-width of the given cells."""
        lo, hi = self._nodes[cell], self._nodes[cell + 1]
        return 0.5 * (lo + hi), 0.5 * (hi - lo)

    def _local(self, cell: np.ndarray, u: np.ndarray, slope: bool = False):
        """H(u) - H(node) in each point's cell, and with `slope` also H'(u)."""
        mid, half = self._cell_frames(cell)
        s = (u - mid) / half
        rows = self._coef[cell]
        acc = rows[:, -1].copy()
        d_acc = np.zeros_like(acc) if slope else None
        for j in range(rows.shape[1] - 2, -1, -1):
            if slope:
                d_acc *= s
                d_acc += acc
            acc *= s
            acc += rows[:, j]
        return (acc, d_acc / half) if slope else acc

    def h(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, float)
        flat = np.ravel(u)
        cell = np.clip(np.searchsorted(self._nodes, flat, side="right") - 1,
                       0, len(self._nodes) - 2)
        return (self._h_nodes[cell] + self._local(cell, flat)).reshape(u.shape)

    def h_inv(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, float)
        flat = np.ravel(t)
        h_lo, h_hi = self._h_nodes[0], self._h_nodes[-1]
        if np.any(flat <= h_lo) or np.any(flat >= h_hi):
            raise OutOfRange("target outside the tabulated transform range")
        # every Newton iterate stays in the cell of its target
        cell = np.clip(np.searchsorted(self._h_nodes, flat), 1, len(self._nodes) - 1) - 1
        base = self._h_nodes[cell]
        lo = self._nodes[cell]
        hi = self._nodes[cell + 1]
        u = lo + (hi - lo) * np.clip(
            (flat - base) / np.maximum(self._h_nodes[cell + 1] - base, 1e-300),
            0.0, 1.0)
        target = self.tols.inverse_rel_tol * self.r
        # only points still above target move: a converged point's Newton
        # step rounds back onto its bracket end and would count as a
        # bisection, throwing it half a cell away
        live = np.arange(flat.size)
        for _ in range(80):
            ul = u[live]
            local, dens = self._local(cell[live], ul, slope=True)
            res = (base[live] + local) - flat[live]
            # written so that a NaN residual counts as not converged
            moving = ~(np.abs(res) <= target)
            if not np.any(moving):
                break
            live, ul, res, dens = live[moving], ul[moving], res[moving], dens[moving]
            above = res > 0
            hl = np.where(above, ul, hi[live])
            ll = np.where(above, lo[live], ul)
            with np.errstate(divide="ignore", invalid="ignore"):
                newton = ul - res / dens
            bad = ~np.isfinite(newton) | (newton <= ll) | (newton >= hl)
            u[live] = np.where(bad, 0.5 * (ll + hl), newton)
            lo[live], hi[live] = ll, hl
        else:
            raise NumericInversionFailure(
                f"H inversion did not converge in 80 iterations: max residual "
                f"{np.max(np.abs(res)):.3e} above {target:.3e}")
        return u.reshape(t.shape)


@lifetime_cache()
def transform_table(metric: Metric1D, tols: Tolerances = DEFAULT) -> HTransform:
    """The unit table of the metric, built once per tolerances for as long
    as the metric lives."""
    return HTransform(metric, tols)


# ---------------------------------------------------------------------------
# the scalar oracle: adaptive Simpson one point at a time, for the tests
# ---------------------------------------------------------------------------

@lifetime_cache()
def _half_masses(metric: Metric1D, quad_tol: float) -> tuple[float, float]:
    """The oracle's A = integral over (0, 1) and B = over (-1, 0)."""
    A = integrate_to_endpoint(lambda t: float(metric.density(t)), 0.0, 1.0, tol=quad_tol)
    B = integrate_to_endpoint(lambda t: float(metric.density(-t)), 0.0, 1.0, tol=quad_tol)
    return A, B


def transform_H(metric: Metric1D, u: float, tols: Tolerances = DEFAULT) -> float:
    """Centered primitive H(u) = -(A - B)/2 + integral of R from 0 to u."""
    require_unit_domain(metric)
    u = float(u)
    metric.require_inside(u)
    A, B = _half_masses(metric, tols.quad_abs_tol)
    core = adaptive_simpson(lambda t: float(metric.density(t)), 0.0, u, tol=tols.quad_abs_tol)
    return -0.5 * (A - B) + core


def inverse_H(metric: Metric1D, t: float, tols: Tolerances = DEFAULT) -> float:
    """The unique u in (-1, 1) with H(u) = t, for t strictly inside (-r, r)."""
    r = 0.5 * sum(_half_masses(metric, tols.quad_abs_tol))
    t = float(t)
    if abs(t) >= r:
        raise OutOfRange(f"target {t} outside (-r, r) with r = {r}")
    lo, hi = -1.0 + 1e-14, 1.0 - 1e-14
    u = 0.0
    h_u = transform_H(metric, u, tols=tols)
    target_tol = tols.inverse_rel_tol * r
    for _ in range(120):
        if abs(h_u - t) <= target_tol:
            return u
        if h_u < t:
            lo = u
        else:
            hi = u
        density = float(metric.density(u))
        candidate = u - (h_u - t) / density if density > 0 else math.nan
        u = candidate if (math.isfinite(candidate) and lo < candidate < hi) else 0.5 * (lo + hi)
        h_u = transform_H(metric, u, tols=tols)
    if abs(h_u - t) <= 10 * target_tol:
        return u
    raise OutOfRange(f"inversion stalled at |H(u)-t| = {abs(h_u - t):.3e}")


# ---------------------------------------------------------------------------
# mollification
# ---------------------------------------------------------------------------

def _raw_bump(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, float)
    inside = np.abs(z) < 1.0
    zz = np.where(inside, z, 0.0)
    with np.errstate(divide="ignore", over="ignore"):
        return np.where(inside, np.exp(-1.0 / (1.0 - zz * zz)), 0.0)


_MOLLIFY_GL = np.polynomial.legendre.leggauss(32)


# extra z-splits so fixed-order Gauss handles the bump's flat endpoints
_BUMP_SPLITS = np.array([-0.9, -0.5, 0.5, 0.9])
_BUMP_EDGES = np.concatenate([[-1.0], _BUMP_SPLITS, [1.0]])


_BUMP_NORM = float(segments_gauss(_raw_bump, _BUMP_EDGES[:-1], _BUMP_EDGES[1:],
                                  *_MOLLIFY_GL))


def bump(z: np.ndarray) -> np.ndarray:
    """Smooth even bump supported in (-1, 1) with unit integral."""
    return _raw_bump(z) / _BUMP_NORM


def _bump_integrals(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 32-point Gauss sums of bump(t) and t * bump(t) over each [lo, hi]."""
    nodes, weights = _MOLLIFY_GL
    half = 0.5 * (hi - lo)[..., None]
    t = (lo[..., None] + half) + half * nodes
    mass = bump(t) * (half * weights)
    return mass.sum(axis=-1), (mass * t).sum(axis=-1)


# M0 and M1 (see `_bump_moments`) at -1, -0.9 and -0.5, the lower edges of
# the bump's segments below 0
_EDGE_M0, _EDGE_M1 = (np.concatenate([[0.0], np.cumsum(m)])
                      for m in _bump_integrals(_BUMP_EDGES[:2], _BUMP_EDGES[1:3]))


def _bump_moments(z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The bump moments M0(z) = integral of bump(t) and M1(z) = integral of
    t * bump(t) over t in (-1, z), for z in [-1, 1], as [z > 0],
    M0(z) - [z > 0] and M1(z).

    Each is integrated from the end of the bump nearer to z, where it is
    small, so two values near one end subtract without losing digits:
    M0(z) - 1 = -M0(-z) for z > 0, and M1 is even, as the bump is.  The end
    values are exact, M0(-1) = 0, M0(1) = 1 and M1(+-1) = 0.  The integral
    up to w = -|z| is the 32-point Gauss sum over w's part of its
    `_BUMP_SPLITS` segment added to the whole segments below it.
    """
    w = -np.abs(z)
    m0 = np.zeros_like(w)
    m1 = np.zeros_like(w)
    inner = np.flatnonzero(w > -1.0)
    seg = np.searchsorted(_BUMP_EDGES, w[inner], side="right") - 1
    g0, g1 = _bump_integrals(_BUMP_EDGES[seg], w[inner])
    m0[inner] = _EDGE_M0[seg] + g0
    m1[inner] = _EDGE_M1[seg] + g1
    top = z > 0.0
    return np.where(top, 1.0, 0.0), np.where(top, -m0, m0), m1


def _fold(y: np.ndarray) -> np.ndarray:
    """The point of [-1, 1] that point reflection at +-1 maps onto y in [-2, 2]."""
    return np.where(y > 1.0, 2.0 - y, np.where(y < -1.0, -2.0 - y, y))


def _reflected_pieces(psi: Callable):
    """The cuts of [-2, 2] between +-knots and +-(2 - knots), and the
    midpoint m, R~(m) and slope of the reflected derivative R~ on each piece.

    Raises InvalidInput unless R~ is affine on every piece, checked at its
    quarter points.
    """
    inner = [float(k) for k in psi.knots if 0.0 < k < 1.0]
    half = _sorted_unique(np.concatenate([[0.0, 1.0], inner]))
    right = _sorted_unique(np.concatenate([half, 2.0 - half]))
    cuts = np.concatenate([-right[:0:-1], right])
    mids = 0.5 * (cuts[:-1] + cuts[1:])
    values = np.asarray(psi.deriv(_fold(mids)), float)
    # reflection turns the derivative's slope around
    slopes = np.where(np.abs(mids) > 1.0, -1.0, 1.0) * \
        np.asarray(psi.second_deriv(_fold(mids)), float)
    width = np.diff(cuts)
    offsets = width[:, None] * np.array([-0.25, 0.25])
    probed = np.asarray(psi.deriv(_fold(mids[:, None] + offsets)), float)
    scale = np.max(np.abs(values) + np.abs(slopes) * width)
    if not np.all(np.abs(probed - (values[:, None] + slopes[:, None] * offsets))
                  <= 1e-9 * scale):
        raise InvalidInput("psi's derivative must be affine between its knots")
    return cuts, mids, values, slopes


def mollified_density_exact(psi: Callable, epsilon: float) -> Callable:
    """The smoothed derivative on [-1, 1] as a sum of bump moments (what
    `mollify` samples).

    `psi` carries its derivative `deriv`, its second derivative
    `second_deriv` and the break points `knots` of the derivative on [0, 1],
    as `ConcaveTentMap` does, and its derivative must be affine between the
    knots (InvalidInput otherwise).  Point reflection at (+-1, +-1) extends
    the map to [-2, 2]; its derivative R~ is then affine on the pieces
    between +-knots and +-(2 - knots): R~(y) = R~(m) + b (y - m) on the piece
    with midpoint m, where b is the second derivative, negated on the
    reflected pieces.  Since the bump is even with unit mass, such a piece
    adds (R~(m) + b (x - m)) dM0 - b eps dM1 to the convolution at x, where
    dM0 and dM1 are the differences of the bump moments M0 and M1
    (`_bump_moments`) between the piece's cuts z = clip(x - k, -eps, eps) / eps.
    Only a cut within eps of x lies inside (-1, 1), and only there is the
    bump integrated.  The dM0 add up to the bump's unit mass, so the
    smoothed map sends 1 to 1 and no normalization is needed.  The sum
    scales the roundings of the moments by eps * |b|: a few ulp of max|R~|
    at the kernels in use, 11 for tent(361, 0.05) at eps = 0.9.
    """
    cuts, mids, values, slopes = _reflected_pieces(psi)

    def density(u):
        u = np.asarray(u, float)
        flat = np.ravel(u)
        out = np.zeros(flat.shape)
        # clipping before the division keeps a subnormal eps from overflowing
        z_hi = np.clip(flat - cuts[0], -epsilon, epsilon) / epsilon
        top_hi, m0_hi, m1_hi = _bump_moments(z_hi)
        for k, mid, value, slope in zip(cuts[1:], mids, values, slopes):
            z_lo = np.clip(flat - k, -epsilon, epsilon) / epsilon
            top_lo, m0_lo, m1_lo = _bump_moments(z_lo)
            d0 = (top_hi - top_lo) + (m0_hi - m0_lo)
            # a NaN point stays NaN: its moments are 0, and NaN * 0 is NaN
            out += (value + slope * (flat - mid)) * d0 - slope * epsilon * (m1_hi - m1_lo)
            z_hi, top_hi, m0_hi, m1_hi = z_lo, top_lo, m0_lo, m1_lo
        return out.reshape(u.shape)

    return density


_MOLLIFY_TABLE_POINTS = 8193


def mollify(psi: Callable, epsilon: float,
            table_points: int = _MOLLIFY_TABLE_POINTS) -> Metric1D:
    """Smooth the derivative of an odd increasing piecewise map into a metric.

    The map is extended beyond [-1, 1] by point reflection (which pins the
    normalization: the smoothed map still sends 1 to 1 and stays odd), then
    its derivative, affine between the map's knots, is convolved with the
    scaled bump in closed form: a sum over the affine pieces of two bump
    moments each (`mollified_density_exact`), so no normalization pass is
    needed and the identity map gives exactly 1.  The convolution is
    sampled at `table_points` nodes and carried as a not-a-knot cubic spline
    (built in numpy, scipy's CubicSpline bit for bit) so downstream solvers
    can evaluate the density cheaply; the spline is what the returned
    metric *is*.  Its first and second derivatives are the metric's, so the
    curvature is the spline's own (C2, so without atoms), and its nodes are
    the metric's knots, so the transform table integrates it
    exactly even where the smoothed corners are narrower than a cell.
    """
    if not (0.0 < epsilon < 1.0):
        raise InvalidInput("epsilon must lie in (0, 1)")
    if isinstance(table_points, bool) or not isinstance(table_points, (int, np.integer)) \
            or table_points < 4:
        raise InvalidInput("table_points must be an integer >= 4")
    if not all(hasattr(psi, name) for name in ("deriv", "second_deriv", "knots")):
        raise InvalidInput("psi must carry its derivatives `deriv` and `second_deriv` "
                           "and its `knots`")
    probe = np.linspace(-1.0, 1.0, 513)
    vals = np.asarray(psi(probe), float)
    if abs(vals[-1] - 1.0) > 1e-9 or abs(vals[0] + 1.0) > 1e-9:
        raise InvalidInput("psi must map -1 to -1 and 1 to 1")
    if np.max(np.abs(vals + vals[::-1])) > 1e-9:
        raise InvalidInput("psi must be odd")
    if np.any(np.diff(vals) < -1e-12):
        raise InvalidInput("psi must be non-decreasing")

    exact = mollified_density_exact(psi, epsilon)
    xs = np.linspace(-1.0, 1.0, table_points)
    ys = exact(xs)
    _require_normal_square(float(ys.min()), float(ys.max()), "mollified density")
    spline = _Cubic.hermite(xs, ys, _not_a_knot_slopes(xs, ys))

    label = getattr(psi, "label", "psi")
    return Metric1D(-1.0, 1.0, spline, spline.derivative(1), spline.derivative(2),
                    name=f"mollified({label}, eps={epsilon:g})",
                    knots=tuple(xs[1:-1]))
